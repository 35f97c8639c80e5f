"""Walk through the structure report for a few named graph states.

For each graph we print the stabilizer distance, the vertex partition
driving the leaf/axil analysis, the minimal-support check, and which
sufficient condition (if any) settles LU = LC for its equivalence class.
"""

from graphclif import (Graph, classify_theorem, is_even_code,
                       minimal_supports, msc_check, s_equals_m,
                       standard_generators, to_graph6, vertex_partition)

B4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
HEXACODE = Graph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 5),
                                (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])

GALLERY = [
    ("star on 5 vertices (GHZ class)", Graph.star(5)),
    ("path on 5 vertices", Graph.path(5)),
    ("cycle on 5 vertices", Graph.cycle(5)),
    ("cycle on 4 vertices", Graph.cycle(4)),
    ("B4: path with a double leaf", B4),
    ("hexacode graph", HEXACODE),
]


def vertices(mask):
    return [v + 1 for v in range(mask.bit_length()) if (mask >> v) & 1]


def report(title, g):
    s = standard_generators(g)
    counts = s.support_counts()
    minimal = minimal_supports(s)
    part = vertex_partition(g)
    m = msc_check(s)
    cls = classify_theorem(g)

    print(f"== {title}  ({to_graph6(g)})")
    print(f"   n={g.n}  delta={s.distance()}  even_code={is_even_code(s)}")
    print(f"   V1={vertices(part.v1)}  V2={vertices(part.v2)}  "
          f"V3={vertices(part.v3)}  V4={vertices(part.v4)}")
    small = sorted(minimal)[:4]
    shown = ", ".join(f"{vertices(o)}:A={counts[o]}" for o in small)
    print(f"   minimal supports ({len(minimal)} total): {shown}")
    print(f"   msc={m.passed}  S=M:{s_equals_m(s)}")
    print(f"   classification: {cls.tag}  satisfied={sorted(cls.satisfied)}")
    print()


def main():
    for title, g in GALLERY:
        report(title, g)
    print("Tags in order of strength: GHZ and MainTheorem certify LU = LC")
    print("constructively; Delta2BarMSC and MSC certify it abstractly; Open")
    print("means no implemented condition applies (C4 above is the smallest).")


if __name__ == "__main__":
    main()
