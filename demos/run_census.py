"""Censuses of LC equivalence classes for small connected graphs.

Extends the class representatives at n - 1 by one vertex in every way,
closes each extension under local complementation, and tabulates class
counts, distances, and classification tags.  The n=6 table shows the unique
distance-4 class (the hexacode state), which the even-code distance cap
accommodates while the generic cap would not.
"""

from graphclif import (beyond_msc, bound_violation, msc_without_equality,
                       run_census, scan)

TOP_N = 7  # n=8 adds ~10s, n=9 about five minutes; raise it if curious


def main():
    print("LC-class censuses for connected graphs")
    print(f"{'n':>3} {'graphs':>8} {'classes':>8} {'by delta':<24} by tag")
    reports = {}
    for n in range(2, TOP_N + 1):
        report = run_census(n)
        reports[n] = report
        print(f"{n:>3} {report.graphs_seen:>8} {report.class_count:>8} "
              f"{str(report.totals_by_delta):<24} {report.totals_by_tag}")

    print()
    print("Scans over the censused classes:")
    for n, report in reports.items():
        flagged = scan(report, beyond_msc)
        unequal = scan(report, msc_without_equality)
        capped = scan(report, lambda r: bound_violation(r, n))
        print(f"  n={n}: beyond-MSC {len(flagged)}, MSC with S!=M "
              f"{len(unequal)}, distance-cap violations {len(capped)}")

    print()
    print("Full class table at n=6 (distance-4 row is the hexacode class):")
    print(reports[6].summary_table())


if __name__ == "__main__":
    main()
