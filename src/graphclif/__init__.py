"""Stabilizer-state toolkit: minimal supports, graph-state censuses, and
constructive conversion of local-unitary equivalences to local-Clifford form."""

__version__ = "0.1.0"

from .pauli import MAX_QUBITS, PauliOperator, identity, parse_pauli
from .stabilizer import (FULL_PROFILE_LIMIT, MSCResult, StabilizerGroup,
                         distance_upper_bound, is_even_code, minimal_elements,
                         minimal_subgroup, minimal_supports, msc_check,
                         s_equals_m)
from .cliffords import (CLIFFORD_CATALOG, IDENTITY_1Q, LocalCliffordOp,
                        SingleQubitClifford, clifford_by_name,
                        conjugate_stabilizer, find_clifford_conjugator,
                        is_clifford, pauli_match)
from .graphs import (Graph, VertexPartition, bar_graph, from_graph6,
                     parse_edge_list, to_graph6, vertex_partition)
from .canon import (OrbitCapExceeded, canonical_form, canonical_graph,
                    lc_class_key, lc_orbit)
from .graphstates import (TheoremClassification, classify_theorem,
                          has_weight_two_element, is_ghz_class,
                          stabilizer_to_graph, standard_generators)
from .states import (apply_local, apply_pauli, equal_up_to_global_phase,
                     graph_state_vector, stabilizer_state_vector)
from .construct import (CapabilityError, Fact1Error, LCResult, LUInstance,
                        UnsupportedClassError, construct_lc,
                        generate_instance, verify_lc, weight_two_elements)
from .rmcodes import (BinaryCode, CSSCode, build_css, css_distance,
                      logical_state_stabilizer, punctured_rm1, rm1,
                      transversal_weight_check)
from .census import (CensusReport, ClassRecord, beyond_msc, bound_violation,
                     classify_lc_classes, generate_connected_graphs,
                     generate_trees, msc_without_equality, run_census, scan)

__all__ = [
    "MAX_QUBITS", "PauliOperator", "identity", "parse_pauli",
    "FULL_PROFILE_LIMIT", "MSCResult", "StabilizerGroup",
    "distance_upper_bound", "is_even_code", "minimal_elements",
    "minimal_subgroup", "minimal_supports", "msc_check", "s_equals_m",
    "CLIFFORD_CATALOG", "IDENTITY_1Q", "LocalCliffordOp",
    "SingleQubitClifford", "clifford_by_name", "conjugate_stabilizer",
    "find_clifford_conjugator", "is_clifford", "pauli_match",
    "Graph", "VertexPartition", "bar_graph", "from_graph6", "parse_edge_list",
    "to_graph6", "vertex_partition",
    "OrbitCapExceeded", "canonical_form", "canonical_graph", "lc_class_key",
    "lc_orbit",
    "TheoremClassification", "classify_theorem", "has_weight_two_element",
    "is_ghz_class", "stabilizer_to_graph", "standard_generators",
    "apply_local", "apply_pauli", "equal_up_to_global_phase",
    "graph_state_vector", "stabilizer_state_vector",
    "CapabilityError", "Fact1Error", "LCResult", "LUInstance",
    "UnsupportedClassError", "construct_lc", "generate_instance", "verify_lc",
    "weight_two_elements",
    "BinaryCode", "CSSCode", "build_css", "css_distance",
    "logical_state_stabilizer", "punctured_rm1", "rm1",
    "transversal_weight_check",
    "CensusReport", "ClassRecord", "beyond_msc", "bound_violation",
    "classify_lc_classes", "generate_connected_graphs", "generate_trees",
    "msc_without_equality", "run_census", "scan",
    "__version__",
]
