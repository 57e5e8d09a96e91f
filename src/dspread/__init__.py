"""Generalized distance matrices of connected graphs: spectra, spread,
closed-form family spectra, and numerical verification of spread bounds."""

from .bounds import (
    BOUND_IDS,
    EvalContext,
    Evaluation,
    check_edge_deletion_monotonicity,
    check_interlacing,
    evaluate,
    evaluate_all,
    evaluate_bound,
    solve_spectra,
)
from .cliques import SearchBudgetExceeded, clique_number, independence_number
from .corpus import (
    ALPHA_GRID,
    check_problem_39,
    check_theorem_36_ordering,
    load_corpus,
    random_connected_graph,
    sweep,
)
from .eigen import sym_eigen
from .families import (
    AnalyticSpectrum,
    FamilySpec,
    generate,
    matches_numeric,
    parse_family,
    spectrum_complete,
    spectrum_complete_bipartite,
    spectrum_complete_split,
)
from .graphs import (
    DisconnectedGraphError,
    DistanceProfile,
    Graph,
    GraphParseError,
    distance_profile,
    encode_graph6,
    induced_paths,
    is_bipartite,
    is_connected,
    is_transmission_regular,
    parse_graph6,
    remove_edge,
)
from .matrices import generalized_distance_matrix, quotient_eigenvalues

__version__ = "0.1.0"
