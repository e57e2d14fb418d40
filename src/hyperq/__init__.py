"""Quasirandom 3- and 4-uniform hypergraphs: seeded extremal constructions,
quasirandomness certification, and forbidden-pattern detection."""

__version__ = "0.1.0"

from .core import (
    CapExceeded,
    DensityReport,
    Graph,
    Hypergraph3,
    Hypergraph4,
    ParseError,
    read_hypergraph,
    write_hypergraph,
)
from .constructions import (
    CONSTRUCTIONS,
    PairColouring,
    Tournament,
    TripleOrientation,
    gen_colouring_kk_free,
    gen_leader_tan,
    gen_oriented_4hg,
    gen_party_of_six,
    gen_rainbow_1_27,
    gen_random_3hg,
    gen_sk_free,
    gen_tournament_3hg,
)
from .certifiers import (
    DeviationReport,
    bipartite_regularity_deviation,
    pair_deviation,
    quad_vertex_deviation,
    relative_density,
    triangle_bound_check,
    weak_deviation,
    xyz_deviation,
)
from .detectors import (
    Witness,
    check_vanishing_condition,
    count_k4_minus,
    embed_small,
    find_clique3,
    find_f4,
    find_k4_minus,
    find_sk,
    link_colouring_witness,
    three_edge_isomorphism_types,
)
from .multipartite import (
    AuxiliaryHypergraph,
    MultipartiteGraph,
    TripartiteTriples,
    explore_extremal,
    find_three_triples,
    find_triangle_mp,
    half_split,
    mean_square_profile,
    project_auxiliary,
    proof_diagnostics,
    read_multipartite,
    write_multipartite,
)
from .experiment import ExperimentSpec, run_experiment
