"""Quasirandom 3- and 4-uniform hypergraphs: seeded extremal constructions,
quasirandomness certification, and forbidden-pattern detection.

``import hyperq`` executes none of the modules below: each one runs on the
first use of one of its attributes, so a command pays only for the modules
it calls.  The public names resolve through the module that defines them."""

import importlib.util
import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("core", "CapExceeded DensityReport Graph Hypergraph3 Hypergraph4 ParseError"
             " read_hypergraph write_hypergraph"),
    ("constructions", "CONSTRUCTIONS PairColouring Tournament TripleOrientation"
                      " gen_colouring_kk_free gen_leader_tan gen_oriented_4hg"
                      " gen_party_of_six gen_rainbow_1_27 gen_random_3hg gen_sk_free"
                      " gen_tournament_3hg"),
    ("certifiers", "DeviationReport bipartite_regularity_deviation pair_deviation"
                   " quad_vertex_deviation relative_density triangle_bound_check"
                   " weak_deviation xyz_deviation"),
    ("detectors", "Witness check_vanishing_condition count_k4_minus embed_small"
                  " find_clique3 find_f4 find_k4_minus find_sk link_colouring_witness"
                  " three_edge_isomorphism_types"),
    ("multipartite", "AuxiliaryHypergraph MultipartiteGraph TripartiteTriples"
                     " explore_extremal find_three_triples find_triangle_mp half_split"
                     " mean_square_profile project_auxiliary proof_diagnostics"
                     " read_multipartite write_multipartite"),
    ("experiment", "ExperimentSpec run_experiment"),
) for name in names.split()}
__all__ = sorted(_EXPORTS)


def _lazy(name: str):
    """Register ``hyperq.<name>`` in ``sys.modules`` through
    ``importlib.util.LazyLoader``: its code runs on the first attribute
    access.  The LazyLoader of Python 3.11 is not thread-safe; hyperq starts
    no threads of its own, and the process pool of ``experiment`` forks only
    after that module has executed."""
    spec = importlib.util.find_spec("%s.%s" % (__name__, name))
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


core, hashing, constructions, detectors, multipartite, certifiers, experiment = map(
    _lazy, ("core", "hashing", "constructions", "detectors", "multipartite", "certifiers",
            "experiment"))


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_EXPORTS})
