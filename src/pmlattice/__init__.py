"""Exact-arithmetic toolkit for perfect matching polytopes and matching
lattices: tight cut decomposition, the merger operation, intersection-pair
search, integral and lattice bases of matchings, and the mod-2 parity
characterization of the matching lattice."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {  # module -> its public names, each imported on first access (PEP 562)
    "basis": "Basis IntersectionPair LatticeCharacterization characterize_lattice "
             "find_intersection_pair integral_basis lattice_basis matching_lattice "
             "matching_saturation merge_bases merge_coefficients near_brick_petersen_basis "
             "pm_linear_basis",
    "corpus": "CORPUS_NAMES corpus_graph dump_graph_file parse_graph_file "
              "random_matching_covered",
    "decomposition": "DecompTree barrier_of_tight_cut brick_count find_tight_cut "
                     "is_near_brick parity_sets petersen_bricks tight_cut_decomposition "
                     "tight_shores",
    "errors": "PmLatticeError PreconditionViolated TheoremFalsified VertexCapExceeded",
    "graph": "Cut MultiGraph contract_shore five_cycles girth is_bipartite is_petersen "
             "make_cut petersen_graph simplify",
    "linalg": "Lattice hnf lattice_equal lattice_index lattice_member rank saturation snf",
    "matchings": "PerfectMatching count_perfect_matchings enumerate_perfect_matchings "
                 "extend_across_cut is_matching_covered",
    "polytope": "CutClass Face classify_cut cuts_equivalent enumerate_codim2_faces "
                "enumerate_facets idp_decompose is_bvn polytope_dim uncross",
    "verifier": "PROPERTY_IDS PropertyReport verify_all verify_property",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
