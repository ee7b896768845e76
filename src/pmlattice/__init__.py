"""Exact-arithmetic toolkit for perfect matching polytopes and matching
lattices: tight cut decomposition, the merger operation, intersection-pair
search, integral and lattice bases of matchings, and the mod-2 parity
characterization of the matching lattice."""

__version__ = "0.1.0"

from .basis import (Basis, IntersectionPair, LatticeCharacterization,
                    characterize_lattice, find_intersection_pair,
                    integral_basis, lattice_basis, matching_lattice,
                    matching_saturation, merge_bases, merge_coefficients,
                    near_brick_petersen_basis, pm_linear_basis)
from .corpus import (CORPUS_NAMES, corpus_graph, dump_graph_file,
                     parse_graph_file, random_matching_covered)
from .decomposition import (DecompTree, barrier_of_tight_cut, brick_count,
                            find_tight_cut, is_near_brick, parity_sets,
                            petersen_bricks, tight_cut_decomposition, tight_shores)
from .errors import (PmLatticeError, PreconditionViolated, TheoremFalsified,
                     VertexCapExceeded)
from .graph import (Cut, MultiGraph, Shore, contract_shore, five_cycles,
                    girth, is_bipartite, is_petersen, make_cut, make_shore,
                    petersen_graph, simplify)
from .linalg import (Lattice, hnf, lattice_equal, lattice_index,
                     lattice_member, rank, saturation, snf)
from .matchings import (PerfectMatching, enumerate_perfect_matchings,
                        extend_across_cut, idp_decompose, is_matching_covered)
from .polytope import (CutClass, Face, classify_cut, cuts_equivalent,
                       enumerate_codim2_faces, enumerate_facets, is_bvn,
                       polytope_dim, uncross)
from .verifier import PROPERTY_IDS, PropertyReport, verify_all, verify_property
