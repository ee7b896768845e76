import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_tight_shores
from pmlattice.corpus import random_matching_covered
from pmlattice.decomposition import (barrier_of_tight_cut, brick_count,
                                     canonical_parity_cycle, find_tight_cut,
                                     is_near_brick, parity_sets,
                                     petersen_bricks, tight_cut_decomposition,
                                     tight_shores)
from pmlattice.errors import PreconditionViolated
from pmlattice.graph import (MultiGraph, cut_contractions, is_bipartite,
                             make_cut, odd_shores, simplify)
from pmlattice.matchings import matching_covered


def _nx(g: MultiGraph) -> nx.MultiGraph:
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from((u, v) for _, u, v in g.edges)
    return h


def brick_plus_pendant_square() -> MultiGraph:
    # triangle {0,1,2} joined to a path 3-4-5 through edges (0,3),(1,3),(2,5):
    # the contraction keeping {0,1,2} is K4, the other side is a brace
    return MultiGraph.from_pairs(6, (
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 5), (3, 4), (4, 5)))


def test_find_tight_cut(corpus):
    assert find_tight_cut(corpus["prism"]) is None
    assert find_tight_cut(corpus["petersen"]) is None
    cut = find_tight_cut(corpus["c6"])
    assert cut is not None and cut.shore == (0, 1, 2)


def test_leaf_labels(corpus):
    tree = tight_cut_decomposition(corpus["prism"])
    assert tree.is_leaf and tree.leaf_label == "brick"
    labels = sorted(l.leaf_label for l in tight_cut_decomposition(corpus["c6"]).leaves())
    assert labels == ["brace", "brace"]
    labels = sorted(l.leaf_label for l in tight_cut_decomposition(corpus["pete-c4-splice"]).leaves())
    assert labels == ["brace", "petersen_brick"]
    labels = sorted(l.leaf_label for l in tight_cut_decomposition(corpus["pete-k4-splice"]).leaves())
    assert labels == ["brace", "brick", "petersen_brick"]


def test_c6_decomposes_into_c4_braces(corpus):
    tree = tight_cut_decomposition(corpus["c6"])
    for leaf in tree.leaves():
        assert leaf.graph.vertex_count == 4 and len(leaf.graph.edges) == 4
        assert is_bipartite(leaf.graph)[0]


def test_pete_k4_splice_brick_leaf_is_k4(corpus):
    tree = tight_cut_decomposition(corpus["pete-k4-splice"])
    k4 = MultiGraph.from_pairs(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    bricks = [l for l in tree.leaves() if l.leaf_label == "brick"]
    assert len(bricks) == 1
    assert nx.is_isomorphic(_nx(simplify(bricks[0].graph)[0]), _nx(k4))


def test_brick_counts(corpus):
    expected = {"k4": 1, "c6": 0, "k33": 0, "cube": 0, "prism": 1,
                "double-prism": 1, "petersen": 1, "petersen-parallel": 1,
                "pete-c4-splice": 1, "pete-k4-splice": 2}
    for name, want in expected.items():
        assert brick_count(corpus[name]) == want, name
        assert is_near_brick(corpus[name]) == (want == 1)


def test_petersen_bricks_lifted_cycles(corpus):
    (leaf, cycles), = petersen_bricks(corpus["petersen"])
    assert leaf.graph == corpus["petersen"]
    assert len(cycles) == 12
    (leaf, cycles), = petersen_bricks(corpus["pete-k4-splice"])
    assert len(cycles) == 12
    root_ids = set(corpus["pete-k4-splice"].edge_ids)
    for eids in cycles:
        assert set(eids) <= root_ids
    assert petersen_bricks(corpus["prism"]) == []


def test_leaf_multiset_invariant_under_random_cut_choice(corpus):
    def signature(tree):
        out = []
        for leaf in tree.leaves():
            simple, _ = simplify(leaf.graph)
            out.append((leaf.leaf_label, simple.vertex_count, len(simple.edges),
                        tuple(sorted(simple.degree(v) for v in simple.vertices()))))
        return sorted(out)

    for name in ("c6", "cube", "pete-c4-splice", "pete-k4-splice"):
        g = corpus[name]
        base = signature(tight_cut_decomposition(g))
        for seed in (1, 2, 3):
            randomized = tight_cut_decomposition(g, seed=seed)
            assert signature(randomized) == base, name
            # and the simplified leaves are pairwise isomorphic class-by-class
            base_leaves = sorted(tight_cut_decomposition(g).leaves(),
                                 key=lambda l: (l.leaf_label, l.graph.vertex_count))
            rand_leaves = sorted(randomized.leaves(),
                                 key=lambda l: (l.leaf_label, l.graph.vertex_count))
            for a, b in zip(base_leaves, rand_leaves):
                assert nx.is_isomorphic(_nx(simplify(a.graph)[0]), _nx(simplify(b.graph)[0]))


def test_leaf_edge_ids_are_root_edge_ids(corpus):
    for name in ("c6", "cube", "pete-c4-splice", "pete-k4-splice"):
        g = corpus[name]
        for seed in (None, 1):
            for leaf in tight_cut_decomposition(g, seed=seed).leaves():
                assert set(leaf.graph.edge_ids) <= set(g.edge_ids), name


def _oracle_leaf_edge_sets(g: MultiGraph, rng: random.Random | None) -> list[tuple[int, ...]]:
    """Leaf edge sets of the decomposition driven by the exhaustive scan,
    drawing cuts from ``rng`` in the same order as the library."""
    shores = oracle_tight_shores(g)
    if not shores:
        return [tuple(sorted(g.edge_ids))]
    shore = shores[0] if rng is None else rng.choice(shores)
    keep_shore, keep_comp = cut_contractions(g, shore)
    return _oracle_leaf_edge_sets(keep_shore, rng) + _oracle_leaf_edge_sets(keep_comp, rng)


def _assert_tight_shores_match_oracle(g: MultiGraph, seeds=(None, 1, 2)) -> None:
    assert tight_shores(g) == tuple(oracle_tight_shores(g))
    for seed in seeds:
        leaves = tight_cut_decomposition(g, seed=seed).leaves()
        got = sorted(tuple(sorted(leaf.graph.edge_ids)) for leaf in leaves)
        rng = None if seed is None else random.Random(seed)
        assert got == sorted(_oracle_leaf_edge_sets(g, rng))


def test_tight_shores_match_exhaustive_scan_on_corpus(corpus):
    for g in corpus.values():
        _assert_tight_shores_match_oracle(g)
    # sparse, large, descending edge ids: the bitmasks index edge positions
    g = corpus["pete-c4-splice"]
    relabelled = MultiGraph(g.vertex_count, tuple(
        (10**6 + 7 * (len(g.edges) - i), u, v) for i, (_, u, v) in enumerate(g.edges)))
    _assert_tight_shores_match_oracle(relabelled)
    assert tight_shores(relabelled) == tight_shores(g) != ()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), half=st.integers(2, 7), extra=st.integers(1, 3),
       picks=st.lists(st.integers(0, 10**4), max_size=3))
def test_tight_shores_match_exhaustive_scan_on_random_graphs(seed, half, extra, picks):
    _, g = random_matching_covered(seed, 2 * half, extra)
    _assert_tight_shores_match_oracle(g, seeds=(None, seed))
    # cut-contractions carry parallel edges and non-contiguous edge ids
    shores = list(odd_shores(g))
    for pick in picks if shores else ():
        for h in cut_contractions(g, shores[pick % len(shores)]):
            if matching_covered(h):
                _assert_tight_shores_match_oracle(h, seeds=(None, seed))


def test_barrier_on_pendant_square():
    g = brick_plus_pendant_square()
    cut = make_cut(g, (0, 1, 2))
    barrier = barrier_of_tight_cut(g, cut)
    assert barrier == frozenset({3, 5})


def test_barrier_validations(corpus):
    g = corpus["pete-c4-splice"]
    tree = tight_cut_decomposition(g)
    barrier = barrier_of_tight_cut(g, tree.cut)
    # independent set whose removal leaves |B| components
    ends = g.endpoints()
    assert not any(u in barrier and v in barrier for u, v in ends.values())
    with pytest.raises(PreconditionViolated):
        barrier_of_tight_cut(corpus["prism"], make_cut(corpus["prism"], (0, 1, 2)))


def test_barrier_rejects_non_near_bricks(corpus):
    g = corpus["pete-k4-splice"]
    cut = make_cut(g, tuple(range(9)))
    with pytest.raises(PreconditionViolated) as err:
        barrier_of_tight_cut(g, cut)
    assert err.value.reason == "not_near_brick"


def test_canonical_parity_cycle(corpus):
    verts, eids = canonical_parity_cycle(corpus["petersen"])
    assert eids == (0, 1, 2, 3, 4)
    # the doubled pair {0, 15} blocks the outer cycle on petersen-parallel
    verts, eids = canonical_parity_cycle(corpus["petersen-parallel"])
    assert 0 not in eids and 15 not in eids
    _, classes = simplify(corpus["petersen-parallel"])
    assert all(len(classes[e]) == 1 for e in eids)
    with pytest.raises(PreconditionViolated):
        canonical_parity_cycle(corpus["prism"])


def test_parity_sets(corpus):
    assert parity_sets(corpus["petersen"]) == [frozenset({0, 1, 2, 3, 4})]
    assert parity_sets(corpus["prism"]) == []
    assert len(parity_sets(corpus["pete-k4-splice"])) == 1


def test_bipartite_contraction_implies_tight(corpus):
    from pmlattice.graph import boundary
    from pmlattice.matchings import enumerate_perfect_matchings
    from pmlattice.polytope import is_separating

    for name in ("c6", "k33", "cube", "prism", "petersen", "pete-c4-splice"):
        g = corpus[name]
        ms = enumerate_perfect_matchings(g)
        for shore in odd_shores(g):
            if not is_separating(g, shore):
                continue
            ks, kc = cut_contractions(g, shore)
            if is_bipartite(ks)[0] or is_bipartite(kc)[0]:
                edges = boundary(g, shore)
                assert all(len(m.edge_ids & edges) == 1 for m in ms), (name, shore)


def test_decomposition_requires_matching_covered():
    path4 = MultiGraph.from_pairs(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(PreconditionViolated):
        tight_cut_decomposition(path4)
