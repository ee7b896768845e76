import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlattice.corpus import random_matching_covered
from pmlattice.errors import PreconditionViolated
from pmlattice.graph import MultiGraph, cut_contractions, make_cut
from pmlattice.matchings import (COLS_SLICE, PerfectMatching, count_perfect_matchings,
                                 enumerate_perfect_matchings,
                                 extend_across_cut, is_matching_covered,
                                 matching_edge_ids, matching_masks, matching_table, transpose)
from pmlattice.polytope import idp_decompose

from conftest import bipartite_matching_count, brute_force_matchings


def test_counts_against_brute_force(corpus):
    # the doubled Petersen edge lies in two of the six matchings
    expected = {"k4": 3, "c6": 2, "petersen": 6, "petersen-parallel": 8, "k33": 6, "cube": 9}
    for name, g in corpus.items():
        ms = enumerate_perfect_matchings(g)
        assert [m.edge_ids for m in ms] == brute_force_matchings(g), name
        assert count_perfect_matchings(g) == len(ms), name
        if name in expected:
            assert len(ms) == expected[name]


def _agreed_count(g: MultiGraph) -> int:
    count = count_perfect_matchings(g)
    assert count == len(enumerate_perfect_matchings(g)) == len(brute_force_matchings(g))
    assert count == len(matching_masks(g))
    return count


def _oracle_graphs(corpus) -> dict[str, MultiGraph]:
    """The corpus plus graphs whose edge ids are sparse and not listed in id
    order, with parallel edges, cut-contractions (which keep sparse ids),
    and odd and zero vertex counts."""
    graphs = dict(corpus)
    # K4 with ids 11, 9, ... listed out of order, then a parallel (0, 1)
    graphs["k4-sparse"] = MultiGraph(4, ((11, 0, 1), (2, 2, 3), (9, 0, 2), (5, 1, 3),
                                         (7, 0, 3), (3, 1, 2), (4, 0, 1)))
    graphs["prism-reversed"] = MultiGraph(6, tuple(reversed(corpus["prism"].edges)))
    for name, shore in (("petersen", (0, 1, 2, 3, 4)), ("prism", (0, 1, 2)),
                        ("pete-k4-splice", (0, 1, 2, 3, 4, 5, 6))):
        for side, h in zip("ab", cut_contractions(corpus[name], shore)):
            graphs[f"{name}-{side}"] = h
    graphs["path-5"] = MultiGraph.from_pairs(5, [(i, i + 1) for i in range(4)])
    graphs["empty"] = MultiGraph(0, ())
    return graphs


def test_enumeration_matches_brute_force_oracle(corpus):
    for name, g in _oracle_graphs(corpus).items():
        oracle = sorted(brute_force_matchings(g), key=lambda s: PerfectMatching(s).key())
        assert [m.edge_ids for m in enumerate_perfect_matchings(g)] == oracle, name
        assert list(matching_edge_ids(g)) == [sorted(s) for s in oracle], name
        masks = matching_masks(g)
        assert list(masks) == sorted(masks, reverse=True) and len(set(masks)) == len(masks)
    assert list(matching_edge_ids(MultiGraph(0, ()))) == [[]]
    assert matching_masks(MultiGraph.from_pairs(3, ((0, 1), (1, 2)))) == ()


def test_table_masks_match_frozenset_construction(corpus):
    for name, g in _oracle_graphs(corpus).items():
        t = matching_table(g)
        assert t.masks == tuple(sum(1 << t.edge_pos[eid] for eid in m.edge_ids)
                                for m in enumerate_perfect_matchings(g)), name


def _ids_shifted(g: MultiGraph, offset: int) -> MultiGraph:
    """g with every edge id raised by ``offset``: unequal to g, so its memo is fresh."""
    return MultiGraph(g.vertex_count, tuple((eid + offset, u, v) for eid, u, v in g.edges))


def test_face_and_lattice_queries_decode_no_matching(corpus):
    """dim P, facets, cut classes, the lattice characterization and the
    decomposition read the table's masks and never build a PerfectMatching."""
    from pmlattice.basis import characterize_lattice
    from pmlattice.decomposition import tight_cut_decomposition
    from pmlattice.polytope import classify_all_cuts, enumerate_facets, polytope_dim

    for k, fn in enumerate((polytope_dim, enumerate_facets, classify_all_cuts,
                            characterize_lattice, tight_cut_decomposition)):
        for name in ("prism", "pete-k4-splice"):
            g = _ids_shifted(corpus[name], 1000 * (k + 1))
            before = enumerate_perfect_matchings.cache_info().misses
            fn(g)
            assert enumerate_perfect_matchings.cache_info().misses == before, (fn.__name__, name)


def _complete(n: int, offset: int) -> MultiGraph:
    return _ids_shifted(MultiGraph.from_pairs(n, itertools.combinations(range(n), 2)), offset)


def test_table_adds_little_over_its_masks():
    """The K12 table keeps the enumeration's masks and per-bit indices:
    under 1 MiB on top of its 10,395 masks (8.4 MiB while it also held a
    PerfectMatching per matching)."""
    g = _complete(12, 5000)
    matching_masks(g)
    misses = matching_table.cache_info().misses
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matching_table(g)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert matching_table.cache_info().misses == misses + 1
    assert held < 2**20


def test_table_build_peak_stays_near_its_size():
    """K14's columns are read ``COLS_SLICE`` matchings at a time, so the
    build peaks under 8 MiB over its 135,135 masks (30.9 MiB when one string
    held every mask's digits) for a table of about 1.5 MiB."""
    g = _complete(14, 6000)
    matching_masks(g)
    tracemalloc.start()
    try:
        matching_table(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20 and peak < 8 * 2**20


def test_listing_peak_stays_near_its_masks():
    """The walk drops each vertex set's partial matchings once they are
    carried on, so listing K14 peaks under 2 MiB above the 135,135 masks it
    returns (a walk holding two whole layers peaks about 5.8 MiB above)."""
    g = _complete(14, 8000)
    tracemalloc.start()
    try:
        masks = matching_masks(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(masks) == 135135 and peak - held < 2 * 2**20


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_listing_carries_no_dead_ends():
    """Listing carries only partial matchings that can still be completed.
    K15 on 0..14 with vertex 15 joined to 14, 16 and 17 has no perfect
    matching (16 and 17 both need 15), though 2,027,025 partial matchings
    of its K14 part lead into one layer; with a pendant vertex 13 on K13's
    vertex 12 only the 10,395 that leave 12 for 13 can be completed, out
    of 135,135.  Carrying the dead ends would peak near 100 and 7 MiB."""
    barrier = MultiGraph.from_pairs(18, [*itertools.combinations(range(15), 2), (14, 15), (15, 16), (15, 17)])
    masks, peak = _traced_peak(lambda: matching_masks(barrier))
    assert masks == () and peak < 2**20
    pendant = MultiGraph.from_pairs(14, [*itertools.combinations(range(13), 2), (12, 13)])
    masks, peak = _traced_peak(lambda: matching_masks(pendant))
    assert len(masks) == 10395 and peak < 2 * 2**20


def test_listing_drops_completions_once_read():
    """K15 with a pendant vertex 15 on vertex 14: all 135,135 matchings
    pass through the one set left once 14 and 15 are matched, and its
    completions are dropped as the last move into it reads them, so listing
    peaks under 2 MiB above the masks it returns (about 6.3 MiB when a
    set's partial matchings were still held while carried on)."""
    g = MultiGraph.from_pairs(16, [*itertools.combinations(range(15), 2), (14, 15)])
    tracemalloc.start()
    try:
        masks = matching_masks(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(masks) == 135135 and peak - held < 2 * 2**20


def test_table_columns_across_slices():
    """K12's 10,395 matchings span more than two blocks of rows; every column
    is the face mask of the matchings using its edge bit."""
    t = matching_table(_complete(12, 7000))
    assert len(t.masks) > 2 * COLS_SLICE
    for b, col in enumerate(t.cols):
        assert col == sum(1 << i for i, m in enumerate(t.masks) if m >> b & 1), b


@pytest.mark.parametrize("rows, width", [(0, 5), (3, 0), (1, 1), (COLS_SLICE + 3, 7),
                                         (5, COLS_SLICE + 9), (2 * COLS_SLICE + 1, 70)])
def test_transpose_against_the_naive_transpose(rows, width):
    """Seeded random bit matrices, with empty rows, whose shapes cross
    ``COLS_SLICE`` on each axis; bits of a row at or above ``width`` are
    not read."""
    rng = random.Random(rows * 7919 + width)
    matrix = [0 if rng.random() < 0.2 else rng.getrandbits(width + 3) for _ in range(rows)]
    want = [sum((r >> b & 1) << i for i, r in enumerate(matrix)) for b in range(width)]
    assert transpose(matrix, width) == want
    assert transpose(tuple(matrix), width) == want


def test_long_path_masks_list_one_matching():
    n = 2400
    g = MultiGraph.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    assert len(matching_masks(g)) == 1
    assert list(matching_edge_ids(g)) == [list(range(0, n - 1, 2))]


def test_counting_a_long_path_keeps_no_vertex_masks():
    """The walk keeps each vertex's neighbours as indices, so counting a
    20,000-vertex path peaks under 8 MiB (about 60 MiB with a 20,000-bit
    mask per edge end)."""
    n = 20000
    g = MultiGraph.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
    count, peak = _traced_peak(lambda: count_perfect_matchings(g))
    assert count == 1 and peak < 8 * 2**20


def test_untouched_vertex_ends_the_walk(monkeypatch):
    """A vertex that no edge touches leaves no perfect matching, so the walk
    stops before it builds anything of size |V| (a billion vertices here)."""
    def refuse(self):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(MultiGraph, "adjacency", refuse)
    g = MultiGraph(10**9, ((0, 0, 1),))
    assert count_perfect_matchings(g) == 0
    assert matching_masks(g) == ()


def test_count_edge_cases():
    path = [(i, i + 1) for i in range(5)]
    assert _agreed_count(MultiGraph(0, ())) == 1
    assert _agreed_count(MultiGraph.from_pairs(5, path[:4])) == 0  # odd
    assert _agreed_count(MultiGraph.from_pairs(6, path)) == 1
    assert _agreed_count(MultiGraph.from_pairs(4, ((0, 1), (0, 2), (0, 3)))) == 0  # claw
    two_triangles = MultiGraph.from_pairs(
        6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert _agreed_count(two_triangles) == 0


@st.composite
def _perturbed_random_graphs(draw) -> MultiGraph:
    """A seeded random matching-covered graph with up to three edges
    removed (zero counts occur) and up to three doubled (parallel edges)."""
    n = 2 * draw(st.integers(1, 7))
    _, g = random_matching_covered(draw(st.integers(0, 10**6)), n, draw(st.integers(1, 2)))
    pairs = [(u, v) for _, u, v in g.edges]
    removed = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=3))
    doubled = draw(st.lists(st.sampled_from(pairs), max_size=3))
    return MultiGraph.from_pairs(n, [p for i, p in enumerate(pairs) if i not in removed] + doubled)


@settings(max_examples=60, deadline=None)
@given(_perturbed_random_graphs())
def test_count_agrees_with_enumeration_on_random_graphs(g):
    _agreed_count(g)


def test_bipartite_counts_match_permanent(corpus):
    assert bipartite_matching_count(corpus["k33"], [0, 1, 2], [3, 4, 5]) == 6
    cube_left = [0, 3, 5, 6]
    cube_right = [1, 2, 4, 7]
    assert bipartite_matching_count(corpus["cube"], cube_left, cube_right) == 9


def test_every_matching_covers_every_vertex_once(corpus):
    for name, g in corpus.items():
        ends = g.endpoints()
        for m in enumerate_perfect_matchings(g):
            hit = [0] * g.vertex_count
            for eid in m.edge_ids:
                u, v = ends[eid]
                hit[u] += 1
                hit[v] += 1
            assert all(h == 1 for h in hit), name


def test_enumeration_order_is_lexicographic(corpus):
    for g in corpus.values():
        keys = [m.key() for m in enumerate_perfect_matchings(g)]
        assert keys == sorted(keys)


def test_matching_covered(corpus):
    ok, uncovered = is_matching_covered(corpus["prism"])
    assert ok and not uncovered
    path4 = MultiGraph.from_pairs(4, ((0, 1), (1, 2), (2, 3)))
    ok, uncovered = is_matching_covered(path4)
    assert not ok and uncovered == frozenset({1})
    two_k4 = MultiGraph.from_pairs(
        8, tuple((u, v) for u in range(4) for v in range(u + 1, 4))
        + tuple((u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)))
    assert not is_matching_covered(two_k4)[0]


def test_extend_across_cut_prism_example(corpus):
    g = corpus["prism"]
    cut = make_cut(g, (0, 1, 2))
    inner = PerfectMatching(frozenset({0, 8}))  # (0,1) with rung (2,5) crossing
    out = extend_across_cut(g, cut, inner)
    assert out.edge_ids == frozenset({0, 3, 8})
    assert inner.edge_ids <= out.edge_ids
    assert len(out.edge_ids & cut.boundary) == 1


def test_extend_across_cut_petersen(corpus):
    from pmlattice.graph import contract_shore

    g = corpus["petersen"]
    cut = make_cut(g, (0, 1, 2, 3, 4))
    for inner in enumerate_perfect_matchings(contract_shore(g, (0, 1, 2, 3, 4))):
        out = extend_across_cut(g, cut, inner)
        assert len(out.edge_ids & cut.boundary) == 1
        assert inner.edge_ids <= out.edge_ids


def test_extend_rejects_non_separating(corpus):
    g = corpus["c6"]
    cut = make_cut(g, (0, 2, 4))  # every matching crosses three times
    with pytest.raises(PreconditionViolated):
        extend_across_cut(g, cut, PerfectMatching(frozenset({0})))


def test_idp_examples(corpus):
    k4 = corpus["k4"]
    out = idp_decompose(k4, {e: 1 for e in k4.edge_ids}, 3)
    assert sorted(m.key() for m in out) == [m.key() for m in enumerate_perfect_matchings(k4)]
    c6 = corpus["c6"]
    out = idp_decompose(c6, {e: 1 for e in c6.edge_ids}, 2)
    assert [m.key() for m in out] == [(0, 2, 4), (1, 3, 5)]
    m0 = enumerate_perfect_matchings(k4)[0]
    assert idp_decompose(k4, {e: (1 if e in m0 else 0) for e in k4.edge_ids}, 1) == [m0]


def test_idp_rejects_bad_inputs(corpus):
    k4 = corpus["k4"]
    with pytest.raises(PreconditionViolated):
        idp_decompose(k4, {e: 1 for e in k4.edge_ids}, 2)  # degrees are 3, not 2
    with pytest.raises(PreconditionViolated):
        idp_decompose(k4, {0: -1, 5: 1, 1: 1, 4: 1, 2: 1, 3: 1}, 3)
    prism = corpus["prism"]  # 3-regular, so all-ones has k = 3 but prism is not BvN
    with pytest.raises(PreconditionViolated) as err:
        idp_decompose(prism, {e: 1 for e in prism.edge_ids}, 3)
    assert err.value.reason == "bvn"
    c6 = corpus["c6"]  # int() would read 1.5 as 1 and decompose another vector
    for x, k, reason in (({0: 1.5, 2: 1, 4: 1}, 1, "bad_vector"),
                         ({0: "1", 2: 1, 4: 1}, 1, "bad_vector"),
                         ({0: True, 2: 1, 4: 1}, 1, "bad_vector"),
                         ({0: 1, 2: 1, 4: 1}, True, "bad_k"),
                         ({0: 1, 2: 1, 4: 1}, 1.0, "bad_k")):
        with pytest.raises(PreconditionViolated) as err:
            idp_decompose(c6, x, k)
        assert err.value.reason == reason, (x, k)
