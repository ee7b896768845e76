import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmlattice.corpus import random_matching_covered
from pmlattice.decomposition import tight_shores
from pmlattice.errors import PreconditionViolated, VertexCapExceeded
from pmlattice.graph import (MultiGraph, boundary, cut_contractions, make_cut,
                             odd_shores)
from pmlattice.matchings import (enumerate_perfect_matchings,
                                 incidence_vectors, matching_covered,
                                 matching_table)
from pmlattice.polytope import (Face, classify_all_cuts, classify_cut,
                                cuts_equivalent, enumerate_codim2_faces,
                                enumerate_facets, facet_cuts, facet_incidence, facet_masks,
                                is_bvn, is_separating, members_dim,
                                polytope_dim, separating_cuts,
                                separating_facet_defining_cuts, uncross)

from conftest import (bareiss_rank, brute_force_matchings, matching_rows, oracle_affine_dim,
                      oracle_face_facets, oracle_faces, oracle_hnf, oracle_is_separating,
                      oracle_odd_faces, oracle_saturation, row_major_avoiding, row_major_face)


def test_dimension_examples(corpus):
    assert polytope_dim(corpus["petersen"]) == 5
    assert polytope_dim(corpus["c6"]) == 1
    assert polytope_dim(corpus["k33"]) == 4
    g = corpus["k33"]
    assert oracle_affine_dim(incidence_vectors(g, enumerate_perfect_matchings(g))) == 4


def test_dimension_formula_all_corpus(corpus):
    from pmlattice.decomposition import brick_count

    for name, g in corpus.items():
        assert polytope_dim(g) == len(g.edges) - g.vertex_count + 1 - brick_count(g), name


def test_classify_prism_rung_cut(corpus):
    cc = classify_cut(corpus["prism"], (0, 1, 2))
    assert cc.is_separating and cc.is_facet_defining and not cc.is_tight
    assert len(cc.face.member_matchings) == 3  # three of four matchings cross once
    assert cc.face.dim == 2


def test_classify_petersen_five_cycle_shore(corpus):
    cc = classify_cut(corpus["petersen"], (0, 1, 2, 3, 4))
    assert cc.is_separating and cc.is_facet_defining and not cc.is_tight


def test_classify_c6_consecutive_is_tight(corpus):
    cc = classify_cut(corpus["c6"], (0, 1, 2))
    assert cc.is_tight and cc.is_separating


def test_classify_rejects_bad_shores(corpus):
    with pytest.raises(PreconditionViolated):
        classify_cut(corpus["prism"], (0, 1))
    with pytest.raises(PreconditionViolated):
        classify_cut(corpus["prism"], (0,))


def test_separating_definitions_agree(corpus):
    # contraction-based vs face-based answers coincide on every nontrivial
    # odd shore of every small corpus graph
    for name in ("k4", "c6", "k33", "cube", "prism", "double-prism", "petersen"):
        g = corpus[name]
        table = matching_table(g)
        for shore in odd_shores(g):
            face = table.face(table.edge_mask(boundary(g, shore)))
            by_face = bool(face) and table.covers_all_edges(face)
            ks, kc = cut_contractions(g, shore)
            by_contraction = matching_covered(ks) and matching_covered(kc)
            assert by_face == by_contraction == is_separating(g, shore), (name, shore)


def _assert_faces_match_oracle(g: MultiGraph) -> None:
    table = matching_table(g)
    ms = enumerate_perfect_matchings(g)
    assert [tuple(table.row(m)) for m in table.masks] == incidence_vectors(g, ms)
    brute = brute_force_matchings(g)
    for shore, (members, covers) in oracle_odd_faces(g).items():
        cut = boundary(g, shore)
        three = table.three_crossing(table.cut_mask(shore))
        assert (None if three is None else ms[three].edge_ids) == next(
            (m for m in brute if len(m & cut) == 3), None), shore
        face = table.face(table.cut_mask(shore))
        bits = sum(1 << v for v in shore)
        assert table.face(table.cut_mask(v for v in range(g.vertex_count) if bits >> v & 1)) == face, shore
        indices = [i for i in range(len(table.masks)) if face >> i & 1]
        assert [ms[i].edge_ids for i in indices] == members, shore
        assert table.covers_all_edges(face) == covers, shore
        assert table.face(table.edge_mask(boundary(g, shore))) == face, shore


def test_table_faces_match_oracle_on_corpus(corpus):
    for g in corpus.values():
        if g.vertex_count <= 10:
            _assert_faces_match_oracle(g)


@st.composite
def _random_graphs_with_doubled_edges(draw) -> MultiGraph:
    """A seeded random matching-covered graph on at most 12 vertices with
    up to three of its edges doubled."""
    n = 2 * draw(st.integers(1, 6))
    _, g = random_matching_covered(draw(st.integers(0, 10**6)), n, draw(st.integers(1, 3)))
    pairs = [(u, v) for _, u, v in g.edges]
    return MultiGraph.from_pairs(n, pairs + draw(st.lists(st.sampled_from(pairs), max_size=3)))


@settings(max_examples=40, deadline=None)
@given(_random_graphs_with_doubled_edges())
def test_table_faces_match_oracle_on_random_graphs(g):
    _assert_faces_match_oracle(g)


@settings(max_examples=25, deadline=None)
@given(_random_graphs_with_doubled_edges(),
       st.lists(st.integers(0, 2**64), min_size=1, max_size=6))
def test_members_dim_matches_oracle_on_random_masks(g, draws):
    rows = [[int(eid in m) for eid in g.edge_ids] for m in brute_force_matchings(g)]
    for draw in draws + [0, -1]:
        face = draw % (1 << len(rows))
        want = oracle_affine_dim([r for i, r in enumerate(rows) if face >> i & 1])
        assert members_dim(g, face) == want, face


def test_column_faces_match_row_major_on_corpus(corpus):
    """``cols`` and the faces read from it agree with the matching-by-matching
    count on every odd vertex set of every corpus graph."""
    for name, g in corpus.items():
        t = matching_table(g)
        all_edges = (1 << len(g.edges)) - 1
        assert list(t.cols) == [sum(1 << k for k, m in enumerate(t.masks) if m >> i & 1)
                                for i in range(len(g.edges))], name
        for eid in g.edge_ids:
            assert t.avoiding(eid) == row_major_avoiding(t, eid), (name, eid)
        for vertices in range(1, 1 << g.vertex_count):
            if vertices.bit_count() % 2:
                cut = t.cut_mask(v for v in range(g.vertex_count) if vertices >> v & 1)
                face = t.face(cut)
                assert face == row_major_face(t, cut), (name, vertices)
                used = 0
                for i in range(len(t.masks)):
                    if face >> i & 1:
                        used |= t.masks[i]
                assert t.covers_all_edges(face) == (used == all_edges), (name, vertices)


def _assert_facial_structure_matches_oracle(g: MultiGraph) -> None:
    """Facets, codim-2 faces, separating cuts and cut classes against the
    rank-, row- and contraction-based oracles."""
    want = oracle_faces(g)
    d = polytope_dim(g)
    assert d == want.dim
    assert set(facet_masks(g)) == set(want.facets)
    facets = enumerate_facets(g)
    assert [f.mask for f in facets] == sorted(want.facets, key=lambda m: Face(m, 0).key())
    for k, f in enumerate(facets):
        edges, shores = want.facets[f.mask]
        assert facet_masks(g)[f.mask] == k and f.dim == d - 1
        assert list(f.exposed_by_edges) == edges
        assert list(f.exposed_by_cuts) == [make_cut(g, s) for s in shores]
    codim2 = enumerate_codim2_faces(g)
    assert {f.mask for f in codim2} == want.codim2 and len(codim2) == len(want.codim2)
    t = matching_table(g)
    for f in codim2:
        assert f.dim == d - 2 and sum(1 for m in facet_masks(g) if not f.mask & ~m) == 2
        assert list(f.exposed_by_edges) == [e for e in g.edge_ids if t.avoiding(e) == f.mask]
    classes = classify_all_cuts(g)
    assert [(c.cut.shore, c.cut.boundary, c.is_tight, c.is_separating, c.is_facet_defining,
             c.face.mask, c.face.dim) for c in classes] == want.classes
    assert all(c.cut == make_cut(g, c.cut.shore) for c in classes)
    assert separating_cuts(g) == [c.cut for c in classes if c.is_separating]
    assert tight_shores(g) == tuple(c.cut.shore for c in classes if c.is_tight)
    assert facet_cuts(g) == [c.cut for c in classes if c.is_facet_defining]
    sep_facet = [c.cut for c in classes if c.is_separating and c.is_facet_defining]
    assert separating_facet_defining_cuts(g) == sep_facet
    assert is_bvn(g) == (not sep_facet, sep_facet[0] if sep_facet else None)
    for c in classes:
        assert is_separating(g, c.cut.shore) == c.is_separating


def _graphs_out_of_bit_order(corpus) -> dict[str, MultiGraph]:
    """Graphs whose edges are not listed in id order, so the table's bit
    b (the edge of the b-th largest id) and ``g.edges[-1 - b]`` differ:
    sparse ids with a parallel edge, ids listed in reverse, and a seeded
    random graph with its edge tuple shuffled."""
    from test_matchings import _oracle_graphs

    graphs = {name: _oracle_graphs(corpus)[name] for name in ("k4-sparse", "prism-reversed")}
    _, g = random_matching_covered(11, 10, 3)
    edges = list(g.edges)
    random.Random(11).shuffle(edges)
    graphs["random-shuffled"] = MultiGraph(g.vertex_count, tuple(edges))
    return graphs


def test_table_answers_when_bit_order_and_edge_order_differ(corpus):
    """Faces, rows, three-crossings, cut classes and the boundaries of
    ``separating_cuts`` and ``facet_cuts`` (against ``make_cut``) match the
    oracles, and so do the spanning rows and both lattices."""
    from pmlattice.basis import matching_lattice, matching_saturation
    from pmlattice.decomposition import spanning_matchings

    graphs = _graphs_out_of_bit_order(corpus)
    for g in graphs.values():
        _assert_faces_match_oracle(g)
        _assert_facial_structure_matches_oracle(g)
    g = graphs["random-shuffled"]
    rows, n = matching_rows(g), len(g.edges)
    spanning = [rows[i] for i in spanning_matchings(g)]
    assert bareiss_rank(spanning) == len(spanning) == bareiss_rank(rows)
    assert matching_saturation(g) == oracle_saturation(rows, n)
    assert matching_lattice(g) == oracle_hnf(rows, n)


def test_facial_structure_matches_oracle_on_corpus(corpus):
    for name in ("k4", "c6", "k33", "cube", "prism", "double-prism", "petersen",
                 "petersen-parallel", "pete-c4-splice"):
        _assert_facial_structure_matches_oracle(corpus[name])


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6), st.integers(1, 3))
def test_facial_structure_matches_oracle_on_random_graphs(half, seed, extra):
    """Seeded random matching-covered graphs on 4-14 vertices, and both
    cut-contractions of their first two separating cuts."""
    _, g = random_matching_covered(seed, 2 * half, extra)
    _assert_facial_structure_matches_oracle(g)
    shores = [s for s in odd_shores(g) if oracle_is_separating(g, s)]
    for shore in shores[:2]:
        for h in cut_contractions(g, shore):
            _assert_facial_structure_matches_oracle(h)


def test_face_readers_follow_the_mask(corpus):
    assert Face(0b1011, 2).key() == (0, 1, 3)
    assert Face(0b1011, 2).member_matchings == frozenset({0, 1, 3})
    assert Face(0, -1).key() == ()
    for name in ("k4", "prism", "petersen", "pete-c4-splice"):
        g = corpus[name]
        for f in enumerate_facets(g) + enumerate_codim2_faces(g):
            assert sum(1 << i for i in f.member_matchings) == f.mask, name
            assert f.key() == tuple(sorted(f.member_matchings)), name
            assert members_dim(g, f.mask) == f.dim, name


def test_is_separating_rejects_a_bad_shore(corpus):
    """A shore outside 0..n-1, empty or whole raises ``bad_shore``, as in
    ``make_cut``, rather than wrapping round or raising IndexError."""
    g = corpus["prism"]
    for shore in ((-1, 0, 1), (0, 1, 9), (), tuple(range(6))):
        with pytest.raises(PreconditionViolated) as raised:
            is_separating(g, shore)
        assert raised.value.reason == "bad_shore", shore


def test_tight_implies_separating_on_all_classified_cuts(corpus):
    from pmlattice.polytope import classify_all_cuts

    for name in ("c6", "k33", "cube", "prism", "petersen"):
        for cc in classify_all_cuts(corpus[name]):
            if cc.is_tight:
                assert cc.is_separating, (name, cc.cut.shore)


def test_is_bvn(corpus):
    assert is_bvn(corpus["k4"]) == (True, None)
    ok, witness = is_bvn(corpus["prism"])
    assert not ok and witness.shore == (0, 1, 2)
    assert not is_bvn(corpus["petersen"])[0]
    for name in ("c6", "k33", "cube"):  # bipartite graphs are BvN
        assert is_bvn(corpus[name])[0]


def test_bvn_agrees_with_facet_enumeration(corpus):
    # independent routes: cut scan vs "every facet has an exposing edge"
    for name in ("k4", "c6", "k33", "cube", "prism", "double-prism", "petersen"):
        g = corpus[name]
        by_scan = is_bvn(g)[0]
        by_facets = all(f.exposed_by_edges for f in enumerate_facets(g))
        assert by_scan == by_facets, name


def test_k4_facets(corpus):
    g = corpus["k4"]
    facets = enumerate_facets(g)
    assert len(facets) == 3
    assert all(len(f.member_matchings) == 2 for f in facets)
    assert all(f.exposed_by_edges for f in facets)
    codim2 = enumerate_codim2_faces(g)
    assert sorted(tuple(sorted(f.member_matchings)) for f in codim2) == [(0,), (1,), (2,)]


def test_c6_facets(corpus):
    facets = enumerate_facets(corpus["c6"])
    assert len(facets) == 2
    assert sorted(tuple(sorted(f.member_matchings)) for f in facets) == [(0,), (1,)]


def test_prism_facets(corpus):
    facets = enumerate_facets(corpus["prism"])
    assert len(facets) == 4  # 3-simplex on the four matchings
    cut_only = [f for f in facets if not f.exposed_by_edges]
    assert len(cut_only) == 1 and cut_only[0].exposed_by_cuts[0].shore == (0, 1, 2)


def test_cap(corpus):
    with pytest.raises(VertexCapExceeded):
        enumerate_facets(corpus["petersen"], max_vertices=8)


def test_cuts_equivalent(corpus):
    g = corpus["c6"]
    tight = make_cut(g, (0, 1, 2))
    trivial = make_cut(g, (0,))
    assert cuts_equivalent(g, tight, tight)
    assert cuts_equivalent(g, tight, trivial)  # both always meet once
    p = corpus["petersen"]
    c1 = make_cut(p, (0, 1, 2, 3, 4))
    c2 = make_cut(p, (0, 1, 2, 6, 8))  # another 5-cycle shore
    assert not cuts_equivalent(p, c1, c2)
    # against crossings counted on brute-force matchings, every pair of
    # odd shores
    for name in ("k4", "prism", "k33"):
        g = corpus[name]
        ms = brute_force_matchings(g)
        n = g.vertex_count
        cuts = [make_cut(g, (0,) + rest) for size in range(1, n, 2)
                for rest in itertools.combinations(range(1, n), size - 1)]
        for c1 in cuts:
            for c2 in cuts:
                want = all(len(m & c1.boundary) == len(m & c2.boundary) for m in ms)
                assert cuts_equivalent(g, c1, c2) == want, (name, c1.shore, c2.shore)


def test_uncross_positive_case(corpus):
    # C6: {0,1,2} and {2,3,4} cross with odd intersection and no edge
    # between the difference sets, so the identity holds on every matching
    g = corpus["c6"]
    i_cut, u_cut, rep = uncross(g, (0, 1, 2), (2, 3, 4))
    assert rep.no_edge_between_differences and rep.identity_holds
    assert not rep.violating_matchings
    # canonical shores are the lex-smaller sides of delta({2}) and delta({0..4})
    assert i_cut.shore_set == frozenset({0, 1, 3, 4, 5})
    assert u_cut.shore_set == frozenset({0, 1, 2, 3, 4})


def test_uncross_violation_reported(corpus):
    # prism: {0,1,2} and {2,3,4} cross, edge (1,4) joins the differences
    g = corpus["prism"]
    _, _, rep = uncross(g, (0, 1, 2), (2, 3, 4))
    assert not rep.no_edge_between_differences
    assert not rep.identity_holds
    ms = enumerate_perfect_matchings(g)
    for idx in rep.violating_matchings:
        assert ms[idx].edge_ids & {6, 7}  # a rung between the difference sets


def test_uncross_rejects_bad_pairs(corpus):
    g = corpus["c6"]
    with pytest.raises(PreconditionViolated):
        uncross(g, (0, 1, 2), (0, 1, 2, 3, 4))  # nested, not crossing
    with pytest.raises(PreconditionViolated):
        uncross(g, (0, 1, 2), (1, 2, 3))  # even intersection


@pytest.mark.parametrize("name, x1, x2", [("cube", (0, 1), (1, 2, 3)),
                                          ("petersen", (0, 1, 2, 3), (3, 4, 5)),
                                          ("petersen", (3, 4, 5), (0, 1, 2, 3))])
def test_uncross_rejects_even_shores(corpus, name, x1, x2):
    """The shores cross with an odd intersection, but an even shore's cut
    is no odd cut: the pair is outside the lemma, not a counterexample."""
    with pytest.raises(PreconditionViolated) as exc:
        uncross(corpus[name], x1, x2)
    assert exc.value.reason == "even_shore"


def test_double_prism_has_no_uncrossable_pair(corpus):
    # every crossing odd-intersection pair of odd shores has an edge
    # between the difference sets (dense rungs), so each violates the
    # identity on some matching
    g = corpus["double-prism"]
    shores = [frozenset(s) for s in odd_shores(g)]
    found_crossing = 0
    for i, x1 in enumerate(shores):
        for x2 in shores[i + 1:]:
            for cand in (x2, frozenset(range(6)) - x2):
                if len(x1 & cand) % 2 == 0:
                    continue
                if not (x1 & cand and x1 - cand and cand - x1
                        and (frozenset(range(6)) - (x1 | cand))):
                    continue
                found_crossing += 1
                _, _, rep = uncross(g, x1, cand)
                assert not rep.no_edge_between_differences
                assert not rep.identity_holds
    assert found_crossing > 0


def _complete(n: int, offset: int) -> MultiGraph:
    """K_n with edge ids from ``offset``: unequal to other K_n, so its memo is fresh."""
    pairs = itertools.combinations(range(n), 2)
    return MultiGraph(n, tuple((offset + eid, u, v) for eid, (u, v) in enumerate(pairs)))


def test_facets_are_read_without_member_lists(monkeypatch):
    """``facet_masks`` and ``facet_incidence`` transpose whole masks
    (``matchings.transpose``) and list no face's members."""
    from pmlattice import polytope

    g = _complete(10, 8000)
    real, calls = polytope._bits, []
    monkeypatch.setattr(polytope, "_bits", lambda mask: calls.append(mask) or real(mask))
    facets = polytope.facet_masks(g)
    incidence = polytope.facet_incidence(g)
    assert calls == []
    assert len(facets) == 45 + 120 + 252 // 2  # the edges, the 3- and the 5-shores
    assert list(facets) == sorted(facets, key=lambda m: Face(m, 0).key())
    for i in range(len(matching_table(g).masks)):
        assert incidence[i] == sum(1 << k for face, k in facets.items() if face >> i & 1)


def test_facets_of_a_face_are_its_maximal_faces(corpus):
    """``facet_masks(g, F)`` finds the facets of F by maximality, in
    ``Face.key`` order: for every separating cut's face F on the corpus and
    seven random graphs, 90 faces in all, they are the facets found by rank."""
    from pmlattice.polytope import shore_faces

    graphs = list(corpus.values()) + [random_matching_covered(*args)[1] for args in (
        (1, 10, 3), (2, 12, 3), (3, 12, 3), (8, 12, 3), (5, 10, 2), (7, 12, 2), (3, 14, 3))]
    checked = 0
    for g in graphs:
        face_of = dict(shore_faces(g))
        faces = [face_of[cut.shore] for cut in separating_cuts(g)]
        for face, want in zip(faces, oracle_face_facets(g, faces)):
            facets = facet_masks(g, face)
            assert set(facets) == want
            assert list(facets) == sorted(facets, key=lambda m: Face(m, 0).key())
        checked += len(faces)
    assert checked == 90


def test_ridges_are_sorted_without_member_lists(monkeypatch):
    """``enumerate_codim2_faces`` puts the ridges in ``Face.key`` order by
    their masks, with no face's member list."""
    from pmlattice import polytope

    g = random_matching_covered(8, 12, 3)[1]
    real, calls = polytope._bits, []
    monkeypatch.setattr(polytope, "_bits", lambda mask: calls.append(mask) or real(mask))
    codim2 = enumerate_codim2_faces(g)
    assert calls == []
    monkeypatch.undo()
    assert codim2 == sorted(codim2, key=Face.key)


def test_k12_facets_peak_in_little_memory():
    """From a warm table, K12's 1,078 facets and their incidence peak under
    32 MiB (86.1 MiB while each facet's member list was built)."""
    g = _complete(12, 9000)
    matching_table(g)
    tracemalloc.start()
    try:
        assert len(facet_masks(g)) == 1078
        assert len(facet_incidence(g)) == 10395
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
