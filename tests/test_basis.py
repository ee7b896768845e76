import itertools
import random
from fractions import Fraction

import pytest

from pmlattice import basis
from pmlattice.basis import (Basis, characterize_lattice,
                             find_intersection_pair, integral_basis,
                             lattice_basis, matching_lattice,
                             matching_saturation, merge_bases,
                             merge_coefficients, near_brick_petersen_basis,
                             parity_lattice, pm_linear_basis)
from pmlattice.corpus import random_matching_covered
from pmlattice.decomposition import (canonical_parity_cycle, find_tight_cut, parity_sets,
                                     petersen_bricks)
from pmlattice.errors import PreconditionViolated, TheoremFalsified, VertexCapExceeded
from pmlattice.graph import MultiGraph, boundary, cut_contractions, five_cycles, make_cut
from pmlattice.linalg import hnf, lattice_equal, lattice_index, rank
from pmlattice.matchings import (MatchingTable, enumerate_perfect_matchings,
                                 incidence_vectors, matching_table)
from pmlattice.polytope import (is_bvn, polytope_dim, separating_cuts,
                                separating_facet_defining_cuts)

from conftest import (bareiss_rank, matching_rows, oracle_hnf, oracle_index,
                      oracle_parity_lattice, oracle_saturation)


def _random_graphs():
    """Seeded random matching-covered graphs on 4 to 14 vertices."""
    return [random_matching_covered(seed, n, 3)[1] for n in range(4, 16, 2) for seed in range(3)]


def _rng_coefficients(ctx, rng, integral=False):
    """Random (alpha, beta) agreeing on every cut edge."""
    if integral:
        draw = lambda: Fraction(rng.randint(-4, 4))
    else:
        draw = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    alpha = [draw() for _ in ctx.b1.elements]
    beta = [Fraction(0)] * len(ctx.b2.elements)
    for i_order, j_order in zip(ctx.i_orders, ctx.j_orders):
        total = sum(alpha[i] for i in i_order)
        tail = [draw() for _ in j_order[1:]]
        beta[j_order[0]] = total - sum(tail)
        for j, val in zip(j_order[1:], tail):
            beta[j] = val
    return alpha, beta


def test_merge_size_rank_and_face_on_small_corpus(corpus):
    for name in ("c6", "k33", "cube", "prism", "double-prism", "petersen"):
        g = corpus[name]
        for cut in separating_cuts(g):
            ks, kc = cut_contractions(g, cut.shore_set)
            res = merge_bases(g, cut, pm_linear_basis(ks), pm_linear_basis(kc))
            b = res.basis
            assert len(b.elements) == (len(pm_linear_basis(ks).elements)
                                       + len(pm_linear_basis(kc).elements)
                                       - len(cut.boundary)), name
            assert rank(b.vectors()) == len(b.elements)
            assert all(len(m.edge_ids & cut.boundary) == 1 for m in b.elements)


def test_merge_prism_rung_cut(corpus):
    g = corpus["prism"]
    cut = make_cut(g, (0, 1, 2))
    ks, kc = cut_contractions(g, cut.shore_set)
    res = merge_bases(g, cut, pm_linear_basis(ks), pm_linear_basis(kc))
    assert len(res.basis.elements) == 3  # 3 + 3 - 3


def test_merge_rejects_non_separating(corpus):
    g = corpus["c6"]
    cut = make_cut(g, (0, 2, 4))
    with pytest.raises(PreconditionViolated):
        merge_bases(g, cut, pm_linear_basis(g), pm_linear_basis(g))


def _petersen_merge(corpus):
    """pete-c4-splice, its cut range(9), the Petersen side's 6-element
    family as b1 and a linear basis of the other side as b2."""
    from pmlattice.basis import _petersen_family

    g = corpus["pete-c4-splice"]
    cut = make_cut(g, tuple(range(9)))
    ks, kc = cut_contractions(g, cut.shore_set)
    pet_side = ks if len(ks.edges) == 15 else kc
    other = kc if pet_side is ks else ks
    verts, _ = canonical_parity_cycle(pet_side)
    fam = _petersen_family(pet_side, verts)
    return g, cut, Basis(pet_side, tuple(fam), "linear"), pm_linear_basis(other)


def test_merge_pin_occurs_once(corpus):
    g, cut, b1, b2 = _petersen_merge(corpus)
    res = merge_bases(g, cut, b1, b2, pin=0)
    assert res.zstar is not None
    pin_edges = b1.elements[0].edge_ids
    hits = [i for i, z in enumerate(res.basis.elements) if pin_edges <= z.edge_ids]
    assert hits == [res.zstar]


@pytest.mark.parametrize("pin", [-1, -6, 6, True, "foreign"])
def test_merge_rejects_a_bad_pin(corpus, pin):
    """A pin that is neither an index of b1 nor one of its elements is a
    bad argument, not a refutation (-1 and -6 used to raise
    TheoremFalsified, 6 IndexError, a foreign matching ValueError, and
    True was read as index 1)."""
    g, cut, b1, b2 = _petersen_merge(corpus)
    if pin == "foreign":
        pin = b2.elements[0]
    with pytest.raises(PreconditionViolated) as err:
        merge_bases(g, cut, b1, b2, pin=pin)
    assert err.value.reason == "bad_pin"


def test_coefficient_transfer_unit_case(corpus):
    g = corpus["prism"]
    cut = make_cut(g, (0, 1, 2))
    ks, kc = cut_contractions(g, cut.shore_set)
    res = merge_bases(g, cut, pm_linear_basis(ks), pm_linear_basis(kc))
    ctx = res.context
    # x = single element of b1, y = a partner through the same cut edge
    e_idx = 0
    i0 = ctx.i_orders[e_idx][0]
    j0 = ctx.j_orders[e_idx][0]
    alpha = [Fraction(int(i == i0)) for i in range(len(ctx.b1.elements))]
    beta = [Fraction(int(j == j0)) for j in range(len(ctx.b2.elements))]
    lam = merge_coefficients(ctx, alpha, beta)
    assert sorted(lam) == [0] * (len(lam) - 1) + [1]


def test_coefficient_transfer_integrality_and_reconstruction(corpus):
    rng = random.Random(42)
    for g in [corpus[name] for name in ("prism", "c6", "petersen")] + _random_graphs():
        for cut in separating_cuts(g)[:2]:
            ks, kc = cut_contractions(g, cut.shore_set)
            res = merge_bases(g, cut, pm_linear_basis(ks), pm_linear_basis(kc))
            ctx = res.context
            for _ in range(10):
                alpha, beta = _rng_coefficients(ctx, rng, integral=True)
                lam = merge_coefficients(ctx, alpha, beta)
                assert all(l.denominator == 1 for l in lam)
            for _ in range(10):
                alpha, beta = _rng_coefficients(ctx, rng)
                lam = merge_coefficients(ctx, alpha, beta)
                # independent reconstruction of both sides
                target: dict[int, Fraction] = {e: Fraction(0) for e in g.edge_ids}
                for c, m in zip(alpha, ctx.b1.elements):
                    for e in m.edge_ids:
                        target[e] += c
                for c, m in zip(beta, ctx.b2.elements):
                    for e in m.edge_ids:
                        if e not in cut.boundary:
                            target[e] += c
                got = {e: Fraction(0) for e in g.edge_ids}
                for c, m in zip(lam, res.basis.elements):
                    for e in m.edge_ids:
                        got[e] += c
                assert got == target


def test_coefficient_transfer_rejects_disagreement(corpus):
    g = corpus["prism"]
    cut = make_cut(g, (0, 1, 2))
    ks, kc = cut_contractions(g, cut.shore_set)
    ctx = merge_bases(g, cut, pm_linear_basis(ks), pm_linear_basis(kc)).context
    alpha = [Fraction(1)] * len(ctx.b1.elements)
    beta = [Fraction(0)] * len(ctx.b2.elements)
    with pytest.raises(PreconditionViolated):
        merge_coefficients(ctx, alpha, beta)


def test_near_brick_petersen_basis_patterns(corpus):
    for name, expected_size in (("petersen", 6), ("petersen-parallel", 7),
                                ("pete-c4-splice", 6)):
        g = corpus[name]
        (leaf, _), = petersen_bricks(g)
        verts, _ = canonical_parity_cycle(leaf.graph)
        d5 = boundary(leaf.graph, verts)
        fam = near_brick_petersen_basis(g, d5)
        assert len(fam) == expected_size
        crossings = [len(m.edge_ids & d5) for m in fam]
        assert crossings[0] == 5 and all(c == 1 for c in crossings[1:])
        covered = set()
        for m in fam[1:]:
            covered |= m.edge_ids
        assert covered == set(g.edge_ids)
        assert rank(incidence_vectors(g, fam)) == expected_size


def test_near_brick_petersen_basis_rejects(corpus):
    g = corpus["pete-k4-splice"]  # two bricks
    (leaf, _), = petersen_bricks(g)
    verts, _ = canonical_parity_cycle(leaf.graph)
    with pytest.raises(PreconditionViolated):
        near_brick_petersen_basis(g, boundary(leaf.graph, verts))
    p = corpus["petersen"]
    with pytest.raises(PreconditionViolated):
        near_brick_petersen_basis(p, frozenset({0, 1, 2, 3, 4}))  # a cycle, not its cut


def test_find_intersection_pair(corpus):
    pair = find_intersection_pair(corpus["prism"])
    assert sorted(pair.matching.edge_ids) == [6, 7, 8]
    assert pair.cut.shore == (0, 1, 2)
    pair = find_intersection_pair(corpus["double-prism"])
    assert len(pair.matching.edge_ids & pair.cut.boundary) == 3
    for name, reason in (("k4", "bvn"), ("petersen", "petersen_brick"),
                         ("c6", "not_near_brick"), ("pete-k4-splice", "not_near_brick")):
        with pytest.raises(PreconditionViolated) as err:
            find_intersection_pair(corpus[name])
        assert err.value.reason == reason, name


def test_find_intersection_pair_scans_under_the_callers_cap():
    """The BvN precondition scans under ``max_vertices`` too: the
    18-vertex prism over C9 is found with a cap of 18 (the precondition
    used to scan under the default cap of 16 and raise)."""
    k = 9
    g = MultiGraph.from_pairs(2 * k, [(i, (i + 1) % k) for i in range(k)]
                              + [(k + i, k + (i + 1) % k) for i in range(k)]
                              + [(i, k + i) for i in range(k)])
    with pytest.raises(VertexCapExceeded):
        find_intersection_pair(g)
    pair = find_intersection_pair(g, 18)
    assert pair.cut.shore == tuple(range(k))
    assert len(pair.matching.edge_ids & pair.cut.boundary) == 3


def test_integral_basis_examples(corpus):
    ms = enumerate_perfect_matchings(corpus["k4"])
    b = integral_basis(corpus["k4"])
    assert sorted(m.key() for m in b.elements) == [m.key() for m in ms]
    assert len(integral_basis(corpus["c6"]).elements) == 2
    assert len(integral_basis(corpus["prism"]).elements) == 4  # dim + 1 forces all


def test_integral_basis_postcheck_oracle(corpus):
    for name in ("k4", "c6", "k33", "cube", "prism", "double-prism"):
        g = corpus[name]
        b = integral_basis(g)
        got = hnf(b.vectors(), len(g.edges))
        assert lattice_equal(got, matching_saturation(g)), name


def test_bvn_basis_falls_back_to_the_subset_search(corpus, monkeypatch):
    """When the greedy linear basis of a BvN graph is not integral, the
    first independent subset in lexicographic order whose span is the
    saturation is returned."""
    g = corpus["cube"]
    ms = enumerate_perfect_matchings(g)
    greedy = tuple(ms[i] for i in (1, 2, 3, 5, 6, 7))
    assert lattice_index(hnf(incidence_vectors(g, greedy), len(g.edges)),
                         matching_saturation(g)) == 2
    monkeypatch.setattr(basis, "pm_linear_basis", lambda h: Basis(h, greedy, "linear"))
    b = integral_basis(g)
    assert b.elements == tuple(ms[i] for i in (0, 1, 2, 3, 5, 6))
    assert lattice_equal(hnf(b.vectors(), len(g.edges)), matching_saturation(g))


def test_integral_basis_merges_at_a_tight_cut(monkeypatch):
    """A Petersen-free graph that is not BvN and has a tight cut: its
    integral basis merges those of its two cut-contractions, and the
    elements are the ones the separate tight-cut branch returned."""
    _, g = random_matching_covered(2, 8, 2)
    assert find_tight_cut(g) is not None and not is_bvn(g)[0] and not petersen_bricks(g)
    stages = []
    check = basis._check_integral

    def record(h, elements, stage):
        stages.append(stage)
        check(h, elements, stage)

    monkeypatch.setattr(basis, "_check_integral", record)
    b = integral_basis(g)
    assert stages == ["bvn_base", "bvn_base", "brick_step", "bvn_base", "tight_cut_merge"]
    assert [sorted(m.edge_ids) for m in b.elements] == \
        [[1, 4, 8, 9], [2, 3, 5, 8], [0, 5, 8, 9], [0, 6, 7, 10]]


def test_integral_basis_rejects_petersen(corpus):
    for name in ("petersen", "petersen-parallel", "pete-c4-splice"):
        with pytest.raises(PreconditionViolated) as err:
            integral_basis(corpus[name])
        assert err.value.reason == "petersen_brick"


def test_lattice_basis(corpus):
    b, psets = lattice_basis(corpus["petersen"])
    assert len(b.elements) == 6 and len(psets) == 1
    assert psets[0] == frozenset({0, 1, 2, 3, 4})
    # Petersen-free: no parity sets and the basis is simultaneously integral
    for name in ("k4", "c6", "prism", "double-prism", "cube"):
        g = corpus[name]
        b, psets = lattice_basis(g)
        assert psets == ()
        assert lattice_equal(hnf(b.vectors(), len(g.edges)), matching_saturation(g))
    b, psets = lattice_basis(corpus["pete-k4-splice"])
    assert len(psets) == 1 and len(b.elements) == 9


def test_lattice_basis_spans_matching_lattice(corpus):
    for name, g in corpus.items():
        b, _ = lattice_basis(g)
        assert lattice_equal(hnf(b.vectors(), len(g.edges)), matching_lattice(g)), name


def test_characterize_lattice(corpus):
    rep = characterize_lattice(corpus["petersen"])
    assert rep.index == 2 and rep.equality_holds and rep.two_x_in_lattice
    assert characterize_lattice(corpus["prism"]).index == 1
    assert characterize_lattice(corpus["c6"]).index == 1
    assert characterize_lattice(corpus["k33"]).two_x_in_lattice is None


@pytest.mark.parametrize("name", ["petersen", "petersen-parallel", "pete-c4-splice",
                                  "pete-k4-splice"])
def test_parity_lattice_matches_gf2_oracle(corpus, name):
    g = corpus[name]
    psets, sat = parity_sets(g), matching_saturation(g)
    assert psets
    got = parity_lattice(g, psets)
    assert got == oracle_parity_lattice(g, sat, psets) == matching_lattice(g) != sat
    assert parity_lattice(g, []) == sat


def test_petersen_parity_evenness(corpus):
    # every perfect matching meets every 5-cycle edge set in 0 or 2 edges
    g = corpus["petersen"]
    for m in enumerate_perfect_matchings(g):
        for _, eids in five_cycles(g):
            assert len(m.edge_ids & set(eids)) in (0, 2)


def _triangle_expanded_petersen():
    # split vertex 0 of the Petersen graph into a triangle {0, 10, 11}:
    # a Petersen-free non-BvN brick whose triangle cut contracts back onto
    # a Petersen brick, which the brick step has to pass over
    from pmlattice.graph import MultiGraph

    pairs = ((0, 1), (1, 2), (2, 3), (3, 4), (10, 4), (11, 5), (1, 6), (2, 7),
             (3, 8), (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
             (0, 10), (0, 11), (10, 11))
    return MultiGraph.from_pairs(12, pairs)


def test_cut_adjustment_on_expanded_petersen(corpus):
    from pmlattice.basis import _brick_pair, _sides_petersen_free
    from pmlattice.decomposition import brick_count, petersen_bricks

    g = _triangle_expanded_petersen()
    assert brick_count(g) == 1 and not petersen_bricks(g)
    pair = find_intersection_pair(g)
    # the first pair found is the triangle cut, whose far side is a
    # Petersen brick, so the brick step must trade the cut away
    assert pair.cut.shore == (0, 10, 11)
    assert not _sides_petersen_free(g, pair.cut)
    # it takes the first cut, in canonical order, with Petersen-free sides
    # that some matching meets three times, and the first such matching
    new = _brick_pair(g, 16)
    assert new.cut.shore == (0, 1, 2, 3, 4, 10, 11)
    assert sorted(new.matching.edge_ids) == [0, 4, 5, 7, 8, 12]
    assert _sides_petersen_free(g, new.cut)
    assert len(new.matching.edge_ids & new.cut.boundary) == 3
    ms = enumerate_perfect_matchings(g)
    cuts = separating_facet_defining_cuts(g)
    for c in cuts[:cuts.index(new.cut)]:
        assert not (_sides_petersen_free(g, c)
                    and any(len(m.edge_ids & c.boundary) == 3 for m in ms)), c.shore
    assert new.matching == next(m for m in ms if len(m.edge_ids & new.cut.boundary) == 3)
    # the full construction runs the same path end to end
    b = integral_basis(g)
    assert b.elements[-1] == new.matching
    assert lattice_equal(hnf(b.vectors(), len(g.edges)), matching_saturation(g))
    rep = characterize_lattice(g)
    assert rep.index == 1 and rep.equality_holds


def test_brick_step_without_a_petersen_free_cut_is_falsified(monkeypatch):
    monkeypatch.setattr(basis, "_sides_petersen_free", lambda g, cut: False)
    g = _triangle_expanded_petersen()
    with pytest.raises(TheoremFalsified) as err:
        integral_basis(g)
    assert err.value.claim == ("a separating facet-defining cut with Petersen-free "
                               "sides and a 3-crossing matching exists")
    assert err.value.certificate["vertex_count"] == 12


def test_saturation_index_is_power_of_two(corpus):
    for name, g in corpus.items():
        idx = lattice_index(matching_lattice(g), matching_saturation(g))
        assert idx in (1, 2), name
        assert (idx == 2) == bool(petersen_bricks(g)), name


def _oracle_graphs(corpus):
    """Every corpus graph, both cut-contractions of its first separating
    cuts, and the seeded random graphs."""
    out = list(corpus.values())
    for g in corpus.values():
        for cut in separating_cuts(g)[:3]:
            out += cut_contractions(g, cut.shore_set)
    return out + _random_graphs()


def test_certified_dim_and_lattices_match_full_row_oracles(corpus):
    """The certified dimension, the saturation of the spanning rows, the
    lattice that stops at its saturation and the characterization's index
    equal the oracles computed over every matching row."""
    for g in _oracle_graphs(corpus):
        rows = matching_rows(g)
        n = len(g.edges)
        lat, sat = oracle_hnf(rows, n), oracle_saturation(rows, n)
        assert polytope_dim(g) == bareiss_rank(rows) - 1, g
        assert matching_saturation(g) == sat, g
        assert matching_lattice(g) == lat, g
        index = oracle_index(lat, sat)
        assert lattice_index(matching_lattice(g), matching_saturation(g)) == index, g
        assert characterize_lattice(g).index == index == (2 if petersen_bricks(g) else 1), g


def _rows_read_by_lattice(monkeypatch, g) -> int:
    """Rows that ``matching_lattice`` builds from the table, its saturation
    being known already."""
    matching_saturation(g)
    reads = []
    row = MatchingTable.row
    monkeypatch.setattr(MatchingTable, "row", lambda t, edges: reads.append(edges) or row(t, edges))
    matching_lattice(g)
    monkeypatch.undo()
    return len(reads)


def _edge_ids_reversed(g: MultiGraph) -> MultiGraph:
    """The same graph with edge ids reversed: unequal to g, so its memo is fresh."""
    top = max(g.edge_ids)
    return MultiGraph(g.vertex_count, tuple(sorted((top - eid, u, v) for eid, u, v in g.edges)))


def test_matching_lattice_stops_at_its_saturation(corpus, monkeypatch):
    """Without a Petersen brick L = S and the scan stops within twice the
    rank (K10: 60 of 945 rows, rank 36); with one, L != S and every row
    is read."""
    k10 = _edge_ids_reversed(MultiGraph.from_pairs(10, list(itertools.combinations(range(10), 2))))
    assert _rows_read_by_lattice(monkeypatch, k10) <= 2 * matching_saturation(k10).rank
    assert matching_lattice(k10) == matching_saturation(k10)
    for name in ("petersen", "petersen-parallel", "pete-k4-splice"):
        g = _edge_ids_reversed(corpus[name])
        assert _rows_read_by_lattice(monkeypatch, g) == len(matching_table(g).masks), name
        assert matching_lattice(g) == oracle_hnf(matching_rows(g), len(g.edges)) \
            != matching_saturation(g), name
