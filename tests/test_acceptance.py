"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pmlattice.basis import (find_intersection_pair, integral_basis,
                             lattice_basis, matching_lattice,
                             matching_saturation, merge_bases,
                             merge_coefficients, pm_linear_basis)
from pmlattice.cli import main
from pmlattice.corpus import CORPUS_NAMES, corpus_graph, dump_graph_file
from pmlattice.decomposition import (brick_count, petersen_bricks,
                                     tight_cut_decomposition)
from pmlattice.errors import PreconditionViolated
from pmlattice.graph import MultiGraph, cut_contractions
from pmlattice.linalg import hnf, lattice_equal, lattice_index, rank
from pmlattice.matchings import (enumerate_perfect_matchings,
                                 incidence_vectors, matching_table)
from pmlattice.polytope import (enumerate_codim2_faces, enumerate_facets,
                                idp_decompose, is_bvn, polytope_dim,
                                separating_cuts)
from pmlattice.verifier import PROPERTY_IDS, verify_all
from pmlattice.basis import characterize_lattice


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number} ({description}): FAIL [{elapsed:.1f}s]")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < limit_seconds
    print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL (over time)'} "
          f"[{elapsed:.1f}s / limit {limit_seconds:.0f}s]")
    assert ok, f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.1f}s)"


def _induces_five_cycle(g: MultiGraph, vertices: frozenset[int]) -> bool:
    inside = [(u, v) for _, u, v in g.edges if u in vertices and v in vertices]
    if len(vertices) != 5 or len(inside) != 5:
        return False
    deg = {v: 0 for v in vertices}
    for u, v in inside:
        deg[u] += 1
        deg[v] += 1
    return all(d == 2 for d in deg.values())


def test_criterion_1_petersen_facts():
    with criterion(1, "Petersen facts", 30.0):
        g = corpus_graph("petersen")
        ms = enumerate_perfect_matchings(g)
        assert len(ms) == 6
        for eid in g.edge_ids:
            assert sum(1 for m in ms if eid in m) == 2
        assert polytope_dim(g) == 5
        facets = enumerate_facets(g)
        assert len(facets) == 6
        assert all(not f.exposed_by_edges for f in facets)
        for f in facets:
            assert f.exposed_by_cuts
            for cut in f.exposed_by_cuts:
                shore = cut.shore_set
                comp = frozenset(range(10)) - shore
                assert _induces_five_cycle(g, shore)
                assert _induces_five_cycle(g, comp)
        codim2 = enumerate_codim2_faces(g)
        assert len(codim2) == 15
        assert all(f.exposed_by_edges for f in codim2)


def test_criterion_2_dimension_formula():
    with criterion(2, "dimension formula on the corpus", 60.0):
        assert len(CORPUS_NAMES) >= 10
        for name in CORPUS_NAMES:
            g = corpus_graph(name)
            d = polytope_dim(g)
            assert d == len(g.edges) - g.vertex_count + 1 - brick_count(g), name


def test_criterion_3_intersection_theorem():
    with criterion(3, "intersection theorem search", 60.0):
        eligible = []
        for name in CORPUS_NAMES:
            g = corpus_graph(name)
            if (brick_count(g) == 1 and not petersen_bricks(g)
                    and not is_bvn(g)[0]):
                eligible.append(name)
        assert "prism" in eligible and "double-prism" in eligible
        for name in eligible:
            g = corpus_graph(name)
            pair = find_intersection_pair(g)
            assert len(pair.matching.edge_ids & pair.cut.boundary) == 3, name
        for name, reason in (("k4", "bvn"), ("petersen", "petersen_brick")):
            try:
                find_intersection_pair(corpus_graph(name))
            except PreconditionViolated as err:
                assert err.reason == reason
            else:
                raise AssertionError(f"{name} should raise a precondition error")


def test_criterion_4_integral_basis_theorem():
    with criterion(4, "integral basis construction + oracle", 300.0):
        from itertools import combinations

        petersen_free = [name for name in CORPUS_NAMES
                         if not petersen_bricks(corpus_graph(name))]
        assert sorted(petersen_free) == sorted(
            ["k4", "c6", "k33", "cube", "prism", "double-prism"])
        for name in petersen_free:
            g = corpus_graph(name)
            b = integral_basis(g)
            target = matching_saturation(g)
            assert lattice_equal(hnf(b.vectors(), len(g.edges)), target), name
            if g.vertex_count <= 10:
                # independent oracle: exhaustive lexicographic subset search
                ms = enumerate_perfect_matchings(g)
                need = polytope_dim(g) + 1
                found = None
                for combo in combinations(range(len(ms)), need):
                    vecs = incidence_vectors(g, [ms[i] for i in combo])
                    if rank(vecs) == need and lattice_equal(
                            hnf(vecs, len(g.edges)), target):
                        found = combo
                        break
                assert found is not None, name


def test_criterion_5_lattice_characterization():
    with criterion(5, "matching lattice mod-2 characterization", 120.0):
        for name in ("petersen", "petersen-parallel", "pete-k4-splice"):
            g = corpus_graph(name)
            basis, psets = lattice_basis(g)
            assert len(psets) == 1, name
            report = characterize_lattice(g)  # raises if the equality fails
            assert report.equality_holds and report.index == 2, name
            assert report.two_x_in_lattice is True, name
            # direct parity evidence: every matching is even on every parity set
            for m in enumerate_perfect_matchings(g):
                for a in psets:
                    assert len(m.edge_ids & a) % 2 == 0, name
            assert lattice_index(matching_lattice(g), matching_saturation(g)) == 2


def test_criterion_6_merger_invariants():
    with criterion(6, "merger size/rank/face + coefficient transfer", 300.0):
        rng = random.Random(20260810)
        for name in CORPUS_NAMES:
            g = corpus_graph(name)
            if g.vertex_count > 12:
                continue
            d = polytope_dim(g)
            for cut in separating_cuts(g):
                ks, kc = cut_contractions(g, cut.shore_set)
                b1, b2 = pm_linear_basis(ks), pm_linear_basis(kc)
                res = merge_bases(g, cut, b1, b2)
                merged = res.basis
                assert len(merged.elements) == (len(b1.elements) + len(b2.elements)
                                                - len(cut.boundary)), name
                assert rank(merged.vectors()) == len(merged.elements), name
                t = matching_table(g)
                face = t.face(t.edge_mask(cut.boundary))
                ms = enumerate_perfect_matchings(g)
                index_of = {m.edge_ids: i for i, m in enumerate(ms)}
                for z in merged.elements:
                    assert len(z.edge_ids & cut.boundary) == 1
                    assert face >> index_of[z.edge_ids] & 1
                ctx = res.context
                for _ in range(100):
                    alpha = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in b1.elements]
                    beta = [Fraction(0)] * len(b2.elements)
                    for i_order, j_order in zip(ctx.i_orders, ctx.j_orders):
                        total = sum(alpha[i] for i in i_order)
                        tail = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                for _ in j_order[1:]]
                        beta[j_order[0]] = total - sum(tail)
                        for j, val in zip(j_order[1:], tail):
                            beta[j] = val
                    lam = merge_coefficients(ctx, alpha, beta)
                    # independent reconstruction of both sides of the identity
                    target = {e: Fraction(0) for e in g.edge_ids}
                    for c, m in zip(alpha, b1.elements):
                        for e in m.edge_ids:
                            target[e] += c
                    for c, m in zip(beta, b2.elements):
                        for e in m.edge_ids:
                            if e not in cut.boundary:
                                target[e] += c
                    got = {e: Fraction(0) for e in g.edge_ids}
                    for c, m in zip(lam, merged.elements):
                        for e in m.edge_ids:
                            got[e] += c
                    assert got == target, name


def test_criterion_7_verifier_catalog():
    with criterion(7, "verifier catalog on the full corpus", 600.0):
        for name in CORPUS_NAMES:
            g = corpus_graph(name)
            reports = verify_all(g, name)
            assert len(reports) == len(PROPERTY_IDS)
            failures = [r for r in reports if r.status == "fail"]
            assert not failures, (name, [(r.property_id, r.certificate)
                                         for r in failures])
            for r in reports:
                if r.property_id == "P-TRIPLE" and g.vertex_count <= 10:
                    assert r.status == "pass"
                    # a nested odd triple needs at least six vertices
                    if g.vertex_count >= 6:
                        assert r.certificate["canonical_triples"] > 0


def test_criterion_8_integer_decomposition():
    with criterion(8, "integer decomposition of kP points", 60.0):
        bvn_names = [name for name in CORPUS_NAMES
                     if is_bvn(corpus_graph(name))[0]]
        assert sorted(bvn_names) == ["c6", "cube", "k33", "k4"]
        rng = random.Random(8)
        for name in bvn_names:
            g = corpus_graph(name)
            ms = enumerate_perfect_matchings(g)
            for _ in range(50):
                k = rng.randint(1, 5)
                x = {e: 0 for e in g.edge_ids}
                for _ in range(k):
                    for e in ms[rng.randrange(len(ms))].edge_ids:
                        x[e] += 1
                parts = idp_decompose(g, x, k)
                assert len(parts) == k, name
                total = {e: 0 for e in g.edge_ids}
                for m in parts:
                    for e in m.edge_ids:
                        total[e] += 1
                assert total == x, name


def test_criterion_9_mobius_ladder_decomposition():
    with criterion(9, "tight cut decomposition of the 24-vertex Moebius ladder", 10.0):
        n = 24
        # 2^22 odd shores for an exhaustive scan; 12 * 2^11 tested by the search
        g = MultiGraph.from_pairs(n, [(i, (i + 1) % n) for i in range(n)]
                                  + [(i, i + n // 2) for i in range(n // 2)])
        tree = tight_cut_decomposition(g)
        assert tree.is_leaf and tree.leaf_label == "brick"


def test_criterion_10_count_complete_graphs(tmp_path, capsys):
    with criterion(10, "pm count on K16 and K18", 5.0):
        # (n-1)!! matchings; listing K16's would take about 2 GB
        for n, count in ((16, 2_027_025), (18, 34_459_425)):
            k = MultiGraph.from_pairs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            path = tmp_path / f"k{n}.json"
            path.write_text(dump_graph_file(f"k{n}", k))
            assert main(["pm", "count", "--input", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["result"] == {"count": count}
