import json

import pytest

from pmlattice import graph
from pmlattice.corpus import random_matching_covered
from pmlattice.decomposition import tight_shores
from pmlattice.errors import PreconditionViolated
from pmlattice.graph import MultiGraph
from pmlattice.verifier import PROPERTY_IDS, verify_all, verify_property

from conftest import body_runs


def test_catalog_is_complete():
    assert PROPERTY_IDS == (
        "P-DIM", "P-UNCROSS", "P-BVNCONTRACT", "P-BRICKCOUNT", "P-NEARBRICK",
        "P-BARRIER", "P-FDILIFT", "P-EQUIV", "P-TRIPLE", "P-LEMMA",
        "P-LEMMA-COUNT", "P-2X")


def test_unknown_property_raises(corpus):
    with pytest.raises(PreconditionViolated):
        verify_property(corpus["k4"], "P-NOPE")


def test_not_matching_covered_raises():
    path4 = MultiGraph.from_pairs(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(PreconditionViolated):
        verify_property(path4, "P-DIM")


def test_p_dim_certificates(corpus):
    r = verify_property(corpus["prism"], "P-DIM", "prism")
    assert r.status == "pass"
    assert r.certificate == {"rank_dim": 3, "edges": 9, "vertices": 6,
                             "bricks": 1, "formula_dim": 3}


def test_p_triple_counts(corpus):
    # 180 raw chains on six vertices, halved by complement-reversal symmetry
    r = verify_property(corpus["c6"], "P-TRIPLE", "c6")
    assert r.status == "pass" and r.certificate == {"canonical_triples": 90}
    r = verify_property(corpus["petersen"], "P-TRIPLE", "petersen")
    assert r.status == "pass" and r.certificate == {"canonical_triples": 51030}


def test_p_triple_skips_above_cap(corpus):
    r = verify_property(corpus["pete-c4-splice"], "P-TRIPLE", "x")
    assert r.status == "skipped" and r.certificate["cap"] == 10


def test_p_lemma_branches(corpus):
    r = verify_property(corpus["petersen"], "P-LEMMA", "petersen")
    assert r.status == "pass" and r.certificate["branch"] == "petersen"
    r = verify_property(corpus["prism"], "P-LEMMA", "prism")
    assert r.status == "pass" and "vacuous" in r.certificate
    r = verify_property(corpus["c6"], "P-LEMMA", "c6")
    assert r.status == "pass" and r.certificate == {"vacuous": "not a brick"}


def test_p_lemma_three_intersection_branch(corpus, monkeypatch):
    """With every codim-2 face taken as edge-exposed (none at all), the
    prism reaches the last branch, which reports the ``intersect`` pair;
    exhausting the scan is a failure with the falsified claim."""
    from pmlattice import basis, verifier

    monkeypatch.setattr(verifier, "ridges", lambda g, cap: iter(()))
    r = verify_property(corpus["prism"], "P-LEMMA", "prism")
    assert r.to_payload() == {"property": "P-LEMMA", "graph": "prism", "status": "pass",
                              "certificate": {"branch": "three_intersection",
                                              "shore": [0, 1, 2], "matching": [6, 7, 8]}}
    monkeypatch.setattr(basis, "_three_crossing_pairs", lambda g, cap: iter(()))
    r = verify_property(corpus["prism"], "P-LEMMA", "prism")
    assert r.status == "fail"
    assert r.certificate["claim"] == "a 3-intersecting (matching, cut) pair exists"


def test_p_lemma_stops_at_the_first_ridge_not_edge_exposed(monkeypatch):
    """P-LEMMA is vacuous once one ridge is not edge-exposed, so it tests
    fewer ridges for a third facet than listing them all does."""
    from pmlattice import polytope
    from pmlattice.corpus import random_matching_covered

    _, g = random_matching_covered(3, 14, 3)
    polytope.facet_masks(g)
    real, calls = polytope._held, []
    monkeypatch.setattr(polytope, "_held", lambda *a: calls.append(a) or real(*a))
    r = verify_property(g, "P-LEMMA", "random-v14-s3")
    assert r.certificate == {"vacuous": "a codim-2 face is not edge-exposed"}
    lemma = len(calls)
    polytope.enumerate_codim2_faces(g)
    assert lemma < len(calls) - lemma


def test_p_fdilift_reads_each_lifted_cut_face_once(corpus, monkeypatch):
    """P-FDILIFT tests a lifted cut's face for separation from the face it
    already read for its dimension, with no ``is_separating`` call."""
    from pmlattice import polytope, verifier

    calls = []
    for mod in (polytope, verifier):
        if hasattr(mod, "is_separating"):
            real = getattr(mod, "is_separating")
            monkeypatch.setattr(mod, "is_separating",
                                lambda *a, real=real: calls.append(a) or real(*a))
    r = verify_property(corpus["pete-c4-splice"], "P-FDILIFT", "pete-c4-splice")
    assert (r.status, r.certificate) == ("pass", {"lifted_cuts": 12})
    assert calls == []


@pytest.mark.parametrize("pid, name, cert", [
    ("P-BVNCONTRACT", "petersen", {"bvn_bvn_cuts": 6}),
    ("P-BVNCONTRACT", "pete-k4-splice", {"bvn_bvn_cuts": 8}),
    ("P-FDILIFT", "pete-c4-splice", {"lifted_cuts": 12}),
])
def test_facet_questions_rank_nothing(corpus, pid, name, cert):
    """P-BVNCONTRACT counts the facets of a face, and P-FDILIFT tests a
    lifted cut's face, by ``facet_masks``: from a fresh memo, no face of
    the checked graph is ranked.  Only the cut-contractions' ``is_bvn``
    certifies its facets by rank."""
    from pmlattice.polytope import members_dim

    graph._memo.cache_clear()
    with body_runs(members_dim) as runs:
        r = verify_property(corpus[name], pid, name)
    assert (r.status, r.certificate) == ("pass", cert)
    assert runs[corpus[name]] == 0
    assert all(h.vertex_count < corpus[name].vertex_count for h in runs)


def test_p_lemma_count_petersen_numbers(corpus):
    r = verify_property(corpus["petersen"], "P-LEMMA-COUNT", "petersen")
    assert r.status == "pass"
    cert = r.certificate
    assert (cert["edges"], cert["t"], cert["f"], cert["d"]) == (15, 15, 6, 5)
    assert cert["premise_all_codim2_edge_exposed"] is True
    assert cert["min_facet_adjacency"] >= 5


def test_p_lemma_count_fails_when_rank_disagrees(corpus, monkeypatch):
    """Facets and codim-2 faces are found without rank; P-LEMMA-COUNT fails
    with a certificate when the rank of one disagrees (here a faked rank)."""
    import pmlattice.verifier as verifier
    from pmlattice.polytope import enumerate_codim2_faces

    g = corpus["petersen"]
    ridge = enumerate_codim2_faces(g)[0]
    real = verifier.members_dim
    monkeypatch.setattr(verifier, "members_dim",
                        lambda h, face, **hints: real(h, face, **hints) - (face == ridge.mask))
    r = verify_property(g, "P-LEMMA-COUNT", "petersen")
    assert r.status == "fail"
    assert r.certificate == {"reason": "face dimension by rank", "members": list(ridge.key()),
                             "dim": 2, "expected": 3}


@pytest.mark.parametrize("pid", ["P-NEARBRICK", "P-BARRIER", "P-FDILIFT", "P-EQUIV",
                                 "P-LEMMA", "P-LEMMA-COUNT"])
def test_domain_test_fails_inside_the_report(corpus, monkeypatch, pid):
    """A property's domain (near-brick or brick) is tested inside the
    report, so a falsified claim behind that test (here a faked
    brick-count mismatch) reports ``fail``, not an exception."""
    from pmlattice import decomposition
    from pmlattice.errors import TheoremFalsified

    def mismatch(g):
        raise TheoremFalsified("brick count equals |E|-|V|+1-dim P(G)", {"dim": -1})

    monkeypatch.setattr(decomposition, "spanning_matchings", mismatch)
    r = verify_property(corpus["prism"], pid, "prism")
    assert r.status == "fail"
    assert r.certificate == {"claim": "brick count equals |E|-|V|+1-dim P(G)", "dim": -1}


def test_p_barrier_runs_on_real_tight_cut(corpus):
    r = verify_property(corpus["pete-c4-splice"], "P-BARRIER", "x")
    assert r.status == "pass" and r.certificate["tight_cuts"] >= 1


def test_p_2x(corpus):
    r = verify_property(corpus["petersen"], "P-2X", "petersen")
    assert r.status == "pass" and r.certificate["parity_sets"] == 1
    r = verify_property(corpus["prism"], "P-2X", "prism")
    assert r.certificate == {"vacuous": "no Petersen brick"}


def test_p_uncross_finds_applicable_pairs(corpus):
    r = verify_property(corpus["petersen"], "P-UNCROSS", "petersen")
    assert r.status == "pass"
    assert r.certificate["crossing_pairs"] >= 1


def test_reports_are_deterministic(corpus):
    a = [r.to_payload() for r in verify_all(corpus["prism"], "prism")]
    b = [r.to_payload() for r in verify_all(corpus["prism"], "prism")]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_quick_catalog_small_graphs(corpus):
    for name in ("k4", "c6", "prism"):
        for r in verify_all(corpus[name], name):
            assert r.status == "pass", (name, r.property_id, r.certificate)


def test_verify_all_scans_each_graphs_tight_shores_once():
    """From a fresh memo, every graph the catalog touches (the graph, its
    cut-contractions and theirs) has its tight shores scanned once: the
    decomposition tree, P-BARRIER and P-FDILIFT read one memoized scan."""
    g = random_matching_covered(8, 12, 3)[1]
    graph._memo.cache_clear()
    with body_runs(tight_shores) as runs:
        verify_all(g, "random-v12-s8")
    assert runs[g] == 1 and set(runs.values()) == {1}, sorted(runs.values())
