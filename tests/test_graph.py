import ast
import functools
import itertools
import random
import sys
import threading
import time
from itertools import permutations
from pathlib import Path

import networkx as nx
import pytest

from pmlattice import graph
from pmlattice.decomposition import brick_count
from pmlattice.errors import PreconditionViolated
from pmlattice.graph import (GRAPHS_KEPT, MultiGraph, boundary,
                             components_minus, contract_shore,
                             cut_contractions, five_cycles, girth,
                             is_bipartite, is_petersen,
                             make_cut, odd_shores, per_graph, petersen_graph,
                             simplify)
from pmlattice.matchings import PerfectMatching, enumerate_perfect_matchings
from pmlattice.polytope import polytope_dim

from conftest import brute_force_girth


def test_construction_rejects_self_loops_and_duplicate_ids():
    with pytest.raises(ValueError):
        MultiGraph(3, ((0, 1, 1),))
    with pytest.raises(ValueError):
        MultiGraph(3, ((0, 0, 1), (0, 1, 2)))
    with pytest.raises(ValueError):
        MultiGraph(2, ((0, 0, 5),))
    with pytest.raises(ValueError):
        MultiGraph(-1, ())


def test_contract_petersen_five_cycle(corpus):
    g = corpus["petersen"]
    h = contract_shore(g, (0, 1, 2, 3, 4))
    assert h.vertex_count == 6
    assert len(h.edges) == 10
    internal = [e for e in h.edges if e[1] != 5 and e[2] != 5]
    spokes = [e for e in h.edges if 5 in (e[1], e[2])]
    assert len(internal) == 5 and len(spokes) == 5
    # ids survive verbatim: outer cycle 0-4, spokes 5-9
    assert sorted(e[0] for e in internal) == [0, 1, 2, 3, 4]
    assert sorted(e[0] for e in spokes) == [5, 6, 7, 8, 9]


def test_contract_prism_triangle_gives_k4(corpus):
    h = contract_shore(corpus["prism"], (0, 1, 2))
    assert h.vertex_count == 4
    assert len(h.edges) == 6
    pairs = sorted((min(u, v), max(u, v)) for _, u, v in h.edges)
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_contract_single_vertex_cases(corpus):
    g = corpus["prism"]
    # collapsing a single vertex only renumbers it
    h = contract_shore(g, set(range(6)) - {4})
    assert h.vertex_count == 6 and len(h.edges) == 9
    # keeping a single vertex yields its star, parallels preserved
    dp = corpus["double-prism"]
    star = contract_shore(dp, {0})
    assert star.vertex_count == 2
    assert sorted(e[0] for e in star.edges) == [0, 1, 6, 9]


def test_contract_rejects_bad_shores(corpus):
    g = corpus["k4"]
    with pytest.raises(PreconditionViolated):
        contract_shore(g, ())
    with pytest.raises(PreconditionViolated):
        contract_shore(g, range(4))


@pytest.mark.parametrize("shore", [(0, 1, 99), (-1, 0, 1)])
def test_shores_outside_the_vertices_are_rejected(corpus, shore):
    from pmlattice.polytope import classify_cut

    g = corpus["petersen"]
    for fn in (make_cut, contract_shore, cut_contractions, classify_cut):
        with pytest.raises(PreconditionViolated) as err:
            fn(g, shore)
        assert err.value.reason == "bad_shore", fn.__name__


def test_double_contraction_consistency(corpus):
    # contracting down to Y directly equals contracting X first, as id sets
    rng = random.Random(11)
    for name in ("petersen", "cube", "pete-c4-splice"):
        g = corpus[name]
        for _ in range(20):
            verts = list(range(g.vertex_count))
            rng.shuffle(verts)
            x = frozenset(verts[:7])
            y = frozenset(verts[:4])
            ranks = {v: i for i, v in enumerate(sorted(x))}
            via = contract_shore(contract_shore(g, x), frozenset(ranks[v] for v in y))
            direct = contract_shore(g, y)
            assert frozenset(e[0] for e in via.edges) == frozenset(e[0] for e in direct.edges)


def test_simplify_reports_parallel_classes(corpus):
    g = corpus["petersen-parallel"]
    simple, classes = simplify(g)
    assert len(simple.edges) == 15
    assert classes[0] == (0, 15)
    assert all(cls == (rep,) for rep, cls in classes.items() if rep != 0)
    again, classes2 = simplify(simple)
    assert again == simple and all(len(c) == 1 for c in classes2.values())


def test_simplify_doubled_triangle():
    g = MultiGraph.from_pairs(3, ((0, 1), (0, 2), (1, 2), (0, 1), (0, 2), (1, 2)))
    simple, classes = simplify(g)
    assert len(simple.edges) == 3
    assert sorted(len(c) for c in classes.values()) == [2, 2, 2]


def test_is_petersen(corpus):
    assert is_petersen(corpus["petersen"])
    assert is_petersen(corpus["petersen-parallel"])
    extra = MultiGraph(10, petersen_graph().edges + ((15, 0, 1), (16, 2, 3), (17, 5, 7)))
    assert is_petersen(extra)
    assert not is_petersen(corpus["k33"])
    assert not is_petersen(corpus["cube"])


def test_is_petersen_agrees_with_full_isomorphism(corpus):
    # the invariant filter must never disagree with a full isomorphism
    # test on ten-vertex inputs
    relabel = {v: (3 * v + 1) % 10 for v in range(10)}
    candidates = [corpus["petersen"], corpus["petersen-parallel"], petersen_graph(),
                  MultiGraph.from_pairs(10, tuple((relabel[u], relabel[v])
                                                  for _, u, v in petersen_graph().edges))]
    c10 = MultiGraph.from_pairs(10, tuple((i, (i + 1) % 10) for i in range(10)))
    mobius = MultiGraph.from_pairs(
        10, tuple((i, (i + 1) % 10) for i in range(10)) + tuple((i, i + 5) for i in range(5)))
    candidates += [c10, mobius]
    for g in candidates:
        simple = simplify(g)[0]
        other = nx.Graph((u, v) for _, u, v in simple.edges)
        assert is_petersen(g) == nx.is_isomorphic(other, nx.petersen_graph())


def _oracle_five_cycle_count(g: MultiGraph) -> int:
    simple, _ = simplify(g)
    adj = {v: set() for v in range(simple.vertex_count)}
    for _, u, v in simple.edges:
        adj[u].add(v)
        adj[v].add(u)
    count = 0
    for combo in permutations(range(simple.vertex_count), 5):
        if combo[0] != min(combo) or combo[1] > combo[4]:
            continue
        if all(combo[i + 1] in adj[combo[i]] for i in range(4)) and combo[0] in adj[combo[4]]:
            count += 1
    return count


def test_five_cycles_counts(corpus):
    assert len(five_cycles(corpus["petersen"])) == 12
    assert _oracle_five_cycle_count(corpus["petersen"]) == 12
    assert five_cycles(corpus["k4"]) == []
    c5 = MultiGraph.from_pairs(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    assert len(five_cycles(c5)) == 1
    for name in ("prism", "pete-c4-splice"):
        assert len(five_cycles(corpus[name])) == _oracle_five_cycle_count(corpus[name])


def test_five_cycles_pick_lowest_parallel_representative(corpus):
    cycles = five_cycles(corpus["petersen-parallel"])
    for _, eids in cycles:
        assert 15 not in eids  # 15 duplicates edge 0


def test_bipartite(corpus):
    ok, parts = is_bipartite(corpus["k33"])
    assert ok and {frozenset((0, 1, 2)), frozenset((3, 4, 5))} == set(parts)
    assert not is_bipartite(corpus["prism"])[0]
    assert is_bipartite(corpus["cube"])[0]


def test_girth_matches_oracle(corpus):
    for name, g in corpus.items():
        assert girth(g) == brute_force_girth(g), name
    assert girth(corpus["petersen"]) == 5
    assert girth(corpus["petersen-parallel"]) == 2


def test_components_minus():
    star = MultiGraph.from_pairs(4, ((0, 1), (0, 2), (0, 3)))
    assert components_minus(star, {0}) == [(1,), (2,), (3,)]
    assert components_minus(star, ()) == [(0, 1, 2, 3)]


def test_shore_and_cut_canonicalization(corpus):
    g = corpus["prism"]
    c1 = make_cut(g, (0, 1, 2))
    c2 = make_cut(g, (3, 4, 5))
    assert c1 == c2 and c1.shore == (0, 1, 2)
    assert c1.boundary == frozenset((6, 7, 8))
    assert boundary(g, (3, 4, 5)) == c1.boundary
    with pytest.raises(PreconditionViolated):
        make_cut(g, ())


def test_odd_shores_all_contain_vertex_zero(corpus):
    g = corpus["cube"]
    shores = list(odd_shores(g))
    assert all(s[0] == 0 for s in shores)
    assert len(shores) == len(set(shores))
    # sizes 3 and 5 on 8 vertices: C(7,2) + C(7,4)
    assert len(shores) == 21 + 35


# --- per-graph memo ---------------------------------------------------------

# edge-id offsets no other test uses, so each memo test starts from graphs
# that no memo holds yet
_fresh_offsets = itertools.count(10**9, 10**6)


def _fresh(g: MultiGraph) -> MultiGraph:
    offset = next(_fresh_offsets)
    return MultiGraph(g.vertex_count, tuple((eid + offset, u, v) for eid, u, v in g.edges))


def test_memo_keeps_at_most_graphs_kept_graphs():
    graphs = [_fresh(MultiGraph(2, ((0, 0, 1),))) for _ in range(GRAPHS_KEPT + 10)]

    @per_graph
    def only_edge(g):
        return g.edges[0][0]

    for g in graphs:
        assert only_edge(g) == g.edges[0][0]
    assert only_edge.cache_info() == (0, GRAPHS_KEPT + 10, GRAPHS_KEPT, GRAPHS_KEPT)
    assert graph._memo.cache_info().currsize == GRAPHS_KEPT
    # the first graphs were dropped: asked again, they are recomputed
    assert only_edge(graphs[0]) == graphs[0].edges[0][0]
    assert only_edge(graphs[-1]) == graphs[-1].edges[0][0]
    assert only_edge.cache_info() == (1, GRAPHS_KEPT + 11, GRAPHS_KEPT, GRAPHS_KEPT)
    only = PerfectMatching(frozenset({graphs[1].edges[0][0]}))
    assert enumerate_perfect_matchings(graphs[1]) == (only,)
    assert graph._memo.cache_info().currsize == GRAPHS_KEPT


def test_equal_graphs_share_one_memo_entry(corpus):
    g = _fresh(corpus["prism"])
    a, _ = cut_contractions(g, (0, 1, 2))
    b, _ = cut_contractions(g, (0, 1, 2))
    assert a == b and a is not b
    before = enumerate_perfect_matchings.cache_info()
    assert enumerate_perfect_matchings(a) is enumerate_perfect_matchings(b)
    after = enumerate_perfect_matchings.cache_info()
    assert after.hits - before.hits == 1
    assert after.misses - before.misses == 1
    assert after.currsize - before.currsize == 1


def test_memo_does_not_store_exceptions(corpus):
    g = _fresh(corpus["k4"])
    runs = []

    @per_graph
    def refuse(g):
        runs.append(g)
        raise PreconditionViolated("refused")

    for _ in range(2):
        with pytest.raises(PreconditionViolated):
            refuse(g)
    assert len(runs) == 2
    assert refuse.cache_info() == (0, 2, GRAPHS_KEPT, 0)


def test_memo_cache_info_counts_exactly(corpus):
    g, h = _fresh(corpus["k4"]), _fresh(corpus["prism"])
    runs = []

    @per_graph
    def degree(g, v):
        runs.append((g, v))
        return g.degree(v)

    for v in (0, 1, 0, 2, 1, 0):
        assert degree(g, v) == 3
    assert degree(h, 0) == 3
    assert runs == [(g, 0), (g, 1), (g, 2), (h, 0)]
    info = degree.cache_info()
    assert isinstance(info, functools._CacheInfo)
    assert info._asdict() == {"hits": 3, "misses": 4, "maxsize": GRAPHS_KEPT, "currsize": 4}


def test_memo_shared_across_threads(corpus):
    names = sorted(corpus)
    serial = {name: (polytope_dim(corpus[name]), brick_count(corpus[name])) for name in names}
    fresh = {name: _fresh(corpus[name]) for name in names}
    rounds = 50

    @per_graph
    def vertex_count(g):
        return g.vertex_count

    results: list[dict] = []

    def work():
        got = {name: (polytope_dim(fresh[name]), brick_count(fresh[name])) for name in names}
        for _ in range(rounds):
            for g in fresh.values():
                vertex_count(g)
        results.append(got)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 8
    info = vertex_count.cache_info()
    # a lost update would break these counts
    assert info.hits + info.misses == 8 * rounds * len(names)
    assert info.currsize == len(names)


class _YieldingKey:
    """A memo argument whose hash gives up the interpreter lock."""

    def __init__(self, i: int):
        self.i = i

    def __hash__(self) -> int:
        time.sleep(0)
        return self.i

    def __eq__(self, other) -> bool:
        return isinstance(other, _YieldingKey) and other.i == self.i


def test_memo_counts_survive_a_thread_switch_inside_the_key_hash():
    """8 threads each memoize 50 distinct arguments of one graph.  Hashing
    an argument sleeps, so another thread runs inside the memo's
    read-modify-write of its entry count (``counts[2] += key not in memo``
    reads the count before it hashes the key); only the lock keeps every
    entry and call counted."""
    g = MultiGraph.from_pairs(4, ((0, 1), (2, 3), (1, 2)))
    per_thread = 50

    @per_graph
    def index_of(g, key):
        return key.i

    def work(t):
        for k in range(per_thread):
            index_of(g, _YieldingKey(t * per_thread + k))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    info = index_of.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 8 * per_thread, 8 * per_thread)


def test_only_the_memo_root_uses_lru_cache():
    """Caching has one owner: no function in the package but the memo
    root is decorated with functools.lru_cache or functools.cache."""
    decorated = []
    for path in sorted((Path(__file__).parents[1] / "src" / "pmlattice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    decorated.append(f"{path.stem}.{node.name}")
    assert decorated == ["graph._memo"]


def test_no_module_imports_dataclasses():
    """Records are NamedTuples or small slotted classes: importing
    ``dataclasses`` (and ``inspect`` with it) costs every CLI process
    about 12 ms of start-up."""
    importers = []
    for path in sorted((Path(__file__).parents[1] / "src" / "pmlattice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                importers.append(path.stem)
    assert importers == []
