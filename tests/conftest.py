"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own code paths: brute
force over edge subsets for matchings, permanent recursion for bipartite
counts, per-edge BFS for girth, a separate fraction elimination for
ranks, and a scan of every odd shore for tight cuts.  They are slower and
dumber on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from pmlattice.corpus import CORPUS_NAMES, corpus_graph
from pmlattice.graph import MultiGraph
from pmlattice.matchings import enumerate_perfect_matchings


@pytest.fixture(scope="session")
def corpus() -> dict[str, MultiGraph]:
    return {name: corpus_graph(name) for name in CORPUS_NAMES}


def brute_force_matchings(g: MultiGraph) -> list[frozenset[int]]:
    """All perfect matchings by exhaustive edge-subset search."""
    n = g.vertex_count
    if n % 2:
        return []
    out = []
    for combo in combinations(g.edges, n // 2):
        seen: set[int] = set()
        for _, u, v in combo:
            if u in seen or v in seen:
                break
            seen.add(u)
            seen.add(v)
        else:
            if len(seen) == n:
                out.append(frozenset(e[0] for e in combo))
    return sorted(out, key=sorted)


def bipartite_matching_count(g: MultiGraph, left: list[int], right: list[int]) -> int:
    """Permanent-style count of perfect matchings of a bipartite graph."""
    if len(left) != len(right):
        return 0
    adj = {u: set() for u in left}
    for _, u, v in g.edges:
        if u in adj and v in set(right):
            adj[u].add(v)
        elif v in adj and u in set(right):
            adj[v].add(u)

    def count(i: int, used: frozenset[int]) -> int:
        if i == len(left):
            return 1
        return sum(count(i + 1, used | {w}) for w in adj[left[i]] if w not in used)

    return count(0, frozenset())


def brute_force_girth(g: MultiGraph) -> int | float:
    """Shortest cycle: parallel edges give 2; otherwise per-edge BFS."""
    pair_count: dict[tuple[int, int], int] = {}
    for _, u, v in g.edges:
        key = (u, v) if u < v else (v, u)
        pair_count[key] = pair_count.get(key, 0) + 1
    if any(c > 1 for c in pair_count.values()):
        return 2
    adj = {v: set() for v in range(g.vertex_count)}
    for _, u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    best: int | float = float("inf")
    for (u, v) in pair_count:
        # shortest u-v path avoiding this edge, + 1
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if (a, b) in ((u, v), (v, u)):
                        continue
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def oracle_rank(rows) -> int:
    """Independent exact rank by textbook elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = None
        for i in range(r, len(m)):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def oracle_affine_dim(points) -> int:
    if not points:
        return -1
    base = points[0]
    return oracle_rank([[a - b for a, b in zip(p, base)] for p in points[1:]])


def oracle_tight_shores(g: MultiGraph) -> list[tuple[int, ...]]:
    """Tight shores by exhaustion: every odd shore containing vertex 0 with
    1 < |X| < n-1, in (size, lex) order, kept when its boundary meets every
    perfect matching exactly once."""
    n = g.vertex_count
    ms = [m.edge_ids for m in enumerate_perfect_matchings(g)]
    out = []
    for size in range(3, n - 1, 2):
        for rest in combinations(range(1, n), size - 1):
            shore = {0, *rest}
            cut = {eid for eid, u, v in g.edges if (u in shore) != (v in shore)}
            if all(len(m & cut) == 1 for m in ms):
                out.append((0,) + rest)
    return out
