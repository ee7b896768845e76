"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own code paths: brute
force over edge subsets for matchings, permanent recursion for bipartite
counts, per-edge BFS for girth, a separate fraction elimination for
ranks, and a scan of every odd shore for tight cuts.  They are slower and
dumber on purpose.  The facial oracles keep the library's earlier
implementation: faces counted matching by matching, facets and codim-2
faces found by exact rank, and separating cuts by contracting both sides.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import pytest

from pmlattice.corpus import CORPUS_NAMES, corpus_graph
from pmlattice.graph import MultiGraph, cut_contractions, make_cut, odd_shores
from pmlattice.linalg import affine_dim
from pmlattice.matchings import (enumerate_perfect_matchings, matching_covered,
                                 matching_table)


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


def oracle_odd_faces(g: MultiGraph) -> dict[tuple[int, ...], tuple[list[frozenset[int]], bool]]:
    """For every odd vertex set X: the brute-force perfect matchings that
    use exactly one edge with one end in X (counted edge by edge), in
    enumeration order, and whether those matchings together use every
    edge."""
    ms = brute_force_matchings(g)
    n = g.vertex_count
    out = {}
    for size in range(1, n, 2):
        for shore in combinations(range(n), size):
            inside = set(shore)
            members = []
            for m in ms:
                crossings = sum(1 for eid, u, v in g.edges
                                if eid in m and (u in inside) != (v in inside))
                if crossings == 1:
                    members.append(m)
            used = set().union(*members)
            out[shore] = (members, used == set(g.edge_ids))
    return out


def row_major_face(table, cut: int) -> int:
    """Face mask of the matchings meeting the edge mask ``cut`` once,
    counted matching by matching over the table's edge masks."""
    return sum(1 << i for i, m in enumerate(table.masks) if (m & cut).bit_count() == 1)


def row_major_avoiding(table, eid: int) -> int:
    """Face mask of the matchings without edge ``eid``, matching by matching."""
    bit = 1 << table.edge_pos[eid]
    return sum(1 << i for i, m in enumerate(table.masks) if not m & bit)


def oracle_is_separating(g: MultiGraph, shore) -> bool:
    """Both cut-contractions matching-covered."""
    keep_shore, keep_comp = cut_contractions(g, shore)
    return matching_covered(keep_shore) and matching_covered(keep_comp)


class OracleFaces(NamedTuple):
    dim: int
    facets: dict  # facet mask -> (sorted exposing edge ids, exposing shores in scan order)
    codim2: set  # masks of the pairwise facet intersections of dimension dim - 2
    classes: list  # per odd shore: (shore, boundary, tight, separating, facet, face, face dim)


def oracle_faces(g: MultiGraph) -> OracleFaces:
    """Facial structure of P(G) by exact rank, face by face: an edge or odd
    shore exposes a facet when its face has dimension d-1, and two facets
    meet in a codim-2 face when their intersection has dimension d-2."""
    table = matching_table(g)
    rows = table.vectors
    dims: dict[int, int] = {}

    def dim(face: int) -> int:
        if face not in dims:
            dims[face] = affine_dim([rows[i] for i in range(len(rows)) if face >> i & 1])
        return dims[face]

    d = dim(table.all_matchings)
    facets: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    for eid in g.edge_ids:
        face = row_major_avoiding(table, eid)
        if face and dim(face) == d - 1:
            facets.setdefault(face, ([], []))[0].append(eid)
    classes = []
    for shore in odd_shores(g):
        cut = make_cut(g, shore)
        face = row_major_face(table, table.edge_mask(cut.boundary))
        if face and dim(face) == d - 1:
            facets.setdefault(face, ([], []))[1].append(shore)
        classes.append((shore, cut.boundary, face == table.all_matchings,
                        oracle_is_separating(g, shore), dim(face) == d - 1, face, dim(face)))
    masks = list(facets)
    codim2 = {a & b for i, a in enumerate(masks) for b in masks[i + 1:] if dim(a & b) == d - 2}
    return OracleFaces(d, {m: (sorted(e), s) for m, (e, s) in facets.items()}, codim2, classes)
