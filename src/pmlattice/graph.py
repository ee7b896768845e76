"""Multigraph core: stable edge identities, shores and cuts, contraction,
simplification, small-graph recognition, and the per-graph memo that holds
every memoized result of the package (:func:`per_graph`).

Edge identity is the primary key everywhere.  Contraction never renumbers
surviving edges, which is what lets vectors indexed by edge id be composed
across cut-contractions later on.  The package's records, ``Cut`` first, are
``typing.NamedTuple``s with tuple semantics; ``MultiGraph`` validates its input.
"""

from __future__ import annotations

import functools
import itertools
import threading
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import PreconditionViolated

Edge = tuple[int, int, int]  # (edge_id, u, v)


class MultiGraph:
    """Undirected multigraph on vertices ``0..vertex_count-1``.

    Parallel edges are distinct entries with distinct ids; self-loops are
    rejected at construction.  Immutable and hashable, so per-graph results
    can be memoized.
    """

    __slots__ = ("vertex_count", "edges", "_hash")

    def __init__(self, vertex_count: int, edges: tuple[Edge, ...]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        seen: set[int] = set()
        for eid, u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u} (edge {eid})")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {eid} endpoint out of range")
            if eid in seen:
                raise ValueError(f"duplicate edge id {eid}")
            seen.add(eid)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        # every memo lookup hashes the graph, so the edge tuple is hashed once
        object.__setattr__(self, "_hash", hash((vertex_count, edges)))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return MultiGraph, (self.vertex_count, self.edges)

    def __eq__(self, other):
        return other.__class__ is self.__class__ \
            and self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"MultiGraph(vertex_count={self.vertex_count!r}, edges={self.edges!r})"

    @staticmethod
    def from_pairs(vertex_count: int, pairs: Iterable[tuple[int, int]]) -> "MultiGraph":
        """Build a graph with ids 0..m-1 assigned in the order given."""
        return MultiGraph(vertex_count, tuple((i, u, v) for i, (u, v) in enumerate(pairs)))

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e[0] for e in self.edges)

    def endpoints(self) -> dict[int, tuple[int, int]]:
        return {eid: (u, v) for eid, u, v in self.edges}

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex incidence list of (edge_id, other endpoint), id order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for eid, u, v in sorted(self.edges):
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for _, u, w in self.edges if u == v or w == v)

    def vertices(self) -> range:
        return range(self.vertex_count)


# --- per-graph memo -------------------------------------------------------

GRAPHS_KEPT = 1024  # `verify all` on a 14-vertex random graph touches 121 graphs
_lock = threading.RLock()


class _Memo(dict):
    """One graph's results, keyed by (memoized function, extra args)."""

    def __del__(self, lock=_lock):  # bound early: globals may be gone at exit
        # the root cache dropped this graph, so its entries are no longer held
        with lock:
            for fn, _ in self:
                fn.counts[2] -= 1


@functools.lru_cache(maxsize=GRAPHS_KEPT)
def _memo(g: MultiGraph) -> _Memo:
    return _Memo()


def per_graph(fn: Callable) -> Callable:
    """Memoize ``fn(g, *args)`` in the memo of ``g``, which equal graphs
    share; only the memos of the ``GRAPHS_KEPT`` most recently used graphs
    are kept, and exceptions are not stored.  Keyword arguments are hints:
    they may make ``fn`` cheaper but never change its result, so the key
    leaves them out.  ``cache_info()`` gives hits, misses and entries held,
    in the ``functools.lru_cache`` shape."""

    @functools.wraps(fn)
    def memoized(g: MultiGraph, *args, **hints):
        memo, key = _memo(g), (memoized, args)
        with _lock:
            if key in memo:
                counts[0] += 1
                return memo[key]
            counts[1] += 1
        result = fn(g, *args, **hints)
        with _lock:
            counts[2] += key not in memo
            return memo.setdefault(key, result)

    counts = memoized.counts = [0, 0, 0]  # hits, misses, entries held
    memoized.cache_info = lambda: functools._CacheInfo(*counts[:2], GRAPHS_KEPT, counts[2])
    return memoized


def shore_complement(g: MultiGraph, shore: frozenset[int]) -> frozenset[int]:
    return frozenset(range(g.vertex_count)) - shore


def boundary(g: MultiGraph, vertices: Iterable[int]) -> frozenset[int]:
    """Edge ids with exactly one endpoint inside ``vertices``."""
    vs = set(vertices)
    return frozenset(eid for eid, u, v in g.edges if (u in vs) != (v in vs))


class Cut(NamedTuple):
    """An edge cut delta(X) with its canonical shore.

    The stored shore is the lexicographically smaller of X and its
    complement (as sorted vertex tuples), so delta(X) and delta(V-X)
    compare equal.
    """

    shore: tuple[int, ...]
    boundary: frozenset[int]

    @property
    def shore_set(self) -> frozenset[int]:
        return frozenset(self.shore)


def _proper_shore(g: MultiGraph, vertices: Iterable[int]) -> frozenset[int]:
    """``vertices`` as a set, checked to be a nonempty proper subset of
    0..n-1; the one shore check of ``make_cut`` and ``contract_shore``."""
    vs = frozenset(vertices)
    if not vs or len(vs) >= g.vertex_count or not 0 <= min(vs) <= max(vs) < g.vertex_count:
        raise PreconditionViolated("bad_shore", "shore must be a nonempty proper subset of 0..n-1")
    return vs


def _check_cut(g: MultiGraph, c: Cut) -> None:
    """Raise ``bad_cut`` unless a caller's ``Cut`` is delta(shore) in
    ``g``; the shore itself is checked by ``_proper_shore``."""
    if c.boundary != boundary(g, _proper_shore(g, c.shore)):
        raise PreconditionViolated("bad_cut", "cut boundary is not delta(shore) in this graph")


def make_cut(g: MultiGraph, vertices: Iterable[int]) -> Cut:
    vs = _proper_shore(g, vertices)
    comp = shore_complement(g, vs)
    side = min(tuple(sorted(vs)), tuple(sorted(comp)))
    return Cut(side, boundary(g, side))


def odd_shores(g: MultiGraph) -> Iterator[tuple[int, ...]]:
    """Canonical nontrivial odd shores (1 < |X| < n-1) in (size, lex) order.

    Canonical means the side containing vertex 0, which is the
    lexicographically smaller side.
    """
    n = g.vertex_count
    for size in range(3, n - 1, 2):
        for rest in itertools.combinations(range(1, n), size - 1):
            yield (0,) + rest


def contract_shore(g: MultiGraph, shore: Iterable[int]) -> MultiGraph:
    """Collapse the complement of ``shore`` to a single contraction vertex.

    Vertices of the shore are renumbered 0..k-1 in sorted order and the
    contraction vertex gets index k (use :func:`shore_index_map`).  Edges
    inside the complement are deleted; all surviving edges keep their ids,
    so parallel edges created by the contraction remain distinct.
    """
    vs = _proper_shore(g, shore)
    index = shore_index_map(vs)
    c = len(vs)
    new_edges = []
    for eid, u, v in g.edges:
        iu, iv = u in vs, v in vs
        if not iu and not iv:
            continue
        nu = index[u] if iu else c
        nv = index[v] if iv else c
        new_edges.append((eid, nu, nv))
    return MultiGraph(c + 1, tuple(new_edges))


def shore_index_map(shore: Iterable[int]) -> dict[int, int]:
    """Old-vertex -> new-vertex map used by :func:`contract_shore`."""
    return {v: i for i, v in enumerate(sorted(shore))}


def cut_contractions(g: MultiGraph, vertices: Iterable[int]) -> tuple[MultiGraph, MultiGraph]:
    """Both cut-contractions for the cut delta(X).

    Returns ``(keep_shore, keep_complement)``: the first collapses the
    complement of X (retaining X), the second collapses X.
    """
    vs = frozenset(vertices)
    return contract_shore(g, vs), contract_shore(g, shore_complement(g, vs))


def simplify(g: MultiGraph) -> tuple[MultiGraph, dict[int, tuple[int, ...]]]:
    """One representative edge (lowest id) per parallel class.

    Returns the simple graph and a map from representative id to the full
    sorted tuple of class member ids.
    """
    classes: dict[tuple[int, int], list[int]] = {}
    for eid, u, v in g.edges:
        key = (u, v) if u < v else (v, u)
        classes.setdefault(key, []).append(eid)
    kept = []
    class_map: dict[int, tuple[int, ...]] = {}
    for (u, v), ids in classes.items():
        rep = min(ids)
        kept.append((rep, u, v))
        class_map[rep] = tuple(sorted(ids))
    kept.sort()
    return MultiGraph(g.vertex_count, tuple(kept)), class_map


def is_bipartite(g: MultiGraph) -> tuple[bool, tuple[frozenset[int], frozenset[int]] | None]:
    """2-colorability test; on success returns the bipartition.

    The part containing the least vertex of each component is put in the
    first class, so the returned bipartition is deterministic.
    """
    color: dict[int, int] = {}
    adj = g.adjacency()
    for start in g.vertices():
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for _, w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False, None
    part0 = frozenset(v for v, c in color.items() if c == 0)
    part1 = frozenset(g.vertices()) - part0
    return True, (part0, part1)


def girth(g: MultiGraph) -> int | float:
    """Length of a shortest cycle; ``inf`` for forests.

    Parallel edges form 2-cycles.  BFS from every vertex on the
    simplification otherwise.
    """
    simple, classes = simplify(g)
    if any(len(ids) > 1 for ids in classes.values()):
        return 2
    best: int | float = float("inf")
    adj = simple.adjacency()
    for root in simple.vertices():
        dist = {root: 0}
        parent_edge = {root: -1}
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                for eid, w in adj[v]:
                    if eid == parent_edge[v]:
                        continue
                    if w in dist:
                        best = min(best, dist[v] + dist[w] + 1)
                    else:
                        dist[w] = dist[v] + 1
                        parent_edge[w] = eid
                        nxt.append(w)
            queue = nxt
    return best


def components_minus(g: MultiGraph, removed: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected components of G minus a vertex set, ordered by least vertex."""
    gone = set(removed)
    adj = g.adjacency()
    seen: set[int] = set(gone)
    comps = []
    for start in g.vertices():
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop()
            for _, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: c[0])
    return comps


def is_connected(g: MultiGraph) -> bool:
    if g.vertex_count == 0:
        return True
    return len(components_minus(g, ())) == 1


# --- Petersen recognition -------------------------------------------------

PETERSEN_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
)


def petersen_graph() -> MultiGraph:
    """The Petersen graph: outer 5-cycle, spokes, inner pentagram."""
    return MultiGraph.from_pairs(10, PETERSEN_PAIRS)


def _adjacency_sets(g: MultiGraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for _, u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_petersen(g: MultiGraph) -> bool:
    """True iff the simplification of ``g`` is the Petersen graph.

    The invariants decide it: the Petersen graph is the unique cubic
    graph on 10 vertices with girth 5 (the (3,5)-cage).
    """
    simple, _ = simplify(g)
    if simple.vertex_count != 10 or len(simple.edges) != 15:
        return False
    if any(simple.degree(v) != 3 for v in simple.vertices()):
        return False
    return girth(simple) == 5


def five_cycles(g: MultiGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All simple 5-cycles, once each, as (vertex tuple, edge id tuple).

    Cycles are canonical: least vertex first, direction chosen so the
    second vertex is the smaller neighbour.  Each consecutive pair
    contributes its lowest-id parallel edge.
    """
    simple, _ = simplify(g)
    adj = _adjacency_sets(simple)
    rep: dict[tuple[int, int], int] = {}
    for eid, u, v in simple.edges:
        rep[(u, v)] = eid
        rep[(v, u)] = eid

    found = []
    n = simple.vertex_count
    for a in range(n):
        for b in sorted(adj[a]):
            if b < a:
                continue
            for c in sorted(adj[b]):
                if c <= a or c == b:
                    continue
                for d in sorted(adj[c]):
                    if d <= a or d in (b, c):
                        continue
                    for e in sorted(adj[d]):
                        if e <= a or e in (b, c, d):
                            continue
                        if a in adj[e] and b < e:  # canonical direction
                            cyc = (a, b, c, d, e)
                            eids = tuple(rep[(cyc[i], cyc[(i + 1) % 5])] for i in range(5))
                            found.append((cyc, eids))
    found.sort()
    return found
