"""Shared fixtures and independent test oracles.

The oracles here deliberately avoid the library's own code paths: brute
force over edge subsets for matchings, permanent recursion for bipartite
counts, per-edge BFS for girth, a separate fraction elimination for
ranks, and a scan of every odd shore for tight cuts.  The library's
earlier exact linear algebra is kept too: Bareiss rank, the column-by-column
HNF (with its unimodular transform) and the double-kernel saturation,
always over every row given, the min-pivot Smith normal form and the
parity-constrained lattice built from a GF(2) kernel; and its earlier
argparse command-line grammar.  They are slower and
dumber on purpose.  The facial oracles keep the library's earlier
implementation: faces counted matching by matching, facets and codim-2
faces found by exact rank, and separating cuts by contracting both sides.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import inspect
import sys
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import pytest

from pmlattice.corpus import CORPUS_NAMES, corpus_graph
from pmlattice.errors import DEFAULT_TRIPLE_CAP, DEFAULT_VERTEX_CAP
from pmlattice.graph import MultiGraph, cut_contractions, make_cut, odd_shores
from pmlattice.linalg import Lattice, affine_dim, xgcd
from pmlattice.matchings import (enumerate_perfect_matchings, matching_covered,
                                 matching_table)


@pytest.fixture(scope="session")
def corpus() -> dict[str, MultiGraph]:
    return {name: corpus_graph(name) for name in CORPUS_NAMES}


@contextlib.contextmanager
def body_runs(fn):
    """Count, per first argument, the runs of ``fn``'s own body inside the
    block; a memoized call answered from its memo runs none.  The profiler
    sees every run, whichever imported name the call went through."""
    code, runs = inspect.unwrap(fn).__code__, collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            runs[frame.f_locals[code.co_varnames[0]]] += 1

    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(None)


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


def bareiss_rank(rows) -> int:
    """Exact rank of an integer matrix by fraction-free (Bareiss)
    elimination over every row."""
    rows = [list(r) for r in rows if any(r)]
    rnk, prev = 0, 1
    while rows:
        prow = rows.pop()
        col = next(j for j, x in enumerate(prow) if x)
        p = prow[col]
        rest = []
        for row in rows:
            a = row[col]
            if a:
                row = [(p * x - a * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                row = [p * x // prev for x in row]
            if any(row):
                rest.append(row)
        rows, prev = rest, p
        rnk += 1
    return rnk


def _hnf_rows(m, transform=False):
    """Row HNF of m column by column; optionally the unimodular U with
    U m = H (zero rows kept)."""
    width = len(m[0]) if m else 0
    rows = [list(map(int, r)) for r in m]
    nrows = len(rows)
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)] if transform else []
    r = 0
    for col in range(width):
        piv = None
        for i in range(r, nrows):
            if rows[i][col] == 0:
                continue
            if piv is None:
                piv = i
                continue
            a, b = rows[piv][col], rows[i][col]
            g, s, t = xgcd(a, b)
            va, vb = a // g, b // g
            rp, ri = rows[piv], rows[i]
            for j in range(width):
                pj, ij = rp[j], ri[j]
                rp[j] = s * pj + t * ij
                ri[j] = -vb * pj + va * ij
            if transform:
                up, ui = u[piv], u[i]
                for j in range(nrows):
                    pj, ij = up[j], ui[j]
                    up[j] = s * pj + t * ij
                    ui[j] = -vb * pj + va * ij
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if transform:
            u[r], u[piv] = u[piv], u[r]
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
            if transform:
                u[r] = [-x for x in u[r]]
        p = rows[r][col]
        for i in range(r):
            q = rows[i][col] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                if transform:
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return rows[:r] + [[0] * width for _ in range(nrows - r)], u


def oracle_hnf(m, ambient_dim: int) -> Lattice:
    """Canonical row HNF of every row of ``m``, column by column."""
    rows, _ = _hnf_rows(m)
    return Lattice(ambient_dim, tuple(tuple(r) for r in rows if any(r)))


def _oracle_kernel(m, n: int) -> Lattice:
    if not m:
        return oracle_hnf([[int(i == j) for j in range(n)] for i in range(n)], n)
    mt = [[row[i] for row in m] for i in range(n)]
    h, u = _hnf_rows(mt, transform=True)
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    return oracle_hnf(kernel_rows, n) if kernel_rows else Lattice(n, ())


def oracle_saturation(m, n: int) -> Lattice:
    """Integer points of the rational span of every row of ``m``: the
    kernel of its integer kernel."""
    ker = _oracle_kernel(m, n)
    if not ker.basis:
        return oracle_hnf([[int(i == j) for j in range(n)] for i in range(n)], n)
    return _oracle_kernel([list(r) for r in ker.basis], n)


def oracle_index(sub: Lattice, sup: Lattice) -> int:
    """[sup : sub] for canonical bases of equal rank with sub inside sup:
    both are echelon with the same pivot columns, so the index is the
    ratio of their pivot products."""
    assert sub.rank == sup.rank

    def pivots(lat):
        out = 1
        for row in lat.basis:
            out *= next(x for x in row if x)
        return out

    index, rem = divmod(pivots(sub), pivots(sup))
    assert rem == 0
    return index


def oracle_snf(m) -> tuple[int, ...]:
    """Elementary divisors d1 | d2 | ... (zeros dropped) by min-pivot
    elimination on rows and columns, merging a row into the pivot row
    whenever the pivot does not divide the rest."""
    width = len(m[0]) if m else 0
    a = [list(map(int, r)) for r in m]
    nrows = len(a)
    divisors: list[int] = []
    t = 0
    while True:
        pos = None
        best = None
        for i in range(t, nrows):
            for j in range(t, width):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pos = v, (i, j)
        if pos is None:
            break
        i0, j0 = pos
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            # clear column t
            redo = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        redo = True
            if redo:
                continue
            # clear row t
            for j in range(t + 1, width):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        redo = True
            if redo:
                continue
            break
        # enforce divisibility: pivot must divide everything below-right
        culprit = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, width):
                if a[i][j] % a[t][t]:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            a[t] = [x + y for x, y in zip(a[t], a[culprit])]
            # redo this pivot with the merged row
            continue
        divisors.append(abs(a[t][t]))
        t += 1
        if t >= min(nrows, width):
            break
    return tuple(divisors)


def _gf2_kernel(rows, width: int) -> list[tuple[int, ...]]:
    """Basis of the GF(2) kernel of an integer matrix (entries taken mod 2)."""
    mat = []
    for r in rows:
        acc = 0
        for j, x in enumerate(r):
            if x % 2:
                acc |= 1 << j
        mat.append(acc)
    pivots: dict[int, int] = {}  # leading column -> echelon row bitmask
    for val in mat:
        cur = val
        while cur:
            lead = cur.bit_length() - 1
            if lead in pivots:
                cur ^= pivots[lead]
            else:
                pivots[lead] = cur
                break
    basis = []
    for fc in (j for j in range(width) if j not in pivots):
        vec = 1 << fc
        # each echelon row has its leading column as highest bit, so solving
        # pivots in ascending order only ever reads already-decided bits
        for p in sorted(pivots):
            if bin(pivots[p] & vec & ((1 << p) - 1)).count("1") % 2:
                vec |= 1 << p
        basis.append(tuple((vec >> j) & 1 for j in range(width)))
    return basis


def oracle_parity_lattice(g: MultiGraph, sat: Lattice, psets) -> Lattice:
    """The x in the lattice ``sat`` with x(A) even for every A in ``psets``:
    the combinations of its basis by the GF(2) kernel of the parity rows,
    plus twice every basis row, under the column-by-column HNF."""
    edge_pos = {eid: i for i, eid in enumerate(g.edge_ids)}
    trows = [[sum(row[edge_pos[eid]] for eid in a) % 2 for row in sat.basis] for a in psets]
    gens = [list(k) for k in _gf2_kernel(trows, sat.rank)]
    gens += [[2 * int(i == j) for j in range(sat.rank)] for i in range(sat.rank)]
    rows = [[sum(ci * bi for ci, bi in zip(c, col)) for col in zip(*sat.basis)] for c in gens]
    return oracle_hnf(rows, len(g.edges))


def matching_rows(g: MultiGraph) -> list[list[int]]:
    """Incidence row of every perfect matching, in enumeration order,
    decoded from the frozensets (entry i is edge ``g.edges[i]``)."""
    return [[int(eid in m.edge_ids) for eid, _, _ in g.edges]
            for m in enumerate_perfect_matchings(g)]


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
    rows = [[m >> j & 1 for j in range(len(g.edges))] for m in table.masks]
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


def oracle_face_facets(g: MultiGraph, faces: list[int]) -> list[set[int]]:
    """Per face mask F of ``faces``, its facets by exact rank: the sets
    F & c of dimension dim F - 1, over the faces c of the edges and odd
    cuts, each counted matching by matching."""
    table = matching_table(g)
    rows = [[m >> j & 1 for j in range(len(g.edges))] for m in table.masks]
    dims: dict[int, int] = {}

    def dim(face: int) -> int:
        if face not in dims:
            dims[face] = affine_dim([rows[i] for i in range(len(rows)) if face >> i & 1])
        return dims[face]

    exposed = {row_major_avoiding(table, eid) for eid in g.edge_ids}
    exposed |= {row_major_face(table, table.edge_mask(make_cut(g, shore).boundary))
                for shore in odd_shores(g)}
    return [{face & c for c in exposed if dim(face & c) == dim(face) - 1} for face in faces]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's earlier argparse grammar, the oracle for ``cli.parse_args``
    (which no longer accepts abbreviated option names)."""
    p = argparse.ArgumentParser(
        prog="pmlattice",
        description="Exact analysis of perfect matching polytopes and lattices.",
        allow_abbrev=False)

    def common(sp):
        sp.add_argument("--input", help="GraphFile JSON path")
        sp.add_argument("--output", help="write the report to this path instead of stdout")
        sp.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_CAP,
                        help="vertex cap for exponential scans (default %(default)s)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--timing", action="store_true",
                        help="include wall time in the report (breaks byte determinism)")

    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("pm", help="perfect matchings", allow_abbrev=False)
    pm.add_argument("action", choices=["list", "count"])
    common(pm)

    poly = sub.add_parser("polytope", help="dimension and faces of P(G)", allow_abbrev=False)
    poly.add_argument("action", choices=["dim", "facets", "codim2"])
    common(poly)

    cuts = sub.add_parser("cuts", help="odd cut classification", allow_abbrev=False)
    cuts.add_argument("action", choices=["classify", "tight", "separating", "facet"])
    common(cuts)

    dec = sub.add_parser("decompose", help="tight cut decomposition", allow_abbrev=False)
    common(dec)

    bvn = sub.add_parser("bvn", help="Birkhoff-von-Neumann test", allow_abbrev=False)
    common(bvn)

    inter = sub.add_parser("intersect", help="find a matching meeting a separating "
                                             "facet-defining cut three times",
                           allow_abbrev=False)
    common(inter)

    bas = sub.add_parser("basis", help="integral or lattice basis of matchings",
                         allow_abbrev=False)
    bas.add_argument("action", choices=["integral", "lattice"])
    common(bas)

    char = sub.add_parser("characterize", help="matching lattice vs parity-constrained saturation",
                          allow_abbrev=False)
    common(char)

    ver = sub.add_parser("verify", help="run catalog properties", allow_abbrev=False)
    ver.add_argument("property_id", nargs="?", default=None,
                     help="property id or 'all' (default all)")
    ver.add_argument("--property", default=None, help="property id (overrides positional)")
    ver.add_argument("--triple-cap", type=int, default=DEFAULT_TRIPLE_CAP,
                     help="vertex cap for the nested-triple exhaustion (default %(default)s)")
    common(ver)

    cor = sub.add_parser("corpus", help="bundled and generated graphs", allow_abbrev=False)
    cor.add_argument("action", choices=["list", "emit", "random"])
    cor.add_argument("name", nargs="?", default=None, help="graph name for 'emit'")
    cor.add_argument("--vertices", type=int, default=None, help="vertex count for 'random'")
    cor.add_argument("--matchings", type=int, default=3,
                     help="extra random matchings unioned in (default %(default)s)")
    common(cor)

    return p
