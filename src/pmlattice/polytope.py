"""Facial analysis of the perfect matching polytope in V-representation.

A face is an int mask over the canonical matching enumeration (bit i is
matching i), never an inequality system: exact, finite, and easy to
deduplicate at desk scale.  Faces intersect by ``&``, and face ``a`` lies
in face ``b`` when ``not a & ~b``.  Masks, incidence rows and crossing
counts come from the graph's table, ``matchings.matching_table``, and
every bit-matrix transpose from ``matchings.transpose``; the face of every
canonical nontrivial odd shore is computed once per graph, as far as it
is read (``shore_faces``), and every odd-shore scan reads it, each scan
behind the one gate, ``matchings.scan_table`` (matching-covered, then the
vertex cap).

The facial structure is read from face masks through three identities,
with no rank:

- Facets (``facet_masks``).  P(G) is described by ``x_e >= 0``, the degree
  equations and ``x(C) >= 1`` for the nontrivial odd cuts C (Edmonds 1965).
  Every facet is the face of one of those inequalities and every proper
  face lies in a facet, so the facets are the inclusion-maximal faces c
  of the edges and odd cuts, save ∅ and P.  The faces of a face F are the
  sets F & G, G a face of P, so its facets are the maximal F & c, save ∅, F.
- Separating cuts (``is_separating``).  A cut of a matching-covered graph
  is separating iff every edge lies in a perfect matching meeting the cut
  once, that is iff its face is nonempty and its matchings use every edge
  (Carvalho, Lucchesi and Murty 2002; Lucchesi and Murty, *Perfect
  Matchings*).
- Ridges (``ridges``).  In the face lattice of a polytope,
  a face of dimension d-2 lies in exactly two facets and a smaller face in
  at least three (the diamond property; Ziegler, *Lectures on Polytopes*,
  Lecture 2), so the intersection of two facets is a (d-2)-face exactly
  when no third facet holds it.

A face's dimension (``members_dim``, memoized on the mask) is certified
from two bounds: the GF(2) rank of its matchings' masks from below, and
from above the least of its member count, a cap the caller knows (d - 1
for a proper face of P, d - 2 below a facet) and, for a cut's face, the
ranks of the stars of the cut's two contractions of its support
(``_cut_face_bound``); a rational ``Echelon`` reads its rows only where
they disagree, which happens mostly on graphs with a Petersen brick.  It
gives the dimensions that ``classify_cut`` and ``classify_all_cuts``
report, through one classification walk (``_classes``) that
``CutClassRows`` renders for ``cuts classify``, and the dimensions that
P-BRICKCOUNT, P-NEARBRICK and P-LEMMA-COUNT check.  One lazy walk
(``_facet_walk``) tests the separating shores' faces against d - 1 in
canonical order: ``separating_facet_defining_cuts`` lists it, ``is_bvn``
stops at its first cut and ``basis`` filters it.  dim P(G)
(``polytope_dim``) is read from its certificate,
``decomposition.spanning_matchings``.  A BvN graph's points of kP are
sums of k perfect matchings (``idp_decompose``).
"""

from __future__ import annotations

import threading
from collections import namedtuple
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .decomposition import spanning_matchings
from .errors import DEFAULT_VERTEX_CAP, PreconditionViolated, TheoremFalsified
from .graph import (Cut, MultiGraph, _check_cut, _proper_shore, boundary, make_cut, odd_shores,
                    per_graph, shore_complement)
from .linalg import Echelon
from .matchings import (MatchingTable, PerfectMatching, edge_id_text,
                        enumerate_perfect_matchings, matching_table, require_matching_covered,
                        scan_table, spread, transpose)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    digits = bin(mask)[:1:-1]  # bit i is character i
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class Face(NamedTuple):
    """A face of P(G) as the mask of the matchings lying on it.

    ``dim`` is the exact affine dimension (-1 for the empty face);
    ``exposed_by_edges`` / ``exposed_by_cuts`` record every scanned
    exposer whose face this is.
    """

    mask: int
    dim: int
    exposed_by_edges: tuple[int, ...] = ()
    exposed_by_cuts: tuple[Cut, ...] = ()

    def key(self) -> tuple[int, ...]:
        """Indices of the member matchings, ascending."""
        return tuple(_bits(self.mask))

    @property
    def member_matchings(self) -> frozenset[int]:
        return frozenset(self.key())


_BYTE_BITS = [()]  # entry v: the set bits of the byte v, ascending
for _b in range(8):
    _BYTE_BITS += [bits + (_b,) for bits in _BYTE_BITS]


class FaceMembers:
    """The member indices of one face mask, ascending (``Face.key``), for a
    report: iterating gives them, and ``json_chunks`` gives their JSON text
    at indent ``pad``, as ``json.dumps`` nests the list, with no int or str
    built per member.  Each byte of the mask is rendered from the texts of
    its 8 matchings, built once per indent and shared by every face of one
    report (``member_lists``)."""

    __slots__ = ("mask", "_texts")

    def __init__(self, mask: int, texts: dict[str, tuple[list[list[str]], list[str]]]):
        self.mask, self._texts = mask, texts

    def __iter__(self) -> Iterator[int]:
        return iter(_bits(self.mask))

    def json_chunks(self, pad: str) -> Iterator[str]:
        blocks, full = self._texts[pad]
        parts = []
        for k, byte in enumerate(self.mask.to_bytes(len(blocks), "little")):
            if byte == 255:
                parts.append(full[k])
            elif byte:
                parts.append("".join(map(blocks[k].__getitem__, _BYTE_BITS[byte])))
        body = "".join(parts)
        yield f"[{body[1:]}{pad}]" if body else "[]"


class _MemberTexts(dict):
    """Per indent, the texts ``,{leaf}{i}`` of matchings 0..width-1 in
    blocks of 8, and each block joined whole."""

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, pad: str) -> tuple[list[list[str]], list[str]]:
        leaf = pad + "  "
        texts = [f",{leaf}{i}" for i in range(self.width)]
        blocks = [texts[k:k + 8] for k in range(0, self.width, 8)]
        self[pad] = blocks, ["".join(b) for b in blocks]
        return self[pad]


def member_lists(g: MultiGraph) -> Callable[[int], FaceMembers]:
    """The ``FaceMembers`` of face masks of g, sharing their texts."""
    texts = _MemberTexts(len(matching_table(g).masks))
    return lambda mask: FaceMembers(mask, texts)


class CutClass(NamedTuple):
    cut: Cut
    is_tight: bool
    is_separating: bool
    is_facet_defining: bool
    face: Face


def polytope_dim(g: MultiGraph) -> int:
    """dim P(G), exact; cross-checked against |E| - |V| + 1 - b(G)."""
    require_matching_covered(g)
    return len(spanning_matchings(g)) - 1


# ``members_dim.rank_info()``, in the shape of ``cache_info()``: dimensions
# answered where the bounds met, and those the rational echelon decided
RankInfo = namedtuple("RankInfo", "certified fallbacks")


def _gf2_rank(rows: Iterable[int], target: int) -> int:
    """Rank over GF(2) of bit-vector rows, read until it reaches ``target``:
    an XOR basis keyed by each kept row's top bit."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                if len(basis) == target:
                    return target
                break
            r ^= basis[top]
    return len(basis)


@per_graph
def _bit_ends(g: MultiGraph) -> tuple[tuple[int, int], ...]:
    """The end vertices of the edge of each table bit."""
    ends = [(0, 0)] * len(g.edges)
    for b, (_, u, v) in zip(matching_table(g).row_bits, g.edges):
        ends[b] = (u, v)
    return tuple(ends)


def _cut_face_bound(g: MultiGraph, t: MatchingTable, face: int, shore: Iterable[int]) -> int:
    """An upper bound on the dimension of a set of matchings (mask
    ``face``) that each meet delta(X), X = ``shore``, once: |E_F| - |V| - 1
    + b1 + b2, where E_F is the edges they use and b1, b2 count the
    bipartite components of the two cut-contractions H1, H2 of (V, E_F).

    Restricted to E(H_i) a matching is a perfect matching of H_i, so those
    rows span at most |E(H_i)| - r_i + 1 dimensions, r_i = |V(H_i)| - b_i
    being the rank of H_i's stars.  Each row is the pair of its
    restrictions, which agree on the cut's edges of E_F, and each of those
    edges is used by a row, so the rank is at most the sum of the two less
    |C cap E_F|.  The stars of H1 and H2 span those of (V, E_F) and C, and
    share C, so this is never above G2 = |E_F| + 1 - rank(stars and C on
    E_F), less one.  H1 and H2 are walked as one graph on |V| + 2
    vertices: V, the contracted complement of X (|V|) and the contracted
    X (|V| + 1)."""
    ends, n = _bit_ends(g), g.vertex_count
    inside = sum(1 << v for v in shore)
    adj: list[list[int]] = [[] for _ in range(n + 2)]
    used = 0
    for b, col in enumerate(t.cols):
        if col & face:
            used += 1
            u, v = ends[b]
            if (inside >> u ^ inside >> v) & 1:  # a cut edge: one end in each contraction
                if inside >> v & 1:
                    u, v = v, u
                adj[u].append(n)
                adj[n].append(u)
                u = n + 1
            adj[u].append(v)
            adj[v].append(u)
    side = [0] * (n + 2)
    bipartite = 0
    for root in range(n + 2):
        if side[root]:
            continue
        side[root], stack, odd = 1, [root], False
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not side[v]:
                    side[v] = -side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    odd = True
        bipartite += not odd
    return used - n - 1 + bipartite


def _member_rows(t: MatchingTable, face: int, count: int, target: int) -> Iterator[int]:
    """The masks of the face's ``count`` members in a spread order, for a
    rank read until it reaches ``target``: first, where probing costs less
    than listing the members, the members that about 4 * ``target`` probes
    of the table's spread order meet, then every member in the
    ``spread_order`` of the member list.  A row read twice does not change
    a rank, and a large face is seldom listed."""
    n = len(t.masks)
    probes = 4 * target * n // count
    if probes < count:
        data = face.to_bytes((n + 7) // 8, "little")
        yield from (t.masks[p] for p in islice(spread(n), probes) if data[p >> 3] >> (p & 7) & 1)
    members = _bits(face)
    yield from (t.masks[members[i]] for i in spread(count))


_ranked = [0, 0]  # certified, fallbacks


@per_graph
def members_dim(g: MultiGraph, face: int, *, cap: int | None = None,
                shore: Iterable[int] | None = None) -> int:
    """Affine dimension of the face with mask ``face``, certified from two
    bounds and memoized on the mask alone; the rows of its matchings lie
    off the origin in the affine hyperplane x(delta(v)) = 1, so it is one
    less than their rank.

    The lower bound is their rank over GF(2) (a minor that is odd is
    nonzero), read in a spread order (``_member_rows``) until it reaches
    the upper bound.
    The upper bound is the least of the member count less one, ``cap``
    and, given a ``shore`` X whose cut every member meets once,
    ``_cut_face_bound``.  The hints must hold: ``cap`` bounds the
    dimension of a proper face (d - 1 below P, d - 2 below a facet).
    Only where the bounds disagree does a rational ``Echelon`` read the
    rows, in the same order, up to the upper bound.  The GF(2) rank falls
    short mostly on graphs with a Petersen brick, the only ones whose
    matching lattice is not lin(P) cap Z^E (Lovasz 1987; Carvalho,
    Lucchesi and Murty 2002); ``members_dim.rank_info()`` counts the
    answers each way."""
    count = face.bit_count()
    top = count - 1 if cap is None else min(count - 1, cap)
    if top <= 1:  # at most two members, or a cap that two distinct points meet
        _ranked[0] += 1
        return top
    t = matching_table(g)
    low = _gf2_rank(_member_rows(t, face, count, top + 1), top + 1) - 1
    if low < top and shore is not None:
        top = min(top, _cut_face_bound(g, t, face, shore))
    if low == top:
        _ranked[0] += 1
        return low
    _ranked[1] += 1
    ech = Echelon(len(g.edges))
    ech.extend(map(t.row, _member_rows(t, face, count, top + 1)), top + 1)
    return ech.rank - 1


members_dim.rank_info = lambda: RankInfo(*_ranked)


class _Scan:
    """A memoized scan read lazily: the items of ``make()``, each computed
    once and kept, as far as any reader has gone, so a reader that stops
    early pays for the prefix it read (at most twice what it read: the
    prefix is extended by as many items as it holds).  After an exception
    the scan resumes where it stood."""

    __slots__ = ("_make", "_items", "_rest", "_lock")

    def __init__(self, make: Callable[[], Iterator]):
        self._make, self._items, self._rest = make, [], make()
        self._lock = threading.RLock()

    def __iter__(self) -> Iterator:
        return iter(self._items) if self._rest is None else self._read()

    def _read(self) -> Iterator:
        items, i = self._items, 0
        while i < len(items) or self._extend(i):
            yield items[i]
            i += 1

    def _extend(self, i: int) -> bool:
        """Whether item ``i`` exists, extending the prefix if needed."""
        with self._lock:
            items = self._items
            if i < len(items):
                return True
            if self._rest is None:
                return False
            try:
                items.extend(islice(self._rest, max(1, len(items))))
            except BaseException:
                self._rest = islice(self._make(), len(items), None)
                raise
            if i < len(items):
                return True
            self._rest = None
            return False


@per_graph
def shore_faces(g: MultiGraph) -> _Scan:
    """(shore, face mask of its cut) for every canonical nontrivial odd
    shore, in ``odd_shores`` order: the one odd-shore face scan, computed
    as far as it is read."""
    t = matching_table(g)
    return _Scan(lambda: ((shore, t.face(t.cut_mask(shore))) for shore in odd_shores(g)))


def _separates(t: MatchingTable, face: int) -> bool:
    return bool(face) and t.covers_all_edges(face)


def is_separating(g: MultiGraph, shore: tuple[int, ...]) -> bool:
    """Whether delta(shore) is separating (both cut-contractions
    matching-covered): its face is nonempty and uses every edge."""
    t = matching_table(g)
    return _separates(t, t.face(t.cut_mask(_proper_shore(g, shore))))


def _shore_cut(g: MultiGraph, t: MatchingTable, shore: tuple[int, ...]) -> Cut:
    """``make_cut`` of a canonical shore, its boundary read from the stars."""
    return Cut(shore, frozenset(t.ids[b] for b in _bits(t.cut_mask(shore))))


# ``_held`` stops ANDing once this few candidate sets are left and tests each directly.
# ANDing over every member instead is simpler but slower on random-v16-s7
# (``random_matching_covered(7, 16, 5)``): ``ridges`` 1.73 s against 1.20 s and ``facet_masks``
# 0.21 s against 0.16 s, best of 6 interleaved in-process runs on a shared 2-vCPU Xeon VM.
_NARROW = 16


def _held(face: int, incidence: Sequence[int], sets: Sequence[int], candidates: int) -> bool:
    """Whether one of the sets among ``candidates`` (bit k is ``sets[k]``)
    holds ``face``; ``incidence[i]`` has bit k when ``sets[k]`` holds
    matching i.  The AND of ``incidence`` over the face's members narrows
    the candidates until at most ``_NARROW`` are left, then tested directly,
    as is the lowest one left after the first member, often a holder."""
    maybe = candidates
    if maybe.bit_count() > _NARROW and face:
        digits = bin(face)[:1:-1]  # bit i is character i
        i = digits.find("1")
        maybe &= incidence[i]
        if maybe and not face & ~sets[(maybe & -maybe).bit_length() - 1]:
            return True
        i = digits.find("1", i + 1)
        while i >= 0 and maybe.bit_count() > _NARROW:
            maybe &= incidence[i]
            i = digits.find("1", i + 1)
    while maybe:
        low = maybe & -maybe
        if not face & ~sets[low.bit_length() - 1]:
            return True
        maybe ^= low
    return False


@per_graph
def edge_exposers(g: MultiGraph) -> dict[int, tuple[int, ...]]:
    """Per face of some ``x_e >= 0``, the ids of its exposing edges e, ascending."""
    t = matching_table(g)
    out: dict[int, tuple[int, ...]] = {}
    for eid in sorted(g.edge_ids):
        out[t.avoiding(eid)] = out.get(t.avoiding(eid), ()) + (eid,)
    return out


def _key_order(masks: Iterable[int], width: int) -> list[int]:
    """An antichain's masks in ``Face.key`` order: their bit-reversed values, descending."""
    return sorted(masks, key=lambda f: int(format(f, f"0{width}b")[::-1], 2), reverse=True)


@per_graph
def facet_masks(g: MultiGraph, face: int = -1) -> dict[int, int]:
    """The facets of the face F with mask ``face`` (P(G) by default, -1
    holding every matching), each mapped to its position in ``Face.key``
    order: the inclusion-maximal sets F & c over the faces c of ``x_e >= 0``
    and of the nontrivial odd cuts, save ∅, F and P (exact by the Edmonds
    description; no rank; none for a point F).  Largest first, a candidate
    can be held only by a facet before it."""
    t = matching_table(g)
    candidates = set(edge_exposers(g)).union(f for _, f in shore_faces(g))
    if face != -1:  # F & c is c for F = P: copy no mask there
        candidates = {face & c for c in candidates}
    faces = sorted(candidates - {0, face, t.all_matchings}, key=int.bit_count, reverse=True)
    width = len(t.masks)
    holders = transpose(faces, width)  # bit k: faces[k] holds matching i
    kept, facets = 0, []  # bit k of kept: faces[k] is a facet
    for k, sub in enumerate(faces):
        if not _held(sub, holders, faces, kept):
            kept |= 1 << k
            facets.append(sub)
    return {sub: k for k, sub in enumerate(_key_order(facets, width))}


@per_graph
def facet_incidence(g: MultiGraph) -> tuple[int, ...]:
    """Per matching, the facets holding it (bit k is the k-th facet of
    ``facet_masks``): the transpose of the facet masks."""
    return tuple(transpose(list(facet_masks(g)), len(matching_table(g).masks)))


def _cut_face_class(g: MultiGraph, t: MatchingTable, d: int, shore: tuple[int, ...],
                    face: int) -> tuple[bool, int]:
    """(separating, face dim) of delta(shore), whose face mask is ``face``:
    a tight cut's face is P, of dimension d, and any other face is proper,
    so ``members_dim`` takes d - 1 as its cap."""
    sep = _separates(t, face)
    if face != t.all_matchings:
        return sep, members_dim(g, face, cap=d - 1, shore=shore)
    if not sep:
        raise TheoremFalsified("tight cuts are separating", {
            "shore": list(shore), "boundary": sorted(t.ids[b] for b in _bits(t.cut_mask(shore)))})
    return sep, d


def classify_cut(g: MultiGraph, x: Iterable[int]) -> CutClass:
    """Tight / separating / facet-defining flags plus the cut's face."""
    vs = frozenset(x)
    n = g.vertex_count
    if len(vs) % 2 == 0:
        raise PreconditionViolated("even_shore", "cut classification needs an odd shore")
    if not (1 < len(vs) < n - 1):
        raise PreconditionViolated("trivial_shore", "shore size must satisfy 1 < |X| < |V|-1")
    require_matching_covered(g)
    d = polytope_dim(g)
    cut = make_cut(g, vs)
    t = matching_table(g)
    face = t.face(t.edge_mask(cut.boundary))
    sep, fdim = _cut_face_class(g, t, d, cut.shore, face)
    return CutClass(cut, fdim == d, sep, fdim == d - 1, Face(face, fdim, exposed_by_cuts=(cut,)))


def separating_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Cut]:
    """All separating cuts over canonical nontrivial odd shores, scan order."""
    t = scan_table(g, max_vertices)
    return [_shore_cut(g, t, shore) for shore, face in shore_faces(g) if _separates(t, face)]


def _facet_shores(g: MultiGraph) -> list[tuple[tuple[int, ...], int]]:
    """(shore, face mask) for every canonical nontrivial odd shore whose
    cut face is a facet, in canonical shore order, by maximality
    (``facet_masks``): callers pass the gate, ``matchings.scan_table``, first."""
    polytope_dim(g)  # the brick-count cross-check
    facets = facet_masks(g)
    return [(shore, face) for shore, face in shore_faces(g) if face in facets]


@per_graph
def _facet_walk(g: MultiGraph) -> _Scan:
    """The separating cuts whose face is a facet, in canonical shore order,
    found as far as they are read: each separating shore's face, unless it
    is P, is a facet iff ``members_dim`` with cap d - 1 is d - 1.  The one
    separating-facet walk: ``separating_facet_defining_cuts`` lists it,
    ``is_bvn`` reads its first cut and ``basis._three_crossing_pairs``
    filters it; callers pass the gate, ``matchings.scan_table``, first."""
    t = matching_table(g)
    d = polytope_dim(g)  # the brick-count cross-check, before any cut is read

    def walk() -> Iterator[Cut]:
        for shore, face in shore_faces(g):
            if face != t.all_matchings and _separates(t, face) \
                    and members_dim(g, face, cap=d - 1, shore=shore) == d - 1:
                yield _shore_cut(g, t, shore)

    return _Scan(walk)


def is_bvn(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> tuple[bool, Cut | None]:
    """Birkhoff-von-Neumann test: G is BvN iff no separating cut's face is
    a facet.  On failure the witness is the first such cut in canonical
    shore order, the first cut of the walk (``_facet_walk``), which stops
    there."""
    scan_table(g, max_vertices)
    witness = next(iter(_facet_walk(g)), None)
    return witness is None, witness


def idp_decompose(g: MultiGraph, x: Mapping[int, int], k: int) -> list[PerfectMatching]:
    """Write an integer point of kP as a sum of k perfect matchings.

    Preconditions: x non-negative ints (not bools) with x(delta(v)) = k at
    every vertex, and g Birkhoff-von Neumann.  Each round removes the
    lexicographically first perfect matching inside the support of the
    remainder; failure to find one would falsify the decomposition claim.
    """
    if type(k) is not int or k <= 0:
        raise PreconditionViolated("bad_k", "k must be a positive integer")
    ids = set(g.edge_ids)
    if set(x) - ids:
        raise PreconditionViolated("bad_vector", "vector has unknown edge ids")
    vals = {eid: x.get(eid, 0) for eid in ids}
    if any(type(v) is not int or v < 0 for v in vals.values()):
        raise PreconditionViolated("bad_vector", "vector entries must be non-negative ints")
    deg = [0] * g.vertex_count
    for eid, u, v in g.edges:
        deg[u] += vals[eid]
        deg[v] += vals[eid]
    if any(d != k for d in deg):
        raise PreconditionViolated("bad_vector", f"vertex degrees under x must all equal {k}")
    if not is_bvn(g)[0]:
        raise PreconditionViolated("bvn", "graph is not Birkhoff-von Neumann")

    remaining = dict(vals)
    out: list[PerfectMatching] = []
    for step in range(k):
        support = tuple(e for e in g.edges if remaining[e[0]] >= 1)
        sub = MultiGraph(g.vertex_count, support)
        found = enumerate_perfect_matchings(sub)
        if not found:
            raise TheoremFalsified("no perfect matching inside the support of x", {
                "step": step, "remaining": {str(e): v for e, v in sorted(remaining.items())}})
        m = found[0]
        out.append(m)
        for eid in m.edge_ids:
            remaining[eid] -= 1
    if any(remaining.values()):
        raise TheoremFalsified("decomposition left a nonzero remainder", {
            "remaining": {str(e): v for e, v in sorted(remaining.items())}})
    return out


def separating_facet_defining_cuts(g: MultiGraph,
                                   max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Cut]:
    """Separating cuts whose face is a facet, in canonical shore order: the
    whole facet walk (``_facet_walk``)."""
    scan_table(g, max_vertices)
    return list(_facet_walk(g))


def facet_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Cut]:
    """Cuts whose face is a facet, over canonical nontrivial odd shores, scan order."""
    t = scan_table(g, max_vertices)
    return [_shore_cut(g, t, shore) for shore, _ in _facet_shores(g)]


def _classes(g: MultiGraph, t: MatchingTable, d: int) \
        -> Iterator[tuple[tuple[int, ...], int, int, bool, int]]:
    """(shore, cut edge mask, face mask, separating, face dim) for every
    shore of ``shore_faces``, in its order: the one classification walk of
    ``classify_all_cuts`` and ``CutClassRows``.  The cut is tight iff the
    face dim is d, and facet-defining iff it is d - 1."""
    for shore, face in shore_faces(g):
        cut = t.cut_mask(shore)
        yield (shore, cut, face, *_cut_face_class(g, t, d, shore, face))


def classify_all_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[CutClass]:
    """classify_cut over every canonical nontrivial odd shore, scan order,
    with dim P(G) computed once."""
    t = scan_table(g, max_vertices)
    d = polytope_dim(g)
    out = []
    for shore, _, face, sep, fdim in _classes(g, t, d):
        cut = _shore_cut(g, t, shore)
        out.append(CutClass(cut, fdim == d, sep, fdim == d - 1,
                            Face(face, fdim, exposed_by_cuts=(cut,))))
    return out


_FALSE_TRUE = ("false", "true")


class CutClassRows:
    """The rows of ``cuts classify``: per canonical nontrivial odd shore,
    the dict {"shore", "boundary", "tight", "separating", "facet_defining",
    "face_dim"} of its ``classify_all_cuts`` entry, read from the one
    classification walk (``_classes``) with no Cut, Face or CutClass.
    Iterating gives the dicts; ``json_chunks`` gives their JSON text, as
    ``json.dumps(list(rows), indent=2)`` nests it, 256 rows per chunk,
    each boundary rendered by ``matchings.edge_id_text``.  The gate, dim P
    and the whole face scan run when the rows are made."""

    def __init__(self, g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP):
        self._g, self._t = g, scan_table(g, max_vertices)
        self._d = polytope_dim(g)
        for _ in shore_faces(g):  # so that a scan too big fails before anything is written
            pass

    def __iter__(self) -> Iterator[dict]:
        t, d = self._t, self._d
        for shore, cut, _, sep, fdim in _classes(self._g, t, d):
            yield {"shore": list(shore), "boundary": sorted(t.ids[b] for b in _bits(cut)),
                   "tight": fdim == d, "separating": sep, "facet_defining": fdim == d - 1,
                   "face_dim": fdim}

    def json_chunks(self, pad: str) -> Iterator[str]:
        inner = pad + "  "
        key = inner + "  "
        leaf = key + "  "
        ids = edge_id_text(self._g, leaf)
        vertex = [f",{leaf}{v}" for v in range(self._g.vertex_count)]
        d, chunk, sep = self._d, [], "[" + inner
        for shore, cut, _, separating, fdim in _classes(self._g, self._t, d):
            chunk.append(
                f'{sep}{{{key}"shore": [{"".join(map(vertex.__getitem__, shore))[1:]}{key}],'
                f'{key}"boundary": [{ids(cut)[1:]}{key}],{key}"tight": {_FALSE_TRUE[fdim == d]},'
                f'{key}"separating": {_FALSE_TRUE[separating]},'
                f'{key}"facet_defining": {_FALSE_TRUE[fdim == d - 1]},'
                f'{key}"face_dim": {fdim}{inner}}}')
            sep = "," + inner
            if len(chunk) == 256:
                yield "".join(chunk)
                chunk = []
        yield "".join(chunk) + ("[]" if sep[0] == "[" else pad + "]")


def enumerate_facets(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Face]:
    """All facets, deduplicated by face mask, with their exposers, in
    ``Face.key`` order (the order of ``facet_masks``)."""
    t = scan_table(g, max_vertices)
    d, exposers = polytope_dim(g), edge_exposers(g)
    cuts_for: dict[int, list[Cut]] = {}
    for shore, face in _facet_shores(g):
        cuts_for.setdefault(face, []).append(_shore_cut(g, t, shore))
    return [Face(face, d - 1, exposers.get(face, ()), tuple(cuts_for.get(face, ())))
            for face in facet_masks(g)]


def ridges(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> Iterator[int]:
    """Face masks of the pairwise facet intersections of dimension d-2,
    each once, in facet-pair order: those held by no third facet (the
    diamond property; no rank)."""
    scan_table(g, max_vertices)
    d = polytope_dim(g)
    facets = list(facet_masks(g))
    incidence = facet_incidence(g)
    everyone = (1 << len(facets)) - 1
    seen: set[int] = set()
    for i, fi in enumerate(facets):
        for j in range(i + 1, len(facets)):
            face = fi & facets[j]
            # a (d-2)-face has at least d-1 members
            if face in seen or face.bit_count() < d - 1:
                continue
            if not _held(face, incidence, facets, everyone ^ (1 << i | 1 << j)):
                seen.add(face)
                yield face


def enumerate_codim2_faces(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Face]:
    """Every ridge (``ridges``) in ``Face.key`` order, with the edges whose
    face it is (``edge_exposers``)."""
    width = len(scan_table(g, max_vertices).masks)
    d, exposers = polytope_dim(g), edge_exposers(g)
    return [Face(face, d - 2, exposers.get(face, ()))
            for face in _key_order(ridges(g, max_vertices), width)]


def cuts_equivalent(g: MultiGraph, c1: Cut, c2: Cut) -> bool:
    """Whether every perfect matching meets both cuts equally often."""
    _check_cut(g, c1)
    _check_cut(g, c2)
    t = matching_table(g)
    b1, b2 = t.edge_mask(c1.boundary), t.edge_mask(c2.boundary)
    return all((m & b1).bit_count() == (m & b2).bit_count() for m in t.masks)


class UncrossReport(NamedTuple):
    no_edge_between_differences: bool
    identity_holds: bool
    violating_matchings: tuple[int, ...]
    face_intersection_equal: bool


def uncross(g: MultiGraph, c1: Cut | Iterable[int], c2: Cut | Iterable[int]) -> tuple[Cut, Cut, UncrossReport]:
    """Uncross two crossing odd cuts into delta(X1&X2) and delta(X1|X2).

    Shores are used as given (a Cut contributes its canonical shore).
    Reports whether no edge joins X1-X2 to X2-X1 and whether
    x(C1)+x(C2) = x(I)+x(U) holds on every matching.
    """
    x1 = frozenset(c1.shore) if isinstance(c1, Cut) else frozenset(c1)
    x2 = frozenset(c2.shore) if isinstance(c2, Cut) else frozenset(c2)
    if len(x1) % 2 == 0 or len(x2) % 2 == 0:
        raise PreconditionViolated("even_shore", "uncrossing needs two odd shores")
    inter, union = x1 & x2, x1 | x2
    if not (inter and x1 - x2 and x2 - x1 and shore_complement(g, union)):
        raise PreconditionViolated("not_crossing", "shores do not cross")
    if len(inter) % 2 == 0:
        raise PreconditionViolated("even_intersection", "|X1 & X2| must be odd")
    cut1, cut2 = boundary(g, x1), boundary(g, x2)
    cut_i, cut_u = make_cut(g, inter), make_cut(g, union)
    d1, d2 = x1 - x2, x2 - x1
    no_edge = not any((u in d1 and v in d2) or (u in d2 and v in d1)
                      for _, u, v in g.edges)
    t = matching_table(g)
    b1, b2, bi, bu = (t.edge_mask(c) for c in (cut1, cut2, cut_i.boundary, cut_u.boundary))
    bad = tuple(i for i, m in enumerate(t.masks)
                if (m & b1).bit_count() + (m & b2).bit_count()
                != (m & bi).bit_count() + (m & bu).bit_count())
    faces_equal = t.face(b1) & t.face(b2) == t.face(bi) & t.face(bu)
    return cut_i, cut_u, UncrossReport(no_edge, not bad, bad, faces_equal)
