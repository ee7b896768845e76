"""Facial analysis of the perfect matching polytope in V-representation.

A face is an int mask over the canonical matching enumeration (bit i is
matching i), never an inequality system: exact, finite, and easy to
deduplicate at desk scale.  Faces intersect by ``&``, and face ``a`` lies
in face ``b`` when ``not a & ~b``.  Masks, incidence rows and crossing
counts come from the graph's table, ``matchings.matching_table``; the face
of every canonical nontrivial odd shore is computed once per graph
(``shore_faces``) and every odd-shore scan reads it, each scan behind the
one gate, ``matchings.scan_table`` (matching-covered, then the vertex cap).

The facial structure is read from face masks through three identities,
with no rank:

- Facets (``facet_masks``).  P(G) is described by ``x_e >= 0``, the degree
  equations and ``x(C) >= 1`` for the nontrivial odd cuts C (Edmonds 1965).
  Every facet is the face of one of those inequalities and every proper
  face lies in a facet, so the facets are the inclusion-maximal faces of
  the edges and odd cuts, once the empty face and P are set aside.
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

Dimension is computed by rank only where a dimension is reported or
verified.  dim P(G) (``polytope_dim``) is read from its certificate,
``decomposition.spanning_matchings``; a face's dimension (``members_dim``,
memoized on the mask) is the rank of its rows, for the face dimensions of
``classify_all_cuts`` that are not a facet's or P's and for the
verifier's checks.  A BvN graph's integer points of kP are sums of k
perfect matchings (``idp_decompose``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .decomposition import spanning_matchings
from .errors import DEFAULT_VERTEX_CAP, PreconditionViolated, TheoremFalsified
from .graph import (Cut, MultiGraph, _check_cut, _proper_shore, boundary, make_cut, odd_shores,
                    per_graph, shore_complement)
from .linalg import rank
from .matchings import (MatchingTable, PerfectMatching, enumerate_perfect_matchings,
                        matching_table, require_matching_covered, scan_table)


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


@per_graph
def members_dim(g: MultiGraph, face: int) -> int:
    """Affine dimension of the face with mask ``face``: one less than the
    rank of its matching rows, which lie off the origin in the affine
    hyperplane x(delta(v)) = 1."""
    if face.bit_count() <= 2:  # no, one or two distinct points
        return face.bit_count() - 1
    t = matching_table(g)
    return rank([t.row(t.masks[i]) for i in _bits(face)]) - 1


@per_graph
def shore_faces(g: MultiGraph) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(shore, face mask of its cut) for every canonical nontrivial odd
    shore, in ``odd_shores`` order: the one odd-shore face scan."""
    t = matching_table(g)
    return tuple((shore, t.face(t.cut_mask(shore))) for shore in odd_shores(g))


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


# ``_held`` stops ANDing once this few candidate sets are left and tests
# each with one subset test: a face held by several sets would otherwise be
# ANDed over all of its members.  ANDing over every member instead (stopping
# only when no candidate is left), with no subset test, is simpler but
# slower: on random-v16-s7 (``random_matching_covered(7, 16, 5)``), best of
# 6 interleaved in-process runs on a shared 2-vCPU VM (2.1 GHz Xeon),
# ``ridges`` took 2.12 s against 1.37 s and ``facet_masks`` 0.23 s against
# 0.18 s.
_NARROW = 16


def _held(face: int, incidence: Sequence[int], sets: Sequence[int], candidates: int) -> bool:
    """Whether one of the sets among ``candidates`` (bit k is ``sets[k]``)
    holds ``face``; ``incidence[i]`` has bit k when ``sets[k]`` holds
    matching i.  The AND of ``incidence`` over the face's members narrows
    the candidates until at most ``_NARROW`` are left, and those are tested
    directly."""
    maybe = candidates
    if maybe.bit_count() > _NARROW:
        digits = bin(face)[:1:-1]  # bit i is character i
        i = digits.find("1")
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
def facet_masks(g: MultiGraph) -> dict[int, int]:
    """The facets of P(G) as face masks, each mapped to its position in
    ``Face.key`` order: the inclusion-maximal faces of ``x_e >= 0`` and of
    the nontrivial odd cuts, without the empty face and P (exact by the
    Edmonds description; no rank)."""
    t = matching_table(g)
    candidates = {t.avoiding(eid) for eid in g.edge_ids}.union(f for _, f in shore_faces(g))
    candidates -= {0, t.all_matchings}
    # a face strictly inside a facet has fewer members, so the facets come first
    kept: list[int] = []
    holders = [0] * len(t.masks)  # bit k: kept[k] holds matching i
    for face in sorted(candidates, key=int.bit_count, reverse=True):
        if not _held(face, holders, kept, (1 << len(kept)) - 1):
            for i in _bits(face):
                holders[i] |= 1 << len(kept)
            kept.append(face)
    kept.sort(key=_bits)
    return {face: k for k, face in enumerate(kept)}


@per_graph
def facet_incidence(g: MultiGraph) -> tuple[int, ...]:
    """Per matching, the facets holding it (bit k is the k-th facet of
    ``facet_masks``): the transpose of the facet masks."""
    rows = [0] * len(matching_table(g).masks)
    for face, k in facet_masks(g).items():
        for i in _bits(face):
            rows[i] |= 1 << k
    return tuple(rows)


def _cut_class(t: MatchingTable, cut: Cut, face: int, fdim: int, d: int) -> CutClass:
    tight = face == t.all_matchings
    sep = _separates(t, face)
    if tight and not sep:
        raise TheoremFalsified("tight cuts are separating", {
            "shore": list(cut.shore), "boundary": sorted(cut.boundary)})
    return CutClass(cut, tight, sep, fdim == d - 1, Face(face, fdim, exposed_by_cuts=(cut,)))


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
    return _cut_class(t, cut, face, members_dim(g, face), d)


def separating_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Cut]:
    """All separating cuts over canonical nontrivial odd shores, scan order."""
    t = scan_table(g, max_vertices)
    return [_shore_cut(g, t, shore) for shore, face in shore_faces(g) if _separates(t, face)]


def _facet_shores(g: MultiGraph) -> list[tuple[tuple[int, ...], int]]:
    """(shore, face mask) for every canonical nontrivial odd shore whose
    cut face is a facet, in canonical shore order.  The one facet-shore
    scan: callers pass the gate, ``matchings.scan_table``, first."""
    polytope_dim(g)  # the brick-count cross-check
    facets = facet_masks(g)
    return [(shore, face) for shore, face in shore_faces(g) if face in facets]


def is_bvn(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> tuple[bool, Cut | None]:
    """Birkhoff-von-Neumann test; returns a separating facet-defining
    witness cut on failure (first in canonical shore order)."""
    witness = next(iter(separating_facet_defining_cuts(g, max_vertices)), None)
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
    """Separating cuts whose face is a facet, in canonical shore order."""
    t = scan_table(g, max_vertices)
    return [_shore_cut(g, t, shore) for shore, face in _facet_shores(g) if _separates(t, face)]


def facet_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Cut]:
    """Cuts whose face is a facet, over canonical nontrivial odd shores, scan order."""
    t = scan_table(g, max_vertices)
    return [_shore_cut(g, t, shore) for shore, _ in _facet_shores(g)]


def classify_all_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[CutClass]:
    """classify_cut over every canonical nontrivial odd shore, scan order.
    dim P(G) is computed once, and a face is ranked only when it is
    neither a facet (d-1) nor P (d)."""
    t = scan_table(g, max_vertices)
    d = polytope_dim(g)
    facets = facet_masks(g)
    out = []
    for shore, face in shore_faces(g):
        fdim = d - 1 if face in facets else d if face == t.all_matchings else members_dim(g, face)
        out.append(_cut_class(t, _shore_cut(g, t, shore), face, fdim, d))
    return out


def enumerate_facets(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Face]:
    """All facets, deduplicated by face mask, with their exposers, in
    ``Face.key`` order (the order of ``facet_masks``)."""
    t = scan_table(g, max_vertices)
    d = polytope_dim(g)
    facets = facet_masks(g)
    edges_for: dict[int, list[int]] = {}
    cuts_for: dict[int, list[Cut]] = {}
    for eid in g.edge_ids:
        face = t.avoiding(eid)
        if face in facets:
            edges_for.setdefault(face, []).append(eid)
    for shore, face in _facet_shores(g):
        cuts_for.setdefault(face, []).append(_shore_cut(g, t, shore))
    return [Face(face, d - 1, tuple(sorted(edges_for.get(face, ()))), tuple(cuts_for.get(face, ())))
            for face in facets]


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
    """Every ridge (``ridges``), in ``Face.key`` order.

    Edge exposers are attached where the face is exactly P ∩ {x_e = 0}.
    """
    seen = set(ridges(g, max_vertices))
    d = polytope_dim(g)
    t = matching_table(g)
    by_edge: dict[int, list[int]] = {}
    for eid in g.edge_ids:
        face = t.avoiding(eid)
        if face in seen:
            by_edge.setdefault(face, []).append(eid)
    return sorted((Face(face, d - 2, tuple(sorted(by_edge.get(face, ())))) for face in seen),
                  key=Face.key)


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
