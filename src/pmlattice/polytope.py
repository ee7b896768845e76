"""Facial analysis of the perfect matching polytope in V-representation.

A face is an int mask over the canonical matching enumeration (bit i is
matching i), never an inequality system: exact, finite, and easy to
deduplicate at desk scale.  Faces intersect by ``&``, and face ``a`` lies
in face ``b`` when ``not a & ~b``.  Masks, incidence rows and crossing
counts come from the graph's table, ``matchings.matching_table``; a
face's dimension is the affine rank of its rows (``members_dim``,
memoized on the mask).
Candidate facet exposers are the edges (``x_e >= 0``) and the nontrivial
odd cuts (``x(C) >= 1``), which suffice by the Edmonds-Johnson
description; the degree equations are the affine hull.  Every scan for
odd cuts whose face is a facet goes through ``_facet_shores``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import PreconditionViolated, TheoremFalsified, VertexCapExceeded
from .graph import (Cut, MultiGraph, boundary, cut_contractions, make_cut,
                    odd_shores, per_graph, shore_complement)
from .linalg import affine_dim
from .matchings import (matching_covered, matching_table,
                        require_matching_covered)

DEFAULT_VERTEX_CAP = 16
DEFAULT_TRIPLE_CAP = 10  # P-TRIPLE's nested-triple exhaustion (verifier)


def check_cap(g: MultiGraph, max_vertices: int) -> None:
    if g.vertex_count > max_vertices:
        raise VertexCapExceeded(g.vertex_count, max_vertices)


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
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    @property
    def member_matchings(self) -> frozenset[int]:
        return frozenset(self.key())


class CutClass(NamedTuple):
    cut: Cut
    is_tight: bool
    is_separating: bool
    is_facet_defining: bool
    face: Face


@per_graph
def dim_by_rank(g: MultiGraph) -> int:
    """Affine dimension of the hull of matching incidence vectors."""
    return affine_dim(matching_table(g).vectors)


def polytope_dim(g: MultiGraph) -> int:
    """dim P(G), exact; cross-checked against |E| - |V| + 1 - b(G)."""
    from .decomposition import brick_count  # decomposition imports this module

    require_matching_covered(g)
    brick_count(g)  # raises TheoremFalsified unless b(G) = |E| - |V| + 1 - dim P(G)
    return dim_by_rank(g)


def cut_face(g: MultiGraph, edge_set: Iterable[int]) -> int:
    """Face mask of the matchings meeting the cut edge set exactly once."""
    t = matching_table(g)
    return t.face(t.edge_mask(edge_set))


@per_graph
def members_dim(g: MultiGraph, face: int) -> int:
    """Affine dimension of the face with mask ``face``."""
    rows = matching_table(g).vectors
    return affine_dim([rows[i] for i in range(face.bit_length()) if face >> i & 1])


@per_graph
def is_separating(g: MultiGraph, shore: tuple[int, ...]) -> bool:
    """Both cut-contractions matching-covered.

    The face-based condition (no x_e >= 0 contains the cut's face) is a
    sound rejector and prunes most shores before the contraction check.
    """
    t = matching_table(g)
    face = t.face(t.cut_mask(shore))
    if not face or not t.covers_all_edges(face):
        return False
    keep_shore, keep_comp = cut_contractions(g, shore)
    return matching_covered(keep_shore) and matching_covered(keep_comp)


def classify_cut(g: MultiGraph, x: Iterable[int]) -> CutClass:
    """Tight / separating / facet-defining flags plus the cut's face."""
    vs = frozenset(x)
    n = g.vertex_count
    if len(vs) % 2 == 0:
        raise PreconditionViolated("even_shore", "cut classification needs an odd shore")
    if not (1 < len(vs) < n - 1):
        raise PreconditionViolated("trivial_shore", "shore size must satisfy 1 < |X| < |V|-1")
    require_matching_covered(g)
    return _classify(g, vs, polytope_dim(g))


def _classify(g: MultiGraph, vs: frozenset[int], d: int) -> CutClass:
    """classify_cut on a checked odd shore of a graph with dim P(G) = d."""
    cut = make_cut(g, vs)
    t = matching_table(g)
    face = t.face(t.edge_mask(cut.boundary))
    fdim = members_dim(g, face)
    tight = face == t.all_matchings
    sep = is_separating(g, cut.shore)
    if tight and not sep:
        raise TheoremFalsified("tight cuts are separating", {
            "shore": list(cut.shore), "boundary": sorted(cut.boundary)})
    return CutClass(cut, tight, sep, fdim == d - 1, Face(face, fdim, exposed_by_cuts=(cut,)))


def separating_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Cut]:
    """All separating cuts over canonical nontrivial odd shores, scan order."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    return [make_cut(g, s) for s in odd_shores(g) if is_separating(g, s)]


def _facet_shores(g: MultiGraph) -> Iterator[tuple[tuple[int, ...], int]]:
    """(shore, face mask) for every canonical nontrivial odd shore whose
    cut face is a facet, in canonical shore order.  The one facet-shore
    scan: callers check matching-coveredness and the vertex cap first."""
    d = polytope_dim(g)
    t = matching_table(g)
    for shore in odd_shores(g):
        face = t.face(t.cut_mask(shore))
        if face and members_dim(g, face) == d - 1:
            yield shore, face


def is_bvn(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> tuple[bool, Cut | None]:
    """Birkhoff-von-Neumann test; returns a separating facet-defining
    witness cut on failure (first in canonical shore order)."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    for shore, _ in _facet_shores(g):
        if is_separating(g, shore):
            return False, make_cut(g, shore)
    return True, None


def separating_facet_defining_cuts(g: MultiGraph,
                                   max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Cut]:
    """Separating cuts whose face is a facet, in canonical shore order."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    return [make_cut(g, shore) for shore, _ in _facet_shores(g) if is_separating(g, shore)]


def classify_all_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[CutClass]:
    """classify_cut over every canonical nontrivial odd shore, scan order;
    dim P(G) is computed once."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    d = polytope_dim(g)
    return [_classify(g, frozenset(shore), d) for shore in odd_shores(g)]


def enumerate_facets(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Face]:
    """All facets, deduplicated by face mask, with their exposers, in
    ``Face.key`` order."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    d = polytope_dim(g)
    t = matching_table(g)
    edges_for: dict[int, list[int]] = {}
    cuts_for: dict[int, list[Cut]] = {}
    for eid in g.edge_ids:
        face = t.avoiding(eid)
        if face and members_dim(g, face) == d - 1:
            edges_for.setdefault(face, []).append(eid)
    for shore, face in _facet_shores(g):
        cuts_for.setdefault(face, []).append(make_cut(g, shore))
    return sorted((Face(face, d - 1, tuple(sorted(edges_for.get(face, ()))),
                        tuple(cuts_for.get(face, ())))
                   for face in set(edges_for) | set(cuts_for)), key=Face.key)


def enumerate_codim2_faces(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Face]:
    """Pairwise facet intersections of dimension d-2, deduplicated.

    Edge exposers are attached where the face is exactly P ∩ {x_e = 0}.
    """
    facets = enumerate_facets(g, max_vertices)
    d = polytope_dim(g)
    t = matching_table(g)
    seen: set[int] = set()
    for i in range(len(facets)):
        for j in range(i + 1, len(facets)):
            face = facets[i].mask & facets[j].mask
            if members_dim(g, face) == d - 2:
                seen.add(face)
    by_edge: dict[int, list[int]] = {}
    for eid in g.edge_ids:
        face = t.avoiding(eid)
        if face in seen:
            by_edge.setdefault(face, []).append(eid)
    return sorted((Face(face, d - 2, tuple(sorted(by_edge.get(face, ())))) for face in seen),
                  key=Face.key)


def cuts_equivalent(g: MultiGraph, c1: Cut, c2: Cut) -> bool:
    """Whether every perfect matching meets both cuts equally often."""
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
