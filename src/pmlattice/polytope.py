"""Facial analysis of the perfect matching polytope in V-representation.

Faces are handled as sets of matching indices into the canonical matching
enumeration, never as inequality systems: exact, finite, and easy to
deduplicate at desk scale.  Membership and cut-equivalence queries are
answered from the graph's bitmask table, ``matchings.matching_table``.
Candidate facet exposers are the edges (``x_e >= 0``) and the nontrivial
odd cuts (``x(C) >= 1``), which suffice by the Edmonds-Johnson
description; the degree equations are the affine hull.  Every scan for
odd cuts whose face is a facet goes through ``_facet_shores``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PreconditionViolated, TheoremFalsified, VertexCapExceeded
from .graph import (Cut, MultiGraph, boundary, cut_contractions, make_cut,
                    odd_shores, per_graph, shore_complement)
from .linalg import affine_dim
from .matchings import (enumerate_perfect_matchings, incidence_vectors,
                        matching_covered, matching_table,
                        require_matching_covered)

DEFAULT_VERTEX_CAP = 16


def check_cap(g: MultiGraph, max_vertices: int) -> None:
    if g.vertex_count > max_vertices:
        raise VertexCapExceeded(g.vertex_count, max_vertices)


@dataclass(frozen=True)
class Face:
    """A face of P(G) as the set of matchings lying on it.

    ``dim`` is the exact affine dimension (-1 for the empty face);
    ``exposed_by_edges`` / ``exposed_by_cuts`` record every scanned
    exposer whose face this is.
    """

    member_matchings: frozenset[int]
    dim: int
    exposed_by_edges: tuple[int, ...] = ()
    exposed_by_cuts: tuple[Cut, ...] = ()

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.member_matchings))


@dataclass(frozen=True)
class CutClass:
    cut: Cut
    is_tight: bool
    is_separating: bool
    is_facet_defining: bool
    face: Face


@per_graph
def dim_by_rank(g: MultiGraph) -> int:
    """Affine dimension of the hull of matching incidence vectors."""
    return affine_dim(incidence_vectors(g, enumerate_perfect_matchings(g)))


def polytope_dim(g: MultiGraph) -> int:
    """dim P(G), exact; cross-checked against |E| - |V| + 1 - b(G)."""
    from .decomposition import brick_count  # decomposition imports this module

    require_matching_covered(g)
    brick_count(g)  # raises TheoremFalsified unless b(G) = |E| - |V| + 1 - dim P(G)
    return dim_by_rank(g)


def face_members(g: MultiGraph, edge_set: frozenset[int]) -> frozenset[int]:
    """Indices of matchings meeting the cut edge set exactly once."""
    t = matching_table(g)
    return t.members(t.face(t.edge_mask(edge_set)))


def edge_face_members(g: MultiGraph, eid: int) -> frozenset[int]:
    """Indices of matchings avoiding the edge (the face of x_e >= 0)."""
    t = matching_table(g)
    return t.members(t.avoiding(eid))


@per_graph
def members_dim(g: MultiGraph, members: frozenset[int]) -> int:
    ms = enumerate_perfect_matchings(g)
    return affine_dim([ms[i].incidence_on(g) for i in sorted(members)])


def face_covers_all_edges(g: MultiGraph, members: frozenset[int]) -> bool:
    """Whether no inequality x_e >= 0 contains the face (every edge used)."""
    return matching_table(g).covers_all_edges(sum(1 << i for i in members))


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
    cut = make_cut(g, vs)
    ms = enumerate_perfect_matchings(g)
    members = face_members(g, cut.boundary)
    d = polytope_dim(g)
    fdim = members_dim(g, members)
    face = Face(members, fdim, exposed_by_cuts=(cut,))
    tight = len(members) == len(ms)
    sep = is_separating(g, cut.shore)
    if tight and not sep:
        raise TheoremFalsified("tight cuts are separating", {
            "shore": list(cut.shore), "boundary": sorted(cut.boundary)})
    return CutClass(cut, tight, sep, fdim == d - 1, face)


def separating_cuts(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Cut]:
    """All separating cuts over canonical nontrivial odd shores, scan order."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    return [make_cut(g, s) for s in odd_shores(g) if is_separating(g, s)]


def _facet_shores(g: MultiGraph) -> Iterator[tuple[tuple[int, ...], frozenset[int]]]:
    """(shore, members) for every canonical nontrivial odd shore whose cut
    face is a facet, in canonical shore order.  The one facet-shore scan:
    callers check matching-coveredness and the vertex cap first."""
    d = polytope_dim(g)
    t = matching_table(g)
    for shore in odd_shores(g):
        members = t.members(t.face(t.cut_mask(shore)))
        if members and members_dim(g, members) == d - 1:
            yield shore, members


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
    """classify_cut over every canonical nontrivial odd shore, scan order."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    return [classify_cut(g, frozenset(shore)) for shore in odd_shores(g)]


def enumerate_facets(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Face]:
    """All facets, deduplicated by member set, with their exposers."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    d = polytope_dim(g)
    edges_for: dict[frozenset[int], list[int]] = {}
    cuts_for: dict[frozenset[int], list[Cut]] = {}
    for eid in g.edge_ids:
        members = edge_face_members(g, eid)
        if members and members_dim(g, members) == d - 1:
            edges_for.setdefault(members, []).append(eid)
    for shore, members in _facet_shores(g):
        cuts_for.setdefault(members, []).append(make_cut(g, shore))
    out = []
    for members in sorted(set(edges_for) | set(cuts_for), key=sorted):
        out.append(Face(members, d - 1,
                        tuple(sorted(edges_for.get(members, ()))),
                        tuple(cuts_for.get(members, ()))))
    return out


def enumerate_codim2_faces(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> list[Face]:
    """Pairwise facet intersections of dimension d-2, deduplicated.

    Edge exposers are attached where the face is exactly P ∩ {x_e = 0}.
    """
    facets = enumerate_facets(g, max_vertices)
    d = polytope_dim(g)
    seen: dict[frozenset[int], None] = {}
    for i in range(len(facets)):
        for j in range(i + 1, len(facets)):
            members = facets[i].member_matchings & facets[j].member_matchings
            if members_dim(g, members) == d - 2:
                seen.setdefault(members)
    by_edge: dict[frozenset[int], list[int]] = {}
    for eid in g.edge_ids:
        members = edge_face_members(g, eid)
        if members in seen:
            by_edge.setdefault(members, []).append(eid)
    return [Face(members, d - 2, tuple(sorted(by_edge.get(members, ()))))
            for members in sorted(seen, key=sorted)]


def cuts_equivalent(g: MultiGraph, c1: Cut, c2: Cut) -> bool:
    """Whether every perfect matching meets both cuts equally often."""
    t = matching_table(g)
    b1, b2 = t.edge_mask(c1.boundary), t.edge_mask(c2.boundary)
    return all((m & b1).bit_count() == (m & b2).bit_count() for m in t.masks)


@dataclass(frozen=True)
class UncrossReport:
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
    ms = enumerate_perfect_matchings(g)
    bad = tuple(i for i, m in enumerate(ms)
                if len(m.edge_ids & cut1) + len(m.edge_ids & cut2)
                != len(m.edge_ids & cut_i.boundary) + len(m.edge_ids & cut_u.boundary))
    f12 = face_members(g, cut1) & face_members(g, cut2)
    fiu = face_members(g, cut_i.boundary) & face_members(g, cut_u.boundary)
    return cut_i, cut_u, UncrossReport(no_edge, not bad, bad, f12 == fiu)
