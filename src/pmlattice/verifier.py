"""Runnable property catalog: every auxiliary structural claim the basis
constructions lean on, checked by exhaustion on a concrete graph.

Quantified claims are never sampled; a property either exhausts its domain
within the vertex cap or reports itself skipped.  Failures always carry a
concrete witness so a red property doubles as a refutation certificate.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, NamedTuple

from .decomposition import (barrier_of_tight_cut, brick_count, is_near_brick, parity_sets,
                            tight_cut_decomposition, tight_shores)
from .errors import (DEFAULT_TRIPLE_CAP, DEFAULT_VERTEX_CAP, PreconditionViolated,
                     TheoremFalsified, VertexCapExceeded)
from .graph import (Cut, MultiGraph, contract_shore, cut_contractions, is_bipartite, make_cut,
                    shore_complement, shore_index_map)
from .linalg import lattice_member
from .matchings import matching_covered, matching_table, require_matching_covered, scan_table
from .polytope import (_separates, cuts_equivalent, edge_exposers, enumerate_codim2_faces,
                       enumerate_facets, facet_incidence, facet_masks, is_bvn, members_dim,
                       polytope_dim, ridges, separating_cuts, separating_facet_defining_cuts,
                       shore_faces, uncross)


class PropertyReport(NamedTuple):
    property_id: str
    graph_name: str
    status: str  # "pass" | "fail" | "skipped"
    certificate: dict

    def to_payload(self) -> dict:
        return {"property": self.property_id, "graph": self.graph_name,
                "status": self.status, "certificate": self.certificate}


def _with_faces(g: MultiGraph, cuts: list[Cut]) -> list[tuple[Cut, int]]:
    """Each cut of an odd-shore scan with its face mask, read from the
    scan's own product, ``shore_faces``."""
    face = dict(shore_faces(g))
    return [(cut, face[cut.shore]) for cut in cuts]


def _oriented_pairs(g: MultiGraph, cuts: list[Cut]) \
        -> Iterator[tuple[int, int, frozenset[int], frozenset[int]]]:
    """(i, j, X1, X2) for each pair i < j of ``cuts``: their shores, X2
    complemented when |X1 & X2| is even, so crossing shores meet oddly."""
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            x1, x2 = cuts[i].shore_set, cuts[j].shore_set
            if len(x1 & x2) % 2 == 0:
                x2 = shore_complement(g, x2)
            yield i, j, x1, x2


def _p_dim(g: MultiGraph, cap: int) -> tuple[str, dict]:
    d = polytope_dim(g)  # raises TheoremFalsified unless b = |E| - |V| + 1 - d
    b = brick_count(g)
    return "pass", {"rank_dim": d, "edges": len(g.edges), "vertices": g.vertex_count,
                    "bricks": b, "formula_dim": len(g.edges) - g.vertex_count + 1 - b}


def _p_uncross(g: MultiGraph, cap: int) -> tuple[str, dict]:
    cuts = separating_cuts(g, cap)
    faces = [face for _, face in _with_faces(g, cuts)]
    t = matching_table(g)
    checked = applicable = 0
    for i, j, x1, x2 in _oriented_pairs(g, cuts):
        if not (x1 & x2 and x1 - x2 and x2 - x1 and shore_complement(g, x1 | x2)):
            continue
        checked += 1
        f12 = faces[i] & faces[j]
        if not f12 or not t.covers_all_edges(f12):
            continue
        applicable += 1
        _, _, report = uncross(g, x1, x2)
        if not (report.no_edge_between_differences and report.identity_holds
                and report.face_intersection_equal):
            return "fail", {"shore1": sorted(x1), "shore2": sorted(x2),
                            "no_edge": report.no_edge_between_differences,
                            "identity": report.identity_holds,
                            "faces_equal": report.face_intersection_equal}
    return "pass", {"crossing_pairs": checked, "face_condition_pairs": applicable}


def _face_of_face_exposed(g: MultiGraph, face: int) -> tuple[int, int]:
    """Facets of the face with mask ``face``, by maximality (``facet_masks``):
    (count, how many are ``face & m`` for the face m of an edge)."""
    facets = facet_masks(g, face)
    edge_faces = {face & m for m in edge_exposers(g)}
    return len(facets), sum(1 for sub in facets if sub in edge_faces)


def _p_bvncontract(g: MultiGraph, cap: int) -> tuple[str, dict]:
    applicable = 0
    for cut, face in _with_faces(g, separating_cuts(g, cap)):
        ks, kc = cut_contractions(g, cut.shore_set)
        if not (is_bvn(ks, cap)[0] and is_bvn(kc, cap)[0]):
            continue
        applicable += 1
        total, exposed = _face_of_face_exposed(g, face)
        if total != exposed:
            return "fail", {"shore": list(cut.shore), "facets": total,
                            "edge_exposed": exposed}
    return "pass", {"bvn_bvn_cuts": applicable}


def _p_brickcount(g: MultiGraph, cap: int) -> tuple[str, dict]:
    d = polytope_dim(g)
    b = brick_count(g)
    cuts = separating_cuts(g, cap)
    t = matching_table(g)
    for cut, face in _with_faces(g, cuts):
        codim = 0 if face == t.all_matchings else \
            d - members_dim(g, face, cap=d - 1, shore=cut.shore)
        ks, kc = cut_contractions(g, cut.shore_set)
        if brick_count(ks) + brick_count(kc) != b + codim:
            return "fail", {"shore": list(cut.shore), "codim": codim,
                            "b_sides": [brick_count(ks), brick_count(kc)], "b": b}
    return "pass", {"separating_cuts": len(cuts)}


def _p_nearbrick(g: MultiGraph, cap: int) -> tuple[str, dict]:
    d = polytope_dim(g)
    cuts = separating_cuts(g, cap)
    t = matching_table(g)
    for cut, face in _with_faces(g, cuts):
        fdi = face != t.all_matchings \
            and members_dim(g, face, cap=d - 1, shore=cut.shore) == d - 1
        ks, kc = cut_contractions(g, cut.shore_set)
        both_nb = brick_count(ks) == 1 and brick_count(kc) == 1
        if fdi != both_nb:
            return "fail", {"shore": list(cut.shore), "facet_defining": fdi,
                            "both_near_bricks": both_nb}
    return "pass", {"separating_cuts": len(cuts)}


def _p_barrier(g: MultiGraph, cap: int) -> tuple[str, dict]:
    scan_table(g, cap)
    barriers = []
    for shore in tight_shores(g):
        b = barrier_of_tight_cut(g, make_cut(g, shore))  # raises on structural failure
        barriers.append(sorted(b))
    return "pass", {"tight_cuts": len(barriers), "barriers": barriers}


def _p_fdilift(g: MultiGraph, cap: int) -> tuple[str, dict]:
    t = scan_table(g, cap)
    polytope_dim(g)  # the brick-count cross-check
    lifted = 0
    for cut in (make_cut(g, shore) for shore in tight_shores(g)):
        for x in (cut.shore_set, shore_complement(g, cut.shore_set)):
            keep_x, collapse_x = cut_contractions(g, x)
            if not is_bipartite(collapse_x)[0] or is_bvn(keep_x, cap)[0]:
                continue
            back = {new: old for old, new in shore_index_map(x).items()}
            for dcut in separating_facet_defining_cuts(keep_x, cap):
                side = set(dcut.shore)
                if len(x) in side:
                    side = set(range(keep_x.vertex_count)) - side
                y = frozenset(back[v] for v in side)
                lifted += 1
                face = t.face(t.cut_mask(y))
                if face not in facet_masks(g) or not _separates(t, face):
                    return "fail", {"tight_shore": list(cut.shore), "inner_shore": sorted(y)}
    return "pass", {"lifted_cuts": lifted}


def _bipartite_middle(g: MultiGraph, small: frozenset[int], big: frozenset[int]) -> bool:
    h1 = contract_shore(g, big)
    idx = shore_index_map(big)
    c2 = len(big)
    mapped_small = frozenset(idx[v] for v in small)
    keep = frozenset(range(h1.vertex_count)) - mapped_small
    h2 = contract_shore(h1, keep)
    bip, parts = is_bipartite(h2)
    if not bip or not matching_covered(h2):
        return False
    c1_new = len(keep)
    c2_new = shore_index_map(keep)[c2]
    return (c1_new in parts[0]) != (c2_new in parts[0])


def _p_equiv(g: MultiGraph, cap: int) -> tuple[str, dict]:
    groups: dict[int, list[Cut]] = {}
    for cut, face in _with_faces(g, separating_facet_defining_cuts(g, cap)):
        groups.setdefault(face, []).append(cut)
    pairs = nested = 0
    for cuts in groups.values():
        for i, j, x1, x2 in _oriented_pairs(g, cuts):
            pairs += 1
            if not cuts_equivalent(g, cuts[i], cuts[j]):
                return "fail", {"shore1": sorted(x1), "shore2": sorted(x2),
                                "reason": "same-facet cuts not equivalent"}
            if x1 < x2 or x2 < x1:
                nested += 1
                small, big = (x1, x2) if x1 < x2 else (x2, x1)
                if not _bipartite_middle(g, small, big):
                    return "fail", {"small": sorted(small), "big": sorted(big),
                                    "reason": "middle contraction not bipartite with "
                                              "contraction vertices on opposite sides"}
    return "pass", {"same_facet_pairs": pairs, "nested_pairs": nested}


def _p_triple(g: MultiGraph, cap: int) -> tuple[str, dict]:
    table = scan_table(g, cap)
    n = g.vertex_count
    full_vertices = (1 << n) - 1
    odd_masks = [m for m in range(1, full_vertices)
                 if bin(m).count("1") % 2 == 1]
    faces = {m: table.face(table.cut_mask(v for v in range(n) if m >> v & 1)) for m in odd_masks}
    checked = 0
    for m2 in odd_masks:
        comp = full_vertices ^ m2
        # odd proper nonempty submasks of m2 (the X1 candidates)
        x1s = []
        s = (m2 - 1) & m2
        while s:
            if bin(s).count("1") % 2 == 1:
                x1s.append(s)
            s = (s - 1) & m2
        # odd proper supersets of m2 (the X3 candidates)
        x3s = []
        t = (comp - 1) & comp
        while t:
            if bin(m2 | t).count("1") % 2 == 1:
                x3s.append(m2 | t)
            t = (t - 1) & comp
        if not x1s or not x3s:
            continue
        f2 = faces[m2]
        for m1 in x1s:
            f1 = faces[m1]
            f21 = f2 & f1
            for m3 in x3s:
                # canonical representative under complement-reversal
                if (m1, m2, m3) > (full_vertices ^ m3, full_vertices ^ m2,
                                   full_vertices ^ m1):
                    continue
                checked += 1
                f3 = faces[m3]
                f23 = f2 & f3
                if f21 != f23 or not f23:
                    continue
                if not (f2 & ~f1) and not (f2 & ~f3):
                    continue
                if table.covers_all_edges(f23):
                    return "fail", {
                        "x1": [v for v in range(n) if (m1 >> v) & 1],
                        "x2": [v for v in range(n) if (m2 >> v) & 1],
                        "x3": [v for v in range(n) if (m3 >> v) & 1]}
    return "pass", {"canonical_triples": checked}


def _p_lemma(g: MultiGraph, cap: int) -> tuple[str, dict]:
    if any(face not in edge_exposers(g) for face in ridges(g, cap)):
        return "pass", {"vacuous": "a codim-2 face is not edge-exposed"}
    if g.vertex_count > 10:
        return "fail", {"reason": "premise holds but |V| > 10",
                        "vertices": g.vertex_count}
    if tight_cut_decomposition(g).leaf_label == "petersen_brick":
        return "pass", {"branch": "petersen", "vertices": g.vertex_count}
    if is_bvn(g, cap)[0]:
        return "pass", {"branch": "bvn", "vertices": g.vertex_count}
    from .basis import find_intersection_pair

    pair = find_intersection_pair(g, cap)  # raises TheoremFalsified on exhaustion
    return "pass", {"branch": "three_intersection", "shore": list(pair.cut.shore),
                    "matching": sorted(pair.matching.edge_ids)}


def _p_lemma_count(g: MultiGraph, cap: int) -> tuple[str, dict]:
    d = polytope_dim(g)
    if d < 2:
        return "pass", {"vacuous": "dimension below 2"}
    facets = enumerate_facets(g, cap)
    codim2 = enumerate_codim2_faces(g, cap)
    f, t, e = len(facets), len(codim2), len(g.edges)
    # every codim-2 face lies in exactly two facets, which are adjacent
    incidence = facet_incidence(g)  # bit k: facets[k] holds the matching
    partners = [0] * f  # bit k: facets[k] meets this facet in a codim-2 face
    for face in codim2:
        owners = (1 << f) - 1
        for i in face.key():
            owners &= incidence[i]
        if owners.bit_count() != 2:
            return "fail", {"reason": "codim-2 face not in exactly two facets",
                            "members": list(face.key()), "owners": owners.bit_count()}
        i, j = (owners & -owners).bit_length() - 1, owners.bit_length() - 1
        partners[i] |= 1 << j
        partners[j] |= 1 << i
    # facets and codim-2 faces are found without rank; rank confirms them, up
    # to the cap that a proper face of P (of a facet) has: d - 1 (d - 2)
    for face, want in [(fc, d - 1) for fc in facets] + [(r, d - 2) for r in codim2]:
        got = members_dim(g, face.mask, cap=want)
        if got != want:
            return "fail", {"reason": "face dimension by rank", "members": list(face.key()),
                            "dim": got, "expected": want}
    adjacency = [p.bit_count() for p in partners]
    cert = {"edges": e, "t": t, "f": f, "d": d,
            "min_facet_adjacency": min(adjacency) if adjacency else 0}
    if f < d + 1 or 2 * t < f * d or (adjacency and min(adjacency) < d):
        return "fail", cert
    premise = all(face.exposed_by_edges for face in codim2)
    cert["premise_all_codim2_edge_exposed"] = premise
    if premise and not (e >= t and 2 * t >= f * d and f * d >= 2 * comb(d + 1, 2)):
        return "fail", cert
    return "pass", cert


def _p_2x(g: MultiGraph, cap: int) -> tuple[str, dict]:
    from .basis import matching_lattice, matching_saturation

    psets = parity_sets(g)
    if not psets:
        return "pass", {"vacuous": "no Petersen brick"}
    lat = matching_lattice(g)
    sat = matching_saturation(g)
    for row in sat.basis:
        if lattice_member(lat, [2 * x for x in row]) is None:
            return "fail", {"vector": list(row)}
    return "pass", {"saturation_rank": sat.rank, "parity_sets": len(psets)}


_CHECKS = {
    "P-DIM": _p_dim,
    "P-UNCROSS": _p_uncross,
    "P-BVNCONTRACT": _p_bvncontract,
    "P-BRICKCOUNT": _p_brickcount,
    "P-NEARBRICK": _p_nearbrick,
    "P-BARRIER": _p_barrier,
    "P-FDILIFT": _p_fdilift,
    "P-EQUIV": _p_equiv,
    "P-TRIPLE": _p_triple,
    "P-LEMMA": _p_lemma,
    "P-LEMMA-COUNT": _p_lemma_count,
    "P-2X": _p_2x,
}

PROPERTY_IDS: tuple[str, ...] = tuple(_CHECKS)


def _is_brick(g: MultiGraph) -> bool:
    return tight_cut_decomposition(g).is_leaf and is_near_brick(g)


# a property whose premise fails on g holds vacuously, with this reason
_DOMAINS = {
    **dict.fromkeys(("P-NEARBRICK", "P-BARRIER", "P-FDILIFT", "P-EQUIV"),
                    (is_near_brick, "not a near-brick")),
    **dict.fromkeys(("P-LEMMA", "P-LEMMA-COUNT"), (_is_brick, "not a brick")),
}


def verify_property(g: MultiGraph, property_id: str, graph_name: str = "graph",
                    max_vertices: int = DEFAULT_VERTEX_CAP,
                    triple_cap: int = DEFAULT_TRIPLE_CAP) -> PropertyReport:
    """Run one catalog property; unknown ids raise, caps produce skips."""
    if property_id not in _CHECKS:
        raise PreconditionViolated("unknown_property", f"unknown property {property_id!r}")
    require_matching_covered(g)
    cap = triple_cap if property_id == "P-TRIPLE" else max_vertices
    domain = _DOMAINS.get(property_id)
    try:
        if domain and not domain[0](g):
            status, cert = "pass", {"vacuous": domain[1]}
        else:
            status, cert = _CHECKS[property_id](g, cap)
    except VertexCapExceeded as exc:
        return PropertyReport(property_id, graph_name, "skipped",
                              {"cap": exc.cap, "vertices": exc.vertices})
    except TheoremFalsified as exc:
        return PropertyReport(property_id, graph_name, "fail",
                              {"claim": exc.claim, **exc.certificate})
    return PropertyReport(property_id, graph_name, status, cert)


def verify_all(g: MultiGraph, graph_name: str = "graph",
               max_vertices: int = DEFAULT_VERTEX_CAP,
               triple_cap: int = DEFAULT_TRIPLE_CAP) -> list[PropertyReport]:
    return [verify_property(g, pid, graph_name, max_vertices, triple_cap)
            for pid in PROPERTY_IDS]
