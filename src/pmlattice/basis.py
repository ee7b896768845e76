"""Basis construction: the merger (composition) operation across separating
cuts with exact coefficient transfer, the search for a matching meeting a
separating facet-defining cut three times, bases for near-bricks with a
Petersen brick, and the integral / lattice basis constructions with their
mod-2 characterization of the matching lattice.

One scan over the separating facet-defining cuts in canonical order finds
the three-crossing pairs: ``intersect`` and P-LEMMA take its first pair,
the brick step of the integral basis its first pair with Petersen-free
sides.

Everything here returns perfect matchings only; the integer span checks at
the end of each construction are part of the contract, not optional
debugging.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .decomposition import (DecompTree, brick_count, canonical_parity_cycle, find_tight_cut,
                            parity_sets, spanning_matchings, tight_cut_decomposition)
from .errors import DEFAULT_VERTEX_CAP, PreconditionViolated, TheoremFalsified
from .graph import (Cut, MultiGraph, _check_cut, boundary, cut_contractions, five_cycles,
                    is_petersen, per_graph, simplify)
from .linalg import (Echelon, Lattice, hnf, lattice_equal, lattice_index, lattice_member,
                     rank, saturation)
from .matchings import (PerfectMatching, _is_perfect_matching_of,
                        enumerate_perfect_matchings, incidence_vectors,
                        matching_table, require_matching_covered, spread_order)
from .polytope import (is_bvn, is_separating, polytope_dim,
                       separating_facet_defining_cuts)

if TYPE_CHECKING:
    from fractions import Fraction


class Basis(NamedTuple):
    """An ordered list of matching incidence vectors forming a basis.

    ``kind`` records the strongest verified property: "linear" (a basis of
    lin(P)), "lattice" (integer span is the matching lattice), "integral"
    (integer span is all integer points of lin(P)).
    """

    graph: MultiGraph
    elements: tuple[PerfectMatching, ...]
    kind: str

    def vectors(self) -> list[tuple[int, ...]]:
        return incidence_vectors(self.graph, self.elements)


def _validate_side_basis(b: Basis) -> None:
    if b.kind not in ("linear", "lattice", "integral"):
        raise PreconditionViolated("bad_basis", f"unknown basis kind {b.kind!r}")
    expected = polytope_dim(b.graph) + 1
    if len(b.elements) != expected:
        raise PreconditionViolated(
            "bad_basis", f"basis has {len(b.elements)} elements, needs 1+dim = {expected}")
    for m in b.elements:
        if not _is_perfect_matching_of(b.graph, m.edge_ids):
            raise PreconditionViolated("bad_basis", "element is not a perfect matching of its graph")
    if rank(b.vectors()) != len(b.elements):
        raise PreconditionViolated("bad_basis", "basis elements are linearly dependent")


def pm_linear_basis(g: MultiGraph) -> Basis:
    """Greedy linear basis of lin(P(G)) from the matching enumeration."""
    require_matching_covered(g)
    t = matching_table(g)
    d = polytope_dim(g)
    raised = Echelon(len(g.edges)).extend(map(t.row, t.masks), d + 1)
    picked = [enumerate_perfect_matchings(g)[i] for i in raised]
    if len(picked) != d + 1:
        raise TheoremFalsified("matchings span lin(P(G))", {
            "picked": len(picked), "dim": d})
    return Basis(g, tuple(picked), "linear")


class MergeContext(NamedTuple):
    """Everything needed to transfer coefficients through a merge."""

    graph: MultiGraph
    cut: Cut
    b1: Basis
    b2: Basis
    cut_edges: tuple[int, ...]
    i_orders: tuple[tuple[int, ...], ...]  # aligned with cut_edges
    j_orders: tuple[tuple[int, ...], ...]
    elements: tuple[PerfectMatching, ...]  # the merged basis, in output order


class MergeResult(NamedTuple):
    basis: Basis
    zstar: int | None
    context: MergeContext


def _missing_edges(g: MultiGraph, matchings: Iterable[PerfectMatching]) -> list[int]:
    """Sorted ids of the edges of g that none of ``matchings`` uses."""
    missing = set(g.edge_ids)
    for m in matchings:
        missing -= m.edge_ids
    return sorted(missing)


def _only_cut_edge(m: PerfectMatching, cut_boundary: frozenset[int]) -> int:
    through = m.edge_ids & cut_boundary
    if len(through) != 1:
        raise PreconditionViolated("bad_basis", "contraction matching must use exactly one cut edge")
    return next(iter(through))


def merge_bases(g: MultiGraph, cut: Cut, b1: Basis, b2: Basis,
                pin: int | PerfectMatching | None = None) -> MergeResult:
    """Compose bases of the two cut-contractions into a basis of the cut's
    face, pairing elements through shared cut edges.

    For each cut edge e, with I_e / J_e the element indices using e, the
    outputs are b1[i_1] composed with every b2[j_t], then every further
    b1[i_{1+t}] composed with b2[j_1]; sizes obey |B| = |B1| + |B2| - |C|.
    A pinned b1 element is reindexed out of the i_1 slot of its cut edge so
    that it appears in exactly one output (returned as ``zstar``); this
    requires the unpinned part of b1 to avoid no edge of its graph.
    """
    _check_cut(g, cut)
    if not is_separating(g, cut.shore):
        raise PreconditionViolated("not_separating", "merge needs a separating cut")
    keep_shore, keep_comp = cut_contractions(g, cut.shore_set)
    if {b1.graph, b2.graph} != {keep_shore, keep_comp}:
        raise PreconditionViolated("bad_basis", "bases do not match the two cut-contractions")
    _validate_side_basis(b1)
    _validate_side_basis(b2)

    cut_edges = tuple(sorted(cut.boundary))
    used1 = [_only_cut_edge(m, cut.boundary) for m in b1.elements]
    used2 = [_only_cut_edge(m, cut.boundary) for m in b2.elements]
    i_sets = {e: [i for i, ue in enumerate(used1) if ue == e] for e in cut_edges}
    j_sets = {e: [j for j, ue in enumerate(used2) if ue == e] for e in cut_edges}
    for e in cut_edges:
        if not i_sets[e] or not j_sets[e]:
            raise PreconditionViolated("bad_basis", f"no basis element uses cut edge {e}")

    pin_idx: int | None = None
    if pin is not None:
        if type(pin) is int and 0 <= pin < len(b1.elements):  # bools are not indices
            pin_idx = pin
        elif isinstance(pin, PerfectMatching) and pin in b1.elements:
            pin_idx = b1.elements.index(pin)
        else:
            raise PreconditionViolated("bad_pin", "pin is neither an index of b1 nor one of its elements")
        if _missing_edges(b1.graph, (m for i, m in enumerate(b1.elements) if i != pin_idx)):
            raise PreconditionViolated(
                "bad_pin", "b1 minus the pin must avoid no edge of its contraction")
        pe = used1[pin_idx]
        others = [i for i in i_sets[pe] if i != pin_idx]
        if not others:
            raise PreconditionViolated("bad_pin", "pin's cut edge is used by no other element")
        head = others[0]  # least non-pin index; i_sets[pe] is ascending
        i_sets[pe] = [head] + [i for i in i_sets[pe] if i != head]

    elements: list[PerfectMatching] = []
    zstar: int | None = None
    for e in cut_edges:
        i_order, j_order = i_sets[e], j_sets[e]
        head = b1.elements[i_order[0]]
        for j in j_order:
            elements.append(PerfectMatching(head.edge_ids | b2.elements[j].edge_ids))
        for t in range(1, len(i_order)):
            z = PerfectMatching(b1.elements[i_order[t]].edge_ids | b2.elements[j_order[0]].edge_ids)
            if pin_idx is not None and i_order[t] == pin_idx:
                zstar = len(elements)
            elements.append(z)

    expected = len(b1.elements) + len(b2.elements) - len(cut.boundary)
    if len(elements) != expected:
        raise TheoremFalsified("merged basis size |B1|+|B2|-|C|", {
            "size": len(elements), "expected": expected})
    for z in elements:
        if not _is_perfect_matching_of(g, z.edge_ids) or len(z.edge_ids & cut.boundary) != 1:
            raise TheoremFalsified("merged elements lie in the cut's face", {
                "element": sorted(z.edge_ids)})
    vecs = incidence_vectors(g, elements)
    if rank(vecs) != len(elements):
        raise TheoremFalsified("merged basis is linearly independent", {
            "size": len(elements), "rank": rank(vecs)})
    if pin_idx is not None:
        pin_m = b1.elements[pin_idx]
        hits = [i for i, z in enumerate(elements) if pin_m.edge_ids <= z.edge_ids]
        if hits != [zstar]:
            raise TheoremFalsified("pinned element occurs in exactly one output", {
                "hits": hits, "zstar": zstar})
        missing = _missing_edges(g, (z for i, z in enumerate(elements) if i != zstar))
        if missing:
            raise TheoremFalsified("outputs minus the pinned one avoid no edge", {
                "missing": missing})

    kind = b1.kind if b1.kind == b2.kind else "linear"
    ctx = MergeContext(g, cut, b1, b2, cut_edges,
                       tuple(tuple(i_sets[e]) for e in cut_edges),
                       tuple(tuple(j_sets[e]) for e in cut_edges), tuple(elements))
    return MergeResult(Basis(g, ctx.elements, kind), zstar, ctx)


def merge_coefficients(ctx: MergeContext,
                       alpha: Sequence[int | Fraction],
                       beta: Sequence[int | Fraction]) -> list[Fraction]:
    """Transfer coefficients over (b1, b2) to the merged basis.

    The represented vectors must agree on every cut edge.  Per cut edge e,
    the head slot takes alpha(i_1) minus the tail betas, the j-tail slots
    copy beta, and the i-tail slots copy alpha; the reconstruction identity
    is verified exactly before returning, and integer inputs produce
    integer outputs.
    """
    from fractions import Fraction  # imports decimal: only this function needs it

    if len(alpha) != len(ctx.b1.elements) or len(beta) != len(ctx.b2.elements):
        raise PreconditionViolated("bad_coefficients", "coefficient lengths do not match the bases")
    a = [Fraction(x) for x in alpha]
    b = [Fraction(x) for x in beta]
    for e, i_order, j_order in zip(ctx.cut_edges, ctx.i_orders, ctx.j_orders):
        if sum(a[i] for i in i_order) != sum(b[j] for j in j_order):
            raise PreconditionViolated(
                "cut_disagreement", f"combined vectors disagree on cut edge {e}")
    lambdas: list[Fraction] = []
    for i_order, j_order in zip(ctx.i_orders, ctx.j_orders):
        ell = len(j_order)
        lambdas.append(a[i_order[0]] - sum(b[j_order[t]] for t in range(1, ell)))
        for t in range(1, ell):
            lambdas.append(b[j_order[t]])
        for t in range(1, len(i_order)):
            lambdas.append(a[i_order[t]])

    # exact reconstruction check: sum(lambda * z) == x (.) y
    target: dict[int, Fraction] = {eid: Fraction(0) for eid in ctx.graph.edge_ids}
    for coef, m in zip(a, ctx.b1.elements):
        for eid in m.edge_ids:
            target[eid] += coef
    for coef, m in zip(b, ctx.b2.elements):
        for eid in m.edge_ids:
            if eid not in ctx.cut.boundary:
                target[eid] += coef
    got: dict[int, Fraction] = {eid: Fraction(0) for eid in ctx.graph.edge_ids}
    for coef, m in zip(lambdas, ctx.elements):
        for eid in m.edge_ids:
            got[eid] += coef
    if got != target:
        raise TheoremFalsified("coefficient transfer reconstructs the composition", {
            "diff": {str(k): str(got[k] - target[k]) for k in got if got[k] != target[k]}})
    return lambdas


# --- near-bricks with a Petersen brick -------------------------------------


def _petersen_family(h: MultiGraph, cycle_vertices: Iterable[int]) -> list[PerfectMatching]:
    """The matching family of a Petersen brick relative to a 5-cycle Y.

    Index 0 crosses delta(Y) five times, all others once; every edge of h
    appears in some member of index >= 1.  Parallel edges are absorbed by
    swapping them into the first original member containing their
    representative.
    """
    if not is_petersen(h):
        raise PreconditionViolated("petersen_brick", "graph is not a Petersen brick")
    d_full = boundary(h, cycle_vertices)
    simple, classes = simplify(h)
    base = enumerate_perfect_matchings(simple)
    if len(base) != 6:
        raise TheoremFalsified("the Petersen graph has six perfect matchings", {
            "count": len(base)})
    fives = [m for m in base if len(m.edge_ids & d_full) == 5]
    ones = [m for m in base if len(m.edge_ids & d_full) == 1]
    if len(fives) != 1 or len(ones) != 5:
        raise PreconditionViolated("bad_cycle_cut",
                                   "cut is not the boundary of a 5-cycle vertex set")
    family = [fives[0]] + ones
    rep_of = {member: rep for rep, members in classes.items() for member in members}
    for f in sorted(set(h.edge_ids) - {e[0] for e in simple.edges}):
        rep = rep_of[f]
        donor = next(j for j in range(1, 6) if rep in family[j])
        family.append(PerfectMatching(family[donor].edge_ids - {rep} | {f}))
    if rank(incidence_vectors(h, family)) != len(family):
        raise TheoremFalsified("Petersen family is linearly independent", {
            "size": len(family)})
    missing = _missing_edges(h, family[1:])
    if missing:
        raise TheoremFalsified("non-head family members cover every edge", {
            "missing": missing})
    return family


def _petersen_leaf_in(tree: DecompTree) -> bool:
    return any(leaf.leaf_label == "petersen_brick" for leaf in tree.leaves())


def near_brick_petersen_basis(g: MultiGraph, d5: Cut | Iterable[int]) -> tuple[PerfectMatching, ...]:
    """Basis (M_0, M_1, ..., M_d) of lin(P(G)) for a near-brick whose brick
    is a Petersen brick: M_0 meets the lifted 5-cycle cut five times, every
    other member once, and M_1..M_d together cover every edge.

    Built by climbing the decomposition tree from the Petersen leaf,
    merging with a pin on the five-crossing element at every tight cut.
    """
    require_matching_covered(g)
    d_edges = frozenset(d5.boundary) if isinstance(d5, Cut) else frozenset(d5)
    tree = tight_cut_decomposition(g)
    pbricks = [leaf for leaf in tree.leaves() if leaf.leaf_label == "petersen_brick"]
    bricks = [leaf for leaf in tree.leaves() if leaf.leaf_label in ("brick", "petersen_brick")]
    if len(bricks) != 1 or len(pbricks) != 1:
        raise PreconditionViolated("not_petersen_near_brick",
                                   "need exactly one brick and it must be a Petersen brick")
    leaf_graph = pbricks[0].graph
    cycle = next((verts for verts, _ in five_cycles(leaf_graph)
                  if boundary(leaf_graph, verts) == d_edges), None)
    if cycle is None:
        raise PreconditionViolated("bad_cycle_cut",
                                   "cut is not a lifted 5-cycle boundary of the Petersen brick")

    def build(node) -> tuple[tuple[PerfectMatching, ...], int]:
        if node.is_leaf:
            fam = _petersen_family(node.graph, cycle)
            return tuple(fam), 0
        left, right = node.children
        if _petersen_leaf_in(left):
            pet_child, other_child = left, right
        else:
            pet_child, other_child = right, left
        pet_elems, pin = build(pet_child)
        res = merge_bases(node.graph, node.cut,
                          Basis(pet_child.graph, pet_elems, "linear"),
                          pm_linear_basis(other_child.graph), pin=pin)
        assert res.zstar is not None
        return res.basis.elements, res.zstar

    elems, pin = build(tree)
    ordered = (elems[pin],) + tuple(m for i, m in enumerate(elems) if i != pin)
    head_cross = len(ordered[0].edge_ids & d_edges)
    tail_cross = sorted({len(m.edge_ids & d_edges) for m in ordered[1:]})
    missing = _missing_edges(g, ordered[1:])
    if head_cross != 5 or tail_cross != [1] or missing:
        raise TheoremFalsified("near-brick Petersen basis intersection pattern", {
            "head": head_cross, "tail": tail_cross, "missing": missing})
    return ordered


# --- the 3-intersection search ---------------------------------------------


class IntersectionPair(NamedTuple):
    matching: PerfectMatching
    cut: Cut


def _intersection_preconditions(g: MultiGraph, max_vertices: int) -> None:
    require_matching_covered(g)
    if brick_count(g) != 1:
        raise PreconditionViolated("not_near_brick")
    if _petersen_leaf_in(tight_cut_decomposition(g)):
        raise PreconditionViolated("petersen_brick")
    if is_bvn(g, max_vertices)[0]:
        raise PreconditionViolated("bvn")


def _three_crossing_pairs(g: MultiGraph, max_vertices: int) -> Iterator[IntersectionPair]:
    """Each separating facet-defining cut, in canonical shore order, that
    some perfect matching meets three times, with the first such matching.
    The one search behind ``intersect``, the brick step and P-LEMMA."""
    t = matching_table(g)
    for cut in separating_facet_defining_cuts(g, max_vertices):
        i = t.three_crossing(t.edge_mask(cut.boundary))
        if i is not None:
            yield IntersectionPair(enumerate_perfect_matchings(g)[i], cut)


def find_intersection_pair(g: MultiGraph,
                           max_vertices: int = DEFAULT_VERTEX_CAP) -> IntersectionPair:
    """First (canonical cut order, then matching order) pair of a perfect
    matching and a separating facet-defining cut meeting three times.

    Precondition errors fire on non-near-bricks, Petersen near-bricks and
    BvN graphs; exhaustion without a hit raises a falsification certificate
    since such a pair is guaranteed to exist.
    """
    _intersection_preconditions(g, max_vertices)
    pair = next(_three_crossing_pairs(g, max_vertices), None)
    if pair is not None:
        return pair
    t = matching_table(g)
    raise TheoremFalsified("a 3-intersecting (matching, cut) pair exists", {
        "vertex_count": g.vertex_count,
        "edges": [[eid, u, v] for eid, u, v in sorted(g.edges)],
        "cut_table": [{"shore": list(c.shore),
                       "crossings": [(m & t.edge_mask(c.boundary)).bit_count()
                                     for m in t.masks]}
                      for c in separating_facet_defining_cuts(g, max_vertices)]})


# --- integral bases ----------------------------------------------------------


def _span_lattice(g: MultiGraph, elements: Sequence[PerfectMatching]) -> Lattice:
    return hnf(incidence_vectors(g, elements), len(g.edges))


@per_graph
def matching_saturation(g: MultiGraph) -> Lattice:
    """Lattice of all integer points in lin(P(G)): the saturation of the
    dim P(G) + 1 independent matching rows of ``spanning_matchings``,
    which have the rational span of all of them."""
    t = matching_table(g)
    return saturation([t.row(t.masks[i]) for i in spanning_matchings(g)], len(g.edges))


@per_graph
def matching_lattice(g: MultiGraph) -> Lattice:
    """The matching lattice L(G): integer span of all matching vectors.

    L(G) lies in its saturation S, so once the rows read (in
    ``spread_order``) span a lattice with S's pivots, which makes its
    index in S one, L(G) = S and no further row is read.  That happens
    unless G has a Petersen brick (Lovasz 1987); then every row is read.
    """
    t = matching_table(g)
    sat = matching_saturation(g)
    want = Echelon(len(g.edges))
    want.extend(sat.basis)
    ech = Echelon(len(g.edges))
    for i in spread_order(len(t.masks)):
        ech.add(t.row(t.masks[i]))
        if ech.rank == sat.rank and ech.pivots() == want.pivots():
            return sat
    return ech.lattice()


def _check_integral(g: MultiGraph, elements: Sequence[PerfectMatching], stage: str) -> None:
    got = _span_lattice(g, elements)
    want = matching_saturation(g)
    if not lattice_equal(got, want):
        raise TheoremFalsified("integer span equals the saturation of the matching span", {
            "stage": stage,
            "span": [list(r) for r in got.basis],
            "saturation": [list(r) for r in want.basis]})


def _bvn_integral_elements(g: MultiGraph) -> tuple[PerfectMatching, ...]:
    """Integral basis extraction for the Birkhoff-von-Neumann base case.

    Greedy rank selection in enumeration order usually lands on an
    integral basis; when it does not, fall back to the exhaustive
    lexicographic subset search whose success is externally guaranteed.
    """
    t = matching_table(g)
    want = matching_saturation(g)
    greedy = pm_linear_basis(g).elements
    if lattice_equal(_span_lattice(g, greedy), want):
        return greedy
    need = polytope_dim(g) + 1
    for combo in itertools.combinations(range(len(t.masks)), need):
        vecs = [t.row(t.masks[i]) for i in combo]
        if rank(vecs) == need and lattice_equal(hnf(vecs, len(g.edges)), want):
            return tuple(enumerate_perfect_matchings(g)[i] for i in combo)
    raise TheoremFalsified("a BvN matching polytope admits an integral matching basis", {
        "vertex_count": g.vertex_count, "matchings": len(t.masks)})


def _sides_petersen_free(g: MultiGraph, cut: Cut) -> bool:
    ks, kc = cut_contractions(g, cut.shore_set)
    return not any(_petersen_leaf_in(tight_cut_decomposition(h)) for h in (ks, kc))


def _brick_pair(g: MultiGraph, max_vertices: int) -> IntersectionPair:
    """The brick step's pair: the scan's first cut whose two sides are
    Petersen-free, tested only on cuts some matching meets three times."""
    for pair in _three_crossing_pairs(g, max_vertices):
        if _sides_petersen_free(g, pair.cut):
            return pair
    raise TheoremFalsified(
        "a separating facet-defining cut with Petersen-free sides and a "
        "3-crossing matching exists", {
            "vertex_count": g.vertex_count,
            "edges": [[eid, u, v] for eid, u, v in sorted(g.edges)]})


def _integral_elements(g: MultiGraph, max_vertices: int) -> tuple[PerfectMatching, ...]:
    if is_bvn(g, max_vertices)[0]:
        out = _bvn_integral_elements(g)
        _check_integral(g, out, "bvn_base")
        return out
    cut, extra, stage = find_tight_cut(g), (), "tight_cut_merge"
    if cut is None:
        pair = _brick_pair(g, max_vertices)
        cut, extra, stage = pair.cut, (pair.matching,), "brick_step"
    ks, kc = cut_contractions(g, cut.shore_set)
    res = merge_bases(g, cut,
                      Basis(ks, _integral_elements(ks, max_vertices), "integral"),
                      Basis(kc, _integral_elements(kc, max_vertices), "integral"))
    out = res.basis.elements + extra
    _check_integral(g, out, stage)
    return out


def integral_basis(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) -> Basis:
    """Integral basis of lin(P(G)) made of perfect matchings (Petersen-free
    graphs only); the integer span is verified against the saturation of
    the span of all matchings before returning."""
    require_matching_covered(g)
    if _petersen_leaf_in(tight_cut_decomposition(g)):
        raise PreconditionViolated("petersen_brick")
    return Basis(g, _integral_elements(g, max_vertices), "integral")


# --- lattice bases and the mod-2 characterization ---------------------------


def _lattice_elements(node: DecompTree, max_vertices: int) -> tuple[PerfectMatching, ...]:
    """Fold the decomposition tree: merge the children's lattice bases at
    each tight cut; a Petersen leaf takes its matching family, any other
    leaf its integral basis."""
    g = node.graph
    if not node.is_leaf:
        ks, kc = node.children
        res = merge_bases(g, node.cut,
                          Basis(ks.graph, _lattice_elements(ks, max_vertices), "lattice"),
                          Basis(kc.graph, _lattice_elements(kc, max_vertices), "lattice"))
        out = res.basis.elements
    elif node.leaf_label == "petersen_brick":
        out = tuple(_petersen_family(g, canonical_parity_cycle(g)[0]))
    else:
        out = _integral_elements(g, max_vertices)
    got = _span_lattice(g, out)
    want = matching_lattice(g)
    if not lattice_equal(got, want):
        raise TheoremFalsified("integer span of the basis equals the matching lattice", {
            "span": [list(r) for r in got.basis],
            "lattice": [list(r) for r in want.basis]})
    return out


def lattice_basis(g: MultiGraph, max_vertices: int = DEFAULT_VERTEX_CAP) \
        -> tuple[Basis, tuple[frozenset[int], ...]]:
    """Lattice basis of L(G) made of perfect matchings, built along the
    memoized tight cut decomposition, plus ``parity_sets(g)``: one
    canonical 5-cycle edge set per Petersen brick, in the tree's leaf
    order, as ``characterize`` reports them."""
    require_matching_covered(g)
    elements = _lattice_elements(tight_cut_decomposition(g), max_vertices)
    return Basis(g, elements, "lattice"), tuple(parity_sets(g))


class LatticeCharacterization(NamedTuple):
    """Outcome of comparing L(G) with the parity-constrained saturation."""

    matching_count: int
    rank: int
    index: int
    parity_sets: tuple[tuple[int, ...], ...]
    equality_holds: bool
    two_x_in_lattice: bool | None
    lattice: Lattice
    saturation: Lattice

    def to_payload(self) -> dict:
        return {
            "matchings": self.matching_count,
            "rank": self.rank,
            "saturation_index": self.index,
            "parity_sets": [list(a) for a in self.parity_sets],
            "equality_holds": self.equality_holds,
            "two_x_in_lattice": self.two_x_in_lattice,
        }


def parity_lattice(g: MultiGraph, psets: Sequence[frozenset[int]]) -> Lattice:
    """{x in lin(P(G)) ∩ Z^E : x(A) even for every edge set A in ``psets``}.

    One :class:`Echelon` on k + |E| columns, for the k sets, takes
    the row (s(A_1), ..., s(A_k) | s) of every saturation basis row s, then
    the rows (2 e_i | 0).  Its elements vanishing on the first k columns
    are (0 | x) with x in the saturation and every x(A_i) even, so its
    lattice from column k on is the canonical HNF of that set.
    """
    sat = matching_saturation(g)
    k, edge_pos = len(psets), {eid: i for i, eid in enumerate(g.edge_ids)}
    ech = Echelon(k + len(g.edges))
    ech.extend([sum(row[edge_pos[eid]] for eid in a) for a in psets] + list(row)
               for row in sat.basis)
    ech.extend([2 * int(i == j) for j in range(k)] + [0] * len(g.edges) for i in range(k))
    return ech.lattice(k)


def characterize_lattice(g: MultiGraph) -> LatticeCharacterization:
    """Check L = (saturation) ∩ {x(A_i) even for every Petersen parity set}.

    Also reports the index of L inside the saturation and, when parity
    sets exist, whether doubling any saturation basis vector lands in L.
    Equality or 2x-membership failures raise a falsification certificate.
    """
    require_matching_covered(g)
    lat = matching_lattice(g)
    sat = matching_saturation(g)
    psets = parity_sets(g)
    constrained = parity_lattice(g, psets)
    equality = lattice_equal(lat, constrained)
    index = lattice_index(lat, sat)
    two_x: bool | None = None
    if psets:
        two_x = all(lattice_member(lat, [2 * x for x in row]) is not None
                    for row in sat.basis)
    report = LatticeCharacterization(
        len(matching_table(g).masks), lat.rank, int(index),
        tuple(tuple(sorted(a)) for a in psets),
        equality, two_x, lat, sat)
    if not equality or two_x is False:
        raise TheoremFalsified("matching lattice equals the parity-constrained saturation", {
            "payload": report.to_payload(),
            "lattice": [list(r) for r in lat.basis],
            "constrained": [list(r) for r in constrained.basis]})
    return report
