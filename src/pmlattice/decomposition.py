"""Tight cut decomposition into bricks and braces, the certified dim P(G)
and brick count b(G) (one owner, ``spanning_matchings``, which checks
dim P(G) = |E| - |V| + 1 - b(G)), Petersen-brick detection, and near-brick
barrier extraction.

The memoized tree (``tight_cut_decomposition``) is the one place tight-cut
structure is derived: ``find_tight_cut`` is its root cut, the lattice basis
folds it and the leaf labels say which graphs are bricks and which hold a
Petersen brick.  Each subtree is memoized with its own graph, so a
cut-contraction's tree is the subtree; a graph's tight shores, which the
verifier also reads, and a Petersen leaf's parity cycle are memoized too.

Contraction keeps edge ids, so every node's edge ids are root edge ids and
edge sets found in a leaf (such as Petersen 5-cycles) need no lifting.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import PreconditionViolated, TheoremFalsified
from .graph import (Cut, MultiGraph, _check_cut, components_minus, contract_shore,
                    cut_contractions, five_cycles, is_bipartite, is_petersen,
                    make_cut, per_graph, shore_complement, shore_index_map,
                    simplify)
from .linalg import Echelon
from .matchings import matching_table, require_matching_covered, spread_order


class DecompTree(NamedTuple):
    """Binary tight-cut decomposition tree rooted at a graph.

    Internal nodes carry the tight cut used; leaves carry a label in
    {"brick", "brace", "petersen_brick"}.  Every node's graph keeps the
    root's ids for its surviving edges.
    """

    graph: MultiGraph
    cut: Cut | None = None
    children: tuple["DecompTree", "DecompTree"] | None = None
    leaf_label: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_label is not None

    def leaves(self) -> list["DecompTree"]:
        if self.is_leaf:
            return [self]
        a, b = self.children
        return a.leaves() + b.leaves()


@per_graph
def tight_shores(g: MultiGraph) -> tuple[tuple[int, ...], ...]:
    """Every canonical tight shore (vertex 0 inside, 1 < |X| < n-1), in
    (size, lex) order.

    An odd cut meets every perfect matching an odd number of times, so a
    tight cut meets the first matching M0 exactly once: its shore is a
    union of M0 pairs plus one endpoint of one more pair.  Only those
    n/2 * 2^(n/2-1) shores are tested against the graph's matching table;
    a shore's boundary mask is the XOR of its vertex stars.
    """
    require_matching_covered(g)
    n = g.vertex_count
    t = matching_table(g)
    star = t.stars
    # (vertex mask, boundary mask) of every union of M0 pairs
    unions = [(0, 0)]
    for _, u, v in (e for e in g.edges if t.masks[0] >> t.edge_pos[e[0]] & 1):
        unions += [(vm | 1 << u | 1 << v, bm ^ star[u] ^ star[v]) for vm, bm in unions]
    out = []
    for vm, bm in unions:
        if not 2 <= vm.bit_count() <= n - 4:
            continue
        # the pair holding vertex 0 lies inside, or it is the crossing pair
        singles = [x for x in range(n) if not vm >> x & 1] if vm & 1 else [0]
        for x in singles:
            b = bm ^ star[x]
            if all((m & b).bit_count() == 1 for m in t.masks):
                shore = vm | 1 << x
                out.append(tuple(v for v in range(n) if shore >> v & 1))
    out.sort(key=lambda s: (len(s), s))
    return tuple(out)


def _leaf_label(g: MultiGraph) -> str:
    if is_bipartite(g)[0]:
        return "brace"
    return "petersen_brick" if is_petersen(g) else "brick"


def _build(g: MultiGraph, rng: random.Random | None) -> DecompTree:
    """One node; without a seed each child is the memoized tree of its
    cut-contraction, so no graph's tight shores are scanned twice."""
    shores = tight_shores(g)
    if not shores:
        return DecompTree(g, leaf_label=_leaf_label(g))
    cut = make_cut(g, shores[0] if rng is None else rng.choice(shores))
    sides = cut_contractions(g, cut.shore_set)
    return DecompTree(g, cut=cut, children=tuple(
        _decomposition_cached(h) if rng is None else _build(h, rng) for h in sides))


@per_graph
def _decomposition_cached(g: MultiGraph) -> DecompTree:
    return _build(g, None)


def tight_cut_decomposition(g: MultiGraph, seed: int | None = None) -> DecompTree:
    """Decompose along tight cuts until brick/brace leaves remain.

    The default picks the first tight cut in canonical shore order at
    every node; a seed switches to a random choice among all tight cuts,
    which is only useful for exercising the uniqueness of the leaf list.
    """
    require_matching_covered(g)
    if seed is None:
        return _decomposition_cached(g)
    return _build(g, random.Random(seed))


def find_tight_cut(g: MultiGraph) -> Cut | None:
    """First tight cut in canonical shore order, or None: the root cut of
    :func:`tight_cut_decomposition`, so a call builds (or reads) the whole
    memoized tree.  Exact although :func:`tight_shores` tests only shores
    crossing the first perfect matching once: an odd cut meets every
    perfect matching an odd number of times, so a tight cut meets it
    exactly once."""
    return tight_cut_decomposition(g).cut


def _bricks(tree: DecompTree) -> int:
    return sum(1 for leaf in tree.leaves() if leaf.leaf_label in ("brick", "petersen_brick"))


@per_graph
def spanning_matchings(g: MultiGraph) -> tuple[int, ...]:
    """Indices of dim P(G) + 1 linearly independent matching rows, which
    span lin(P(G)), with dim P(G) certified from both sides and checked
    against the brick count.

    Upper bound: every matching x satisfies x(delta(v)) = 1 at each vertex
    and x(C) = 1 on each tight cut C of the decomposition, so dim P(G) is
    at most |E| minus the rank of those rows.  Lower bound: the matching
    rows lie off the origin in an affine hyperplane, so k independent ones
    give dim P(G) >= k - 1.  Rows are read in ``spread_order`` until the
    bounds meet; when they never do, every row is read and the rank alone
    is dim P(G) + 1.  The Edmonds-Lovasz-Pulleyblank formula
    b(G) = |E| - |V| + 1 - dim P(G) must then count the tree's brick
    leaves; a mismatch is a hard error.
    """
    tree = tight_cut_decomposition(g)
    t = matching_table(g)
    bounds = Echelon(len(g.edges))
    bounds.extend(map(t.row, t.stars))
    stack = [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            bounds.add(t.row(t.edge_mask(node.cut.boundary)))
            stack.extend(node.children)
    order = spread_order(len(t.masks))
    raised = Echelon(len(g.edges)).extend((t.row(t.masks[i]) for i in order),
                                          len(g.edges) - bounds.rank + 1)
    b, d = _bricks(tree), len(raised) - 1
    b_formula = len(g.edges) - g.vertex_count + 1 - d
    if b != b_formula:
        raise TheoremFalsified("brick count equals |E|-|V|+1-dim P(G)", {
            "leaf_count": b, "formula": b_formula,
            "edges": len(g.edges), "vertices": g.vertex_count, "dim": d})
    return tuple(sorted(order[k] for k in raised))


def brick_count(g: MultiGraph) -> int:
    """Number of brick leaves b(G), cross-checked against the dimension
    formula inversion (``spanning_matchings``); a mismatch is a hard error."""
    spanning_matchings(g)
    return _bricks(_decomposition_cached(g))


def is_near_brick(g: MultiGraph) -> bool:
    return brick_count(g) == 1


def petersen_bricks(g: MultiGraph) -> list[tuple[DecompTree, list[tuple[int, ...]]]]:
    """Petersen-brick leaves with their 5-cycle edge sets in root ids.

    Cycle edges come from the leaf's simplification, so each pair of
    endpoints contributes its lowest-id parallel representative, which is
    a root id verbatim.
    """
    require_matching_covered(g)
    out = []
    for leaf in _decomposition_cached(g).leaves():
        if leaf.leaf_label == "petersen_brick":
            cycles = [eids for _, eids in five_cycles(leaf.graph)]
            out.append((leaf, cycles))
    return out


@per_graph
def canonical_parity_cycle(leaf_graph: MultiGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical 5-cycle of a Petersen brick used as a parity set:
    (vertex tuple, edge id tuple).

    Picks the lexicographically least cycle (by sorted edge ids) among
    those avoiding doubled parallel classes.  A cycle through a doubled
    pair {e, e'} can never work: swapping e for e' inside a matching keeps
    it in the matching lattice but flips the parity of x(cycle), so the
    mod-2 characterization would fail for that choice.  When every 5-cycle
    is blocked, the parity set falls back to the full parallel classes
    along the least cycle, which swaps cannot unbalance.
    """
    if not is_petersen(leaf_graph):
        raise PreconditionViolated("petersen_brick", "graph is not a Petersen brick")
    _, classes = simplify(leaf_graph)
    cycles = sorted(five_cycles(leaf_graph), key=lambda ce: tuple(sorted(ce[1])))
    for verts, eids in cycles:
        if all(len(classes[e]) == 1 for e in eids):
            return verts, eids
    verts, eids = cycles[0]
    full = tuple(sorted(member for e in eids for member in classes[e]))
    return verts, full


def parity_sets(g: MultiGraph) -> list[frozenset[int]]:
    """One canonical 5-cycle edge set per Petersen brick leaf, in the
    tree's leaf order."""
    return [frozenset(canonical_parity_cycle(leaf.graph)[1])
            for leaf in tight_cut_decomposition(g).leaves()
            if leaf.leaf_label == "petersen_brick"]


def barrier_of_tight_cut(g: MultiGraph, c: Cut) -> frozenset[int]:
    """Barrier of a tight cut in a near-brick.

    The bipartite cut-contraction's colour class avoiding the contraction
    vertex is the barrier B: an independent set such that G - B has |B|
    components, one equal to the cut shore and the rest singletons.
    """
    require_matching_covered(g)
    _check_cut(g, c)
    if not is_near_brick(g):
        raise PreconditionViolated("not_near_brick")
    t = matching_table(g)
    if t.face(t.edge_mask(c.boundary)) != t.all_matchings:
        raise PreconditionViolated("not_tight", "cut is not tight")
    for side in (c.shore_set, shore_complement(g, c.shore_set)):
        comp_side = shore_complement(g, side)
        h = contract_shore(g, comp_side)  # collapses `side`, keeps the rest
        bip, parts = is_bipartite(h)
        if not bip:
            continue
        c_vertex = len(comp_side)
        part = parts[0] if c_vertex in parts[1] else parts[1]
        back = {new: old for old, new in shore_index_map(comp_side).items()}
        b_set = frozenset(back[v] for v in part)
        # validation per the barrier structure claims
        if any((u in b_set and v in b_set) for _, u, v in g.edges):
            raise TheoremFalsified("barrier is an independent set", {
                "barrier": sorted(b_set), "shore": list(c.shore)})
        comps = components_minus(g, b_set)
        side_tuple = tuple(sorted(side))
        if (len(comps) != len(b_set) or side_tuple not in comps
                or any(len(comp) != 1 for comp in comps if comp != side_tuple)):
            raise TheoremFalsified("G - B has |B| components: the shore and singletons", {
                "barrier": sorted(b_set), "components": [list(c_) for c_ in comps]})
        return b_set
    raise PreconditionViolated("no_bipartite_contraction",
                               "neither cut-contraction is bipartite; input is corrupt")
