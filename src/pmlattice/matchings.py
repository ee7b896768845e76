"""Perfect matching enumeration and counting, the per-graph matching
table, matching-covered testing, and matching surgery across cuts.

Listing and counting run one walk (``_layers``), a layer at a time: the
least uncovered vertex is matched to each uncovered neighbour, once per
parallel edge, and the partial matchings that leave the same set of
uncovered vertices share one number.  Counting keeps the last layer, so it
lists no matching (K16's 2,027,025 through 1,597 sets); listing keeps every
layer and then builds the masks backward from the last, one int per
matching (bit b the edge of the b-th largest id), only for sets from which
a perfect matching can be completed.
The masks are the one matching layout: the table, the matching-covered
verdict and ``pm list`` read them, and ``enumerate_perfect_matchings``
decodes them only for callers that return matchings.

``matching_table(g)`` keeps the masks with indices over their bits: the
edge id of each bit, a star mask per vertex, and per edge the set of
matchings using it (``cols``, the column-major transpose of the masks),
built once per graph.  A face is an int mask over matching indices; every
face, dimension, crossing-count and cut-equivalence query in ``polytope``,
``decomposition``, ``verifier`` and ``basis`` reads the table, and an
incidence row is built from a mask only where an exact rank or lattice
computation reads it.  The face of a cut is a two-level bit-sliced counter
over its edges' ``cols`` (Knuth, TAOCP 4A 7.1.3): a few big-int operations
per cut edge rather than one test per matching.  Every capped scan takes
the table from ``scan_table``, the one gate.  The masks, matchings,
table and matching-covered verdict are kept in the graph's memo
(``graph.per_graph``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import PreconditionViolated, TheoremFalsified, check_cap
from .graph import Cut, MultiGraph, _check_cut, cut_contractions, is_connected, per_graph


class PerfectMatching(NamedTuple):
    """A perfect matching as a set of edge ids; ``eid in m`` tests one edge.

    The sorted id tuple is the canonical sort key; sort with ``key=`` always,
    since tuple order would compare the frozensets by subset.  ``incidence_on``
    gives the row of a matching outside the graph's ``MatchingTable``, such as
    a merged basis element.
    """

    edge_ids: frozenset[int]

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_ids))

    def incidence_on(self, g: MultiGraph) -> tuple[int, ...]:
        return tuple(1 if eid in self.edge_ids else 0 for eid in g.edge_ids)

    def __contains__(self, eid: int) -> bool:
        return eid in self.edge_ids


def incidence_vectors(g: MultiGraph, matchings: Iterable[PerfectMatching]) -> list[tuple[int, ...]]:
    return [m.incidence_on(g) for m in matchings]


def _stars(g: MultiGraph) -> list[list[tuple[int, int]]] | None:
    """(edge id, neighbour) per edge at each vertex, or None when g plainly
    has no perfect matching: |V| odd or a vertex that no edge touches,
    found before anything of size |V| is built."""
    n = g.vertex_count
    if n % 2 or len({w for _, u, v in g.edges for w in (u, v)}) < n:
        return None
    return g.adjacency()


def _layers(stars: list[list[tuple[int, int]]]) -> Iterator[dict[int, int]]:
    """The walk, one layer at a time: each layer maps a set of uncovered
    vertices (a bitmask) to its number of partial matchings.  A set matches
    its least vertex to each uncovered neighbour, once per parallel edge,
    and its number is added to the set left, so a set's number is the sum
    of its parents', one term per move in.  The first layer is the set of
    every vertex, the last holds at most the empty set."""
    ways = {(1 << len(stars)) - 1: 1}
    yield ways
    for _ in range(len(stars) // 2):
        nxt: dict[int, int] = {}
        for uncovered, count in ways.items():
            low = uncovered & -uncovered
            rest = uncovered ^ low
            for _, w in stars[low.bit_length() - 1]:
                vbit = 1 << w
                if rest & vbit:
                    left = rest ^ vbit
                    nxt[left] = nxt.get(left, 0) + count
        ways = nxt
        yield ways


@per_graph
def matching_masks(g: MultiGraph) -> tuple[int, ...]:
    """Every perfect matching as an int whose bit m-1-r is the edge of the
    r-th smallest id, so canonical order is descending int order.

    The walk's layers (``_layers``) are read from the last back: a set's
    completions are its moves into sets with completions, each joined to
    theirs, so no dead end is built, and a layer with none ends the pass.
    Each move subtracts the set's number from the target's; at zero the
    target's last move in is made and its completions are dropped.
    """
    stars = _stars(g)
    if stars is None:
        return ()
    layers = list(_layers(stars))
    bit = {eid: 1 << b for b, eid in enumerate(_edge_ids_by_bit(g))}
    counts = layers.pop()
    below = dict.fromkeys(counts, [0])
    while layers and below:
        ways, here = layers.pop(), {}
        for uncovered, count in ways.items():
            low = uncovered & -uncovered
            rest = uncovered ^ low
            found: list[int] = []
            for eid, w in stars[low.bit_length() - 1]:
                left = rest ^ 1 << w  # w covered: one vertex too many for below
                if left in below:
                    found += [m | bit[eid] for m in below[left]]
                    counts[left] -= count
                    if not counts[left]:
                        del below[left]
            if found:
                here[uncovered] = found
        below, counts = here, ways
    found = below.get((1 << len(stars)) - 1, [])
    found.sort(reverse=True)
    return tuple(found)


def _edge_ids_by_bit(g: MultiGraph) -> tuple[int, ...]:
    """Entry b is the edge id of bit b of a ``matching_masks`` mask."""
    return tuple(sorted(g.edge_ids, reverse=True))


def matching_edge_ids(g: MultiGraph) -> Iterator[list[int]]:
    """Each matching's sorted edge ids in canonical order, decoded lazily."""
    by_bit = _edge_ids_by_bit(g)
    for mask in matching_masks(g):
        ids = []
        while mask:  # highest bit first, so smallest id first
            top = mask.bit_length() - 1
            ids.append(by_bit[top])
            mask ^= 1 << top
        yield ids


class MatchingIdLists:
    """Every matching's sorted edge ids in canonical order, the lists of
    ``matching_edge_ids``, as JSON text that ``corpus.write_json`` writes
    through ``json_chunks``, without building the lists."""

    def __init__(self, g: MultiGraph):
        self.graph = g

    def json_chunks(self, pad: str) -> Iterator[str]:
        """The JSON text of the list of id lists at indent ``pad``, as
        ``json.dumps(list(matching_edge_ids(g)), indent=2)`` nests it,
        256 matchings per chunk.  Each mask is rendered one byte at a time:
        per byte position, a table built once maps each of the 256 byte
        values to the text of its edge ids, smallest id first."""
        by_bit = _edge_ids_by_bit(self.graph)
        inner, leaf = pad + "  ", pad + "    "
        width = (len(by_bit) + 7) // 8
        tables = []
        for k in range(width):  # byte k holds bits 8*(width-1-k) .. 8*(width-k)-1
            table = [""]
            for b in range(8 * (width - k) - 1, 8 * (width - k - 1) - 1, -1):
                piece = f",{leaf}{by_bit[b]}" if b < len(by_bit) else ""
                table = [t for prefix in table for t in (prefix, prefix + piece)]
            tables.append(table)
        masks = matching_masks(self.graph)
        if not masks:
            yield "[]"
            return
        sep, close = f"[{inner}[", f"{pad}]"
        for start in range(0, len(masks), 256):
            chunk = []
            for mask in masks[start:start + 256]:
                ids = "".join(map(list.__getitem__, tables, mask.to_bytes(width, "big")))
                chunk.append(f"{sep}{ids[1:]}{inner}]" if ids else f"{sep[:-1]}[]")
                sep = f",{inner}["
            yield "".join(chunk)
        yield close


@per_graph
def enumerate_perfect_matchings(g: MultiGraph) -> tuple[PerfectMatching, ...]:
    """All perfect matchings, ordered lexicographically by sorted id tuple."""
    return tuple(PerfectMatching(frozenset(ids)) for ids in matching_edge_ids(g))


def spread_order(n: int) -> list[int]:
    """0..n-1 in the order i*7919 mod n (in order when 7919, a prime,
    divides n).  Canonical order lists matchings that differ in a few
    edges next to each other, so an echelon reading rows in canonical
    order meets long runs of dependent rows; spread order reaches full
    rank after few more rows than the rank (K12: rank 55 after 55 of its
    10,395 rows, against 9,451 in canonical order)."""
    step = 7919 if n % 7919 else 1
    return [i * step % n for i in range(n)]


class MatchingTable(NamedTuple):
    """The perfect matchings of one graph as the masks of ``matching_masks``;
    every face query is answered from it.

    Bit b of an edge mask is edge ``ids[b]`` (``edge_pos`` inverts it), and
    bit i of a face mask is matching i (``enumerate_perfect_matchings(g)[i]``
    decodes it where one is returned).  ``cols`` holds one face mask per
    edge bit (the matchings using it) and ``stars`` one edge mask per vertex,
    so the boundary of a vertex set is the XOR of its stars.  Rows (``row``)
    are in ``g.edges`` order, entry i being bit ``row_bits[i]``, and are
    built only where an exact rank or lattice computation reads them.
    """

    ids: tuple[int, ...]
    edge_pos: dict[int, int]
    masks: tuple[int, ...]
    cols: tuple[int, ...]
    stars: tuple[int, ...]
    row_bits: tuple[int, ...]

    @property
    def all_matchings(self) -> int:
        """Face mask of every matching (the face of a tight cut)."""
        return (1 << len(self.masks)) - 1

    def edge_mask(self, edge_ids: Iterable[int]) -> int:
        """Edge mask of a set of distinct edge ids."""
        return sum(1 << self.edge_pos[eid] for eid in edge_ids)

    def cut_mask(self, vertices: Iterable[int]) -> int:
        """Edge mask of delta(vertices)."""
        out = 0
        for v in vertices:
            out ^= self.stars[v]
        return out

    def face(self, cut: int) -> int:
        """Face mask of the matchings meeting the edge mask ``cut`` once.

        ``one`` holds the matchings met at least once so far, ``two`` those
        met at least twice."""
        one = two = 0
        cols = self.cols
        while cut:
            low = cut & -cut
            col = cols[low.bit_length() - 1]
            two |= one & col
            one |= col
            cut ^= low
        return one & ~two

    def row(self, edges: int) -> list[int]:
        """Incidence row of the edge mask ``edges`` in ``g.edges`` order."""
        return [edges >> b & 1 for b in self.row_bits]

    def three_crossing(self, cut: int) -> int | None:
        """Index of the first matching, in enumeration order, meeting the
        edge mask ``cut`` exactly three times, or None."""
        return next((i for i, m in enumerate(self.masks) if (m & cut).bit_count() == 3), None)

    def avoiding(self, eid: int) -> int:
        """Face mask of the matchings without edge ``eid`` (x_e = 0)."""
        return self.all_matchings ^ self.cols[self.edge_pos[eid]]

    def covers_all_edges(self, face: int) -> bool:
        """Whether the matchings of the face use every edge."""
        return all(col & face for col in self.cols)


COLS_SLICE = 4096  # matchings per slice of the table's columns, bounding the build peak


@per_graph
def matching_table(g: MultiGraph) -> MatchingTable:
    ids = _edge_ids_by_bit(g)
    edge_pos = {eid: b for b, eid in enumerate(ids)}
    row_bits = tuple(map(edge_pos.__getitem__, g.edge_ids))
    stars = [0] * g.vertex_count
    for b, (_, u, v) in zip(row_bits, g.edges):
        stars[u] |= 1 << b
        stars[v] |= 1 << b
    masks, e = matching_masks(g), len(ids)
    cols = [0] * e
    for start in range(0, len(masks), COLS_SLICE):
        # the slice's masks as e binary digits each, last matching first: the
        # digits of bit b sit every e characters, and read as one binary
        # number they are the slice's part of cols[b]
        digits = "".join(format(m, f"0{e}b") for m in reversed(masks[start:start + COLS_SLICE]))
        for b in range(e):
            cols[b] |= int(digits[e - 1 - b::e], 2) << start
    return MatchingTable(ids, edge_pos, masks, tuple(cols), tuple(stars), row_bits)


def count_perfect_matchings(g: MultiGraph) -> int:
    """Number of perfect matchings, parallel edges counted separately:
    the number of the empty set in the walk's last layer."""
    stars = _stars(g)
    if stars is None:
        return 0
    for ways in _layers(stars):
        pass
    return ways.get(0, 0)


@per_graph
def is_matching_covered(g: MultiGraph) -> tuple[bool, frozenset[int]]:
    """Whether g is connected and every edge lies in a perfect matching.

    Returns the verdict together with the set of uncovered edge ids.
    """
    if g.vertex_count == 0 or not g.edges:
        return False, frozenset(g.edge_ids)
    used = 0
    for mask in matching_masks(g):
        used |= mask
    uncovered = frozenset(eid for b, eid in enumerate(_edge_ids_by_bit(g)) if not used >> b & 1)
    if not used or uncovered or not is_connected(g):
        return False, uncovered
    return True, frozenset()


def matching_covered(g: MultiGraph) -> bool:
    return is_matching_covered(g)[0]


def require_matching_covered(g: MultiGraph) -> None:
    if not is_matching_covered(g)[0]:
        raise PreconditionViolated("not_matching_covered")


def scan_table(g: MultiGraph, max_vertices: int) -> MatchingTable:
    """The table of g for an exponential scan (odd shores, tight cuts,
    P-TRIPLE's triples): the one gate of every capped scan.  Raises
    ``not_matching_covered`` first, then ``VertexCapExceeded`` above
    ``max_vertices``."""
    require_matching_covered(g)
    check_cap(g, max_vertices)
    return matching_table(g)


def _is_perfect_matching_of(g: MultiGraph, edge_ids: frozenset[int]) -> bool:
    ends = g.endpoints()
    if not edge_ids <= set(ends):
        return False
    covered: set[int] = set()
    for eid in edge_ids:
        u, v = ends[eid]
        if u in covered or v in covered:
            return False
        covered.update((u, v))
    return len(covered) == g.vertex_count


def extend_across_cut(g: MultiGraph, cut: Cut, inner: PerfectMatching) -> PerfectMatching:
    """Extend a perfect matching of one cut-contraction to all of g.

    ``inner`` must be a perfect matching of one of the two contractions;
    it then uses exactly one cut edge f, and the other side is completed
    with the first (enumeration order) matching of the other contraction
    that also uses f.
    """
    _check_cut(g, cut)
    keep_shore, keep_comp = cut_contractions(g, cut.shore_set)
    if not (matching_covered(keep_shore) and matching_covered(keep_comp)):
        raise PreconditionViolated("not_separating", "cut is not separating")
    if _is_perfect_matching_of(keep_shore, inner.edge_ids):
        other = keep_comp
    elif _is_perfect_matching_of(keep_comp, inner.edge_ids):
        other = keep_shore
    else:
        raise PreconditionViolated("bad_inner", "inner is not a matching of either contraction")
    through = inner.edge_ids & cut.boundary
    if len(through) != 1:
        raise PreconditionViolated("bad_inner", "inner must use exactly one cut edge")
    f = next(iter(through))
    for cand in enumerate_perfect_matchings(other):
        if f in cand:
            result = PerfectMatching(inner.edge_ids | cand.edge_ids)
            if not _is_perfect_matching_of(g, result.edge_ids):
                raise TheoremFalsified("cut extension produced a non-matching", {
                    "shore": list(cut.shore), "inner": sorted(inner.edge_ids),
                    "completion": sorted(cand.edge_ids)})
            return result
    raise TheoremFalsified("no completion through the inner cut edge", {
        "shore": list(cut.shore), "inner": sorted(inner.edge_ids), "cut_edge": f})
