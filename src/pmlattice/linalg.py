"""Exact integer linear algebra.

Matrices are plain lists of Python ints, so nothing here ever rounds.
One engine, :class:`Echelon`, does every elimination: it takes integer rows
one at a time, keeps a fraction-free echelon basis of their integer span
(unimodular gcd steps, no fractions), says whether each row raised the
rank, and stops at a target rank when given one.  :func:`rank`,
:func:`affine_dim`, :func:`hnf`, :func:`integer_kernel` and
:func:`saturation` are thin calls to it.  :func:`snf` alternates the HNF
of a matrix and of its transpose until it is diagonal, :func:`lattice_index`
divides pivot products of two HNFs, and the parity-constrained lattice of
``basis.parity_lattice`` is one echelon's HNF past its parity columns.
Every entry must be an int (``ValueError`` otherwise); ``fractions.Fraction``
is accepted only as an input entry of :func:`rank` and is scaled away
before elimination.  The row-style Hermite normal form (``Echelon.lattice``,
:func:`hnf`) is THE canonical form used for every lattice comparison in the
package: positive pivots, entries above a pivot reduced into ``[0, pivot)``.

Two uses in the package stop early, both exactly:

- dim P(G) is certified from both sides
  (``decomposition.spanning_matchings``): the degree rows and the tight-cut
  rows of the decomposition bound it from above by |E| minus their rank,
  which is the Edmonds-Lovasz-Pulleyblank (1982) value |E| - |V| + 1 - b,
  and matching rows read in a spread order bound it from below; the scan
  stops when the bounds meet and reads every row only when they never do.
- The matching lattice L stops at its saturation S = lin(P) ∩ Z^E
  (``basis.matching_lattice``).  L lies in S, so once the matching rows
  read span a lattice with the pivots of S's HNF, its index in S is one
  and L = S.  By Lovasz (1987) and Carvalho, Lucchesi and Murty (2002),
  L = S unless G has a Petersen brick; then the scan reads every row.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm, prod
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Row = Sequence[int]


def _check_rect(m: Sequence[Row], ambient_dim: int | None = None,
                rational: bool = False) -> tuple[Sequence[Row], int]:
    """``m`` as integer rows, with their width: ``ambient_dim`` when given,
    else that of the first row.  Raises ``ValueError`` on an empty ``m``
    with no ``ambient_dim``, on a row of another width and on an entry that
    is not an int.  With ``rational``, ``Fraction`` entries are accepted
    and each row is scaled by the lcm of its denominators, which keeps
    its rational span.  Entry types are scanned once."""
    if not m:
        if ambient_dim is None:
            raise ValueError("ambient dimension required for an empty row set")
        return m, ambient_dim
    width = len(m[0]) if ambient_dim is None else ambient_dim
    if any(len(r) != width for r in m):
        raise ValueError(f"matrix rows do not all have width {width}")
    kinds = set(map(type, chain.from_iterable(m)))
    if kinds <= {int}:
        return m, width
    if rational:
        from fractions import Fraction  # imports decimal: only Fraction input needs it
        if kinds <= {int, Fraction}:
            return [_integer_row(r) for r in m], width
    raise ValueError(f"matrix entries must be ints, not {(kinds - {int}).pop().__name__}")


def _integer_row(r: Sequence[int | Fraction]) -> list[int]:
    """The row times the lcm of its denominators: same span, integer entries."""
    den = lcm(*(x.denominator for x in r))
    return [x.numerator * (den // x.denominator) for x in r]


class Echelon:
    """Incremental fraction-free echelon of integer rows of one width.

    ``add`` inserts one row and reports whether it raised the rank.  The
    kept rows always generate the integer span of every row inserted so
    far, one row per pivot column with a positive pivot and zeros before
    it: a row meeting a kept row's pivot column is reduced by it, by
    exact division when the pivot divides its entry and otherwise by the
    unimodular gcd step ``(s*h + t*r, (a/g)*r - (b/g)*h)``, which replaces
    the kept row by one with pivot g = gcd(a, b).  A row reduced to zero
    lies in the rational span already (its gcd steps may still have
    refined the lattice); a row left nonzero becomes the pivot row of its
    first nonzero column.  ``lattice`` reduces the kept rows above their
    pivots into the canonical row HNF.
    """

    __slots__ = ("width", "_rows")

    def __init__(self, width: int):
        self.width = width
        self._rows: dict[int, list[int]] = {}  # pivot column -> kept row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: Iterable[int]) -> bool:
        """Insert ``row``; whether it raised the rank."""
        kept = self._rows
        row = list(row)
        for c in range(self.width):
            b = row[c]
            if not b:
                continue
            h = kept.get(c)
            if h is None:
                kept[c] = row if b > 0 else [-x for x in row]
                return True
            # both rows are zero left of column c, so only their tails change
            a, tail, head = h[c], row[c:], h[c:]
            if b % a:
                g, s, t = xgcd(a, b)
                kept[c] = row[:c] + [s * x + t * y for x, y in zip(head, tail)]
                a, b = a // g, b // g
                row[c:] = [a * y - b * x for x, y in zip(head, tail)]
            else:
                b //= a
                row[c:] = [y - b * x for x, y in zip(head, tail)]
        return False

    def extend(self, rows: Iterable[Iterable[int]], target: int | None = None) -> list[int]:
        """Insert ``rows`` in order, stopping once the rank reaches
        ``target`` (never when None); the positions of the rows that raised
        the rank."""
        raised = []
        if self.rank == target:
            return raised
        for i, row in enumerate(rows):
            if self.add(row):
                raised.append(i)
                if self.rank == target:
                    break
        return raised

    def pivots(self) -> tuple[tuple[int, int], ...]:
        """(column, pivot) of every kept row, by column."""
        return tuple((c, self._rows[c][c]) for c in sorted(self._rows))

    def lattice(self, first: int = 0) -> "Lattice":
        """The canonical row HNF of the kept rows whose pivot column is
        ``first`` or later, as a :class:`Lattice` on columns ``first`` on:
        every entry above a pivot p is reduced into ``[0, p)``.  Reducing a
        row by the rows below it in column order only changes its entries
        right of each pivot used, so one pass suffices.  With ``first`` = 0
        this is the HNF of the span; later, the rows vanishing on the
        columns before ``first`` generate the span's intersection with
        them (the rows are echelon), and this is that intersection's HNF."""
        cols = sorted(c for c in self._rows if c >= first)
        rows = [self._rows[c] for c in cols]
        for i, row in enumerate(rows):
            for c, below in zip(cols[i + 1:], rows[i + 1:]):
                q = row[c] // below[c]
                if q:
                    row[c:] = [x - q * y for x, y in zip(row[c:], below[c:])]
        return Lattice(self.width - first, tuple(tuple(row[first:]) for row in rows))


def rank(m: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank: the rows go through one :class:`Echelon`.

    Entries are ints or ``Fraction``s.  A matrix with a ``Fraction`` entry
    has each row scaled by the lcm of its denominators first, which leaves
    the rank unchanged, so elimination only ever sees Python ints.
    """
    if not m:
        return 0
    m, width = _check_rect(m, rational=True)
    ech = Echelon(width)
    ech.extend(m, min(width, len(m)))
    return ech.rank


def affine_dim(vectors: Sequence[Sequence[int | Fraction]]) -> int:
    """Affine dimension of a point set; -1 for the empty set."""
    if not vectors:
        return -1
    base = vectors[0]
    diffs = [[x - y for x, y in zip(v, base)] for v in vectors[1:]]
    return rank(diffs) if diffs else 0


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, s, t = -g, -s, -t
    return g, s, t


class Lattice:
    """Integer lattice given by a full-row-rank basis in canonical row HNF."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: tuple[tuple[int, ...], ...]):
        for row in basis:
            if len(row) != ambient_dim:
                raise ValueError("basis row length != ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Lattice, (self.ambient_dim, self.basis)

    def __eq__(self, other):
        return other.__class__ is self.__class__ \
            and self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Lattice(ambient_dim={self.ambient_dim!r}, basis={self.basis!r})"

    @property
    def rank(self) -> int:
        return len(self.basis)


def hnf(m: Sequence[Row], ambient_dim: int | None = None) -> Lattice:
    """Canonical lattice of the integer row span of ``m``."""
    m, width = _check_rect(m, ambient_dim)
    ech = Echelon(width)
    ech.extend(m)
    return ech.lattice()


def snf(m: Sequence[Row]) -> tuple[int, ...]:
    """Elementary divisors d1 | d2 | ... of the integer matrix (zeros dropped).

    The row HNF (:meth:`Echelon.lattice`) of the matrix and of its
    transpose alternate until the result is diagonal.  Each is a unimodular
    multiple of the last on one side, so the divisors never change.  The
    first pivot not yet alone in its row and column either shrinks to a
    proper divisor or clears its row and column, so the rounds end.
    Pairwise gcd/lcm steps, which keep the product of every pair, then make
    each diagonal entry divide the next.
    """
    if not m:
        return ()
    m, width = _check_rect(m)
    while True:
        ech = Echelon(width)
        ech.extend(m)
        basis = ech.lattice().basis
        if all(len(row) - row.count(0) == 1 for row in basis):
            break
        m, width = list(zip(*basis)), len(basis)
    d = [p for _, p in ech.pivots()]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


def integer_kernel(m: Sequence[Row], ambient_dim: int) -> Lattice:
    """Lattice of integer x with x m^T = 0 ... i.e. {x in Z^n : m x = 0}.

    Row i of the transpose, followed by the i-th unit row, goes into one
    :class:`Echelon`, whose span is {(x m^T, x)}; the part of it vanishing
    on the transpose columns is {(0, x) : m x = 0}.  Kernels are saturated
    by construction.
    """
    m, width = _check_rect(m, ambient_dim)
    k = len(m)
    ech = Echelon(k + width)
    ech.extend([row[i] for row in m] + [int(i == j) for j in range(width)]
               for i in range(width))
    return ech.lattice(k)


def saturation(m: Sequence[Row], ambient_dim: int | None = None) -> Lattice:
    """All integer points in the rational row span of ``m``.

    When the echelon of ``m`` has every pivot 1, its lattice is saturated
    already: a rational combination of its rows that is integral has an
    integral coefficient at each pivot column in turn.  Otherwise, double
    integer kernel: the kernel of a kernel is saturated and spans the
    original row space.
    """
    m, width = _check_rect(m, ambient_dim)
    span = Echelon(width)
    span.extend(m)
    if all(p == 1 for _, p in span.pivots()):
        return span.lattice()
    return integer_kernel(integer_kernel(m, width).basis, width)


def lattice_member(lat: Lattice, z: Sequence[int]) -> tuple[int, ...] | None:
    """Integer coefficients expressing z over the basis, or None.

    Recombining the returned coefficients with the basis rows reproduces z
    exactly (HNF pivots make the reduction greedy and unique).
    """
    _check_rect([z], lat.ambient_dim)
    vec = list(z)
    coeffs = []
    for row in lat.basis:
        j = next(i for i, x in enumerate(row) if x)
        if vec[j] % row[j]:
            return None
        q = vec[j] // row[j]
        coeffs.append(q)
        if q:
            vec = [a - q * b for a, b in zip(vec, row)]
    if any(vec):
        return None
    return tuple(coeffs)


def lattice_equal(a: Lattice, b: Lattice) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return a.basis == b.basis


def lattice_index(sub: Lattice, sup: Lattice) -> int | float:
    """[sup : sub] as an integer, or ``inf`` when sub has lower rank.

    Raises if sub is not contained in sup.  At equal rank the two
    canonical bases are echelon with the same pivot columns (those of
    their common rational span), so the index is the ratio of their pivot
    products.
    """
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if sub.basis == sup.basis:
        return 1
    if any(lattice_member(sup, row) is None for row in sub.basis):
        raise ValueError("first lattice is not a sublattice of the second")
    if sub.rank < sup.rank:
        return float("inf")
    sub_det, sup_det = (prod(next(filter(None, row)) for row in lat.basis) for lat in (sub, sup))
    return sub_det // sup_det
