"""Exact integer linear algebra.

Matrices are plain lists of Python ints, so nothing here ever rounds.
:func:`rank`, and :func:`affine_dim` on top of it, eliminate fraction-free
over the integers (Bareiss); ``fractions.Fraction`` is accepted only as an
input entry and is scaled away before elimination.
The row-style Hermite normal form computed by :func:`hnf` is THE canonical
form used for every lattice comparison in the package: positive pivots,
entries above a pivot reduced into ``[0, pivot)``.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Row = Sequence[int]


def _check_rect(m: Sequence[Row]) -> int:
    if not m:
        return 0
    width = len(m[0])
    for r in m:
        if len(r) != width:
            raise ValueError("matrix rows have unequal lengths")
    return width


def _integer_row(r: Sequence[int | Fraction]) -> list[int]:
    """The row times the lcm of its denominators: same span, integer entries."""
    den = lcm(*(x.denominator for x in r))
    return [x.numerator * (den // x.denominator) for x in r]


def rank(m: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank by fraction-free (Bareiss) integer elimination.

    Entries are ints or ``Fraction``s.  A matrix with a ``Fraction`` entry
    has each row scaled by the lcm of its denominators first, which leaves
    the rank unchanged, so elimination only ever sees Python ints.

    Each step takes a remaining row as pivot row, its first nonzero entry
    ``p`` as pivot, and replaces every other remaining row by
    ``(p * row - a * pivot_row) // prev``, where ``a`` is the row's entry
    in the pivot column and ``prev`` the previous pivot (1 at first).  By
    Sylvester's identity every entry is then a minor of the input, so the
    division is exact; this needs rows with ``a == 0`` rescaled to
    ``p * row // prev`` as well.  Rows that become zero are dropped; the
    rank is the number of pivots.
    """
    _check_rect(m)
    if set(map(type, chain.from_iterable(m))) <= {int}:
        rows = [r for r in m if any(r)]
    else:
        rows = [_integer_row(r) for r in m if any(r)]
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


def _hnf_rows(m: Sequence[Row], transform: bool = False) -> tuple[list[list[int]], list[list[int]]]:
    """Row HNF of m; optionally the unimodular U with U m = H (zero rows kept)."""
    width = _check_rect(m)
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
    width = _check_rect(m)
    if ambient_dim is None:
        if not m:
            raise ValueError("ambient dimension required for an empty row set")
        ambient_dim = width
    elif m and width != ambient_dim:
        raise ValueError("rows do not match ambient dimension")
    rows, _ = _hnf_rows(m)
    nz = [tuple(r) for r in rows if any(r)]
    return Lattice(ambient_dim, tuple(nz))


def snf(m: Sequence[Row]) -> tuple[int, ...]:
    """Elementary divisors d1 | d2 | ... of the integer matrix (zeros dropped)."""
    width = _check_rect(m)
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


def integer_kernel(m: Sequence[Row], ambient_dim: int) -> Lattice:
    """Lattice of integer x with x m^T = 0 ... i.e. {x in Z^n : m x = 0}.

    Computed from the left kernel of the transpose via an HNF transform;
    kernels are saturated by construction.
    """
    if not m:
        ident = [[int(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return hnf(ident, ambient_dim)
    width = _check_rect(m)
    if width != ambient_dim:
        raise ValueError("rows do not match ambient dimension")
    mt = [[row[i] for row in m] for i in range(width)]  # width x len(m)
    h, u = _hnf_rows(mt, transform=True)
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    return hnf(kernel_rows, ambient_dim) if kernel_rows else Lattice(ambient_dim, ())


def saturation(m: Sequence[Row], ambient_dim: int | None = None) -> Lattice:
    """All integer points in the rational row span of ``m``.

    Double integer kernel: the kernel of a kernel is saturated and spans
    the original row space.
    """
    width = _check_rect(m)
    if ambient_dim is None:
        if not m:
            raise ValueError("ambient dimension required for an empty row set")
        ambient_dim = width
    ker = integer_kernel(m, ambient_dim)
    if not ker.basis:
        ident = [[int(i == j) for j in range(ambient_dim)] for i in range(ambient_dim)]
        return hnf(ident, ambient_dim)
    return integer_kernel([list(r) for r in ker.basis], ambient_dim)


def lattice_member(lat: Lattice, z: Sequence[int]) -> tuple[int, ...] | None:
    """Integer coefficients expressing z over the basis, or None.

    Recombining the returned coefficients with the basis rows reproduces z
    exactly (HNF pivots make the reduction greedy and unique).
    """
    if len(z) != lat.ambient_dim:
        raise ValueError("vector length != ambient dimension")
    vec = list(map(int, z))
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

    Raises if sub is not contained in sup.
    """
    if sub.ambient_dim != sup.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coeff_rows = []
    for row in sub.basis:
        c = lattice_member(sup, row)
        if c is None:
            raise ValueError("first lattice is not a sublattice of the second")
        coeff_rows.append(list(c))
    if sub.rank < sup.rank:
        return float("inf")
    divisors = snf(coeff_rows)
    index = 1
    for d in divisors:
        index *= d
    return index


def gf2_kernel(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
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
    free_cols = [j for j in range(width) if j not in pivots]
    basis = []
    for fc in free_cols:
        vec = 1 << fc
        # each echelon row has its leading column as highest bit, so solving
        # pivots in ascending order only ever reads already-decided bits
        for p in sorted(pivots):
            row = pivots[p]
            if bin(row & vec & ((1 << p) - 1)).count("1") % 2:
                vec |= 1 << p
        basis.append(tuple((vec >> j) & 1 for j in range(width)))
    return basis
