import random
import time
from fractions import Fraction
from functools import cache
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
from sympy.polys.domains import ZZ

from pmlattice.corpus import corpus_graph, random_matching_covered
from pmlattice.linalg import (Echelon, Lattice, affine_dim, hnf, integer_kernel,
                              lattice_equal, lattice_index, lattice_member, rank,
                              saturation, snf, xgcd)
from pmlattice.matchings import enumerate_perfect_matchings, incidence_vectors

from conftest import (bareiss_rank, oracle_affine_dim, oracle_hnf, oracle_rank,
                      oracle_saturation, oracle_snf)


def _petersen_vectors():
    g = corpus_graph("petersen")
    return incidence_vectors(g, enumerate_perfect_matchings(g))


def test_rank_examples():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank([[0, 0], [0, 0]]) == 0
    vecs = _petersen_vectors()
    assert len(vecs) == 6
    assert rank(vecs) == 6 == oracle_rank(vecs)
    # full rank; with (0, 2, 0) as first pivot row the other rows have a zero
    # under the pivot, and unless Bareiss still rescales them the next
    # division truncates to rank 2
    assert rank([[1, 0, 0], [1, 0, -1], [0, 2, 0]]) == 3


# free rows weighted up: a rank fault needs several independent rows
_ROW_KINDS = ("free", "free", "free", "zero", "copy", "sum")


@st.composite
def _matrices(draw, entry_kinds):
    """Up to 12x12, with zero columns and rows that are zero, copies or
    integer combinations of earlier rows, so rank deficiency is common.
    One matrix draws all its free entries from one of ``entry_kinds``."""
    entries = draw(st.sampled_from(entry_kinds))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(_ROW_KINDS) if i else st.just("free"))
        if kind == "free":
            row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        elif kind == "zero":
            row = [0] * ncols
        elif kind == "copy":
            row = list(rows[draw(st.integers(0, i - 1))])
        else:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            row = [a * x + b * y for x, y in zip(rows[j], rows[k])]
        rows.append([0 if c in zero_cols else x for c, x in enumerate(row)])
    return rows


def _sympy_rank(rows) -> int:
    ncols = len(rows[0]) if rows else 0
    flat = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    return sympy.Matrix(len(rows), ncols, flat).rank()


# sparse small entries leave many rows with a zero under a pivot
_INTEGERS = (st.sampled_from((0, 1, 2, -1)), st.integers(-2, 2),
             st.integers(-10**6, 10**6))
_FRACTIONS = (st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),)


@settings(max_examples=150, deadline=None)
@given(_matrices(_INTEGERS))
def test_rank_matches_oracles_on_integer_matrices(rows):
    assert rank(rows) == oracle_rank(rows) == _sympy_rank(rows)


@settings(max_examples=150, deadline=None)
@given(_matrices(_INTEGERS), st.data())
def test_echelon_matches_oracles_at_a_target(rows, data):
    """Rows go into one ``Echelon`` until a random target rank: it stops
    there (or at the full rank), each reported row raised the rank of the
    rows before it, and its lattice is the full HNF oracle's once every row
    went in."""
    width = len(rows[0]) if rows else 0
    full = oracle_rank(rows)
    assert full == bareiss_rank(rows) == _sympy_rank(rows)
    target = data.draw(st.integers(0, width))
    ech = Echelon(width)
    raised = ech.extend(rows, target)
    assert ech.rank == len(raised) == min(target, full)
    for i in raised:
        assert oracle_rank(rows[:i + 1]) == oracle_rank(rows[:i]) + 1
    # the rows read: up to the one reaching the target, or all of them
    stop = (raised[-1] + 1 if raised else 0) if ech.rank == target else len(rows)
    assert oracle_rank(rows[:stop]) == ech.rank
    ech = Echelon(width)
    assert [i for i, row in enumerate(rows) if ech.add(row)] == \
        [i for i in range(len(rows)) if oracle_rank(rows[:i + 1]) > oracle_rank(rows[:i])]
    if width:
        assert ech.lattice() == hnf(rows) == oracle_hnf(rows, width)
        assert saturation(rows) == oracle_saturation(rows, width)


@settings(max_examples=100, deadline=None)
@given(_matrices(_FRACTIONS))
def test_rank_matches_oracles_on_fraction_matrices(rows):
    assert rank(rows) == oracle_rank(rows) == _sympy_rank(rows)


@cache
def _random_graph_vectors():
    _, g = random_matching_covered(8, 12, 3)
    return incidence_vectors(g, enumerate_perfect_matchings(g))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_affine_dim_matches_oracle_on_matching_subsets(data):
    vecs = _random_graph_vectors()
    order = data.draw(st.lists(st.sampled_from(range(len(vecs))), unique=True))
    picked = [vecs[i] for i in order]
    assert affine_dim(picked) == oracle_affine_dim(picked)


def test_xgcd():
    for a, b in ((12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)):
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b and g >= 0


def test_hnf_examples():
    lat = hnf([[2, 0], [0, 2]])
    assert lat.basis == ((2, 0), (0, 2))
    assert hnf([[0, 0, 0]]).basis == ()
    # canonical: above-pivot entries reduced into [0, pivot)
    lat = hnf([[1, 7], [0, 3]])
    assert lat.basis == ((1, 1), (0, 3))


def test_hnf_canonical_under_unimodular_mixes():
    rng = random.Random(5)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(3)]
        mixed = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        rng.shuffle(mixed)
        assert hnf(rows).basis == hnf(mixed).basis


def test_hnf_idempotent():
    rng = random.Random(13)
    for _ in range(20):
        rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)]
        lat = hnf(rows, 4)
        assert hnf([list(r) for r in lat.basis], 4).basis == lat.basis


def test_snf_examples():
    assert snf([[1, 1], [1, -1]]) == (1, 2)
    assert snf([[2, 0], [0, 2]]) == (2, 2)
    assert snf([[0, 0]]) == ()
    assert snf([[6]]) == (6,)
    # divisibility chain holds
    divs = snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert all(divs[i + 1] % divs[i] == 0 for i in range(len(divs) - 1))


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snf_matches_sympy_on_dense_square_matrices(n, seed):
    """Seeded n x n matrices with entries in [-3, 3]; the min-pivot
    elimination that ``snf`` replaced ran past 15 s on 15 x 15 ones."""
    rng = random.Random(seed)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    start = time.perf_counter()
    got = snf(rows)
    assert time.perf_counter() - start < 1.0
    factors = invariant_factors(sympy.Matrix(rows), domain=ZZ)
    assert got == tuple(abs(int(x)) for x in factors if x)


def _sympy_hnf_columns(rows) -> list[tuple[int, ...]]:
    """sympy's (column-style) Hermite normal form of the transpose: its
    columns are a basis of the row lattice of ``rows``."""
    h = hermite_normal_form(sympy.Matrix(rows).T)
    return [tuple(int(x) for x in h.col(j)) for j in range(h.cols)]


def _in_column_lattice(columns, v) -> bool:
    """Whether v is an integer combination of linearly independent columns."""
    if not columns:
        return not any(v)
    a = sympy.Matrix([list(c) for c in columns]).T
    try:
        sol, params = a.gauss_jordan_solve(sympy.Matrix(v))
    except ValueError:  # no rational solution
        return False
    assert not params.shape[0]  # independent columns: the solution is unique
    return all(x.is_integer for x in sol)


@settings(max_examples=80, deadline=None)
@given(_matrices(_INTEGERS))
def test_hnf_matches_sympy(rows):
    """``hnf`` and sympy's HNF span the same lattice, and ``hnf`` is in row
    Hermite form: positive pivots, zeros below and reduced entries above."""
    if not rows or not rows[0]:
        return
    lat = hnf(rows)
    theirs = _sympy_hnf_columns(rows)
    assert lat.rank == len(theirs) == _sympy_rank(rows)
    assert all(lattice_member(lat, v) is not None for v in theirs)
    assert all(_in_column_lattice(theirs, row) for row in lat.basis)
    pivots = [next(j for j, x in enumerate(row) if x) for row in lat.basis]
    assert pivots == sorted(set(pivots))
    for i, (row, j) in enumerate(zip(lat.basis, pivots)):
        assert row[j] > 0
        assert all(0 <= above[j] < row[j] for above in lat.basis[:i])


@settings(max_examples=80, deadline=None)
@given(_matrices(_INTEGERS))
def test_snf_matches_sympy(rows):
    """``snf``'s elementary divisors are sympy's nonzero invariant factors."""
    if not rows or not rows[0]:
        return
    factors = invariant_factors(sympy.Matrix(rows), domain=ZZ)
    assert snf(rows) == tuple(abs(int(x)) for x in factors if x)


def test_integer_kernel():
    ker = integer_kernel([[1, 1, 1]], 3)
    assert ker.rank == 2
    assert all(sum(row) == 0 for row in ker.basis)
    assert integer_kernel([], 2).basis == ((1, 0), (0, 1))


def test_saturation_examples():
    assert saturation([[2, 2]]).basis == ((1, 1),)
    assert saturation([[1, 0], [0, 1]]).basis == ((1, 0), (0, 1))
    assert saturation([[0, 0]]).basis == ()
    vecs = _petersen_vectors()
    sat = saturation(vecs)
    lat = hnf(vecs)
    assert sat.rank == 6
    assert lattice_index(lat, sat) == 2


def test_saturation_contains_row_lattice_and_is_idempotent():
    rng = random.Random(9)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        sat = saturation(rows, 4)
        for row in hnf(rows, 4).basis:
            assert lattice_member(sat, row) is not None
        again = saturation([list(r) for r in sat.basis], 4)
        assert lattice_equal(sat, again)


def test_lattice_member_certificates_recombine():
    lat = hnf([[1, 0, 2], [0, 3, 1]])
    rng = random.Random(2)
    for _ in range(20):
        coeffs = [rng.randint(-5, 5) for _ in lat.basis]
        z = [sum(c * row[j] for c, row in zip(coeffs, lat.basis))
             for j in range(lat.ambient_dim)]
        got = lattice_member(lat, z)
        assert got is not None
        rebuilt = [sum(c * row[j] for c, row in zip(got, lat.basis))
                   for j in range(lat.ambient_dim)]
        assert rebuilt == z
    assert lattice_member(lat, [0, 1, 0]) is None
    assert lattice_member(hnf([[1, 0], [0, 1]]), [3, -2]) == (3, -2)


def test_lattice_index_examples():
    z2 = hnf([[1, 0], [0, 1]])
    sub = hnf([[2, 0], [0, 1]])
    assert lattice_index(sub, z2) == 2
    assert lattice_index(hnf([[2, 0]], 2), z2) == float("inf")
    with pytest.raises(ValueError):
        lattice_index(z2, sub)  # Z^2 is not inside the sublattice


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lattice_index_matches_oracle_snf_product(data):
    """sub is spanned by C times a basis of sup, so [sup : sub] is the
    product of C's elementary divisors (by the oracle) when C has full
    column rank, and infinite otherwise."""
    width = data.draw(st.integers(1, 6))
    small = st.integers(-4, 4)
    gens = data.draw(st.lists(st.lists(small, min_size=width, max_size=width),
                              min_size=1, max_size=5))
    sup = hnf(gens)
    coeffs = data.draw(st.lists(st.lists(small, min_size=sup.rank, max_size=sup.rank),
                                min_size=1, max_size=5))
    sub = hnf([[sum(c * row[j] for c, row in zip(cs, sup.basis)) for j in range(width)]
               for cs in coeffs], width)
    want = prod(oracle_snf(coeffs)) if oracle_rank(coeffs) == sup.rank else float("inf")
    assert lattice_index(sub, sup) == want


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(2, ((1, 0, 0),))
    with pytest.raises(ValueError):
        lattice_equal(hnf([[1]]), hnf([[1, 0]]))


@pytest.mark.parametrize("call", [
    lambda: lattice_member(hnf([[1, 0], [0, 1]]), [0.5, 0]),
    lambda: snf([[Fraction(1, 2), 0], [0, 1]]),
    lambda: hnf([[0.5, 1]]),
    lambda: integer_kernel([[0.5, 1]], 2),
    lambda: rank([[0.5, 1]]),
], ids=["lattice_member", "snf", "hnf", "integer_kernel", "rank"])
def test_non_integer_entries_are_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_affine_dim():
    assert affine_dim([]) == -1
    assert affine_dim([(1, 2)]) == 0
    assert affine_dim([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
