"""Exact linear algebra: echelon forms, staircase bases, Smith form."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentcat import modlin
from tangentcat.errors import InconsistentClassification
from tangentcat.groebner import groebner_basis
from tangentcat.modlin import (
    _mat_mul_int,
    coords,
    fd_basis,
    integer_right_inverse,
    kernel_basis,
    matrix_rank,
    rational_rank,
    smith_form,
    solve_linear,
)
from tangentcat.polycore import QQ, context, poly_parse, prime_field

F2 = prime_field(2)
F7 = prime_field(7)


def frac(rows):
    return [[Fraction(x) for x in row] for row in rows]


# --- rank, kernel, solve ----------------------------------------------------

def test_rank_over_qq_and_f2():
    assert matrix_rank(frac([[1, 2], [2, 4]]), QQ) == 1
    assert matrix_rank(frac([[1, 2], [2, 5]]), QQ) == 2
    # the same integer matrix drops rank mod 2
    assert matrix_rank([[1, 1], [1, 1]], F2) == 1
    assert rational_rank([[1, 1], [1, 1]]) == 1


def test_kernel_of_sum_map():
    kb = kernel_basis(frac([[1, 1]]), QQ)
    assert kb == [[Fraction(-1), Fraction(1)]]


def test_kernel_without_constraints_needs_ncols():
    assert kernel_basis([], QQ, ncols=2) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]
    with pytest.raises(Exception):
        kernel_basis([], QQ)


def test_solve_feasible_and_infeasible():
    rows = frac([[2, 0], [0, 3]])
    sol = solve_linear(rows, [Fraction(1), Fraction(1)], QQ)
    assert sol == [Fraction(1, 2), Fraction(1, 3)]
    assert solve_linear(frac([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)], QQ) is None


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
)
def test_solve_then_substitute(mat, xs):
    rows = frac(mat)
    x = [Fraction(v) for v in xs]
    rhs = [sum(r[j] * x[j] for j in range(3)) for r in rows]
    sol = solve_linear(rows, rhs, QQ)
    assert sol is not None
    assert [sum(r[j] * sol[j] for j in range(3)) for r in rows] == rhs


# --- differential checks of the elimination layer --------------------------

def random_system(rng, entry, max_cols=6):
    """A small seeded system with zero rows and columns, low rank and an
    infeasible right-hand side among the draws."""
    m, n = rng.randint(0, 6), rng.randint(0, max_cols)
    if m and n and rng.random() < 0.3:
        r = rng.randint(0, min(m, n))
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        rows = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(m)]
    else:
        density = rng.choice((0.2, 0.5, 0.9))
        rows = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
    if m and rng.random() < 0.3:
        rows[rng.randrange(m)] = [0] * n
    if n and rng.random() < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    if rng.random() < 0.5:
        x = [rng.randint(-3, 3) for _ in range(n)]
        rhs = [sum(c * v for c, v in zip(row, x)) for row in rows]
    else:
        rhs = [rng.randint(-3, 3) for _ in range(m)]
    return [[entry(rng, c) for c in row] for row in rows], [entry(rng, c) for c in rhs], n


def _int_entry(_rng, c):
    return c


def _fraction_entry(rng, c):
    return Fraction(c, rng.choice((1, 1, 2, 3, 5)))


@pytest.mark.parametrize("entry", [_int_entry, _fraction_entry], ids=["int", "Fraction"])
def test_elimination_matches_sympy_over_q(entry):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(150):
        rows, rhs, n = random_system(rng, entry)
        m = len(rows)
        A = sympy.Matrix(m, n, [sympy.Rational(c.numerator, c.denominator) for row in rows for c in row])
        b = sympy.Matrix(m, 1, [sympy.Rational(c.numerator, c.denominator) for c in rhs])
        rank = A.rank()
        assert matrix_rank(rows, QQ) == rank
        assert rational_rank(rows) == rank
        theirs = [[Fraction(int(c.p), int(c.q)) for c in v] for v in A.nullspace()]
        assert kernel_basis(rows, QQ, ncols=n) == theirs
        sol = solve_linear(rows, rhs, QQ)
        if not rows:
            assert sol == []  # no equation gives the column count
            continue
        if A.row_join(b).rank() > rank:
            assert sol is None
            continue
        assert [sum(c * v for c, v in zip(row, sol)) for row in rows] == rhs
        pivots = A.rref()[1]
        assert all(sol[j] == 0 for j in range(n) if j not in pivots)


@pytest.mark.parametrize("dom", [F2, F7], ids=["F2", "F7"])
def test_elimination_over_prime_fields_by_enumeration(dom):
    p = dom.p
    rng = random.Random(11)
    for _ in range(150):
        rows, rhs, n = random_system(rng, _int_entry, max_cols=3)
        vectors = list(itertools.product(range(p), repeat=n))

        def image(x):
            return [sum(c * v for c, v in zip(row, x)) % p for row in rows]

        kernel = [x for x in vectors if not any(image(x))]
        rank = matrix_rank(rows, dom)
        assert len(kernel) == p ** (n - rank)
        basis = kernel_basis(rows, dom, ncols=n)
        assert len(basis) == n - rank
        # the unit of each basis vector sits at its free column, its last nonzero
        free = [max(j for j, c in enumerate(v) if c) for v in basis]
        for v, j in zip(basis, free):
            assert not any(image(v))
            assert [v[k] for k in free] == [1 if k == j else 0 for k in free]
        sol = solve_linear(rows, rhs, dom)
        if not rows:
            assert sol == []
            continue
        target = [c % p for c in rhs]
        if not any(image(x) == target for x in vectors):
            assert sol is None
            continue
        assert image(sol) == target
        assert all(sol[j] == 0 for j in free)


# --- staircase bases --------------------------------------------------------

def test_staircase_basis_matches_frozen_value():
    ctx = context("x", "y")
    gb = groebner_basis(
        (poly_parse("x^2 - y", ctx, QQ), poly_parse("y^2 - y", ctx, QQ))
    )
    basis = fd_basis(gb, 2)
    # frozen: standard monomials 1, y, x, x*y
    assert basis == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_infinite_staircase_is_none():
    ctx = context("x", "y")
    gb = groebner_basis((poly_parse("x^2", ctx, QQ),))
    assert fd_basis(gb, 2) is None


def test_coords_on_a_staircase():
    ctx = context("x", "y")
    gb = groebner_basis(
        (poly_parse("x^2 - y", ctx, QQ), poly_parse("y^2 - y", ctx, QQ))
    )
    basis = fd_basis(gb, 2)
    index = {m: i for i, m in enumerate(basis)}
    v = coords(gb.normal_form(poly_parse("x*y + 3", ctx, QQ)), index, QQ)
    assert v == [Fraction(3), Fraction(0), Fraction(0), Fraction(1)]


# --- Smith form -------------------------------------------------------------

def test_smith_diagonal_divisibility():
    d, _, _ = smith_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    d, _, _ = smith_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_smith_transform_identity():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = smith_form(mat)
    assert _mat_mul_int(_mat_mul_int(u, mat), v) == d
    diag = [d[i][i] for i in range(3)]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0


def test_integer_right_inverse():
    x = integer_right_inverse([[1, 1]])
    assert _mat_mul_int([[1, 1]], x) == [[1]]
    assert integer_right_inverse([[2]]) is None
    assert integer_right_inverse([[2, 3]]) is not None  # gcd 1
    assert integer_right_inverse([[2, 4]]) is None  # gcd 2


def test_integer_right_inverse_verifies_the_smith_form(monkeypatch):
    # a Smith form whose transforms do not reproduce M gives a wrong inverse
    monkeypatch.setattr(modlin, "smith_form", lambda mat: ([[1]], [[1]], [[1]]))
    with pytest.raises(InconsistentClassification, match="right inverse failed to verify"):
        integer_right_inverse([[2]])
