"""Checks against libraries that share no code with the package: sympy for
exact row reduction over Q(i), mpmath for the Jacobi theta function."""

from __future__ import annotations

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussians
from mixedhodge.curves import theta
from mixedhodge.linalg import intersect, span


def _sympy_matrix(sympy, rows, n):
    return sympy.Matrix(
        len(rows),
        n,
        [
            sympy.Rational(e.re.numerator, e.re.denominator)
            + sympy.I * sympy.Rational(e.im.numerator, e.im.denominator)
            for row in rows
            for e in row
        ],
    )


def _rank(sympy, rows, n) -> int:
    return _sympy_matrix(sympy, rows, n).rank() if rows else 0


def _row_lists(n: int, max_rows: int):
    entry = gaussians(max_num=4, max_den=3)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=0, max_size=max_rows
    )


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), _row_lists(n, 4))
))
def test_span_basis_is_sympy_rref(data):
    sympy = pytest.importorskip("sympy")
    n, rows = data
    basis = span(rows, n).basis
    if not rows:
        assert basis.rows == 0
        return
    reduced, pivots = _sympy_matrix(sympy, rows, n).rref()
    assert basis.rows == len(pivots)
    ours = _sympy_matrix(sympy, basis.row_list(), n)
    assert sympy.simplify(ours - reduced[: len(pivots), :]).is_zero_matrix


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), _row_lists(n, 3), _row_lists(n, 3))
))
def test_intersection_dimension_and_members_against_sympy(data):
    sympy = pytest.importorskip("sympy")
    n, rows_a, rows_b = data
    meet = intersect(span(rows_a, n), span(rows_b, n))
    dim_a, dim_b = _rank(sympy, rows_a, n), _rank(sympy, rows_b, n)
    assert meet.dim == dim_a + dim_b - _rank(sympy, rows_a + rows_b, n)
    for v in meet.basis.row_list():
        assert _rank(sympy, rows_a + [v], n) == dim_a
        assert _rank(sympy, rows_b + [v], n) == dim_b


@pytest.mark.parametrize(
    "z, tau",
    [
        (0.2 + 0.1j, 0.3 + 1.1j),
        (-0.45 + 0.3j, -0.25 + 0.8j),
        (0.1 + 0.0j, 1j),
        (0.7 - 0.4j, 0.5 + 1.6j),
    ],
)
def test_theta_matches_mpmath_jtheta(z, tau):
    mpmath = pytest.importorskip("mpmath")
    q = cmath.exp(1j * cmath.pi * tau)
    want = complex(mpmath.jtheta(3, mpmath.pi * z, q))
    assert abs(theta(z, tau) - want) <= 1e-12 * max(1.0, abs(want))
