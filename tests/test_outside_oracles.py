"""Checks against libraries that share no code with the package: sympy for
exact row reduction over Q(i), mpmath for the Jacobi theta function."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussians
from mixedhodge.curves import theta
from mixedhodge.filtration import induced_on_sub
from mixedhodge.invariants import chern_data
from mixedhodge.linalg import (
    full_space,
    image,
    intersect,
    intersect_dim,
    kernel,
    row_space,
    span,
    subspace_sum,
)
from mixedhodge.mhs import deligne_splitting, direct_sum_mhs
from mixedhodge.multifilt import TrifilteredSpace
from mixedhodge.sampling import random_compatible_morphism, random_mhs


def _sympy_matrix(sympy, rows, n):
    return sympy.Matrix(
        len(rows),
        n,
        [
            sympy.Rational(a, b) + sympy.I * sympy.Rational(c, d)
            for row in rows
            for a, b, c, d in row
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
    a, b = span(rows_a, n), span(rows_b, n)
    meet = intersect(a, b)
    dim_a, dim_b = _rank(sympy, rows_a, n), _rank(sympy, rows_b, n)
    want = dim_a + dim_b - _rank(sympy, rows_a + rows_b, n)
    assert meet.dim == want
    assert intersect_dim(a, b) == want
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


def _qi_rank(sympy, rows, n) -> int:
    """Rank over Q(i) of rows of sympy ``QQ_I`` elements."""
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix(rows, (len(rows), n), sympy.QQ_I).rank() if rows else 0


def _first_moment_c1(sympy, t, rows) -> int:
    """c1 of the subspace V' spanned by ``rows`` (``QQ_I`` lists), with the
    filtrations of t restricted to it: the sum over X in (W, F, G) and p of
    p dim gr_X^p V', where dim(V' ∩ X^p) comes from three ranks."""
    n = t.ambient_dim
    dim = _qi_rank(sympy, rows, n)
    c1 = 0
    for x in (t.W, t.F, t.G):
        above = dim  # dim(V' ∩ X^p) below the first jump
        for key, level in x.levels:
            lev = [[sympy.QQ_I(a, b) for a, b in row] for row in level.rows]
            meet = dim + _qi_rank(sympy, lev, n) - _qi_rank(sympy, rows + lev, n)
            c1 += (key - 1) * (above - meet)  # gr_X^{key-1} of V'
            above = meet
    return c1


def test_subspaces_of_a_structure_have_nonpositive_c1():
    # the Rees bundle of a structure is semistable with c1 = 0: every
    # subspace with its induced filtrations has c1 <= 0, and the kernel
    # and image of a morphism of structures, sub-structures, have c1 = 0
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq_i = sympy.QQ_I

    def c1(t, sub, rows) -> int:
        ours = chern_data(
            TrifilteredSpace(sub.dim, *(induced_on_sub(x, sub) for x in (t.W, t.F, t.G)))
        ).c1
        assert ours == _first_moment_c1(sympy, t, rows)
        return ours

    rng = random.Random("semistable")
    seen = {"negative": 0, "kernels": 0, "images": 0}
    for _ in range(20):
        m = random_mhs(rng, max_dim=5)
        t, n = m.triple(), m.ambient_dim
        assert c1(t, full_space(n), [[qq_i(int(i == j), 0) for j in range(n)]
                                     for i in range(n)]) == 0
        for _ in range(3):
            rows = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            sub = row_space([list(r) for r in rows], n)
            value = c1(t, sub, [[qq_i(a, b) for a, b in r] for r in rows])
            assert value <= 0
            seen["negative"] += value < 0
        pieces = list(deligne_splitting(m).values())
        for _ in range(3):
            chosen = rng.sample(pieces, rng.randint(1, len(pieces)))
            sub = chosen[0]
            for piece in chosen[1:]:
                sub = subspace_sum(sub, piece)
            rows = [[qq_i(a, b) for a, b in r] for v in chosen for r in v.rows]
            assert c1(t, sub, rows) <= 0

        # a ⊕ b -> a ⊕ c: b maps to zero, a by a compatible endomorphism
        a = random_mhs(rng, max_dim=3)
        src = direct_sum_mhs(a, random_mhs(rng, max_dim=2))
        dst = direct_sum_mhs(a, random_mhs(rng, max_dim=2))
        f = random_compatible_morphism(rng, src, dst)
        mat = DomainMatrix(
            [[qq_i(Fraction(a, b), Fraction(c, d)) for a, b, c, d in row]
             for row in f.matrix.row_list()],
            (f.matrix.rows, f.matrix.cols), qq_i,
        )
        assert chern_data(f.kernel()).c1 == 0
        ker = kernel(f.matrix)
        assert c1(src.triple(), ker, mat.nullspace().to_list()) == 0
        im = image(f.matrix, full_space(src.ambient_dim))
        im_rows = mat.columnspace().transpose().to_list()
        assert c1(dst.triple(), im, im_rows) == 0
        seen["kernels"] += 0 < ker.dim < src.ambient_dim
        seen["images"] += 0 < im.dim < dst.ambient_dim
    # the draws reach proper subspaces of each kind
    assert min(seen.values()) >= 10, seen
