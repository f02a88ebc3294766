"""Checks against libraries that share no code with the package: sympy for
exact row reduction over Q(i), of subspaces and of linear maps, mpmath for
the Jacobi theta function."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussians, intersect_dim
from mixedhodge.curves import theta
from mixedhodge.filtration import common_window, induced_on_sub
from mixedhodge.invariants import chern_data
from mixedhodge.linalg import (
    full_space,
    image,
    intersect,
    kernel,
    row_space,
    span,
    subspace_sum,
)
from mixedhodge.mhs import assemble_extension, deligne_splitting, direct_sum_mhs
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
    basis = span(rows, n).to_json()
    if not rows:
        assert basis == []
        return
    reduced, pivots = _sympy_matrix(sympy, rows, n).rref()
    assert len(basis) == len(pivots)
    ours = _sympy_matrix(sympy, basis, n)
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
    for v in meet.to_json():
        assert _rank(sympy, rows_a + [v], n) == dim_a
        assert _rank(sympy, rows_b + [v], n) == dim_b


def _int_maps(max_dim: int):
    """(n, rows, a_rows): a map from Q(i)^n to Q(i)^len(rows) as
    Gaussian-integer rows, zero rows and zero maps included, and rows
    spanning a subspace of its source."""
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3))

    def rows(n, k):
        return st.lists(st.tuples(*[entry] * n), min_size=0, max_size=k)

    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda n: st.tuples(st.just(n), rows(n, max_dim), rows(n, n + 1))
    )


@settings(max_examples=150)
@given(_int_maps(4))
def test_kernel_and_image_against_sympy(data):
    # a subspace equals sympy's when it has sympy's dimension and each of
    # its rows passes sympy's membership test
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    n, rows, a_rows = data
    qq_i = sympy.QQ_I

    def dm(int_rows, width):
        return DomainMatrix(
            [[qq_i(x, y) for x, y in r] for r in int_rows], (len(int_rows), width), qq_i
        )

    m = len(rows)
    f = dm(rows, n)
    ker = kernel(rows, n)
    assert ker.dim == n - f.rank()
    for v in ker.rows:
        assert (f * dm([v], n).transpose()).is_zero_matrix
    # the image of a is spanned by f applied to a's rows, the columns of f A^T
    a = row_space(list(a_rows), n)
    ours = image(rows, a)
    theirs = (f * dm(a_rows, n).transpose()).transpose()
    rank = theirs.rank()
    assert ours.dim == rank
    for v in ours.rows:
        assert theirs.vstack(dm([v], m)).rank() == rank


def test_rational_lift_extension_against_sympy():
    # the Hodge levels of an extension are the span of a's levels and the
    # graph (lift v, v) of b's, with the lift's entries rational
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq_i = sympy.QQ_I
    rng = random.Random("rational lift")
    a = random_mhs(rng, 3, weight_range=(-2, 0))
    b = random_mhs(rng, 3, weight_range=(1, 3))
    na, nb = a.ambient_dim, b.ambient_dim
    den = 6
    rows = tuple(
        tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(nb))
        for _ in range(na)
    )
    total = assemble_extension(a, b, (rows, den))
    lift = [[qq_i(Fraction(x, den), Fraction(y, den)) for x, y in r] for r in rows]
    n = na + nb
    for p in common_window(a.F, b.F):
        vecs = [[qq_i(x, y) for x, y in r] + [qq_i(0)] * nb for r in a.F.at(p).rows]
        for v in b.F.at(p).rows:
            w = [qq_i(x, y) for x, y in v]
            graph = [sum((c * e for c, e in zip(r, w)), qq_i(0)) for r in lift]
            vecs.append(graph + w)
        level = total.F.at(p)
        want = DomainMatrix(vecs, (len(vecs), n), qq_i).rank() if vecs else 0
        assert level.dim == want
        ours = [[qq_i(x, y) for x, y in r] for r in level.rows]
        both = vecs + ours
        assert (DomainMatrix(both, (len(both), n), qq_i).rank() if both else 0) == want


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
            [[qq_i(a, b) for a, b in row] for row in f.rows],
            (dst.ambient_dim, src.ambient_dim), qq_i,
        )
        assert chern_data(f.kernel()).c1 == 0
        ker = kernel(f.rows, src.ambient_dim)
        assert c1(src.triple(), ker, mat.nullspace().to_list()) == 0
        im = image(f.rows, full_space(src.ambient_dim))
        im_rows = mat.columnspace().transpose().to_list()
        assert c1(dst.triple(), im, im_rows) == 0
        seen["kernels"] += 0 < ker.dim < src.ambient_dim
        seen["images"] += 0 < im.dim < dst.ambient_dim
    # the draws reach proper subspaces of each kind
    assert min(seen.values()) >= 10, seen
