from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import package_caches, subspaces, vectors
from mixedhodge.exactfield import I, ONE, ZERO, gauss
from mixedhodge.linalg import (
    Matrix,
    Subspace,
    _canonical,
    _intersect,
    _intersect_dim,
    _sum,
    annihilator,
    conj_subspace,
    full_space,
    image,
    intersect,
    intersect_dim,
    kernel,
    matrix,
    reduce_mod,
    rref,
    span,
    subspace_sum,
    zero_subspace,
)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, (ONE, ZERO, ONE))
    with pytest.raises(ValueError):
        matrix([[1, 0], [1]])


def test_rref_fixed_value():
    # the second row is i times the first, so the rank collapses to 1
    m = matrix([[1, I], [I, -1]])
    reduced, rank = rref(m)
    assert rank == 1
    assert reduced == matrix([[1, I], [0, 0]])


def test_rref_identity_is_fixed_point():
    identity = matrix([[int(i == j) for j in range(3)] for i in range(3)])
    reduced, rank = rref(identity)
    assert reduced == identity
    assert rank == 3


def test_span_canonicalizes():
    a = span([[2, 0, 1], [0, 3, 0], [2, 3, 1]], 3)
    assert a.dim == 2
    assert a.basis == matrix([[1, 0, gauss(1) / gauss(2)], [0, 1, 0]])


def test_subspace_invariants_enforced():
    assert Subspace(2, (((1, 0), (1, -1)),)).dim == 1
    bad = [
        ((((2, 0), (0, 2)),), "not primitive"),
        ((((0, 1), (1, 0)),), "not a positive integer"),  # pivot i
        ((((-1, 0), (1, 0)),), "not a positive integer"),
        ((((0, 0), (0, 0)),), "zero row"),
        ((((0, 0), (1, 0)), ((1, 0), (0, 0))), "not strictly increasing"),
        ((((1, 0), (1, 0)), ((0, 0), (1, 0))), "not cleared"),
        ((((1, 0),),), "ambient width"),
    ]
    for rows, msg in bad:
        with pytest.raises(ValueError, match=msg):
            Subspace(2, rows)
    with pytest.raises(ValueError, match="tuple"):
        Subspace(2, matrix([[1, 0]]))  # a Q(i) matrix is not the stored form


def test_integer_rows_basis_and_conjugate_fixed_value():
    a = span([[4, 0, 2 + 2 * I], [2, 3, 2 + I]], 3)
    assert a.rows == (((2, 0), (0, 0), (1, 1)), ((0, 0), (3, 0), (1, 0)))
    half = gauss(1) / gauss(2)
    assert a.basis == matrix([[1, 0, half + half * I], [0, 1, gauss(1) / gauss(3)]])
    b = conj_subspace(a)
    assert b.rows == (((2, 0), (0, 0), (1, -1)), ((0, 0), (3, 0), (1, 0)))
    assert Subspace(3, b.rows) == b == span([[2, 0, 1 - I], [0, 3, 1]], 3)
    # a non-real pivot is rotated to a positive integer
    assert span([[1 + I, 2]], 2).rows == (((1, 0), (1, -1)),)


def test_intersection_fixed_value():
    a = span([(gauss(1), I)], 2)
    b = span([(gauss(1), -I)], 2)
    assert intersect(a, b) == zero_subspace(2)
    assert subspace_sum(a, b) == full_space(2)


def test_containment_and_contains():
    a = span([[1, 0, 0], [0, 1, 0]], 3)
    b = span([[1, 1, 0]], 3)
    assert b <= a
    assert not (a <= b)
    assert a.contains((gauss(2), gauss(-3), gauss(0)))
    assert not a.contains((gauss(0), gauss(0), gauss(1)))


def test_coordinates_and_reduce_mod():
    a = span([[1, 0, 2], [0, 1, 3]], 3)
    v = (gauss(2), gauss(-1), gauss(1))
    w = (gauss(0), gauss(0), gauss(1))
    r = reduce_mod(a, w)
    assert r == w  # already orthogonal to the pivot columns
    assert reduce_mod(a, v) == (ZERO, ZERO, ZERO)


def test_kernel_image_fixed_values():
    f = matrix([[1, 0, 1], [0, 1, 1]])
    k = kernel(f)
    assert k.dim == 1
    assert k.contains((gauss(-1), gauss(-1), gauss(1)))
    assert image(f, full_space(3)) == full_space(2)
    assert image(f, zero_subspace(3)) == zero_subspace(2)


def test_annihilator_dims():
    a = span([[1, I, 0]], 3)
    ann = annihilator(a)
    assert ann.dim == 2
    # every functional in the annihilator kills every vector of a
    for i in range(ann.dim):
        y = ann.basis.row(i)
        v = a.basis.row(0)
        acc = ZERO
        for p, q in zip(y, v):
            acc = acc + p * q
        assert not acc
    assert annihilator(zero_subspace(3)) == full_space(3)
    assert annihilator(full_space(3)) == zero_subspace(3)


def test_conj_subspace_fixed_value():
    a = span([(gauss(1), I)], 2)
    assert conj_subspace(a) == span([(gauss(1), -I)], 2)
    assert conj_subspace(conj_subspace(a)) == a


@settings(max_examples=500)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(subspaces(n), subspaces(n))
))
def test_dimension_formula(pair):
    a, b = pair
    assert (
        intersect(a, b).dim + subspace_sum(a, b).dim == a.dim + b.dim
    )


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(subspaces(n), subspaces(n), subspaces(n))
))
def test_modular_law(triple):
    a, b, c = triple
    # the law needs a <= c; force it by enlarging c
    c = subspace_sum(a, c)
    lhs = subspace_sum(a, intersect(b, c))
    rhs = intersect(subspace_sum(a, b), c)
    assert lhs == rhs


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(subspaces(n), subspaces(n))
))
def test_conjugation_commutes_with_lattice_ops(pair):
    a, b = pair
    assert conj_subspace(conj_subspace(a)) == a
    assert conj_subspace(subspace_sum(a, b)) == subspace_sum(
        conj_subspace(a), conj_subspace(b)
    )
    assert conj_subspace(intersect(a, b)) == intersect(
        conj_subspace(a), conj_subspace(b)
    )


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(subspaces(n), subspaces(n))
))
def test_intersection_is_largest_common_subspace(pair):
    a, b = pair
    c = intersect(a, b)
    assert c <= a and c <= b
    assert a <= subspace_sum(a, b)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), subspaces(n), st.lists(
        vectors(n), min_size=n, max_size=n
    ))
))
def test_rank_nullity_and_preimage_roundtrip(data):
    n, b, rows = data
    f = matrix([list(r) for r in rows])
    assert image(f, full_space(n)).dim + kernel(f).dim == n
    assert image(f, kernel(f)).is_zero


def _copy(a: Subspace) -> Subspace:
    """An equal subspace sharing no row tuple with a."""
    return Subspace(a.ambient_dim, tuple(tuple(list(row)) for row in a.rows))


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(subspaces(n), subspaces(n), subspaces(n))
))
def test_memoized_ops_match_cold_results(triple):
    a, b, c = triple
    ops = (intersect, intersect_dim, subspace_sum)
    memos = (_intersect, _intersect_dim, _sum)
    for memo in memos:
        memo.cache_clear()
    cold = [op(a, b) for op in ops]
    assert cold == [memo.__wrapped__(a, b) for memo in memos]
    # neighbouring pairs share the memo; they must not shadow (a, b)
    for x, y in ((b, a), (a, c), (c, b)):
        assert [op(x, y) for op in ops] == [memo.__wrapped__(x, y) for memo in memos]
    misses = sum(memo.cache_info().misses for memo in memos)
    warm = [op(_copy(a), _copy(b)) for op in ops]
    assert warm == cold
    # equal but distinct operands find the cached results: nothing reruns
    assert sum(memo.cache_info().misses for memo in memos) == misses
    assert intersect_dim(a, b) == intersect(a, b).dim


@st.composite
def int_row_lists(draw, n: int) -> list:
    """Gaussian-integer rows, with zero, repeated and dependent rows mixed in."""
    entry = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    rows = draw(st.lists(st.tuples(*[entry] * n), max_size=n + 1))
    extra = [((0, 0),) * n] if draw(st.booleans()) else []
    if rows:
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c, d = draw(entry)  # u + (c + di) v lies in the span already
        extra.append(u)
        extra.append(tuple(
            (a + c * x - d * y, b + c * y + d * x) for (a, b), (x, y) in zip(u, v)
        ))
    return list(draw(st.permutations(rows + extra)))


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), int_row_lists(n), int_row_lists(n))
))
def test_canonical_rows_pass_the_full_check(data):
    # the kernel wraps these rows without Subspace's check; run it here
    n, rows_a, rows_b = data
    a = Subspace(n, _canonical(list(rows_a)))
    b = Subspace(n, _canonical(list(rows_b)))
    assert span([[gauss(x, y) for x, y in r] for r in rows_a], n) == a
    assert _sum.__wrapped__(a, b) == Subspace(n, _canonical([*rows_a, *rows_b]))
    assert subspace_sum(a, b) == _sum.__wrapped__(a, b)
    conj_rows = [tuple((x, -y) for x, y in r) for r in rows_a]
    assert conj_subspace(a) == Subspace(n, _canonical(conj_rows))
    meet = _intersect.__wrapped__(a, b)
    assert intersect(a, b) == meet == _intersect.__wrapped__(b, a)
    assert meet.dim == a.dim + b.dim - subspace_sum(a, b).dim
    for out in (meet, _sum.__wrapped__(a, b), conj_subspace(a)):
        assert Subspace(n, out.rows) == out
        assert Subspace(n, _canonical(list(out.rows))) == out


def test_package_caches_are_bounded():
    caches = package_caches()
    names = {cache.__name__ for cache in caches}
    assert {"_intersect", "_intersect_dim", "_sum", "full_space"} <= names
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] is not None, cache.__name__
