from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_canonical,
    int_map,
    intersect_dim,
    package_caches,
    reference_step,
    subspaces,
    vectors,
)
from mixedhodge.exactfield import I, MAX_ENTRY_BITS, ZERO, gauss
from mixedhodge.linalg import (
    Subspace,
    _echelon,
    _in_basis,
    _pivot,
    _real_pivot,
    _reduce_step,
    annihilator,
    conj_subspace,
    full_space,
    image,
    intersect,
    kernel,
    reduce_mod,
    row_space,
    rref,
    span,
    subspace_sum,
    zero_subspace,
)


def qi_json(rows: list[list]) -> list:
    """Rows of Q(i) values, each entry through ``gauss``, as JSON rows of
    quadruples."""
    return [[list(gauss(e)) for e in r] for r in rows]


def test_matrix_shape_validation():
    # a map's rows must be as wide as the space it acts on
    f = int_map([[1, 0], [0, 1]])
    assert image(f, full_space(2)) == full_space(2)
    with pytest.raises(
        ValueError, match="^subspace ambient dimension does not match matrix columns$"
    ):
        image(f, full_space(3))
    with pytest.raises(ValueError, match="matrix columns"):
        image(((), ((1, 0),)), zero_subspace(0))


def test_rref_fixed_value():
    # the second row is i times the first, so the rank collapses to 1
    reduced, rank = rref([[1, I], [I, -1]], 2)
    assert rank == 1
    assert reduced == [(gauss(1), I), (ZERO, ZERO)]


def test_rref_identity_is_fixed_point():
    identity = [tuple(gauss(int(i == j)) for j in range(3)) for i in range(3)]
    reduced, rank = rref(identity, 3)
    assert reduced == identity
    assert rank == 3
    assert rref([(), ()], 0) == ([(), ()], 0)


def test_span_canonicalizes():
    a = span([[2, 0, 1], [0, 3, 0], [2, 3, 1]], 3)
    assert a.dim == 2
    assert a.to_json() == qi_json([[1, 0, Fraction(1, 2)], [0, 1, 0]])


def test_subspace_invariants_enforced():
    # Subspace trusts its rows; the tests check the stored form instead
    good = Subspace(2, (((1, 0), (1, -1)),))
    assert good.dim == 1
    assert_canonical(good)
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
        with pytest.raises(AssertionError, match=msg):
            assert_canonical(Subspace(2, rows))
    with pytest.raises(AssertionError, match="tuple"):
        # a list of Q(i) rows is not the stored form
        assert_canonical(Subspace(2, [(gauss(1), ZERO)]))


def test_vector_common_denominator_is_capped():
    # each entry is small, but a row is scaled by the lcm of its entries'
    # denominators: 2**64 * 3**40 has 128 bits, 2**64 * 3**41 has 129
    at_cap = [Fraction(1, 2**64), Fraction(1, 3**40)]
    assert span([at_cap], 2).dim == 1
    with pytest.raises(
        ValueError,
        match=f"^vector common denominator of {MAX_ENTRY_BITS + 1} bits exceeds "
        f"the limit of {MAX_ENTRY_BITS} bits$",
    ):
        span([[1, 1], [Fraction(1, 2**64), Fraction(1, 3**41)]], 2)


def test_integer_rows_basis_and_conjugate_fixed_value():
    a = span([[4, 0, gauss(2, 2)], [2, 3, gauss(2, 1)]], 3)
    assert a.rows == (((2, 0), (0, 0), (1, 1)), ((0, 0), (3, 0), (1, 0)))
    half = Fraction(1, 2)
    assert a.to_json() == qi_json([[1, 0, gauss(half, half)], [0, 1, Fraction(1, 3)]])
    b = conj_subspace(a)
    assert b.rows == (((2, 0), (0, 0), (1, -1)), ((0, 0), (3, 0), (1, 0)))
    assert Subspace(3, b.rows) == b == span([[2, 0, gauss(1, -1)], [0, 3, 1]], 3)
    # a non-real pivot is rotated to a positive integer
    assert span([[gauss(1, 1), 2]], 2).rows == (((1, 0), (1, -1)),)


def test_intersection_fixed_value():
    a = span([(gauss(1), I)], 2)
    b = span([(gauss(1), gauss(0, -1))], 2)
    assert intersect(a, b) == zero_subspace(2)
    assert subspace_sum(a, b) == full_space(2)


def test_containment_and_contains():
    a = span([[1, 0, 0], [0, 1, 0]], 3)
    b = span([[1, 1, 0]], 3)
    assert b <= a
    assert not (a <= b)
    assert span([(gauss(2), gauss(-3), gauss(0))], 3) <= a
    assert not span([(gauss(0), gauss(0), gauss(1))], 3) <= a


def test_coordinates_and_reduce_mod():
    a = span([[1, 0, 2], [0, 1, 3]], 3)
    v = (gauss(2), gauss(-1), gauss(1))
    w = (gauss(0), gauss(0), gauss(1))
    r = reduce_mod(a, w)
    assert r == w  # already orthogonal to the pivot columns
    assert reduce_mod(a, v) == (ZERO, ZERO, ZERO)


def test_kernel_image_fixed_values():
    f = int_map([[1, 0, 1], [0, 1, 1]])
    k = kernel(f, 3)
    assert k.dim == 1
    assert span([(gauss(-1), gauss(-1), gauss(1))], 3) <= k
    assert image(f, full_space(3)) == full_space(2)
    assert image(f, zero_subspace(3)) == zero_subspace(2)


def test_annihilator_dims():
    a = span([[1, I, 0]], 3)
    ann = annihilator(a)
    assert ann.dim == 2
    # every functional in the annihilator kills every vector of a; the
    # integer rows are multiples of the basis rows, so they pair alike
    (v,) = a.rows
    for y in ann.rows:
        assert sum(p[0] * q[0] - p[1] * q[1] for p, q in zip(y, v)) == 0
        assert sum(p[0] * q[1] + p[1] * q[0] for p, q in zip(y, v)) == 0
    assert annihilator(zero_subspace(3)) == full_space(3)
    assert annihilator(full_space(3)) == zero_subspace(3)


def test_conj_subspace_fixed_value():
    a = span([(gauss(1), I)], 2)
    assert conj_subspace(a) == span([(gauss(1), gauss(0, -1))], 2)
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
    f = int_map([list(r) for r in rows])
    assert image(f, full_space(n)).dim + kernel(f, n).dim == n
    assert image(f, kernel(f, n)).is_zero


def _copy(a: Subspace) -> Subspace:
    """An equal subspace sharing no row tuple with a."""
    return Subspace(a.ambient_dim, tuple(tuple(list(row)) for row in a.rows))


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(subspaces(n), subspaces(n), subspaces(n))
))
def test_memoized_ops_match_cold_results(triple):
    # intersect and subspace_sum keep no memo (the level tables above them
    # do): equal but distinct operands give equal results, and the
    # per-pair oracle for those tables agrees with intersect
    a, b, c = triple
    ops = (intersect, intersect_dim, subspace_sum)
    cold = [op(a, b) for op in ops]
    assert cold[1] == cold[0].dim
    for x, y in ((b, a), (a, c), (c, b)):
        assert intersect_dim(x, y) == intersect(x, y).dim
    warm = [op(_copy(a), _copy(b)) for op in ops]
    assert warm == cold


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
    # Subspace(n, rows) trusts its rows, so check every way linalg builds
    # them: row_space, span, sum and intersection, conjugation, image,
    # kernel, annihilator, coordinates in a basis, the zero and full spaces
    n, rows_a, rows_b = data
    given = list(rows_a)
    a = row_space(given, n)
    assert given == rows_a  # row_space leaves the list it reads as it was
    b = row_space(list(rows_b), n)
    assert span([[gauss(x, y) for x, y in r] for r in rows_a], n) == a
    join = subspace_sum(a, b)
    assert join == row_space([*rows_a, *rows_b], n)
    conj_rows = [tuple((x, -y) for x, y in r) for r in rows_a]
    assert conj_subspace(a) == row_space(conj_rows, n)
    meet = intersect(a, b)
    assert meet == intersect(b, a)
    assert meet.dim == a.dim + b.dim - join.dim
    # a map with a rational row, cleared into integer rows
    f = int_map(
        [[gauss(x, y) for x, y in r] for r in rows_b]
        + [[Fraction(1, k + 2) for k in range(n)]]
    )
    outs = (
        a, b, meet, join, conj_subspace(a), image(f, a),
        kernel(f, n), annihilator(a), _in_basis(a, meet.rows), zero_subspace(n),
        full_space(n),
    )
    for out in outs:
        assert_canonical(out)
        assert row_space(list(out.rows), out.ambient_dim) == out


_ENTRY = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
_NONZERO = _ENTRY.filter(lambda e: e != (0, 0))


@st.composite
def reduction_steps(draw) -> tuple:
    """(prow, row, col, start) as ``_echelon`` and ``_canonical`` pass them
    to ``_reduce_step``: prow leads at col with a positive integer and row
    is nonzero there.  In echelon form (start = col + 1) row vanishes left
    of col; in back substitution (start < col) it vanishes left of start.
    Some rows are multiples of prow, which reduce to zero, and a common
    factor k of both rows gives the result a content of at least k**2."""
    n = draw(st.integers(1, 8))
    col = draw(st.integers(0, n - 1))
    start = draw(st.sampled_from([col + 1, *range(col)]))
    zero = (0, 0)
    prow = [zero] * col + [(draw(st.integers(1, 6)), 0)]
    prow += [draw(_ENTRY) for _ in range(col + 1, n)]
    if draw(st.booleans()):
        ma, mb = draw(_NONZERO)
        row = [(ma * a - mb * b, ma * b + mb * a) for a, b in prow]
    else:
        lo = min(col, start)
        row = [zero] * lo + [draw(_ENTRY) for _ in range(lo, n)]
        row[col] = draw(_NONZERO)
    k = draw(st.integers(1, 3))
    return (
        [(k * a, k * b) for a, b in prow], [(k * a, k * b) for a, b in row],
        col, start,
    )


@settings(max_examples=400)
@given(reduction_steps())
# a zero result: row is i times prow
@example(([(2, 0), (1, -1)], [(0, 2), (1, 1)], 0, 1))
# pivots in the last column: in echelon form nothing is left, in back
# substitution the result has content 3
@example(([(0, 0), (0, 0), (3, 0)], [(0, 0), (0, 0), (1, -2)], 2, 3))
@example(([(0, 0), (0, 0), (3, 0)], [(2, 0), (1, 1), (1, -2)], 2, 0))
# content 4 after the step
@example(([(2, 0), (4, 2)], [(4, 0), (2, 6)], 0, 1))
# a negative and a complex c
@example(([(1, 0), (2, -1)], [(-4, 0), (1, 1)], 0, 1))
@example(([(1, 0), (2, -1), (0, 3)], [(-3, 2), (1, 1), (5, 0)], 0, 1))
# back substitution: row leads at start, left of col
@example(([(0, 0), (4, 0), (1, 2)], [(2, 0), (6, -2), (0, 0)], 1, 0))
def test_reduce_step_matches_the_reference(step):
    prow, row, col, start = step
    assert _reduce_step(prow, row, col, start) == reference_step(prow, row, col)


@st.composite
def rows_with_leading_zeros(draw):
    n = draw(st.integers(0, 8))
    zeros = draw(st.integers(0, n))  # n zeros: the zero row
    return [(0, 0)] * zeros + draw(st.lists(_ENTRY, min_size=n - zeros,
                                            max_size=n - zeros))


@given(rows_with_leading_zeros())
@example([])
@example([(0, 0)] * 5)
@example([(0, 0), (0, 0), (0, -1)])
def test_pivot_matches_the_generator_scan(row):
    want = next((j for j, e in enumerate(row) if e != (0, 0)), None)
    assert _pivot(row) == _pivot(tuple(row)) == want


def test_real_pivot_fixed_values():
    # rows of content > 1 whose pivots are a positive integer, a negative
    # one, a negative imaginary one and a complex one
    cases = [
        ([(0, 0), (5, 0), (10, -5)], 1, [(0, 0), (1, 0), (2, -1)]),
        ([(-2, 0), (4, 2), (0, 6)], 0, [(1, 0), (-2, -1), (0, -3)]),
        ([(0, -3), (3, 6)], 0, [(1, 0), (-2, 1)]),
        ([(2, 2), (4, 0), (0, 6)], 0, [(2, 0), (2, -2), (3, 3)]),
    ]
    for row, col, want in cases:
        assert gcd(*(x for e in row for x in e)) > 1
        got = _real_pivot(row, col)
        assert got == want
        pa, pb = got[col]
        assert pb == 0 and pa > 0
        assert gcd(*(x for e in got for x in e)) == 1
        assert row_space([row], len(row)).rows == (tuple(want),)
        # a row in that form already is returned as it is
        assert _real_pivot(want, col) is want


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), int_row_lists(n), int_row_lists(n))
))
def test_echelon_leaves_its_inputs_alone(data):
    # _echelon keeps a given row whose leading entry is a positive integer
    # and whose content is 1 without a copy, in its result and in by_lead;
    # no later step may write into it
    n, rows_a, rows_b = data
    results = []
    for form in (tuple, list):
        given_a = [form(r) for r in rows_a]
        given_b = [form(r) for r in rows_b]
        alone = _echelon(given_a)
        by_lead: dict = {}
        _echelon(given_a, by_lead)
        before = {col: (r, list(r)) for col, r in by_lead.items()}
        after = _echelon(given_b, by_lead)
        row_space(given_a, n)
        row_space(given_b, n)
        assert given_a == [form(r) for r in rows_a]
        assert given_b == [form(r) for r in rows_b]
        for col, (r, old) in before.items():
            assert by_lead[col] is r and list(r) == old
        results.append([[list(r) for r in out] for out in (alone, after)])
    assert results[0] == results[1]


def test_package_caches_are_bounded():
    caches = package_caches()
    names = {cache.__name__ for cache in caches}
    assert "full_space" in names
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] is not None, cache.__name__
