from __future__ import annotations

from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_canonical,
    filtered_spaces,
    fraction_level_span,
    rows_at_smallest_index,
    subspaces,
)
from mixedhodge.exactfield import gauss
from mixedhodge.filtration import (
    FilteredSpace,
    _generators,
    common_window,
    direct_sum,
    dual,
    filtered_space,
    from_generators,
    from_json,
    graded_dims,
    induced_on_quotient,
    induced_on_sub,
    shift,
    tensor,
    trivial,
)
from mixedhodge.linalg import Subspace, _Chain, full_space, span, zero_subspace
from mixedhodge.multifilt import _level_dims, simultaneous_splitting


def test_trivial_canonical_form():
    t = trivial(3)
    assert t.levels == ((1, zero_subspace(3)),)
    assert t.at(0) == full_space(3)
    assert t.at(-10) == full_space(3)
    assert t.at(1) == zero_subspace(3)
    assert trivial(0).levels == ()


def test_at_fixed_values():
    e1 = span([[1, 0, 0]], 3)
    e12 = span([[1, 0, 0], [0, 1, 0]], 3)
    f = filtered_space(3, {-1: e12, 2: e1, 4: zero_subspace(3)})
    below = f.at(-2)
    assert below == full_space(3)
    assert f.at(-50) is below and f.at(-2) is below
    assert f.at(-1) == e12 and f.at(2) == e1 and f.at(4) == zero_subspace(3)
    assert f.at(0) == e12 and f.at(1) == e12 and f.at(3) == e1
    assert f.at(5) == zero_subspace(3) and f.at(100) == zero_subspace(3)


def test_shift_semantics():
    t3 = shift(trivial(2), 3)
    assert t3.at(3) == full_space(2)
    assert t3.at(4) == zero_subspace(2)


@given(filtered_spaces(3), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-5, max_value=5))
def test_shift_is_index_translation(f, k, n):
    assert shift(f, k).at(n) == f.at(n - k)


def test_redundant_input_is_canonicalized():
    # verbatim weight data with repeated values and an explicit full level
    e = span([[1, 0]], 2)
    f = filtered_space(2, {-2: full_space(2), -1: e, 0: e, 1: zero_subspace(2)})
    assert f.levels == ((-1, e), (1, zero_subspace(2)))
    assert f.at(-2) == full_space(2)
    assert f.at(0) == e


def test_invalid_filtrations_rejected():
    with pytest.raises(ValueError):
        filtered_space(2, {})  # never reaches zero
    with pytest.raises(ValueError):
        filtered_space(2, {0: span([[1, 0]], 2)})  # no zero tail
    with pytest.raises(ValueError):
        # not nested
        filtered_space(
            2, {0: span([[1, 0]], 2), 1: span([[0, 1]], 2), 2: zero_subspace(2)}
        )
    with pytest.raises(ValueError):
        FilteredSpace(2, ((1, zero_subspace(3)),))  # wrong ambient


def test_graded_dims_of_shifted_trivial():
    for d in (1, 2, 4):
        for p in (-3, 0, 2):
            assert graded_dims(shift(trivial(d), p)) == {p: d}


@given(st.integers(0, 3).flatmap(filtered_spaces))
def test_values_are_generators_of_the_filtration(f):
    assert from_generators(f.ambient_dim, _generators(f)) == f


def _at_by_reverse_scan(f, p):
    """F^p as the last stored level at or below p, else the full space."""
    for key, val in reversed(f.levels):
        if key <= p:
            return val
    return full_space(f.ambient_dim)


@given(st.integers(0, 4).flatmap(filtered_spaces))
def test_values_are_read_by_position(f):
    # one lookup rule: F^p is the value at position bisect_right(jumps, p),
    # which is what a scan of the stored levels finds
    values, jumps = f.values(), f.jumps()
    assert values[0] == full_space(f.ambient_dim)
    assert values[-1].dim == 0
    assert all(a.dim > b.dim for a, b in zip(values, values[1:]))
    lo, hi = (jumps[0], jumps[-1]) if jumps else (0, 0)
    for p in range(lo - 2, hi + 3):
        assert f.at(p) == values[bisect_right(jumps, p)] == _at_by_reverse_scan(f, p)
    assert graded_dims(f) == {
        k - 1: f.at(k - 1).dim - f.at(k).dim for k in jumps
    }


@given(st.integers(0, 3).flatmap(filtered_spaces))
def test_jumps_and_values_are_stored_once(f):
    assert f.jumps() is f.jumps() and f.values() is f.values()
    # the stored tuples take no part in equality, hashing or the repr
    g = shift(shift(f, 1), -1)
    assert g is not f and g == f and hash(g) == hash(f)
    assert repr(f) == (
        f"FilteredSpace(ambient_dim={f.ambient_dim!r}, levels={f.levels!r})"
    )


@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(filtered_spaces(n), filtered_spaces(n))
    ),
    st.integers(min_value=-3, max_value=3),
)
def test_values_are_a_chain_that_hashes_once(pair, k):
    # a chain is the plain tuple of its values as a cache key: same hash,
    # same equality, so a level-table entry filled under either key is hit
    # by the other, and by a shifted filtration's values
    f, g = pair
    for v in (f.values(), g.values()):
        plain = tuple(v)
        assert type(plain) is tuple and type(v) is not tuple
        assert hash(v) == hash(plain) and v == plain
    for first, then in (
        ((tuple(f.values()), tuple(g.values())), (f.values(), g.values())),
        ((f.values(), g.values()), (tuple(f.values()), tuple(g.values()))),
        ((f.values(), g.values()), (shift(f, k).values(), shift(g, -k).values())),
    ):
        _level_dims.cache_clear()
        _level_dims(*first)
        _level_dims(*then)
        assert _level_dims.cache_info()[:2] == (1, 1)  # hits, misses
    real = Subspace.__hash__
    calls = []

    def counting(sub):
        calls.append(sub)
        return real(sub)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subspace, "__hash__", counting)
        hash(tuple(f.values()))
        assert len(calls) == len(f.values())  # the counter sees each member
        chain = _Chain(f.values())
        hash(chain)
        calls.clear()
        hash(chain)
        hash(chain)
        hash(f.values())
        assert calls == []


def test_generators_must_enlarge_every_level():
    # index 1 adds only a row that index 2 already spans, so levels 1 and
    # 2 would be equal
    e1, e2 = ((1, 0), (0, 0)), ((0, 0), (1, 0))
    assert from_generators(2, {0: [e2], 2: [e1]}).levels == (
        (1, span([[1, 0]], 2)), (3, zero_subspace(2)))
    with pytest.raises(ValueError, match="stored levels must strictly decrease"):
        from_generators(2, {0: [e2], 1: [e1], 2: [e1]})


@given(filtered_spaces(3))
def test_graded_dims_sum_to_ambient(f):
    assert sum(graded_dims(f).values()) == f.ambient_dim


def test_direct_sum_fixed_value():
    f = trivial(1)
    g = shift(trivial(1), 2)
    s = direct_sum(f, g)
    assert s.ambient_dim == 2
    assert graded_dims(s) == {0: 1, 2: 1}
    assert s.at(1) == span([[0, 1]], 2)


@given(filtered_spaces(2), filtered_spaces(2))
def test_direct_sum_grading_is_additive(f, g):
    gf, gg = graded_dims(f), graded_dims(g)
    expected = {
        p: gf.get(p, 0) + gg.get(p, 0) for p in set(gf) | set(gg)
    }
    assert graded_dims(direct_sum(f, g)) == expected


@given(st.integers(0, 3).flatmap(filtered_spaces),
       st.integers(0, 3).flatmap(filtered_spaces), st.integers(-2, 2))
def test_direct_sum_passes_no_rows_at_the_smallest_index(f, g, k):
    # from_generators never reads them; when the first jumps differ, the
    # other summand's full space sits higher, is read and stays
    g = shift(g, k)
    with rows_at_smallest_index() as seen:
        s = direct_sum(f, g)
    assert seen == [0]
    for p in common_window(f, g):
        assert s.at(p).dim == f.at(p).dim + g.at(p).dim


def test_tensor_fixed_value():
    f = shift(trivial(1), 1)
    g = shift(trivial(1), 2)
    assert graded_dims(tensor(f, g)) == {3: 1}


@settings(max_examples=50)
@given(filtered_spaces(2), filtered_spaces(3))
def test_tensor_grading_is_convolution(f, g):
    gf, gg = graded_dims(f), graded_dims(g)
    expected: dict[int, int] = {}
    for p, a in gf.items():
        for q, b in gg.items():
            expected[p + q] = expected.get(p + q, 0) + a * b
    assert graded_dims(tensor(f, g)) == expected


def test_dual_of_shifted_trivial():
    for p in (-2, 0, 3):
        assert dual(shift(trivial(2), p)) == shift(trivial(2), -p)


@given(filtered_spaces(3))
def test_dual_reflects_grading(f):
    gd = graded_dims(dual(f))
    assert gd == {-p: d for p, d in graded_dims(f).items()}


@given(filtered_spaces(3))
def test_dual_is_involutive_on_grading(f):
    assert graded_dims(dual(dual(f))) == graded_dims(f)


def test_induced_on_sub_and_quotient_fixed_value():
    e1 = span([[1, 0]], 2)
    f = filtered_space(2, {0: e1, 1: zero_subspace(2)})
    on_sub = induced_on_sub(f, e1)
    assert on_sub.ambient_dim == 1
    assert graded_dims(on_sub) == {0: 1}
    on_quot = induced_on_quotient(f, e1)
    assert on_quot.ambient_dim == 1
    assert graded_dims(on_quot) == {-1: 1}  # the quotient sees only the full level


def test_induced_on_sub_uses_rref_coordinates():
    # sub's canonical rows have pivots 6 and 3 and its Q(i) basis is
    # (1, 0, -1/6), (0, 1, 1/3): (2, 1, 0) has coordinates (2, 1) there,
    # but (1/3, 1/3) in the integer rows
    sub = span([[2, 1, 0], [0, 3, 1]], 3)
    assert sub.rows == (((6, 0), (0, 0), (-1, 0)), ((0, 0), (3, 0), (1, 0)))
    f = filtered_space(3, {1: span([[2, 1, 0]], 3), 2: zero_subspace(3)})
    assert induced_on_sub(f, sub) == filtered_space(
        2, {1: span([[2, 1]], 2), 2: zero_subspace(2)}
    )


def test_induced_on_quotient_reduces_by_the_rref_basis():
    # mod the line (2, 1, 0, 0), (1, 0, 0, 1) reduces to (0, -1/2, 0, 1),
    # quotient coordinates (-1/2, 0, 1); subtracting the integer row once
    # would leave (-1, 0, 1)
    f = filtered_space(4, {1: span([[1, 0, 0, 1]], 4), 2: zero_subspace(4)})
    assert induced_on_quotient(f, span([[2, 1, 0, 0]], 4)) == filtered_space(
        3, {1: span([[1, 0, -2]], 3), 2: zero_subspace(3)}
    )


@given(st.data())
def test_induced_dims_are_additive(data):
    f = data.draw(filtered_spaces(4))
    s = data.draw(subspaces(4))
    on_sub = induced_on_sub(f, s)
    on_quot = induced_on_quotient(f, s)
    for p in range(-4, 5):
        assert on_sub.at(p).dim + on_quot.at(p).dim == f.at(p).dim


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(filtered_spaces(n), filtered_spaces(n), subspaces(n))
))
def test_constructions_store_canonical_rows(data):
    # the constructions hand their rows to Subspace, which trusts them
    f, g, sub = data
    built = (
        direct_sum(f, g), tensor(f, g), dual(f), induced_on_sub(f, sub),
        induced_on_quotient(f, sub),
    )
    for h in built:
        for _, level in h.levels:
            assert_canonical(level)
    for piece in simultaneous_splitting(f, g).values():
        assert_canonical(piece)


def test_json_round_trip_fixed_value():
    e = span([(gauss(1), gauss(0, 1))], 2)
    f = filtered_space(2, {0: e, 2: zero_subspace(2)})
    blob = f.to_json()
    assert blob == {
        "ambient_dim": 2,
        "levels": [
            {"index": 0, "vectors": [[[1, 1, 0, 1], [0, 1, 1, 1]]]},
            {"index": 2, "vectors": []},
        ],
    }
    assert from_json(blob) == f


@given(filtered_spaces(3))
def test_json_round_trip(f):
    assert from_json(f.to_json()) == f


# quadruple parts near the entry cap (2**128 - 1 has 128 bits, 2**128 has
# 129), and denominators whose lcm lands at the cap (2**64 * 3**40) or just
# over it (2**64 * 3**41)
_BIG_NUMS = (2**128 - 1, -(2**128 - 1), 2**128)
_BIG_DENS = (2**64, -(2**64), 3**40, 3**41, -(3**41))
# what a spoiled entry becomes, or puts in place of one of its integers
_BAD_ENTRIES = ([1, 2, 3], [1, 2, 3, 4, 5], 5, None, "1+i", [1, 0, 0, 1], [0, 1, 1, 0])
_BAD_PARTS = (True, False, 1.0, "1", None)


@st.composite
def _json_levels(draw):
    """(n, the vectors of one level): small fractions, not in lowest terms
    and with either sign of denominator; in some levels parts near the
    caps; in some, one malformed entry or vector."""
    n = draw(st.integers(min_value=1, max_value=3))
    big = draw(st.booleans())

    def part(bigs, odds):
        if big and draw(st.integers(min_value=1, max_value=odds)) == 1:
            return draw(st.sampled_from(bigs))
        return draw(st.integers(min_value=-9, max_value=9))

    def entry():
        a, c = part(_BIG_NUMS, 16), part(_BIG_NUMS, 16)
        b, d = part(_BIG_DENS, 2) or 1, part(_BIG_DENS, 2) or 1
        k = draw(st.sampled_from([1, 1, 2, -6]))
        return [a * k, b * k, c * k, d * k]

    level = [[entry() for _ in range(n)]
             for _ in range(draw(st.integers(min_value=0, max_value=n + 1)))]
    spoil = draw(st.integers(min_value=0, max_value=7)) if level else 0
    if spoil:
        v = draw(st.integers(min_value=0, max_value=len(level) - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if spoil == 1:
            level[v][j] = draw(st.sampled_from(_BAD_ENTRIES))
        elif spoil == 2:
            level[v][j][draw(st.integers(min_value=0, max_value=3))] = draw(
                st.sampled_from(_BAD_PARTS))
        elif spoil == 3:
            level[v] = draw(st.sampled_from([level[v][1:], level[v] + [[1, 1, 0, 1]], 5]))
    return n, level


@settings(max_examples=200)
@example((2, [[[1, 2**64, 0, 1], [1, 3**41, 0, 1]], [[1, 1, 0, 1], [1, 0, 0, 1]]]))
@example((2, [[[1, 2**64, 0, 1], [1, 3**41, 0, 1]], [[1, 1, 0, 1]]]))
@example((1, [[[2**128, 2**128, 0, 1]], [[True, 1, 0, 1]]]))
@example((1, [[[6, -4, 0, -3]], [[-3, 2, 0, 1]]]))
@given(_json_levels())
def test_from_json_reads_a_level_as_the_fraction_reader(case):
    # the same subspace, or the same error: each level's length, shape and
    # entry errors come before any vector's denominator-cap error
    n, vectors = case
    doc = {"ambient_dim": n, "levels": [{"index": 0, "vectors": vectors},
                                        {"index": 1, "vectors": []}]}
    try:
        want = fraction_level_span(vectors, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            from_json(doc)
        assert str(got.value) == str(exc)
    else:
        assert from_json(doc).at(0) == want


def test_json_rejects_garbage():
    for bad in (
        [],
        {"ambient_dim": 2},
        {"ambient_dim": -1, "levels": []},
        {"ambient_dim": 2, "levels": [{"index": 0}]},
        {"ambient_dim": 2, "levels": [{"index": True, "vectors": []}]},
        {
            "ambient_dim": 2,
            "levels": [
                {"index": 0, "vectors": []},
                {"index": 0, "vectors": []},
            ],
        },
    ):
        with pytest.raises(ValueError):
            from_json(bad)


def test_json_size_caps():
    def doc(n, index):
        return {"ambient_dim": n, "levels": [{"index": index, "vectors": []}]}

    assert from_json(doc(2, 64)).jumps() == (64,)
    assert from_json(doc(2, -64)).jumps() == (-64,)
    for bad, needle in (
        (doc(65, 0), "ambient_dim 65 exceeds"),
        (doc(2, 65), "level index 65 exceeds"),
        (doc(2, -65), "level index -65 exceeds"),
    ):
        with pytest.raises(ValueError, match=needle):
            from_json(bad)
