from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_dim_triple, triples, weight_graded_pieces
from mixedhodge import linalg
from mixedhodge.exactfield import I, gauss
from mixedhodge.families import two_flag_fiber
from mixedhodge.filtration import filtered_space, graded_dims
from mixedhodge.invariants import (
    alpha,
    alpha_via_f_expansion,
    chern_data,
    invariants_report,
    k0_class,
    p1_splitting_type,
    tate_twist_triple,
    weight_graded_splitting_types,
)
from mixedhodge.multifilt import (
    TrifilteredSpace,
    _level_dims,
    bigraded_dims,
    f_table,
    hodge_numbers,
    is_opposed,
)
from mixedhodge.sampling import random_mhs

LINE_PARAMS = (gauss(0), gauss(1), I, gauss(1, 1))


def test_rank_two_c2_values():
    for lmb in LINE_PARAMS:
        for kap in LINE_PARAMS:
            c = chern_data(two_flag_fiber(lmb, kap))
            assert c.rank == 2
            assert c.c1 == 0
            expected = 0 if lmb == kap else 1
            assert c.c2 == expected
            assert c.ch2 == -expected


def test_rank_one_closed_form_spot_checks():
    for r, p, q in ((0, 0, 0), (1, 2, 3), (-2, 1, 1), (-4, 4, -4)):
        c = chern_data(one_dim_triple(r, p, q))
        assert c.rank == 1
        assert c.c1 == r + p + q
        assert c.ch2 == Fraction((r + p + q) ** 2, 2)
        if c.c1 == 0:
            assert c.c2 == -c.ch2
        else:
            assert c.c2 is None


def test_alpha_on_rank_two_family():
    for lmb in LINE_PARAMS:
        for kap in LINE_PARAMS:
            t = two_flag_fiber(lmb, kap)
            a = alpha(t)
            assert a == (0 if lmb == kap else 1)
            # for an opposed triple the defect and c2 coincide
            assert chern_data(t).c2 == a


def test_alpha_requires_opposed():
    t = one_dim_triple(0, 1, 1)  # type (1,1) in weight 0
    assert not is_opposed(t)
    with pytest.raises(ValueError, match="opposed"):
        alpha(t)
    with pytest.raises(ValueError, match="opposed"):
        alpha_via_f_expansion(t)


def test_alpha_f_expansion_matches_on_rank_two_family():
    for lmb in LINE_PARAMS:
        for kap in LINE_PARAMS:
            t = two_flag_fiber(lmb, kap)
            assert alpha_via_f_expansion(t) == alpha(t)


@st.composite
def opposed_triples(draw):
    """An opposed triple by construction, G independent of F.  Basis vector
    e_i has type (p_i, q_i) and weight m_i = p_i + q_i: W^k is spanned by
    the e_i with m_i <= -k, F^p by e_i + a_i with p_i >= p, and G^q by
    e_i + b_i with q_i >= q, where a_i and b_i are drawn independently in
    the span of the e_j of lower weight.  F and G induce on the weight m
    piece the split flags of its types, so r + p + q = 0 there."""
    n = draw(st.integers(0, 5))
    cell = st.integers(-1, 2)
    types = draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2))

    def flag(index, tails):
        gens: dict[int, list] = {}
        for i, (p, q) in enumerate(types):
            row = [
                (1, 0) if j == i
                else draw(entry) if tails and pj + qj < p + q
                else (0, 0)
                for j, (pj, qj) in enumerate(types)
            ]
            gens.setdefault(index(p, q), []).append(row)
        keys = range(min(gens), max(gens) + 2) if gens else ()
        above = {k: [r for at, rs in gens.items() if at >= k for r in rs] for k in keys}
        return filtered_space(
            n, {k: linalg.row_space(rows, n) for k, rows in above.items()}
        )

    return TrifilteredSpace(
        n,
        W=flag(lambda p, q: -p - q, False),
        F=flag(lambda p, q: p, True),
        G=flag(lambda p, q: q, True),
    )


def _assert_integer_defect(t) -> None:
    # twice the defect, formed here from the two tables
    twice = sum((p + q) ** 2 * d for (p, q), d in hodge_numbers(t).items())
    twice -= sum((p + q) ** 2 * d for (p, q), d in bigraded_dims(t).items())
    for a in (alpha(t), alpha_via_f_expansion(t)):
        assert isinstance(a, int) and not isinstance(a, bool)
        # an odd twice would make this a half-integer no int equals
        assert a == Fraction(twice, 2)


def test_alpha_is_an_integer_on_sampled_structures_and_two_flag_fibers():
    rng = random.Random("integer defect")
    for _ in range(30):
        _assert_integer_defect(random_mhs(rng, max_dim=8).triple())
    for lmb in LINE_PARAMS:
        for kap in LINE_PARAMS:
            _assert_integer_defect(two_flag_fiber(lmb, kap))


@settings(max_examples=100)
@given(opposed_triples())
def test_alpha_is_an_integer_on_opposed_triples(t):
    assert is_opposed(t)
    _assert_integer_defect(t)


def test_alpha_f_expansion_hodge_tate_counterexample():
    # the non-split case has s = {(1,0): 1, (0,1): 1} against
    # h = {(1,1): 1, (0,0): 1}; both routes must give 1, and the corner
    # f^{0,0} = 2 must contribute nothing
    t = two_flag_fiber(I, gauss(1))
    assert bigraded_dims(t) == {(1, 0): 1, (0, 1): 1}
    assert hodge_numbers(t) == {(1, 1): 1, (0, 0): 1}
    assert alpha(t) == 1
    assert alpha_via_f_expansion(t) == 1


def test_alpha_f_expansion_handles_negative_support():
    # twist the family down so the bigraded support leaves the first
    # quadrant; the expansion must renormalize internally
    t = tate_twist_triple(two_flag_fiber(I, gauss(1)), -2)
    assert min(p for p, _ in bigraded_dims(t)) < 0
    assert alpha_via_f_expansion(t) == alpha(t) == 1


def test_alpha_expansion_reads_the_level_table_of_its_triple(monkeypatch):
    # the expansion reads its quadrant off the (F, G) level table, and its
    # Tate twist keeps the level subspaces: after the triple's own tables
    # it adds no level table and reduces no row
    calls = []
    echelon = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda *a: calls.append(1) or echelon(*a))
    rng = random.Random(19)
    draws = [random_mhs(rng, max_dim=6).triple() for _ in range(12)]
    draws.append(tate_twist_triple(two_flag_fiber(I, gauss(1)), -2))
    for t in draws:
        is_opposed(t)
        f_table(t)
        misses = _level_dims.cache_info().misses
        calls.clear()
        alpha_via_f_expansion(t)
        assert (_level_dims.cache_info().misses, calls) == (misses, [])


def test_alpha_is_tate_invariant():
    for k in (-2, -1, 1, 3):
        for lmb, kap in ((I, I), (I, gauss(1))):
            t = two_flag_fiber(lmb, kap)
            assert alpha(tate_twist_triple(t, k)) == alpha(t)


def test_splitting_type_rank_two():
    t_split = two_flag_fiber(I, I)
    assert p1_splitting_type(t_split.F, t_split.G) == ((2, 1), (0, 1))
    t_nonsplit = two_flag_fiber(I, gauss(1))
    assert p1_splitting_type(t_nonsplit.F, t_nonsplit.G) == ((1, 2),)


def test_splitting_type_rank_one_and_pure():
    t = one_dim_triple(-3, 1, 2)
    assert p1_splitting_type(t.F, t.G) == ((3, 1),)


def test_weight_graded_splitting_types():
    t = two_flag_fiber(I, gauss(1))
    assert weight_graded_splitting_types(t) == {-2: ((2, 1),), 0: ((0, 1),)}
    t2 = one_dim_triple(0, 1, 1)
    assert weight_graded_splitting_types(t2) == {0: ((2, 1),)}


@settings(max_examples=60)
@given(triples(4))
def test_weight_graded_splitting_types_match_subquotients(t):
    # oracle: build each W-graded piece and take the splitting type there
    want = {
        r: p1_splitting_type(f_gr, g_gr)
        for r, f_gr, g_gr in weight_graded_pieces(t)
    }
    assert weight_graded_splitting_types(t) == want


def test_splitting_type_degree_sum_matches_bigraded():
    for lmb, kap in ((I, I), (I, gauss(1)), (gauss(0), gauss(1, 1))):
        t = two_flag_fiber(lmb, kap)
        st_ = p1_splitting_type(t.F, t.G)
        assert sum(deg * mult for deg, mult in st_) == sum(
            (p + q) * d for (p, q), d in bigraded_dims(t).items()
        )
        assert sum(m for _, m in st_) == 2


def test_k0_class_fixed_values():
    t = two_flag_fiber(I, gauss(1))
    k0 = k0_class(t)
    assert k0.pA2 == {(1, 0): 1, (0, 1): 1}  # u + v
    assert k0.pGm2 == 2
    t_eq = two_flag_fiber(I, I)
    assert k0_class(t_eq).pA2 == {(1, 1): 1, (0, 0): 1}  # uv + 1
    t1 = one_dim_triple(-2, 2, 0)
    assert k0_class(t1).pA2 == {(2, 0): 1}  # u^2


def test_k0_marginal_identities():
    for lmb, kap in ((I, I), (I, gauss(1))):
        t = two_flag_fiber(lmb, kap)
        k0 = k0_class(t)
        assert sum(k0.pA0.values()) == k0.pGm2
        assert sum(k0.pA1.values()) == k0.pGm2
        assert sum(k0.pA2.values()) == k0.pGm2

        def marginal(table, axis):
            out: dict[int, int] = {}
            for key, d in table.items():
                out[key[axis]] = out.get(key[axis], 0) + d
            return out

        assert marginal(k0.pA0, 0) == k0.pGm12
        assert marginal(k0.pA0, 1) == k0.pGm02
        assert marginal(k0.pA1, 0) == k0.pGm12
        assert marginal(k0.pA1, 1) == k0.pGm01
        assert marginal(k0.pA2, 0) == k0.pGm02
        assert marginal(k0.pA2, 1) == k0.pGm01
        assert k0.pGm12 == graded_dims(t.W)


def test_invariants_report_shape():
    rep = invariants_report(two_flag_fiber(I, gauss(1)))
    assert rep["rank"] == 2
    assert rep["c1"] == 0
    assert rep["ch2"] == [-1, 1]
    assert rep["c2"] == 1
    assert rep["alpha"] == 1
    assert rep["opposed"] is True
    assert rep["splitting_type"] == [[1, 2]]
    assert rep["k0"]["pA2"] == [[0, 1, 1], [1, 0, 1]]
    assert rep["k0"]["pGm2"] == 2
    assert rep["weight_splitting_types"] == {"-2": [[2, 1]], "0": [[0, 1]]}


def test_invariants_report_non_opposed():
    rep = invariants_report(one_dim_triple(0, 1, 1))
    assert rep["alpha"] is None
    assert rep["opposed"] is False
    assert rep["c1"] == 2
    assert rep["c2"] is None
    assert rep["splitting_type"] == [[2, 1]]


@settings(max_examples=200)
@given(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_rank_one_closed_form_property(r, p, q):
    c = chern_data(one_dim_triple(r, p, q))
    assert c.c1 == r + p + q
    assert c.ch2 == Fraction((r + p + q) ** 2, 2)
