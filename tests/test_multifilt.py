from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import filtered_spaces, one_dim_triple, triples, weight_graded_pieces
from mixedhodge.exactfield import I, gauss
from mixedhodge.families import two_flag_fiber
from mixedhodge.filtration import filtered_space, shift, trivial
from mixedhodge.linalg import full_space, identity, matrix, span, subspace_sum, zero_subspace
from mixedhodge.multifilt import (
    DimensionTable,
    FilteredMorphism,
    TrifilteredSpace,
    bigraded_dims,
    dimension_table,
    f_table,
    hodge_numbers,
    induced_on_subquotient,
    is_opposed,
    pair_bigraded,
    simultaneous_splitting,
    trigraded_dims,
)


def test_hodge_numbers_of_weight_two_zero_triple():
    for lmb, kap in ((0, 0), (I, 1), (I, I), (gauss(1, 1), 0)):
        t = two_flag_fiber(lmb, kap)
        assert hodge_numbers(t) == {(1, 1): 1, (0, 0): 1}
        assert trigraded_dims(t) == {(-2, 1, 1): 1, (0, 0, 0): 1}
        assert is_opposed(t)


def test_bigraded_depends_on_line_agreement():
    assert bigraded_dims(two_flag_fiber(I, I)) == {(1, 1): 1, (0, 0): 1}
    assert bigraded_dims(two_flag_fiber(I, 1)) == {(1, 0): 1, (0, 1): 1}


def test_f_table_fixed_values():
    t = two_flag_fiber(I, 1)
    f = f_table(t)
    assert f[(1, 1)] == 0  # distinct lines meet in 0
    assert f[(1, 0)] == 1
    assert f[(0, 1)] == 1
    assert f[(0, 0)] == 2
    assert f[(2, 0)] == 0  # F is already zero at level 2
    t_eq = two_flag_fiber(I, I)
    assert f_table(t_eq)[(1, 1)] == 1


def test_non_opposed_triple_detected():
    # everything in weight 0 but F = G deep in level 1: types (1,1) at r = 0
    t = TrifilteredSpace(
        1, W=trivial(1), F=shift(trivial(1), 1), G=shift(trivial(1), 1)
    )
    assert trigraded_dims(t) == {(0, 1, 1): 1}
    assert not is_opposed(t)


def test_dimension_table_bundles_everything():
    t = two_flag_fiber(I, 1)
    dt = dimension_table(t)
    assert isinstance(dt, DimensionTable)
    assert dt.h == hodge_numbers(t)
    assert dt.s == bigraded_dims(t)
    assert dt.f == f_table(t)
    assert dt.delta3 == trigraded_dims(t)


@settings(max_examples=100)
@given(triples(4))
def test_trigraded_dims_match_subquotients(t):
    want = {
        (r, p, q): d
        for r, f_gr, g_gr in weight_graded_pieces(t)
        for (p, q), d in pair_bigraded(f_gr, g_gr).items()
    }
    assert trigraded_dims(t) == want


@settings(max_examples=100)
@given(triples(4))
def test_graded_marginals(t):
    from mixedhodge.filtration import graded_dims

    s = bigraded_dims(t)
    by_p: dict[int, int] = {}
    by_q: dict[int, int] = {}
    for (p, q), d in s.items():
        by_p[p] = by_p.get(p, 0) + d
        by_q[q] = by_q.get(q, 0) + d
    assert by_p == graded_dims(t.F)
    assert by_q == graded_dims(t.G)
    d3 = trigraded_dims(t)
    by_r: dict[int, int] = {}
    for (r, _, _), d in d3.items():
        by_r[r] = by_r.get(r, 0) + d
    assert by_r == graded_dims(t.W)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), filtered_spaces(n), filtered_spaces(n))
))
def test_simultaneous_splitting_reconstructs_both_filtrations(data):
    n, f, g = data
    pieces = simultaneous_splitting(f, g)
    assert {pq: v.dim for pq, v in pieces.items()} == bigraded_dims(
        TrifilteredSpace(n, W=trivial(n), F=f, G=g)
    )
    assert sum(v.dim for v in pieces.values()) == n
    for p in set(f.jumps()) | {min(f.jumps()) - 1}:
        acc = zero_subspace(n)
        for (pp, _), v in pieces.items():
            if pp >= p:
                acc = subspace_sum(acc, v)
        assert acc == f.at(p)
    for q in set(g.jumps()) | {min(g.jumps()) - 1}:
        acc = zero_subspace(n)
        for (_, qq), v in pieces.items():
            if qq >= q:
                acc = subspace_sum(acc, v)
        assert acc == g.at(q)


def test_simultaneous_splitting_is_deterministic():
    f = filtered_space(2, {1: span([[1, 1]], 2), 2: zero_subspace(2)})
    g = filtered_space(2, {1: span([[1, -1]], 2), 2: zero_subspace(2)})
    first = simultaneous_splitting(f, g)
    second = simultaneous_splitting(f, g)
    assert first == second
    assert (1, 1) not in first  # the lines are distinct
    assert first[(1, 0)] == span([[1, 1]], 2)
    assert first[(0, 1)] == span([[1, -1]], 2)


def test_induced_on_subquotient_requires_nesting():
    f = trivial(2)
    with pytest.raises(ValueError):
        induced_on_subquotient(f, span([[1, 0]], 2), span([[0, 1]], 2))


def test_morphism_compatibility():
    src = one_dim_triple(0, 0, 0)
    dst = one_dim_triple(0, 1, 0)
    up = FilteredMorphism(identity(1), src, dst)  # target F is deeper: fine
    assert up.compatible()
    down = FilteredMorphism(identity(1), dst, src)  # source F too deep
    assert not down.compatible()
    with pytest.raises(ValueError):
        down.is_strict()


def test_strictness_fixed_example():
    # compatible but not strict: the image meets target level 1 in more
    # than the image of source level 1
    src = one_dim_triple(0, 0, 0)
    dst = one_dim_triple(0, 1, 0)
    m = FilteredMorphism(identity(1), src, dst)
    assert m.compatible()
    assert not m.is_strict()
    # identity to an identical target is strict
    m2 = FilteredMorphism(identity(1), src, src)
    assert m2.is_strict()


def test_morphism_shape_validation():
    src = one_dim_triple(0, 0, 0)
    with pytest.raises(ValueError):
        FilteredMorphism(matrix([[1, 0]]), src, src)


def test_kernel_and_cokernel_fixed_example():
    # projecting away the weight 0 line leaves its kernel e, which sits in
    # weight 0 with induced type (0, 0); the map is onto, so no cokernel
    t = two_flag_fiber(I, 1)
    target = one_dim_triple(-2, 1, 1)
    proj = FilteredMorphism(matrix([[0, 1]]), t, target)
    assert proj.compatible()
    ker = proj.kernel()
    assert ker.ambient_dim == 1
    assert trigraded_dims(ker) == {(0, 0, 0): 1}
    cok = proj.cokernel()
    assert cok.ambient_dim == 0
    assert trigraded_dims(cok) == {}


def test_cokernel_of_inclusion():
    # including the weight 0 line leaves the weight 2 quotient class,
    # which keeps its type (1, 1)
    t = two_flag_fiber(I, I)
    sub = one_dim_triple(0, 0, 0)
    incl = FilteredMorphism(matrix([[1], [0]]), sub, t)
    assert incl.compatible()
    cok = incl.cokernel()
    assert cok.ambient_dim == 1
    assert trigraded_dims(cok) == {(-2, 1, 1): 1}
