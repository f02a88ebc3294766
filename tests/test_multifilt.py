from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    filtered_spaces,
    int_map,
    level_dims_by_pairs,
    one_dim_triple,
    random_flag_basis,
    triples,
    weight_graded_pieces,
    window_bigraded,
    window_intersection_dims,
    window_trigraded,
)
from mixedhodge import linalg, multifilt
from mixedhodge.exactfield import I, gauss
from mixedhodge.families import (
    alpha_map,
    hypothesis_H_audit,
    lambda_conjugate_grid,
    semicontinuity_report,
    two_flag_fiber,
)
from mixedhodge.filtration import common_window, filtered_space, shift, trivial
from mixedhodge.invariants import alpha, alpha_via_f_expansion, tate_twist_triple
from mixedhodge.linalg import (
    _pivot,
    intersect,
    row_space,
    span,
    subspace_sum,
    zero_subspace,
)
from mixedhodge.multifilt import (
    FilteredMorphism,
    TrifilteredSpace,
    _flag_coordinates,
    _level_dims,
    _trigraded_items,
    bigraded_dims,
    f_table,
    hodge_numbers,
    induced_on_subquotient,
    intersection_dims,
    is_opposed,
    pair_bigraded,
    simultaneous_splitting,
    trigraded_dims,
)
from mixedhodge.sampling import random_mhs


def test_hodge_numbers_of_weight_two_zero_triple():
    for lmb, kap in ((0, 0), (I, 1), (I, I), (gauss(1, 1), 0)):
        t = two_flag_fiber(lmb, kap)
        assert hodge_numbers(t) == {(1, 1): 1, (0, 0): 1}
        assert trigraded_dims(t) == {(-2, 1, 1): 1, (0, 0, 0): 1}
        assert is_opposed(t)


def test_trigraded_dims_returns_a_copy():
    # hodge_numbers and is_opposed read the table kept on the triple, so a
    # caller's edits to a table it was handed must not reach them
    t = two_flag_fiber(I, 1)
    table = trigraded_dims(t)
    table[(0, 0, 0)] = 5
    table[(0, 1, 1)] = 1  # off the anti-diagonal
    assert trigraded_dims(t) == {(-2, 1, 1): 1, (0, 0, 0): 1}
    assert hodge_numbers(t) == {(1, 1): 1, (0, 0): 1}
    assert is_opposed(t)
    assert alpha(t) == 1


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


@settings(max_examples=100)
@given(triples(4))
def test_trigraded_dims_match_subquotients(t):
    want = {
        (r, p, q): d
        for r, f_gr, g_gr in weight_graded_pieces(t)
        for (p, q), d in pair_bigraded(f_gr, g_gr).items()
    }
    assert trigraded_dims(t) == want


def _subquotient_trigraded(t) -> dict[tuple[int, int, int], int]:
    return {
        (r, p, q): d
        for r, f_gr, g_gr in weight_graded_pieces(t)
        for (p, q), d in pair_bigraded(f_gr, g_gr).items()
    }


def test_trigraded_dims_match_subquotients_at_full_size():
    # structures up to dimension 8, where W has up to four jumps, with G
    # and W moved off the structure and F, G replaced by W
    rng = random.Random(12)
    draws = [random_mhs(rng, max_dim=8).triple() for _ in range(30)]
    assert max(len(t.W.levels) for t in draws) >= 3
    cases = [
        TrifilteredSpace(0, W=trivial(0), F=trivial(0), G=trivial(0)),
        one_dim_triple(0, 0, 0),
        one_dim_triple(-2, 1, 1),
        one_dim_triple(3, -1, 2),
    ]
    for t in draws:
        n = t.ambient_dim
        cases += [
            t,
            TrifilteredSpace(n, W=t.W, F=t.F, G=shift(t.G, 1)),
            TrifilteredSpace(n, W=t.W, F=t.F, G=shift(t.G, -1)),
            TrifilteredSpace(n, W=shift(t.W, 2), F=t.F, G=t.G),
            TrifilteredSpace(n, W=trivial(n), F=t.F, G=t.G),
            TrifilteredSpace(n, W=t.W, F=t.W, G=t.W),
        ]
    for t in cases:
        assert trigraded_dims(t) == _subquotient_trigraded(t), t.to_json()


def _assert_rows_meet_the_flags(w_values, x_values) -> None:
    """The trigraded table's rows against intersect: the x halves of the
    first dim X rows span X, and those among them leading at n - dim W_k
    or later span X ∩ W_k, for every value X of the flag and W_k of W."""
    n = w_values[0].ambient_dim
    rows = _trigraded_items(w_values, x_values)[0]
    assert sorted(_pivot(r) for r in rows) == list(range(n))  # echelon on y
    for x in x_values:
        first = rows[:x.dim]
        assert row_space([r[n:] for r in first], n) == x
        for w in w_values:
            cut = n - w.dim
            met = [r[n:] for r in first if _pivot(r) >= cut]
            assert row_space(met, n) == intersect(x, w)


def test_trigraded_rows_span_the_flag_meets_on_structures():
    for k in range(30):
        m = random_mhs(random.Random(k), max_dim=8)
        for x in (m.F, m.fbar):
            _assert_rows_meet_the_flags(m.W.values(), x.values())


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(filtered_spaces(n), filtered_spaces(n))
))
def test_trigraded_rows_span_the_flag_meets(pair):
    w, x = pair
    _assert_rows_meet_the_flags(w.values(), x.values())


def test_trigraded_pieces_are_shared_across_shifts_and_fibers():
    # the pieces are keyed by level subspaces: a Tate twist, which only
    # moves indices, reuses every one of them
    rng = random.Random(5)
    twisted = 0
    for _ in range(12):
        t = random_mhs(rng, max_dim=8).triple()
        trigraded_dims(t)
        misses = _trigraded_items.cache_info().misses
        hits = _trigraded_items.cache_info().hits
        alpha_via_f_expansion(t)
        trigraded_dims(tate_twist_triple(t, 3))
        assert _trigraded_items.cache_info().misses == misses
        twisted += _trigraded_items.cache_info().hits - hits > 2
    assert twisted  # some draw's alpha_via_f_expansion built a twisted triple
    # the fibers of one grid share W
    _flag_coordinates.cache_clear()
    fam = lambda_conjugate_grid(2, Fraction(1, 3))
    report = alpha_map(fam)
    hypothesis_H_audit(fam, report)
    semicontinuity_report(fam, report)
    assert _flag_coordinates.cache_info().misses == 1


def _gapped_triples() -> list[TrifilteredSpace]:
    """Hand-built triples of dimension 3 whose filtrations jump at gapped
    indices, or only once."""
    n = 3
    a = span([(1, 2, 0), (0, 1, I)], n)
    b = span([(1, 2, 0)], n)
    c = span([(0, 1, 1), (1, 0, 3)], n)
    d = span([(1, 1, 4)], n)
    gapped_f = filtered_space(n, {-2: a, 0: b, 3: zero_subspace(n)})
    gapped_g = filtered_space(n, {-1: c, 2: d, 5: zero_subspace(n)})
    single = shift(trivial(n), 2)  # full up to 2, zero from 3 on
    gapped_w = filtered_space(n, {-4: c, 1: zero_subspace(n)})
    return [
        TrifilteredSpace(n, W=gapped_w, F=gapped_f, G=gapped_g),
        TrifilteredSpace(n, W=single, F=gapped_f, G=single),
        TrifilteredSpace(n, W=gapped_w, F=single, G=gapped_g),
        TrifilteredSpace(n, W=single, F=single, G=single),
    ]


def _assert_tables_match_the_window_route(t: TrifilteredSpace) -> None:
    """Values and key order of every table read off the level positions
    equal the index-by-index route."""
    ps, qs = common_window(t.F), common_window(t.G)
    assert list(f_table(t).items()) == list(
        window_intersection_dims(t.F, t.G, ps, qs).items()
    ), t.to_json()
    for f, g in ((t.F, t.G), (t.W, t.F), (t.W, t.G)):
        assert list(pair_bigraded(f, g).items()) == list(
            window_bigraded(f, g).items()
        ), t.to_json()
    assert list(trigraded_dims(t).items()) == list(
        window_trigraded(t).items()
    ), t.to_json()
    # a window wider than both filtrations' own, as a family's is
    wide_p = range(ps.start - 3, ps.stop + 4)
    wide_q = range(qs.start - 2, qs.stop + 5)
    assert list(intersection_dims(t.F, t.G, wide_p, wide_q).items()) == list(
        window_intersection_dims(t.F, t.G, wide_p, wide_q).items()
    ), t.to_json()


def test_level_tables_match_the_window_route():
    # gapped and single jumps, the zero space and a line, then draws
    # plain and shifted
    for t in _gapped_triples() + [
        TrifilteredSpace(0, W=trivial(0), F=trivial(0), G=trivial(0)),
        one_dim_triple(0, 0, 0),
        one_dim_triple(-2, 1, 1),
        one_dim_triple(3, -1, 2),
    ]:
        _assert_tables_match_the_window_route(t)
    rng = random.Random(21)
    for _ in range(30):
        t = random_mhs(rng, max_dim=8).triple()
        n = t.ambient_dim
        _assert_tables_match_the_window_route(t)
        _assert_tables_match_the_window_route(
            TrifilteredSpace(n, W=shift(t.W, 2), F=shift(t.F, -1), G=shift(t.G, 3))
        )


def test_lambda_grid_fibers_share_w_and_level_tables():
    # one stratify pass: every fiber holds the one W, and past the two
    # W-pieces' tables each fiber adds one (F, G) table at most
    fam = lambda_conjugate_grid(4, Fraction(1, 7))
    assert len({id(t.W) for t in fam.fibers}) == 1
    report = alpha_map(fam)
    hypothesis_H_audit(fam, report)
    semicontinuity_report(fam, report)
    assert _level_dims.cache_info().misses <= len(fam.fibers) + 2


def test_level_tables_reject_mismatched_spaces():
    for f, g in ((trivial(2), trivial(3)), (trivial(0), trivial(2))):
        with pytest.raises(ValueError):
            intersection_dims(f, g, range(-1, 2), range(-1, 2))
        with pytest.raises(ValueError):
            pair_bigraded(f, g)


@st.composite
def level_chain_pairs(draw, n: int):
    """(xs, ys): two decreasing chains of 1 to 5 subspaces of Q(i)^n, each
    spanned by prefixes of a flag basis, with levels repeated as the
    W-pieces' are.  At times the two chains share their basis, so that
    they meet in equal levels, and at times a chain holds only full and
    zero spaces."""
    basis = random_flag_basis(draw, n)
    chains = []
    for _ in range(2):
        if draw(st.booleans()):
            basis = random_flag_basis(draw, n)
        sizes = st.sampled_from([0, n]) if draw(st.booleans()) else st.integers(0, n)
        dims = sorted(draw(st.lists(sizes, min_size=1, max_size=5)), reverse=True)
        chains.append(tuple(span(basis[:d], n) for d in dims))
    return tuple(chains)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=6).flatmap(level_chain_pairs))
def test_level_table_matches_the_per_pair_route(pair):
    xs, ys = pair
    assert _level_dims.__wrapped__(xs, ys) == level_dims_by_pairs(xs, ys)


def _level_chain_pairs_of(t: TrifilteredSpace):
    """The chain pairs of a triple's tables: (F, G), (W, F), (W, G) by
    position, and F and G induced on each W-piece."""
    w, f, g = t.W.values(), t.F.values(), t.G.values()
    yield from ((f, g), (w, f), (w, g))
    yield from zip(_trigraded_items(w, f)[1], _trigraded_items(w, g)[1])


def test_level_tables_match_the_per_pair_route_on_structures():
    rng = random.Random(25)
    for _ in range(30):
        t = random_mhs(rng, max_dim=8).triple()
        for xs, ys in _level_chain_pairs_of(t):
            assert _level_dims.__wrapped__(xs, ys) == level_dims_by_pairs(xs, ys)
        # a shift keeps the chains, so it reads the same entries
        moved = TrifilteredSpace(
            t.ambient_dim, W=shift(t.W, 2), F=shift(t.F, -1), G=shift(t.G, 3)
        )
        assert list(_level_chain_pairs_of(moved)) == list(_level_chain_pairs_of(t))


def test_level_table_takes_one_echelon_per_row(monkeypatch):
    # every proper x reduces the rows of the largest proper y at most once,
    # against one table of leading rows; one elimination per cell reduces
    # each proper y's rows afresh
    rng = random.Random(25)
    pairs = [
        pair
        for _ in range(10)
        for pair in _level_chain_pairs_of(random_mhs(rng, max_dim=8).triple())
    ]
    calls = []
    real = linalg._echelon

    def counting(rows, by_lead=None):
        calls.append((by_lead, len(rows)))
        return real(rows, by_lead)

    monkeypatch.setattr(linalg, "_echelon", counting)
    monkeypatch.setattr(multifilt, "_echelon", counting)
    for xs, ys in pairs:
        calls.clear()
        _level_dims.__wrapped__(xs, ys)
        rows: dict[int, int] = {}
        for by_lead, k in calls:
            rows[id(by_lead)] = rows.get(id(by_lead), 0) + k
        proper_x = [x for x in xs if 0 < x.dim < x.ambient_dim]
        largest_y = max((y.dim for y in ys if 0 < y.dim < y.ambient_dim), default=0)
        assert len(rows) <= len(proper_x)
        assert all(k <= largest_y for k in rows.values())


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
    up = FilteredMorphism(int_map([[1]]), src, dst)  # target F is deeper: fine
    assert up.compatible()
    down = FilteredMorphism(int_map([[1]]), dst, src)  # source F too deep
    assert not down.compatible()
    with pytest.raises(ValueError):
        down.is_strict()


def test_strictness_fixed_example():
    # compatible but not strict: the image meets target level 1 in more
    # than the image of source level 1
    src = one_dim_triple(0, 0, 0)
    dst = one_dim_triple(0, 1, 0)
    m = FilteredMorphism(int_map([[1]]), src, dst)
    assert m.compatible()
    assert not m.is_strict()
    # identity to an identical target is strict
    m2 = FilteredMorphism(int_map([[1]]), src, src)
    assert m2.is_strict()


def test_morphism_shape_validation():
    src = one_dim_triple(0, 0, 0)
    with pytest.raises(ValueError):
        FilteredMorphism(int_map([[1, 0]]), src, src)


def test_morphisms_at_the_zero_space():
    # a map's rows carry no width of their own: into the zero space it has
    # no rows, and out of it, one empty row per target coordinate
    t = two_flag_fiber(I, 1)
    point = TrifilteredSpace(0, W=trivial(0), F=trivial(0), G=trivial(0))
    into = FilteredMorphism((), t, point)
    assert into.compatible() and into.is_strict()
    ker = into.kernel()
    assert (ker.ambient_dim, ker.W, ker.F, ker.G) == (2, t.W, t.F, t.G)
    assert into.cokernel().ambient_dim == 0
    out = FilteredMorphism(((), ()), point, t)
    assert out.compatible() and out.is_strict()
    assert out.kernel().ambient_dim == 0
    cok = out.cokernel()
    assert (cok.ambient_dim, cok.W, cok.F, cok.G) == (2, t.W, t.F, t.G)
    columns = "^matrix columns do not match the source dimension$"
    rows = "^matrix rows do not match the target dimension$"
    for bad, src, dst, match in (
        ((((1, 0),),), point, point, columns),  # a row of width 1 from 0
        ((((1, 0),), ((0, 0),)), point, t, columns),
        ((((0, 0), (1, 0)),), t, point, rows),  # one row into 0
        ((), point, t, rows),
    ):
        with pytest.raises(ValueError, match=match):
            FilteredMorphism(bad, src, dst)


def test_kernel_and_cokernel_fixed_example():
    # projecting away the weight 0 line leaves its kernel e, which sits in
    # weight 0 with induced type (0, 0); the map is onto, so no cokernel
    t = two_flag_fiber(I, 1)
    target = one_dim_triple(-2, 1, 1)
    proj = FilteredMorphism(int_map([[0, 1]]), t, target)
    assert proj.compatible()
    ker = proj.kernel()
    assert ker.ambient_dim == 1
    assert trigraded_dims(ker) == {(0, 0, 0): 1}
    cok = proj.cokernel()
    assert cok.ambient_dim == 0
    assert trigraded_dims(cok) == {}


def _line(*v):
    """The filtration of Q(i)^len(v) with level 1 the line through v."""
    n = len(v)
    return filtered_space(n, {1: span([list(v)], n), 2: zero_subspace(n)})


def test_induced_on_subquotient_uses_rref_coordinates():
    # outer's canonical rows have pivots 6, 3 and 1; in its Q(i) basis
    # (2, 1, 0, 1) has coordinates (2, 1, 1) and inner's (2, -2, -1, 0)
    # has (2, -2, 0), which leaves (3, 1) on the quotient
    outer = span([[2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 0, 1]], 4)
    inner = span([[2, -2, -1, 0]], 4)
    assert induced_on_subquotient(_line(2, 1, 0, 1), outer, inner) == _line(3, 1)


def test_kernel_and_cokernel_use_rref_coordinates():
    # the kernel of (1, -2, 6) has canonical rows (6, 0, -1), (0, 3, 1);
    # in its Q(i) basis (2, 1, 0) and (2, -2, -1) have coordinates (2, 1)
    # and (2, -2)
    src = TrifilteredSpace(3, W=trivial(3), F=_line(2, 1, 0), G=_line(2, -2, -1))
    point = one_dim_triple(0, 0, 0)
    ker = FilteredMorphism(int_map([[1, -2, 6]]), src, point).kernel()
    assert (ker.W, ker.F, ker.G) == (trivial(2), _line(2, 1), _line(1, -1))
    # the image is the line (2, 1, 0, 0): (1, 0, 0, 1) leaves (-1/2, 0, 1)
    dst = TrifilteredSpace(4, W=trivial(4), F=_line(1, 0, 0, 1), G=trivial(4))
    cok = FilteredMorphism(int_map([[2], [1], [0], [0]]), point, dst).cokernel()
    assert (cok.W, cok.F, cok.G) == (trivial(3), _line(1, 0, -2), trivial(3))


def test_cokernel_of_inclusion():
    # including the weight 0 line leaves the weight 2 quotient class,
    # which keeps its type (1, 1)
    t = two_flag_fiber(I, I)
    sub = one_dim_triple(0, 0, 0)
    incl = FilteredMorphism(int_map([[1], [0]]), sub, t)
    assert incl.compatible()
    cok = incl.cokernel()
    assert cok.ambient_dim == 1
    assert trigraded_dims(cok) == {(-2, 1, 1): 1}
