"""Checks against libraries that share no code with the package: sympy for
exact row reduction over Q(i), of subspaces, of linear maps and of the
Deligne splitting, mpmath for the Jacobi theta function."""

from __future__ import annotations

import cmath
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import filtered_spaces, gaussians, intersect_dim, triples
from mixedhodge.curves import theta
from mixedhodge.exactfield import I, gauss
from mixedhodge.filtration import (
    common_window,
    direct_sum,
    dual,
    filtered_space,
    induced_on_quotient,
    induced_on_sub,
    tensor,
)
from mixedhodge.families import (
    lambda_conjugate_grid,
    lambda_kappa_grid,
    two_flag_fiber,
)
from mixedhodge.invariants import alpha, alpha_via_f_expansion, chern_data
from mixedhodge.linalg import (
    full_space,
    image,
    intersect,
    kernel,
    row_space,
    span,
    subspace_sum,
)
from mixedhodge.mhs import (
    assemble_extension,
    deligne_splitting,
    direct_sum_mhs,
    dual_mhs,
    is_r_split,
    tate_twist,
    tensor_mhs,
)
from mixedhodge.multifilt import (
    TrifilteredSpace,
    bigraded_dims,
    f_table,
    trigraded_dims,
)
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


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), _row_lists(n, 3), _row_lists(n, 3),
                        _row_lists(n, 1), st.lists(st.booleans(), max_size=3))
))
def test_containment_against_sympy(data):
    # a takes some of b's rows and at most one row of its own, so both
    # answers come up, and among the false ones a sharing all but one
    # basis row with b
    sympy = pytest.importorskip("sympy")
    n, rows_a, rows_b, extra, picks = data
    shared = [r for r, keep in zip(rows_b, picks) if keep]
    b, rank_b = span(rows_b, n), _rank(sympy, rows_b, n)
    for rows in (rows_a, shared + extra, shared):
        a, both = span(rows, n), _rank(sympy, rows_b + rows, n)
        assert (a <= b) == (both == rank_b)
        assert (b <= a) == (both == _rank(sympy, rows, n))


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), _row_lists(n, 4), _row_lists(n, 3))
))
def test_quotient_levels_against_sympy(data):
    # the image of a level val in V / sub has dimension rank[val; sub] -
    # dim sub, and a level row put back at sub's free columns, zero at its
    # pivots, lies in val + sub
    sympy = pytest.importorskip("sympy")
    n, rows, sub_rows = data
    f = filtered_space(n, {k: span(rows[k:], n) for k in range(len(rows) + 1)})
    sub = span(sub_rows, n)
    quot = induced_on_quotient(f, sub)
    pivots = set(sub.pivots())
    free = [j for j in range(n) if j not in pivots]
    for key in range(len(rows) + 1):
        val = f.at(key).to_json()
        both = _rank(sympy, val + sub_rows, n)
        level = quot.at(key)
        assert level.dim == both - sub.dim
        for v in level.to_json():
            back = [[0, 1, 0, 1]] * n
            for j, e in zip(free, v):
                back[j] = e
            assert _rank(sympy, val + sub_rows + [back], n) == both


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


def _tables_by_sympy(sympy, t: TrifilteredSpace) -> tuple[dict, dict, dict]:
    """(f, s, delta) of t from the levels of ``t.to_json()``, with sympy
    alone.  f^{p,q} = dim(F^p ∩ G^q) over F's and G's jump windows, one
    index of margin on each side; s is its nonzero second differences.
    On gr_W^r, dim(F_r^p ∩ G_r^q) is dim((W^r ∩ F^p + W^{r+1}) ∩
    (W^r ∩ G^q + W^{r+1})) - dim W^{r+1}, and delta(r, p, q) is its nonzero
    second differences in (p, q).  A meet of two spans is the common zeros
    of their annihilators, a sum the stacked rows, and
    dim(x ∩ y) = rank x + rank y - rank [x; y]."""
    from sympy.polys.matrices import DomainMatrix

    qq_i = sympy.QQ_I
    data = t.to_json()
    n = data["ambient_dim"]

    def dm(rows):
        return DomainMatrix(rows, (len(rows), n), qq_i)

    def rank(rows) -> int:
        return dm(rows).rank() if rows else 0

    def meet_dim(x, y) -> int:
        return rank(x) + rank(y) - rank(x + y)

    def meet(x, y):
        return dm(dm(x).nullspace().to_list() + dm(y).nullspace().to_list()
                  ).nullspace().to_list()

    def lookup(key):
        """(window, p -> the value at p as ``QQ_I`` rows)."""
        levels = data[key]["levels"]
        jumps = [level["index"] for level in levels]
        values = [[[qq_i(int(i == j), 0) for j in range(n)] for i in range(n)]]
        values += [
            [[qq_i(Fraction(a, b), Fraction(c, d)) for a, b, c, d in v]
             for v in level["vectors"]]
            for level in levels
        ]
        window = range(jumps[0] - 1, jumps[-1] + 1) if jumps else range(0, 1)
        return window, lambda p: values[bisect_right(jumps, p)]

    def second_differences(dims, ps, qs, *key) -> dict:
        out = {}
        for p in ps:
            for q in qs:
                d = dims(p, q) - dims(p + 1, q) - dims(p, q + 1) + dims(p + 1, q + 1)
                if d:
                    out[(*key, p, q)] = d
        return out

    (rs, w_at), (ps, f_at), (qs, g_at) = lookup("W"), lookup("F"), lookup("G")
    f = {(p, q): meet_dim(f_at(p), g_at(q)) for p in ps for q in qs}
    s = second_differences(lambda p, q: meet_dim(f_at(p), g_at(q)), ps, qs)
    delta = {}
    for r in rs:
        outer, inner = w_at(r), w_at(r + 1)
        below = rank(inner)
        if rank(outer) == below:
            continue
        on_f = {p: meet(outer, f_at(p)) + inner for p in range(ps.start, ps.stop + 1)}
        on_g = {q: meet(outer, g_at(q)) + inner for q in range(qs.start, qs.stop + 1)}
        delta.update(second_differences(
            lambda p, q: meet_dim(on_f[p], on_g[q]) - below, ps, qs, r
        ))
    return f, s, delta


def _assert_tables_match_sympy(sympy, t: TrifilteredSpace) -> None:
    ours = f_table(t), bigraded_dims(t), trigraded_dims(t)
    assert ours == _tables_by_sympy(sympy, t), t.to_json()


def test_tables_against_sympy_on_structures_and_fibers():
    # seeded draws and their Tate twists, whose triples take Fbar's pieces
    # as the conjugates of F's, and the fibers of both lambda grids
    sympy = pytest.importorskip("sympy")
    rng = random.Random("table oracle")
    for k in range(24):
        m = random_mhs(rng, max_dim=5)
        _assert_tables_match_sympy(sympy, m.triple())
        if k % 4 == 0:
            _assert_tables_match_sympy(sympy, tate_twist(m, k // 4 - 2).triple())
    for fam in (lambda_conjugate_grid(1, Fraction(1, 2)),
                lambda_kappa_grid(1, Fraction(1, 3))):
        for t in fam.fibers:
            _assert_tables_match_sympy(sympy, t)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(triples))
def test_tables_against_sympy_on_triples(t):
    sympy = pytest.importorskip("sympy")
    assume(chern_data(t).c1 != 0)  # not opposed: W-pieces off the diagonal
    _assert_tables_match_sympy(sympy, t)


def _rees_count(sympy, t: TrifilteredSpace, k: int) -> int:
    """The sum of dim(W^a ∩ F^b ∩ G^c) over a + b + c = -k, the sections of
    the Rees bundle of t twisted by k, from the levels of ``to_json``.
    Each dimension is read by value position, as n minus the rank of the
    stacked annihilators of the three values; sympy does the algebra."""
    from sympy.polys.matrices import DomainMatrix

    qq_i = sympy.QQ_I
    data = t.to_json()
    n = data["ambient_dim"]
    if not n:
        return 0
    jumps, anns = [], []
    for key in ("W", "F", "G"):
        levels = data[key]["levels"]
        jumps.append([level["index"] for level in levels])
        values = [[[qq_i(Fraction(a, b), Fraction(c, d)) for a, b, c, d in v]
                   for v in level["vectors"]] for level in levels]
        # the full space first, whose annihilator is zero
        anns.append([[], *(DomainMatrix(rows, (len(rows), n), qq_i)
                          .nullspace().to_list() for rows in values)])
    dims = {
        (i, j, l): n - _qi_rank(sympy, x + y + z, n)
        for i, x in enumerate(anns[0])
        for j, y in enumerate(anns[1])
        for l, z in enumerate(anns[2])
    }
    wj, fj, gj = jumps
    # W^a, F^b and G^c are zero from their last jumps on
    count = 0
    for a in range(-k - fj[-1] - gj[-1], wj[-1]):
        for b in range(-k - gj[-1] - a, fj[-1]):
            c = -k - a - b
            count += dims[
                bisect_right(wj, a), bisect_right(fj, b), bisect_right(gj, c)
            ]
    return count


def _assert_rees_count_is_riemann_roch(sympy, t: TrifilteredSpace) -> None:
    # Riemann-Roch on the projective plane: twisted far enough, the
    # sections number rank (k+1)(k+2)/2 + c1 (k + 3/2) + ch2
    chern = chern_data(t)
    for k in (30, 31):
        want = Fraction(t.ambient_dim * (k + 1) * (k + 2), 2)
        want += chern.c1 * (k + Fraction(3, 2)) + chern.ch2
        assert _rees_count(sympy, t, k) == want, (k, t.to_json())


def _rees_c2(sympy, t: TrifilteredSpace) -> Fraction:
    """c2 of t from the Rees counts alone: from k to k + 1 they grow by
    rank (k + 2) + c1, which shows c1 = 0, and then c2 = -ch2 is
    rank (k+1)(k+2)/2 minus the count at k."""
    n, k = t.ambient_dim, 30
    count = _rees_count(sympy, t, k)
    assert _rees_count(sympy, t, k + 1) - count == n * (k + 2), "c1 is not 0"
    return Fraction(n * (k + 1) * (k + 2), 2) - count


def test_chern_data_counts_rees_sections_on_structures():
    # a structure has c1 = 0 and ch2 = -alpha, so the count's c2 is alpha
    # by both routes; the draws reach structures that are not R-split,
    # where ch2 is nonzero
    sympy = pytest.importorskip("sympy")
    rng = random.Random("rees count")
    not_split = 0
    for _ in range(40):
        t = random_mhs(rng, max_dim=4).triple()
        _assert_rees_count_is_riemann_roch(sympy, t)
        assert _rees_c2(sympy, t) == alpha(t) == alpha_via_f_expansion(t)
        not_split += chern_data(t).ch2 != 0
    assert not_split >= 4, not_split


def test_c01_grid_c2_by_rees_count():
    # the rank-2 fibers of the worked grids, F and G the lines through
    # (lam, 1) and (kap, 1), on a seeded grid of Q(i) values: c2 is 0 on
    # the diagonal lam == kap and 1 off it
    sympy = pytest.importorskip("sympy")
    rng = random.Random("c01 grid")
    values = [gauss(0), I] + [
        gauss(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(3)
    ]
    for lam in values:
        for kap in values:
            t = two_flag_fiber(lam, kap)
            c2 = _rees_c2(sympy, t)
            assert c2 in (0, 1) and c2 == alpha(t), (lam, kap)
            assert (c2 == 0) == (lam == kap), (lam, kap)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(triples))
def test_chern_data_counts_rees_sections_on_triples(t):
    sympy = pytest.importorskip("sympy")
    assume(chern_data(t).c1 != 0)  # not opposed, so c1 and ch2 both count
    _assert_rees_count_is_riemann_roch(sympy, t)


def _same_span(sympy, ours, want, n) -> None:
    """The canonical rows ``ours`` span what the ``QQ_I`` rows ``want``
    span: as many as want's rank, and none of them raises it."""
    rank = _qi_rank(sympy, want, n)
    assert len(ours) == rank
    assert _qi_rank(sympy, want + _qq_i_rows(sympy, ours), n) == rank


def _qq_i_rows(sympy, rows) -> list:
    return [[sympy.QQ_I(x, y) for x, y in r] for r in rows]


def _two_filtrations():
    return st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda dims: st.tuples(*(filtered_spaces(d) for d in dims))
    )


@settings(max_examples=150, deadline=None)
@given(_two_filtrations())
def test_sum_and_tensor_levels_against_sympy(pair):
    # level p of the sum is F^p + G^p; of the tensor product, the span of
    # the Kronecker products of F^a and G^(p - a) over every a
    sympy = pytest.importorskip("sympy")
    f, g = pair
    d1, d2 = f.ambient_dim, g.ambient_dim
    zero = sympy.QQ_I(0)
    total, product = direct_sum(f, g), tensor(f, g)
    window = common_window(f, g)
    for p in range(2 * window.start, 2 * window.stop):
        want = [x + [zero] * d2 for x in _qq_i_rows(sympy, f.at(p).rows)]
        want += [[zero] * d1 + y for y in _qq_i_rows(sympy, g.at(p).rows)]
        _same_span(sympy, total.at(p).rows, want, d1 + d2)
        want = [
            [s * t for s in x for t in y]
            for a in window
            for x in _qq_i_rows(sympy, f.at(a).rows)
            for y in _qq_i_rows(sympy, g.at(p - a).rows)
        ]
        _same_span(sympy, product.at(p).rows, want, d1 * d2)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(filtered_spaces))
def test_dual_levels_against_sympy(f):
    # level k of the dual is ann F^(1 - k): of dimension n - dim F^(1 - k),
    # and each of its rows pairs to 0 with F^(1 - k)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    n = f.ambient_dim
    g = dual(f)
    window = common_window(f)
    for k in range(1 - window.stop, 2 - window.start):
        level, ann = f.at(1 - k), g.at(k)
        assert ann.dim == n - level.dim
        if level.rows and ann.rows:
            pairing = DomainMatrix(
                _qq_i_rows(sympy, level.rows), (level.dim, n), sympy.QQ_I
            ) * DomainMatrix(_qq_i_rows(sympy, ann.rows), (ann.dim, n),
                             sympy.QQ_I).transpose()
            assert pairing.is_zero_matrix


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.data())
def test_rational_lift_extension_against_sympy(seed, den, data):
    # the Hodge level p of an extension is F_a^p + graph(F_b^p), the graph
    # (lift v, v) of b's vectors, with the lift's entries rows / den
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    split = rng.randint(-1, 1)
    a = random_mhs(rng, 3, weight_range=(-2, split))
    b = random_mhs(rng, 3, weight_range=(split + 1, 3))
    na, nb = a.ambient_dim, b.ambient_dim
    entry = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    rows = data.draw(st.tuples(*[st.tuples(*[entry] * nb)] * na))
    total = assemble_extension(a, b, (rows, den))
    qq_i, zero = sympy.QQ_I, sympy.QQ_I(0)
    lift = [[qq_i(Fraction(x, den), Fraction(y, den)) for x, y in r] for r in rows]
    for p in common_window(a.F, b.F):
        want = [x + [zero] * nb for x in _qq_i_rows(sympy, a.F.at(p).rows)]
        for y in _qq_i_rows(sympy, b.F.at(p).rows):
            want.append([sum((c * e for c, e in zip(r, y)), zero) for r in lift] + y)
        _same_span(sympy, total.F.at(p).rows, want, na + nb)


def _deligne_pieces_by_sympy(sympy, m) -> dict:
    """I^{p,q} = (F^p ∩ W_{p+q}) ∩ (Fbar^q ∩ W_{p+q}
    + sum_{i>=1} Fbar^{q-i} ∩ W_{p+q-i-1}) from the levels of
    ``m.to_json()``, with sympy alone: a meet is the common zeros of the
    two spans' annihilators, a sum is the stacked rows, and each nonzero
    piece is given by its rref as JSON quadruples.  (p, q) runs over F's
    jump window, so a cell off the Hodge support must come out zero."""
    from sympy.polys.matrices import DomainMatrix

    qq_i = sympy.QQ_I
    data = m.to_json()
    n = data["ambient_dim"]

    def dm(rows):
        return DomainMatrix(rows, (len(rows), n), qq_i)

    def meet(a, b):
        return dm(dm(a).nullspace().to_list() + dm(b).nullspace().to_list()
                  ).nullspace().to_list()

    def lookup(key, sign=1):
        """p -> the value at p, as ``QQ_I`` rows, conjugated if sign < 0."""
        levels = data[key]["levels"]
        jumps = [level["index"] for level in levels]
        values = [dm([]).nullspace().to_list()]  # the full space
        values += [
            [[qq_i(Fraction(a, b), sign * Fraction(c, d)) for a, b, c, d in v]
             for v in level["vectors"]]
            for level in levels
        ]
        return lambda p: values[bisect_right(jumps, p)]

    f_at, fbar_at, w_at = lookup("F"), lookup("F", -1), lookup("W")
    jumps = [level["index"] for level in data["F"]["levels"]]
    window = range(jumps[0] - 1, jumps[-1]) if jumps else range(0)
    pieces = {}
    for p in window:
        for q in window:
            # increasing weight notation: W_m is the decreasing W at -m
            corrector = meet(fbar_at(q), w_at(-(p + q)))
            i = 1
            while w_at(-(p + q - i - 1)):
                corrector += meet(fbar_at(q - i), w_at(-(p + q - i - 1)))
                i += 1
            rows = meet(meet(f_at(p), w_at(-(p + q))), corrector)
            if rows:
                reduced, pivots = dm(rows).rref()
                pieces[p, q] = [
                    [[int(e.x.numerator), int(e.x.denominator),
                      int(e.y.numerator), int(e.y.denominator)] for e in row]
                    for row in reduced.to_list()[: len(pivots)]
                ]
    return pieces


def test_deligne_splitting_against_sympy():
    # seeded draws, whose W is a random real flag, and tensor products and
    # duals of draws, whose W the package's constructions build; the draws
    # reach structures that are not R-split, where the corrector sum counts
    sympy = pytest.importorskip("sympy")
    structures = [random_mhs(random.Random(k), max_dim=4) for k in range(40)]
    rng = random.Random("deligne oracle")
    for _ in range(4):
        a, b = random_mhs(rng, max_dim=3), random_mhs(rng, max_dim=2)
        structures += [tensor_mhs(a, b), dual_mhs(random_mhs(rng, max_dim=4))]
    for m in structures:
        ours = {key: v.to_json() for key, v in deligne_splitting(m).items()}
        assert ours == _deligne_pieces_by_sympy(sympy, m), m.to_json()
    assert sum(not is_r_split(m) for m in structures) >= 5
