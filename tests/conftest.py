from __future__ import annotations

import importlib
import pkgutil
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import mixedhodge
from mixedhodge.exactfield import GaussianRational

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def package_caches() -> list:
    """Every module-level ``lru_cache`` of the ``mixedhodge`` modules."""
    found = {}
    for info in pkgutil.iter_modules(mixedhodge.__path__):
        mod = importlib.import_module(f"mixedhodge.{info.name}")
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                found[id(obj)] = obj
    return list(found.values())


@pytest.fixture(autouse=True)
def _empty_caches():
    """Start each test with empty caches, so that a test runs the
    computations it names whatever tests ran before it."""
    for cache in package_caches():
        cache.cache_clear()


def assert_canonical(sub) -> None:
    """The stored form of a ``Subspace`` (see ``linalg``), which its
    constructor trusts: a tuple of at most ambient_dim rows, each a tuple
    of ambient width whose pivot is a positive integer right of the pivot
    above, primitive, and alone in its pivot column."""
    n, rows = sub.ambient_dim, sub.rows
    assert isinstance(rows, tuple), "subspace rows must be a tuple of integer rows"
    assert len(rows) <= n, "more basis rows than ambient dimension"
    last = -1
    pivots = []
    for row in rows:
        assert isinstance(row, tuple) and len(row) == n, (
            "basis row is not a tuple of ambient width"
        )
        piv = next((j for j, e in enumerate(row) if e != (0, 0)), None)
        assert piv is not None, "zero row in subspace basis"
        assert piv > last, "pivot columns not strictly increasing"
        pa, pb = row[piv]
        assert pb == 0 and pa > 0, "pivot entry is not a positive integer"
        assert gcd(*(x for e in row for x in e)) == 1, "basis row is not primitive"
        pivots.append(piv)
        last = piv
    for piv in pivots:
        assert sum(r[piv] != (0, 0) for r in rows) == 1, "pivot column not cleared"


@st.composite
def fractions_(draw, max_num: int = 50, max_den: int = 20) -> Fraction:
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=max_den))
    return Fraction(num, den)


@st.composite
def gaussians(draw, **kw) -> GaussianRational:
    return GaussianRational(draw(fractions_(**kw)), draw(fractions_(**kw)))


# small entries keep exact row reduction fast in property tests
@st.composite
def small_gaussians(draw) -> GaussianRational:
    re = draw(st.integers(min_value=-3, max_value=3))
    im = draw(st.integers(min_value=-2, max_value=2))
    return GaussianRational(Fraction(re), Fraction(im))


@st.composite
def vectors(draw, ambient_dim: int) -> tuple[GaussianRational, ...]:
    return tuple(draw(small_gaussians()) for _ in range(ambient_dim))


@st.composite
def subspaces(draw, ambient_dim: int):
    from mixedhodge.linalg import span

    k = draw(st.integers(min_value=0, max_value=ambient_dim))
    vecs = [draw(vectors(ambient_dim)) for _ in range(k)]
    return span(vecs, ambient_dim)


def weight_two_zero_mhs(lmb):
    """The genuine structure behind ``families.two_flag_fiber``: G is forced
    to be the conjugate of F, so only the one parameter remains."""
    from mixedhodge.exactfield import gauss
    from mixedhodge.filtration import filtered_space
    from mixedhodge.linalg import span, zero_subspace
    from mixedhodge.mhs import validate

    e = span([[1, 0]], 2)
    w = filtered_space(2, {-1: e, 1: zero_subspace(2)})
    f = filtered_space(
        2, {1: span([(gauss(lmb), gauss(1))], 2), 2: zero_subspace(2)}
    )
    return validate(w, f)


def one_dim_triple(w_jump: int, f_jump: int, g_jump: int):
    """Rank 1 triple concentrated at trigraded index (w_jump, f_jump, g_jump)."""
    from mixedhodge.filtration import shift, trivial
    from mixedhodge.multifilt import TrifilteredSpace

    return TrifilteredSpace(
        1,
        W=shift(trivial(1), w_jump),
        F=shift(trivial(1), f_jump),
        G=shift(trivial(1), g_jump),
    )


def random_flag_basis(draw, n: int) -> list:
    """n independent vectors: random draws completed by standard vectors."""
    from mixedhodge.exactfield import gauss
    from mixedhodge.linalg import span

    basis = []
    for _ in range(n):
        r = draw(vectors(n))
        if span(basis + [r], n).dim > len(basis):
            basis.append(r)
    for i in range(n):
        if len(basis) == n:
            break
        e = tuple(gauss(1 if j == i else 0) for j in range(n))
        if span(basis + [e], n).dim > len(basis):
            basis.append(e)
    return basis


@st.composite
def filtered_spaces(draw, ambient_dim: int, lo: int = -3, hi: int = 3):
    """Random decreasing filtration built from a random flag."""
    from mixedhodge.filtration import filtered_space
    from mixedhodge.linalg import span

    n = ambient_dim
    basis = random_flag_basis(draw, n)
    # dims of the proper levels, strictly decreasing and ending at 0
    max_inner = min(n - 1, hi - lo)
    inner = sorted(
        draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=max_inner))
        if n > 1
        else [],
        reverse=True,
    )
    dims = inner + [0]
    keys = sorted(
        draw(
            st.sets(
                st.integers(min_value=lo, max_value=hi),
                min_size=len(dims),
                max_size=len(dims),
            )
        )
    )
    levels = {k: span(basis[:d], n) for k, d in zip(keys, dims)}
    return filtered_space(n, levels)


@st.composite
def triples(draw, n: int):
    from mixedhodge.multifilt import TrifilteredSpace

    return TrifilteredSpace(
        n,
        W=draw(filtered_spaces(n)),
        F=draw(filtered_spaces(n)),
        G=draw(filtered_spaces(n)),
    )


def weight_graded_pieces(t):
    """(r, F_gr, G_gr) for each nonzero W-graded piece W^r / W^{r+1}, with
    F and G induced on it as filtered spaces of their own: the subquotient
    route that serves as the oracle for delta3."""
    from mixedhodge.filtration import common_window
    from mixedhodge.multifilt import induced_on_subquotient

    for r in common_window(t.W):
        outer, inner = t.W.at(r), t.W.at(r + 1)
        if outer.dim != inner.dim:
            yield (
                r,
                induced_on_subquotient(t.F, outer, inner),
                induced_on_subquotient(t.G, outer, inner),
            )


def deligne_pieces(m):
    """I^{p,q} = (F^p ∩ W_{p+q}) ∩ (Fbar^q ∩ W_{p+q}
    + sum_{i>=1} Fbar^{q-i} ∩ W_{p+q-i-1}) over the Hodge support, by one
    intersection and sum per term: the textbook route that serves as the
    oracle for ``mhs.deligne_splitting``."""
    from mixedhodge.linalg import intersect, subspace_sum
    from mixedhodge.multifilt import hodge_numbers

    fbar = m.fbar
    pieces = {}
    for (p, q), _ in sorted(hodge_numbers(m.triple()).items()):
        first = intersect(m.F.at(p), m.weight_at(p + q))
        corrector = intersect(fbar.at(q), m.weight_at(p + q))
        i = 1
        while not m.weight_at(p + q - i - 1).is_zero:
            corrector = subspace_sum(
                corrector, intersect(fbar.at(q - i), m.weight_at(p + q - i - 1))
            )
            i += 1
        pieces[(p, q)] = intersect(first, corrector)
    return pieces


def window_intersection_dims(f, g, ps, qs) -> dict:
    """dim(F^p ∩ G^q) by one ``intersect_dim`` per (p, q) of the window,
    p-major: the index-by-index route that serves as the oracle for the
    package's tables, which read every entry off one table of level
    positions."""
    from mixedhodge.linalg import intersect_dim

    return {(p, q): intersect_dim(f.at(p), g.at(q)) for p in ps for q in qs}


def second_difference(table: dict) -> dict:
    """Second mixed difference of a window table, nonzero entries only, in
    the table's key order."""
    out = {}
    for (p, q), v in table.items():
        d = (
            v
            - table.get((p + 1, q), 0)
            - table.get((p, q + 1), 0)
            + table.get((p + 1, q + 1), 0)
        )
        if d:
            out[(p, q)] = d
    return out


def window_bigraded(f, g) -> dict:
    """The common bigraded of (f, g) by the window route, over the
    margined jump windows."""
    from mixedhodge.filtration import common_window

    return second_difference(
        window_intersection_dims(f, g, common_window(f), common_window(g))
    )


def window_trigraded(t) -> dict:
    """delta(r, p, q) by the window route on the subquotient pieces."""
    return {
        (r, p, q): d
        for r, f_gr, g_gr in weight_graded_pieces(t)
        for (p, q), d in window_bigraded(f_gr, g_gr).items()
    }
