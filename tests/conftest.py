from __future__ import annotations

import importlib
import pkgutil
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import mixedhodge
from mixedhodge.curves import INF, CurveConfig, genus0_alpha, genus0_report, is_inf
from mixedhodge.exactfield import Quad, gauss

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def package_modules() -> list:
    """The modules of the ``mixedhodge`` package."""
    return [
        importlib.import_module(f"mixedhodge.{info.name}")
        for info in pkgutil.iter_modules(mixedhodge.__path__)
    ]


def package_caches() -> list:
    """Every module-level ``lru_cache`` of the ``mixedhodge`` modules."""
    found = {}
    for mod in package_modules():
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


def lift(rows: list[list]) -> tuple[tuple, int]:
    """(int_rows, den): a linear map given by rows of Q(i) values, each
    entry through ``gauss``, as Gaussian-integer rows over their common
    denominator, the form ``assemble_extension`` takes."""
    quads = [[gauss(e) for e in r] for r in rows]
    den = lcm(*(q[k] for r in quads for q in r for k in (1, 3)))
    return tuple(
        tuple((a * (den // b), c * (den // d)) for a, b, c, d in r) for r in quads
    ), den


def int_map(rows: list[list]) -> tuple:
    """The Gaussian-integer rows of a linear map given by rows of Q(i)
    values: ``lift``'s rows, a positive multiple of the map, which has the
    same image and kernel."""
    return lift(rows)[0]


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


@contextmanager
def rows_at_smallest_index():
    """Within the block, a list that gets, for each ``from_generators``
    call made through ``filtration`` or ``mhs``, the number of rows handed
    to it at its smallest index: rows it never reads."""
    from mixedhodge import filtration, mhs

    seen: list[int] = []
    real = filtration.from_generators

    def counting(ambient_dim, gens):
        seen.append(len(gens[min(gens)]) if gens else 0)
        return real(ambient_dim, gens)

    with pytest.MonkeyPatch.context() as patch:
        for module in (filtration, mhs):
            patch.setattr(module, "from_generators", counting)
        yield seen


def reference_step(prow, row, col: int) -> tuple[list, int | None]:
    """The oracle for ``linalg._reduce_step``, in three passes over the
    whole row: d * row - c * prow, for d = prow[col][0] and c = row[col];
    then that row divided by the gcd of all its parts; then the column of
    its first nonzero entry, None for a zero row."""
    d, (ca, cb) = prow[col][0], row[col]
    out = [(d * xa - ca * ya + cb * yb, d * xb - ca * yb - cb * ya)
           for (xa, xb), (ya, yb) in zip(row, prow)]
    g = gcd(*(x for e in out for x in e))
    if g > 1:
        out = [(a // g, b // g) for a, b in out]
    return out, next((j for j, e in enumerate(out) if e != (0, 0)), None)


@st.composite
def fractions_(draw, max_num: int = 50, max_den: int = 20) -> Fraction:
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.integers(min_value=1, max_value=max_den))
    return Fraction(num, den)


@st.composite
def gaussians(draw, **kw) -> Quad:
    return gauss(draw(fractions_(**kw)), draw(fractions_(**kw)))


# small entries keep exact row reduction fast in property tests
@st.composite
def small_gaussians(draw) -> Quad:
    re = draw(st.integers(min_value=-3, max_value=3))
    im = draw(st.integers(min_value=-2, max_value=2))
    return gauss(re, im)


@st.composite
def vectors(draw, ambient_dim: int) -> tuple[Quad, ...]:
    return tuple(draw(small_gaussians()) for _ in range(ambient_dim))


@st.composite
def subspaces(draw, ambient_dim: int):
    from mixedhodge.linalg import span

    k = draw(st.integers(min_value=0, max_value=ambient_dim))
    vecs = [draw(vectors(ambient_dim)) for _ in range(k)]
    return span(vecs, ambient_dim)


def fraction_level_span(raw_vectors: list, n: int):
    """The span of one level's JSON vectors by the two-step reader that
    ``filtration.from_json`` once used, the oracle for the quadruple
    reader: every vector of the level becomes a tuple of ``Fraction``
    pairs, entry by entry (the vector's length first, then each entry's
    shape, bit size and denominators), and only then is each vector
    cleared by the lcm of its denominators, capped at ``MAX_ENTRY_BITS``
    bits."""
    from mixedhodge.exactfield import MAX_ENTRY_BITS
    from mixedhodge.linalg import row_space

    vecs = []
    for data in raw_vectors:
        if not isinstance(data, list) or len(data) != n:
            raise ValueError(f"expected a vector of length {n}, got {data!r}")
        vec = []
        for e in data:
            if (
                not isinstance(e, (list, tuple))
                or len(e) != 4
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
            ):
                raise ValueError(f"expected four integers [a, b, c, d], got {e!r}")
            bits = max(map(abs, e)).bit_length()
            if bits > MAX_ENTRY_BITS:
                raise ValueError(
                    f"entry integer of {bits} bits exceeds the limit of "
                    f"{MAX_ENTRY_BITS} bits"
                )
            a, b, c, d = e
            if b == 0 or d == 0:
                raise ValueError("zero denominator in Gaussian rational")
            vec.append((Fraction(a, b), Fraction(c, d)))
        vecs.append(vec)
    rows = []
    for vec in vecs:
        den = lcm(*(x.denominator for x, _ in vec), *(y.denominator for _, y in vec))
        if den.bit_length() > MAX_ENTRY_BITS:
            raise ValueError(
                f"vector common denominator of {den.bit_length()} bits exceeds "
                f"the limit of {MAX_ENTRY_BITS} bits"
            )
        rows.append(
            [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
             for x, y in vec]
        )
    return row_space(rows, n)


def weight_two_zero_mhs(lmb):
    """The genuine structure behind ``families.two_flag_fiber``: G is forced
    to be the conjugate of F, so only the one parameter remains."""
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


def random_flag_basis(draw, n: int, real: bool = False) -> list:
    """n independent vectors: random draws (real ones if ``real``)
    completed by standard vectors."""
    from mixedhodge.linalg import span

    basis = []
    for _ in range(n):
        r = draw(vectors(n))
        if real:
            r = tuple((a, b, 0, 1) for a, b, _, _ in r)
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
def filtered_spaces(
    draw, ambient_dim: int, lo: int = -3, hi: int = 3, real: bool = False
):
    """Random decreasing filtration built from a random flag, of real
    vectors if ``real``."""
    from mixedhodge.filtration import filtered_space
    from mixedhodge.linalg import span

    n = ambient_dim
    basis = random_flag_basis(draw, n, real)
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


def intersect_dim(a, b) -> int:
    """dim(a ∩ b) = dim a + dim b - rank[A; B] by one elimination: b's
    rows, put in echelon form after a's canonical rows, keep
    rank[A; B] - dim a of them.  The per-pair oracle for
    ``multifilt._level_dims``, which fills a whole row of its table from
    one echelon."""
    from mixedhodge.linalg import _echelon, _pivot

    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero or b.is_full:
        return a.dim
    if b.is_zero or a.is_full:
        return b.dim
    return b.dim - len(_echelon(b.rows, {_pivot(r): r for r in a.rows}))


def level_dims_by_pairs(xs, ys) -> tuple:
    """dim(x ∩ y) for x in xs and y in ys, x-major, by one
    ``intersect_dim`` per pair."""
    return tuple(tuple(intersect_dim(x, y) for y in ys) for x in xs)


def window_intersection_dims(f, g, ps, qs) -> dict:
    """dim(F^p ∩ G^q) by one ``intersect_dim`` per (p, q) of the window,
    p-major: the index-by-index route that serves as the oracle for the
    package's tables, which read every entry off one table of level
    positions."""
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


def apply_mobius(coeffs: tuple, z):
    """(az+b)/(cz+d) on the projective line, infinity included."""
    a, b, c, d = coeffs
    if a * d - b * c == 0:
        raise ValueError("singular transformation")
    if is_inf(z):
        return a / c if c != 0 else INF
    den = c * z + d
    if den == 0:
        return INF
    return (a * z + b) / den


def random_genus0_config(rng) -> CurveConfig:
    """2 to 4 punctures and 1 to 3 glued pairs, pairwise distinct points on
    the grid (Z/4)[i] with coordinates in [-10, 10]."""
    m = rng.randint(2, 4)
    n = rng.randint(1, 3)
    pts = set()
    while len(pts) < m + 2 * n:
        pts.add(complex(rng.randint(-40, 40) / 4, rng.randint(-40, 40) / 4))
    ordered = sorted(pts, key=lambda z: (z.real, z.imag))
    rng.shuffle(ordered)
    return CurveConfig(
        0,
        tuple(ordered[:m]),
        tuple((ordered[m + 2 * k], ordered[m + 2 * k + 1]) for k in range(n)),
    )


def assert_mobius_invariant(rng, count: int) -> None:
    """The genus-0 defect of ``count`` configurations from
    ``random_genus0_config`` is unchanged by a nonsingular Moebius map with
    integer coefficients in [-3, 3], drawn after each configuration.  A
    configuration with a modulus within 1e-6 of 1, or whose moved points
    collide, is skipped and drawn again."""
    done = 0
    while done < count:
        cfg = random_genus0_config(rng)
        coeffs = (0, 0, 0, 0)
        while coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2] == 0:
            coeffs = tuple(rng.randint(-3, 3) for _ in range(4))
        try:
            base = genus0_report(cfg)
            if any(
                abs(mod - 1.0) < 1e-6
                for row in base["rows"]
                for mod in row["moduli"]
            ):
                continue  # keep clear of the decision boundary
            moved = CurveConfig(
                0,
                tuple(apply_mobius(coeffs, p) for p in cfg.punctures),
                tuple(
                    (apply_mobius(coeffs, p), apply_mobius(coeffs, q))
                    for p, q in cfg.pairs
                ),
            )
            assert genus0_alpha(moved) == base["alpha"]
            assert 0 <= base["alpha"] <= len(cfg.punctures) - 1
        except ValueError:
            continue  # a transformed point collided; draw again
        done += 1
