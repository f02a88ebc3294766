"""Seeded random generators for structures, extensions, and morphisms.

Everything here draws from a caller-supplied random.Random, so a fixed seed
reproduces the exact same structures.  The main generator works by structured
rejection: it first draws a symmetric dimension diamond, then realises it with
a random real flag for the weight filtration and a random complex flag for the
Hodge filtration.  A generic pair of flags with matching dimension data is
opposed on every graded piece, so the rejection rate stays low; degenerate
draws are simply discarded and retried.

Vectors are drawn and combined as Gaussian-integer rows, tuples of
``(re, im)`` int pairs, the form ``linalg`` stores subspaces in: a basis
candidate is tested against the echelon rows of the vectors kept so far,
tails are added in integer arithmetic, and each flag level is spanned
from its rows with ``row_space``.  Q(i) values, reduced quadruples of
ints (``exactfield.gauss``), appear only where a ``Matrix`` is returned:
the lift of ``random_extension`` and the matrix of
``random_compatible_morphism``, whose entries are read off the kernel's
canonical integer rows.  The sequence of ``randint`` calls is
fixed: the tests pin seeded draws by a digest, and the benchmark replays
the proposal stage.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exactfield import gauss
from .filtration import FilteredSpace, from_increasing
from .linalg import (
    IntRow,
    Matrix,
    Subspace,
    _echelon,
    _mul,
    annihilator,
    from_rows,
    full_space,
    row_space,
    zero_subspace,
)
from .mhs import MixedHodgeStructure, assemble_extension, validate
from .multifilt import FilteredMorphism

# Entry range for random flag vectors.  Small integers keep the exact
# arithmetic fast; the retry loop absorbs the occasional rank collision.
_ENTRY = 9
# Type box of random diamonds, and proposals per structure before giving up.
_TYPE_RANGE = (-2, 2)
_ATTEMPTS = 400


def _random_row(rng: random.Random, n: int, real: bool = False) -> IntRow:
    """n Gaussian integers from the box, each drawn real part first."""
    return tuple(
        (rng.randint(-_ENTRY, _ENTRY), 0 if real else rng.randint(-_ENTRY, _ENTRY))
        for _ in range(n)
    )


def random_basis(rng: random.Random, n: int, real: bool = False) -> list[IntRow]:
    """A random ordered basis of the full space, as Gaussian-integer rows
    with entries in a small box.

    A candidate is kept when it does not reduce to zero against the echelon
    rows of the vectors kept so far, that is, exactly when it raises the
    rank; ``_echelon`` then adds its echelon row to ``by_lead``.
    """
    vectors: list[IntRow] = []
    by_lead: dict = {}
    stuck = 0
    while len(vectors) < n:
        v = _random_row(rng, n, real=real)
        if _echelon([v], by_lead):
            vectors.append(v)
            stuck = 0
        else:
            stuck += 1
            if stuck > 64:
                raise RuntimeError("random basis draw failed to reach full rank")
    return vectors


def _weight_sizes(h: dict[tuple[int, int], int]) -> dict[int, int]:
    """Dimension of each weight of the diamond h, in ascending weight order."""
    weights = sorted({p + q for p, q in h})
    return {m: sum(d for (p, q), d in h.items() if p + q == m) for m in weights}


def _weight_flag(basis: list[IntRow], sizes: dict[int, int], n: int) -> FilteredSpace:
    """The weight filtration with W_m spanned by the basis vectors of the
    weights up to m, taken in order; sizes as from ``_weight_sizes``.  The
    basis spans the full space, so the last level needs no elimination."""
    increasing: dict[int, Subspace] = {}
    running = 0
    for m, size in sizes.items():
        running += size
        increasing[m] = (
            full_space(n) if running == n else row_space(basis[:running], n)
        )
    return from_increasing(n, increasing)


def random_hodge_diamond(
    rng: random.Random,
    max_dim: int,
    weight_range: tuple[int, int] = (-2, 3),
) -> dict[tuple[int, int], int]:
    """A symmetric table h^{p,q} = h^{q,p} with total dimension in [1, max_dim].

    Types (p, q) run over the box ``_TYPE_RANGE`` with p + q inside
    weight_range.  Off-diagonal cells are filled in mirror pairs; a leftover
    odd unit goes to a diagonal cell, or the total is rounded up when no
    diagonal cell exists.
    """
    lo, hi = _TYPE_RANGE
    cells = [
        (p, q)
        for p in range(lo, hi + 1)
        for q in range(lo, hi + 1)
        if weight_range[0] <= p + q <= weight_range[1]
    ]
    if not cells:
        raise ValueError("empty type box")
    diagonal = [c for c in cells if c[0] == c[1]]
    remaining = rng.randint(1, max_dim)
    if remaining % 2 and not diagonal:
        remaining += 1
    h: dict[tuple[int, int], int] = {}
    while remaining > 0:
        if remaining == 1:
            p, q = rng.choice(diagonal)
        else:
            p, q = rng.choice(cells)
        if p == q:
            h[(p, q)] = h.get((p, q), 0) + 1
            remaining -= 1
        else:
            h[(p, q)] = h.get((p, q), 0) + 1
            h[(q, p)] = h.get((q, p), 0) + 1
            remaining -= 2
    return h


def _flag_from_generators(
    gens: dict[int, list], n: int
) -> FilteredSpace | None:
    """Decreasing filtration with level p spanned by all generators at >= p.

    A level stays constant down to the next smaller generator index, so each
    value is keyed by the start of the region on which it holds.  Returns
    None when the generators fail to span the full space.  Callers give n
    generators in all and at least one per index, so the levels are nested
    by construction and, once the generators span, strictly decreasing.
    """
    ps = sorted(gens, reverse=True)
    levels: dict[int, Subspace] = {ps[0] + 1: zero_subspace(n)}
    acc: list = []
    for k, p in enumerate(ps):
        acc.extend(gens[p])
        if k + 1 < len(ps):
            levels[ps[k + 1] + 1] = row_space(acc, n)
    # the generators span exactly when none of them reduces to zero
    if len(_echelon(acc)) != n:
        return None
    return FilteredSpace(n, tuple(sorted(levels.items())))


def generically_realizable(h: dict[tuple[int, int], int]) -> bool:
    """Whether flags in general position can realise the diamond h.

    For independent generic flags, dim(F^p ∩ W_m) = max(0, c_p + w_m - n),
    with c_p = dim F^p and w_m = dim W_m.
    The diamond prescribes that intersection dimension directly; when the two
    disagree for some (p, m) the diamond needs special position, and drawing
    random flags for it would loop forever.  Dropping those diamonds up front
    keeps the rejection loop cheap without changing what it accepts.
    """
    n = sum(h.values())
    weights = {p + q for p, q in h}
    w = {m: sum(d for (p, q), d in h.items() if p + q <= m) for m in weights}
    for p in {p for p, _ in h}:
        c_p = sum(d for (pp, _), d in h.items() if pp >= p)
        for m, w_m in w.items():
            prescribed = sum(
                d for (pp, qq), d in h.items() if pp >= p and pp + qq <= m
            )
            if prescribed != max(0, c_p + w_m - n):
                return False
    return True


def structure_from_diamond(
    rng: random.Random, h: dict[tuple[int, int], int]
) -> MixedHodgeStructure | None:
    """One realisation attempt of a dimension diamond; None if degenerate.

    The weight flag is real, so it is conjugation stable for free.  The Hodge
    flag is a generic complex flag with the prescribed jump dimensions; when
    the draw happens to be non-generic the validation step rejects it.
    """
    n = sum(h.values())
    w = _weight_flag(random_basis(rng, n, real=True), _weight_sizes(h), n)

    f_basis = random_basis(rng, n)
    ps = sorted({p for p, _ in h}, reverse=True)
    gens: dict[int, list] = {}
    start = 0
    for p in ps:
        d = sum(dd for (pp, _), dd in h.items() if pp == p)
        gens[p] = f_basis[start : start + d]
        start += d
    f = _flag_from_generators(gens, n)
    if f is None:
        return None
    try:
        return validate(w, f)
    except ValueError:
        return None


def adapted_structure_from_diamond(
    rng: random.Random, h: dict[tuple[int, int], int]
) -> MixedHodgeStructure | None:
    """A realisation of h with the Hodge flag drawn adapted to the weights.

    Block vectors x, y of each weight give generators x + iy and x - iy for a
    mirror pair of cells and real generators for diagonal cells, then every
    generator picks up a random tail in the lower-weight part.  The tails
    die on the graded pieces, so any symmetric diamond is realisable this
    way, including ones that need special flag position.
    """
    n = sum(h.values())
    sizes = _weight_sizes(h)
    w_basis = random_basis(rng, n, real=True)
    w = _weight_flag(w_basis, sizes, n)

    def with_tail(v: IntRow, lower: int) -> IntRow:
        # w_basis is real, so a Gaussian-integer coefficient (cr, ci)
        # scales each entry (b, 0) to (cr * b, ci * b)
        out = list(v)
        for k in range(lower):
            cr, ci = rng.randint(-2, 2), rng.randint(-2, 2)
            if cr or ci:
                out = [
                    (a + cr * b, c + ci * b)
                    for (a, c), (b, _) in zip(out, w_basis[k])
                ]
        return tuple(out)

    gens: dict[int, list] = {}
    offset = 0
    for m in sizes:
        idx = offset
        for p, q in sorted(c for c in h if c[0] + c[1] == m):
            if p < q:
                continue
            for _ in range(h[(p, q)]):
                if p == q:
                    x = w_basis[idx]
                    idx += 1
                    gens.setdefault(p, []).append(with_tail(x, offset))
                else:
                    x, y = w_basis[idx], w_basis[idx + 1]
                    idx += 2
                    plus = tuple((a, b) for (a, _), (b, _) in zip(x, y))
                    minus = tuple((a, -b) for (a, _), (b, _) in zip(x, y))
                    gens.setdefault(p, []).append(with_tail(plus, offset))
                    gens.setdefault(q, []).append(with_tail(minus, offset))
        offset += sizes[m]

    f = _flag_from_generators(gens, n)
    if f is None:
        return None
    try:
        return validate(w, f)
    except ValueError:
        return None


def random_mhs(
    rng: random.Random,
    max_dim: int = 8,
    weight_range: tuple[int, int] = (-2, 3),
) -> MixedHodgeStructure:
    """A random valid structure, by rejection sampling over random flags.

    Proposals alternate between a fully generic flag (kept only when its
    diamond is one generic position can realise) and a weight-adapted flag
    with random lower-weight tails, which reaches the special-position
    diamonds as well.  Every candidate goes through validation; failures
    are discarded and redrawn.
    """
    for _ in range(_ATTEMPTS):
        h = random_hodge_diamond(rng, max_dim, weight_range)
        if rng.random() < 0.5:
            if not generically_realizable(h):
                continue
            m = structure_from_diamond(rng, h)
        else:
            m = adapted_structure_from_diamond(rng, h)
        if m is not None:
            return m
    raise RuntimeError(f"no valid structure after {_ATTEMPTS} attempts")


def random_extension(
    rng: random.Random, max_dim_each: int = 3
) -> tuple[MixedHodgeStructure, MixedHodgeStructure, Matrix, MixedHodgeStructure]:
    """(sub, quotient, lift, total) with sub weights strictly below quotient.

    Weight separation makes every lift matrix produce a valid total structure,
    so the lift can be drawn freely.
    """
    split = rng.randint(-1, 1)
    a = random_mhs(rng, max_dim_each, weight_range=(-2, split))
    b = random_mhs(rng, max_dim_each, weight_range=(split + 1, 3))
    lift = from_rows(
        [
            tuple(gauss(re, im) for re, im in _random_row(rng, b.ambient_dim))
            for _ in range(a.ambient_dim)
        ],
        b.ambient_dim,
    )
    total = assemble_extension(a, b, lift)
    return a, b, lift, total


def random_compatible_morphism(
    rng: random.Random,
    src: MixedHodgeStructure,
    dst: MixedHodgeStructure,
) -> FilteredMorphism:
    """A random real matrix compatible with both weight and Hodge levels.

    Compatibility with a filtration level is a linear condition on the matrix
    entries: each annihilator functional of the target level must vanish on
    the image of each source basis vector.  Realness of the unknowns plus
    compatibility with F gives compatibility with the conjugate filtration
    for free, so only W and F contribute equations.  The conditions are
    solved exactly over the rationals and a random integer combination of the
    kernel basis is returned; the zero morphism is always available, so the
    construction never fails.
    """
    ns, nt = src.ambient_dim, dst.ambient_dim
    # real and imaginary parts of a_i v_j, unknown (i, j) at i * ns + j,
    # for integer rows v of a source level and a of the target annihilator
    rows: list[list[tuple[int, int]]] = []
    for fs, fd in ((src.W, dst.W), (src.F, dst.F)):
        for key in sorted({k for k, _ in fs.levels} | {k for k, _ in fd.levels}):
            ann_rows = annihilator(fd.at(key)).rows
            for v in fs.at(key).rows:
                for a in ann_rows:
                    coeffs = [_mul(x, y) for x in a for y in v]
                    rows.append([(re, 0) for re, _ in coeffs])
                    if any(im for _, im in coeffs):
                        rows.append([(im, 0) for _, im in coeffs])

    # rational solution space of the homogeneous system, one row per basis vector
    nu = nt * ns
    # the equations are real, so the kernel's rows are too; each row over
    # its pivot is a row of the reduced echelon basis
    ker = annihilator(row_space(rows, nu))
    entries = [Fraction(0)] * nu
    for krow, p in zip(ker.rows, ker.pivots()):
        c = rng.randint(-3, 3)
        if c:
            d = krow[p][0]
            entries = [e + Fraction(c * a, d) for e, (a, _) in zip(entries, krow)]
    mat = from_rows(
        [[gauss(entries[i * ns + j]) for j in range(ns)] for i in range(nt)],
        ns,
    )
    return FilteredMorphism(mat, src.triple(), dst.triple())
