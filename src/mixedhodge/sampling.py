"""Seeded random generators for structures, extensions, and morphisms.

Everything here draws from a caller-supplied random.Random, so a fixed seed
reproduces the exact same structures.  The main generator works by structured
rejection: it first draws a symmetric dimension diamond, then realises it with
a random real flag for the weight filtration and a random complex flag for the
Hodge filtration.  A generic pair of flags with matching dimension data is
opposed on every graded piece, so the rejection rate stays low; degenerate
draws are simply discarded and retried.  The other generator draws the
Hodge flag adapted to the weights, which is opposed by construction, so
none of its draws is rejected.

Vectors are drawn and combined as Gaussian-integer rows, tuples of
``(re, im)`` int pairs, the form ``linalg`` stores subspaces in: a basis
candidate is tested against the echelon rows of the vectors kept so far,
and tails are added in integer arithmetic.  Each flag is
``filtration.from_generators`` of one basis cut into consecutive runs
(``_runs``), one run per index: weight m's run at index -m, since
W^{-m} = W_m, and Hodge index p's run at p.  The generators are a basis
by construction, so nothing checks that they span.  A flag of runs has
spans of basis prefixes as levels, so W (in both generators) and the
generic F take the echelon rows ``random_basis`` built for its rank
test instead, whose prefixes span the same and lead at distinct columns:
no level's span reduces a row before its back substitution.  Linear
maps are Gaussian-integer rows too: the lift of ``random_extension`` is
its drawn rows over the denominator 1, and the map of
``random_compatible_morphism`` is a random integer combination of the
solution kernel's canonical rows, each scaled so that its pivot becomes
the lcm of their pivots.  No Q(i) value is built here.  The sequence of
``randint`` calls is fixed: the tests pin seeded draws by a digest, and
the benchmark replays the proposal stage.
"""

from __future__ import annotations

import random
from math import lcm

from .filtration import FilteredSpace, common_jumps, from_generators
from .linalg import (
    IntRow,
    _echelon,
    _mul,
    annihilator,
    kernel,
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


def random_basis(
    rng: random.Random, n: int, real: bool = False
) -> tuple[list[IntRow], list[IntRow]]:
    """(basis, echelon): a random ordered basis of the full space, as
    Gaussian-integer rows with entries in a small box, and its echelon rows.

    A candidate is kept when it does not reduce to zero against the echelon
    rows of the vectors kept so far, that is, exactly when it raises the
    rank; ``_echelon`` then returns its echelon row and adds it to
    ``by_lead``.  So each prefix of ``echelon`` spans the same prefix of
    ``basis``, and its rows lead at distinct columns.
    """
    vectors: list[IntRow] = []
    echelon: list[IntRow] = []
    by_lead: dict = {}
    stuck = 0
    while len(vectors) < n:
        v = _random_row(rng, n, real=real)
        kept = _echelon([v], by_lead)
        if kept:
            vectors.append(v)
            echelon += kept
            stuck = 0
        else:
            stuck += 1
            if stuck > 64:
                raise RuntimeError("random basis draw failed to reach full rank")
    return vectors, echelon


def _weight_sizes(h: dict[tuple[int, int], int]) -> dict[int, int]:
    """Dimension of each weight of the diamond h, in ascending weight order."""
    weights = sorted({p + q for p, q in h})
    return {m: sum(d for (p, q), d in h.items() if p + q == m) for m in weights}


def _runs(basis: list[IntRow], sizes: dict[int, int]) -> dict[int, list[IntRow]]:
    """Consecutive runs of the basis, one of each size, under the keys of
    sizes in their order."""
    runs: dict[int, list[IntRow]] = {}
    start = 0
    for key, size in sizes.items():
        runs[key] = basis[start : start + size]
        start += size
    return runs


def _weight_flag(basis: list[IntRow], sizes: dict[int, int], n: int) -> FilteredSpace:
    """The weight filtration with W_m spanned by the basis vectors of the
    weights up to m, taken in order; sizes as from ``_weight_sizes``.  In
    decreasing notation W^{-m} = W_m, so weight m's run sits at index -m."""
    return from_generators(n, _runs(basis, {-m: size for m, size in sizes.items()}))


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
    flag is a generic complex flag with the prescribed jump dimensions,
    generated by consecutive runs of one random basis; when the draw
    happens to be non-generic, the two flags are not opposed and the
    validation step rejects it.
    """
    n = sum(h.values())
    w = _weight_flag(random_basis(rng, n, real=True)[1], _weight_sizes(h), n)

    f_echelon = random_basis(rng, n)[1]
    sizes = {
        p: sum(d for (pp, _), d in h.items() if pp == p)
        for p in sorted({p for p, _ in h}, reverse=True)
    }
    try:
        return validate(w, from_generators(n, _runs(f_echelon, sizes)))
    except ValueError:
        return None


def adapted_structure_from_diamond(
    rng: random.Random, h: dict[tuple[int, int], int]
) -> MixedHodgeStructure:
    """A realisation of h with the Hodge flag drawn adapted to the weights.

    Block vectors x, y of each weight give generators x + iy and x - iy for a
    mirror pair of cells and real generators for diagonal cells, then every
    generator picks up a random tail in the lower-weight part.  The tails
    die on the graded pieces, so any symmetric diamond is realisable this
    way, including ones that need special flag position.  The generators
    are block-triangular in the real weight basis, with x ± iy spanning
    what x and y span, so they are a basis, and the flags are opposed by
    construction: validation never rejects a draw, and an error it raises
    here is a fault, not a degenerate draw.
    """
    n = sum(h.values())
    sizes = _weight_sizes(h)
    # W from the echelon rows; the generators of F from the basis itself
    w_basis, w_echelon = random_basis(rng, n, real=True)
    w = _weight_flag(w_echelon, sizes, n)

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

    return validate(w, from_generators(n, gens))


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
) -> tuple[
    MixedHodgeStructure,
    MixedHodgeStructure,
    tuple[tuple[IntRow, ...], int],
    MixedHodgeStructure,
]:
    """(sub, quotient, lift, total) with sub weights strictly below quotient.

    Weight separation makes every lift produce a valid total structure, so
    the lift, ``(rows, 1)`` as ``assemble_extension`` takes it, can be
    drawn freely.
    """
    split = rng.randint(-1, 1)
    a = random_mhs(rng, max_dim_each, weight_range=(-2, split))
    b = random_mhs(rng, max_dim_each, weight_range=(split + 1, 3))
    lift = tuple(_random_row(rng, b.ambient_dim) for _ in range(a.ambient_dim)), 1
    total = assemble_extension(a, b, lift)
    return a, b, lift, total


def random_compatible_morphism(
    rng: random.Random,
    src: MixedHodgeStructure,
    dst: MixedHodgeStructure,
) -> FilteredMorphism:
    """A random real map compatible with both weight and Hodge levels.

    Compatibility with a filtration level is a linear condition on the matrix
    entries: each annihilator functional of the target level must vanish on
    the image of each source basis vector.  Realness of the unknowns plus
    compatibility with F gives compatibility with the conjugate filtration
    for free, so only W and F contribute equations.  The conditions are
    solved exactly over the rationals, and the map is a random integer
    combination of the reduced echelon basis of the solutions, times the
    lcm of its pivots so that its rows are integers; the zero morphism is
    always available, so the construction never fails.
    """
    ns, nt = src.ambient_dim, dst.ambient_dim
    # real and imaginary parts of a_i v_j, unknown (i, j) at i * ns + j,
    # for integer rows v of a source level and a of the target annihilator
    rows: list[list[tuple[int, int]]] = []
    for fs, fd in ((src.W, dst.W), (src.F, dst.F)):
        for key in common_jumps(fs, fd):
            ann_rows = annihilator(fd.at(key)).rows
            for v in fs.at(key).rows:
                for a in ann_rows:
                    coeffs = [_mul(x, y) for x in a for y in v]
                    rows.append([(re, 0) for re, _ in coeffs])
                    if any(im for _, im in coeffs):
                        rows.append([(im, 0) for _, im in coeffs])

    # rational solution space of the homogeneous system, one row per basis
    # vector; the equations are real, so the kernel's rows are too, and
    # each row over its pivot is a row of the reduced echelon basis
    nu = nt * ns
    ker = kernel(rows, nu)
    pivots = ker.pivots()
    big = lcm(*(krow[p][0] for krow, p in zip(ker.rows, pivots)))
    entries = [(0, 0)] * nu
    for krow, p in zip(ker.rows, pivots):
        c = rng.randint(-3, 3)
        if c:
            s = c * (big // krow[p][0])
            entries = [(x + s * a, y + s * b) for (x, y), (a, b) in zip(entries, krow)]
    mat = tuple(tuple(entries[i * ns : (i + 1) * ns]) for i in range(nt))
    return FilteredMorphism(mat, src.triple(), dst.triple())
