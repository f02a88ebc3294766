"""Discrete invariants of a trifiltered space.

Everything here is a function of the dimension tables only, so the
results are exact integers and rationals.

Chern data of the associated bundle: writing delta(r, p, q) for the
trigraded dims and s^{p,q} for the bigraded dims of (F, G),

    c1  = sum (r + p + q) delta
    ch2 = sum delta (r^2 + 2rp + 2rq) / 2  +  sum s (p + q)^2 / 2

and c2 = c1^2/2 - ch2 is reported when c1 = 0, where it is an integer.
For a rank one triple concentrated at (r, p, q) this collapses to
ch2 = (r + p + q)^2 / 2, which doubles as an exhaustive cross-check.

The splitting defect alpha is defined only for opposed triples (trigraded
support on r + p + q = 0):

    alpha = (1/2) sum (p + q)^2 (h^{p,q} - s^{p,q})

and there it is an integer, while ch2 may be half-integral:

* h^{p,q} is the whole column delta(., p, q), so summed over q both
  h^{p,q} and s^{p,q} give dim gr_F^p, and sum (p+q) h = sum (p+q) s;
* (p+q)^2 = p+q (mod 2), so the sum above is even, and both alpha
  routes return that sum ``// 2`` as an int.

``alpha_via_f_expansion`` recomputes the s-part of alpha straight from the
intersection-dimension table f^{p,q} = dim(F^p intersect G^q), after a
twist that moves the bigraded support into the first quadrant: there

    sum (p+q)^2 s / 2 = sum_{p,q >= 1} f^{p,q}
                        + sum_{p >= 1} (2p-1)/2 f^{p,0}
                        + sum_{q >= 1} (2q-1)/2 f^{0,q}

with no f^{0,0} term, since the second mixed difference of (p+q)^2 is the
constant 2 and the edge weights telescope.  Both alpha routes read the
one (F, G) level-table entry, since s is the second mixed difference of
its table: ``alpha`` its nonzero cells (``multifilt.pair_bigraded``), the
expansion its table (``multifilt.intersection_dims``).  The independent
parts are the summation and the Tate twist.
The independent route for s is ``multifilt.simultaneous_splitting``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from mixedhodge.exactfield import fraction_json
from mixedhodge.filtration import FilteredSpace, graded_dims, shift
from mixedhodge.multifilt import (
    TrifilteredSpace,
    bigraded_dims,
    hodge_numbers,
    intersection_dims,
    is_opposed,
    pair_bigraded,
    trigraded_dims,
)


@dataclass(frozen=True)
class ChernData:
    rank: int
    c1: int
    ch2: Fraction
    c2: Fraction | None  # populated exactly when c1 == 0


def chern_data(t: TrifilteredSpace) -> ChernData:
    delta = trigraded_dims(t)
    s = bigraded_dims(t)
    c1 = sum((r + p + q) * d for (r, p, q), d in delta.items())
    # twice ch2, summed in ints
    twice = sum(
        d * (r * r + 2 * r * p + 2 * r * q) for (r, p, q), d in delta.items()
    )
    twice += sum(d * (p + q) * (p + q) for (p, q), d in s.items())
    ch2 = Fraction(twice, 2)
    c2 = -ch2 if c1 == 0 else None
    return ChernData(rank=t.ambient_dim, c1=c1, ch2=ch2, c2=c2)


def alpha(t: TrifilteredSpace) -> int:
    """Splitting defect of an opposed triple; 0 iff the bigraded of (F, G)
    already matches the Hodge numbers."""
    if not is_opposed(t):
        raise ValueError("alpha is defined only for opposed triples")
    h = hodge_numbers(t)
    s = bigraded_dims(t)
    twice = sum((p + q) * (p + q) * d for (p, q), d in h.items())
    twice -= sum((p + q) * (p + q) * d for (p, q), d in s.items())
    return twice // 2


def tate_twist_triple(t: TrifilteredSpace, k: int) -> TrifilteredSpace:
    """Shift F and G up by k and W down by 2k; opposedness is preserved
    and alpha is unchanged.  The twist keeps t's class, so the twist of a
    structure's triple takes G's pieces as F's conjugates too (``mhs``)."""
    return replace(t, W=shift(t.W, -2 * k), F=shift(t.F, k), G=shift(t.G, k))


def alpha_via_f_expansion(t: TrifilteredSpace) -> int:
    """The same defect, with the s-part expanded over the f-table."""
    if not is_opposed(t):
        raise ValueError("alpha is defined only for opposed triples")
    if t.ambient_dim == 0:
        return 0
    support = list(bigraded_dims(t)) + list(hodge_numbers(t))
    low = min(min(p, q) for p, q in support)
    t2 = tate_twist_triple(t, -low) if low < 0 else t

    # twice the h-part minus twice the s-part, as one int
    twice = sum((p + q) * (p + q) * d for (p, q), d in hodge_numbers(t2).items())
    # F and G are zero from their last jumps on
    quadrant = intersection_dims(
        t2.F, t2.G, range(t2.F.levels[-1][0] + 1), range(t2.G.levels[-1][0] + 1)
    )
    for (p, q), fval in quadrant.items():
        if not fval:
            continue
        if p >= 1 and q >= 1:
            twice -= 2 * fval
        elif p >= 1:
            twice -= (2 * p - 1) * fval
        elif q >= 1:
            twice -= (2 * q - 1) * fval
        # f^{0,0} carries weight zero
    return twice // 2


@dataclass(frozen=True)
class K0Class:
    """Dimension polynomials of the three filtration pairs and their
    marginals; together they are a class invariant of the triple.

    Two-variable coefficient tables are keyed (outer index, inner index)
    with W outermost in pA0/pA1; evaluation at (1, 1) recovers the rank.
    """

    pA0: dict[tuple[int, int], int]  # (W, F) bigraded
    pA1: dict[tuple[int, int], int]  # (W, G) bigraded
    pA2: dict[tuple[int, int], int]  # (F, G) bigraded
    pGm01: dict[int, int]  # G graded
    pGm02: dict[int, int]  # F graded
    pGm12: dict[int, int]  # W graded
    pGm2: int  # rank


def k0_class(t: TrifilteredSpace) -> K0Class:
    return K0Class(
        pA0=pair_bigraded(t.W, t.F),
        pA1=pair_bigraded(t.W, t.G),
        pA2=pair_bigraded(t.F, t.G),
        pGm01=graded_dims(t.G),
        pGm02=graded_dims(t.F),
        pGm12=graded_dims(t.W),
        pGm2=t.ambient_dim,
    )


SplittingType = tuple[tuple[int, int], ...]  # (degree, multiplicity), degree desc


def _merge_degrees(cells) -> SplittingType:
    merged: dict[int, int] = {}
    for (p, q), d in cells:
        merged[p + q] = merged.get(p + q, 0) + d
    return tuple(sorted(merged.items(), key=lambda kv: -kv[0]))


def p1_splitting_type(f: FilteredSpace, g: FilteredSpace) -> SplittingType:
    """Degrees with multiplicity of the bigraded pieces of (f, g), merged
    over p + q.  This is the splitting type of the associated bundle on
    the projective line."""
    return _merge_degrees(pair_bigraded(f, g).items())


def weight_graded_splitting_types(
    t: TrifilteredSpace,
) -> dict[int, SplittingType]:
    """Splitting type of (F, G) induced on each W-graded piece, keyed by
    the (decreasing) W index: the trigraded dims merged over p + q."""
    cells: dict[int, list[tuple[tuple[int, int], int]]] = {}
    for (r, p, q), d in trigraded_dims(t).items():
        cells.setdefault(r, []).append(((p, q), d))
    return {r: _merge_degrees(c) for r, c in cells.items()}


def invariants_report(t: TrifilteredSpace) -> dict:
    """All scalar invariants as one JSON-ready dict.

    Non-opposed triples get null alpha (and splitting types are still
    reported); c2 is null unless c1 vanishes.
    """
    chern = chern_data(t)
    opposed = is_opposed(t)
    k0 = k0_class(t)
    return {
        "rank": chern.rank,
        "c1": chern.c1,
        "ch2": [chern.ch2.numerator, chern.ch2.denominator],
        "c2": None if chern.c2 is None else fraction_json(chern.c2),
        "alpha": alpha(t) if opposed else None,
        "opposed": opposed,
        "k0": {
            "pA0": [[p, q, d] for (p, q), d in sorted(k0.pA0.items())],
            "pA1": [[p, q, d] for (p, q), d in sorted(k0.pA1.items())],
            "pA2": [[p, q, d] for (p, q), d in sorted(k0.pA2.items())],
            "pGm01": [[p, d] for p, d in sorted(k0.pGm01.items())],
            "pGm02": [[p, d] for p, d in sorted(k0.pGm02.items())],
            "pGm12": [[p, d] for p, d in sorted(k0.pGm12.items())],
            "pGm2": k0.pGm2,
        },
        "splitting_type": [
            [deg, mult] for deg, mult in p1_splitting_type(t.F, t.G)
        ],
        "weight_splitting_types": {
            str(r): [[deg, mult] for deg, mult in st]
            for r, st in sorted(weight_graded_splitting_types(t).items())
        },
    }
