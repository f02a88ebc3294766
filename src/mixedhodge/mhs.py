"""Mixed Hodge structures over Q(i) with componentwise real structure.

A structure is a pair (W, F): W a decreasing weight filtration whose
levels must be stable under coordinatewise conjugation, F an arbitrary
decreasing filtration.  The conjugate filtration Fbar is always computed
from F, never taken from the user, and the triple (W, F, Fbar) has to be
opposed.  The constructor rejects a weight level that is not real, and
``validate`` checks the rest, each with named offenders.

The canonical bigrading (``deligne_splitting``) is

    I^{p,q} = (F^p ∩ W_{p+q}) ∩ (Fbar^q ∩ W_{p+q}
               + sum_{i>=1} Fbar^{q-i} ∩ W_{p+q-i-1})

in increasing weight notation W_m = W.at(-m); the sum stops once the
weight term hits zero.  Conjugation maps I^{p,q} into I^{q,p} only up to
lower weight; the structure is R-split when it maps it onto I^{q,p} on
the nose, which happens exactly when the splitting defect alpha vanishes.

The triple (W, F, Fbar) of a structure takes the levels Fbar induces
on each W-graded piece as the conjugates of those F induces, which a
real W allows (below), so its trigraded table takes one echelon, F's,
and so do its Tate twists (``_MhsTriple``).

Every term is read off one elimination, the F entry of the trigraded
table (``multifilt._trigraded_items``), which ``validate`` has built.  In
coordinates y adapted to W each W_m is {y_j = 0 for j < n - dim W_m}.
An F-adapted basis, in y coordinates, is put in echelon form once; then
F^a ∩ W_m is spanned by those of the first dim F^a rows that lead at
n - dim W_m or later.  The levels of W are real (the constructor checks
it), so their adapted coordinates are real, y commutes with conjugation
and Fbar's echelon is the row-wise conjugate of F's: no second
elimination.  A piece lies in F^p ∩ W_{p+q} and has dimension h^{p,q},
so where that intersection has h^{p,q} rows it is the piece, and no pass
is run; the rule presupposes a validated structure, whose Hodge numbers
are the dimensions of its pieces.  Each other piece is one Zassenhaus
pass: the corrector rows, conjugated as [ybar | 0], already have
distinct leading columns; each row y of F^p ∩ W_{p+q} enters as [y | y]
and is reduced against them, and a row whose left half vanishes carries
a vector of I^{p,q}, in y coordinates, in its right half.  The entry's
map back, integer rows with back . y = L x for one positive integer L,
takes each such vector to the original coordinates x, one dot product
per coordinate, before the piece is spanned.

A structure keeps Fbar, its triple (W, F, Fbar) and its Deligne pieces
once computed, so ``validate``, ``deligne_splitting``, ``is_r_split`` and
their callers share one triple and one set of pieces per structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from mixedhodge.filtration import (
    FilteredSpace,
    _filtrations_from_json,
    _summed_generators,
    direct_sum,
    dual,
    from_generators,
    shift,
    tensor,
    trivial,
)
from mixedhodge.linalg import (
    IntRow,
    Subspace,
    _Z,
    _dot,
    _echelon,
    _pivot,
    conj_subspace,
    row_space,
    zero_subspace,
)
from mixedhodge.multifilt import (
    TrifilteredSpace,
    _trigraded_items,
    hodge_numbers,
    trigraded_dims,
)


@dataclass(frozen=True)
class MixedHodgeStructure:
    ambient_dim: int
    W: FilteredSpace
    F: FilteredSpace

    def __post_init__(self) -> None:
        if self.W.ambient_dim != self.ambient_dim:
            raise ValueError("weight filtration has wrong ambient dimension")
        if self.F.ambient_dim != self.ambient_dim:
            raise ValueError("Hodge filtration has wrong ambient dimension")
        # a real W gives real W-adapted coordinates, on which the triple
        # and the Deligne splitting take Fbar's side as the conjugate of
        # F's; a level is real when no canonical row has an imaginary part
        for k, v in self.W.levels:
            if any(b for row in v.rows for _, b in row):
                raise ValueError(f"weight level {k} is not conjugation stable")

    # cached per structure; equality and hashing stay on the fields
    @cached_property
    def fbar(self) -> FilteredSpace:
        return conj_filtration(self.F)

    @cached_property
    def _triple(self) -> TrifilteredSpace:
        return _MhsTriple(self.ambient_dim, W=self.W, F=self.F, G=self.fbar)

    def triple(self) -> TrifilteredSpace:
        return self._triple

    @cached_property
    def _deligne(self) -> dict[tuple[int, int], Subspace]:
        n = self.ambient_dim
        rows, _, back = _trigraded_items(self.W.values(), self.F.values())
        leads = [_pivot(r) for r in rows]
        # Fbar's echelon is the row-wise conjugate of F's; as corrector
        # rows of the Zassenhaus pass their right half is zero
        zero = (_Z,) * n
        bars = [(*((a, -b) for a, b in r), *zero) for r in rows]

        def meet(a: int, m: int) -> list[int]:
            """The rows spanning F^a ∩ W_m (and, conjugated, Fbar^a ∩ W_m):
            the first dim F^a, those leading at n - dim W_m or later."""
            cut = n - self.weight_at(m).dim
            return [k for k in range(self.F.at(a).dim) if leads[k] >= cut]

        pieces: dict[tuple[int, int], Subspace] = {}
        for (p, q), h in sorted(hodge_numbers(self.triple()).items()):
            cell = meet(p, p + q)
            if len(cell) == h:
                # I^{p,q} lies in F^p ∩ W_{p+q} and has dimension h^{p,q}
                found = [rows[k] for k in cell]
            else:
                corrector = set(meet(q, p + q))
                i = 1
                # weight term W_{p+q-i-1} shrinks with i and hits zero,
                # since the decreasing form of W ends at the zero subspace
                while not self.weight_at(p + q - i - 1).is_zero:
                    corrector.update(meet(q - i, p + q - i - 1))
                    i += 1
                met = _echelon(
                    [rows[k] + rows[k] for k in cell],
                    {leads[k]: bars[k] for k in corrector},
                )
                # a row whose left half vanished carries a vector of the
                # piece in y coordinates in its right half
                found = [r[n:] for r in met if _pivot(r) >= n]
            # back takes the piece's y rows to x coordinates
            pieces[(p, q)] = row_space([[_dot(b, y) for b in back] for y in found], n)
        return pieces

    def weight_at(self, m: int) -> Subspace:
        """Increasing weight lookup: W_m is the decreasing W at -m."""
        return self.W.at(-m)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "W": self.W.to_json(),
            "F": self.F.to_json(),
        }


class _MhsTriple(TrifilteredSpace):
    """The triple (W, F, Fbar) of a structure: G's pieces are F's
    conjugated, and no echelon or piece span is taken for Fbar.  A Tate
    twist keeps the class (``invariants.tate_twist_triple``).  It compares
    and hashes as a ``TrifilteredSpace`` with the same fields."""

    def _pieces(self) -> tuple[tuple[tuple[Subspace, ...], ...], ...]:
        f_pieces = _trigraded_items(self.W.values(), self.F.values())[1]
        return f_pieces, tuple(tuple(map(conj_subspace, c)) for c in f_pieces)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrifilteredSpace):
            return NotImplemented
        return (self.ambient_dim, self.W, self.F, self.G) == (
            other.ambient_dim, other.W, other.F, other.G
        )

    __hash__ = TrifilteredSpace.__hash__


def conj_filtration(f: FilteredSpace) -> FilteredSpace:
    return FilteredSpace(
        f.ambient_dim,
        tuple((k, conj_subspace(v)) for k, v in f.levels),
    )


def validate(w: FilteredSpace, f: FilteredSpace) -> MixedHodgeStructure:
    """Check the axioms and build the structure, naming any offender.

    Hodge symmetry needs no check of its own: W is real and G is Fbar, so
    conjugation maps F^p ∩ Fbar^q on each gr_W^r onto Fbar^p ∩ F^q, and
    delta(r, p, q) = delta(r, q, p) for every F."""
    if w.ambient_dim != f.ambient_dim:
        raise ValueError("weight and Hodge filtrations have different dimensions")
    m = MixedHodgeStructure(w.ambient_dim, w, f)
    delta = trigraded_dims(m.triple())
    for (r, p, q), d in sorted(delta.items()):
        if d and r + p + q != 0:
            raise ValueError(
                f"not opposed: trigraded dimension {d} at "
                f"(r, p, q) = ({r}, {p}, {q})"
            )
    return m


def deligne_splitting(m: MixedHodgeStructure) -> dict[tuple[int, int], Subspace]:
    """The canonical bigraded pieces I^{p,q}, over the Hodge support,
    computed once per structure; each call returns its own dict."""
    return dict(m._deligne)


def is_r_split(m: MixedHodgeStructure) -> bool:
    """Whether conjugation permutes the canonical pieces exactly."""
    pieces = deligne_splitting(m)
    zero = zero_subspace(m.ambient_dim)
    return all(
        conj_subspace(v) == pieces.get((q, p), zero) for (p, q), v in pieces.items()
    )


def tate(k: int) -> MixedHodgeStructure:
    """Rank one, pure of weight -2k and type (-k, -k)."""
    return validate(shift(trivial(1), 2 * k), shift(trivial(1), -k))


def tate_twist(m: MixedHodgeStructure, k: int) -> MixedHodgeStructure:
    """Shift types by (k, k) and weight by -2k."""
    return validate(shift(m.W, -2 * k), shift(m.F, k))


def dual_mhs(m: MixedHodgeStructure) -> MixedHodgeStructure:
    return validate(dual(m.W), dual(m.F))


def direct_sum_mhs(
    a: MixedHodgeStructure, b: MixedHodgeStructure
) -> MixedHodgeStructure:
    return validate(direct_sum(a.W, b.W), direct_sum(a.F, b.F))


def tensor_mhs(
    a: MixedHodgeStructure, b: MixedHodgeStructure
) -> MixedHodgeStructure:
    return validate(tensor(a.W, b.W), tensor(a.F, b.F))


def assemble_extension(
    a: MixedHodgeStructure,
    b: MixedHodgeStructure,
    lift: tuple[tuple[IntRow, ...], int],
) -> MixedHodgeStructure:
    """Glue b on top of a along a lift of the Hodge filtration.

    The lift is ``(rows, den)``: the map from V_b to V_a whose matrix is
    the Gaussian-integer rows, one per coordinate of V_a, divided by the
    positive int den.  The underlying space is V_a + V_b.  Weights add up
    componentwise; the Hodge filtration of the total space is spanned by
    F_a^p and the graph vectors (lift . v, v) for v in F_b^p, taken as
    (rows . v, den v) on integer rows v.  Unlike an image, the graph
    depends on the scale, hence den.  The graph makes the sub/quotient
    contract hold by itself: a vector of F^p lies in V_a only when its
    graph part is zero, so restricting to V_a gives back F_a^p, and
    projecting to V_b gives back F_b^p.  The result is validated, so a
    lift that breaks opposedness raises.
    """
    rows, den = lift
    if len(rows) != a.ambient_dim or any(len(r) != b.ambient_dim for r in rows):
        raise ValueError("lift must map the second summand into the first")
    if den < 1:
        raise ValueError("lift denominator must be a positive integer")
    n = a.ambient_dim + b.ambient_dim
    pad = (_Z,) * b.ambient_dim
    gens = _summed_generators(
        (a.F, lambda row: row + pad),
        (b.F, lambda v: [*(_dot(r, v) for r in rows),
                         *((den * x, den * y) for x, y in v)]),
    )
    return validate(direct_sum(a.W, b.W), from_generators(n, gens))


def parse_json(data: object) -> tuple[FilteredSpace, FilteredSpace]:
    """The (W, F) pair of an MHS document, shape-checked but not validated,
    so a malformed file and an inconsistent structure can be told apart."""
    w, f = _filtrations_from_json(data, "mixed Hodge structure", ("W", "F"))
    return w, f
