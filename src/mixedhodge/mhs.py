"""Mixed Hodge structures over Q(i) with componentwise real structure.

A structure is a pair (W, F): W a decreasing weight filtration whose
levels must be stable under coordinatewise conjugation, F an arbitrary
decreasing filtration.  The conjugate filtration Fbar is always computed
from F, never taken from the user, and the triple (W, F, Fbar) has to be
opposed; ``validate`` enforces all of it with named offenders.

The canonical bigrading (``deligne_splitting``) is

    I^{p,q} = (F^p  W_{p+q})  (Fbar^q  W_{p+q}
               + sum_{i>=1} Fbar^{q-i}  W_{p+q-i-1})

in increasing weight notation W_m = W.at(-m); the sum stops once the
weight term hits zero.  Conjugation maps I^{p,q} into I^{q,p} only up to
lower weight; the structure is R-split when it maps it onto I^{q,p} on
the nose, which happens exactly when the splitting defect alpha vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from mixedhodge.filtration import (
    FilteredSpace,
    _filtrations_from_json,
    direct_sum,
    dual,
    filtered_space,
    shift,
    tensor,
    trivial,
)
from mixedhodge.linalg import (
    Matrix,
    Subspace,
    _Z,
    _apply,
    _canonical,
    _trusted,
    conj_subspace,
    intersect,
    subspace_sum,
    zero_subspace,
)
from mixedhodge.multifilt import (
    TrifilteredSpace,
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

    @cached_property
    def fbar(self) -> FilteredSpace:
        # computed once per structure; equality and hashing stay on the fields
        return conj_filtration(self.F)

    def triple(self) -> TrifilteredSpace:
        return TrifilteredSpace(self.ambient_dim, W=self.W, F=self.F, G=self.fbar)

    def weight_at(self, m: int) -> Subspace:
        """Increasing weight lookup: W_m is the decreasing W at -m."""
        return self.W.at(-m)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "W": self.W.to_json(),
            "F": self.F.to_json(),
        }


def conj_filtration(f: FilteredSpace) -> FilteredSpace:
    return FilteredSpace(
        f.ambient_dim,
        tuple((k, conj_subspace(v)) for k, v in f.levels),
    )


def validate(w: FilteredSpace, f: FilteredSpace) -> MixedHodgeStructure:
    """Check the axioms and build the structure, naming any offender."""
    if w.ambient_dim != f.ambient_dim:
        raise ValueError("weight and Hodge filtrations have different dimensions")
    for k, v in w.levels:
        if conj_subspace(v) != v:
            raise ValueError(f"weight level {k} is not conjugation stable")
    m = MixedHodgeStructure(w.ambient_dim, w, f)
    delta = trigraded_dims(m.triple())
    for (r, p, q), d in sorted(delta.items()):
        if d and r + p + q != 0:
            raise ValueError(
                f"not opposed: trigraded dimension {d} at "
                f"(r, p, q) = ({r}, {p}, {q})"
            )
    h = hodge_numbers(m.triple())
    for (p, q), d in sorted(h.items()):
        if h.get((q, p), 0) != d:
            raise ValueError(
                f"Hodge numbers not symmetric: h({p},{q}) = {d} but "
                f"h({q},{p}) = {h.get((q, p), 0)}"
            )
    return m


def deligne_splitting(m: MixedHodgeStructure) -> dict[tuple[int, int], Subspace]:
    """The canonical bigraded pieces I^{p,q}, over the Hodge support."""
    fbar = m.fbar
    pieces: dict[tuple[int, int], Subspace] = {}
    for (p, q), _ in sorted(hodge_numbers(m.triple()).items()):
        first = intersect(m.F.at(p), m.weight_at(p + q))
        corrector = intersect(fbar.at(q), m.weight_at(p + q))
        i = 1
        while True:
            # weight term W_{p+q-i-1} shrinks with i and hits zero, since
            # the decreasing form of W ends at the zero subspace
            wterm = m.weight_at(p + q - i - 1)
            if wterm.is_zero:
                break
            corrector = subspace_sum(corrector, intersect(fbar.at(q - i), wterm))
            i += 1
        pieces[(p, q)] = intersect(first, corrector)
    return pieces


def is_r_split(m: MixedHodgeStructure) -> bool:
    """Whether conjugation permutes the canonical pieces exactly."""
    pieces = deligne_splitting(m)
    for (p, q), v in pieces.items():
        if conj_subspace(v) != pieces.get((q, p), zero_subspace(m.ambient_dim)):
            return False
    return True


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
    a: MixedHodgeStructure, b: MixedHodgeStructure, lift: Matrix
) -> MixedHodgeStructure:
    """Glue b on top of a along a lift of the Hodge filtration.

    The underlying space is V_a + V_b.  Weights add up componentwise; the
    Hodge filtration of the total space is spanned by F_a^p and the graph
    vectors (lift . v, v) for v in F_b^p, taken as (D lift . v, D v) on
    integer rows v, D the common denominator of lift.  The graph makes
    the sub/quotient contract hold by itself: a vector of F^p lies in V_a
    only when its graph part is zero, so restricting to V_a gives back
    F_a^p, and projecting to V_b gives back F_b^p.  The result is
    validated, so a lift that breaks opposedness raises.
    """
    if lift.rows != a.ambient_dim or lift.cols != b.ambient_dim:
        raise ValueError("lift must map the second summand into the first")
    n = a.ambient_dim + b.ambient_dim
    pad = (_Z,) * b.ambient_dim
    f_levels: dict[int, Subspace] = {}
    for p in sorted(set(a.F.jumps()) | set(b.F.jumps())):
        b_rows = b.F.at(p).rows
        images, den = _apply(lift, b_rows)
        rows = [row + pad for row in a.F.at(p).rows]
        rows += [
            [*image, *((den * x, den * y) for x, y in row)]
            for image, row in zip(images, b_rows)
        ]
        f_levels[p] = _trusted(n, _canonical(rows))
    return validate(direct_sum(a.W, b.W), filtered_space(n, f_levels))


def parse_json(data: object) -> tuple[FilteredSpace, FilteredSpace]:
    """The (W, F) pair of an MHS document, shape-checked but not validated,
    so a malformed file and an inconsistent structure can be told apart."""
    w, f = _filtrations_from_json(data, "mixed Hodge structure", ("W", "F"))
    return w, f


def from_json(data: object) -> MixedHodgeStructure:
    return validate(*parse_json(data))
