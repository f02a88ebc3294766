"""Triples of decreasing filtrations and their dimension invariants.

A ``TrifilteredSpace`` carries three decreasing filtrations W, F, G of the
same Q(i)^n.  W plays the role of a (decreasing) weight filtration and is
the outer one in all graded constructions; F and G are the inner pair.

Dimension data:

* ``f_table``      f^{p,q} = dim(F^p ∩ G^q) over the jump window, with one
                   index of margin so the full and zero regions are visible;
* ``bigraded_dims``  s^{p,q} = dim of the (p,q) piece of the common graded
                   of (F, G), the second mixed difference of the f-table;
* ``trigraded_dims`` the same for (F, G) induced on each W-graded piece
                   W^r/W^{r+1}, from the same intersection loop run on the
                   levels F^p ∩ W^r + W^{r+1} and G^q ∩ W^r + W^{r+1};
* ``hodge_numbers``  the trigraded entries on the anti-diagonal r = -p-q.

``simultaneous_splitting`` realizes s^{p,q} by an explicit bigraded
decomposition, which exists for any two filtrations.  Morphisms between
triples can be tested for compatibility and strictness, and have kernels
and cokernels with their induced filtrations: a kernel in the coordinates
of its Q(i) basis, a cokernel in the non-pivot columns of the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from mixedhodge.filtration import (
    FilteredSpace,
    _filtrations_from_json,
    common_window,
    induced_on_quotient,
    induced_on_sub,
)
from mixedhodge.linalg import (
    Matrix,
    Subspace,
    _canonical,
    _in_basis,
    _trusted,
    full_space,
    image,
    intersect,
    intersect_dim,
    kernel as matrix_kernel,
    subspace_sum,
)


@dataclass(frozen=True)
class TrifilteredSpace:
    ambient_dim: int
    W: FilteredSpace
    F: FilteredSpace
    G: FilteredSpace

    def __post_init__(self) -> None:
        for name, filt in (("W", self.W), ("F", self.F), ("G", self.G)):
            if filt.ambient_dim != self.ambient_dim:
                raise ValueError(f"filtration {name} has wrong ambient dimension")

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "W": self.W.to_json(),
            "F": self.F.to_json(),
            "G": self.G.to_json(),
        }


def intersection_dims(
    f_at: Callable[[int], Subspace],
    g_at: Callable[[int], Subspace],
    ps: range,
    qs: range,
) -> dict[tuple[int, int], int]:
    """dim(F^p ∩ G^q) for p in ``ps`` and q in ``qs``, p-major; the levels
    are looked up through ``f_at`` and ``g_at``."""
    out: dict[tuple[int, int], int] = {}
    for p in ps:
        fp = f_at(p)
        for q in qs:
            out[(p, q)] = intersect_dim(fp, g_at(q))
    return out


def f_table(t: TrifilteredSpace) -> dict[tuple[int, int], int]:
    """f^{p,q} = dim(F^p ∩ G^q) over the margined jump window."""
    return intersection_dims(t.F.at, t.G.at, common_window(t.F), common_window(t.G))


def pair_bigraded(f: FilteredSpace, g: FilteredSpace) -> dict[tuple[int, int], int]:
    """Dimensions of the common bigraded of two filtrations.

    The (p, q) piece is (F^p ∩ G^q) / (F^{p+1} ∩ G^q + F^p ∩ G^{q+1});
    the two summands meet in F^{p+1} ∩ G^{q+1}, so its dimension is the
    second mixed difference of the intersection dimensions.
    """
    if f.ambient_dim != g.ambient_dim:
        raise ValueError("filtrations of different spaces")
    return second_difference(
        intersection_dims(f.at, g.at, common_window(f), common_window(g))
    )


def bigraded_dims(t: TrifilteredSpace) -> dict[tuple[int, int], int]:
    """s^{p,q}: the common bigraded of (F, G), ignoring W."""
    return pair_bigraded(t.F, t.G)


def induced_on_subquotient(
    f: FilteredSpace, outer: Subspace, inner: Subspace
) -> FilteredSpace:
    """Filtration induced on outer/inner; inner must sit inside outer."""
    if not (inner <= outer):
        raise ValueError("inner subspace not contained in outer")
    return induced_on_quotient(induced_on_sub(f, outer), _in_basis(outer, inner.rows))


def trigraded_dims(t: TrifilteredSpace) -> dict[tuple[int, int, int], int]:
    """delta(r, p, q): bigraded dims of (F, G) on each W-graded piece."""
    return dict(_trigraded_items(t))


@lru_cache(maxsize=8192)
def _trigraded_items(
    t: TrifilteredSpace,
) -> tuple[tuple[tuple[int, int, int], int], ...]:
    # On the piece W^r/W^{r+1} the levels of F and G are the images of
    # M_F = F^p ∩ W^r and M_G = G^q ∩ W^r, and their intersection has
    # dimension dim((M_F + W^{r+1}) ∩ (M_G + W^{r+1})) - dim W^{r+1}.
    ps, qs = common_window(t.F), common_window(t.G)
    out: dict[tuple[int, int, int], int] = {}
    for r in common_window(t.W):
        outer = t.W.at(r)
        inner = t.W.at(r + 1)
        if outer.dim == inner.dim:
            continue
        f_up = {p: subspace_sum(intersect(t.F.at(p), outer), inner) for p in ps}
        g_up = {q: subspace_sum(intersect(t.G.at(q), outer), inner) for q in qs}
        table = {
            pq: d - inner.dim
            for pq, d in intersection_dims(
                f_up.__getitem__, g_up.__getitem__, ps, qs
            ).items()
        }
        for (p, q), d in second_difference(table).items():
            out[(r, p, q)] = d
    return tuple(sorted(out.items()))


def hodge_numbers(t: TrifilteredSpace) -> dict[tuple[int, int], int]:
    """h^{p,q}: trigraded entries with r = -p-q."""
    return {
        (p, q): d
        for (r, p, q), d in trigraded_dims(t).items()
        if r == -p - q
    }


def is_opposed(t: TrifilteredSpace) -> bool:
    """True when the trigraded dims live only on r + p + q = 0."""
    return all(r + p + q == 0 for (r, p, q) in trigraded_dims(t))


def simultaneous_splitting(
    f: FilteredSpace, g: FilteredSpace
) -> dict[tuple[int, int], Subspace]:
    """Bigraded pieces V^{p,q} splitting both filtrations at once.

    Cells are processed in decreasing lexicographic order; in each cell the
    already-forced part (one step up in either filtration) is completed to
    F^p ∩ G^q greedily over the canonical basis rows of the cell, taking
    rows with the lexicographically smallest pivot first.  The result is
    deterministic and reconstructs F^p as the span of the pieces with
    first index >= p, and likewise for G.
    """
    if f.ambient_dim != g.ambient_dim:
        raise ValueError("filtrations of different spaces")
    n = f.ambient_dim
    if n == 0:
        return {}
    cells = sorted(
        ((p, q) for p in common_window(f) for q in common_window(g)),
        reverse=True,
    )
    pieces: dict[tuple[int, int], Subspace] = {}
    for p, q in cells:
        num = intersect(f.at(p), g.at(q))
        den = subspace_sum(
            intersect(f.at(p + 1), g.at(q)), intersect(f.at(p), g.at(q + 1))
        )
        if num.dim == den.dim:
            continue
        chosen = []
        acc = den
        for row in num.rows:
            line = _trusted(n, (row,))  # one canonical row is canonical alone
            if not line <= acc:
                chosen.append(row)
                acc = subspace_sum(acc, line)
        pieces[(p, q)] = _trusted(n, _canonical(chosen))
    return pieces


@dataclass(frozen=True)
class FilteredMorphism:
    matrix: Matrix
    source: TrifilteredSpace
    target: TrifilteredSpace

    def __post_init__(self) -> None:
        if self.matrix.cols != self.source.ambient_dim:
            raise ValueError("matrix columns do not match the source dimension")
        if self.matrix.rows != self.target.ambient_dim:
            raise ValueError("matrix rows do not match the target dimension")

    def _pairs(self):
        yield "W", self.source.W, self.target.W
        yield "F", self.source.F, self.target.F
        yield "G", self.source.G, self.target.G

    def compatible(self) -> bool:
        for _, src, dst in self._pairs():
            for p in sorted(set(src.jumps()) | set(dst.jumps())):
                if not (image(self.matrix, src.at(p)) <= dst.at(p)):
                    return False
        return True

    def is_strict(self) -> bool:
        """Whether the image meets each target level exactly in the image
        of the corresponding source level.  Raises on an incompatible
        morphism: strictness presupposes compatibility.
        """
        if not self.compatible():
            raise ValueError("morphism is not compatible with the filtrations")
        full_image = image(self.matrix, full_space(self.source.ambient_dim))
        for _, src, dst in self._pairs():
            for p in sorted(set(src.jumps()) | set(dst.jumps())):
                want = intersect(full_image, dst.at(p))
                have = image(self.matrix, src.at(p))
                if want != have:
                    return False
        return True

    def kernel(self) -> TrifilteredSpace:
        """Kernel with the filtrations induced from the source."""
        k = matrix_kernel(self.matrix)
        return TrifilteredSpace(
            k.dim,
            W=induced_on_sub(self.source.W, k),
            F=induced_on_sub(self.source.F, k),
            G=induced_on_sub(self.source.G, k),
        )

    def cokernel(self) -> TrifilteredSpace:
        """Cokernel with the filtrations induced from the target."""
        im = image(self.matrix, full_space(self.source.ambient_dim))
        return TrifilteredSpace(
            self.target.ambient_dim - im.dim,
            W=induced_on_quotient(self.target.W, im),
            F=induced_on_quotient(self.target.F, im),
            G=induced_on_quotient(self.target.G, im),
        )


def second_difference(
    table: dict[tuple[int, int], int]
) -> dict[tuple[int, int], int]:
    """Second mixed difference of an f-table, nonzero entries only."""
    out: dict[tuple[int, int], int] = {}
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


def triple_from_json(data: object) -> TrifilteredSpace:
    w, f, g = _filtrations_from_json(data, "trifiltered space", ("W", "F", "G"))
    return TrifilteredSpace(w.ambient_dim, W=w, F=f, G=g)
