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
                   W^r/W^{r+1}.  In coordinates y adapted to W, each W^r
                   is {y_j = 0 for j < n - dim W^r}; one echelon of an
                   F-adapted basis then holds F^p ∩ W^r for every p and r
                   (its rows leading at n - dim W^r or later), so each
                   piece gets its levels by cutting rows to its columns;
* ``hodge_numbers``  the trigraded entries on the anti-diagonal r = -p-q.

Every table is read off one level table.  A filtration takes only
len(jumps) + 1 distinct values, the full space and then its levels, and
F^p is the value at position ``bisect_right(jumps, p)``.  ``_level_dims``
holds dim(x ∩ y) for every value x of F and y of G, by position; the
f-table reads its entries from it at any window, and s is its second
difference over positions k, l, placed at (jump_k - 1, jump_l - 1), where
both filtrations change.  Each W-piece of the trigraded table does the
same with the levels F and G induce on it.

The trigraded table is computed once per triple and kept on it, so
``hodge_numbers``, ``is_opposed`` and the invariants of one triple share
it, and it goes away with the triple.  The levels one flag induces on the
pieces of W are kept by value in ``_trigraded_items``, and the level
tables in ``_level_dims`` (see ``linalg``), so a Tate twist of the triple
and the fibers of a family that share W and a flag reuse them.

``simultaneous_splitting`` realizes s^{p,q} by an explicit bigraded
decomposition, which exists for any two filtrations.  Morphisms between
triples can be tested for compatibility and strictness, and have kernels
and cokernels with their induced filtrations: a kernel in the coordinates
of its Q(i) basis, a cokernel in the non-pivot columns of the image.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    _adapted_basis,
    _dot,
    _echelon,
    _flag_coordinates,
    _in_basis,
    _pivot,
    full_space,
    image,
    intersect,
    intersect_dim,
    kernel as matrix_kernel,
    row_space,
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

    @cached_property
    def _trigraded(self) -> dict[tuple[int, int, int], int]:
        # computed once per triple; equality and hashing stay on the fields.
        # The images of F and G on each piece W^r/W^{r+1}, r one below a
        # jump of W, come from ``_trigraded_items``, one per position of
        # the flag, and give the piece's level table.
        n = self.ambient_dim
        w_chain = _chain(self.W)
        f_jumps, g_jumps = self.F.jumps(), self.G.jumps()
        out: dict[tuple[int, int, int], int] = {}
        for (key, _), f_gr, g_gr in zip(
            self.W.levels,
            _trigraded_items(n, w_chain, _chain(self.F)),
            _trigraded_items(n, w_chain, _chain(self.G)),
        ):
            table = _level_dims(f_gr, g_gr)
            for (p, q), d in _bigraded_by_position(table, f_jumps, g_jumps).items():
                out[(key - 1, p, q)] = d
        return out


def _chain(f: FilteredSpace) -> tuple[Subspace, ...]:
    """The level subspaces of a filtration, without their indices."""
    return tuple(v for _, v in f.levels)


@lru_cache(maxsize=128)
def _trigraded_items(
    n: int, w_chain: tuple[Subspace, ...], x_chain: tuple[Subspace, ...]
) -> tuple[tuple[Subspace, ...], ...]:
    """The flag Q(i)^n ⊃ x_chain induced on each graded piece of the flag
    Q(i)^n ⊃ w_chain: per piece, the images of the full space and of each
    member of x_chain, in the piece's own coordinates.

    In coordinates y adapted to W (``_flag_coordinates``) the member W_k
    of w_chain is {y_j = 0 for j < n - dim W_k}.  An X-adapted basis,
    deepest level first, is put in echelon form (``_echelon``); its first
    dim X rows span a level X, and those that lead in the columns
    [n - dim W_{k-1}, n - dim W_k) give X ∩ W_{k-1} modulo W_k, cut to
    those columns.  Keyed by the level subspaces, so a shifted or twisted
    filtration shares the entry.
    """
    coords = _flag_coordinates(w_chain)
    rows = _echelon(
        [
            [_dot(a, x) for a in coords]
            for x in _adapted_basis([*reversed(x_chain), full_space(n)])
        ]
    )
    leads = [_pivot(r) for r in rows]
    out = []
    lo = 0
    for w in w_chain:
        hi = n - w.dim
        cut = [(k, r[lo:hi]) for k, r in enumerate(rows) if lo <= leads[k] < hi]
        # the levels shrink along the flag, so their images only lose rows
        level = full_space(hi - lo)
        levels = [level]
        for x in x_chain:
            keep = [r for k, r in cut if k < x.dim]
            if len(keep) < level.dim:
                level = row_space(keep, hi - lo)
            levels.append(level)
        out.append(tuple(levels))
        lo = hi
    return tuple(out)


def _positions(f: FilteredSpace) -> tuple[Subspace, ...]:
    """The distinct values of a filtration: the full space, then its
    levels.  ``f.at(p)`` is entry ``bisect_right(f.jumps(), p)``."""
    return (full_space(f.ambient_dim), *_chain(f))


@lru_cache(maxsize=128)
def _level_dims(
    xs: tuple[Subspace, ...], ys: tuple[Subspace, ...]
) -> tuple[tuple[int, ...], ...]:
    """dim(x ∩ y) for x in xs and y in ys, x-major.  Keyed by the two
    chains of subspaces, so indices play no part: a shifted filtration
    and the pieces of equal level tuples share the entry."""
    return tuple(tuple(intersect_dim(x, y) for y in ys) for x in xs)


def _bigraded_by_position(
    table: tuple[tuple[int, ...], ...],
    f_jumps: tuple[int, ...],
    g_jumps: tuple[int, ...],
) -> dict[tuple[int, int], int]:
    """Second mixed difference of a level table over positions k, l, at
    (f_jumps[k] - 1, g_jumps[l] - 1), where the levels change; nonzero
    entries only, p-major."""
    out: dict[tuple[int, int], int] = {}
    for k, p in enumerate(f_jumps):
        here, below = table[k], table[k + 1]
        for l, q in enumerate(g_jumps):
            d = here[l] - below[l] - here[l + 1] + below[l + 1]
            if d:
                out[(p - 1, q - 1)] = d
    return out


def intersection_dims(
    f: FilteredSpace, g: FilteredSpace, ps: range, qs: range
) -> dict[tuple[int, int], int]:
    """dim(F^p ∩ G^q) for p in ``ps`` and q in ``qs``, p-major, read off
    the level table by position; any window will do."""
    table = _level_dims(_positions(f), _positions(g))
    f_jumps, g_jumps = f.jumps(), g.jumps()
    cols = [bisect_right(g_jumps, q) for q in qs]
    out: dict[tuple[int, int], int] = {}
    for p in ps:
        row = table[bisect_right(f_jumps, p)]
        for q, l in zip(qs, cols):
            out[(p, q)] = row[l]
    return out


def f_table(t: TrifilteredSpace) -> dict[tuple[int, int], int]:
    """f^{p,q} = dim(F^p ∩ G^q) over the margined jump window."""
    return intersection_dims(t.F, t.G, common_window(t.F), common_window(t.G))


def pair_bigraded(f: FilteredSpace, g: FilteredSpace) -> dict[tuple[int, int], int]:
    """Dimensions of the common bigraded of two filtrations.

    The (p, q) piece is (F^p ∩ G^q) / (F^{p+1} ∩ G^q + F^p ∩ G^{q+1});
    the two summands meet in F^{p+1} ∩ G^{q+1}, so its dimension is the
    second mixed difference of the intersection dimensions, nonzero only
    where both filtrations jump between p and p + 1 and q and q + 1.
    """
    if f.ambient_dim != g.ambient_dim:
        raise ValueError("filtrations of different spaces")
    table = _level_dims(_positions(f), _positions(g))
    return _bigraded_by_position(table, f.jumps(), g.jumps())


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
    return dict(t._trigraded)


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
            line = Subspace(n, (row,))  # one canonical row is canonical alone
            if not line <= acc:
                chosen.append(row)
                acc = subspace_sum(acc, line)
        pieces[(p, q)] = row_space(chosen, n)
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

    def _levels(self):
        """(source level, target level) at every jump of W, F and G."""
        s, t = self.source, self.target
        for src, dst in ((s.W, t.W), (s.F, t.F), (s.G, t.G)):
            for p in sorted(set(src.jumps()) | set(dst.jumps())):
                yield src.at(p), dst.at(p)

    def compatible(self) -> bool:
        return all(image(self.matrix, src) <= dst for src, dst in self._levels())

    def is_strict(self) -> bool:
        """Whether the image meets each target level exactly in the image
        of the corresponding source level.  Raises on an incompatible
        morphism: strictness presupposes compatibility.
        """
        if not self.compatible():
            raise ValueError("morphism is not compatible with the filtrations")
        full_image = image(self.matrix, full_space(self.source.ambient_dim))
        return all(
            intersect(full_image, dst) == image(self.matrix, src)
            for src, dst in self._levels()
        )

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


def triple_from_json(data: object) -> TrifilteredSpace:
    w, f, g = _filtrations_from_json(data, "trifiltered space", ("W", "F", "G"))
    return TrifilteredSpace(w.ambient_dim, W=w, F=f, G=g)
