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
len(jumps) + 1 distinct values, ``FilteredSpace.values()``: the full
space and then its levels, F^p being the value at position
``bisect_right(jumps, p)``.  A ``_level_dims`` entry holds the table of
dim(x ∩ y) for every value x of F and y of G, by position, and its cells,
the nonzero second differences over positions k, l, as (k, l, d).  The
f-table reads its entries from the table at any window; s maps each cell
to (jump_k - 1, jump_l - 1), where both filtrations change
(``pair_bigraded``), and each W-piece of the trigraded table maps the
cells of the levels F and G induce on it the same way, at the piece's
index r (``TrifilteredSpace._trigraded``).  A row of the table, one
value x, takes one echelon: a basis adapted to G's levels, deepest level
first, is put in echelon form after x's rows one level's new rows at a
time, and the rows kept up to each level y give rank[x; y], so
dim(x ∩ y) for every y at once.  The full and zero values need none:
their rows are dim y and 0.

The trigraded table is computed once per triple and kept on it, so
``hodge_numbers``, ``is_opposed`` and the invariants of one triple share
it, and it goes away with the triple.  Three caches outlive it, keyed by
chains of level subspaces and not by jump indices, so that a shifted or
Tate-twisted filtration and the fibers of one family, which share W, hit
them.  The keys are plain tuples of subspaces, a filtration's values or
the levels it induces on a W-piece; each ``Subspace`` keeps its hash
after the first call (see ``linalg``), so a lookup hashes one stored int
per member:

* ``_flag_coordinates``, the coordinates adapted to W and their map back
  to the original coordinates, both from one echelon of a W-adapted basis
  beside the identity, keyed by W's values (16 entries);
* ``_trigraded_items``, one flag's echelon rows in W-adapted coordinates,
  n wide, the levels it induces on every W-graded piece, and W's map
  back, keyed by (W's values, the flag's values) (128 entries).  ``mhs``'s
  Deligne splitting reads the rows and the map back of the F entry, which
  ``validate`` fills when it builds the table.  A structure's triple and
  its Tate twists fill no Fbar entry: they take G's pieces as the
  conjugates of F's (``TrifilteredSpace._pieces``, overridden in
  ``mhs``), as a real W allows; the conjugates equal Fbar's pieces, so
  their level tables are the entries a plain triple finds;
* ``_level_dims``, the level tables with their cells, keyed by the two
  tuples of values, full space first (128 entries).  One triple needs
  one entry for (F, G), one each for (W, F) and (W, G) when its K0 class
  is asked for, and one per W-piece; a twist shares them all.  The
  fibers of a lambda grid share W, and each of their two W-pieces has
  dimension 1, where F and G are full or zero, so every fiber's pieces
  find the same two entries, cells included, and a pass of n fibers
  misses at most n + 2 times.  That a grid shares one line per distinct
  row changes no count, as the keys are values: ``_trigraded_items``
  misses once per distinct line.

``simultaneous_splitting`` realizes s^{p,q} by an explicit bigraded
decomposition, which exists for any two filtrations.  A morphism between
triples holds its map as Gaussian-integer rows (see ``linalg``); it can be
tested for compatibility and strictness, and has a kernel and a cokernel
with their induced filtrations: a kernel in the coordinates of its Q(i)
basis, a cokernel in the non-pivot columns of the image.  None of these
depends on a positive scale of the rows.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm

from mixedhodge.filtration import (
    FilteredSpace,
    _filtrations_from_json,
    common_jumps,
    common_window,
    induced_on_quotient,
    induced_on_sub,
)
from mixedhodge.linalg import (
    IntRow,
    Subspace,
    _Z,
    _dot,
    _echelon,
    _in_basis,
    _pivot,
    full_space,
    image,
    intersect,
    kernel as map_kernel,
    row_space,
    subspace_sum,
    zero_subspace,
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
        # jump of W, come from ``_trigraded_items``, one per value of the
        # flag, and give the piece's level table.
        f_jumps, g_jumps = self.F.jumps(), self.G.jumps()
        out: dict[tuple[int, int, int], int] = {}
        for (key, _), f_gr, g_gr in zip(self.W.levels, *self._pieces()):
            for k, l, d in _level_dims(f_gr, g_gr)[1]:
                out[(key - 1, f_jumps[k] - 1, g_jumps[l] - 1)] = d
        return out

    def _pieces(self) -> tuple[tuple[tuple[Subspace, ...], ...], ...]:
        """The levels F and G induce on each W-graded piece."""
        w_values = self.W.values()
        return (
            _trigraded_items(w_values, self.F.values())[1],
            _trigraded_items(w_values, self.G.values())[1],
        )


def _adapted_basis(chain) -> list:
    """Rows adapted to an increasing chain of subspaces: each member's
    canonical rows whose pivots are new.  Pivot sets grow along the chain,
    so the rows kept once a member is reached are a basis of it."""
    taken: set[int] = set()
    out = []
    for sub in chain:
        for row in sub.rows:
            p = _pivot(row)
            if p not in taken:
                taken.add(p)
                out.append(row)
    return out


@lru_cache(maxsize=16)
def _flag_coordinates(
    values: tuple[Subspace, ...]
) -> tuple[tuple[IntRow, ...], tuple[IntRow, ...]]:
    """(coords, back) for the values of a filtration, full space first:
    in the coordinates y = coords . x each value V is
    {y_j = 0 for j < n - dim V}, and back . coords = L I for one positive
    integer L, so that back . y is L x.

    B is each value's canonical rows whose pivots are new to the values
    below it, the deepest value last, so the last dim V rows of B span V.
    One echelon of the rows [row i of B^T | e_i] gives the canonical rows
    [c_i e_i | c_i (B^T)^-1_i]: their right halves are ``coords``, and row
    k of ``back`` is (b_i[k] L / c_i)_i for L the lcm of the c_i.
    """
    deepest_first = _adapted_basis(reversed(values))
    dims = [v.dim for v in values]
    # the values' runs in reverse order, each keeping its ascending
    # pivots, which keeps the trigraded echelons short
    basis = [r for hi, lo in zip(dims, [*dims[1:], 0]) for r in deepest_first[lo:hi]]
    n = len(basis)
    wide = row_space(
        [
            [*(b[i] for b in basis), *((1, 0) if j == i else _Z for j in range(n))]
            for i in range(n)
        ],
        2 * n,
    )
    scales = [r[i][0] for i, r in enumerate(wide.rows)]
    big = lcm(*scales)
    shares = [big // c for c in scales]
    back = tuple(
        tuple((b[k][0] * s, b[k][1] * s) for b, s in zip(basis, shares))
        for k in range(n)
    )
    return tuple(r[n:] for r in wide.rows), back


@lru_cache(maxsize=128)
def _trigraded_items(
    w_values: tuple[Subspace, ...], x_values: tuple[Subspace, ...]
) -> tuple[
    tuple[IntRow, ...], tuple[tuple[Subspace, ...], ...], tuple[IntRow, ...]
]:
    """(rows, pieces, back): the values of a filtration X, full space
    first, in coordinates adapted to the values of W, and induced on each
    graded piece of W, with the map back to original coordinates.

    In coordinates y = coords . x adapted to W (``_flag_coordinates``) the
    value W_k is {y_j = 0 for j < n - dim W_k}.  ``rows`` is an X-adapted
    basis, deepest value first, in y coordinates and put in echelon form
    (``_echelon``): its first dim X rows span a value X, and those among
    them that lead at n - dim W_k or later span X ∩ W_k; ``back`` turns a
    row y into L x for one positive integer L.  ``pieces`` holds, per
    graded piece W_{k-1}/W_k (one per value of W after the full space),
    the image of each value of X in the piece's own coordinates: the rows
    of X ∩ W_{k-1} that lead in the columns [n - dim W_{k-1}, n - dim W_k),
    cut to those columns, give X ∩ W_{k-1} modulo W_k.  Keyed by the
    values, so a shifted or twisted filtration shares the entry.
    """
    n = w_values[0].ambient_dim
    coords, back = _flag_coordinates(w_values)
    by_lead: dict = {}
    rows = _echelon(
        [[_dot(a, x) for a in coords] for x in _adapted_basis(reversed(x_values))],
        by_lead,
    )
    leads = list(by_lead)
    x_dims = [x.dim for x in x_values]
    pieces = []
    lo = 0
    for w in w_values[1:]:
        hi = n - w.dim
        cut = [(k, r[lo:hi]) for k, r in enumerate(rows) if lo <= leads[k] < hi]
        # the values shrink along the flag, so their images only lose rows;
        # the full value keeps every row of the cut
        level = full_space(hi - lo)
        levels = []
        for d in x_dims:
            keep = [r for k, r in cut if k < d]
            if len(keep) < level.dim:
                level = row_space(keep, hi - lo) if keep else zero_subspace(hi - lo)
            levels.append(level)
        pieces.append(tuple(levels))
        lo = hi
    return tuple(map(tuple, rows)), tuple(pieces), back


@lru_cache(maxsize=128)
def _level_dims(
    xs: tuple[Subspace, ...], ys: tuple[Subspace, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int, int], ...]]:
    """(table, cells) for two decreasing chains of subspaces: ``table``
    holds dim(x ∩ y) for x in xs and y in ys, x-major, and ``cells`` its
    nonzero second mixed differences by position, (k, l, d) k-major, with
    d = table[k][l] - table[k+1][l] - table[k][l+1] + table[k+1][l+1].
    Keyed by the two chains, so indices play no part: a shifted
    filtration and the pieces of equal level tuples share the entry.

    A basis adapted to the proper levels of ys (0 < dim y < n), deepest
    first, holds each such y's rows as its first dim y rows.  A proper x
    gets one echelon: its canonical rows stand first, and each new slice
    of that basis is put in echelon form after them and the slices before
    it, deepest level first.  The rows kept from the first dim y number
    rank[x; y] - dim x, so dim(x ∩ y) = dim y - kept; once dim x + kept
    reaches n every further row reduces to zero and none is reduced.  Full
    and zero levels are read off directly: a full x meets y in y, a zero x
    in zero.
    """
    if xs and ys and len({v.ambient_dim for v in (*xs, *ys)}) > 1:
        raise ValueError("subspaces of different ambient spaces")
    dims = [y.dim for y in ys]
    levels = {d: y for d, y in zip(dims, ys) if 0 < d < y.ambient_dim}
    steps = sorted(levels)
    basis = _adapted_basis([levels[d] for d in steps])
    full_row, zero_row = tuple(dims), (0,) * len(dims)
    out = []
    for x in xs:
        k, n = x.dim, x.ambient_dim
        if k == 0 or k == n:
            out.append(zero_row if k == 0 else full_row)
            continue
        by_lead = {_pivot(r): r for r in x.rows}
        kept = done = 0
        meet = {0: 0, n: k}
        for d in steps:
            if k + kept < n:
                kept += len(_echelon(basis[done:d], by_lead))
                done = d
            meet[d] = d - kept
        out.append(tuple(meet[d] for d in dims))
    cells = []
    for k, (here, below) in enumerate(zip(out, out[1:])):
        for l in range(len(dims) - 1):
            d = here[l] - below[l] - here[l + 1] + below[l + 1]
            if d:
                cells.append((k, l, d))
    return tuple(out), tuple(cells)


def intersection_dims(
    f: FilteredSpace, g: FilteredSpace, ps: range, qs: range
) -> dict[tuple[int, int], int]:
    """dim(F^p ∩ G^q) for p in ``ps`` and q in ``qs``, p-major, read off
    the level table by position; any window will do."""
    table = _level_dims(f.values(), g.values())[0]
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
    f_jumps, g_jumps = f.jumps(), g.jumps()
    return {
        (f_jumps[k] - 1, g_jumps[l] - 1): d
        for k, l, d in _level_dims(f.values(), g.values())[1]
    }


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
        for (r, p, q), d in t._trigraded.items()
        if r == -p - q
    }


def is_opposed(t: TrifilteredSpace) -> bool:
    """True when the trigraded dims live only on r + p + q = 0."""
    return all(r + p + q == 0 for (r, p, q) in t._trigraded)


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
    ps, qs = common_window(f), common_window(g)
    # F^p ∩ G^q over the cells and one step past them, each met once
    meet = {
        (p, q): intersect(f.at(p), g.at(q))
        for p in range(ps.start, ps.stop + 1)
        for q in range(qs.start, qs.stop + 1)
    }
    pieces: dict[tuple[int, int], Subspace] = {}
    for p, q in sorted(((p, q) for p in ps for q in qs), reverse=True):
        num = meet[p, q]
        den = subspace_sum(meet[p + 1, q], meet[p, q + 1])
        if num.dim == den.dim:
            continue
        # a row is kept when it leaves the span of den and the rows kept
        # before it, whose echelon rows _echelon adds to by_lead
        by_lead = {_pivot(r): r for r in den.rows}
        chosen = [row for row in num.rows if _echelon([row], by_lead)]
        pieces[(p, q)] = row_space(chosen, n)
    return pieces


@dataclass(frozen=True)
class FilteredMorphism:
    rows: tuple[IntRow, ...]  # one per target coordinate, of source width
    source: TrifilteredSpace
    target: TrifilteredSpace

    def __post_init__(self) -> None:
        if any(len(r) != self.source.ambient_dim for r in self.rows):
            raise ValueError("matrix columns do not match the source dimension")
        if len(self.rows) != self.target.ambient_dim:
            raise ValueError("matrix rows do not match the target dimension")

    def _levels(self):
        """(source level, target level) at every jump of W, F and G."""
        s, t = self.source, self.target
        for src, dst in ((s.W, t.W), (s.F, t.F), (s.G, t.G)):
            for p in common_jumps(src, dst):
                yield src.at(p), dst.at(p)

    def compatible(self) -> bool:
        return all(image(self.rows, src) <= dst for src, dst in self._levels())

    def is_strict(self) -> bool:
        """Whether the image meets each target level exactly in the image
        of the corresponding source level.  Raises on an incompatible
        morphism: strictness presupposes compatibility.
        """
        if not self.compatible():
            raise ValueError("morphism is not compatible with the filtrations")
        full_image = image(self.rows, full_space(self.source.ambient_dim))
        return all(
            intersect(full_image, dst) == image(self.rows, src)
            for src, dst in self._levels()
        )

    def kernel(self) -> TrifilteredSpace:
        """Kernel with the filtrations induced from the source."""
        k = map_kernel(self.rows, self.source.ambient_dim)
        return TrifilteredSpace(
            k.dim,
            W=induced_on_sub(self.source.W, k),
            F=induced_on_sub(self.source.F, k),
            G=induced_on_sub(self.source.G, k),
        )

    def cokernel(self) -> TrifilteredSpace:
        """Cokernel with the filtrations induced from the target."""
        im = image(self.rows, full_space(self.source.ambient_dim))
        return TrifilteredSpace(
            self.target.ambient_dim - im.dim,
            W=induced_on_quotient(self.target.W, im),
            F=induced_on_quotient(self.target.F, im),
            G=induced_on_quotient(self.target.G, im),
        )


def triple_from_json(data: object) -> TrifilteredSpace:
    w, f, g = _filtrations_from_json(data, "trifiltered space", ("W", "F", "G"))
    return TrifilteredSpace(w.ambient_dim, W=w, F=f, G=g)
