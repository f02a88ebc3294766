"""Row-reduction linear algebra over Q(i), computed over the Gaussian integers.

Conventions used throughout the package:

* matrices act on column vectors, so an (m x n) matrix maps Q(i)^n to
  Q(i)^m;
* a ``Subspace`` stores its basis as rows of Gaussian integers, each an
  ``(re, im)`` pair of Python ints.  The rows are in reduced echelon form
  (each pivot column is zero outside its own row) and each row is scaled
  to a positive integer pivot with the gcd of all its components equal
  to 1.  That row is the unique positive rational multiple of the
  corresponding row of the reduced row echelon form over Q(i), so the
  rows are a canonical form: two subspaces are equal iff their
  dataclasses are.

Q(i) values are reduced quadruples of ints (``exactfield.gauss``) and
appear only at the boundary: as the entries of a ``Matrix``
(``from_rows``), the type of user-given linear maps; in ``rref``; in what
``span`` takes and ``reduce_mod`` takes and returns; in
``Subspace.basis``, the Q(i) reduced row echelon basis built on demand
for JSON output; and in ``vector_to_json``.  ``vector_from_json`` reads
a document's vector as quadruples too.  ``_cleared`` clears a vector's
denominators into a Gaussian-integer row on the way in, and ``_to_qi``
and ``reduce_mod`` divide by one positive integer on the way out
(``_quotient``).  Everything else runs on the integer rows, ``kernel``,
``image`` and ``annihilator`` included (a ``Matrix`` is scaled to Gaussian
integers first), and so do the constructions of the other modules.

A ``Subspace`` holds canonical rows.  ``row_space`` makes one from any
Gaussian-integer rows, and ``span`` from any Q(i) vectors; a vector's
common denominator, which scales its integer row, is capped at
``MAX_ENTRY_BITS`` bits like each entry.  A direct ``Subspace(n, rows)``
call must pass rows that are canonical already (conjugation, the
padding of a direct sum, a single canonical row), and the tests check the
canonical form at every such site.

One routine puts Gaussian-integer rows in echelon form: ``_echelon``,
which drops rows that reduce to zero and grows a table of rows by leading
column.  ``_canonical`` is ``_echelon`` plus back substitution, and the
intersections and the rank checks of the other modules count or read its
rows; ``_residual`` only reduces one row against canonical rows.

Coordinates in a subspace are taken in its Q(i) basis, not in its
integer rows: with pivot columns p_0 < p_1 < ..., the coefficient of
basis row j in a member x is just x[p_j] (``_in_basis``).

``intersect_dim``, ``intersect`` and ``subspace_sum`` compute each call
afresh; the dimension tables that meet the same levels many times over
keep their counts in ``multifilt._level_dims`` (below).  ``full_space``
keeps its last 16 results, so filtration lookups below the first jump
share one object.

Two more caches serve the trigraded table, keyed by level subspaces and
not by jump indices, so that a shifted or Tate-twisted filtration and the
fibers of one family, which share W, hit them: ``_flag_coordinates``
(the dual basis adapted to W, keyed by W's chain of level subspaces, 16
entries) and ``multifilt._trigraded_items`` (the levels of one flag on
every W-graded piece, keyed by (n, W's chain, the flag's chain), 128
entries).  ``mhs``'s Deligne splitting reads ``_flag_coordinates`` as
well, after ``validate`` has built the table that fills its entry.

Every (F, G) dimension table is read off ``multifilt._level_dims``:
dim(x ∩ y) for each pair of values of two filtrations, keyed by the two
chains of values (full space first, then the levels; 128 entries).  One
triple needs one entry for (F, G), one each for (W, F) and (W, G) when
its K0 class is asked for, and one per W-piece; a twist shares them all.
The fibers of a lambda grid share W, and each of their two W-pieces has
dimension 1, where F and G are full or zero, so every fiber's pieces find
the same two entries, and a pass of n fibers misses at most n + 2 times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from mixedhodge.exactfield import (
    MAX_ENTRY_BITS,
    ZERO,
    Quad,
    gauss,
    quadruple_from_json,
)

Vector = tuple[Quad, ...]
IntRow = tuple[tuple[int, int], ...]

_Z = (0, 0)


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[Quad, ...]  # row-major

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]


def from_rows(rows: list[Vector], cols: int) -> Matrix:
    return Matrix(len(rows), cols, tuple(e for r in rows for e in r))


# -- the Gaussian-integer kernel -------------------------------------------


def _cleared(v) -> tuple[list[tuple[int, int]], int]:
    """(row, den): den is the lcm of the reduced denominators of the
    entries of v, and row is v times den, as Gaussian-integer pairs.  An
    entry is anything ``gauss`` takes: a quadruple, an int or a
    ``Fraction``."""
    quads = [gauss(e) for e in v]
    den = lcm(*[q[1] for q in quads], *[q[3] for q in quads])
    return [(a * (den // b), c * (den // d)) for a, b, c, d in quads], den


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Product of two Gaussian integers."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _apply(f: Matrix, rows) -> tuple[list[list[tuple[int, int]]], int]:
    """(images, D): D is the lcm of the denominators of f's entries, and
    images holds the Gaussian-integer row D f x for each row x."""
    flat, den = _cleared(f.entries)
    scaled = [flat[i * f.cols : (i + 1) * f.cols] for i in range(f.rows)]
    return [[_dot(r, x) for r in scaled] for x in rows], den


def _dot(r, x) -> tuple[int, int]:
    """The sum of the Gaussian-integer products r[k] x[k]."""
    re = im = 0
    for (a, b), (c, d) in zip(r, x):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _primitive(row: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """row divided by the gcd of all its components."""
    g = 0
    for a, b in row:
        g = gcd(g, a, b)
        if g == 1:
            return row
    if g <= 1:
        return row
    return [(a // g, b // g) for a, b in row]


def _pivot(row) -> int | None:
    """The column of row's first nonzero entry; None for a zero row."""
    return next((j for j, e in enumerate(row) if e != _Z), None)


def _eliminate(
    prow, row, col: int, d: int, c: tuple[int, int]
) -> list[tuple[int, int]]:
    """d * row - c * prow, computed from column ``col`` on: both rows
    vanish left of it.  With d the positive integer pivot of prow and c
    the entry of row in that pivot column, the result vanishes there."""
    ca, cb = c
    return list(row[:col]) + [
        (d * xa - ca * ya + cb * yb, d * xb - ca * yb - cb * ya)
        for (xa, xb), (ya, yb) in zip(row[col:], prow[col:])
    ]


def _real_pivot(row, col: int) -> list[tuple[int, int]]:
    """row times a Gaussian integer making its entry at ``col`` a positive
    integer, primitive."""
    pa, pb = row[col]
    if pb == 0 and pa > 0:
        return _primitive(list(row))
    # multiply by the conjugate of the pivot: the pivot becomes its norm
    return _primitive([(a * pa + b * pb, b * pa - a * pb) for a, b in row])


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
def _flag_coordinates(chain: tuple[Subspace, ...]) -> tuple[IntRow, ...]:
    """Rows a_0, ..., a_{n-1} of a dual basis adapted to a decreasing chain
    of subspaces ending at zero: with y_j = a_j . x, each member V of the
    chain is {y_j = 0 for j < n - dim V}."""
    return tuple(_adapted_basis([annihilator(v) for v in chain]))


def _echelon(rows, by_lead: dict | None = None) -> list:
    """Each row reduced against the rows before it until its leading
    column is new to them, or dropped when it reduces to zero; a kept
    row's own leading entry becomes a positive integer.  The kept rows
    span what ``rows`` spans, and their leading columns are distinct.
    For independent rows every prefix of the result spans what the same
    prefix of ``rows`` spans, so a prefix meets {y_j = 0 for j < c} in
    the span of its rows that lead at c or later.

    ``by_lead`` maps leading columns to rows already in that form, which
    stand before ``rows`` but are not returned; each kept row is added to
    it in place.
    """
    if by_lead is None:
        by_lead = {}
    out = []
    for r in rows:
        col = _pivot(r)
        while col in by_lead:
            prow = by_lead[col]
            r = _primitive(_eliminate(prow, r, col, prow[col][0], r[col]))
            col = _pivot(r)
        if col is None:
            continue
        r = _real_pivot(r, col)
        by_lead[col] = r
        out.append(r)
    return out


def _canonical(rows) -> tuple[IntRow, ...]:
    """Canonical integer rows (see the module docstring) of a row space."""
    by_lead: dict = {}
    _echelon(rows, by_lead)
    pivots = sorted(by_lead)
    done = [by_lead[col] for col in pivots]
    # back substitution from the bottom; each row's own pivot only scales
    # by a positive integer, because the rows below vanish in its column
    for k in range(len(done) - 1, 0, -1):
        col = pivots[k]
        prow = done[k]
        d = prow[col][0]
        for r in range(k):
            c = done[r][col]
            if c != _Z:
                done[r] = _primitive(_eliminate(prow, done[r], pivots[r], d, c))
    return tuple(tuple(r) for r in done)


def _residual(rows, u: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], int]:
    """(w, s): s * u reduced by canonical rows, so w vanishes at their
    pivot columns and w / s differs from u by an element of their span."""
    s = 1
    for row in rows:
        p = _pivot(row)
        c = u[p]
        if c != _Z:
            d = row[p][0]
            u = _eliminate(row, u, 0, d, c)
            s *= d
    return u, s


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank. Shape is preserved.

    Elimination runs over the Gaussian integers after clearing each row's
    denominators; fractions reappear only in the final pivot normalisation.
    """
    if m.rows == 0 or m.cols == 0:
        return m, 0
    rows = _canonical([_cleared(m.row(i))[0] for i in range(m.rows)])
    entries = _to_qi(rows)
    entries.extend([ZERO] * ((m.rows - len(rows)) * m.cols))
    return Matrix(m.rows, m.cols, tuple(entries)), len(rows)


def _quotient(x: int, y: int, d: int) -> Quad:
    """The reduced quadruple of (x + y*i) / d, for a positive int d."""
    g, h = gcd(x, d), gcd(y, d)
    return x // g, d // g, y // h, d // h


def _to_qi(rows) -> list[Quad]:
    """Entries of the canonical rows divided by their pivots, row-major."""
    out: list[Quad] = []
    for row in rows:
        d = row[_pivot(row)][0]
        out.extend(_quotient(a, b, d) for a, b in row)
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^ambient_dim, stored as canonical Gaussian-integer
    rows: reduced echelon form, positive integer pivots, primitive rows."""

    ambient_dim: int
    rows: tuple[IntRow, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    @property
    def basis(self) -> Matrix:
        """The reduced row echelon basis over Q(i), built on each call."""
        return Matrix(self.dim, self.ambient_dim, tuple(_to_qi(self.rows)))

    def pivots(self) -> tuple[int, ...]:
        return tuple(_pivot(row) for row in self.rows)

    def __le__(self, other: Subspace) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces of different ambient spaces")
        if self.dim > other.dim:
            return False
        if other.is_full:
            return True
        return all(_contains_row(other.rows, row) for row in self.rows)


def _in_basis(sub: Subspace, rows) -> Subspace:
    """The span of ``rows``, members of sub, in the coordinates of sub's
    Q(i) basis: x has coordinate x[p] on the basis row with pivot p."""
    pivots = sub.pivots()
    return row_space([[x[p] for p in pivots] for x in rows], sub.dim)


def _contains_row(rows, u) -> bool:
    w, _ = _residual(rows, u)
    return not any(a or b for a, b in w)


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, ())


@lru_cache(maxsize=16)
def full_space(n: int) -> Subspace:
    return Subspace(
        n, tuple(tuple((1, 0) if i == j else _Z for j in range(n)) for i in range(n))
    )


def row_space(rows: list, n: int) -> Subspace:
    """The span of Gaussian-integer rows of width n."""
    return Subspace(n, _canonical(rows))


def span(vectors: list[Vector] | list[list], ambient_dim: int) -> Subspace:
    """The span of Q(i) vectors: their cleared rows, canonicalized.  An
    entry is a reduced quadruple, an int or a ``Fraction`` (see
    ``exactfield.gauss``)."""
    rows = []
    for v in vectors:
        row, den = _cleared(v)
        if len(row) != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        if den.bit_length() > MAX_ENTRY_BITS:
            raise ValueError(
                f"vector common denominator of {den.bit_length()} bits exceeds "
                f"the limit of {MAX_ENTRY_BITS} bits"
            )
        rows.append(row)
    return row_space(rows, ambient_dim)


def reduce_mod(a: Subspace, v: Vector) -> Vector:
    """Residual of v after subtracting its projection onto a's basis rows.

    The residual is zero exactly when v lies in a, and its pivot-column
    entries always vanish, so the nonzero coordinates live at non-pivot
    columns: these are the canonical quotient coordinates.
    """
    if len(v) != a.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    row, den = _cleared(v)
    u, s = _residual(a.rows, row)
    den *= s
    return tuple(_quotient(x, y, den) for x, y in u)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero or b.is_full:
        return b
    if b.is_zero or a.is_full:
        return a
    return row_space([*a.rows, *b.rows], a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by the Zassenhaus algorithm.

    Every row of the row space of [A A; B 0] is (x + y, x) with x in a and
    y in b, so a row with zero left half has x = -y in both.  The rows
    [r | r] of a's canonical rows are in echelon form already; the rows
    [r | 0] of b's, put in echelon form after them (``_echelon``), keep
    exactly dim a + dim b - rank[A; B] rows leading in the right half, and
    their right halves span the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero or b.is_full:
        return a
    if b.is_zero or a.is_full:
        return b
    if a == b:
        return a
    n = a.ambient_dim
    zero = (_Z,) * n
    met = _echelon([r + zero for r in b.rows], {_pivot(r): r + r for r in a.rows})
    return row_space([r[n:] for r in met if _pivot(r) >= n], n)


def intersect_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ∩ b) = dim a + dim b - rank[A; B]: b's rows, put in echelon
    form after a's canonical rows, keep rank[A; B] - dim a of them."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero or b.is_full:
        return a.dim
    if b.is_zero or a.is_full:
        return b.dim
    if a == b:
        return a.dim
    return b.dim - len(_echelon(b.rows, {_pivot(r): r for r in a.rows}))


def kernel(f: Matrix) -> Subspace:
    """Kernel of the column-vector action of f, as a subspace of Q(i)^cols."""
    return annihilator(row_space([_cleared(r)[0] for r in f.row_list()], f.cols))


def image(f: Matrix, a: Subspace) -> Subspace:
    """Image of a under f, as a subspace of Q(i)^(f.rows)."""
    if a.ambient_dim != f.cols:
        raise ValueError("subspace ambient dimension does not match matrix columns")
    return row_space(_apply(f, a.rows)[0], f.rows)


def annihilator(a: Subspace) -> Subspace:
    """Functionals (as row vectors in the dual basis) vanishing on a.

    With L the lcm of the pivots d_j of a's rows r_j, free column k gives
    the vector L e_k - sum_j r_j[k] (L / d_j) e_{p_j}: each r_j vanishes at
    the other pivot columns, so r_j . x = r_j[k] L - d_j r_j[k] L / d_j = 0.
    """
    n = a.ambient_dim
    pivots = a.pivots()
    big = lcm(*(r[p][0] for r, p in zip(a.rows, pivots)))
    taken = set(pivots)
    out = []
    for k in range(n):
        if k in taken:
            continue
        v = [_Z] * n
        v[k] = (big, 0)
        for r, p in zip(a.rows, pivots):
            s = big // r[p][0]
            v[p] = (-r[k][0] * s, -r[k][1] * s)
        out.append(v)
    return row_space(out, n)


def conj_subspace(a: Subspace) -> Subspace:
    # conjugation negates imaginary parts: pivots are real, zeros stay
    # zero and the gcd is unchanged, so the rows are again canonical
    return Subspace(
        a.ambient_dim, tuple(tuple((x, -y) for x, y in row) for row in a.rows)
    )


def vector_to_json(v: Vector) -> list[list[int]]:
    return [list(e) for e in v]


def vector_from_json(data: object, ambient_dim: int) -> tuple[Quad, ...]:
    """A JSON vector of ``ambient_dim`` quadruples, each reduced, for
    ``span``."""
    if not isinstance(data, list) or len(data) != ambient_dim:
        raise ValueError(
            f"expected a vector of length {ambient_dim}, got {data!r}"
        )
    return tuple(map(quadruple_from_json, data))
