"""Row-reduction linear algebra over Q(i), computed over the Gaussian integers.

Conventions used throughout the package:

* a linear map from Q(i)^n to Q(i)^m is m rows of n Gaussian integers,
  acting on column vectors: row i gives coordinate i of the image.  Its
  image and kernel do not change under a positive integer scale, so a
  map with rational entries is held as its rows times a common
  denominator;
* a ``Subspace`` stores its basis as rows of Gaussian integers, each an
  ``(re, im)`` pair of Python ints.  The rows are in reduced echelon form
  (each pivot column is zero outside its own row) and each row is scaled
  to a positive integer pivot with the gcd of all its components equal
  to 1.  That row is the unique positive rational multiple of the
  corresponding row of the reduced row echelon form over Q(i), so the
  rows are a canonical form: two subspaces are equal iff their
  dataclasses are.

Q(i) values are reduced quadruples of ints (``exactfield.gauss``) and
appear only at the boundary.  On the way in, ``_cleared`` clears a
vector's denominators into a Gaussian-integer row: for ``span``, for a
document's vectors (``vector_from_json`` reads them as quadruples), and
for ``rref`` and ``reduce_mod``.  On the way out, one positive integer
divides a row (``_quotient``): ``Subspace.to_json`` writes the reduced
row echelon basis as JSON quadruples, and ``rref`` and ``reduce_mod``
return quadruples.  Everything else runs on the integer rows, linear
maps, ``kernel``, ``image`` and ``annihilator`` included, and so do the
constructions of the other modules.

A ``Subspace`` holds canonical rows.  ``row_space`` makes one from any
Gaussian-integer rows, and ``span`` from any Q(i) vectors; a vector's
common denominator, which scales its integer row, is capped at
``MAX_ENTRY_BITS`` bits like each entry.  A direct ``Subspace(n, rows)``
call must pass rows that are canonical already (conjugation, the
identity and zero rows), and the tests check the canonical form at every
such site.

One routine puts Gaussian-integer rows in echelon form: ``_echelon``,
which drops rows that reduce to zero and grows a table of rows by leading
column.  One step reduces a row against a table row (``_reduce_step``):
it forms the combination that clears the pivot column from the first
column where that can be nonzero, finds its leading column and content
in one loop, and divides out the content.  ``_canonical`` is
``_echelon`` plus a back substitution by the same step, and the
intersections and the rank checks of the other modules count or read its
rows.  Membership is a question to the same table: a row lies in a span
exactly when ``_echelon`` drops it against the span's canonical rows
keyed by their pivots, so ``Subspace.__le__`` and the greedy completion
of ``multifilt.simultaneous_splitting`` ask it there.  ``reduce_mod``
alone reduces a row and keeps its content, because it returns the
reduction as Q(i) values.

Coordinates in a subspace are taken in its Q(i) basis, not in its
integer rows: with pivot columns p_0 < p_1 < ..., the coefficient of
basis row j in a member x is just x[p_j] (``_in_basis``).

``intersect`` and ``subspace_sum`` compute each call afresh.  The
dimension tables count dim(x ∩ y) a whole row at a time instead, from one
``_echelon`` grown level by level through its table of leading rows
(``multifilt._level_dims``), and keep the tables in ``multifilt``'s
caches.  ``full_space`` keeps its last 16 results: every
``FilteredSpace`` stores the full space as its first value at
construction, and a cached one costs a lookup instead of n rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _dot(r, x) -> tuple[int, int]:
    """The sum of the Gaussian-integer products r[k] x[k]."""
    re = im = 0
    for (a, b), (c, d) in zip(r, x):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _pivot(row) -> int | None:
    """The column of row's first nonzero entry; None for a zero row."""
    for j, e in enumerate(row):
        if e != _Z:
            return j
    return None


def _reduce_step(prow, row, col: int, start: int) -> tuple[list, int | None]:
    """(r, lead): d * row - c * prow over its content, for d the positive
    integer pivot of prow at ``col`` and c = row[col], and r's first nonzero
    column (None if r = 0).  r is formed from ``start`` on and is zero left
    of it: col + 1 in echelon form, where both rows lead at col, or row's
    own pivot column in back substitution, where prow vanishes."""
    d = prow[col][0]
    ca, cb = row[col]
    tail = [(d * xa - ca * ya + cb * yb, d * xb - ca * yb - cb * ya)
            for (xa, xb), (ya, yb) in zip(row[start:], prow[start:])]
    lead = None
    g = 0
    for j, (a, b) in enumerate(tail, start):
        if a or b:
            if lead is None:
                lead = j
            g = gcd(g, a, b)
            if g == 1:
                break
    if g > 1:
        tail = [(a // g, b // g) for a, b in tail]
    return [_Z] * start + tail, lead


def _real_pivot(row, col: int):
    """row times a Gaussian integer making its entry at ``col`` a positive
    integer, primitive; row itself when it is both already."""
    pa, pb = row[col]
    if pb or pa < 0:
        # multiply by the conjugate of the pivot: the pivot becomes its norm
        row = [(a * pa + b * pb, b * pa - a * pb) for a, b in row]
    g = 0
    for a, b in row[col:]:
        g = gcd(g, a, b)
        if g == 1:
            return row
    return [(a // g, b // g) for a, b in row]


def _echelon(rows, by_lead: dict | None = None) -> list:
    """Each row reduced against the rows before it, one ``_reduce_step``
    per leading column it shares with one of them, until its leading
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
            r, col = _reduce_step(by_lead[col], r, col, col + 1)
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
        for r in range(k):
            if done[r][col] != _Z:
                done[r] = _reduce_step(prow, done[r], col, pivots[r])[0]
    return tuple(tuple(r) for r in done)


def rref(rows: list[Vector], width: int) -> tuple[list[Vector], int]:
    """Reduced row echelon form over Q(i) of vectors of ``width`` entries,
    and its rank.  Shape is preserved: zero rows pad the result to
    len(rows) rows.

    Elimination runs over the Gaussian integers after clearing each row's
    denominators; fractions reappear only in the final pivot normalisation.
    """
    sub = row_space([_cleared(v)[0] for v in rows], width)
    reduced = [tuple(map(tuple, v)) for v in sub.to_json()]
    reduced += [(ZERO,) * width] * (len(rows) - sub.dim)
    return reduced, sub.dim


def _quotient(x: int, y: int, d: int) -> Quad:
    """The reduced quadruple of (x + y*i) / d, for a positive int d."""
    g, h = gcd(x, d), gcd(y, d)
    return x // g, d // g, y // h, d // h


@dataclass(frozen=True, slots=True)
class Subspace:
    """A subspace of Q(i)^ambient_dim, stored as canonical Gaussian-integer
    rows: reduced echelon form, positive integer pivots, primitive rows.

    It hashes once: the first ``hash`` keeps the dataclass's own value,
    hash((ambient_dim, rows)), in ``_hash``, which takes no part in
    equality or the repr, so a cache keyed by a plain tuple of subspaces
    (``multifilt``'s) rehashes no rows.  The hash is kept on first use
    and not at construction: most subspaces never become a key, and the
    constructor trusts its rows and computes nothing from them."""

    ambient_dim: int
    rows: tuple[IntRow, ...]
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ambient_dim, self.rows))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def to_json(self) -> list[list[list[int]]]:
        """The reduced row echelon basis over Q(i), as JSON rows of
        quadruples: each canonical row divided by its pivot."""
        out = []
        for row in self.rows:
            d = row[_pivot(row)][0]
            out.append([list(_quotient(a, b, d)) for a, b in row])
        return out

    def pivots(self) -> tuple[int, ...]:
        return tuple(_pivot(row) for row in self.rows)

    def __le__(self, other: Subspace) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces of different ambient spaces")
        if self.dim > other.dim:
            return False
        if other.is_full:
            return True
        # a row of self outside other keeps a leading column that no row
        # of other has
        return not _echelon(self.rows, {_pivot(r): r for r in other.rows})


def _in_basis(sub: Subspace, rows) -> Subspace:
    """The span of ``rows``, members of sub, in the coordinates of sub's
    Q(i) basis: x has coordinate x[p] on the basis row with pivot p."""
    pivots = sub.pivots()
    return row_space([[x[p] for p in pivots] for x in rows], sub.dim)


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
    # den * v reduced by a's canonical rows one by one, scaling den along;
    # the row keeps its content, which dividing it alone would change
    u, den = _cleared(v)
    for row in a.rows:
        p = _pivot(row)
        ca, cb = u[p]
        if ca or cb:
            d = row[p][0]
            u = [(d * xa - ca * ya + cb * yb, d * xb - ca * yb - cb * ya)
                 for (xa, xb), (ya, yb) in zip(u, row)]
            den *= d
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


def kernel(rows, n: int) -> Subspace:
    """Kernel of the map with Gaussian-integer rows of width n, as a
    subspace of Q(i)^n."""
    return annihilator(row_space(rows, n))


def image(rows, a: Subspace) -> Subspace:
    """Image of a under the map with Gaussian-integer rows, as a subspace
    of Q(i)^len(rows): row j of a maps to the dot products of the map's
    rows with it."""
    if any(len(r) != a.ambient_dim for r in rows):
        raise ValueError("subspace ambient dimension does not match matrix columns")
    return row_space([[_dot(r, x) for r in rows] for x in a.rows], len(rows))


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
    # zero and the gcd is unchanged, so the rows are again canonical.  The
    # zero and the full space are real, and come back as they are
    if a.is_zero or a.is_full:
        return a
    return Subspace(
        a.ambient_dim, tuple(tuple((x, -y) for x, y in row) for row in a.rows)
    )


def vector_from_json(data: object, ambient_dim: int) -> tuple[Quad, ...]:
    """A JSON vector of ``ambient_dim`` quadruples, each reduced, for
    ``span``."""
    if not isinstance(data, list) or len(data) != ambient_dim:
        raise ValueError(
            f"expected a vector of length {ambient_dim}, got {data!r}"
        )
    return tuple(map(quadruple_from_json, data))
