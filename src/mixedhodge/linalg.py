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
  dataclasses are;
* span, sum, intersection, containment, conjugation and intersection
  dimensions run on those integer rows.  ``Subspace.basis`` builds the
  Q(i) reduced row echelon basis on demand; ``rref``, ``kernel``,
  ``image``, ``reduce_mod`` and ``coordinates`` take and return Q(i)
  values, and vectors at the API boundary are plain tuples of
  ``GaussianRational``.

The Q(i) basis gives a cheap coordinate transfer: if the pivot columns
are p_0 < p_1 < ... then the coefficient of basis row j in any member
vector x is just x[p_j].

``intersect``, ``intersect_dim`` and ``subspace_sum`` remember their
results.  The dimension tables, both alpha routes and the Deligne
splitting of one structure meet and join the same levels many times
over (a Tate twist keeps the level subspaces under shifted indices), so
past the zero, full and equal shortcuts each operation hands its operand
pair to a private ``lru_cache`` keyed by value: ``_intersect``,
``_intersect_dim`` and ``_sum``, 128 entries each.  The whole invariant
suite of one random structure of dimension up to 8 needed at most 42
distinct pairs per operation (96 draws), and different structures share
few, so a larger bound would only hold memory.  The memo sits on the
private names because a wrapper that rebinds the public ones (as a
tracer does) hides ``cache_clear``; module-level caches under their own
names are found and emptied like any other.  ``full_space`` keeps its
last 16 results, so filtration lookups below the first jump share one
object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from mixedhodge.exactfield import ZERO, ONE, GaussianRational, gauss

Vector = tuple[GaussianRational, ...]
IntRow = tuple[tuple[int, int], ...]

_Z = (0, 0)


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]  # row-major

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out: list[GaussianRational] = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = ZERO
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        acc = acc + a * other.entry(k, j)
                out.append(acc)
        return Matrix(self.rows, other.cols, tuple(out))

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)


def matrix(rows: list[list]) -> Matrix:
    """Build a Matrix from nested lists, coercing entries via ``gauss``."""
    if not rows:
        return Matrix(0, 0, ())
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    return Matrix(
        len(rows), ncols, tuple(gauss(e) for r in rows for e in r)
    )


def identity(n: int) -> Matrix:
    return Matrix(
        n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n))
    )


def from_rows(rows: list[Vector], cols: int) -> Matrix:
    return Matrix(len(rows), cols, tuple(e for r in rows for e in r))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    if len(v) != m.cols:
        raise ValueError("vector length does not match matrix columns")
    out = []
    for i in range(m.rows):
        acc = ZERO
        ri = m.row(i)
        for k in range(m.cols):
            if ri[k] and v[k]:
                acc = acc + ri[k] * v[k]
        out.append(acc)
    return tuple(out)


# -- the Gaussian-integer kernel -------------------------------------------


def _denominator(v: Vector) -> int:
    return lcm(*(e.re.denominator for e in v), *(e.im.denominator for e in v))


def _int_row(v: Vector) -> list[tuple[int, int]]:
    """v times the lcm of its denominators: a Gaussian-integer row."""
    den = _denominator(v)
    return [
        (e.re.numerator * (den // e.re.denominator),
         e.im.numerator * (den // e.im.denominator))
        for e in v
    ]


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


def _pivot(row) -> int:
    return next(j for j, e in enumerate(row) if e != _Z)


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


def _forward(rows: list, stop: int) -> tuple[list, list[int], list]:
    """Forward elimination over columns [0, stop).

    Returns the pivot rows (positive integer pivots, primitive), their
    pivot columns, and the nonzero rows left over, which vanish on every
    column before ``stop``.
    """
    pivots: list[int] = []
    done: list = []
    for col in range(stop):
        sel = next((k for k, r in enumerate(rows) if r[col] != _Z), None)
        if sel is None:
            continue
        prow = _real_pivot(rows.pop(sel), col)
        d = prow[col][0]
        rest = []
        for r in rows:
            c = r[col]
            if c != _Z:
                r = _primitive(_eliminate(prow, r, col, d, c))
                if not any(a or b for a, b in r):
                    continue
            rest.append(r)
        rows = rest
        done.append(prow)
        pivots.append(col)
        if not rows:
            break
    return done, pivots, rows


def _canonical(rows: list) -> tuple[IntRow, ...]:
    """Canonical integer rows (see the module docstring) of a row space."""
    if not rows:
        return ()
    done, pivots, _ = _forward(rows, len(rows[0]))
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
    rows = _canonical([_int_row(m.row(i)) for i in range(m.rows)])
    entries = _to_qi(rows)
    entries.extend([ZERO] * ((m.rows - len(rows)) * m.cols))
    return Matrix(m.rows, m.cols, tuple(entries)), len(rows)


def _to_qi(rows) -> list[GaussianRational]:
    """Entries of the canonical rows divided by their pivots, row-major."""
    out: list[GaussianRational] = []
    for row in rows:
        d = row[_pivot(row)][0]
        out.extend(GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in row)
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^ambient_dim, stored as canonical Gaussian-integer
    rows: reduced echelon form, positive integer pivots, primitive rows."""

    ambient_dim: int
    rows: tuple[IntRow, ...]

    def __post_init__(self) -> None:
        n = self.ambient_dim
        if not isinstance(self.rows, tuple):
            raise ValueError("subspace rows must be a tuple of integer rows")
        if len(self.rows) > n:
            raise ValueError("more basis rows than ambient dimension")
        last = -1
        pivots = []
        for row in self.rows:
            if not isinstance(row, tuple) or len(row) != n:
                raise ValueError("basis row is not a tuple of ambient width")
            piv = next((j for j, e in enumerate(row) if e != _Z), None)
            if piv is None:
                raise ValueError("zero row in subspace basis")
            if piv <= last:
                raise ValueError("pivot columns not strictly increasing")
            pa, pb = row[piv]
            if pb != 0 or pa <= 0:
                raise ValueError("pivot entry is not a positive integer")
            if gcd(*(x for e in row for x in e)) != 1:
                raise ValueError("basis row is not primitive")
            pivots.append(piv)
            last = piv
        for piv in pivots:
            if sum(row[piv] != _Z for row in self.rows) != 1:
                raise ValueError("pivot column not cleared")

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

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return _contains_row(self.rows, _int_row([gauss(e) for e in v]))

    def __le__(self, other: Subspace) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces of different ambient spaces")
        if self.dim > other.dim:
            return False
        if other.is_full:
            return True
        return all(_contains_row(other.rows, row) for row in self.rows)


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


def span(vectors: list[Vector] | list[list], ambient_dim: int) -> Subspace:
    rows = [tuple(gauss(e) for e in v) for v in vectors]
    if any(len(r) != ambient_dim for r in rows):
        raise ValueError("vector length does not match ambient dimension")
    return Subspace(ambient_dim, _canonical([_int_row(r) for r in rows]))


def reduce_mod(a: Subspace, v: Vector) -> Vector:
    """Residual of v after subtracting its projection onto a's basis rows.

    The residual is zero exactly when v lies in a, and its pivot-column
    entries always vanish, so the nonzero coordinates live at non-pivot
    columns: these are the canonical quotient coordinates.
    """
    if len(v) != a.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    w = [gauss(e) for e in v]
    u, s = _residual(a.rows, _int_row(w))
    den = _denominator(w) * s
    return tuple(GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in u)


def coordinates(a: Subspace, v: Vector) -> Vector:
    """Coefficients of v in a's Q(i) basis; error if v is outside a."""
    if not a.contains(v):
        raise ValueError("vector not in subspace")
    return tuple(gauss(v[p]) for p in a.pivots())


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero or b.is_full:
        return b
    if b.is_zero or a.is_full:
        return a
    return _sum(a, b)


@lru_cache(maxsize=128)
def _sum(a: Subspace, b: Subspace) -> Subspace:
    return Subspace(a.ambient_dim, _canonical([*a.rows, *b.rows]))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by the Zassenhaus algorithm.

    Every row of the row space of [A A; B 0] is (x + y, x) with x in a and
    y in b, so a row with zero left half has x = -y in both.  Forward
    elimination over the left half leaves exactly dim a + dim b - rank[A; B]
    such rows, independent, and their right halves span the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero or b.is_full:
        return a
    if b.is_zero or a.is_full:
        return b
    if a == b:
        return a
    return _intersect(a, b)


@lru_cache(maxsize=128)
def _intersect(a: Subspace, b: Subspace) -> Subspace:
    n = a.ambient_dim
    zero = (_Z,) * n
    _, _, rest = _forward([r + r for r in a.rows] + [r + zero for r in b.rows], n)
    return Subspace(n, _canonical([r[n:] for r in rest]))


def intersect_dim(a: Subspace, b: Subspace) -> int:
    """dim(a ∩ b) = dim a + dim b - rank[A; B], by forward elimination."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero or b.is_full:
        return a.dim
    if b.is_zero or a.is_full:
        return b.dim
    if a == b:
        return a.dim
    return _intersect_dim(a, b)


@lru_cache(maxsize=128)
def _intersect_dim(a: Subspace, b: Subspace) -> int:
    rank = len(_forward([*a.rows, *b.rows], a.ambient_dim)[0])
    return a.dim + b.dim - rank


def quotient_dim(a: Subspace, b: Subspace) -> int:
    """dim(a/b); b must be contained in a."""
    if not (b <= a):
        raise ValueError("b ⊄ a")
    return a.dim - b.dim


def kernel(f: Matrix) -> Subspace:
    """Kernel of the column-vector action of f, as a subspace of Q(i)^cols."""
    reduced, rank = rref(f)
    pivot_cols = [
        next(j for j in range(f.cols) if reduced.entry(r, j)) for r in range(rank)
    ]
    free_cols = [j for j in range(f.cols) if j not in pivot_cols]
    vectors = []
    for j in free_cols:
        v = [ZERO] * f.cols
        v[j] = ONE
        for r, p in enumerate(pivot_cols):
            v[p] = -reduced.entry(r, j)
        vectors.append(tuple(v))
    return span(vectors, f.cols)


def image(f: Matrix, a: Subspace) -> Subspace:
    """Image of a under f, as a subspace of Q(i)^(f.rows)."""
    if a.ambient_dim != f.cols:
        raise ValueError("subspace ambient dimension does not match matrix columns")
    if a.is_zero:
        return zero_subspace(f.rows)
    vectors = [mat_vec(f, row) for row in a.basis.row_list()]
    return span(vectors, f.rows)


def annihilator(a: Subspace) -> Subspace:
    """Functionals (as row vectors in the dual basis) vanishing on a."""
    if a.is_zero:
        return full_space(a.ambient_dim)
    return kernel(a.basis)


def preimage(f: Matrix, b: Subspace) -> Subspace:
    """Full preimage f^{-1}(b), as a subspace of Q(i)^(f.cols)."""
    if b.ambient_dim != f.rows:
        raise ValueError("subspace ambient dimension does not match matrix rows")
    if b.is_full:
        return full_space(f.cols)
    ann = annihilator(b)
    constraints = ann.basis @ f
    return kernel(constraints)


def conj_subspace(a: Subspace) -> Subspace:
    # conjugation negates imaginary parts: pivots are real, zeros stay
    # zero and the gcd is unchanged, so the rows are again canonical
    return Subspace(
        a.ambient_dim, tuple(tuple((x, -y) for x, y in row) for row in a.rows)
    )


def vector_to_json(v: Vector) -> list[list[int]]:
    return [e.to_json() for e in v]


def vector_from_json(data: object, ambient_dim: int) -> Vector:
    from mixedhodge.exactfield import gauss_from_json

    if not isinstance(data, list) or len(data) != ambient_dim:
        raise ValueError(
            f"expected a vector of length {ambient_dim}, got {data!r}"
        )
    return tuple(gauss_from_json(e) for e in data)
