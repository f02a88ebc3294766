"""Row-reduction linear algebra over Q(i).

Conventions used throughout the package:

* matrices act on column vectors, so an (m x n) matrix maps Q(i)^n to
  Q(i)^m;
* a ``Subspace`` stores its basis vectors as the ROWS of a matrix in
  reduced row echelon form with no zero rows, which makes the basis a
  canonical form: two subspaces are equal iff their dataclasses are;
* vectors at the API boundary are plain tuples of ``GaussianRational``.

The canonical basis gives a cheap coordinate transfer: if the pivot
columns are p_0 < p_1 < ... then the coefficient of basis row j in any
member vector x is just x[p_j].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from mixedhodge.exactfield import ZERO, ONE, GaussianRational, gauss

Vector = tuple[GaussianRational, ...]


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

    def transpose(self) -> Matrix:
        return Matrix(
            self.cols,
            self.rows,
            tuple(
                self.entries[i * self.cols + j]
                for j in range(self.cols)
                for i in range(self.rows)
            ),
        )

    def conj(self) -> Matrix:
        return Matrix(self.rows, self.cols, tuple(e.conj() for e in self.entries))

    def __neg__(self) -> Matrix:
        return Matrix(self.rows, self.cols, tuple(-e for e in self.entries))

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


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.cols:
        raise ValueError("column count mismatch in vstack")
    return Matrix(a.rows + b.rows, a.cols, a.entries + b.entries)


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


def _reduce_int_row(row: list[tuple[int, int]]) -> list[tuple[int, int]]:
    g = 0
    for a, b in row:
        g = gcd(g, a)
        g = gcd(g, b)
        if g == 1:
            return row
    if g <= 1:
        return row
    return [(a // g, b // g) for a, b in row]


def _eliminate(
    prow: list[tuple[int, int]],
    row: list[tuple[int, int]],
    pa: int,
    pb: int,
    ca: int,
    cb: int,
) -> list[tuple[int, int]]:
    # pivot * row - entry * prow, over the Gaussian integers
    out = []
    for (xa, xb), (ya, yb) in zip(row, prow):
        out.append(
            (pa * xa - pb * xb - (ca * ya - cb * yb),
             pa * xb + pb * xa - (ca * yb + cb * ya))
        )
    return _reduce_int_row(out)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank. Shape is preserved.

    Elimination runs over the Gaussian integers after clearing each row's
    denominators; fractions reappear only in the final pivot normalisation.
    """
    if m.rows == 0 or m.cols == 0:
        return m, 0
    rows: list[list[tuple[int, int]]] = []
    for i in range(m.rows):
        ents = m.row(i)
        den = 1
        for e in ents:
            den = den // gcd(den, e.re.denominator) * e.re.denominator
            den = den // gcd(den, e.im.denominator) * e.im.denominator
        rows.append(
            _reduce_int_row(
                [
                    (
                        e.re.numerator * (den // e.re.denominator),
                        e.im.numerator * (den // e.im.denominator),
                    )
                    for e in ents
                ]
            )
        )
    rank = 0
    pivot_cols: list[int] = []
    for col in range(m.cols):
        sel = next(
            (r for r in range(rank, m.rows) if rows[r][col] != (0, 0)), None
        )
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        pa, pb = rows[rank][col]
        for r in range(rank + 1, m.rows):
            ca, cb = rows[r][col]
            if ca or cb:
                rows[r] = _eliminate(rows[rank], rows[r], pa, pb, ca, cb)
        pivot_cols.append(col)
        rank += 1
        if rank == m.rows:
            break
    for k in range(rank - 1, -1, -1):
        col = pivot_cols[k]
        pa, pb = rows[k][col]
        for r in range(k):
            ca, cb = rows[r][col]
            if ca or cb:
                rows[r] = _eliminate(rows[k], rows[r], pa, pb, ca, cb)
    entries: list[GaussianRational] = []
    for k in range(rank):
        pa, pb = rows[k][pivot_cols[k]]
        norm = pa * pa + pb * pb
        for xa, xb in rows[k]:
            entries.append(
                gauss(
                    Fraction(xa * pa + xb * pb, norm),
                    Fraction(xb * pa - xa * pb, norm),
                )
            )
    entries.extend([ZERO] * ((m.rows - rank) * m.cols))
    return Matrix(m.rows, m.cols, tuple(entries)), rank


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^ambient_dim with canonical (RREF) row basis."""

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        b = self.basis
        if b.cols != self.ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        if b.rows > self.ambient_dim:
            raise ValueError("more basis rows than ambient dimension")
        last = -1
        for i in range(b.rows):
            piv = next((j for j in range(b.cols) if b.entry(i, j)), None)
            if piv is None:
                raise ValueError("zero row in subspace basis")
            if piv <= last:
                raise ValueError("pivot columns not strictly increasing")
            if b.entry(i, piv) != ONE:
                raise ValueError("pivot entry is not 1")
            for r in range(b.rows):
                if r != i and b.entry(r, piv):
                    raise ValueError("pivot column not cleared")
            last = piv

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def pivots(self) -> tuple[int, ...]:
        return tuple(
            next(j for j in range(self.ambient_dim) if self.basis.entry(i, j))
            for i in range(self.dim)
        )

    def contains(self, v: Vector) -> bool:
        return not any(reduce_mod(self, v))

    def __le__(self, other: Subspace) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces of different ambient spaces")
        return all(other.contains(self.basis.row(i)) for i in range(self.dim))


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, Matrix(0, n, ()))


def full_space(n: int) -> Subspace:
    return Subspace(n, identity(n))


def span(vectors: list[Vector] | list[list], ambient_dim: int) -> Subspace:
    rows = [tuple(gauss(e) for e in v) for v in vectors]
    if any(len(r) != ambient_dim for r in rows):
        raise ValueError("vector length does not match ambient dimension")
    if not rows:
        return zero_subspace(ambient_dim)
    reduced, rank = rref(from_rows(rows, ambient_dim))
    return Subspace(
        ambient_dim, Matrix(rank, ambient_dim, reduced.entries[: rank * ambient_dim])
    )


def reduce_mod(a: Subspace, v: Vector) -> Vector:
    """Residual of v after subtracting its projection onto a's basis rows.

    The residual is zero exactly when v lies in a, and its pivot-column
    entries always vanish, so the nonzero coordinates live at non-pivot
    columns: these are the canonical quotient coordinates.
    """
    if len(v) != a.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    w = [gauss(e) for e in v]
    for i, p in enumerate(a.pivots()):
        c = w[p]
        if c:
            row = a.basis.row(i)
            w = [e - c * r for e, r in zip(w, row)]
    return tuple(w)


def coordinates(a: Subspace, v: Vector) -> Vector:
    """Coefficients of v in a's canonical basis; error if v is outside a."""
    coeffs = tuple(gauss(v[p]) for p in a.pivots())
    if any(reduce_mod(a, v)):
        raise ValueError("vector not in subspace")
    return coeffs


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return span(a.basis.row_list() + b.basis.row_list(), a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the left nullspace of the stacked bases.

    A row vector y with y . [A; -B] = 0 splits as (c, d) with c.A = d.B,
    and c.A is then a general element of the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces of different ambient spaces")
    if a.is_zero or b.is_zero:
        return zero_subspace(a.ambient_dim)
    if a == b:
        return a
    stacked = vstack(a.basis, -b.basis)
    left_null = kernel(stacked.transpose())
    vectors = []
    for i in range(left_null.dim):
        y = left_null.basis.row(i)
        c = y[: a.dim]
        vectors.append(mat_vec(a.basis.transpose(), c))
    return span(vectors, a.ambient_dim)


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
    vectors = [mat_vec(f, a.basis.row(i)) for i in range(a.dim)]
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
    # conjugation fixes pivots (they are 1) and zeros, so the conjugated
    # basis is again canonical and no re-reduction is needed
    return Subspace(a.ambient_dim, a.basis.conj())


def vector_to_json(v: Vector) -> list[list[int]]:
    return [e.to_json() for e in v]


def vector_from_json(data: object, ambient_dim: int) -> Vector:
    from mixedhodge.exactfield import gauss_from_json

    if not isinstance(data, list) or len(data) != ambient_dim:
        raise ValueError(
            f"expected a vector of length {ambient_dim}, got {data!r}"
        )
    return tuple(gauss_from_json(e) for e in data)
