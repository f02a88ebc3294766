"""Decreasing filtrations of Q(i)^n with sparse canonical storage.

A ``FilteredSpace`` keeps only the jump levels: the sorted indices p where
F^p differs from F^{p-1}, each with its subspace.  Below the first stored
index the filtration is the full space, and the last stored value is
required to be zero, so lookups are total and two filtrations are equal
iff their dataclasses are.  Constructors accept redundant level data and
canonicalize it.

Increasing filtrations (weight filtrations in particular) are converted on
input: ``from_increasing`` produces the decreasing filtration whose value
at p is the input's value at -p.

The constructions (direct sum, tensor product, dual, induced filtrations)
build their levels from the canonical Gaussian-integer rows of the input
levels.  Only ``to_json`` sees Q(i) vectors; ``from_json`` reads each
level's vectors as reduced quadruples (``linalg.vector_from_json``), all
of them before any is spanned, and ``span`` turns them into integer rows,
so every shape and entry error of a level precedes its denominator-cap
error.  A filtration
induced on a subspace or a quotient lives in the coordinates of the
subspace's Q(i) basis, as ``linalg`` sets out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from mixedhodge.linalg import (
    Subspace,
    _Z,
    _in_basis,
    _mul,
    _residual,
    annihilator,
    full_space,
    intersect,
    row_space,
    span,
    vector_from_json,
    vector_to_json,
    zero_subspace,
)


@dataclass(frozen=True)
class FilteredSpace:
    """Jump levels of a decreasing filtration.

    The constructor checks only the cheap structure: ambient dimensions,
    strictly increasing indices, strictly decreasing level dimensions and
    the zero tail.  It trusts that each level lies inside the one before;
    ``filtered_space`` is the constructor for untrusted levels and the one
    place that checks the nesting.
    """

    ambient_dim: int
    levels: tuple[tuple[int, Subspace], ...]  # ascending jump index, value

    def __post_init__(self) -> None:
        prev_key = None
        prev_dim = self.ambient_dim
        for key, val in self.levels:
            if val.ambient_dim != self.ambient_dim:
                raise ValueError("level subspace has wrong ambient dimension")
            if prev_key is not None and key <= prev_key:
                raise ValueError("level indices not strictly increasing")
            if val.dim >= prev_dim:
                raise ValueError("stored levels must strictly decrease")
            prev_key, prev_dim = key, val.dim
        if self.ambient_dim == 0:
            if self.levels:
                raise ValueError("filtration of the zero space stores no levels")
        else:
            if not self.levels or self.levels[-1][1].dim != 0:
                raise ValueError("filtration must end at the zero subspace")

    def at(self, p: int) -> Subspace:
        for key, val in reversed(self.levels):
            if key <= p:
                return val
        return full_space(self.ambient_dim)

    def jumps(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.levels)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "levels": [
                {
                    "index": k,
                    "vectors": [vector_to_json(row) for row in v.basis.row_list()],
                }
                for k, v in self.levels
            ],
        }


def filtered_space(
    ambient_dim: int, levels: Mapping[int, Subspace]
) -> FilteredSpace:
    """Canonicalize possibly redundant level data into a FilteredSpace,
    checking that each level lies inside the one before it."""
    items = sorted(levels.items())
    out: list[tuple[int, Subspace]] = []
    prev = full_space(ambient_dim)
    for key, val in items:
        if val.ambient_dim != ambient_dim:
            raise ValueError(f"level {key} has wrong ambient dimension")
        if not (val <= prev):
            raise ValueError(f"filtration not decreasing at level {key}")
        if val == prev:
            continue
        out.append((key, val))
        prev = val
    if ambient_dim == 0:
        return FilteredSpace(0, ())
    return FilteredSpace(ambient_dim, tuple(out))


def trivial(ambient_dim: int) -> FilteredSpace:
    """Full at every level up to 0, zero from level 1 on."""
    if ambient_dim == 0:
        return FilteredSpace(0, ())
    return FilteredSpace(ambient_dim, ((1, zero_subspace(ambient_dim)),))


def from_increasing(
    ambient_dim: int, levels: Mapping[int, Subspace]
) -> FilteredSpace:
    """Decreasing filtration with value at p equal to the input's at -p.

    The input is an increasing filtration given at some indices; between
    them the value carries forward as the index grows, it is zero below
    the first index, and it must reach the full space at the last.
    """
    if ambient_dim == 0:
        return FilteredSpace(0, ())
    items = sorted(levels.items())
    if not items:
        raise ValueError("empty increasing filtration")
    if not items[-1][1].is_full:
        raise ValueError("increasing filtration must reach the full space")
    out: dict[int, Subspace] = {}
    for (_, val), (key_next, _) in zip(items, items[1:]):
        # val holds on input indices [key, key_next); flipped, its region
        # of the output starts at -key_next + 1
        out[-key_next + 1] = val
    out[-items[0][0] + 1] = zero_subspace(ambient_dim)
    return filtered_space(ambient_dim, out)


def shift(f: FilteredSpace, k: int) -> FilteredSpace:
    """shift(f, k) at level n equals f at level n - k."""
    return FilteredSpace(
        f.ambient_dim, tuple((key + k, val) for key, val in f.levels)
    )


def graded_dims(f: FilteredSpace) -> dict[int, int]:
    """Nonzero dimensions of the graded pieces F^p / F^{p+1}."""
    out: dict[int, int] = {}
    for key, _ in f.levels:
        d = f.at(key - 1).dim - f.at(key).dim
        if d:
            out[key - 1] = d
    return out


def direct_sum(f: FilteredSpace, g: FilteredSpace) -> FilteredSpace:
    d1, d2 = f.ambient_dim, g.ambient_dim
    n = d1 + d2

    def embed(a: Subspace, b: Subspace) -> Subspace:
        # the padded rows of a and b keep their pivots, signs and gcds,
        # and each pivot column stays zero outside its row: canonical
        return Subspace(
            n,
            tuple(row + (_Z,) * d2 for row in a.rows)
            + tuple((_Z,) * d1 + row for row in b.rows),
        )

    keys = sorted({k for k, _ in f.levels} | {k for k, _ in g.levels})
    return filtered_space(n, {k: embed(f.at(k), g.at(k)) for k in keys})


def tensor(f: FilteredSpace, g: FilteredSpace) -> FilteredSpace:
    """Tensor product filtration: level p is the sum over a of F^a (x) G^{p-a}."""
    d1, d2 = f.ambient_dim, g.ambient_dim
    n = d1 * d2
    if n == 0:
        return FilteredSpace(0, ())
    f_lo = f.levels[0][0] - 1  # below this, f is the full space
    f_hi = f.levels[-1][0]
    g_lo = g.levels[0][0] - 1
    g_hi = g.levels[-1][0]

    levels: dict[int, Subspace] = {}
    for p in range(f_lo + g_lo, f_hi + g_hi + 1):
        # Kronecker products: basis vector (i, j) of V (x) W sits at i*d2+j
        rows = [
            [_mul(s, t) for s in x for t in y]
            for a in range(f_lo, f_hi + 1)
            for x in f.at(a).rows
            for y in g.at(p - a).rows
        ]
        levels[p] = row_space(rows, n)
    levels[f_hi + g_hi + 1] = zero_subspace(n)
    return filtered_space(n, levels)


def dual(f: FilteredSpace) -> FilteredSpace:
    """Dual filtration: level k of the dual annihilates level -k+1 of f."""
    n = f.ambient_dim
    if n == 0:
        return FilteredSpace(0, ())
    # f holds value v on [key, key_next), so the dual holds ann(v) on
    # the flipped region [2 - key_next, 1 - key]; store the region starts
    levels: dict[int, Subspace] = {}
    for (_, val), (key_next, _) in zip(f.levels, f.levels[1:]):
        levels[2 - key_next] = annihilator(val)
    levels[2 - f.levels[0][0]] = zero_subspace(n)
    return filtered_space(n, levels)


def induced_on_sub(f: FilteredSpace, sub: Subspace) -> FilteredSpace:
    """Restriction to a subspace, in the coordinates of its canonical basis."""
    if sub.ambient_dim != f.ambient_dim:
        raise ValueError("subspace does not live in the filtered space")
    d = sub.dim
    levels: dict[int, Subspace] = {}
    for key, val in f.levels:
        levels[key] = _in_basis(sub, intersect(val, sub).rows)
    if d == 0:
        return FilteredSpace(0, ())
    levels.setdefault(f.levels[-1][0], zero_subspace(d))
    return filtered_space(d, levels)


def induced_on_quotient(f: FilteredSpace, sub: Subspace) -> FilteredSpace:
    """Image filtration on the quotient by ``sub``.

    Quotient coordinates of a vector are the entries of its reduction mod
    ``sub`` at the non-pivot columns of ``sub``; the pivot-column entries
    of the reduction vanish identically.
    """
    if sub.ambient_dim != f.ambient_dim:
        raise ValueError("subspace does not live in the filtered space")
    n = f.ambient_dim
    d = n - sub.dim
    pivots = set(sub.pivots())
    free = [j for j in range(n) if j not in pivots]
    if d == 0:
        return FilteredSpace(0, ())
    levels: dict[int, Subspace] = {}
    for key, val in f.levels:
        # each residual is a positive multiple of a reduction mod sub
        residuals = (_residual(sub.rows, x)[0] for x in val.rows)
        levels[key] = row_space([[w[j] for j in free] for w in residuals], d)
    levels.setdefault(f.levels[-1][0], zero_subspace(d))
    return filtered_space(d, levels)


# Size caps on parsed input: every dimension table costs time and memory
# growing with the ambient dimension and with the span of level indices,
# so a small document must not be able to ask for a large structure; and
# spanning a level costs time growing with its number of vectors, of which
# at most ambient_dim can be independent.
MAX_AMBIENT_DIM = 64
MAX_LEVEL_INDEX = 64
MAX_VECTORS_PER_DIM = 4


def from_json(data: object) -> FilteredSpace:
    if not isinstance(data, dict):
        raise ValueError("filtration JSON must be an object")
    try:
        n = data["ambient_dim"]
        raw_levels = data["levels"]
    except KeyError as exc:
        raise ValueError(f"filtration JSON missing key {exc.args[0]!r}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("ambient_dim must be a nonnegative integer")
    if n > MAX_AMBIENT_DIM:
        raise ValueError(
            f"ambient_dim {n} exceeds the limit of {MAX_AMBIENT_DIM}"
        )
    if not isinstance(raw_levels, list):
        raise ValueError("levels must be a list")
    levels: dict[int, Subspace] = {}
    for item in raw_levels:
        if not isinstance(item, dict) or "index" not in item or "vectors" not in item:
            raise ValueError("each level needs an index and a vector list")
        idx = item["index"]
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise ValueError("level index must be an integer")
        if abs(idx) > MAX_LEVEL_INDEX:
            raise ValueError(
                f"level index {idx} exceeds the limit |index| <= {MAX_LEVEL_INDEX}"
            )
        if idx in levels:
            raise ValueError(f"duplicate level index {idx}")
        raw_vectors = item["vectors"]
        if not isinstance(raw_vectors, list):
            raise ValueError(f"vectors of level {idx} must be an array")
        if len(raw_vectors) > MAX_VECTORS_PER_DIM * n:
            raise ValueError(
                f"level {idx} lists {len(raw_vectors)} vectors, more than "
                f"{MAX_VECTORS_PER_DIM} per ambient dimension"
            )
        vecs = [vector_from_json(v, n) for v in raw_vectors]
        levels[idx] = span(vecs, n)
    return filtered_space(n, levels)


def _filtrations_from_json(
    data: object, name: str, keys: tuple[str, ...]
) -> list[FilteredSpace]:
    """The filtrations under ``keys`` of a structure document called
    ``name``: its shape is checked and every filtration must live in the
    document's ``ambient_dim``."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} JSON must be an object")
    for key in ("ambient_dim", *keys):
        if key not in data:
            raise ValueError(f"{name} JSON missing key {key!r}")
    n = data["ambient_dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("ambient_dim must be a nonnegative integer")
    filtrations = [from_json(data[key]) for key in keys]
    if any(f.ambient_dim != n for f in filtrations):
        raise ValueError("filtration dimensions disagree with ambient_dim")
    return filtrations


def common_window(*filtrations: FilteredSpace) -> range:
    """Index range covering every jump of the given filtrations, one step
    of margin on each side so the constant regions are visible too."""
    keys = [k for f in filtrations for k in f.jumps()]
    if not keys:
        return range(0, 1)
    return range(min(keys) - 1, max(keys) + 1)
