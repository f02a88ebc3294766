"""Decreasing filtrations of Q(i)^n with sparse canonical storage.

A ``FilteredSpace`` keeps only the jump levels: the sorted indices p where
F^p differs from F^{p-1}, each with its subspace.  Below the first stored
index the filtration is the full space, and the last stored value is
required to be zero, so lookups are total and two filtrations are equal
iff their levels are.  Its jumps and its distinct values, the full space
and then each stored level, are stored once at construction
(``FilteredSpace.jumps`` and ``values``); ``at(p)`` reads F^p as the value
at position ``bisect_right(jumps, p)``, and every dimension table reads
the values by position.  The values are a ``linalg._Chain``, a tuple
that hashes once, so the table caches of ``multifilt``, keyed by values,
hash each filtration's values once in its life.

``from_generators`` builds every filtration whose levels are nested by
construction: direct sum, tensor product and dual here, an extension's
Hodge filtration (``mhs``) and the sampler's flags.  Its level p is the
span of the Gaussian-integer rows at indices >= p, homogeneous generators
of the Rees module; ``_generators`` gives a filtration's own, the rows of
each of its values.
``filtered_space`` canonicalizes level subspaces whose nesting is not
known and checks it: a document's levels (``from_json``) and the
filtrations induced on a subspace and on a quotient.

The constructions build their levels from the canonical Gaussian-integer
rows of the input levels.  Only ``to_json`` sees Q(i) vectors;
``from_json`` reads each level's vectors as reduced quadruples
(``linalg.vector_from_json``), all of them before any is spanned, and
``span`` turns them into integer rows, so every shape and entry error of
a level precedes its denominator-cap error.  A filtration
induced on a subspace or a quotient lives in the coordinates of the
subspace's Q(i) basis, as ``linalg`` sets out.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from mixedhodge.exactfield import array_from_json, int_from_json, object_from_json
from mixedhodge.linalg import (
    Subspace,
    _Chain,
    _Z,
    _in_basis,
    _mul,
    _pivot,
    annihilator,
    full_space,
    intersect,
    row_space,
    span,
    subspace_sum,
    vector_from_json,
    zero_subspace,
)


@dataclass(frozen=True)
class FilteredSpace:
    """Jump levels of a decreasing filtration.

    The constructor checks only the cheap structure: ambient dimensions,
    strictly increasing indices, strictly decreasing level dimensions and
    the zero tail.  It trusts that each level lies inside the one before:
    ``from_generators`` nests its levels by construction, and
    ``filtered_space``, the constructor for levels whose nesting is not
    known, is the one place that checks it.  It also stores the jumps and
    the values, which take no part in equality, hashing or the repr; ``at``
    reads them by position.  The values are a chain (``linalg._Chain``),
    whose hash is computed once, here.
    """

    ambient_dim: int
    levels: tuple[tuple[int, Subspace], ...]  # ascending jump index, value
    _jumps: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _values: tuple[Subspace, ...] = field(init=False, compare=False, repr=False)

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
        jumps, values = zip(*self.levels) if self.levels else ((), ())
        object.__setattr__(self, "_jumps", jumps)
        object.__setattr__(
            self, "_values", _Chain((full_space(self.ambient_dim), *values))
        )

    def at(self, p: int) -> Subspace:
        return self._values[bisect_right(self._jumps, p)]

    def jumps(self) -> tuple[int, ...]:
        return self._jumps

    def values(self) -> tuple[Subspace, ...]:
        """The distinct values: the full space, then each stored level, as
        a chain that hashes once.  ``at(p)`` is entry
        ``bisect_right(jumps(), p)``."""
        return self._values

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "levels": [
                {
                    "index": k,
                    "vectors": v.to_json(),
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


def from_generators(
    ambient_dim: int, gens: Mapping[int, Iterable]
) -> FilteredSpace:
    """Decreasing filtration: the full space up to the smallest index,
    and above it, at level p, the ``row_space`` of the Gaussian-integer
    rows at indices >= p, each level spanned from the rows of the one
    above it and those at its own index.

    Nothing checks the nesting, which holds by construction.  The
    smallest index only says where the last level ends: its rows are
    never read, and the constructions here and in ``mhs`` leave them out.
    The caller promises that each index enlarges the span.  At the
    package's call sites it does: in the sampler each index carries its
    own run of one basis; elsewhere it is one less than a jump of an
    input, where a graded piece is nonzero, and the graded pieces add
    (direct sum, extension), convolve (tensor) or reflect (dual).
    ``FilteredSpace`` still rejects an index that does not enlarge the
    span, the smallest included: the rows above it must span a proper
    subspace.
    """
    if ambient_dim == 0:
        return FilteredSpace(0, ())
    ps = sorted(gens, reverse=True)
    levels = [(ps[0] + 1, zero_subspace(ambient_dim))]
    for p, below in zip(ps, ps[1:]):
        rows = [*levels[-1][1].rows, *gens[p]]
        levels.append((below + 1, row_space(rows, ambient_dim)))
    return FilteredSpace(ambient_dim, tuple(reversed(levels)))


def _generators(f: FilteredSpace) -> dict[int, tuple]:
    """Generators of f for ``from_generators``: the rows of each value of f,
    the full space first, keyed by the last index at which it holds."""
    return {k - 1: v.rows for k, v in zip(f.jumps(), f.values())}


def trivial(ambient_dim: int) -> FilteredSpace:
    """Full at every level up to 0, zero from level 1 on."""
    if ambient_dim == 0:
        return FilteredSpace(0, ())
    return FilteredSpace(ambient_dim, ((1, zero_subspace(ambient_dim)),))


def shift(f: FilteredSpace, k: int) -> FilteredSpace:
    """shift(f, k) at level n equals f at level n - k."""
    return FilteredSpace(
        f.ambient_dim, tuple((key + k, val) for key, val in f.levels)
    )


def graded_dims(f: FilteredSpace) -> dict[int, int]:
    """Dimensions of the graded pieces F^p / F^{p+1}, nonzero exactly one
    below each jump: consecutive values strictly decrease."""
    dims = [v.dim for v in f.values()]
    return {k - 1: a - b for k, a, b in zip(f.jumps(), dims, dims[1:])}


def common_jumps(f: FilteredSpace, g: FilteredSpace) -> list[int]:
    """The sorted union of two filtrations' jump indices."""
    return sorted({*f.jumps(), *g.jumps()})


def _summed_generators(*parts: tuple[FilteredSpace, Callable]) -> dict[int, list]:
    """Generators for ``from_generators`` of a sum: for each part (f, embed),
    the ``_generators`` of f mapped by embed into the sum.  The smallest
    index of all keeps only its index, as ``from_generators`` never reads
    its rows; a part whose first jump lies higher keeps its full space's
    rows, which are read."""
    gens_of = [(_generators(f), embed) for f, embed in parts]
    low = min((key for gens, _ in gens_of for key in gens), default=0)
    out: dict[int, list] = {low: []}
    for gens, embed in gens_of:
        for key, rows in gens.items():
            if key != low:
                out.setdefault(key, []).extend(map(embed, rows))
    return out


def direct_sum(f: FilteredSpace, g: FilteredSpace) -> FilteredSpace:
    """Level p is F^p + G^p: f's values padded on the right, g's on the left."""
    right, left = (_Z,) * g.ambient_dim, (_Z,) * f.ambient_dim
    gens = _summed_generators(
        (f, lambda row: row + right), (g, lambda row: left + row)
    )
    return from_generators(f.ambient_dim + g.ambient_dim, gens)


def tensor(f: FilteredSpace, g: FilteredSpace) -> FilteredSpace:
    """Tensor product filtration: level p is the sum over a of F^a (x) G^{p-a},
    generated by the Kronecker products of f's and g's values; basis vector
    (i, j) of V (x) W sits at i * dim W + j."""
    f_gens, g_gens = _generators(f), _generators(g)
    # the full spaces' products would sit at the smallest index, whose rows
    # from_generators never reads: only the index is kept
    low = min(f_gens, default=0) + min(g_gens, default=0)
    gens: dict[int, list] = {low: []}
    for a, xs in f_gens.items():
        for b, ys in g_gens.items():
            if a + b != low:
                gens.setdefault(a + b, []).extend(
                    [_mul(s, t) for s in x for t in y] for x in xs for y in ys
                )
    return from_generators(f.ambient_dim * g.ambient_dim, gens)


def dual(f: FilteredSpace) -> FilteredSpace:
    """Dual filtration: level k of the dual annihilates level -k+1 of f.
    The zero level's annihilator would sit at the smallest index, whose
    rows ``from_generators`` never reads, so only its index is kept."""
    return from_generators(
        f.ambient_dim,
        {
            1 - key: () if val.is_zero else annihilator(val).rows
            for key, val in f.levels
        },
    )


def induced_on_sub(f: FilteredSpace, sub: Subspace) -> FilteredSpace:
    """Restriction to a subspace, in the coordinates of its canonical basis."""
    if sub.ambient_dim != f.ambient_dim:
        raise ValueError("subspace does not live in the filtered space")
    d = sub.dim
    levels: dict[int, Subspace] = {}
    for key, val in f.levels:
        levels[key] = _in_basis(sub, intersect(val, sub).rows)
    return filtered_space(d, levels)


def induced_on_quotient(f: FilteredSpace, sub: Subspace) -> FilteredSpace:
    """Image filtration on the quotient by ``sub``.

    Quotient coordinates of a vector are the entries of its reduction mod
    ``sub`` at the non-pivot columns of ``sub``; the pivot-column entries
    of the reduction vanish identically.  The image of a level is spanned
    by the canonical rows of its sum with ``sub`` whose pivots are free
    columns: sub's pivots are pivots of the sum, so those rows vanish
    there and are their own reductions.
    """
    if sub.ambient_dim != f.ambient_dim:
        raise ValueError("subspace does not live in the filtered space")
    n = f.ambient_dim
    d = n - sub.dim
    pivots = set(sub.pivots())
    free = [j for j in range(n) if j not in pivots]
    levels: dict[int, Subspace] = {}
    for key, val in f.levels:
        rows = [r for r in subspace_sum(val, sub).rows if _pivot(r) not in pivots]
        levels[key] = row_space([[r[j] for j in free] for r in rows], d)
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
    n = _ambient_dim_from_json(data, "filtration JSON", ("levels",))
    if n > MAX_AMBIENT_DIM:
        raise ValueError(
            f"ambient_dim {n} exceeds the limit of {MAX_AMBIENT_DIM}"
        )
    levels: dict[int, Subspace] = {}
    bad_level = "each level needs an index and a vector list"
    for item in array_from_json(data["levels"], "levels must be a list"):
        object_from_json(item, "level", ("index", "vectors"), bad_level)
        idx = int_from_json(item["index"], "level index must be an integer")
        if abs(idx) > MAX_LEVEL_INDEX:
            raise ValueError(
                f"level index {idx} exceeds the limit |index| <= {MAX_LEVEL_INDEX}"
            )
        if idx in levels:
            raise ValueError(f"duplicate level index {idx}")
        raw_vectors = array_from_json(
            item["vectors"], "vectors of level %d must be an array", idx
        )
        if len(raw_vectors) > MAX_VECTORS_PER_DIM * n:
            raise ValueError(
                f"level {idx} lists {len(raw_vectors)} vectors, more than "
                f"{MAX_VECTORS_PER_DIM} per ambient dimension"
            )
        vecs = [vector_from_json(v, n) for v in raw_vectors]
        levels[idx] = span(vecs, n)
    return filtered_space(n, levels)


def _ambient_dim_from_json(data: object, what: str, keys: tuple) -> int:
    """The ``ambient_dim`` of a JSON object that holds it and ``keys``."""
    object_from_json(data, what, ("ambient_dim", *keys))
    message = "ambient_dim must be a nonnegative integer"
    return int_from_json(data["ambient_dim"], message, low=0)


def _filtrations_from_json(
    data: object, name: str, keys: tuple[str, ...]
) -> list[FilteredSpace]:
    """The filtrations under ``keys`` of a structure document called
    ``name``: its shape is checked and every filtration must live in the
    document's ``ambient_dim``."""
    n = _ambient_dim_from_json(data, f"{name} JSON", keys)
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
