"""Finite sampled families of trifiltered spaces and their defect strata.

A ``SampledFamily`` pairs labeled parameter points with one fiber each and
an optional adjacency graph recording which samples are neighbors (grid
edges, typically).

``alpha_map`` evaluates the splitting defect fiberwise and partitions the
sample set into strata of constant defect.  The paper's semicontinuity
statement is for families whose Hodge numbers are constant, so that is
``alpha_map``'s precondition: it checks the Hodge numbers of every fiber,
then each fiber for opposedness.  The caller declares nothing; there is
no lock to set.  Two diagnostics sit on top of it:

* ``hypothesis_H_audit`` compares the full f-table at each point against
  its most frequent value over the family, per (p, q).  The locus where
  nothing deviates is where the family looks locally constant, and on the
  worked grids below it coincides with the defect strata.
* ``semicontinuity_report`` orients every defect-changing edge in the
  increasing direction and flags points that are strict local maxima of
  the defect.  Special fibers should sit at local minima, so a flagged
  point means the sample grid caught something a genuine family cannot do.

The worked grids have rank 2 fibers whose F and G are lines read off
Gaussian-integer rows; a grid shares one line filtration per distinct row.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from mixedhodge.exactfield import (
    Quad,
    array_from_json,
    finite_from_json,
    int_from_json,
    object_from_json,
)
from mixedhodge.filtration import FilteredSpace, common_window
from mixedhodge.invariants import alpha
from mixedhodge.linalg import _cleared, row_space, zero_subspace
from mixedhodge.multifilt import (
    TrifilteredSpace,
    hodge_numbers,
    intersection_dims,
    is_opposed,
    triple_from_json,
)

# one point's f-table, as sorted ((p, q), dim) pairs over a shared window
FTable = tuple[tuple[tuple[int, int], int], ...]


@dataclass(frozen=True)
class ParameterPoint:
    """A labeled sample point: ordered named coordinates, real or complex."""

    label: str
    coords: tuple[tuple[str, float | complex], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("parameter label must be a nonempty string")
        for name, value in self.coords:
            if not isinstance(name, str) or not name:
                raise ValueError("coordinate names must be nonempty strings")
            if not isinstance(value, (float, complex)):
                raise ValueError(f"coordinate {name!r} must be float or complex")
        # after the loop: set() cannot hash a name that is a list or an object
        names = [n for n, _ in self.coords]
        if len(set(names)) != len(names):
            raise ValueError(f"repeated coordinate name at {self.label!r}")


@dataclass(frozen=True)
class SampledFamily:
    parameters: tuple[ParameterPoint, ...]
    fibers: tuple[TrifilteredSpace, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.parameters:
            raise ValueError("a family needs at least one sample point")
        if len(self.parameters) != len(self.fibers):
            raise ValueError(
                f"{len(self.parameters)} parameter points "
                f"but {len(self.fibers)} fibers"
            )
        labels = [p.label for p in self.parameters]
        if len(set(labels)) != len(labels):
            counts = Counter(labels)
            dup = next(l for l in labels if counts[l] > 1)
            raise ValueError(f"duplicate parameter label {dup!r}")
        scheme = tuple(n for n, _ in self.parameters[0].coords)
        for p in self.parameters:
            if tuple(n for n, _ in p.coords) != scheme:
                raise ValueError(
                    f"coordinate names at {p.label!r} differ from the first point"
                )
        n0 = self.fibers[0].ambient_dim
        for p, t in zip(self.parameters, self.fibers):
            if t.ambient_dim != n0:
                raise ValueError(
                    f"fiber at {p.label!r} has ambient dimension "
                    f"{t.ambient_dim}, expected {n0}"
                )
        npts = len(self.parameters)
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < npts):
                raise ValueError(f"bad edge {e!r}")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("repeated edge")


def sampled_family(parameters, fibers, edges=()) -> SampledFamily:
    """Normalizing constructor: tuples throughout, edges deduplicated and
    stored with the smaller endpoint first."""
    canon = sorted({(min(i, j), max(i, j)) for i, j in edges})
    return SampledFamily(tuple(parameters), tuple(fibers), tuple(canon))


@dataclass(frozen=True)
class StrataReport:
    """Fiberwise defect data over a family with constant Hodge numbers.

    ``alphas`` is indexed like the sample points.  ``strata`` lists
    (defect value, point indices) with values ascending; the cells are
    disjoint and cover every point.  ``f_tables`` are all taken over one
    window shared by the whole family, so entries align across points.
    ``changing_edges`` are the adjacency edges whose endpoints land in
    different strata.
    """

    alphas: tuple[int, ...]
    strata: tuple[tuple[int, tuple[int, ...]], ...]
    f_tables: tuple[FTable, ...]
    changing_edges: tuple[tuple[int, int], ...]


def _point_data(
    fam: SampledFamily, i: int, ps: range, qs: range
) -> tuple[int, FTable]:
    t = fam.fibers[i]
    if not is_opposed(t):
        raise ValueError(
            f"fiber at parameter point {fam.parameters[i].label!r} is not opposed"
        )
    table = tuple(intersection_dims(t.F, t.G, ps, qs).items())
    return alpha(t), table


def alpha_map(fam: SampledFamily) -> StrataReport:
    """Defect of every fiber, grouped into strata of constant value.

    Requires the same Hodge numbers at every fiber and opposed fibers.
    The Hodge numbers of every fiber are checked against fiber 0's first,
    and only then is each fiber checked for opposedness; the first point
    that fails the check under way is reported by its parameter label.
    So a family whose fiber 0 is not opposed and whose fiber 5 moves its
    Hodge numbers reports fiber 5.
    """
    h0 = hodge_numbers(fam.fibers[0])
    for p, t in zip(fam.parameters, fam.fibers):
        if hodge_numbers(t) != h0:
            raise ValueError(f"hodge numbers vary at {p.label!r}")
    ps = common_window(*(t.F for t in fam.fibers))
    qs = common_window(*(t.G for t in fam.fibers))
    rows = [_point_data(fam, i, ps, qs) for i in range(len(fam.fibers))]
    alphas = tuple(a for a, _ in rows)
    tables = tuple(tab for _, tab in rows)
    by_value: dict[int, list[int]] = {}
    for i, a in enumerate(alphas):
        by_value.setdefault(a, []).append(i)
    strata = tuple((a, tuple(pts)) for a, pts in sorted(by_value.items()))
    changing = tuple(e for e in fam.edges if alphas[e[0]] != alphas[e[1]])
    return StrataReport(alphas, strata, tables, changing)


@dataclass(frozen=True)
class HypothesisAudit:
    """Pointwise constancy check of the f-table against its generic value.

    The generic value of each entry is the most frequent one over the
    sample set (ties go to the smaller value, which is the right call when
    special fibers only ever jump up).  ``deviations`` lists, per (p, q)
    with any deviation, the points that differ.  ``holds`` means no entry
    deviates anywhere.  ``stratum_verdicts`` answers the same question
    within each defect stratum, and ``min_is_generic`` records whether the
    minimum of every entry is attained on the majority sample set.
    """

    generic_table: FTable
    deviations: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    holds: bool
    stratum_verdicts: tuple[tuple[int, bool], ...]
    min_is_generic: bool


def hypothesis_H_audit(fam: SampledFamily, report: StrataReport) -> HypothesisAudit:
    keys = [k for k, _ in report.f_tables[0]]
    per_point = [dict(tab) for tab in report.f_tables]
    generic: list[tuple[tuple[int, int], int]] = []
    deviations: list[tuple[tuple[int, int], tuple[int, ...]]] = []
    min_is_generic = True
    for key in keys:
        values = [tab[key] for tab in per_point]
        counts = Counter(values)
        top = max(counts.values())
        gen = min(v for v, c in counts.items() if c == top)
        generic.append((key, gen))
        off = tuple(i for i, v in enumerate(values) if v != gen)
        if off:
            deviations.append((key, off))
        if min(values) != gen:
            min_is_generic = False
    verdicts = tuple(
        (a, len({report.f_tables[i] for i in pts}) == 1)
        for a, pts in report.strata
    )
    return HypothesisAudit(
        tuple(generic), tuple(deviations), not deviations, verdicts, min_is_generic
    )


@dataclass(frozen=True)
class SemicontinuityReport:
    """``increasing_edges`` are the defect-changing edges oriented from the
    smaller value to the larger.  ``suspects`` are points strictly above
    all of their neighbors; isolated points have no say."""

    increasing_edges: tuple[tuple[int, int], ...]
    suspects: tuple[int, ...]


def semicontinuity_report(
    fam: SampledFamily, report: StrataReport
) -> SemicontinuityReport:
    a = report.alphas
    increasing = []
    for i, j in fam.edges:
        if a[i] < a[j]:
            increasing.append((i, j))
        elif a[j] < a[i]:
            increasing.append((j, i))
    neighbors: dict[int, list[int]] = {}
    for i, j in fam.edges:
        neighbors.setdefault(i, []).append(j)
        neighbors.setdefault(j, []).append(i)
    suspects = tuple(
        i for i in sorted(neighbors) if all(a[n] < a[i] for n in neighbors[i])
    )
    return SemicontinuityReport(tuple(increasing), suspects)


def _coord_json(value: float | complex):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _coord_from_json(obj) -> float | complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(*(finite_from_json(x, "coordinate value") for x in obj))
    return finite_from_json(obj, "coordinate value")


def family_to_json(fam: SampledFamily) -> dict:
    return {
        "parameters": [
            {
                "label": p.label,
                "coords": [[name, _coord_json(v)] for name, v in p.coords],
            }
            for p in fam.parameters
        ],
        "fibers": [t.to_json() for t in fam.fibers],
        "edges": [list(e) for e in fam.edges],
    }


# a 32 x 32 grid; the largest family in the package, the default
# conjugate grid, has 121 points
MAX_FAMILY_POINTS = 1024


def family_from_json(data: object) -> SampledFamily:
    object_from_json(data, "family JSON", ("parameters", "fibers"))
    message = "parameters and fibers must be arrays"
    raw_params = array_from_json(data["parameters"], message)
    raw_fibers = array_from_json(data["fibers"], message)
    for key, raw in (("parameter points", raw_params), ("fibers", raw_fibers)):
        if len(raw) > MAX_FAMILY_POINTS:
            raise ValueError(
                f"family lists {len(raw)} {key}, more than the limit of "
                f"{MAX_FAMILY_POINTS}"
            )
    params = []
    bad_point = "malformed parameter point %r"
    bad_coords = "malformed coordinates at %r"
    for obj in raw_params:
        object_from_json(obj, "parameter point", ("label", "coords"), bad_point, obj)
        label = obj["label"]
        named = array_from_json(obj["coords"], bad_coords, label)
        named = [array_from_json(c, bad_coords, label, length=2) for c in named]
        coords = tuple((name, _coord_from_json(v)) for name, v in named)
        params.append(ParameterPoint(label, coords))
    fibers = [triple_from_json(obj) for obj in raw_fibers]
    pairs = []
    bad_edge = "malformed edge %r"
    for e in array_from_json(data.get("edges", []), "edges must be an array"):
        i, j = array_from_json(e, bad_edge, e, length=2)
        pairs.append((int_from_json(i, bad_edge, e), int_from_json(j, bad_edge, e)))
    return sampled_family(params, fibers, pairs)


def strata_json(fam: SampledFamily, report: StrataReport) -> dict:
    """The strata report as a JSON-ready dict, points keyed by label."""
    points = []
    for i, p in enumerate(fam.parameters):
        points.append(
            {
                "label": p.label,
                "coords": [[name, _coord_json(v)] for name, v in p.coords],
                "alpha": report.alphas[i],
                "f": [[pp, qq, d] for (pp, qq), d in report.f_tables[i]],
            }
        )
    return {
        "points": points,
        "strata": [
            {
                "alpha": a,
                "points": [fam.parameters[i].label for i in pts],
            }
            for a, pts in report.strata
        ],
        "changing_edges": [list(e) for e in report.changing_edges],
    }


def _fmt_coord(value: float | complex) -> str:
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0 else "-"
        return f"{value.real!r}{sign}{abs(value.imag)!r}j"
    return repr(value)


def strata_csv(fam: SampledFamily, report: StrataReport) -> str:
    """One row per sample point: label, coordinates, defect, f-table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [name for name, _ in fam.parameters[0].coords]
    keys = [k for k, _ in report.f_tables[0]]
    writer.writerow(
        ["label", *names, "alpha", *(f"f_{p}_{q}" for p, q in keys)]
    )
    for i, p in enumerate(fam.parameters):
        writer.writerow(
            [
                p.label,
                *(_fmt_coord(v) for _, v in p.coords),
                str(report.alphas[i]),
                *(str(d) for _, d in report.f_tables[i]),
            ]
        )
    return buf.getvalue()


# the weight flag of every ``_line_fiber``: the first axis from -1 on,
# zero from 1 on; full ⊃ line ⊃ 0 leaves no nesting to check
_TWO_FLAG_W = FilteredSpace(
    2, ((-1, row_space([((1, 0), (0, 0))], 2)), (1, zero_subspace(2)))
)


def _line(row) -> FilteredSpace:
    """The line through the Gaussian-integer row, sitting in level 1 of
    Q(i)^2."""
    return FilteredSpace(2, ((1, row_space([row], 2)), (2, zero_subspace(2))))


def _line_fiber(f_line: FilteredSpace, g_line: FilteredSpace) -> TrifilteredSpace:
    """Rank 2 with weight pieces in degrees 2 and 0, F and G the given
    lines.  Every fiber holds the same W, built once at import."""
    return TrifilteredSpace(2, W=_TWO_FLAG_W, F=f_line, G=g_line)


def two_flag_fiber(
    lam: Quad | int | Fraction, kap: Quad | int | Fraction
) -> TrifilteredSpace:
    """The fiber whose F and G are the lines through (lam, 1) and
    (kap, 1), for Q(i) values lam and kap as ``gauss`` takes them.  The
    defect is 0 when lam = kap and 1 otherwise, which makes this the
    fiber of choice for the worked grids."""
    return _line_fiber(_line(_cleared((lam, 1))[0]), _line(_cleared((kap, 1))[0]))


def _square_grid(radius: int, step, names: tuple[str, str], rows) -> SampledFamily:
    """The points (a, b) with a and b in step * [-radius, radius], a-major,
    with edges between grid neighbors.  For step = u / v in lowest terms,
    ``rows(i * u, j * u, v)`` gives the Gaussian-integer rows (f_row,
    g_row) of the F and G lines at (i * step, j * step).  The grid builds
    one line filtration per distinct row, for this build only, and the
    fibers that draw on a row share it; each tick's label and float are
    made once per axis."""
    side = 2 * radius + 1
    u, v = step.numerator, step.denominator
    ks = range(-radius, radius + 1)
    ticks = [(str(k * step), float(k * step)) for k in ks]
    params = [
        ParameterPoint(f"({a_label},{b_label})", ((names[0], a), (names[1], b)))
        for a_label, a in ticks
        for b_label, b in ticks
    ]
    pairs = [rows(i * u, j * u, v) for i in ks for j in ks]
    lines = {row: _line(row) for row in {r for pair in pairs for r in pair}}
    fibers = [_line_fiber(lines[f], lines[g]) for f, g in pairs]
    n = side * side
    edges = [(i, i + 1) for i in range(n) if (i + 1) % side] + [
        (i, i + side) for i in range(n - side)
    ]
    return sampled_family(params, fibers, edges)


def lambda_conjugate_grid(
    radius: int = 5, step: Fraction = Fraction(1, 5)
) -> SampledFamily:
    """Square grid over the lambda plane with G the conjugate flag of F.

    The fiber at lambda is the rank 2 extension whose F-line passes
    through (lambda, 1); its defect is 0 exactly on the real axis and 1
    everywhere else.  The default covers [-1, 1]^2 at 11 samples per side.
    Grid coordinates are exact multiples of ``step``, so the real axis is
    hit exactly.  G at lambda is F at conj(lambda), so the grid's F and G
    share its side^2 lines.
    """
    return _square_grid(
        radius, step, ("lambda_re", "lambda_im"),
        # lambda = (a + b*i) / d is the row ((a, b), (d, 0)) of its line
        lambda a, b, d: (((a, b), (d, 0)), ((a, -b), (d, 0))),
    )


def lambda_kappa_grid(
    radius: int = 2, step: Fraction = Fraction(1, 2)
) -> SampledFamily:
    """Two independent real flag positions; the defect vanishes exactly on
    the diagonal lam = kap.  F depends on lam only and G on kap only, and
    both draw on the same rows, so the grid holds one line per side."""
    return _square_grid(
        radius, step, ("lambda", "kappa"),
        lambda a, b, d: (((a, 0), (d, 0)), ((b, 0), (d, 0))),
    )
