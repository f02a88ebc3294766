from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from conftest import one_dim_triple
from mixedhodge.exactfield import I, gauss
from mixedhodge.families import (
    MAX_FAMILY_POINTS,
    ParameterPoint,
    alpha_map,
    family_from_json,
    family_to_json,
    hypothesis_H_audit,
    lambda_conjugate_grid,
    lambda_kappa_grid,
    sampled_family,
    semicontinuity_report,
    strata_csv,
    strata_json,
    two_flag_fiber,
)
from mixedhodge.multifilt import bigraded_dims


def constant_family(n=5):
    fiber = two_flag_fiber(gauss(1), gauss(1))
    params = [ParameterPoint(f"t{i}", (("t", float(i)),)) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return sampled_family(params, [fiber] * n, edges)


def test_lambda_grid_strata_match_real_axis():
    fam = lambda_conjugate_grid()
    assert len(fam.parameters) == 121
    assert len(fam.edges) == 220
    report = alpha_map(fam)
    axis = {
        i
        for i, p in enumerate(fam.parameters)
        if dict(p.coords)["lambda_im"] == 0.0
    }
    assert dict((a, set(pts)) for a, pts in report.strata) == {
        Fraction(0): axis,
        Fraction(1): set(range(121)) - axis,
    }
    # the cells partition the sample set
    covered = [i for _, pts in report.strata for i in pts]
    assert sorted(covered) == list(range(121))
    assert len(covered) == len(set(covered))
    # every defect-changing edge crosses the axis
    for i, j in report.changing_edges:
        assert (i in axis) != (j in axis)


def test_sum_of_bigraded_dims_is_constant():
    fam = lambda_conjugate_grid(radius=1)
    dims = {sum(bigraded_dims(t).values()) for t in fam.fibers}
    assert dims == {2}


def test_alpha_map_requires_weight_lock():
    # constant Hodge numbers are checked at every fiber before any fiber is
    # checked for opposedness: p0 is not opposed, but p1 moves the numbers
    params = [ParameterPoint(f"p{i}", (("t", float(i)),)) for i in range(2)]
    fam = sampled_family(params, [one_dim_triple(0, 1, 1), one_dim_triple(0, 0, 0)])
    with pytest.raises(ValueError, match="^hodge numbers vary at 'p1'$"):
        alpha_map(fam)


def test_non_opposed_fiber_is_reported_by_label():
    bad = one_dim_triple(0, 1, 1)
    params = [ParameterPoint(f"p{i}", (("t", float(i)),)) for i in range(2)]
    fam = sampled_family(params, [bad, bad])
    with pytest.raises(ValueError, match="'p0' is not opposed"):
        alpha_map(fam)


def test_weight_lock_rejects_moving_hodge_numbers():
    a = one_dim_triple(0, 0, 0)
    b = one_dim_triple(-2, 1, 1)
    params = [ParameterPoint(f"p{i}", (("t", float(i)),)) for i in range(2)]
    # the family itself is well formed; its defect map is not defined
    fam = sampled_family(params, [a, b])
    with pytest.raises(ValueError, match="'p1'"):
        alpha_map(fam)


def test_audit_deviation_locus_is_real_axis():
    fam = lambda_conjugate_grid()
    report = alpha_map(fam)
    audit = hypothesis_H_audit(fam, report)
    assert not audit.holds
    assert audit.min_is_generic
    axis = {
        i
        for i, p in enumerate(fam.parameters)
        if dict(p.coords)["lambda_im"] == 0.0
    }
    assert [key for key, _ in audit.deviations] == [(1, 1)]
    assert set(audit.deviations[0][1]) == axis
    # within each stratum the whole f-table is constant
    assert all(ok for _, ok in audit.stratum_verdicts)
    assert dict(audit.generic_table)[(1, 1)] == 0


def test_lambda_grid_has_no_semicontinuity_suspects():
    fam = lambda_conjugate_grid()
    report = alpha_map(fam)
    sem = semicontinuity_report(fam, report)
    assert sem.suspects == ()
    axis = {
        i
        for i, p in enumerate(fam.parameters)
        if dict(p.coords)["lambda_im"] == 0.0
    }
    assert sem.increasing_edges
    for i, j in sem.increasing_edges:
        assert i in axis and j not in axis


def test_constant_family_is_one_stratum():
    fam = constant_family()
    report = alpha_map(fam)
    assert report.strata == ((Fraction(0), (0, 1, 2, 3, 4)),)
    assert report.changing_edges == ()
    audit = hypothesis_H_audit(fam, report)
    assert audit.holds and audit.min_is_generic
    sem = semicontinuity_report(fam, report)
    assert sem.increasing_edges == () and sem.suspects == ()


def test_audit_and_alpha_agree_on_worked_grids():
    # constant f-table, constant defect and a clean audit single out the
    # same families here
    for fam in (lambda_conjugate_grid(radius=1), lambda_kappa_grid(radius=1),
                constant_family()):
        report = alpha_map(fam)
        audit = hypothesis_H_audit(fam, report)
        f_constant = len(set(report.f_tables)) == 1
        alpha_constant = len(report.strata) == 1
        assert audit.holds == f_constant == alpha_constant


def test_lambda_kappa_zero_stratum_is_diagonal():
    fam = lambda_kappa_grid()
    report = alpha_map(fam)
    diag = {
        i
        for i, p in enumerate(fam.parameters)
        if dict(p.coords)["lambda"] == dict(p.coords)["kappa"]
    }
    assert len(diag) == 5
    strata = dict((a, set(pts)) for a, pts in report.strata)
    assert strata[Fraction(0)] == diag


@pytest.mark.parametrize("radius, step", [(1, Fraction(1, 2)), (3, Fraction(2, 7))])
def test_worked_grids_share_one_line_per_row(radius, step):
    side = 2 * radius + 1
    ticks = [k * step for k in range(-radius, radius + 1)]
    exact = [(a, b) for a in ticks for b in ticks]
    kappa = lambda_kappa_grid(radius, step)
    conj = lambda_conjugate_grid(radius, step)
    assert list(kappa.fibers) == [two_flag_fiber(a, b) for a, b in exact]
    assert list(conj.fibers) == [
        two_flag_fiber(gauss(a, b), gauss(a, -b)) for a, b in exact
    ]
    assert [p.coords for p in kappa.parameters] == [
        (("lambda", float(a)), ("kappa", float(b))) for a, b in exact
    ]
    assert [p.label for p in conj.parameters] == [f"({a},{b})" for a, b in exact]

    def lines(fam):
        return {id(x) for t in fam.fibers for x in (t.F, t.G)}

    # F at (lam, kap) draws on lam's row and G on kap's, the same rows
    assert len(lines(kappa)) == side
    # G at lambda is F at conj(lambda)
    assert len(lines(conj)) == side * side


def test_isolated_defect_maximum_is_flagged():
    # 3x3 grid, defect 0 everywhere except the center
    vals = [gauss(0)] * 9
    fibers = [two_flag_fiber(v, v) for v in vals]
    fibers[4] = two_flag_fiber(I, gauss(0, -1))
    params = [
        ParameterPoint(f"p{i}", (("x", float(i % 3)), ("y", float(i // 3))))
        for i in range(9)
    ]
    edges = [(i, i + 1) for i in (0, 1, 3, 4, 6, 7)] + [
        (i, i + 3) for i in range(6)
    ]
    fam = sampled_family(params, fibers, edges)
    sem = semicontinuity_report(fam, alpha_map(fam))
    assert sem.suspects == (4,)
    assert all(j == 4 for _, j in sem.increasing_edges)


def test_family_json_round_trip():
    fam = lambda_kappa_grid(radius=1)
    blob = json.dumps(family_to_json(fam), sort_keys=True)
    assert family_from_json(json.loads(blob)) == fam
    # complex coordinates survive as [re, im] pairs
    small = sampled_family(
        [ParameterPoint("z", (("z", complex(0.5, -1.25)),))],
        [one_dim_triple(0, 0, 0)],
    )
    assert family_from_json(family_to_json(small)) == small
    # the weight_locked key of older documents is ignored like any other
    assert "weight_locked" not in family_to_json(fam)
    for value in (True, False, "yes"):
        assert family_from_json({**json.loads(blob), "weight_locked": value}) == fam


def test_family_json_rejects_malformed_input():
    fam = lambda_kappa_grid(radius=1)
    good = family_to_json(fam)
    with pytest.raises(ValueError, match="must be an object"):
        family_from_json([])
    with pytest.raises(ValueError, match="missing key"):
        family_from_json({"parameters": good["parameters"]})
    bad = json.loads(json.dumps(good))
    bad["parameters"][0]["coords"][0][1] = "x"
    with pytest.raises(ValueError, match="malformed coordinate"):
        family_from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["edges"][0] = [0, "1"]
    with pytest.raises(ValueError, match="malformed edge"):
        family_from_json(bad)
    bad = json.loads(json.dumps(good))
    del bad["fibers"][0]
    with pytest.raises(ValueError, match="parameter points"):
        family_from_json(bad)


def test_family_json_size_cap():
    doc = family_to_json(constant_family(MAX_FAMILY_POINTS))
    assert len(family_from_json(doc).parameters) == MAX_FAMILY_POINTS
    n = MAX_FAMILY_POINTS + 1
    for key, extra in (("parameter points", {"label": "x", "coords": [["t", 0.0]]}),
                       ("fibers", doc["fibers"][0])):
        field = "parameters" if key == "parameter points" else "fibers"
        bad = {**doc, field: doc[field] + [extra]}
        with pytest.raises(ValueError, match=(
            f"^family lists {n} {key}, more than the limit of {MAX_FAMILY_POINTS}$"
        )):
            family_from_json(bad)


def test_family_validation():
    p = ParameterPoint("a", (("t", 0.0),))
    q = ParameterPoint("a", (("t", 1.0),))
    fiber = one_dim_triple(0, 0, 0)
    with pytest.raises(ValueError, match="duplicate parameter label 'a'"):
        sampled_family([p, q], [fiber, fiber])
    with pytest.raises(ValueError, match="at least one sample point"):
        sampled_family([], [])
    with pytest.raises(ValueError, match="bad edge"):
        sampled_family([p], [fiber], [(0, 1)])
    with pytest.raises(ValueError, match="bad edge"):
        sampled_family([p], [fiber], [(0, 0)])
    r = ParameterPoint("b", (("s", 1.0),))
    with pytest.raises(ValueError, match="coordinate names at 'b'"):
        sampled_family([p, r], [fiber, fiber])
    s = ParameterPoint("b", (("t", 1.0),))
    with pytest.raises(ValueError, match="ambient dimension"):
        sampled_family(
            [p, s], [fiber, two_flag_fiber(gauss(0), gauss(0))]
        )


def test_parameter_point_coercion():
    pt = ParameterPoint("x", (("a", 1.0), ("b", 0.25), ("c", 1j)))
    assert pt.coords == (("a", 1.0), ("b", 0.25), ("c", 1j))
    # the constructor coerces nothing: only floats and complexes pass
    for value in (1, True, Fraction(1, 4)):
        with pytest.raises(ValueError, match="^coordinate 'a' must be float or"):
            ParameterPoint("x", (("a", value),))
    with pytest.raises(ValueError, match="repeated coordinate name"):
        ParameterPoint("x", (("a", 1.0), ("a", 2.0)))
    with pytest.raises(ValueError, match="nonempty string"):
        ParameterPoint("", (("a", 1.0),))
    # names are checked before they are hashed
    for name in (["a"], {}, 5, None):
        with pytest.raises(ValueError, match="coordinate names must be nonempty"):
            ParameterPoint("x", ((name, 1.0), ("b", 2.0)))


def test_strata_csv_layout():
    fam = lambda_kappa_grid(radius=1)
    report = alpha_map(fam)
    text = strata_csv(fam, report)
    lines = text.splitlines()
    assert len(lines) == 10
    header = lines[0].split(",")
    assert header[:4] == ["label", "lambda", "kappa", "alpha"]
    assert all(col.startswith("f_") for col in header[4:])
    # repeated rendering is byte-identical
    assert strata_csv(fam, report) == text
    # the diagonal row carries defect 0; labels with commas stay one cell
    rows = list(csv.reader(io.StringIO(text)))
    row0 = next(r for r in rows[1:] if r[0] == "(0,0)")
    assert row0[3] == "0"


def test_strata_json_shape():
    fam = lambda_conjugate_grid(radius=1)
    report = alpha_map(fam)
    data = strata_json(fam, report)
    assert sorted(data) == ["changing_edges", "points", "strata"]
    assert [s["alpha"] for s in data["strata"]] == [0, 1]
    assert len(data["points"]) == 9
    assert data["points"][0]["f"][0][:2] == [0, 0]
    labels = {p["label"] for p in data["points"]}
    for s in data["strata"]:
        assert set(s["points"]) <= labels
