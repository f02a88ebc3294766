"""Cross-ratio, theta, and curve defect tests.

The numeric expectations here are either hand-evaluated (cross-ratios and
the row moduli 2 and 1 they give) or classical identities used as oracles
(theta parity and quasi-periodicity, Moebius invariance).
"""

import cmath
import math
import random

import pytest

from conftest import assert_mobius_invariant
from mixedhodge.curves import (
    INF,
    CurveConfig,
    config_from_json,
    cross_ratio,
    curve_report,
    genus0_alpha,
    genus0_report,
    genus1_report,
    theta,
)


def test_cross_ratio_fixed_values():
    assert cross_ratio(0.5, INF, 0, 1) == -1.0
    assert cross_ratio(2, INF, 0, 1) == 2.0


def test_cross_ratio_infinity_rules_match_limits():
    big = 1e9
    finite = cross_ratio(big, 0.3 + 0.1j, -0.2, 1.7)
    assert abs(cross_ratio(INF, 0.3 + 0.1j, -0.2, 1.7) - finite) < 1e-6
    finite = cross_ratio(0.3, big, -0.2, 1.7)
    assert abs(cross_ratio(0.3, INF, -0.2, 1.7) - finite) < 1e-6
    finite = cross_ratio(0.3, 0.9, big, 1.7)
    assert abs(cross_ratio(0.3, 0.9, INF, 1.7) - finite) < 1e-6
    finite = cross_ratio(0.3, 0.9, -0.2, big)
    assert abs(cross_ratio(0.3, 0.9, -0.2, INF) - finite) < 1e-6


def test_cross_ratio_rejects_coincident_points():
    with pytest.raises(ValueError):
        cross_ratio(1, 1, 0, 2)
    with pytest.raises(ValueError):
        cross_ratio(INF, INF, 0, 1)
    with pytest.raises(ValueError):
        cross_ratio(0, 1, 0, 2)


def test_period_matrix_fixed_entries():
    # the cross-ratios 2 and -1 behind the period entries log 2 and i*pi,
    # as the row moduli of the report
    rep = genus0_report(CurveConfig(0, (0, 1), ((INF, 2),)))
    assert rep == {"alpha": 1, "rows": [{"i": 0, "moduli": [2.0]}]}

    rep = genus0_report(CurveConfig(0, (0, 1), ((INF, 0.5),)))
    assert rep == {"alpha": 0, "rows": [{"i": 0, "moduli": [1.0]}]}


def test_four_point_alpha_boundary():
    # with punctures (0, 1) and pair (inf, Q) the single cross-ratio is
    # Q/(Q-1), which has modulus 1 exactly on the line Re(Q) = 1/2
    for q in (0.5, 0.5 + 0.7j, 0.5 - 3j):
        assert genus0_alpha(CurveConfig(0, (0, 1), ((INF, q),))) == 0
    for q in (2, 1j, 0.4):
        assert genus0_alpha(CurveConfig(0, (0, 1), ((INF, q),))) == 1


def test_alpha_trivial_configurations():
    assert genus0_alpha(CurveConfig(0, (0.3,), ((INF, 2),))) == 0
    assert genus0_alpha(CurveConfig(0, (0, 1, 2), ())) == 0


def test_genus0_rejects_repeated_points():
    with pytest.raises(ValueError):
        genus0_alpha(CurveConfig(0, (0, 1), ((0, 2),)))
    with pytest.raises(ValueError):
        genus0_alpha(CurveConfig(0, (INF, 1), ((INF, 2),)))


def test_alpha_mobius_invariance():
    assert_mobius_invariant(random.Random(42), 30)


@pytest.mark.parametrize("tau", [1j, 2j, 0.5 + 1j])
def test_theta_identities(tau):
    rng = random.Random(7)
    for _ in range(20):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t = theta(z, tau)
        assert abs(theta(z + 1, tau) - t) < 1e-12 * max(1.0, abs(t))
        assert abs(theta(-z, tau) - t) < 1e-12 * max(1.0, abs(t))
        lhs = theta(z + tau, tau) * cmath.exp(1j * math.pi * tau + 2j * math.pi * z)
        assert abs(lhs - t) < 1e-10 * max(1.0, abs(t))


def test_theta_rejects_bad_tau():
    with pytest.raises(ValueError):
        theta(0.3, 1.0 + 0j)
    with pytest.raises(ValueError):
        theta(0.3, -1j)


def test_genus1_real_configuration_is_balanced():
    cfg = CurveConfig(1, (0.1, 0.35), ((0.6, 0.85),), tau=1.5j)
    rep = genus1_report(cfg)
    assert rep["alpha"] == 0
    assert rep["alpha_mod_2pi"] == 0
    assert all(abs(v) <= 1e-9 for v in rep["rows"][0]["imag_parts"])


def test_genus1_generic_configuration_unbalanced():
    cfg = CurveConfig(1, (0.1 + 0.2j, 0.4), ((0.6 + 0.1j, 0.8),), tau=1.5j)
    assert genus1_report(cfg)["alpha"] == 1


def test_genus1_single_puncture_trivial():
    cfg = CurveConfig(1, (0.2,), ((0.5, 0.7),), tau=1j)
    assert genus1_report(cfg)["alpha"] == 0


def test_genus1_rejects_lattice_coincidence():
    cfg = CurveConfig(1, (0.1, 0.1 + 1 + 2j), ((0.5, 0.7),), tau=2j)
    with pytest.raises(ValueError):
        genus1_report(cfg)


def test_genus1_rejects_insufficient_truncation():
    cfg = CurveConfig(
        1, (0.1, 0.35), ((0.6, 0.85),), tau=0.001j, theta_truncation=2
    )
    with pytest.raises(ValueError):
        genus1_report(cfg)


def test_config_json_round_trip():
    # literal documents, as the CLI reads them, to the configurations
    # they stand for
    doc = {
        "genus": 0,
        "punctures": [[0, 0], [1, 0], "inf"],
        "pairs": [[[0.5, 0.25], [2, 0]]],
        "tol": 1e-8,
    }
    assert config_from_json(doc) == CurveConfig(
        0, (0j, 1 + 0j, INF), ((0.5 + 0.25j, 2 + 0j),), tol=1e-8
    )

    doc = {
        "genus": 1,
        "punctures": [[0.1, -0.2]],
        "pairs": [[[0.5, 0], [0.7, 0.3]]],
        "tau": [0.5, 2],
        "theta_truncation": 60,
    }
    assert config_from_json(doc) == CurveConfig(
        1,
        (0.1 - 0.2j,),
        ((0.5 + 0j, 0.7 + 0.3j),),
        tau=0.5 + 2j,
        theta_truncation=60,
    )


def test_config_json_rejects_malformed():
    with pytest.raises(ValueError):
        config_from_json({"genus": 2, "punctures": [], "pairs": []})
    with pytest.raises(ValueError):
        config_from_json({"genus": 0, "punctures": ["nope"], "pairs": []})
    with pytest.raises(ValueError):
        config_from_json({"genus": 0, "punctures": [[0, 0]], "pairs": [[[0, 1]]]})
    with pytest.raises(ValueError):
        config_from_json(
            {"genus": 0, "punctures": [[0, 0]], "pairs": [], "tol": -1}
        )


def test_curve_report_dispatch():
    rep = curve_report(CurveConfig(0, (0, 1), ((INF, 2),)))
    assert rep["alpha"] == 1
    rep = curve_report(CurveConfig(1, (0.1, 0.35), ((0.6, 0.85),), tau=1.5j))
    assert "alpha_mod_2pi" in rep
