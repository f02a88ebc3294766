"""Numerical splitting defect of punctured curves of genus 0 and 1.

This module is the one floating-point corner of the package.  Everything is
double precision: the inputs are moduli of marked projective lines or complex
tori, and the outputs are counts of rows, one per pair of consecutive
punctures, passing a reality or modulus test at an explicit tolerance.
Nothing here touches the exact subspace arithmetic of the other modules.

Genus 0: a configuration is m punctures and n glued point pairs on the
projective line.  Row i compares punctures p_i, p_{i+1} against each glued
pair through a cross-ratio; the row is balanced when every cross-ratio lies
on the unit circle, and the defect alpha counts unbalanced rows.

Genus 1: same shape, with the cross-ratio replaced by a difference of logs of
Jacobi theta values at lattice-shifted points.  The balance test as stated is
reality of each entry, which is sensitive to the branch of the logarithm;
reports therefore carry both the raw imaginary parts and their reduction mod
2 pi, with a separate verdict for each.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from mixedhodge.exactfield import (
    array_from_json,
    finite_from_json,
    int_from_json,
    object_from_json,
)


class _Infinity:
    """The point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()

_TWO_PI = 2.0 * math.pi


def is_inf(x) -> bool:
    return x is INF


@dataclass(frozen=True)
class CurveConfig:
    genus: int
    punctures: tuple
    pairs: tuple
    tau: complex | None = None
    tol: float = 1e-9
    theta_truncation: int = 40


def cross_ratio(a, b, c, d) -> complex:
    """((a-c)/(a-d)) / ((b-c)/(b-d)), with limit rules at infinity.

    Exactly one of the four points may be the point at infinity; the factors
    through it cancel pairwise in the limit.  Four pairwise distinct points
    never yield 0 or a zero denominator, so either one raises.
    """
    if len({a, b, c, d}) < 4:  # INF equals only itself
        raise ValueError("coincident points in cross-ratio")
    if is_inf(a):
        num, den = b - d, b - c
    elif is_inf(b):
        num, den = a - c, a - d
    elif is_inf(c):
        num, den = b - d, a - d
    elif is_inf(d):
        num, den = a - c, b - c
    else:
        num, den = (a - c) * (b - d), (a - d) * (b - c)
    if den == 0 or num == 0:
        raise ValueError("coincident points in cross-ratio")
    return num / den


def _check_genus0(cfg: CurveConfig) -> None:
    if cfg.genus != 0:
        raise ValueError("configuration is not genus 0")
    if len(cfg.punctures) < 1:
        raise ValueError("at least one puncture is required")
    pts = list(cfg.punctures) + [x for pair in cfg.pairs for x in pair]
    if len(set(pts)) < len(pts):
        raise ValueError("configuration points are not pairwise distinct")


def _row_ratios(cfg: CurveConfig) -> list:
    m = len(cfg.punctures)
    out = []
    for i in range(m - 1):
        pi, pnext = cfg.punctures[i], cfg.punctures[i + 1]
        out.append(
            [cross_ratio(q, p, pi, pnext) for (p, q) in cfg.pairs]
        )
    return out


def _check_finite(values: list, what: str, i: int) -> None:
    """A NaN or infinity in a report row is a domain error, so reports stay
    strict JSON."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} of row {i} is not finite in double precision")


def genus0_report(cfg: CurveConfig) -> dict:
    """Row moduli and the count of rows off the unit circle."""
    _check_genus0(cfg)
    m = len(cfg.punctures)
    rows = []
    balanced = 0
    for i, ratios in enumerate(_row_ratios(cfg)):
        moduli = [abs(r) for r in ratios]
        _check_finite(moduli, "a cross-ratio modulus", i)
        if all(abs(mod - 1.0) <= cfg.tol for mod in moduli):
            balanced += 1
        rows.append({"i": i, "moduli": moduli})
    return {"alpha": (m - 1) - balanced, "rows": rows}


def genus0_alpha(cfg: CurveConfig) -> int:
    return genus0_report(cfg)["alpha"]


def theta(
    z: complex, tau: complex, truncation: int = CurveConfig.theta_truncation
) -> complex:
    """Jacobi theta sum over |n| <= truncation."""
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    total = 1 + 0j
    try:
        for n in range(1, truncation + 1):
            # keep the exponents combined so a huge |Im z| cannot produce a
            # 0 * inf pair from the two half-terms
            base = 1j * math.pi * n * n * tau
            osc = 2j * math.pi * n * z
            total += cmath.exp(base + osc) + cmath.exp(base - osc)
    except (OverflowError, ValueError):
        # OverflowError: a finite exponent past the double range;
        # ValueError ("math domain error"): an exponent that is already
        # infinite, as a huge tau or z makes it
        raise ValueError(f"theta term |n| = {n} overflows double precision") from None
    return total


def _theta_tail_ok(tau: complex, max_abs_im_z: float, n: int, tol: float) -> bool:
    """Crude geometric tail bound for the truncated theta sum."""
    log_first = -math.pi * tau.imag * (n + 1) ** 2 + _TWO_PI * (n + 1) * max_abs_im_z
    log_ratio = -math.pi * tau.imag * (2 * n + 3) + _TWO_PI * max_abs_im_z
    if log_ratio >= 0:
        return False
    if log_first > 700.0:
        return False
    # -expm1 stays positive for a tiny negative log_ratio, where
    # 1 - exp(log_ratio) is 0; the tail is then inf and not ok
    tail = 2.0 * math.exp(log_first) / -math.expm1(log_ratio)
    return tail <= tol / 10.0


def _lattice_reduce(d: complex, tau: complex) -> tuple:
    """Coordinates of d in the basis (1, tau), each reduced mod 1."""
    b = d.imag / tau.imag
    a = d.real - b * tau.real
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(
            "lattice coordinates of a point difference are not finite in "
            "double precision"
        )
    return a - round(a), b - round(b)


def _check_genus1(cfg: CurveConfig) -> None:
    if cfg.genus != 1:
        raise ValueError("configuration is not genus 1")
    if cfg.tau is None or cfg.tau.imag <= 0:
        raise ValueError("genus 1 needs tau with positive imaginary part")
    if len(cfg.punctures) < 1:
        raise ValueError("at least one puncture is required")
    pts = list(cfg.punctures) + [x for pair in cfg.pairs for x in pair]
    if any(is_inf(x) for x in pts):
        raise ValueError("genus 1 points must be finite complex numbers")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            a, b = _lattice_reduce(pts[i] - pts[j], cfg.tau)
            if abs(a) <= cfg.tol and abs(b) <= cfg.tol:
                raise ValueError(
                    "configuration points are not pairwise distinct mod the lattice"
                )


def genus1_report(cfg: CurveConfig) -> dict:
    """Imaginary parts of the theta-log entries, raw and reduced mod 2 pi.

    The row test as stated is reality of each entry; the mod 2 pi columns
    quotient out the branch choice of the logarithm and get their own
    verdict, since reality of a log difference is only branch-independent
    up to that lattice.
    """
    _check_genus1(cfg)
    tau = cfg.tau
    shift = (1 + tau) / 2
    m = len(cfg.punctures)

    zs = [
        x - p - shift
        for p in cfg.punctures
        for pair in cfg.pairs
        for x in pair
    ]
    max_im = max((abs(z.imag) for z in zs), default=0.0)
    if not _theta_tail_ok(tau, max_im, cfg.theta_truncation, cfg.tol):
        raise ValueError(
            "theta truncation too small for the requested tolerance at this tau"
        )

    def log_theta(z: complex) -> complex:
        val = theta(z, tau, cfg.theta_truncation)
        if abs(val) <= cfg.tol:
            raise ValueError("theta vanishes at a required point")
        return cmath.log(val)

    rows = []
    raw_balanced = 0
    mod_balanced = 0
    for i in range(m - 1):
        pi, pnext = cfg.punctures[i], cfg.punctures[i + 1]
        imag_parts = []
        for p, q in cfg.pairs:
            c = (log_theta(q - pi - shift) - log_theta(q - pnext - shift)) - (
                log_theta(p - pi - shift) - log_theta(p - pnext - shift)
            )
            imag_parts.append(c.imag)
        _check_finite(imag_parts, "a theta-log imaginary part", i)
        reduced = [math.remainder(v, _TWO_PI) for v in imag_parts]
        if all(abs(v) <= cfg.tol for v in imag_parts):
            raw_balanced += 1
        if all(abs(v) <= cfg.tol for v in reduced):
            mod_balanced += 1
        rows.append(
            {"i": i, "imag_parts": imag_parts, "imag_parts_mod_2pi": reduced}
        )
    return {
        "alpha": (m - 1) - raw_balanced,
        "alpha_mod_2pi": (m - 1) - mod_balanced,
        "rows": rows,
    }


def curve_report(cfg: CurveConfig) -> dict:
    if cfg.genus == 0:
        return genus0_report(cfg)
    if cfg.genus == 1:
        return genus1_report(cfg)
    raise ValueError("genus must be 0 or 1")


# Each theta value sums 2 N + 1 terms for theta_truncation N, so the cost
# of a genus-1 document grows linearly with it.
MAX_THETA_TRUNCATION = 1000
# A report costs time growing with rows times pairs, and the genus-1 point
# checks with the square of the number of points, so a document may list
# at most this many points: its punctures plus two per pair.
MAX_CURVE_POINTS = 64


def _point_from_json(obj, name: str = "point"):
    if obj == "inf":
        return INF
    pair = array_from_json(obj, "malformed %s %r", name, obj, length=2)
    return complex(*(finite_from_json(v, f"{name} coordinate") for v in pair))


def config_from_json(data: dict) -> CurveConfig:
    object_from_json(data, "curve config")
    # True == 1 and 0.0 == 0, but neither is a genus
    genus = int_from_json(data.get("genus"), "genus must be 0 or 1", low=0)
    if genus > 1:
        raise ValueError("genus must be 0 or 1")
    raw_punctures = array_from_json(
        data.get("punctures", []), "punctures must be an array"
    )
    raw_pairs = array_from_json(data.get("pairs", []), "pairs must be an array")
    points = len(raw_punctures) + 2 * len(raw_pairs)
    if points > MAX_CURVE_POINTS:
        raise ValueError(
            f"curve point count {points} (punctures plus two per pair) "
            f"exceeds the limit of {MAX_CURVE_POINTS}"
        )
    punctures = tuple(_point_from_json(p) for p in raw_punctures)
    pairs = []
    for pair in raw_pairs:
        a, b = array_from_json(pair, "malformed pair %r", pair, length=2)
        pairs.append((_point_from_json(a), _point_from_json(b)))
    tau = data.get("tau")
    # tau is a finite [re, im] pair: "inf" names a point, not a period
    if tau == "inf":
        raise ValueError("tau must be a finite [re, im] pair, got 'inf'")
    if tau is not None:
        tau = _point_from_json(tau, "tau")
    tol = finite_from_json(data.get("tol", CurveConfig.tol), "tol")
    if not tol > 0:
        raise ValueError("tol must be a positive number")
    message = "theta_truncation must be a positive integer"
    trunc = int_from_json(
        data.get("theta_truncation", CurveConfig.theta_truncation), message, low=1
    )
    if trunc > MAX_THETA_TRUNCATION:
        raise ValueError(
            f"theta_truncation {trunc} exceeds the limit of {MAX_THETA_TRUNCATION}"
        )
    return CurveConfig(
        genus=genus,
        punctures=punctures,
        pairs=tuple(pairs),
        tau=tau,
        tol=tol,
        theta_truncation=trunc,
    )
