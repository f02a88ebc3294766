"""End-to-end acceptance run: eleven numbered criteria, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as
they land; a failing criterion prints its FAIL line before the traceback.
Criteria with a stated wall-clock budget assert it.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import assert_mobius_invariant, one_dim_triple
from mixedhodge.curves import INF, CurveConfig, genus0_alpha, theta
from mixedhodge.exactfield import I, gauss
from mixedhodge.families import (
    alpha_map,
    hypothesis_H_audit,
    lambda_conjugate_grid,
    semicontinuity_report,
    two_flag_fiber,
)
from mixedhodge.invariants import alpha, alpha_via_f_expansion, chern_data
from mixedhodge.linalg import (
    conj_subspace,
    intersect,
    kernel,
    subspace_sum,
    zero_subspace,
)
from mixedhodge.mhs import (
    deligne_splitting,
    direct_sum_mhs,
    dual_mhs,
    is_r_split,
    tate_twist,
    tensor_mhs,
)
from mixedhodge.multifilt import (
    bigraded_dims,
    f_table,
    hodge_numbers,
    simultaneous_splitting,
)
from mixedhodge.sampling import (
    random_compatible_morphism,
    random_extension,
    random_mhs,
)


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"FAIL criterion {number:2d}: {label} ({elapsed:.2f}s over budget)")
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s"
        )
    print(f"PASS criterion {number:2d}: {label} ({elapsed:.2f}s)")


def test_c01_rank_two_extension_c2_grid():
    with criterion(1, "c2 over the rank-2 grid {0, 1, i, 1+i}^2", budget=1.0):
        values = (gauss(0), gauss(1), I, gauss(1, 1))
        for lam in values:
            for kap in values:
                c2 = chern_data(two_flag_fiber(lam, kap)).c2
                assert c2 == (0 if lam == kap else 1)
                assert isinstance(c2, Fraction) and c2.denominator == 1


def test_c02_chern_formula_matches_rank_one_closed_form():
    with criterion(2, "ch2 closed form on rank 1 over [-4, 4]^3", budget=5.0):
        for r in range(-4, 5):
            for p in range(-4, 5):
                for q in range(-4, 5):
                    t = one_dim_triple(r, p, q)
                    assert chern_data(t).ch2 == Fraction((r + p + q) ** 2, 2)


def test_c03_mhs_property_suite():
    with criterion(
        3, "property suite on 300 random structures of dim <= 8", budget=60.0
    ):
        rng = random.Random(1030)
        for _ in range(300):
            m = random_mhs(rng, max_dim=8)
            t = m.triple()
            n = m.ambient_dim
            h = hodge_numbers(t)
            s = bigraded_dims(t)
            a = alpha(t)

            # zeroth and first moments of h - s vanish, defect is nonnegative
            assert sum(h.values()) == sum(s.values())
            assert sum((p + q) * d for (p, q), d in h.items()) == sum(
                (p + q) * d for (p, q), d in s.items()
            )
            assert a >= 0

            # s is realized by an explicit bigrading of (F, G)
            split = simultaneous_splitting(t.F, t.G)
            assert {pq: v.dim for pq, v in split.items()} == s

            pieces = deligne_splitting(m)

            # piece dimensions realize the Hodge numbers
            assert {pq: v.dim for pq, v in pieces.items()} == h

            degrees = [p + q for p, q in h]
            first = [p for p, _ in h]

            # weight levels are exact direct sums of pieces
            for mm in range(min(degrees) - 1, max(degrees) + 2):
                acc = zero_subspace(n)
                for (p, q), v in pieces.items():
                    if p + q <= mm:
                        acc = subspace_sum(acc, v)
                assert acc == m.weight_at(mm)

            # Hodge levels are exact direct sums of pieces
            for pp in range(min(first) - 1, max(first) + 2):
                acc = zero_subspace(n)
                for (p, _), v in pieces.items():
                    if p >= pp:
                        acc = subspace_sum(acc, v)
                assert acc == m.F.at(pp)

            # conjugation symmetry holds modulo two weights down
            for (p, q), v in pieces.items():
                target = subspace_sum(
                    pieces.get((q, p), zero_subspace(n)),
                    m.weight_at(p + q - 2),
                )
                assert conj_subspace(v) <= target

            # the defect vanishes exactly on the R-split locus, with the
            # splitting-based predicate as the independent oracle
            assert (a == 0) == is_r_split(m)


def test_c04_algebraic_laws_on_random_pairs():
    with criterion(4, "twist, dual, sum and tensor laws on 100 pairs"):
        rng = random.Random(1040)
        for _ in range(100):
            a = random_mhs(rng, max_dim=3)
            b = random_mhs(rng, max_dim=3)
            va, vb = alpha(a.triple()), alpha(b.triple())
            k = rng.randint(-2, 2)
            assert alpha(tate_twist(a, k).triple()) == va
            assert alpha(dual_mhs(a).triple()) == va
            assert alpha(direct_sum_mhs(a, b).triple()) == va + vb
            assert (
                alpha(tensor_mhs(a, b).triple())
                == b.ambient_dim * va + a.ambient_dim * vb
            )


def test_c05_extension_super_additivity():
    with criterion(5, "extension super-additivity on 100 assembled totals"):
        rng = random.Random(1050)
        for _ in range(100):
            a, b, _, total = random_extension(rng)
            ta, tb, th = a.triple(), b.triple(), total.triple()
            assert alpha(th) >= alpha(ta) + alpha(tb)
            # the intersection table of the total is bounded by the sum
            fa, fb, fh = f_table(ta), f_table(tb), f_table(th)
            for p, q in fh:
                upper = intersect(ta.F.at(p), ta.G.at(q)).dim + intersect(
                    tb.F.at(p), tb.G.at(q)
                ).dim
                assert fh[(p, q)] <= upper
            assert fa and fb  # the bound above saw real tables


def test_c06_alpha_expansion_rederivation():
    with criterion(6, "f-expansion route equals direct defect on 500 draws"):
        rng = random.Random(1060)
        for _ in range(500):
            t = random_mhs(rng, max_dim=6).triple()
            assert alpha_via_f_expansion(t) == alpha(t)


def test_c07_four_point_curve_boundary():
    with criterion(7, "four-point defect on and off the critical line", budget=1.0):
        def defect(q: complex) -> int:
            cfg = CurveConfig(0, (0j, 1 + 0j), ((INF, q),))
            return genus0_alpha(cfg)

        for q in (0.5 + 0j, 0.5 + 0.7j, 0.5 - 3j):
            assert defect(q) == 0
        for q in (2 + 0j, 1j, 0.4 + 0j):
            assert defect(q) == 1


def test_c08_genus0_mobius_invariance():
    with criterion(8, "Mobius invariance on 50 random configurations"):
        assert_mobius_invariant(random.Random(1080), 50)


def test_c09_theta_identities():
    with criterion(9, "theta periodicity and quasi-periodicity at 1e-10"):
        rng = random.Random(1090)
        for tau in (1j, 2j, 0.5 + 1j):
            for _ in range(20):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                t = theta(z, tau)
                scale = max(1.0, abs(t))
                assert abs(theta(z + 1, tau) - t) < 1e-10 * scale
                factor = cmath.exp(1j * math.pi * tau + 2j * math.pi * z)
                assert abs(theta(z + tau, tau) * factor - t) < 1e-10 * scale


def test_c10_lambda_plane_stratification():
    with criterion(10, "lambda-plane strata, audit locus, no suspects", budget=10.0):
        fam = lambda_conjugate_grid()
        report = alpha_map(fam)
        axis = {
            i
            for i, p in enumerate(fam.parameters)
            if dict(p.coords)["lambda_im"] == 0.0
        }
        assert len(fam.parameters) == 121 and len(axis) == 11
        strata = {a: set(pts) for a, pts in report.strata}
        assert strata == {
            Fraction(0): axis,
            Fraction(1): set(range(121)) - axis,
        }
        audit = hypothesis_H_audit(fam, report)
        assert not audit.holds
        deviating = {i for _, off in audit.deviations for i in off}
        assert deviating == axis
        sem = semicontinuity_report(fam, report)
        assert sem.suspects == ()


def test_c11_compatible_morphisms_are_strict():
    # a compatible map between two independent draws is almost always 0;
    # a ⊕ b -> a ⊕ c has the compatible endomorphisms of a in it, so the
    # random map is nonzero, and b, with any part of a it kills, makes a
    # proper kernel (at seed 1110: 98 nonzero maps, 91 proper kernels)
    with criterion(11, "100 generated compatible morphisms are strict"):
        rng = random.Random(1110)
        nonzero = proper = 0
        for _ in range(100):
            a = random_mhs(rng, max_dim=3)
            src = direct_sum_mhs(a, random_mhs(rng, max_dim=2))
            dst = direct_sum_mhs(a, random_mhs(rng, max_dim=2))
            mor = random_compatible_morphism(rng, src, dst)
            assert mor.compatible()
            assert mor.is_strict()
            if any(mor.matrix.entries):
                nonzero += 1
                proper += 0 < kernel(mor.matrix).dim < src.ambient_dim
        assert nonzero >= 90 and proper >= 80
