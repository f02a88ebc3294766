"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

BENCH = Path(__file__).resolve().parent


@pytest.fixture
def small_corpus(monkeypatch):
    # one structure per dimension instead of ten
    monkeypatch.setattr(workloads, "MHS_ROUNDS", 1)


def args_for(workload: str, seed: int = 3):
    return run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "600"])


def corpus(path: Path, seed: int = 3):
    path.mkdir()
    return run.setup(workloads.CliDocs, seed, str(path))


@pytest.mark.parametrize("workload,items", [("mhs_suite", 8), ("lambda_grid", 6)])
def test_workload_passes_its_oracles(workload, items, tmp_path):
    result, info = run.run_untraced(workloads.WORKLOADS[workload],
                                    args_for(workload), str(tmp_path), items)
    assert result["correct"], info["problems"]
    assert result["attempted"] == items
    assert result["failed"] == 0, info["problems"]
    metrics = result["metrics"]
    assert metrics["items_per_s"][0] > 0
    assert metrics["item_ms_p50"][0] <= metrics["item_ms_p90"][0]


def test_cli_docs_passes_its_oracles(small_corpus, tmp_path):
    n = len(corpus(tmp_path / "probe").docs)
    result, info = run.run_untraced(workloads.CliDocs, args_for("cli_docs"),
                                    str(tmp_path), 2 * n)
    assert result["correct"], info["problems"]
    assert result["failed"] == 0, info["problems"]
    assert info["digest"] is not None
    # the known-defect documents run once, outside the timed items
    defects = info["known_defects"]
    assert len(defects) == 6
    assert all(o.startswith(("raised ", "exit ")) for o in defects.values())


def test_timed_corpus_and_defect_probe_differ_only_in_the_wrong_type(small_corpus, tmp_path):
    wl = corpus(tmp_path / "c")

    def wrong_value(path):
        try:
            d = json.loads(Path(path).read_text())
        except ValueError:  # a truncated document
            return None
        if "W" in d:
            return d["W"]["levels"][0]["vectors"]
        return d.get("pairs", d.get("edges"))

    # the timed wrong-type documents put a string where an array belongs
    malformed = [wrong_value(d["argv"][2]) for d in wl.docs if d["expect"] == 2]
    assert malformed.count("5") == 6
    assert [d["argv"][0] for d in wl.defect_docs] == [
        "invariants", "check-mhs", "deligne-split", "alpha", "curve-alpha", "stratify"]
    assert [wrong_value(d["argv"][2]) for d in wl.defect_docs] == [5] * 6


def test_corpus_covers_every_class(small_corpus, tmp_path):
    wl = corpus(tmp_path / "c")
    commands = {d["argv"][0] for d in wl.docs}
    assert commands == {"invariants", "check-mhs", "deligne-split", "alpha",
                        "curve-alpha", "stratify", "selftest"}
    assert {d["expect"] for d in wl.docs} == {0, 1, 2}
    malformed = [d for d in wl.docs if d["expect"] == 2]
    assert len(malformed) == 6 * len(workloads.MUTATIONS)


def test_inputs_depend_only_on_the_seed(small_corpus, tmp_path):
    a = corpus(tmp_path / "a", seed=5)
    b = corpus(tmp_path / "b", seed=5)
    texts = [Path(d["argv"][2]).read_text() for d in a.docs if "--in" in d["argv"]]
    again = [Path(d["argv"][2]).read_text() for d in b.docs if "--in" in d["argv"]]
    assert texts == again
    first = list(zip(range(16), run.setup(workloads.MhsSuite, 5, "").items()))
    assert first == list(zip(range(16), run.setup(workloads.MhsSuite, 5, "").items()))
    dims = sorted(dim for _, (_rnd, (dim, _key)) in first)
    assert dims == sorted(list(range(1, 9)) * 2)


def test_traced_run_matches_untraced_cli(small_corpus, tmp_path):
    n = len(corpus(tmp_path / "probe").docs)
    result, info = run.run_traced(workloads.CliDocs, args_for("cli_docs"),
                                  str(tmp_path), n)
    assert result["correct"], info["problems"]
    assert info["digest"] is not None
    assert info["digest"] == info["untraced_digest"]
    m = result["metrics"]
    assert m["cli.main.calls"][0] == n
    assert m["cli.exit_0"][0] + m["cli.exit_1"][0] + m["cli.exit_2"][0] \
        + m["cli.raised"][0] == n
    assert m["curves.theta.calls"][0] > 0


def test_traced_run_matches_untraced_mhs(tmp_path):
    result, info = run.run_traced(workloads.MhsSuite, args_for("mhs_suite"),
                                  str(tmp_path), 8)
    # the fingerprints compared inside run_traced carry every alpha
    assert result["correct"], info["problems"]
    m = result["metrics"]
    for name in ("linalg.rref", "linalg.span", "linalg.intersect", "linalg.kernel",
                 "linalg.subspace_sum", "linalg.reduce_mod", "linalg.Subspace.le",
                 "filtration.filtered_space", "filtration.FilteredSpace.post_init",
                 "filtration.induced_on_sub", "filtration.induced_on_quotient",
                 "multifilt.f_table", "multifilt.pair_bigraded",
                 "multifilt.trigraded_dims", "multifilt.induced_on_subquotient",
                 "invariants.alpha", "invariants.alpha_via_f_expansion",
                 "mhs.validate", "mhs.deligne_splitting", "mhs.is_r_split",
                 "sampling.random_mhs"):
        assert m[f"{name}.calls"][0] > 0, name
    assert m["cli.main.calls"][0] == 0
    assert m["linalg.rref.self_ms"][0] <= m["linalg.rref.total_ms"][0] + 1e-9
    assert 0 < m["sampling.accept_ratio"][0] <= 1
    # proposals are counted inside random_mhs only, not in the key replay
    # (which tries several keys per draw)
    assert m["sampling.random_mhs.calls"][0] == 8
    assert m["sampling.proposals"][0] >= 8
    assert m["sampling.accept_ratio"][0] > 0.5
    assert m["exactfield.max_coeff_bits"][0] > 0


def test_tracing_leaves_nothing_rebound():
    pkg = run.Package()

    def snapshot():
        state = {}
        for mod in pkg.modules():
            state[mod.__name__] = dict(vars(mod))
        for mod_name, cls_name, meth, _ in tracer.TRACED_METHODS:
            cls = getattr(getattr(pkg, mod_name), cls_name)
            state[f"{mod_name}.{cls_name}"] = dict(vars(cls))
        return state

    before = snapshot()
    t = tracer.Tracer()
    t.install(pkg)
    assert pkg.linalg.rref is not before["mixedhodge.linalg"]["rref"]
    assert pkg.filtration.span is pkg.linalg.span  # rebound in both places
    t.uninstall()
    after = snapshot()
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        for name, value in before[key].items():
            assert after[key][name] is value, f"{key}.{name}"


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    t = tracer.Tracer()
    assert [m["name"] for m in spec["per_layer"]] == \
        list(t.layer_metrics(0, 0)) + ["trace.items_per_s",
                                       "trace.untraced_items_per_s",
                                       "trace.overhead_ratio"]
    result, _ = run.run_untraced(workloads.LambdaGrid, args_for("lambda_grid"),
                                 str(tmp_path), 1)
    assert [m["name"] for m in spec["end_to_end"]] == list(result["metrics"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mhs_suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_quantiles_smooth_and_rank_failed_items_slowest():
    ph = run.Phase()
    for k in range(100):
        ph.record(k // 10, (k + 1) / 1000, 0.0)
    # no calibration: times are taken as measured
    s = ph.summary()
    # the last round (items 90..99) counts as cut short; of the other 90,
    # those ranked 40..49 take 41..50 ms
    assert s["item_ms_p50"] == pytest.approx(45.5)
    assert s["items_per_s"] == pytest.approx(90 / sum((k + 1) / 1000 for k in range(90)))
    for row in ph.rows[40:50]:
        row[3] = False
    # the 10 failed items of 41..50 ms now count as 90 ms, the slowest item
    # that did not fail, whatever the length of the run
    lat = [k / 1000 for k in list(range(1, 41)) + list(range(51, 91))] + [0.090] * 10
    assert ph.summary()["item_ms_p90"] == pytest.approx(run.smoothed_quantile(lat, 0.9) * 1e3)
    assert ph.summary()["item_ms_p50"] == pytest.approx(run.smoothed_quantile(lat, 0.5) * 1e3)
    assert ph.summary()["item_ms_p90"] <= 90


def test_times_scale_to_the_reference_speed():
    ph = run.Phase()
    ph.cal = [2 * run.CAL_REF_S] * 5  # a machine at half the reference speed
    for k in range(20):
        ph.record(k // 10, 0.010, 0.008)
    s = ph.summary()
    assert s["item_ms_p50"] == pytest.approx(5.0)
    assert s["cpu_ms_per_item"] == pytest.approx(4.0)
    assert ph.summary(scaled=False)["item_ms_p50"] == pytest.approx(10.0)
    # items after calibration j are scaled by calibrations j-1 .. j+2
    assert run.speed_factors([1.0, 3.0, 1.0, 3.0]) == pytest.approx(
        [run.CAL_REF_S / x for x in (5 / 3, 2.0, 7 / 3, 2.0)])
    assert 0 < run.calibrate() < 1


class _BadShape(workloads.LambdaGrid):
    """lambda_grid whose output lacks the keys its oracle reads."""

    def run(self, item):
        return {"npoints": 0}


def test_an_output_the_oracle_cannot_read_is_wrong(tmp_path):
    result, info = run.run_untraced(_BadShape, args_for("lambda_grid"),
                                    str(tmp_path), 3)
    assert not result["correct"]
    assert result["failed"] == 3
    assert all("check raised KeyError" in p or "points on a" in p
               for p in info["problems"]), info["problems"]
