"""Benchmark of the mixedhodge package: one workload per run.

    python3 bench/run.py --workload mhs_suite --seed 1 --seconds 25 --trace 0

Run from the repository root (the package is imported from ``src/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"stamp": ...}`` record naming the Python version, CPU count, git
sha, source digest, seed and item count of the run.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same items twice, untraced and traced, in alternating order, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/``.  Times are given at a reference machine speed (see "host
speed" below).  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "mixedhodge"
DEFAULT_SEED = 1  # seed 7919 is held out, see README.md
QUANTILE_WINDOW = 0.05


class Package:
    """Freshly imported ``mixedhodge`` modules.

    Every instance drops the package from ``sys.modules`` and imports it
    again, so module-level caches start empty and the import cost is paid
    each time.
    """

    NAMES = ("exactfield", "linalg", "filtration", "multifilt", "invariants",
             "mhs", "sampling", "curves", "families", "cli")

    def __init__(self) -> None:
        for name in [n for n in sys.modules
                     if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))
        self._loaded = {n: m for n, m in sys.modules.items()
                        if n == PACKAGE or n.startswith(PACKAGE + ".")}
        self._hits = 0
        self._misses = 0

    def activate(self) -> None:
        """Point ``sys.modules`` at these modules again, for the imports
        the package makes at call time (``selftest`` imports ``sampling``)
        while another instance is alive."""
        sys.modules.update(self._loaded)

    def modules(self):
        return [getattr(self, n) for n in self.NAMES]

    def caches(self):
        seen = {}
        for mod in self.modules():
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    seen[id(obj)] = obj
        return list(seen.values())

    def _trigraded(self):
        return getattr(self.multifilt, "_trigraded_items", None)

    def clear_caches(self) -> None:
        """Empty every lru cache of the package, keeping the trigraded
        cache's hit and miss counts."""
        cache = self._trigraded()
        if cache is not None:
            info = cache.cache_info()
            self._hits += info.hits
            self._misses += info.misses
        for c in self.caches():
            c.cache_clear()

    def trigraded_stats(self) -> tuple[int, int]:
        cache = self._trigraded()
        if cache is None:
            return self._hits, self._misses
        info = cache.cache_info()
        return self._hits + info.hits, self._misses + info.misses


# -- host speed ------------------------------------------------------------
#
# The shared machines this runs on change speed by up to a factor of two
# within a minute, and process CPU time moves with wall time, so neither is
# steady on its own.  Every time metric is therefore given at a reference
# speed: a measured time is multiplied by CAL_REF_S over the current time of
# a fixed stdlib task (exact row reduction over Fraction, the kind of work
# the package does), which runs between the timed items, outside the clock.

CAL_REF_S = 0.003  # the calibration task's time on the reference machine
CAL_EVERY_S = 0.05  # timed item wall time between calibrations


def _calibration_matrices():
    rng = random.Random(0)
    return [[[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
             for _ in range(6)] for _ in range(4)]


CAL_MATRICES = _calibration_matrices()


def _row_reduce(rows) -> int:
    m = [row[:] for row in rows]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def calibrate() -> float:
    """Wall time of the fixed calibration task.  The garbage collector is
    off while it runs, so the size of the heap does not show in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for rows in CAL_MATRICES:
            _row_reduce(rows)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factors(cal: list[float]) -> list[float]:
    """For the items run after calibration ``j`` (and before ``j + 1``):
    CAL_REF_S over the mean time of the two calibrations before them and
    the two after."""
    return [CAL_REF_S / statistics.fmean(cal[max(0, j - 1):j + 3])
            for j in range(len(cal))]


class Phase:
    """Outcome of one timed loop over a workload's items."""

    def __init__(self) -> None:
        # per item: [round, wall, cpu, ok, calibration index]
        self.rows: list[list] = []
        self.cal: list[float] = []
        self._cal_at = -math.inf
        self.fingerprints: list = []
        self.problems: list[str] = []
        self.wall = 0.0
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.rss_mb: float | None = None

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def calibrate_if_due(self) -> None:
        if self.wall - self._cal_at >= CAL_EVERY_S:
            self.cal.append(calibrate())
            self._cal_at = self.wall

    def record(self, rnd: int, dt: float, dc: float) -> None:
        self.wall += dt
        self.attempted += 1
        self.rows.append([rnd, dt, dc, True, len(self.cal) - 1])

    def fail_last(self) -> None:
        self.rows[-1][3] = False

    def scaled(self) -> list[tuple[int, float, float, bool]]:
        """(round, wall, cpu, ok) per item, at the reference speed."""
        f = speed_factors(self.cal) or [1.0]
        return [(rnd, dt * f[j], dc * f[j], ok) for rnd, dt, dc, ok, j in self.rows]

    def _complete_rounds(self, rows) -> list[list]:
        # the loop stops on time, so the last round is usually cut short
        rounds: dict[int, list] = {}
        for row in rows:
            rounds.setdefault(row[0], []).append(row)
        out = list(rounds.values())
        return out[:-1] if len(out) > 1 else out

    def summary(self, scaled: bool = True) -> dict[str, float]:
        """Rates and latencies over the complete rounds, so that every run
        weighs the kinds of item in a workload alike."""
        rows = self.scaled() if scaled else [r[:4] for r in self.rows]
        done = [row for rnd in self._complete_rounds(rows) for row in rnd]
        # a failed item misses every latency limit: it counts as at least as
        # slow as the slowest item that did not fail
        worst = max((dt for _, dt, _, good in done if good), default=0.0)
        latencies = [dt if good else max(dt, worst) for _, dt, _, good in done]
        return {
            "items_per_s": len(done) / sum(row[1] for row in done),
            "cpu_ms_per_item": sum(row[2] for row in done) / len(done) * 1e3,
            "item_ms_p50": smoothed_quantile(latencies, 0.5) * 1e3,
            "item_ms_p90": smoothed_quantile(latencies, 0.9) * 1e3,
        }


def smoothed_quantile(values: list[float], q: float) -> float:
    """The mean of the values ranked within QUANTILE_WINDOW of ``q``.  The
    item mixes leave gaps between cost clusters, and a plain quantile that
    falls on a gap jumps across it from run to run."""
    ordered = sorted(values)
    last = len(ordered) - 1
    lo = math.floor(max(0.0, q - QUANTILE_WINDOW) * last)
    hi = math.ceil(min(1.0, q + QUANTILE_WINDOW) * last)
    return statistics.fmean(ordered[lo:hi + 1])


def measure(wl, items, seconds: float, max_items: int | None = None,
            tracer: Tracer | None = None) -> Phase:
    """Closed loop, one item at a time, until ``seconds`` of item wall time
    or ``max_items`` items; ``items`` is an iterator, and items it did not
    reach stay in it.  Only ``wl.run`` is timed; ``wl.before`` (cache
    clearing, clean-up), ``wl.check`` and the calibrations run outside the
    clock.  The peak memory is read once
    ``wl.rss_rounds`` rounds are complete, so that it does not depend on
    how many items a machine's speed lets into the run."""
    ph = Phase()
    rounds = []
    wl.pkg.activate()
    # set-up garbage goes now, and set-up objects stay out of the
    # collections that run inside timed items
    gc.collect()
    gc.freeze()
    try:
        while ph.wall < seconds and (max_items is None or ph.attempted < max_items):
            try:
                rnd, item = next(items)
            except StopIteration:
                break
            if not rounds or rounds[-1] != rnd:
                rounds.append(rnd)
                if len(rounds) == wl.rss_rounds + 1:
                    ph.rss_mb = peak_rss_mb()
            ph.calibrate_if_due()
            wl.before(item)
            if tracer is not None:
                tracer.item = tracer.items_seen
                tracer.items_seen += 1
            dt, dc, out, exc = _timed(wl, item)
            ph.record(rnd, dt, dc)
            if exc is None:
                try:
                    problem = wl.check(item, out)
                    fingerprint = wl.fingerprint(out)
                except Exception as e:  # an output the oracle cannot read is wrong
                    problem = f"check raised {type(e).__name__}: {e}"
                    fingerprint = f"unreadable {type(e).__name__}"
                ph.fingerprints.append(fingerprint)
                ph.wrong += problem is not None
            else:
                problem = f"raised {type(exc).__name__}: {exc}"
                ph.fingerprints.append(f"raised {type(exc).__name__}")
                wl.raised(item, exc)
                ph.raised += 1
            if problem is not None:
                ph.problems.append(f"item {ph.attempted - 1}: {problem}")
                ph.fail_last()
        ph.cal.append(calibrate())
        if ph.rss_mb is None:
            ph.rss_mb = peak_rss_mb()
    finally:
        gc.unfreeze()
    return ph


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(wl, item):
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out, exc = wl.run(item), None
    except Exception as e:  # an item that raises is a failed item
        out, exc = None, e
    dt = time.perf_counter() - t0
    return dt, time.process_time() - c0, out, exc


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup(cls, seed: int, workdir: str, pause=None):
    pkg = Package()
    return cls(pkg, seed, workdir, pause)


class Pauses:
    """The ``pause`` a workload calls between the steps of a long set-up:
    it calibrates when CAL_EVERY_S has passed since the last calibration,
    and keeps the time it took, which is not set-up time."""

    def __init__(self) -> None:
        self.cal: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def __call__(self) -> None:
        t0 = time.perf_counter()
        if t0 - self._last >= CAL_EVERY_S:
            self.cal.append(calibrate())
            self._last = time.perf_counter()
            self.spent += self._last - t0


def timed_setups(cls, seed: int, tmp: str) -> tuple[object, list[float], list[float]]:
    """Set up ``cls.setup_repeats`` times, each in its own directory.
    Returns the last workload and the set-up times, raw and at the
    reference speed (by the median of the calibrations just before, during
    and just after each)."""
    raw, scaled = [], []
    for k in range(cls.setup_repeats):
        workdir = os.path.join(tmp, f"setup{k}")
        os.mkdir(workdir)
        gc.collect()
        cal = [calibrate() for _ in range(3)]
        pauses = Pauses()
        t0 = time.perf_counter()
        wl = setup(cls, seed, workdir, pauses)
        dt = time.perf_counter() - t0 - pauses.spent
        cal += pauses.cal + [calibrate() for _ in range(3)]
        raw.append(dt)
        scaled.append(dt * CAL_REF_S / statistics.median(cal))
    return wl, raw, scaled


def run_untraced(cls, args, tmp: str, max_items: int | None = None) -> tuple[dict, dict]:
    wl, raw_setups, setups = timed_setups(cls, args.seed, tmp)
    ph = measure(wl, wl.items(), args.seconds, max_items)
    defects = wl.known_defects()
    digest_problem = wl.digest_error()
    ok = ph.attempted - ph.failed
    s = ph.summary()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (s["items_per_s"] * ok / ph.attempted, "1/s"),
        "cpu_ms_per_item": (s["cpu_ms_per_item"], "ms"),
        "item_ms_p50": (s["item_ms_p50"], "ms"),
        "item_ms_p90": (s["item_ms_p90"], "ms"),
        "ok_frac": (ok / ph.attempted, "frac"),
        "peak_rss_mb": (ph.rss_mb, "MB"),
    }
    problems = ph.problems + ([digest_problem] if digest_problem else [])
    result = {
        "correct": ph.wrong == 0 and digest_problem is None,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": metrics,
    }
    raw = ph.summary(scaled=False)
    raw["setup_s"] = statistics.median(raw_setups)
    info = {"setup_runs_s": raw_setups, "timed_s": ph.wall, "problems": problems,
            "digest": wl.digest(), "raw_metrics": raw,
            "calibration_ms": _calibration_info(ph.cal), "known_defects": defects,
            **wl.notes()}
    return result, info


def _calibration_info(cal: list[float]) -> dict:
    ms = sorted(c * 1e3 for c in cal)
    return {"count": len(ms), "min": ms[0], "median": statistics.median(ms),
            "max": ms[-1], "reference": CAL_REF_S * 1e3}


def run_traced(cls, args, tmp: str, max_items: int | None = None) -> tuple[dict, dict]:
    """Untraced and traced runs of the same items, each on its own set-up,
    in the order untraced, traced on a first stretch of items, then traced,
    untraced on the next stretch, so that neither side always runs first."""
    os.mkdir(os.path.join(tmp, "plain"))
    os.mkdir(os.path.join(tmp, "traced"))
    plain_wl = setup(cls, args.seed, os.path.join(tmp, "plain"))
    wl = setup(cls, args.seed, os.path.join(tmp, "traced"))
    plain_items, traced_items = plain_wl.items(), wl.items()
    half = None if max_items is None else (max_items + 1) // 2
    tracer = Tracer()
    tracer.install(wl.pkg)
    try:
        a = measure(plain_wl, plain_items, args.seconds / 4, half)
        b = measure(wl, traced_items, math.inf, a.attempted, tracer)
        rest = None if max_items is None else max_items - a.attempted
        c = measure(wl, traced_items, args.seconds / 4, rest, tracer)
    finally:
        tracer.uninstall()
    d = measure(plain_wl, plain_items, math.inf, c.attempted)
    phases = (a, b, c, d)
    n = a.attempted + c.attempted

    def scaled_wall(ph: Phase) -> float:
        return sum(row[1] for row in ph.scaled())

    hits, misses = wl.pkg.trigraded_stats()
    factor = statistics.median(speed_factors(b.cal) + speed_factors(c.cal))
    metrics = tracer.layer_metrics(hits, misses, factor)
    untraced = scaled_wall(a) + scaled_wall(d)
    traced = scaled_wall(b) + scaled_wall(c)
    metrics["trace.items_per_s"] = (n / traced, "1/s")
    metrics["trace.untraced_items_per_s"] = (n / untraced, "1/s")
    ratios = [scaled_wall(b) / scaled_wall(a)]
    if c.attempted:
        ratios.append(scaled_wall(c) / scaled_wall(d))
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")

    problems = [p for ph in phases for p in ph.problems]
    problems += [p for p in (plain_wl.digest_error(), wl.digest_error()) if p]
    same = a.fingerprints + d.fingerprints == b.fingerprints + c.fingerprints
    if not same:
        problems.append("traced and untraced outputs differ")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}.json.gz"
    tracer.write_spans(spans)
    result = {
        "correct": (all(ph.wrong == 0 for ph in phases) and same
                    and not plain_wl.digest_error() and not wl.digest_error()),
        "attempted": n,
        "failed": b.failed + c.failed,
        "metrics": metrics,
    }
    info = {"timed_s": b.wall + c.wall, "untraced_timed_s": a.wall + d.wall,
            "overhead_ratios": ratios, "speed_factor": factor,
            "problems": problems, "spans": str(spans.relative_to(ROOT)),
            "span_count": len(tracer.span_id),
            "digest": wl.digest(), "untraced_digest": plain_wl.digest()}
    return result, info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"bench: no {PACKAGE} package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        runner = run_traced if args.trace else run_untraced
        result, info = runner(cls, args, tmp)
    for problem in info["problems"][:10]:
        sys.stderr.write(f"bench: {problem}\n")
    for name, outcome in info.get("known_defects", {}).items():
        sys.stderr.write(f"bench: known defect probe, {name}: {outcome}\n")
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": result["attempted"],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        **{k: v for k, v in info.items() if k != "problems"},
        "problem_count": len(info["problems"]),
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
