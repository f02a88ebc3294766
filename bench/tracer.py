"""Outside-in tracing of the mixedhodge layers.

``Tracer.install`` rebinds every listed public function in each
``mixedhodge`` module namespace that holds it (so calls from inside the
package are seen too, not only calls from the benchmark), plus the two
class methods ``Subspace.__le__`` and ``FilteredSpace.__post_init__``.
``Tracer.uninstall`` puts every original back.

Each wrapped call records a span (id, parent span, function, start, end,
benchmark item) in flat in-memory arrays; ``write_spans`` dumps them once
at the end.  Per function it keeps the call count, the total time of its
outermost calls and its self time: elapsed time minus the time of the
wrapped calls it made.  A few counters ride on the same wrappers: rref
shapes and coefficient sizes, sampler proposals and acceptances, and CLI
exit codes.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

# module -> public functions whose calls get a span
TRACED: dict[str, tuple[str, ...]] = {
    "linalg": ("rref", "span", "intersect", "subspace_sum", "kernel",
               "reduce_mod", "image"),
    "filtration": ("filtered_space", "induced_on_sub", "induced_on_quotient",
                   "from_json"),
    "multifilt": ("f_table", "pair_bigraded", "trigraded_dims",
                  "induced_on_subquotient", "triple_from_json"),
    "invariants": ("alpha", "alpha_via_f_expansion", "chern_data",
                   "invariants_report"),
    "mhs": ("validate", "deligne_splitting", "is_r_split"),
    "sampling": ("random_mhs", "structure_from_diamond",
                 "adapted_structure_from_diamond"),
    "curves": ("genus0_report", "genus1_report", "theta"),
    "families": ("alpha_map", "hypothesis_H_audit", "semicontinuity_report",
                 "family_from_json", "lambda_conjugate_grid",
                 "lambda_kappa_grid"),
    "cli": ("main",),
}

# (module, class, method, metric stem)
TRACED_METHODS = (
    ("linalg", "Subspace", "__le__", "linalg.Subspace.le"),
    ("filtration", "FilteredSpace", "__post_init__",
     "filtration.FilteredSpace.post_init"),
)

# counted but not spanned: one call per sampler proposal
PROPOSAL_FN = ("sampling", "random_hodge_diamond")

def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names += [stem for *_, stem in TRACED_METHODS]
    return names


def _matrix_bits(m) -> int:
    best = 0
    for e in m.entries:
        for x in (e.re.numerator, e.re.denominator, e.im.numerator, e.im.denominator):
            b = x.bit_length()
            if b > best:
                best = b
    return best


class Tracer:
    def __init__(self) -> None:
        self.names = span_names()
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self._active = [0] * n
        self._child = [0.0]  # child time of the innermost open span
        self._current = -1
        self._next_id = 0
        self.item = -1
        self.items_seen = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_fn = array("i")
        self.span_item = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.rref_calls = 0
        self.rref_cells = 0
        self.rref_large = 0
        self.max_bits = 0
        self.proposals = 0
        self.accepted = 0
        self.exits = {0: 0, 1: 0, 2: 0}
        self.raised = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------

    def _wrap(self, idx: int, fn, after=None):
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._current
            sid = tracer._next_id
            tracer._next_id = sid + 1
            tracer._current = sid
            tracer._child.append(0.0)
            tracer._active[idx] += 1
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                if after is not None:
                    after(args, result)
                t2 = perf()
                child = tracer._child.pop()
                tracer._active[idx] -= 1
                tracer.calls[idx] += 1
                tracer.self_time[idx] += (t1 - t0) - child
                if not tracer._active[idx]:
                    tracer.total[idx] += t1 - t0
                # the parent sees this call, counter work included, as child time
                tracer._child[-1] += t2 - t0
                tracer._current = parent
                tracer.span_id.append(sid)
                tracer.span_parent.append(parent)
                tracer.span_fn.append(idx)
                tracer.span_item.append(tracer.item)
                tracer.span_start.append(t0)
                tracer.span_end.append(t1)

        return functools.update_wrapper(traced, fn)

    def _after_rref(self, args, result) -> None:
        m = args[0]
        self.rref_calls += 1
        self.rref_cells += m.rows * m.cols
        if m.rows > 4 or m.cols > 5:
            self.rref_large += 1
        bits = _matrix_bits(m)
        if result is not None:
            bits = max(bits, _matrix_bits(result[0]))
        if bits > self.max_bits:
            self.max_bits = bits

    def _after_random_mhs(self, _args, result) -> None:
        if result is not None:
            self.accepted += 1

    def _after_main(self, _args, result) -> None:
        if result in self.exits:
            self.exits[result] += 1
        else:
            self.raised += 1

    def _rebind_everywhere(self, pkg, orig, replacement) -> None:
        for mod in pkg.modules():
            ns = vars(mod)
            for name, value in list(ns.items()):
                if value is orig:
                    self._restore.append((mod, name, orig))
                    setattr(mod, name, replacement)

    def install(self, pkg) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = {
            "linalg.rref": self._after_rref,
            "sampling.random_mhs": self._after_random_mhs,
            "cli.main": self._after_main,
        }
        idx = 0
        for mod_name, fns in TRACED.items():
            mod = getattr(pkg, mod_name)
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                key = f"{mod_name}.{fn_name}"
                self._rebind_everywhere(pkg, orig, self._wrap(idx, orig, hooks.get(key)))
                idx += 1
        for mod_name, cls_name, meth, _stem in TRACED_METHODS:
            cls = getattr(getattr(pkg, mod_name), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(idx, orig))
            idx += 1
        mod_name, fn_name = PROPOSAL_FN
        orig = getattr(getattr(pkg, mod_name), fn_name)

        sampler = self.names.index("sampling.random_mhs")

        def counted(*args, **kwargs):
            # only the sampler's own draws, not the benchmark's replays
            if self._active[sampler]:
                self.proposals += 1
            return orig(*args, **kwargs)

        self._rebind_everywhere(pkg, orig, counted)

    def uninstall(self) -> None:
        # restore in reverse so an attribute rebound twice ends at its original
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # -- reporting ----------------------------------------------------

    def layer_metrics(self, trigraded_hits: int, trigraded_misses: int,
                      speed_factor: float = 1.0) -> dict:
        """Per-function counts and times, the times multiplied by
        ``speed_factor`` (the run's factor to the reference speed)."""
        out: dict[str, tuple[float, str]] = {}
        ms = 1e3 * speed_factor
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.total_ms"] = (self.total[i] * ms, "ms")
            out[f"{name}.self_ms"] = (self.self_time[i] * ms, "ms")
        lookups = trigraded_hits + trigraded_misses
        out["linalg.rref.cells"] = (self.rref_cells, "count")
        out["linalg.rref.gt_4x5_frac"] = (
            self.rref_large / self.rref_calls if self.rref_calls else 0.0, "frac")
        out["exactfield.max_coeff_bits"] = (self.max_bits, "bits")
        out["sampling.proposals"] = (self.proposals, "count")
        out["sampling.accept_ratio"] = (
            self.accepted / self.proposals if self.proposals else 0.0, "frac")
        out["multifilt.trigraded_cache.hit_ratio"] = (
            trigraded_hits / lookups if lookups else 0.0, "frac")
        for code in (0, 1, 2):
            out[f"cli.exit_{code}"] = (self.exits[code], "count")
        out["cli.raised"] = (self.raised, "count")
        return out

    def write_spans(self, path) -> None:
        doc = {
            "functions": self.names,
            "columns": ["id", "parent", "function", "item", "start_s", "end_s"],
            "id": self.span_id.tolist(),
            "parent": self.span_parent.tolist(),
            "function": self.span_fn.tolist(),
            "item": self.span_item.tolist(),
            "start_s": self.span_start.tolist(),
            "end_s": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
