"""The benchmark's tracer rebinds package names; each of them must exist.

A deleted or renamed function would otherwise fail only in traced
benchmark runs (``bench/run.py --trace 1``).  The tracer file is read and
executed in a private namespace, so nothing is written next to it.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    tracer = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    names = [(mod, (fn,)) for mod, fns in tracer["TRACED"].items() for fn in fns]
    names += [(mod, (cls, meth)) for mod, cls, meth, _ in tracer["TRACED_METHODS"]]
    mod, fn = tracer["PROPOSAL_FN"]
    names.append((mod, (fn,)))
    for mod, path in names:
        obj = importlib.import_module(f"mixedhodge.{mod}")
        for attr in path:
            obj = getattr(obj, attr, None)
        assert callable(obj), f"{mod}.{'.'.join(path)}"
