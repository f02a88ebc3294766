"""Command line front end.

One subcommand per report: ``invariants``, ``check-mhs``, ``deligne-split``
and ``alpha`` for a single structure, ``curve-alpha`` for period
configurations, ``stratify`` for sampled families, ``selftest`` for a quick
worked-example run.  Every command reads one JSON document (``--in``, ``-``
for stdin) and writes one report (``--out``, stdout by default).

Output is deterministic byte for byte: JSON is dumped with sorted keys at
a fixed indent, CSV rows come straight from the family order.  Exit codes:
0 on success, 1 when the input parses but the mathematics rejects it (an
inconsistent structure, a non-opposed triple, coincident curve points),
2 when the input cannot be parsed at all.  Either failure writes a
``{"error": ...}`` object to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import replace

from mixedhodge.curves import CurveConfig, INF, config_from_json, curve_report, genus0_alpha
from mixedhodge.exactfield import I, fraction_json, gauss
from mixedhodge.families import (
    alpha_map,
    family_from_json,
    strata_csv,
    strata_json,
    two_flag_fiber,
)
from mixedhodge.invariants import (
    alpha,
    alpha_via_f_expansion,
    invariants_report,
    tate_twist_triple,
)
from mixedhodge.linalg import vector_to_json
from mixedhodge.mhs import (
    deligne_splitting,
    is_r_split,
    parse_json as mhs_parse_json,
    validate,
)
from mixedhodge.multifilt import hodge_numbers, triple_from_json


class _InputError(Exception):
    """Unparseable input; exits 2 where domain errors exit 1."""


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _read_json(path: str):
    # every way json.load can fail on the bytes is a parse failure (exit
    # 2): bad syntax, non-UTF-8 text, nesting past the recursion limit, an
    # integer past CPython's digit limit, NaN or Infinity
    try:
        if path == "-":
            return json.load(sys.stdin, parse_constant=_reject_constant)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"invalid JSON in {path}: {exc}") from None
    except UnicodeDecodeError:
        raise _InputError(f"invalid JSON in {path}: not UTF-8 text") from None
    except RecursionError:
        raise _InputError(f"invalid JSON in {path}: nested too deeply") from None
    except ValueError as exc:
        raise _InputError(f"invalid JSON in {path}: {exc}") from None


def _parse(fn, data):
    # shape errors at parse time exit 2; later ValueErrors are domain errors
    try:
        return fn(data)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def cmd_invariants(args) -> tuple[str, int]:
    t = _parse(triple_from_json, _read_json(args.infile))
    return _dump(invariants_report(t)), 0


def cmd_check_mhs(args) -> tuple[str, int]:
    m = validate(*_parse(mhs_parse_json, _read_json(args.infile)))
    t = m.triple()
    report = {
        "valid": True,
        "ambient_dim": m.ambient_dim,
        "hodge_numbers": [[p, q, d] for (p, q), d in sorted(hodge_numbers(t).items())],
        "alpha": fraction_json(alpha(t)),
        "r_split": is_r_split(m),
    }
    return _dump(report), 0


def cmd_deligne_split(args) -> tuple[str, int]:
    m = validate(*_parse(mhs_parse_json, _read_json(args.infile)))
    pieces = deligne_splitting(m)
    report = {
        "ambient_dim": m.ambient_dim,
        "pieces": [
            {
                "p": p,
                "q": q,
                "vectors": [vector_to_json(row) for row in v.basis.row_list()],
            }
            for (p, q), v in sorted(pieces.items())
        ],
        "r_split": is_r_split(m),
    }
    return _dump(report), 0


def cmd_alpha(args) -> tuple[str, int]:
    data = _read_json(args.infile)
    if isinstance(data, dict) and "G" in data:
        t = _parse(triple_from_json, data)
    else:
        t = validate(*_parse(mhs_parse_json, data)).triple()
    return _dump({"alpha": fraction_json(alpha(t))}), 0


def cmd_curve_alpha(args) -> tuple[str, int]:
    cfg = _parse(config_from_json, _read_json(args.infile))
    if args.tol is not None:
        if not 0 < args.tol < math.inf:  # also false for NaN
            raise _InputError("tol must be a positive number")
        cfg = replace(cfg, tol=args.tol)
    return _dump(curve_report(cfg)), 0


def cmd_stratify(args) -> tuple[str, int]:
    fam = _parse(family_from_json, _read_json(args.infile))
    if not fam.weight_locked:
        # promote; the constant-hodge-numbers check runs here and a family
        # that moves its weights is a domain error, not a parse error
        fam = replace(fam, weight_locked=True)
    report = alpha_map(fam)
    if args.format == "csv":
        return strata_csv(fam, report), 0
    return _dump(strata_json(fam, report)), 0


def _selftest_extension_grid() -> bool:
    values = (gauss(0), gauss(1), I, gauss(1, 1))
    for lam in values:
        for kap in values:
            want = 0 if lam == kap else 1
            report = invariants_report(two_flag_fiber(lam, kap))
            if report["c2"] != want or report["alpha"] != want:
                return False
    return True


def _selftest_four_point_curve() -> bool:
    def defect(q: complex) -> int:
        cfg = CurveConfig(genus=0, punctures=(0j, 1 + 0j), pairs=((INF, q),))
        return genus0_alpha(cfg)

    on_line = all(defect(q) == 0 for q in (0.5 + 0j, 0.5 + 0.7j, 0.5 - 3j))
    off_line = all(defect(q) == 1 for q in (2 + 0j, 1j, 0.4 + 0j))
    return on_line and off_line


def _selftest_tate_twists() -> bool:
    t = two_flag_fiber(I, gauss(0, -1))
    if alpha(t) != 1:
        return False
    return all(alpha(tate_twist_triple(t, k)) == 1 for k in range(-2, 3))


def _selftest_seeded_draws(rng: random.Random) -> bool:
    from mixedhodge.sampling import random_mhs

    for _ in range(5):
        t = random_mhs(rng, max_dim=5).triple()
        a = alpha(t)
        if a < 0 or a != alpha_via_f_expansion(t):
            return False
    return True


def cmd_selftest(args) -> tuple[str, int]:
    rng = random.Random(args.seed)
    checks = [
        ("extension grid c2 over {0, 1, i, 1+i}", _selftest_extension_grid),
        ("four point curve defect at the boundary line", _selftest_four_point_curve),
        ("tate twists preserve the defect", _selftest_tate_twists),
        (f"seeded draws, both defect routes (seed {args.seed})",
         lambda: _selftest_seeded_draws(rng)),
    ]
    lines = []
    passed = 0
    for name, fn in checks:
        reason = ""
        try:
            ok = bool(fn())
        except Exception as exc:
            ok, reason = False, f": {type(exc).__name__}: {exc}"
        passed += ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}{reason}")
    lines.append(f"{passed}/{len(checks)} passed")
    return "\n".join(lines) + "\n", 0 if passed == len(checks) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedhodge",
        description="exact invariants of filtered structures and their families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, help_text: str, *, needs_in=True, fmt=False,
            tol=False, seed=False):
        sp = sub.add_parser(name, help=help_text)
        if needs_in:
            sp.add_argument(
                "--in", dest="infile", required=True, metavar="PATH",
                help="input JSON file, or - for stdin",
            )
        sp.add_argument(
            "--out", dest="outfile", default=None, metavar="PATH",
            help="output file, stdout by default",
        )
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if tol:
            sp.add_argument("--tol", type=float, default=None,
                            help="override the tolerance in the config")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(run=run)

    add("invariants", cmd_invariants,
        "chern data, defect and splitting types of a trifiltered space")
    add("check-mhs", cmd_check_mhs,
        "validate a weight/Hodge filtration pair and summarize it")
    add("deligne-split", cmd_deligne_split,
        "canonical bigraded pieces of a mixed Hodge structure")
    add("alpha", cmd_alpha,
        "splitting defect of a trifiltered space or mixed Hodge structure")
    add("curve-alpha", cmd_curve_alpha,
        "period matrix defect of a punctured genus 0 or 1 configuration",
        tol=True)
    add("stratify", cmd_stratify,
        "defect strata of a sampled family", fmt=True)
    add("selftest", cmd_selftest,
        "run the worked examples and print a pass/fail table",
        needs_in=False, seed=True)
    return parser


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
    except _InputError as exc:
        sys.stderr.write(_dump({"error": str(exc)}))
        return 2
    except ValueError as exc:
        sys.stderr.write(_dump({"error": str(exc)}))
        return 1
    _write(args.outfile, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
