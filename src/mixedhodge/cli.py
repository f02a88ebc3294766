"""Command line front end.

One subcommand per report: ``invariants``, ``check-mhs``, ``deligne-split``
and ``alpha`` for a single structure, ``curve-alpha`` for the splitting
defect of a punctured genus 0 or 1 curve configuration, ``stratify`` for
sampled families, ``selftest`` for a quick worked-example run.  Every
command reads one JSON document (``--in``, ``-`` for stdin) and writes one
report (``--out``, stdout by default).

Output is deterministic byte for byte: JSON is dumped with sorted keys at
a fixed indent, CSV rows come straight from the family order.  Exit codes:
0 on success, 1 when the input parses but the mathematics rejects it (an
inconsistent structure, a non-opposed triple, coincident curve points, a
family whose Hodge numbers move, which ``alpha_map`` checks as its
precondition), 2 when the input cannot be parsed at all or breaks a size
limit, or when ``--out`` cannot be written.  Either failure writes a
``{"error": ...}`` object to stderr.

A well-formed call, ``cmd (--flag value)*`` with exact flag spellings, is
read straight from the ``_COMMANDS`` table and builds no argparse parser.
Anything else (help, an unknown or missing command, ``--flag=value``,
abbreviations, repeats, a value that could be read as an option, a value
of the wrong type, a missing flag) goes to the argparse parser built from
the same table, so that help and usage errors print what they always did.
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
from mixedhodge.mhs import (
    deligne_splitting,
    is_r_split,
    parse_json as mhs_parse_json,
    validate,
)
from mixedhodge.multifilt import hodge_numbers, triple_from_json


class _InputError(Exception):
    """Unparseable input or an unwritable output; exits 2 where domain
    errors exit 1."""


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
                "vectors": v.to_json(),
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


_IN = ("--in", {"dest": "infile", "required": True, "metavar": "PATH",
               "help": "input JSON file, or - for stdin"})
_OUT = ("--out", {"dest": "outfile", "default": None, "metavar": "PATH",
                  "help": "output file, stdout by default"})

# name -> (run, arguments in the order the help lists them, help line)
_COMMANDS = {
    "invariants": (cmd_invariants, (_IN, _OUT),
                   "chern data, defect and splitting types of a trifiltered space"),
    "check-mhs": (cmd_check_mhs, (_IN, _OUT),
                  "validate a weight/Hodge filtration pair and summarize it"),
    "deligne-split": (cmd_deligne_split, (_IN, _OUT),
                      "canonical bigraded pieces of a mixed Hodge structure"),
    "alpha": (cmd_alpha, (_IN, _OUT),
              "splitting defect of a trifiltered space or mixed Hodge structure"),
    "curve-alpha": (
        cmd_curve_alpha,
        (_IN, _OUT, ("--tol", {"type": float, "default": None,
                                "help": "override the tolerance in the config"})),
        "splitting defect of a punctured genus 0 or 1 curve configuration"),
    "stratify": (
        cmd_stratify,
        (_IN, _OUT, ("--format", {"choices": ("json", "csv"), "default": "json"})),
        "defect strata of a sampled family"),
    "selftest": (cmd_selftest, (_OUT, ("--seed", {"type": int, "default": 0})),
                 "run the worked examples and print a pass/fail table"),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="mixedhodge",
        description="exact invariants of filtered structures and their families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, arguments, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(run=run)
    return parser


def _read_words(name: str, words) -> argparse.Namespace | None:
    """What the parser of subcommand ``name`` makes of its words, when they
    are ``(--flag value)*`` with each flag spelled out once, no value that
    could be read as an option (``-`` alone, stdin, is fine), every value
    of its type and among its choices, and every required flag given;
    None for anything else."""
    run, arguments, _ = _COMMANDS[name]
    spec = dict(arguments)
    if len(words) % 2:
        return None
    given = {}
    for flag, value in zip(words[::2], words[1::2]):
        kwargs = spec.get(flag)
        if kwargs is None or flag in given or (value[:1] == "-" and value != "-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    args = argparse.Namespace(run=run)
    for flag, kwargs in arguments:
        if flag not in given and kwargs.get("required"):
            return None
        # without a dest, argparse names the attribute after the long flag
        dest = kwargs.get("dest", flag[2:].replace("-", "_"))
        setattr(args, dest, given.get(flag, kwargs.get("default")))
    return args


def _parse_args(argv) -> argparse.Namespace:
    """What ``_build_parser`` makes of argv.  After a subcommand's name, its
    top-level parser hands every word to that subcommand's parser, so words
    that ``_read_words`` reads need no parser; the others, a help flag, an
    unknown command or none among them, go to the full parser, for the
    usage errors and help it prints."""
    words = sys.argv[1:] if argv is None else argv
    if words and words[0] in _COMMANDS:
        args = _read_words(words[0], words[1:])
        if args is not None:
            return args
    return _build_parser().parse_args(argv)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        text, code = args.run(args)
        _write(args.outfile, text)
    except _InputError as exc:
        sys.stderr.write(_dump({"error": str(exc)}))
        return 2
    except ValueError as exc:
        sys.stderr.write(_dump({"error": str(exc)}))
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
