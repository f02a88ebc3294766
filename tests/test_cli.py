from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import lift
from mixedhodge.cli import _COMMANDS, _build_parser, _parse_args, main
from mixedhodge.curves import MAX_CURVE_POINTS
from mixedhodge.exactfield import I, MAX_ENTRY_BITS, gauss
from mixedhodge.families import (
    MAX_FAMILY_POINTS,
    family_to_json,
    lambda_kappa_grid,
    two_flag_fiber,
)
from mixedhodge.filtration import filtered_space
from mixedhodge.linalg import span, zero_subspace
from mixedhodge.mhs import assemble_extension, tate
from mixedhodge.sampling import random_mhs


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def mixed_pair(tmp_path):
    """A split and a non-split rank 2 structure, as JSON files."""
    split = assemble_extension(tate(0), tate(-1), lift([[gauss(0)]]))
    knotted = assemble_extension(tate(0), tate(-1), lift([[gauss(1, 2)]]))
    return (
        write(tmp_path, "split.json", split.to_json()),
        write(tmp_path, "knotted.json", knotted.to_json()),
    )


def test_invariants_example(tmp_path, capsys):
    path = write(tmp_path, "tri.json", two_flag_fiber(gauss(1), I).to_json())
    code, out, err = run(capsys, ["invariants", "--in", path])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["c2"] == 1
    assert report["alpha"] == 1
    assert report["opposed"] is True
    # byte-for-byte deterministic
    code2, out2, _ = run(capsys, ["invariants", "--in", path])
    assert (code2, out2) == (0, out)


def test_alpha_accepts_both_shapes(tmp_path, capsys):
    t = two_flag_fiber(I, gauss(0, -1))
    path = write(tmp_path, "tri.json", t.to_json())
    code, out, _ = run(capsys, ["alpha", "--in", path])
    assert code == 0 and json.loads(out) == {"alpha": 1}
    m = assemble_extension(tate(0), tate(-1), lift([[I]]))
    path2 = write(tmp_path, "m.json", m.to_json())
    code, out, _ = run(capsys, ["alpha", "--in", path2])
    assert code == 0 and json.loads(out) == {"alpha": 1}


def test_alpha_rejects_non_opposed(tmp_path, capsys):
    from conftest import one_dim_triple

    path = write(tmp_path, "bad.json", one_dim_triple(0, 1, 1).to_json())
    code, out, err = run(capsys, ["alpha", "--in", path])
    assert code == 1 and out == ""
    assert "opposed" in json.loads(err)["error"]


def test_check_mhs_valid(mixed_pair, capsys):
    split, knotted = mixed_pair
    code, out, _ = run(capsys, ["check-mhs", "--in", split])
    report = json.loads(out)
    assert code == 0
    assert report["valid"] is True
    assert report["alpha"] == 0
    assert report["r_split"] is True
    assert report["hodge_numbers"] == [[0, 0, 1], [1, 1, 1]]
    code, out, _ = run(capsys, ["check-mhs", "--in", knotted])
    report = json.loads(out)
    assert report["alpha"] == 1 and report["r_split"] is False


def test_check_mhs_names_bad_weight_level(tmp_path, capsys):
    w = filtered_space(2, {-1: span([(I, gauss(1))], 2), 1: zero_subspace(2)})
    f = filtered_space(2, {1: span([(I, gauss(1))], 2), 2: zero_subspace(2)})
    path = write(
        tmp_path,
        "bad.json",
        {"ambient_dim": 2, "W": w.to_json(), "F": f.to_json()},
    )
    code, out, err = run(capsys, ["check-mhs", "--in", path])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "weight level -1 is not conjugation stable"


def test_deligne_split_reports_pieces(mixed_pair, capsys):
    split, knotted = mixed_pair
    code, out, _ = run(capsys, ["deligne-split", "--in", knotted])
    report = json.loads(out)
    assert code == 0
    assert [(pc["p"], pc["q"]) for pc in report["pieces"]] == [(0, 0), (1, 1)]
    assert all(len(pc["vectors"]) == 1 for pc in report["pieces"])
    assert report["r_split"] is False
    code, out, _ = run(capsys, ["deligne-split", "--in", split])
    assert json.loads(out)["r_split"] is True


def test_curve_alpha_boundary_values(tmp_path, capsys):
    def config(q_re, q_im):
        return {
            "genus": 0,
            "punctures": [[0, 0], [1, 0]],
            "pairs": [["inf", [q_re, q_im]]],
        }

    path = write(tmp_path, "on.json", config(0.5, 0))
    code, out, _ = run(capsys, ["curve-alpha", "--in", path])
    assert code == 0 and json.loads(out)["alpha"] == 0
    path = write(tmp_path, "off.json", config(2, 0))
    code, out, _ = run(capsys, ["curve-alpha", "--in", path])
    assert code == 0 and json.loads(out)["alpha"] == 1


def test_curve_alpha_tol_flag(tmp_path, capsys):
    # Q just off the boundary line: strict tolerance sees defect 1, a
    # loose one flattens the row back to balanced
    cfg = {
        "genus": 0,
        "punctures": [[0, 0], [1, 0]],
        "pairs": [["inf", [0.5001, 0]]],
    }
    path = write(tmp_path, "near.json", cfg)
    code, out, _ = run(capsys, ["curve-alpha", "--in", path, "--tol", "1e-9"])
    assert json.loads(out)["alpha"] == 1
    code, out, _ = run(capsys, ["curve-alpha", "--in", path, "--tol", "0.01"])
    assert json.loads(out)["alpha"] == 0
    for bad in ("-1", "inf", "nan"):
        code, out, err = run(capsys, ["curve-alpha", "--in", path, "--tol", bad])
        assert code == 2 and "positive" in json.loads(err)["error"]


BIG = int("9" * 400)  # a JSON integer far past the double range


@pytest.mark.parametrize("key, value, needle", [
    ("tol", BIG, "tol is outside the double range"),
    ("punctures", [[BIG, 0], [0.5, 0.25]], "point coordinate is outside"),
    ("tau", [0, BIG], "tau coordinate is outside the double range"),
    ("tau", "inf", "tau must be a finite [re, im] pair"),
    ("theta_truncation", 2_000_000, "theta_truncation 2000000 exceeds the limit"),
    ("tol", True, "malformed tol True"),
    ("genus", True, "genus must be 0 or 1"),
    ("genus", False, "genus must be 0 or 1"),
    ("genus", 0.0, "genus must be 0 or 1"),
    ("genus", 1.0, "genus must be 0 or 1"),
])
def test_curve_alpha_out_of_range_exits_2(tmp_path, capsys, key, value, needle):
    # the integers used to escape float() as an OverflowError traceback,
    # the theta sums cost time linear in theta_truncation, and a boolean
    # tol used to run as 1.0; true == 1 and 0.0 == 0, so a boolean or
    # float genus used to run too
    cfg = {"genus": 1, "tau": [0, 1], "punctures": [[0, 0], [0.5, 0.25]],
           "pairs": [[[0.1, 0.2], [0.25, 0.5]]], key: value}
    path = write(tmp_path, "range.json", cfg)
    code, out, err = run(capsys, ["curve-alpha", "--in", path])
    assert (code, out) == (2, "")
    assert needle in json.loads(err)["error"]


def test_curve_alpha_domain_error(tmp_path, capsys):
    cfg = {
        "genus": 0,
        "punctures": [[0, 0], [0, 0]],
        "pairs": [["inf", [0.5, 0]]],
    }
    path = write(tmp_path, "coincident.json", cfg)
    code, out, err = run(capsys, ["curve-alpha", "--in", path])
    assert code == 1
    assert "distinct" in json.loads(err)["error"]
    # cross-ratios that overflow to NaN (far punctures) or to infinity (a
    # subnormal distance) are domain errors, not NaN or Infinity in a report
    far = {"genus": 0, "punctures": [[1e308, 0], [-1e308, 0]],
           "pairs": [[[0, 1], [0, -1]]]}
    near = {"genus": 0, "punctures": [[0, 0], [2, 0]],
            "pairs": [[[1e-320, 0], [1, 0]]]}
    # a theta term past the float range, mid-sum, is a domain error too
    steep = {"genus": 1, "tau": [0, 1], "punctures": [[0, 0], [0.5, 0.25]],
             "pairs": [[[0.1, 20], [0.25, 0.5]]]}
    # a huge Re tau makes the theta exponents infinite, not just large
    wide = {"genus": 1, "tau": [1e308, 1], "punctures": [[0, 0.1], [0, 0.3]],
            "pairs": [[[0, 0.5], [0, 0.7]]]}
    # a tiny Im tau makes 1 - exp of the tail ratio exactly 0, which the
    # tail bound used to divide by
    flat = {"genus": 1, "tau": [0, 1e-320], "punctures": [[0, 0], [0.5, 0]],
            "pairs": []}
    # lattice coordinates of a point difference that overflow to infinity
    # (used to escape round()) or to NaN (used to exit with round()'s text)
    skew = {"genus": 1, "tau": [1e308, 1], "punctures": [[0, 0], [0, 1e308]],
            "pairs": []}
    thin = {"genus": 1, "tau": [0, 1e-300], "punctures": [[0, 0], [0, 1e10]],
            "pairs": []}
    lattice = "lattice coordinates of a point difference are not finite"
    for name, doc, msg in (("far.json", far, "not finite"),
                           ("near.json", near, "not finite"),
                           ("steep.json", steep, "overflows"),
                           ("wide.json", wide, "theta term |n| = 1 overflows"),
                           ("flat.json", flat, "theta truncation too small"),
                           ("skew.json", skew, lattice),
                           ("thin.json", thin, lattice)):
        code, out, err = run(capsys, ["curve-alpha", "--in", write(tmp_path, name, doc)])
        assert (code, out) == (1, "")
        assert msg in json.loads(err)["error"]


def test_stratify_json_and_csv(tmp_path, capsys):
    fam = lambda_kappa_grid(radius=1)
    path = write(tmp_path, "fam.json", family_to_json(fam))
    code, out, _ = run(capsys, ["stratify", "--in", path])
    report = json.loads(out)
    assert code == 0
    assert [s["alpha"] for s in report["strata"]] == [0, 1]
    assert len(report["points"]) == 9
    code, csv_out, _ = run(capsys, ["stratify", "--in", path, "--format", "csv"])
    lines = csv_out.splitlines()
    assert lines[0].startswith("label,lambda,kappa,alpha,f_")
    assert len(lines) == 10
    code2, csv_again, _ = run(capsys, ["stratify", "--in", path, "--format", "csv"])
    assert csv_again == csv_out


@pytest.mark.parametrize("value, fmt", [
    (str(BIG), "json"),
    ("1e400", "json"),
    ("1e400", "csv"),
], ids=["400-digits", "1e400-json", "1e400-csv"])
def test_stratify_out_of_range_coordinate_exits_2(tmp_path, capsys, value, fmt):
    # the integer used to escape float() as an OverflowError traceback;
    # 1e400 parsed to an infinite coordinate, which the JSON report
    # rejected with exit 1 and the CSV report printed as inf
    doc = family_to_json(lambda_kappa_grid(radius=1))
    doc["parameters"][0]["coords"][0][1] = "X"
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc).replace('"X"', value))
    code, out, err = run(capsys, ["stratify", "--in", str(path), "--format", fmt])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "coordinate value is outside the double range"}


def test_stratify_moving_hodge_numbers_exit_1(tmp_path, capsys):
    from conftest import one_dim_triple

    data = family_to_json(lambda_kappa_grid(radius=1))
    assert "weight_locked" not in data
    code, out, _ = run(capsys, ["stratify", "--in", write(tmp_path, "fam.json", data)])
    assert code == 0

    moving = {
        "parameters": [
            {"label": "a", "coords": [["t", 0.0]]},
            {"label": "b", "coords": [["t", 1.0]]},
        ],
        "fibers": [
            one_dim_triple(0, 0, 0).to_json(),
            one_dim_triple(-2, 1, 1).to_json(),
        ],
    }
    # constant Hodge numbers are the defect map's precondition, a domain
    # error whatever an old document declares; "weight_locked": true used
    # to make the same family a parse error (exit 2)
    for extra in ({}, {"weight_locked": True}, {"weight_locked": "no"}):
        path = write(tmp_path, "moving.json", {**moving, **extra})
        code, out, err = run(capsys, ["stratify", "--in", path])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "hodge numbers vary at 'b'"
        }


@pytest.mark.parametrize("name", [["x"], {}, 5, None, ""])
def test_stratify_non_string_coordinate_name_exits_2(tmp_path, capsys, name):
    # a list or an object as the name used to escape cli.main as a
    # TypeError (unhashable type) with a traceback
    doc = family_to_json(lambda_kappa_grid(radius=1))
    doc["parameters"][0]["coords"][0][0] = name
    code, out, err = run(capsys, ["stratify", "--in", write(tmp_path, "fam.json", doc)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "coordinate names must be nonempty strings"}


def test_malformed_inputs_exit_2(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    code, out, err = run(capsys, ["invariants", "--in", str(junk)])
    assert code == 2 and "invalid JSON" in json.loads(err)["error"]
    code, out, err = run(capsys, ["invariants", "--in", str(tmp_path / "gone.json")])
    assert code == 2 and "cannot read" in json.loads(err)["error"]
    empty = write(tmp_path, "empty.json", {})
    code, out, err = run(capsys, ["invariants", "--in", empty])
    assert code == 2 and "missing key" in json.loads(err)["error"]
    code, out, err = run(capsys, ["check-mhs", "--in", empty])
    assert code == 2 and "missing key" in json.loads(err)["error"]
    # a number or an object where an array belongs
    tri = two_flag_fiber(gauss(1), I).to_json()
    tri["W"]["levels"][0]["vectors"] = 5
    mhs = {"ambient_dim": 2, "W": tri["W"], "F": tri["F"]}
    no_vectors = copy.deepcopy(mhs)
    no_vectors["W"]["levels"][0]["vectors"] = {}
    curve = {"genus": 0, "punctures": [[0, 0], [1, 0]], "pairs": [["inf", [2, 0]]]}
    docs = [
        ("invariants", tri),
        ("alpha", tri),
        ("check-mhs", mhs),
        ("deligne-split", mhs),
        ("check-mhs", no_vectors),
        ("curve-alpha", {**curve, "punctures": 5}),
        ("curve-alpha", {**curve, "pairs": 5}),
        ("curve-alpha", {**curve, "punctures": {"inf": 1}}),
    ]
    for command, doc in docs:
        path = write(tmp_path, "number.json", doc)
        code, out, err = run(capsys, [command, "--in", path])
        assert code == 2 and out == ""
        assert "must be an array" in json.loads(err)["error"]


def parse_error(capsys, command, path):
    """Run command on path; assert exit 2 with a JSON parse error."""
    code, out, err = run(capsys, [command, "--in", str(path)])
    assert (code, out) == (2, "")
    message = json.loads(err)["error"]
    assert message.startswith(f"invalid JSON in {path}: ")
    return message


def test_deep_nesting_exits_2(tmp_path, capsys):
    # 200 KB of brackets: json.load raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("invariants", "check-mhs", "curve-alpha", "stratify"):
        assert "nested too deeply" in parse_error(capsys, command, path)


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"genus": 0, "name": "Möbius"}'.encode("latin-1"))
    assert "not UTF-8" in parse_error(capsys, "curve-alpha", path)


def test_overlong_integer_exits_2(tmp_path, capsys):
    # past CPython's int-to-string limit (4300 digits) json.load raises
    # a plain ValueError
    path = tmp_path / "long.json"
    path.write_text('{"ambient_dim": ' + "7" * 5000 + ', "W": {}, "F": {}}')
    assert "4300" in parse_error(capsys, "check-mhs", path)


def test_non_finite_literals_exit_2(tmp_path, capsys):
    # NaN != NaN, so a NaN puncture used to pass the distinctness check
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"genus": 0, "punctures": [[0, 0], [%s, 0]], '
            '"pairs": [["inf", [2, 0]]]}' % literal
        )
        message = parse_error(capsys, "curve-alpha", path)
        assert f"{literal} is not a JSON number" in message


def test_oversized_structures_exit_2(tmp_path, capsys):
    # each document is small; accepting it would cost time or memory
    # growing with its ambient dimension, its span of level indices or
    # its number of vectors per level
    empty = {"ambient_dim": 1000, "levels": []}
    wide = {"ambient_dim": 1000, "W": empty, "F": empty}
    crowded = {"ambient_dim": 2, "levels": [
        {"index": 0, "vectors": [[[1, 1, 0, 1], [0, 1, 0, 1]]] * 9},
        {"index": 1, "vectors": []},
    ]}

    def flag(vector, index):
        return {"ambient_dim": 2, "levels": [
            {"index": -index, "vectors": [vector]},
            {"index": index, "vectors": []},
        ]}

    far = {
        "ambient_dim": 2,
        "W": {"ambient_dim": 2, "levels": [{"index": 1, "vectors": []}]},
        "F": flag([[1, 1, 0, 1], [0, 1, 0, 1]], 400),
        "G": flag([[0, 1, 0, 1], [1, 1, 0, 1]], 400),
    }
    # or the size of its entries, or its number of sample points or of
    # curve points
    huge = two_flag_fiber(gauss(1), I).to_json()
    huge["F"]["levels"][0]["vectors"][0][0] = [2**MAX_ENTRY_BITS, 1, 0, 1]
    populous = family_to_json(lambda_kappa_grid(radius=1))
    populous["parameters"] = [
        {"label": f"p{i}", "coords": [["t", 0.0]]} for i in range(MAX_FAMILY_POINTS + 1)
    ]
    # one pair counts two points
    crowded_curve = {"genus": 0, "punctures": [[k, 0] for k in range(MAX_CURVE_POINTS - 1)],
                     "pairs": [[[0, 1], [0, 2]]]}
    for command, doc, needle in (
        ("check-mhs", wide, "ambient_dim 1000 exceeds"),
        ("invariants", far, "level index -400 exceeds"),
        ("check-mhs", {"ambient_dim": 2, "W": crowded, "F": crowded},
         "level 0 lists 9 vectors, more than 4 per ambient dimension"),
        ("invariants", huge, f"entry integer of {MAX_ENTRY_BITS + 1} bits exceeds "
         f"the limit of {MAX_ENTRY_BITS} bits"),
        ("stratify", populous, f"family lists {MAX_FAMILY_POINTS + 1} parameter "
         f"points, more than the limit of {MAX_FAMILY_POINTS}"),
        ("curve-alpha", crowded_curve, f"curve point count {MAX_CURVE_POINTS + 1} "
         f"(punctures plus two per pair) exceeds the limit of {MAX_CURVE_POINTS}"),
    ):
        path = write(tmp_path, "big.json", doc)
        code, out, err = run(capsys, [command, "--in", path])
        assert code == 2 and out == ""
        assert needle in json.loads(err)["error"]


def test_out_flag_writes_file(tmp_path, capsys):
    path = write(tmp_path, "tri.json", two_flag_fiber(I, I).to_json())
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["alpha", "--in", path, "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"alpha": 0}


def test_unwritable_out_exits_2(tmp_path, capsys):
    # an --out in a missing directory, or naming a directory, used to end
    # in an OSError traceback with exit 1
    for target, reason in (
        (tmp_path / "missing" / "x.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
    ):
        code, out, err = run(capsys, ["selftest", "--out", str(target)])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"cannot write {target}: {reason}"}


def test_vector_common_denominator_cap_exits_2(tmp_path, capsys):
    # each entry is under the entry cap, but the vector's row is scaled by
    # the lcm of its denominators, 2**64 * 3**41: 129 bits
    doc = two_flag_fiber(gauss(1), I).to_json()
    doc["F"]["levels"][0]["vectors"][0] = [[1, 2**64, 0, 1], [1, 3**41, 0, 1]]
    path = write(tmp_path, "rational.json", doc)
    code, out, err = run(capsys, ["invariants", "--in", path])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": f"vector common denominator of {MAX_ENTRY_BITS + 1} bits "
        f"exceeds the limit of {MAX_ENTRY_BITS} bits"
    }
    # 2**64 * 3**40 has 128 bits, at the cap
    doc["F"]["levels"][0]["vectors"][0][1] = [1, 3**40, 0, 1]
    path = write(tmp_path, "rational.json", doc)
    assert run(capsys, ["invariants", "--in", path])[0] == 0


def test_selftest_passes_and_is_deterministic(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "3"])
    assert code == 0
    assert out.splitlines()[-1] == "4/4 passed"
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])
    code2, out2, _ = run(capsys, ["selftest", "--seed", "3"])
    assert out2 == out


def test_selftest_fail_line_names_the_exception(capsys, monkeypatch):
    import mixedhodge.cli as cli

    def broken():
        raise ZeroDivisionError("no inverse of 0")

    monkeypatch.setattr(cli, "_selftest_tate_twists", broken)
    code, out, _ = run(capsys, ["selftest", "--seed", "3"])
    assert code == 1
    lines = out.splitlines()
    assert lines[2] == (
        "FAIL  tate twists preserve the defect: ZeroDivisionError: no inverse of 0"
    )
    assert [line[:4] for line in lines[:4]] == ["PASS", "PASS", "FAIL", "PASS"]
    assert lines[-1] == "3/4 passed"


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


SUBCOMMANDS = ("invariants", "check-mhs", "deligne-split", "alpha",
               "curve-alpha", "stratify", "selftest")


def test_usage_surface_is_pinned(capsys, monkeypatch):
    # help listings and usage errors, byte for byte; argparse wraps help
    # to the terminal width, so fix it
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [[], ["--help"], ["bogus"]]
    argvs += [[cmd, "--help"] for cmd in SUBCOMMANDS]
    argvs += [["alpha"], ["selftest", "--seed", "x"]]
    results = []
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        results.append([argv, exc.value.code, captured.out, captured.err])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert [r[1] for r in results] == [2, 0, 2] + [0] * 7 + [2, 2]
    assert digest == (
        "322761b35d91c52e8c9ce850db441cd3d389d7fc1951f75add56aebc7cd5c27c"
    )


def command_docs(tmp_path):
    """One document per subcommand that reads one, as a file path."""
    knotted = assemble_extension(tate(0), tate(-1), lift([[gauss(1, 2)]]))
    curve = {"genus": 0, "punctures": [[0, 0], [1, 0]], "pairs": [["inf", [2, 0]]]}
    triple = write(tmp_path, "tri.json", two_flag_fiber(gauss(1), I).to_json())
    mhs = write(tmp_path, "mhs.json", knotted.to_json())
    return {
        "invariants": triple,
        "check-mhs": mhs,
        "deligne-split": mhs,
        "alpha": triple,
        "curve-alpha": write(tmp_path, "curve.json", curve),
        "stratify": write(tmp_path, "fam.json",
                          family_to_json(lambda_kappa_grid(radius=1))),
    }


def test_main_builds_parsers_only_for_usage_errors_and_help(tmp_path, capsys,
                                                           monkeypatch):
    # no ArgumentParser for a well-formed call, in each argv shape of the
    # bench's cli_docs corpus; a usage error and help build them all
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    docs, out = command_docs(tmp_path), str(tmp_path / "out.txt")
    argvs = [[cmd, "--in", path, "--out", out] for cmd, path in docs.items()]
    argvs += [["stratify", "--in", docs["stratify"], "--format", "csv", "--out", out],
              ["selftest", "--seed", "3", "--out", out]]
    assert {argv[0] for argv in argvs} == set(SUBCOMMANDS)
    for argv in argvs:
        assert main(argv) == 0, argv
        assert built == [], argv
    every = ["mixedhodge", *(f"mixedhodge {cmd}" for cmd in SUBCOMMANDS)]
    for argv in (["selftest", "--seed=x"], ["--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        assert built == every, argv
        built.clear()


# what can follow a subcommand's name: option spellings, repeats, "--",
# help after options, each kind of usage error, and the values at the edge
# of what main reads without argparse
ARGV_SHAPES = [
    ["invariants", "--in=doc.json"],
    ["invariants", "--i", "doc.json"],
    ["alpha", "--in", "doc.json", "--out", "a", "--out", "b"],
    ["alpha", "--in", "doc.json", "--"],
    ["alpha", "--", "--in", "doc.json"],
    ["alpha", "--in", "-"],
    ["alpha", "--out", "o", "--in", "doc.json"],
    ["alpha", "--in", ""],
    ["alpha", "--in", "-x"],
    ["alpha", "--in", "-1"],
    ["alpha", "--in", "--out"],
    ["check-mhs", "--in", "doc.json", "-h"],
    ["deligne-split", "--in", "doc.json", "--bogus"],
    ["deligne-split", "--in", "doc.json", "extra"],
    ["deligne-split", "extra", "--in", "doc.json"],
    ["check-mhs", "--in"],
    ["check-mhs", "--out", "x"],
    ["curve-alpha", "--in", "doc.json", "--tol", "x"],
    ["curve-alpha", "--in", "doc.json", "--tol=-1e-3"],
    ["curve-alpha", "--in", "doc.json", "--t", "0.5"],
    ["curve-alpha", "--in", "d", "--tol", "nan"],
    ["curve-alpha", "--in", "d", "--tol", "1e-3"],
    ["stratify", "--in", "doc.json", "--format", "xml"],
    ["stratify", "--in", "doc.json", "--format", "csv", "--format", "json"],
    ["stratify", "--in", "doc.json", "--f", "csv"],
    ["stratify", "--in", "d", "--format", "json"],
    ["selftest"],
    ["selftest", "--seed", "x"],
    ["selftest", "--seed", "-3"],
    ["selftest", "--seed", "+5"],
    ["selftest", "--seed"],
    ["selftest", "--in", "doc.json"],
    ["selftest", "--", "3"],
]


def parse_outcome(parse, argv):
    """Exit code, stdout, stderr and namespace (less the full parser's
    subparsers dest) of one parse.  Values are compared by repr, so that a
    NaN equals itself; argparse wraps help to the terminal width, so fix it."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns, code = vars(parse(argv)), None
        except SystemExit as exc:
            ns, code = None, exc.code
    if ns is not None:
        ns.pop("command", None)
        ns = {key: repr(value) for key, value in ns.items()}
    return code, out.getvalue(), err.getvalue(), ns


@pytest.mark.parametrize("argv", ARGV_SHAPES, ids=" ".join)
def test_subcommand_parser_matches_the_full_parser(argv):
    # main reads a well-formed call without argparse; the full parser
    # must not be able to tell
    assert parse_outcome(_parse_args, argv) == parse_outcome(
        _build_parser().parse_args, argv)


FLAGS = ("--in", "--out", "--tol", "--format", "--seed")
VALUES = ("-", "-3", "3", "nan", "csv", "json", "x", "")
WORDS = [
    *FLAGS,
    *(flag[:k] for flag in FLAGS for k in range(3, len(flag))),
    *(f"{flag}={value}" for flag in FLAGS for value in ("x", "-3")),
    "-h", "--", *VALUES,
]

@st.composite
def drawn_argvs(draw):
    """A subcommand and 0-6 words: up to three of its flags, each with a
    value, then up to two words put in or written over, so that well-formed
    calls come up among the malformed ones."""
    command = draw(st.sampled_from(SUBCOMMANDS))
    own = [flag for flag, _ in _COMMANDS[command][1]]
    pairs = draw(st.lists(st.tuples(st.sampled_from(own), st.sampled_from(VALUES)),
                          max_size=3))
    words = [word for pair in pairs for word in pair]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(words)))
        over = at < len(words) and draw(st.booleans())
        words[at:at + over] = [draw(st.sampled_from(WORDS))]
    return [command, *words[:6]]


@settings(max_examples=500, deadline=None)
@given(drawn_argvs())
def test_drawn_words_parse_as_the_full_parser_reads_them(argv):
    assert parse_outcome(_parse_args, argv) == parse_outcome(
        _build_parser().parse_args, argv)


@pytest.mark.parametrize("command, extra", [
    ("invariants", []), ("stratify", []), ("stratify", ["--format", "csv"]),
])
def test_stdin_input_matches_a_file(tmp_path, capsys, monkeypatch, command, extra):
    path = command_docs(tmp_path)[command]
    from_file = run(capsys, [command, "--in", path, *extra])
    with open(path, encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
    assert run(capsys, [command, "--in", "-", *extra]) == from_file
    assert from_file[0] == 0 and from_file[1]


def test_console_script_entry_point(tmp_path, capsys):
    # python -m runs main() with no argv, so it reads the words off sys.argv,
    # on the direct route and through argparse (--in=PATH)
    docs = command_docs(tmp_path)
    argvs = [[cmd, "--in", path] for cmd, path in docs.items()]
    argvs += [["stratify", "--in", docs["stratify"], "--format", "csv"],
              ["selftest", "--seed", "3"], ["alpha", f"--in={docs['alpha']}"]]
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "mixedhodge.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, argv), argv
    assert json.loads(run(capsys, ["invariants", "--in", docs["invariants"]])[1])["c2"] == 1


def test_cli_outputs_are_pinned(tmp_path, capsys):
    # byte-identical output over a fixed corpus: every subcommand, both
    # document shapes of alpha, json and csv, domain and parse errors
    docs = []
    rng = random.Random(5)
    for k in range(6):
        m = random_mhs(rng, max_dim=5)
        triple = write(tmp_path, f"t{k}.json", m.triple().to_json())
        mhs = write(tmp_path, f"m{k}.json", m.to_json())
        docs += [["invariants", "--in", triple], ["check-mhs", "--in", mhs],
                 ["deligne-split", "--in", mhs], ["alpha", "--in", triple],
                 ["alpha", "--in", mhs]]
    genus0 = {"genus": 0, "punctures": [[0, 0], [1, 0], [2.5, -1]],
              "pairs": [["inf", [0.5, 0.7]], [[3, 1], [-2, 0.25]]]}
    genus1 = {"genus": 1, "tau": [0.25, 1.2], "punctures": [[0, 0], [0.5, 0.25]],
              "pairs": [[[0.1, 0.2], [0.25, 0.5]]]}
    coincident = {**genus0, "punctures": [[0, 0], [0, 0]]}
    for name, cfg in (("g0", genus0), ("g1", genus1), ("co", coincident)):
        docs.append(["curve-alpha", "--in", write(tmp_path, f"{name}.json", cfg)])
    fam = write(tmp_path, "fam.json", family_to_json(lambda_kappa_grid(radius=1)))
    docs += [["stratify", "--in", fam], ["stratify", "--in", fam, "--format", "csv"],
             ["selftest", "--seed", "3"]]
    junk = tmp_path / "junk.json"
    junk.write_text('{"ambient_dim": 2, "W"')
    docs += [["invariants", "--in", str(junk)],
             ["check-mhs", "--in", write(tmp_path, "nokey.json", {"ambient_dim": 2})]]
    results = []
    for argv in docs:
        code, out, err = run(capsys, argv)
        results.append([argv[0], code, out, err.replace(str(tmp_path), "DIR")])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert len(docs) == 38
    assert digest == (
        "ffd4fc09a1c2d10c46c85bfbf0b55426c853546296e931527271fa2008d3e5f6"
    )
