from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

from mixedhodge.cli import main
from mixedhodge.exactfield import I, gauss
from mixedhodge.families import family_to_json, lambda_kappa_grid, two_flag_fiber
from mixedhodge.filtration import filtered_space
from mixedhodge.linalg import matrix, span, zero_subspace
from mixedhodge.mhs import assemble_extension, tate


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
    split = assemble_extension(tate(0), tate(-1), matrix([[gauss(0)]]))
    knotted = assemble_extension(tate(0), tate(-1), matrix([[gauss(1, 2)]]))
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
    m = assemble_extension(tate(0), tate(-1), matrix([[I]]))
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
    code, out, err = run(capsys, ["curve-alpha", "--in", path, "--tol", "-1"])
    assert code == 2 and "positive" in json.loads(err)["error"]


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
    for name, doc, msg in (("far.json", far, "not finite"),
                           ("near.json", near, "not finite"),
                           ("steep.json", steep, "overflows"),
                           ("wide.json", wide, "theta term |n| = 1 overflows")):
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


def test_stratify_promotes_and_checks_weight_lock(tmp_path, capsys):
    from conftest import one_dim_triple

    fam = lambda_kappa_grid(radius=1)
    data = family_to_json(fam)
    del data["weight_locked"]
    path = write(tmp_path, "fam.json", data)
    code, out, _ = run(capsys, ["stratify", "--in", path])
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
    path = write(tmp_path, "moving.json", moving)
    code, out, err = run(capsys, ["stratify", "--in", path])
    assert code == 1 and out == ""
    assert "hodge numbers" in json.loads(err)["error"]


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


def test_oversized_structures_exit_2(tmp_path, capsys):
    # each document is small; accepting it would cost time or memory
    # growing with its ambient dimension or its span of level indices
    empty = {"ambient_dim": 1000, "levels": []}
    wide = {"ambient_dim": 1000, "W": empty, "F": empty}

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
    for command, doc, needle in (
        ("check-mhs", wide, "ambient_dim 1000 exceeds"),
        ("invariants", far, "level index -400 exceeds"),
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


def test_console_script_entry_point(tmp_path):
    path = write(tmp_path, "tri.json", two_flag_fiber(gauss(1), I).to_json())
    proc = subprocess.run(
        [sys.executable, "-m", "mixedhodge.cli", "invariants", "--in", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c2"] == 1
