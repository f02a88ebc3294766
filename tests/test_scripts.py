"""The files the scripts write are pinned by digest.

Each script runs as its docstring says, in a fresh interpreter with the
package's ``src`` directory on ``PYTHONPATH``:
``scripts/lambda_plane_strata.py`` once with its default grid and once
with ``--radius 3 --den 7``, ``scripts/worst_document.py`` at dimension 4
with 8-bit entries, and its family writer with three fibers of dimension 8
with 8-bit entries.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixedhodge.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "lambda_plane_strata.py"
WORST = ROOT / "scripts" / "worst_document.py"
WORST_4_8 = "f9d6ac26f50dafd28a1315ab8894b6c8c053eb03c5ea1501e1fb5a3f427f4a89"
WORST_FAMILY_8_8_3 = "daa8ec7ed6e8a450e33cca9ef3e8d88330f6430ba57533ab6485019c5de4b293"

PINNED = {
    (): {
        "lambda_family.json": "c59da781945f7db83934e5c2c28ccaed3ea65186a30e4ed3328f24da9d4d2222",
        "lambda_strata.csv": "78068d555b7e927ece0cc0425339e9fc09e14b1d34ad89b167a74436947767f9",
        "lambda_strata.json": "c742fffad227ec129c93a30bf469b2b14a1f94fa9a5429223d1c1dde328ec7da",
    },
    ("--radius", "3", "--den", "7"): {
        "lambda_family.json": "5133031fcb529e011bd687e42999906c1afa0c6401737a6e032fd46e111ac9af",
        "lambda_strata.csv": "f0f711a5e2e930ccd79fc530800c45ee4f95680b967c7b4e40384d8950b384a4",
        "lambda_strata.json": "d9d911cc4706011040f1f5f5078331dddf34c1e99fc62efafeb27bae941696be",
    },
}


def _run(script: Path, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", list(PINNED), ids=["default", "radius3-den7"])
def test_lambda_plane_strata_files_are_pinned(tmp_path, args):
    _run(SCRIPT, *args, "--out-dir", str(tmp_path))
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED[args]
    }
    assert got == PINNED[args]


def test_worst_document_is_pinned_and_admitted(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    _run(WORST, "--dim", "4", "--bits", "8", "--out", str(doc))
    assert hashlib.sha256(doc.read_bytes()).hexdigest() == WORST_4_8
    assert main(["invariants", "--in", str(doc)]) == 0
    assert capsys.readouterr().err == ""


def test_worst_family_is_pinned_and_admitted(tmp_path, capsys):
    # random full flags are not opposed, so stratify builds every fiber's
    # tables, then names the first fiber; no cap rejects the document
    doc = tmp_path / "family.json"
    _run(WORST, "--dim", "8", "--bits", "8", "--family", "3", "--out", str(doc))
    assert hashlib.sha256(doc.read_bytes()).hexdigest() == WORST_FAMILY_8_8_3
    data = json.loads(doc.read_text())
    assert len({json.dumps(fiber) for fiber in data["fibers"]}) == 3
    assert main(["stratify", "--in", str(doc)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "fiber at parameter point 't0' is not opposed"
    }
