"""The benchmark's ``cli_docs`` corpus gives the pinned outputs.

``bench/run.py --workload cli_docs`` runs ``cli.main`` on every document
of a seeded corpus, error documents included, and folds each exit code,
stdout and stderr into one digest per pass.  Seed 1 is the benchmark's
default and seed 7919 its held-out seed.  Each run also probes the
known-defect documents once and reports what each did.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _defects(level: int) -> dict:
    vectors = f'exit 2 {{ "error": "vectors of level {level} must be an array" }}'
    return {
        **{
            f"{command} number for an array": vectors
            for command in ("alpha", "check-mhs", "deligne-split", "invariants")
        },
        "curve-alpha number for an array": 'exit 2 { "error": "pairs must be an array" }',
        "stratify number for an array": 'exit 2 { "error": "edges must be an array" }',
    }


@pytest.mark.parametrize("seed, digest, level", [
    (1, "1e21c7534d93dfdffa60fcbb9e99f83f5b7b4968f4a967c99a224a7bf40cfd93", 1),
    (7919, "681177487b525a6280419ae55ee826bc28a9b0a6937aa40b53f5fd3deeedd90a", -2),
])
def test_cli_docs_digest_is_pinned(seed, digest, level):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_docs",
         "--seed", str(seed), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    stamp_line, result_line = run.stdout.splitlines()[-2:]
    stamp = json.loads(stamp_line)["stamp"]
    assert json.loads(result_line)["correct"] is True
    assert stamp["digest"] == digest
    assert stamp["known_defects"] == _defects(level)
