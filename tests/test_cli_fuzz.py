"""Mutated documents through every ``--in`` subcommand of the CLI.

Each example takes one valid document, replaces one node of it (chosen by
walking down from the root) with a hostile value, and runs ``cli.main`` in
process twice.  The CLI contract must hold whatever the document holds:
exit code 0, 1 or 2; a lone ``{"error": ...}`` object on stderr when the
code is not 0; strict JSON on stdout; the same bytes on both runs.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import one_dim_triple
from mixedhodge.cli import main
from mixedhodge.exactfield import gauss
from mixedhodge.families import family_to_json, parameter_point, sampled_family
from mixedhodge.linalg import matrix
from mixedhodge.mhs import assemble_extension, tate

SCALARS = (None, True, False, "x", 10**400, -(10**400), -1, 1e308, -0.5)
CONTAINERS = ([], {}, ["x"])


def _bases() -> dict[str, object]:
    """One small valid document per ``--in`` subcommand."""
    m = assemble_extension(tate(0), tate(-1), matrix([[gauss(1, 2)]]))
    fam = sampled_family(
        [parameter_point(f"p{i}", (("t", float(i)), ("s", 0.5))) for i in range(2)],
        [one_dim_triple(0, 0, 0)] * 2,
        [(0, 1)],
    )
    curve = {"genus": 1, "tau": [0.25, 1.2], "punctures": [[0, 0], [0.5, 0.25]],
             "pairs": [[[0.1, 0.2], [0.25, 0.5]], [[0.7, 0.1], [0.3, 0.9]]],
             "tol": 1e-9, "theta_truncation": 40}
    return {
        "invariants": m.triple().to_json(),
        "check-mhs": m.to_json(),
        "deligne-split": m.to_json(),
        "alpha": m.triple().to_json(),
        "curve-alpha": curve,
        "stratify": family_to_json(fam),
    }


BASES = _bases()


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*prefix, key))


@st.composite
def mutated(draw, base):
    """``base`` with one node, the root included, replaced by a hostile
    value: a wrong scalar, a wrong container, or for an array the same
    array one element short or one too long."""
    doc = copy.deepcopy(base)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    options = [st.sampled_from(SCALARS), st.sampled_from(CONTAINERS)]
    if isinstance(node, list) and node:
        options.append(st.sampled_from([node[:-1], node + [node[-1]]]))
    value = draw(st.one_of(options))
    if not path:
        return json.dumps(value)
    parent[path[-1]] = value
    return json.dumps(doc)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _strict(text: str):
    def reject(name):
        raise ValueError(f"{name} in output")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.mark.parametrize("command", sorted(BASES))
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_documents_keep_the_cli_contract(doc_path, command, data):
    doc_path.write_text(data.draw(mutated(BASES[command])))
    argv = [command, "--in", str(doc_path)]
    first = _run(argv)
    code, out, err = first
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        message = _strict(err)
        assert set(message) == {"error"} and isinstance(message["error"], str)
        assert err == json.dumps(message, sort_keys=True, indent=2) + "\n"
    else:
        assert err == ""
        _strict(out)
    assert _run(argv) == first
