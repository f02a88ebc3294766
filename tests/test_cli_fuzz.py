"""Mutated documents through every ``--in`` subcommand of the CLI.

Each example draws a valid document from a seeded sampler of its
subcommand (``random_mhs`` structures and their triples, lambda grids,
genus-0 and genus-1 configurations), replaces one node of it (chosen by
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
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_genus0_config
from mixedhodge.cli import main
from mixedhodge.curves import MAX_CURVE_POINTS
from mixedhodge.families import family_to_json, lambda_conjugate_grid, lambda_kappa_grid
from mixedhodge.sampling import random_mhs

SCALARS = (None, True, False, "x", "inf", 10**400, -(10**400), -1, 1e308, -0.5)
CONTAINERS = ([], {}, ["x"])


@cache
def _structure(seed: int):
    return random_mhs(random.Random(seed), max_dim=4)


def _grid(seed: int) -> dict:
    """A lambda grid of radius 1, either kind, at step 1/2 to 1/5."""
    build = (lambda_conjugate_grid, lambda_kappa_grid)[seed % 2]
    return family_to_json(build(1, Fraction(1, 2 + seed % 4)))


def _point(z: complex) -> list[float]:
    return [z.real, z.imag]


def _curve(seed: int) -> dict:
    """A configuration within ``MAX_CURVE_POINTS``: genus 0 from
    ``random_genus0_config``, its first pair starting at infinity half of
    the time; genus 1 on a grid of its torus; or genus 0 at the limit."""
    rng = random.Random(seed)
    if seed % 3 == 0:
        cfg = random_genus0_config(rng)
        doc = {"genus": 0, "punctures": [_point(z) for z in cfg.punctures],
               "pairs": [[_point(z), _point(w)] for z, w in cfg.pairs]}
        if rng.random() < 0.5:
            doc["pairs"][0][0] = "inf"
        return doc
    if seed % 3 == 1:
        tau = complex(rng.randint(-4, 4) / 8, rng.randint(8, 16) / 10)
        m, n = rng.randint(2, 3), rng.randint(1, 2)
        grid = [(a, b) for a in range(10) for b in range(10)]
        pts = [a / 10 + b / 10 * tau for a, b in rng.sample(grid, m + 2 * n)]
        return {"genus": 1, "tau": [tau.real, tau.imag], "tol": 1e-9,
                "theta_truncation": 40, "punctures": [_point(z) for z in pts[:m]],
                "pairs": [[_point(pts[m + 2 * j]), _point(pts[m + 2 * j + 1])]
                          for j in range(n)]}
    n = rng.randint(1, MAX_CURVE_POINTS // 4)
    grid = [(a, b) for a in range(-20, 20) for b in range(-20, 20)]
    pts = [[a / 4, b / 4] for a, b in rng.sample(grid, MAX_CURVE_POINTS)]
    cut = MAX_CURVE_POINTS - 2 * n
    return {"genus": 0, "punctures": pts[:cut],
            "pairs": [pts[cut + 2 * j: cut + 2 * j + 2] for j in range(n)]}


# a seeded sampler of valid documents per ``--in`` subcommand
SAMPLERS = {
    "invariants": lambda seed: _structure(seed).triple().to_json(),
    "check-mhs": lambda seed: _structure(seed).to_json(),
    "deligne-split": lambda seed: _structure(seed).to_json(),
    "alpha": lambda seed: _structure(seed).triple().to_json(),
    "curve-alpha": _curve,
    "stratify": _grid,
}
SEED_COUNT = 12
SEEDS = st.integers(min_value=0, max_value=SEED_COUNT - 1)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*prefix, key))


@st.composite
def mutated(draw, sampler):
    """A document from ``sampler`` with one node, the root included,
    replaced by a hostile value: a wrong scalar, a wrong container, or for
    an array the same array one element short or one too long."""
    doc = copy.deepcopy(sampler(draw(SEEDS)))
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


@pytest.mark.parametrize("command", sorted(SAMPLERS))
def test_sampled_documents_are_valid(doc_path, command):
    for seed in range(SEED_COUNT):
        doc_path.write_text(json.dumps(SAMPLERS[command](seed)))
        code, out, err = _run([command, "--in", str(doc_path)])
        assert (code, err) == (0, ""), seed
        _strict(out)


@pytest.mark.parametrize("command", sorted(SAMPLERS))
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_documents_keep_the_cli_contract(doc_path, command, data):
    doc_path.write_text(data.draw(mutated(SAMPLERS[command])))
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
