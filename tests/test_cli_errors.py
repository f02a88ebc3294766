"""The error text of every shape check in the document parsers, one
malformed document per raise site, read through the CLI: exit 2, nothing
on stdout and exactly the pinned ``{"error": ...}`` object on stderr.

The raise sites are those of ``filtration.from_json`` and
``_filtrations_from_json`` (structure and triple documents),
``curves.config_from_json``, ``families.family_from_json``,
``linalg.vector_from_json`` and ``exactfield.quadruple_from_json``.  The
rows marked "two faults" hold two errors each and pin which one is
reported first.
"""

from __future__ import annotations

import copy
import json

import pytest

from mixedhodge.cli import main
from mixedhodge.exactfield import I, gauss
from mixedhodge.families import family_to_json, lambda_kappa_grid, two_flag_fiber

TRIPLE = two_flag_fiber(gauss(1), I).to_json()
MHS = {"ambient_dim": 2, "W": TRIPLE["W"], "F": TRIPLE["F"]}
CURVE = {"genus": 0, "punctures": [[0, 0], [1, 0]], "pairs": [["inf", [2, 0]]]}
FAMILY = family_to_json(lambda_kappa_grid(radius=1))
DROP = object()


def edit(base, *changes):
    """A deep copy of ``base`` with each (path, value) change made; the
    value ``DROP`` deletes the key, and an empty path replaces the whole."""
    doc = copy.deepcopy(base)
    for path, value in changes:
        if not path:
            doc = value
            continue
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return doc


F_LEVEL = ("F", "levels", 0)
F_ENTRY = (*F_LEVEL, "vectors", 0, 0)

CASES = [
    # filtration.from_json, on the F of a triple
    ("invariants", edit(TRIPLE, (("F",), 5)), "filtration JSON must be an object"),
    ("invariants", edit(TRIPLE, (("F", "ambient_dim"), DROP)),
     "filtration JSON missing key 'ambient_dim'"),
    ("invariants", edit(TRIPLE, (("F", "levels"), DROP)),
     "filtration JSON missing key 'levels'"),
    ("invariants", edit(TRIPLE, (("F", "ambient_dim"), True)),
     "ambient_dim must be a nonnegative integer"),
    ("invariants", edit(TRIPLE, (("F", "ambient_dim"), -1)),
     "ambient_dim must be a nonnegative integer"),
    ("invariants", edit(TRIPLE, (("F", "ambient_dim"), 65)),
     "ambient_dim 65 exceeds the limit of 64"),
    ("invariants", edit(TRIPLE, (("F", "levels"), {})), "levels must be a list"),
    ("invariants", edit(TRIPLE, (F_LEVEL, [])),
     "each level needs an index and a vector list"),
    ("invariants", edit(TRIPLE, ((*F_LEVEL, "vectors"), DROP)),
     "each level needs an index and a vector list"),
    ("invariants", edit(TRIPLE, ((*F_LEVEL, "index"), 1.0)),
     "level index must be an integer"),
    ("invariants", edit(TRIPLE, ((*F_LEVEL, "index"), True)),
     "level index must be an integer"),
    ("invariants", edit(TRIPLE, ((*F_LEVEL, "index"), -65)),
     "level index -65 exceeds the limit |index| <= 64"),
    ("invariants", edit(TRIPLE, (("F", "levels", 1, "index"), 1)),
     "duplicate level index 1"),
    ("invariants", edit(TRIPLE, ((*F_LEVEL, "vectors"), "x")),
     "vectors of level 1 must be an array"),
    ("invariants", edit(TRIPLE, ((*F_LEVEL, "vectors"), [[[1, 1, 0, 1]] * 2] * 9)),
     "level 1 lists 9 vectors, more than 4 per ambient dimension"),
    # _filtrations_from_json, on a triple and on a structure
    ("invariants", edit(TRIPLE, ((), [])), "trifiltered space JSON must be an object"),
    ("invariants", edit(TRIPLE, (("ambient_dim",), DROP)),
     "trifiltered space JSON missing key 'ambient_dim'"),
    ("invariants", edit(TRIPLE, (("G",), DROP)),
     "trifiltered space JSON missing key 'G'"),
    ("invariants", edit(TRIPLE, (("ambient_dim",), "2")),
     "ambient_dim must be a nonnegative integer"),
    ("invariants", edit(TRIPLE, (("ambient_dim",), 3)),
     "filtration dimensions disagree with ambient_dim"),
    ("check-mhs", edit(MHS, ((), "x")), "mixed Hodge structure JSON must be an object"),
    ("check-mhs", edit(MHS, (("F",), DROP)),
     "mixed Hodge structure JSON missing key 'F'"),
    ("check-mhs", edit(MHS, (("ambient_dim",), False)),
     "ambient_dim must be a nonnegative integer"),
    ("deligne-split", edit(MHS, (("ambient_dim",), 1)),
     "filtration dimensions disagree with ambient_dim"),
    # linalg.vector_from_json
    ("invariants", edit(TRIPLE, ((*F_LEVEL, "vectors", 0), [[1, 1, 0, 1]])),
     "expected a vector of length 2, got [[1, 1, 0, 1]]"),
    ("invariants", edit(TRIPLE, ((*F_LEVEL, "vectors", 0), 7)),
     "expected a vector of length 2, got 7"),
    # exactfield.quadruple_from_json
    ("invariants", edit(TRIPLE, (F_ENTRY, [1, 1, 0])),
     "expected four integers [a, b, c, d], got [1, 1, 0]"),
    ("invariants", edit(TRIPLE, (F_ENTRY, [1, True, 0, 1])),
     "expected four integers [a, b, c, d], got [1, True, 0, 1]"),
    ("invariants", edit(TRIPLE, (F_ENTRY, [1.0, 1, 0, 1])),
     "expected four integers [a, b, c, d], got [1.0, 1, 0, 1]"),
    ("invariants", edit(TRIPLE, (F_ENTRY, [1, 1, -(2**128), 1])),
     "entry integer of 129 bits exceeds the limit of 128 bits"),
    ("invariants", edit(TRIPLE, (F_ENTRY, [1, 0, 0, 1])),
     "zero denominator in Gaussian rational"),
    # curves.config_from_json
    ("curve-alpha", edit(CURVE, ((), [])), "curve config must be an object"),
    ("curve-alpha", edit(CURVE, (("genus",), DROP)), "genus must be 0 or 1"),
    ("curve-alpha", edit(CURVE, (("genus",), True)), "genus must be 0 or 1"),
    ("curve-alpha", edit(CURVE, (("genus",), 0.0)), "genus must be 0 or 1"),
    ("curve-alpha", edit(CURVE, (("genus",), 2)), "genus must be 0 or 1"),
    ("curve-alpha", edit(CURVE, (("punctures",), "x")), "punctures must be an array"),
    ("curve-alpha", edit(CURVE, (("pairs",), {})), "pairs must be an array"),
    ("curve-alpha", edit(CURVE, (("punctures",), [[k, 0] for k in range(63)])),
     "curve point count 65 (punctures plus two per pair) exceeds the limit of 64"),
    ("curve-alpha", edit(CURVE, (("punctures", 1), [0])), "malformed point [0]"),
    ("curve-alpha", edit(CURVE, (("punctures", 1), [0, "a"])),
     "malformed point coordinate 'a'"),
    ("curve-alpha", edit(CURVE, (("pairs", 0), ["inf"])), "malformed pair ['inf']"),
    ("curve-alpha", edit(CURVE, (("tau",), "inf")),
     "tau must be a finite [re, im] pair, got 'inf'"),
    ("curve-alpha", edit(CURVE, (("tau",), 5)), "malformed tau 5"),
    ("curve-alpha", edit(CURVE, (("tau",), [0, True])), "malformed tau coordinate True"),
    ("curve-alpha", edit(CURVE, (("tol",), "x")), "malformed tol 'x'"),
    ("curve-alpha", edit(CURVE, (("tol",), 10**400)), "tol is outside the double range"),
    ("curve-alpha", edit(CURVE, (("tol",), 0)), "tol must be a positive number"),
    ("curve-alpha", edit(CURVE, (("theta_truncation",), True)),
     "theta_truncation must be a positive integer"),
    ("curve-alpha", edit(CURVE, (("theta_truncation",), 0)),
     "theta_truncation must be a positive integer"),
    ("curve-alpha", edit(CURVE, (("theta_truncation",), 1001)),
     "theta_truncation 1001 exceeds the limit of 1000"),
    # families.family_from_json
    ("stratify", edit(FAMILY, ((), [])), "family JSON must be an object"),
    ("stratify", edit(FAMILY, (("fibers",), DROP)), "family JSON missing key 'fibers'"),
    ("stratify", edit(FAMILY, (("parameters",), {})),
     "parameters and fibers must be arrays"),
    ("stratify", edit(FAMILY, (("fibers",), 5)), "parameters and fibers must be arrays"),
    ("stratify", edit(FAMILY, (("fibers",), [0] * 1025)),
     "family lists 1025 fibers, more than the limit of 1024"),
    ("stratify", edit(FAMILY, (("parameters", 0), 5)), "malformed parameter point 5"),
    ("stratify", edit(FAMILY, (("parameters", 0), {"label": "p"})),
     "malformed parameter point {'label': 'p'}"),
    ("stratify", edit(FAMILY, (("parameters", 0, "coords"), 5)),
     "malformed coordinates at '(-1/2,-1/2)'"),
    ("stratify", edit(FAMILY, (("parameters", 0, "coords", 1), ["kappa"])),
     "malformed coordinates at '(-1/2,-1/2)'"),
    ("stratify", edit(FAMILY, (("edges",), {})), "edges must be an array"),
    ("stratify", edit(FAMILY, (("edges", 0), 3)), "malformed edge 3"),
    ("stratify", edit(FAMILY, (("edges", 0), [0, 1, 2])), "malformed edge [0, 1, 2]"),
    ("stratify", edit(FAMILY, (("edges", 0), [0, True])), "malformed edge [0, True]"),
    ("stratify", edit(FAMILY, (("edges", 0), [0, 1.0])), "malformed edge [0, 1.0]"),
    # two faults: the first check to fail names the error
    ("invariants", edit(TRIPLE, (("F", "ambient_dim"), 65), (("F", "levels"), {})),
     "ambient_dim 65 exceeds the limit of 64"),
    ("stratify", edit(FAMILY, (("edges", 0), [0]), (("parameters", 0), [])),
     "malformed parameter point []"),
    ("curve-alpha", edit(CURVE, (("punctures",), 5), (("genus",), True)),
     "genus must be 0 or 1"),
    ("invariants", edit(TRIPLE, (F_ENTRY, [2**200, 0, 0, True])),
     "expected four integers [a, b, c, d], "
     f"got [{2**200}, 0, 0, True]"),
]


@pytest.mark.parametrize(
    "command, doc, message", CASES, ids=[f"{i:02d}-{c[0]}" for i, c in enumerate(CASES)]
)
def test_parser_error_texts_are_pinned(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert json.loads(captured.err) == {"error": message}
