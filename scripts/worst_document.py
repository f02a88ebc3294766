"""Write the worst admitted ``invariants`` document: three random full flags.

The document is a trifiltered space of dimension --dim whose W, F and G
are each a random full flag: level i (for i = 1..dim) is the span of the
last dim - i vectors of a random basis, so every index holds one level
and level dim is zero.  The basis entries are Gaussian integers whose
real and imaginary parts have at most --bits bits.  Every document it
writes is inside the input caps; its cost grows with both --dim and --bits
through the coefficient growth of the row reduction.  The random source
has a fixed seed, so the same --dim and --bits give the same document.

    PYTHONPATH=src python3 scripts/worst_document.py --dim 16 --bits 32 --out doc.json
    PYTHONPATH=src python3 -m mixedhodge.cli invariants --in doc.json

With --family K it writes a ``stratify`` document instead: a family of K
such triples, each drawn afresh from one fixed-seed source, so the fibers
are distinct, at the parameter points t = 0..K-1 joined in a path.  K is
at most the family cap.  ``stratify`` builds every fiber's tables before
it reports its first non-opposed fiber, so the work grows with K:

    PYTHONPATH=src python3 scripts/worst_document.py --dim 8 --bits 32 --family 64 --out fam.json
    PYTHONPATH=src python3 -m mixedhodge.cli stratify --in fam.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random

from mixedhodge.exactfield import MAX_ENTRY_BITS
from mixedhodge.families import MAX_FAMILY_POINTS
from mixedhodge.filtration import MAX_AMBIENT_DIM


def full_flag(rng: random.Random, n: int, bits: int) -> dict:
    """A filtration document of a random full flag with levels at 1..n."""
    top = 2**bits - 1
    basis = [
        [[rng.randint(-top, top), 1, rng.randint(-top, top), 1] for _ in range(n)]
        for _ in range(n)
    ]
    return {
        "ambient_dim": n,
        "levels": [{"index": i, "vectors": basis[i:]} for i in range(1, n + 1)],
    }


def _triple(rng: random.Random, n: int, bits: int) -> dict:
    return {"ambient_dim": n, **{key: full_flag(rng, n, bits) for key in "WFG"}}


def worst_document(n: int, bits: int) -> dict:
    return _triple(random.Random("worst document"), n, bits)


def worst_family(n: int, bits: int, points: int) -> dict:
    """A family document of ``points`` distinct worst-case triples."""
    rng = random.Random("worst family")
    return {
        "parameters": [{"label": f"t{i}", "coords": [["t", i]]} for i in range(points)],
        "fibers": [_triple(rng, n, bits) for _ in range(points)],
        "edges": [[i, i + 1] for i in range(points - 1)],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, required=True,
                    help=f"ambient dimension, 1 to {MAX_AMBIENT_DIM}")
    ap.add_argument("--bits", type=int, required=True,
                    help=f"bits of each entry's parts, 1 to {MAX_ENTRY_BITS}")
    ap.add_argument("--family", type=int, metavar="K",
                    help=f"write a stratify family of K fibers, 1 to {MAX_FAMILY_POINTS}")
    ap.add_argument("--out", type=pathlib.Path, required=True, help="output file")
    args = ap.parse_args()
    if not 1 <= args.dim <= MAX_AMBIENT_DIM:
        ap.error(f"--dim must be between 1 and {MAX_AMBIENT_DIM}")
    if not 1 <= args.bits <= MAX_ENTRY_BITS:
        ap.error(f"--bits must be between 1 and {MAX_ENTRY_BITS}")
    if args.family is not None and not 1 <= args.family <= MAX_FAMILY_POINTS:
        ap.error(f"--family must be between 1 and {MAX_FAMILY_POINTS}")

    if args.family is None:
        doc = worst_document(args.dim, args.bits)
    else:
        doc = worst_family(args.dim, args.bits, args.family)
    args.out.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
