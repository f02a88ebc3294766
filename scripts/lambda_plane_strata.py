"""Map the splitting defect over the lambda plane and dump the strata.

Builds the conjugate-flag grid family (fiber: rank 2, weights 2 and 0,
F-line through (lambda, 1), G its conjugate), runs the fiberwise defect,
and writes three artifacts: the family document, a per-point CSV, and the
strata report as JSON.  The real axis should come out as the single
defect-0 stratum, the constancy audit should flag exactly that locus, and
no point should sit strictly above all of its neighbors.

    PYTHONPATH=src python3 scripts/lambda_plane_strata.py --out-dir out
"""

from __future__ import annotations

import argparse
import json
import pathlib
from fractions import Fraction

from mixedhodge.families import (
    alpha_map,
    family_to_json,
    hypothesis_H_audit,
    lambda_conjugate_grid,
    semicontinuity_report,
    strata_csv,
    strata_json,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radius", type=int, default=5,
                    help="grid reaches radius*step in each direction")
    ap.add_argument("--den", type=int, default=5,
                    help="grid step is 1/den")
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))
    args = ap.parse_args()

    fam = lambda_conjugate_grid(radius=args.radius, step=Fraction(1, args.den))
    report = alpha_map(fam)
    audit = hypothesis_H_audit(fam, report)
    sem = semicontinuity_report(fam, report)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "lambda_family.json").write_text(
        json.dumps(family_to_json(fam), sort_keys=True, indent=2) + "\n"
    )
    (args.out_dir / "lambda_strata.csv").write_text(strata_csv(fam, report))
    (args.out_dir / "lambda_strata.json").write_text(
        json.dumps(strata_json(fam, report), sort_keys=True, indent=2) + "\n"
    )

    side = 2 * args.radius + 1
    print(f"{side}x{side} grid, step 1/{args.den}")
    for value, pts in report.strata:
        print(f"  defect {value}: {len(pts)} points")
    print(f"  defect-changing edges: {len(report.changing_edges)}")
    print(f"  audit holds: {audit.holds}; deviating entries: "
          f"{[key for key, _ in audit.deviations]}")
    print(f"  semicontinuity suspects: {list(sem.suspects) or 'none'}")

    # a rough picture: one character per sample, rows are lambda_im
    rows = []
    for ib in range(side):
        rows.append("".join(
            "." if report.alphas[ia * side + ib] == 0 else "#"
            for ia in range(side)
        ))
    print("\n".join(reversed(rows)))
    print(f"wrote family, CSV and JSON reports to {args.out_dir}/")


if __name__ == "__main__":
    main()
