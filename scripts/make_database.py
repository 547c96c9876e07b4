#!/usr/bin/env python3
"""Regenerate the three-set solution database and its verification records.

A thin driver over the command-line front end, which holds the parameter
sets, the solvers and the verification gate.  Produces, under --out-dir
(default artifacts/):

* database.csv          -- ``fracml table``: t vs N for the three parameter
                           sets, both series variants side by side;
* residuals_*.json      -- one record per (set, variant): the set id, the
                           ``fracml verify`` flags of that combination and
                           the report verify prints for them, its ``pass``
                           stored as ``satisfies_equation_gate``.

The residual reports are the experiment of record for the two powered-forcing
series variants: the weighted ("rederived") form passes the second-order
refinement gate, the unweighted ("stated") form leaves a non-vanishing
residual floor for nu != 1 (verify exits 4 for it, as expected).
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

from fracml import cli

# The verify grids of every residual record.
GRIDS = "64,128,256"


def run(argv, ok=(cli.EXIT_OK,)):
    """Run one CLI call; return its stdout, exit on an unexpected code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code not in ok:
        raise SystemExit(f"fracml {' '.join(argv)}: exit code {code}")
    return out.getvalue()


def write_reports(out_dir):
    for set_id, theorem, nu, a, t_max in cli.DATABASE_SETS:
        for variant in ("stated", "rederived"):
            flags = {"theorem": theorem, "variant": variant,
                     **cli.DATABASE_FLAGS, "a": a, "nu": nu, "t_max": t_max}
            argv = ["verify", "--grids", GRIDS]
            for key, value in flags.items():
                argv += [f"--{key.replace('_', '-')}", str(value)]
            report = json.loads(run(argv, (cli.EXIT_OK,
                                           cli.EXIT_VERIFY_FAILED)))
            report["satisfies_equation_gate"] = report.pop("pass")
            record = {"set": set_id, **flags, **report}
            path = out_dir / f"residuals_set{set_id}_{variant}.json"
            with open(path, "w", newline="") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
            yield path, record


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="artifacts")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    db = out_dir / "database.csv"
    run(["table", "--out", str(db)])
    print(f"wrote {db}")
    for path, record in write_reports(out_dir):
        print(f"wrote {path}  set={record['set']} variant={record['variant']:<9} "
              f"order={record['order_estimate']:+.3f} "
              f"finest_max_residual={record['max_residuals'][-1]:.3e} "
              f"gate={'pass' if record['satisfies_equation_gate'] else 'FAIL'}")


if __name__ == "__main__":
    main()
