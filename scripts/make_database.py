#!/usr/bin/env python3
"""Regenerate the three-set solution database and its verification records.

Produces, under --out-dir (default artifacts/):

* database.csv          -- t vs N for the three parameter sets, both series
                           variants side by side;
* residuals_*.json      -- grid-refinement residual reports for every
                           (set, variant) combination.

The residual reports are the experiment of record for the two powered-forcing
series variants: the weighted ("rederived") form passes the second-order
refinement gate, the unweighted ("stated") form leaves a non-vanishing
residual floor for nu != 1.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from fracml.fracops import residual_report
from fracml.kinetics import (
    Forcing,
    KineticProblem,
    solve_theorem1,
    solve_theorem2_rederived,
    solve_theorem2_stated,
    solve_theorem3_rederived,
    solve_theorem3_stated,
)
from fracml.mittag import MLParameters

PARAMS = MLParameters(k=2.0, alpha=6.0, beta=7.0, gamma=2.0, q=1.0)
N0, D = 0.05, 3.0

SETS = (
    # (set id, theorem, nu, a, t_max for verification)
    (1, 1, 1.0, 3.0, 0.5),
    (2, 2, 5.0, 3.0, 0.4),
    (3, 3, 7.0, 3.0, 0.4),
)

SOLVERS = {
    (1, "stated"): solve_theorem1,
    (1, "rederived"): solve_theorem1,
    (2, "stated"): solve_theorem2_stated,
    (2, "rederived"): solve_theorem2_rederived,
    (3, "stated"): solve_theorem3_stated,
    (3, "rederived"): solve_theorem3_rederived,
}


def problem(theorem, nu, a):
    forcing = Forcing.PLAIN if theorem == 1 else Forcing.POWERED
    return KineticProblem(n0=N0, ml=PARAMS, d=D, nu=nu, forcing=forcing, a=a)


def write_database(out_dir, t_max, steps):
    lines = ["set,theorem,t,N_stated,N_rederived\n"]
    for set_id, theorem, nu, a, _ in SETS:
        prob = problem(theorem, nu, a)
        ts = [t_max * i / steps for i in range(steps + 1)]
        stated = SOLVERS[(theorem, "stated")](prob, np.array(ts)).value
        rederived = SOLVERS[(theorem, "rederived")](prob, np.array(ts)).value
        for t, vs, vr in zip(ts, stated.tolist(), rederived.tolist()):
            lines.append(f"{set_id},{theorem},{t:.17g},{vs:.17g},{vr:.17g}\n")
    path = out_dir / "database.csv"
    path.write_text("".join(lines))
    return path


def write_reports(out_dir, grids):
    paths = []
    for set_id, theorem, nu, a, t_max in SETS:
        prob = problem(theorem, nu, a)
        c = D if theorem in (1, 2) else a
        for variant in ("stated", "rederived"):
            rep = residual_report(prob, SOLVERS[(theorem, variant)], c,
                                  t_max, grids)
            payload = {
                "set": set_id, "theorem": theorem, "variant": variant,
                "N0": N0, "gamma": 2.0, "tau": 1.0, "k": 2.0, "alpha": 6.0,
                "beta": 7.0, "d": D, "a": a, "nu": nu, "t_max": t_max,
                "grids": list(rep.grid_steps),
                "max_residuals": list(rep.max_residuals),
                "l2_residuals": list(rep.l2_residuals),
                "order_estimate": rep.order_estimate,
                "satisfies_equation_gate": bool(
                    rep.order_estimate >= 1.5 and rep.max_residuals[-1] <= 1e-5),
            }
            path = out_dir / f"residuals_set{set_id}_{variant}.json"
            with open(path, "w", newline="") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            paths.append((path, payload))
    return paths


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="artifacts")
    ap.add_argument("--t-max", type=float, default=0.5)
    ap.add_argument("--steps", type=int, default=50)
    ap.add_argument("--grids", default="64,128,256")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grids = tuple(int(s) for s in args.grids.split(","))

    db = write_database(out_dir, args.t_max, args.steps)
    print(f"wrote {db}")
    for path, payload in write_reports(out_dir, grids):
        print(f"wrote {path}  set={payload['set']} variant={payload['variant']:<9} "
              f"order={payload['order_estimate']:+.3f} "
              f"finest_max_residual={payload['max_residuals'][-1]:.3e} "
              f"gate={'pass' if payload['satisfies_equation_gate'] else 'FAIL'}")


if __name__ == "__main__":
    main()
