"""Command-line front end.

Subcommands:

* ``eval-ml``   -- evaluate the two-parameter Mittag-Leffler function;
* ``eval-kml``  -- evaluate the generalized k-Mittag-Leffler function;
* ``solve``     -- tabulate a kinetic-equation solution as CSV;
* ``verify``    -- grid-refinement residual report as JSON;
* ``table``     -- regenerate the three-set solution database as CSV.

Exit codes: 0 success, 2 validation failure, 3 convergence failure,
4 verification gate failed.  Floats are printed with 17 significant digits
so that CSV output round-trips exactly; identical invocations produce
byte-identical output.  Every flag may also be supplied through a
``--config`` file of ``key=value`` lines (flags take precedence).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .kinetics import (
    Forcing,
    KineticProblem,
    SolutionSeriesConfig,
    solve_theorem1,
    solve_theorem2_rederived,
    solve_theorem2_stated,
    solve_theorem3_rederived,
    solve_theorem3_stated,
)
from .fracops import check_grids, residual_report
from .mittag import MLParameters, TwoParamML, _valid_exponent_step, kml, ml2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4

_REQUIRED = object()


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _read_config(path: str) -> dict:
    mapping = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(EXIT_VALIDATION, f"--config: cannot read {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(EXIT_VALIDATION,
                           f"--config {path}: line {lineno} is not key=value")
        mapping[key.strip().replace("_", "-")] = value.strip()
    return mapping


def _config_map(args, known: set) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    mapping = _read_config(args.config)
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise CliError(EXIT_VALIDATION,
                       f"--config: unknown key {unknown[0]!r} for this subcommand")
    return mapping


def _resolve(args, cfgmap: dict, name: str, cast: Callable, default=_REQUIRED,
             check: Optional[Callable[[object], bool]] = None,
             requirement: str = ""):
    value = getattr(args, name.replace("-", "_"))
    if value is None and name in cfgmap:
        try:
            value = cast(cfgmap[name])
        except ValueError:
            raise CliError(EXIT_VALIDATION,
                           f"--config value for {name!r} is not a valid "
                           f"{cast.__name__}") from None
    if value is None:
        if default is _REQUIRED:
            raise CliError(EXIT_VALIDATION, f"missing required flag --{name}")
        value = default
    if check is not None and not check(value):
        raise CliError(EXIT_VALIDATION, f"--{name} {requirement}")
    return value


def _pos(v) -> bool:
    return math.isfinite(v) and v > 0


def _finite(v) -> bool:
    return math.isfinite(v)


# ---------------------------------------------------------------------------
# eval-ml / eval-kml

_EVAL_HEADER = "value,terms_used,tail_bound,converged\n"


def _eval_row(ev) -> str:
    flag = "true" if ev.converged else "false"
    return f"{_fmt(ev.value)},{ev.terms_used},{_fmt(ev.tail_bound)},{flag}\n"


def _no_convergence(ev) -> str:
    """The stderr line for an unconverged evaluation, from its status."""
    if ev.status == "overflow":
        return (f"error: series did not converge: a term overflowed after "
                f"{ev.terms_used} terms")
    if ev.status == "divergent":
        return ("error: series does not converge at this argument: it lies "
                "beyond the radius of convergence")
    if ev.status == "budget":
        return "error: series did not converge within the term budget"
    return f"error: {ev.status} evaluation did not converge to the tolerance"


def _cmd_eval_ml(args) -> int:
    cfgmap = _config_map(args, {"alpha", "beta", "x", "tol", "out"})
    alpha = _resolve(args, cfgmap, "alpha", float, check=_pos,
                     requirement="must be > 0")
    beta = _resolve(args, cfgmap, "beta", float, check=_finite,
                    requirement="must be finite")
    x = _resolve(args, cfgmap, "x", float, check=_finite,
                 requirement="must be finite")
    tol = _resolve(args, cfgmap, "tol", float, default=1e-12, check=_pos,
                   requirement="must be > 0")
    out = _resolve(args, cfgmap, "out", str, default=None)
    ev = ml2(TwoParamML(alpha, beta), x, tol)
    _emit(_EVAL_HEADER + _eval_row(ev), out)
    if not ev.converged:
        print(_no_convergence(ev), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _resolve_ml_params(args, cfgmap) -> MLParameters:
    k = _resolve(args, cfgmap, "k", float, check=_pos, requirement="must be > 0")
    alpha = _resolve(args, cfgmap, "alpha", float, check=_pos,
                     requirement="must be > 0")
    beta = _resolve(args, cfgmap, "beta", float, check=_pos,
                    requirement="must be > 0")
    gamma = _resolve(args, cfgmap, "gamma", float, check=_pos,
                     requirement="must be > 0")
    tau = _resolve(args, cfgmap, "tau", float, check=_valid_exponent_step,
                   requirement="must lie in (0,1) or be a positive integer")
    return MLParameters(k=k, alpha=alpha, beta=beta, gamma=gamma, q=tau)


def _cmd_eval_kml(args) -> int:
    cfgmap = _config_map(args, {"k", "alpha", "beta", "gamma", "tau", "z",
                                "tol", "out"})
    params = _resolve_ml_params(args, cfgmap)
    z = _resolve(args, cfgmap, "z", float, check=_finite,
                 requirement="must be finite")
    tol = _resolve(args, cfgmap, "tol", float, default=1e-12, check=_pos,
                   requirement="must be > 0")
    out = _resolve(args, cfgmap, "out", str, default=None)
    ev = kml(params, z, tol)
    _emit(_EVAL_HEADER + _eval_row(ev), out)
    if not ev.converged:
        print(_no_convergence(ev), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve / verify / table

_PROBLEM_KEYS = {"theorem", "variant", "N0", "gamma", "tau", "k", "alpha",
                 "beta", "d", "a", "nu"}

_SOLVERS = {
    (1, "stated"): solve_theorem1,
    (1, "rederived"): solve_theorem1,  # theorem 1 needs no reweighting
    (2, "stated"): solve_theorem2_stated,
    (2, "rederived"): solve_theorem2_rederived,
    (3, "stated"): solve_theorem3_stated,
    (3, "rederived"): solve_theorem3_rederived,
}


def _resolve_problem(args, cfgmap) -> tuple[KineticProblem, Callable]:
    theorem = _resolve(args, cfgmap, "theorem", int,
                       check=lambda v: v in (1, 2, 3),
                       requirement="must be 1, 2 or 3")
    variant = _resolve(args, cfgmap, "variant", str,
                       check=lambda v: v in ("stated", "rederived"),
                       requirement="must be 'stated' or 'rederived'")
    n0 = _resolve(args, cfgmap, "N0", float, check=_pos,
                  requirement="must be > 0")
    params = _resolve_ml_params(args, cfgmap)
    d = _resolve(args, cfgmap, "d", float, check=_pos,
                 requirement="must be > 0")
    a = _resolve(args, cfgmap, "a", float, default=d, check=_pos,
                 requirement="must be > 0")
    nu = _resolve(args, cfgmap, "nu", float, check=_pos,
                  requirement="must be > 0")
    if theorem in (1, 2) and a != d:
        raise CliError(EXIT_VALIDATION,
                       f"--a must equal --d for theorem {theorem}")
    return _problem(theorem, n0, params, d, a, nu), _SOLVERS[(theorem, variant)]


def _problem(theorem: int, n0: float, params: MLParameters, d: float,
             a: float, nu: float) -> KineticProblem:
    forcing = Forcing.PLAIN if theorem == 1 else Forcing.POWERED
    return KineticProblem(n0=n0, ml=params, d=d, nu=nu, forcing=forcing, a=a)


def _grid_values(solver, prob, t_max: float, steps: int) -> list:
    ts = [t_max * i / steps for i in range(steps + 1)]
    try:
        ev = solver(prob, np.array(ts), SolutionSeriesConfig())
    except OverflowError as exc:
        raise CliError(EXIT_NO_CONVERGENCE, f"evaluation overflowed: {exc}")
    if not ev.converged:
        raise CliError(EXIT_NO_CONVERGENCE, "series did not converge at "
                       f"t = {ev.first_uncertified:g}")
    return list(zip(ts, ev.value.tolist()))


def _cmd_solve(args) -> int:
    cfgmap = _config_map(args, _PROBLEM_KEYS | {"t-max", "steps", "out"})
    prob, solver = _resolve_problem(args, cfgmap)
    t_max = _resolve(args, cfgmap, "t-max", float, check=_pos,
                     requirement="must be > 0")
    steps = _resolve(args, cfgmap, "steps", int, check=lambda v: v >= 1,
                     requirement="must be >= 1")
    out = _resolve(args, cfgmap, "out", str, default=None)
    rows = _grid_values(solver, prob, t_max, steps)
    text = "t,N\n" + "".join(f"{_fmt(t)},{_fmt(v)}\n" for t, v in rows)
    _emit(text, out)
    return EXIT_OK


def _parse_grids(raw: str) -> tuple:
    try:
        grids = tuple(int(s.strip()) for s in raw.split(","))
    except ValueError:
        raise CliError(EXIT_VALIDATION,
                       "--grids must be a comma-separated list of integers") from None
    try:
        return check_grids(grids)
    except DomainError as exc:
        raise CliError(EXIT_VALIDATION, f"--grids: {exc}") from None


def _cmd_verify(args) -> int:
    cfgmap = _config_map(args, _PROBLEM_KEYS | {"t-max", "grids", "threshold",
                                                "out"})
    prob, solver = _resolve_problem(args, cfgmap)
    t_max = _resolve(args, cfgmap, "t-max", float, check=_pos,
                     requirement="must be > 0")
    grids = _parse_grids(_resolve(args, cfgmap, "grids", str))
    threshold = _resolve(args, cfgmap, "threshold", float, default=1e-5,
                         check=_pos, requirement="must be > 0")
    out = _resolve(args, cfgmap, "out", str, default=None)
    try:
        report = residual_report(prob, solver, t_max, grids)
    except OverflowError as exc:
        raise CliError(EXIT_NO_CONVERGENCE, f"evaluation overflowed: {exc}")
    if not report.complete:
        raise CliError(EXIT_NO_CONVERGENCE,
                       "solver or forcing failed to converge on a grid point")
    passed = (report.order_estimate >= 1.5
              and report.max_residuals[-1] <= threshold)
    payload = {
        "grids": list(report.grid_steps),
        "max_residuals": list(report.max_residuals),
        "l2_residuals": list(report.l2_residuals),
        "order_estimate": report.order_estimate,
        "pass": passed,
    }
    _emit(json.dumps(payload) + "\n", out)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


# The paper's solution database: the flags its three parameter sets share,
# and for each set (set id, theorem, nu, a, t_max of its residual check).
DATABASE_FLAGS = {"N0": 0.05, "gamma": 2.0, "tau": 1.0, "k": 2.0,
                  "alpha": 6.0, "beta": 7.0, "d": 3.0}
DATABASE_SETS = (
    (1, 1, 1.0, 3.0, 0.5),
    (2, 2, 5.0, 3.0, 0.4),
    (3, 3, 7.0, 3.0, 0.4),
)


def _cmd_table(args) -> int:
    cfgmap = _config_map(args, {"t-max", "steps", "out"})
    t_max = _resolve(args, cfgmap, "t-max", float, default=0.5, check=_pos,
                     requirement="must be > 0")
    steps = _resolve(args, cfgmap, "steps", int, default=50,
                     check=lambda v: v >= 1, requirement="must be >= 1")
    out = _resolve(args, cfgmap, "out", str, default=None)
    db = DATABASE_FLAGS
    params = MLParameters(k=db["k"], alpha=db["alpha"], beta=db["beta"],
                          gamma=db["gamma"], q=db["tau"])
    lines = ["set,theorem,t,N_stated,N_rederived\n"]
    for set_id, theorem, nu, a, _ in DATABASE_SETS:
        prob = _problem(theorem, db["N0"], params, db["d"], a, nu)
        stated = _grid_values(_SOLVERS[(theorem, "stated")], prob, t_max, steps)
        if theorem == 1:
            rederived = stated
        else:
            rederived = _grid_values(_SOLVERS[(theorem, "rederived")], prob,
                                     t_max, steps)
        for (t, vs), (_, vr) in zip(stated, rederived):
            lines.append(f"{set_id},{theorem},{_fmt(t)},{_fmt(vs)},{_fmt(vr)}\n")
    _emit("".join(lines), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(sub) -> None:
    sub.add_argument("--config", default=None,
                     help="key=value file supplying defaults for any flag")
    sub.add_argument("--out", default=None,
                     help="output path (default: standard output)")
    sub.add_argument("--tol", type=float, default=None,
                     help="series tolerance (default 1e-12)")


def _add_problem_flags(sub) -> None:
    sub.add_argument("--theorem", type=int, default=None,
                     help="kinetic equation family: 1, 2 or 3")
    sub.add_argument("--variant", default=None,
                     help="'stated' or 'rederived' series weights")
    sub.add_argument("--N0", type=float, default=None,
                     help="initial number density (> 0)")
    sub.add_argument("--gamma", type=float, default=None,
                     help="Pochhammer base parameter (> 0)")
    sub.add_argument("--tau", type=float, default=None,
                     help="Pochhammer increment step, in (0,1) or integer")
    sub.add_argument("--k", type=float, default=None,
                     help="gamma deformation step (> 0)")
    sub.add_argument("--alpha", type=float, default=None,
                     help="series exponent step (> 0)")
    sub.add_argument("--beta", type=float, default=None,
                     help="series offset (> 0)")
    sub.add_argument("--d", type=float, default=None,
                     help="forcing rate constant (> 0)")
    sub.add_argument("--a", type=float, default=None,
                     help="removal rate constant (default: equal to --d)")
    sub.add_argument("--nu", type=float, default=None,
                     help="fractional integral order (> 0)")
    sub.add_argument("--t-max", type=float, default=None,
                     help="right endpoint of the time grid")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="fracml",
        description="Mittag-Leffler functions and fractional kinetic "
                    "equation solutions with residual verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval-ml", help="evaluate E_{alpha,beta}(x)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_eval_ml)

    p = subs.add_parser("eval-kml",
                        help="evaluate the generalized k-Mittag-Leffler function")
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--z", type=float, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_eval_kml)

    p = subs.add_parser("solve", help="tabulate a kinetic solution as CSV")
    _add_problem_flags(p)
    p.add_argument("--steps", type=int, default=None,
                   help="number of uniform grid steps (>= 1)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_solve)

    p = subs.add_parser("verify",
                        help="grid-refinement residual report as JSON")
    _add_problem_flags(p)
    p.add_argument("--grids", default=None,
                   help="comma-separated step counts, each double the last")
    p.add_argument("--threshold", type=float, default=None,
                   help="max residual allowed on the finest grid (default 1e-5)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("table",
                        help="regenerate the three-set solution database")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
