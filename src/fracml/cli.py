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
byte-identical output.

The parser states each flag once: its type, its default and its validity
rule.  A flag value that fails its rule is a usage error, printed by
argparse as a usage line and ``argument --alpha: must be > 0``.  A
``--config`` file of ``key=value`` lines (``#`` starts a comment, and ``_``
in a key reads as ``-``) is read as ``--key=value`` flags placed right after
the subcommand, before the command line's own flags: the file's values pass
the same checks, an unknown key is an unrecognized argument, and a flag on
the command line wins, since the last value of a flag is the one kept.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .kinetics import SOLVERS, THEOREMS, VARIANTS, KineticProblem
from .fracops import check_grids, residual_report
from .mittag import (DEFAULT_TOL, MLParameters, TwoParamML,
                     _valid_exponent_step, kml, ml2)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4

# The default of a required flag; not a string, so argparse keeps it as is.
_REQUIRED = object()


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _checked(cast: Callable, ok: Callable[[object], bool],
             requirement: str) -> Callable[[str], object]:
    """An argparse ``type``: ``cast``, then ``ok`` or a usage error saying
    ``requirement``.  It keeps the cast's name, which argparse prints for a
    value the cast rejects ("invalid float value")."""
    def convert(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(requirement)
        return value

    convert.__name__ = cast.__name__
    return convert


def _one_of(choices: list) -> str:
    """The choices as text: ``1, 2 or 3``."""
    *rest, last = choices
    return f"{', '.join(rest)} or {last}"


_THEOREM_CHOICES = _one_of([str(n) for n in THEOREMS])
_VARIANT_CHOICES = _one_of([repr(v) for v in VARIANTS])

_positive = _checked(float, lambda v: math.isfinite(v) and v > 0,
                     "must be > 0")
_finite = _checked(float, math.isfinite, "must be finite")
_steps = _checked(int, lambda v: v >= 1, "must be >= 1")
_exponent_step = _checked(float, _valid_exponent_step,
                          "must lie in (0,1) or be a positive integer")


def _grids(text: str) -> tuple:
    try:
        grids = tuple(int(s.strip()) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a comma-separated list of integers") from None
    try:
        return check_grids(grids)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_config(path: str) -> list:
    """The ``key=value`` lines of a ``--config`` file as ``--key=value``
    flags."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(EXIT_VALIDATION, f"--config: cannot read {path}: {exc}")
    flags = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(EXIT_VALIDATION,
                           f"--config {path}: line {lineno} is not key=value")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


# ---------------------------------------------------------------------------
# eval-ml / eval-kml

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


def _report_eval(ev, out: Optional[str]) -> int:
    """Print an evaluation as a CSV row; exit 3, saying why, where it did not
    converge."""
    flag = "true" if ev.converged else "false"
    _emit("value,terms_used,tail_bound,converged\n"
          f"{_fmt(ev.value)},{ev.terms_used},{_fmt(ev.tail_bound)},{flag}\n",
          out)
    if not ev.converged:
        print(_no_convergence(ev), file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_eval_ml(args) -> int:
    return _report_eval(ml2(TwoParamML(args.alpha, args.beta), args.x,
                            args.tol), args.out)


def _ml_params(args) -> MLParameters:
    return MLParameters(k=args.k, alpha=args.alpha, beta=args.beta,
                        gamma=args.gamma, q=args.tau)


def _cmd_eval_kml(args) -> int:
    return _report_eval(kml(_ml_params(args), args.z, args.tol), args.out)


# ---------------------------------------------------------------------------
# solve / verify / table

# kinetics.SOLVERS, looked up by every command at call time, so that a
# wrapper put in an entry here (a tracer, a test double) takes effect.
_SOLVERS = dict(SOLVERS)


def _problem(args) -> KineticProblem:
    """The problem of the flags, with its theorem's forcing; the removal
    rate ``--a`` defaults to ``--d`` and must equal it where the theorem
    requires."""
    a = args.d if args.a is None else args.a
    theorem = THEOREMS[args.theorem]
    if theorem.equal_rates and a != args.d:
        raise CliError(EXIT_VALIDATION,
                       f"--a must equal --d for theorem {args.theorem}")
    return KineticProblem(n0=args.N0, ml=_ml_params(args), d=args.d,
                          nu=args.nu, forcing=theorem.forcing, a=a)


def _grid_values(solver, prob, t_max: float, steps: int) -> list:
    ts = [t_max * i / steps for i in range(steps + 1)]
    if ts[-1] == math.inf:  # t_max * steps overflowed
        raise CliError(EXIT_VALIDATION, "--t-max times --steps overflows")
    try:
        ev = solver(prob, np.array(ts))
    except OverflowError as exc:
        raise CliError(EXIT_NO_CONVERGENCE, f"evaluation overflowed: {exc}")
    if not ev.converged:
        raise CliError(EXIT_NO_CONVERGENCE, "series did not converge at "
                       f"t = {ev.first_uncertified:g}")
    return list(zip(ts, ev.value.tolist()))


def _cmd_solve(args) -> int:
    rows = _grid_values(_SOLVERS[(args.theorem, args.variant)],
                        _problem(args), args.t_max, args.steps)
    text = "t,N\n" + "".join(f"{_fmt(t)},{_fmt(v)}\n" for t, v in rows)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    prob, solver = _problem(args), _SOLVERS[(args.theorem, args.variant)]
    try:
        report = residual_report(prob, solver, args.t_max, args.grids)
    except OverflowError as exc:
        raise CliError(EXIT_NO_CONVERGENCE, f"evaluation overflowed: {exc}")
    if not report.complete:
        raise CliError(EXIT_NO_CONVERGENCE,
                       "solver or forcing failed to converge on a grid point")
    passed = report.passes_gate(args.threshold)
    payload = {
        "grids": list(report.grid_steps),
        "max_residuals": list(report.max_residuals),
        "l2_residuals": list(report.l2_residuals),
        "order_estimate": report.order_estimate,
        "pass": passed,
    }
    _emit(json.dumps(payload) + "\n", args.out)
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
    lines = ["set,theorem,t,N_stated,N_rederived\n"]
    for set_id, theorem, nu, a, _ in DATABASE_SETS:
        prob = _problem(argparse.Namespace(**DATABASE_FLAGS, theorem=theorem,
                                           nu=nu, a=a))
        # Each distinct solver once: one may serve both variants.
        solvers = [_SOLVERS[(theorem, v)] for v in VARIANTS]
        values = {s: _grid_values(s, prob, args.t_max, args.steps)
                  for s in dict.fromkeys(solvers)}
        stated, rederived = (values[s] for s in solvers)
        for (t, vs), (_, vr) in zip(stated, rederived):
            lines.append(f"{set_id},{theorem},{_fmt(t)},{_fmt(vs)},{_fmt(vr)}\n")
    _emit("".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(sub) -> None:
    sub.add_argument("--config", default=None,
                     help="key=value file supplying defaults for any flag")
    sub.add_argument("--out", default=None,
                     help="output path (default: standard output)")
    sub.add_argument("--tol", type=_positive, default=DEFAULT_TOL,
                     help=f"series tolerance (default {DEFAULT_TOL:g})")


def _add_problem_flags(sub) -> None:
    sub.add_argument("--theorem", default=_REQUIRED,
                     type=_checked(int, lambda v: v in THEOREMS,
                                   f"must be {_THEOREM_CHOICES}"),
                     help=f"kinetic equation family: {_THEOREM_CHOICES}")
    sub.add_argument("--variant", default=_REQUIRED,
                     type=_checked(str, lambda v: v in VARIANTS,
                                   f"must be {_VARIANT_CHOICES}"),
                     help=f"{_VARIANT_CHOICES} series weights")
    sub.add_argument("--N0", type=_positive, default=_REQUIRED,
                     help="initial number density (> 0)")
    sub.add_argument("--gamma", type=_positive, default=_REQUIRED,
                     help="Pochhammer base parameter (> 0)")
    sub.add_argument("--tau", type=_exponent_step, default=_REQUIRED,
                     help="Pochhammer increment step, in (0,1) or integer")
    sub.add_argument("--k", type=_positive, default=_REQUIRED,
                     help="gamma deformation step (> 0)")
    sub.add_argument("--alpha", type=_positive, default=_REQUIRED,
                     help="series exponent step (> 0)")
    sub.add_argument("--beta", type=_positive, default=_REQUIRED,
                     help="series offset (> 0)")
    sub.add_argument("--d", type=_positive, default=_REQUIRED,
                     help="forcing rate constant (> 0)")
    sub.add_argument("--a", type=_positive, default=None,
                     help="removal rate constant (default: equal to --d)")
    sub.add_argument("--nu", type=_positive, default=_REQUIRED,
                     help="fractional integral order (> 0)")
    sub.add_argument("--t-max", type=_positive, default=_REQUIRED,
                     help="right endpoint of the time grid")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a negative number written with an
    exponent (``--x -1e-05``) as the flag's value.  argparse before Python
    3.14 knows negative numbers only without one, and took ``-1e-05`` for
    a flag.  The subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged.
    parser = _Parser(
        prog="fracml",
        description="Mittag-Leffler functions and fractional kinetic "
                    "equation solutions with residual verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval-ml", help="evaluate E_{alpha,beta}(x)")
    p.add_argument("--alpha", type=_positive, default=_REQUIRED)
    p.add_argument("--beta", type=_finite, default=_REQUIRED)
    p.add_argument("--x", type=_finite, default=_REQUIRED)
    _add_common(p)
    p.set_defaults(handler=_cmd_eval_ml)

    p = subs.add_parser("eval-kml",
                        help="evaluate the generalized k-Mittag-Leffler function")
    for name in ("--k", "--alpha", "--beta", "--gamma"):
        p.add_argument(name, type=_positive, default=_REQUIRED)
    p.add_argument("--tau", type=_exponent_step, default=_REQUIRED)
    p.add_argument("--z", type=_finite, default=_REQUIRED)
    _add_common(p)
    p.set_defaults(handler=_cmd_eval_kml)

    p = subs.add_parser("solve", help="tabulate a kinetic solution as CSV")
    _add_problem_flags(p)
    p.add_argument("--steps", type=_steps, default=_REQUIRED,
                   help="number of uniform grid steps (>= 1)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_solve)

    p = subs.add_parser("verify",
                        help="grid-refinement residual report as JSON")
    _add_problem_flags(p)
    p.add_argument("--grids", type=_grids, default=_REQUIRED,
                   help="comma-separated step counts, each double the last")
    p.add_argument("--threshold", type=_positive, default=1e-5,
                   help="max residual allowed on the finest grid (default 1e-5)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("table",
                        help="regenerate the three-set solution database")
    p.add_argument("--t-max", type=_positive, default=0.5)
    p.add_argument("--steps", type=_steps, default=50)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_table)

    return parser


def _parse(argv: list) -> argparse.Namespace:
    """The flags of ``argv``, with a ``--config`` file's lines read as flags
    right after the subcommand; a required flag still missing is an error."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        args = parser.parse_args([*argv[:at], *_read_config(args.config),
                                  *argv[at:]])
    for dest, value in vars(args).items():
        if value is _REQUIRED:
            raise CliError(EXIT_VALIDATION,
                           f"missing required flag --{dest.replace('_', '-')}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return args.handler(args)
    except SystemExit as exc:  # argparse: --help, or a usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
