"""The three benchmark workloads: inputs drawn from a seed, one operation,
and the check of its output.

Every workload runs in one process and one thread as a closed loop: one
client sends the next operation when the previous one has returned.

* ``db_verify``   -- one in-process ``fracml`` CLI call out of the seven
  that regenerate ``artifacts/``: ``verify`` for the six (set, variant)
  pairs and ``table``.  The paper's experiment and the double-precision hot
  path; the same inner series recur at every grid point and the
  extended-precision path is never taken.
* ``stiff_solve`` -- one in-process ``fracml solve`` on a fast-removal
  problem, so the inner Mittag-Leffler arguments cancel and escalate to
  extended precision: the path ``db_verify`` never runs.
* ``point_eval``  -- one ``ml2`` or ``kml`` call with freshly drawn
  parameters; no two calls share parameters, so a cache keyed on them only
  costs here.

A workload object exposes ``pass_size`` (operations in one pass over its
inputs), ``whole_passes`` (whether a run ends only at a pass boundary),
``op_input(i)``, ``run(inp)`` (the timed operation),
``reference_job(inp, out=None)`` (the reference an output is checked
against, as a (key, function, args) triple, or None) and
``check(inp, out, cache)``, which returns ``"ok"``, ``"uncertified"`` or
``"false_certificate"`` (a certified value for a series without one) and
raises :class:`CheckFailed` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from fracml import cli, mittag

from reference import (
    ReferenceUnavailable,
    kml_reference,
    kml_term_log,
    ml2_reference,
    ml2_term_log,
    peak_log,
    solution_values,
)

# A converged library value must lie within this many times the library's
# default tolerance (1e-12) of the reference, scaled by max(1, |reference|):
# the certificate bounds the truncation error by tol * max(1, |value|) and
# the escalation rule keeps rounding noise below tol * |value|.
VALUE_TOL = 10 * 1e-12


class CheckFailed(Exception):
    """An operation returned a wrong or unexpected output."""


def _call_cli(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _num(x: float) -> str:
    return repr(float(x))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= VALUE_TOL * max(1.0, abs(ref))


class _PassOrder:
    """Seeded order of a fixed input list; pass ``p`` is its own shuffle."""

    def __init__(self, items: list, seed: int):
        self.items = items
        self.seed = seed
        self.pass_size = len(items)
        self._pass, self._order = -1, []

    def op_input(self, i: int):
        p, j = divmod(i, self.pass_size)
        if p != self._pass:
            self._pass, self._order = p, list(range(self.pass_size))
            random.Random(f"{self.seed}:{p}").shuffle(self._order)
        return self.items[self._order[j]]


# ---------------------------------------------------------------------------
# db_verify

_VERIFY_FLAGS = ("theorem", "variant", "N0", "gamma", "tau", "k", "alpha",
                 "beta", "d", "a", "nu", "t_max")
_TABLE_ARGV = ["table", "--t-max", "0.5", "--steps", "50"]


class DbVerify(_PassOrder):
    name = "db_verify"
    whole_passes = True

    def __init__(self, seed: int, root: Path):
        artifacts = root / "artifacts"
        items = []
        for path in sorted(artifacts.glob("residuals_set*_*.json")):
            with open(path) as fh:
                record = json.load(fh)
            argv = ["verify"]
            for flag in _VERIFY_FLAGS:
                value = record[flag]
                text = value if isinstance(value, str) else (
                    str(value) if isinstance(value, int) else _num(value))
                argv += ["--" + flag.replace("_", "-"), text]
            argv += ["--grids", ",".join(str(g) for g in record["grids"])]
            items.append(("verify", argv, record))
        if len(items) != 6:
            raise FileNotFoundError(f"expected six residual records in {artifacts}")
        with open(artifacts / "database.csv", newline="") as fh:
            items.append(("table", _TABLE_ARGV, fh.read()))
        super().__init__(items, seed)

    def run(self, inp):
        return _call_cli(inp[1])

    def reference_job(self, inp, out=None):
        return None

    def check(self, inp, out, cache) -> str:
        kind, argv, expected = inp
        code, stdout, stderr = out
        if kind == "table":
            if code != 0 or stdout != expected:
                raise CheckFailed(f"table: exit {code}, output differs from "
                                  f"artifacts/database.csv {stderr.strip()}")
            return "ok"
        want_code = 0 if expected["satisfies_equation_gate"] else 4
        if code != want_code:
            raise CheckFailed(f"{' '.join(argv)}: exit {code}, expected "
                              f"{want_code} {stderr.strip()}")
        got = json.loads(stdout)
        for key in ("grids", "max_residuals", "l2_residuals", "order_estimate"):
            if got[key] != expected[key]:
                raise CheckFailed(f"set {expected['set']} {expected['variant']}: "
                                  f"{key} {got[key]} != {expected[key]}")
        if got["pass"] != expected["satisfies_equation_gate"]:
            raise CheckFailed(f"set {expected['set']} {expected['variant']}: "
                              f"pass/fail differs from the artifact")
        return "ok"


# ---------------------------------------------------------------------------
# stiff_solve

STIFF_STEPS = 2
STIFF_T_MAX = 1.0
STIFF_STRATA = 8             # rate and nu strata per (theorem, variant) pair
# The database parameter set (k, alpha, beta, gamma, q) and N0; theorem 3
# keeps the database forcing rate d = 3 and draws the removal rate a.
_STIFF_BASE = {"N0": 0.05, "k": 2.0, "alpha": 6.0, "beta": 7.0,
               "gamma": 2.0, "q": 1.0}
_STIFF_CASES = [(theorem, variant) for theorem in (1, 2, 3)
                for variant in ("stated", "rederived")]


class StiffSolve(_PassOrder):
    name = "stiff_solve"
    whole_passes = True

    def __init__(self, seed: int, root: Path):
        # Stratified design: every (theorem, variant) pair gets one problem
        # in each rate stratum of [10, 60], and its nu strata of [1, 2] are
        # a Latin-square shift of them.  The seed places each problem inside
        # its cell and orders the passes, so every seed draws the same mix
        # of mildly and very stiff problems.
        rng = random.Random(seed)
        items = []
        for c, (theorem, variant) in enumerate(_STIFF_CASES):
            for r in range(STIFF_STRATA):
                rate = 10.0 + 50.0 * (r + rng.random()) / STIFF_STRATA
                nu = 1.0 + ((r + c) % STIFF_STRATA + rng.random()) / STIFF_STRATA
                prob = dict(_STIFF_BASE, theorem=theorem, variant=variant,
                            nu=nu, a=rate, d=3.0 if theorem == 3 else rate)
                argv = ["solve", "--theorem", str(theorem), "--variant", variant]
                for flag in ("N0", "gamma", "k", "alpha", "beta", "d", "a", "nu"):
                    argv += ["--" + flag, _num(prob[flag])]
                argv += ["--tau", _num(prob["q"]), "--t-max",
                         _num(STIFF_T_MAX), "--steps", str(STIFF_STEPS)]
                items.append((prob, argv))
        super().__init__(items, seed)

    def run(self, inp):
        return _call_cli(inp[1])

    def reference_job(self, inp, out=None):
        prob, argv = inp
        if out is not None and out[0] != 0:
            return None
        ts = [STIFF_T_MAX * i / STIFF_STEPS for i in range(STIFF_STEPS + 1)]
        return " ".join(argv), solution_values, (prob, ts)

    def check(self, inp, out, cache) -> str:
        prob, argv = inp
        code, stdout, stderr = out
        # Exit 3 (no convergence) fails too: every problem of this workload
        # has a certified solution.
        if code != 0:
            raise CheckFailed(f"{' '.join(argv)}: exit {code} {stderr.strip()}")
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        try:
            refs = cache.get(*self.reference_job(inp))
        except ReferenceUnavailable as exc:
            raise CheckFailed(f"{' '.join(argv)}: no reference: {exc}") from None
        if len(rows) != len(refs):
            raise CheckFailed(f"{' '.join(argv)}: {len(rows)} rows")
        for i, ((t, value), ref) in enumerate(zip(rows, refs)):
            if float(t) != STIFF_T_MAX * i / STIFF_STEPS:
                raise CheckFailed(f"{' '.join(argv)}: row {i} has t = {t}")
            if not _close(float(value), ref):
                raise CheckFailed(f"{' '.join(argv)}: N({t}) = {value}, "
                                  f"reference {ref!r}")
        return "ok"


# ---------------------------------------------------------------------------
# point_eval

POINT_PASS = 1000
_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17)
_KML_Q = (0.25, 0.5, 1.0, 2.0)
# Draws at a negative argument whose largest series term lies between
# e**60 and e**700 are redrawn: there the library re-sums in extended
# precision with thousands of terms, and one call takes from 0.1 s to
# seconds (0.9 s for E_{0.3,beta}(-5), 9 s for one integer-q kml).  A
# handful of such calls made up most of a run and ops_per_s varied 30-fold
# between seeds.  Series whose terms pass e**700 fail fast with
# converged=False and stay in the draws.
CANCEL_CAP = 60.0
OVERFLOW_LOG = 700.0


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        i, digit = divmod(i, base)
        r += f * digit
    return r


class PointEval:
    """Draws are the points of a Halton sequence shifted at random by the
    seed (a Cranley-Patterson rotation), skipping those ``CANCEL_CAP``
    excludes: every draw is new, and any prefix of the stream covers the
    parameter box evenly, so the share of slow, cancelling draws in a run
    hardly depends on the seed."""

    name = "point_eval"
    whole_passes = False
    pass_size = POINT_PASS

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self.shift = [rng.random() for _ in _HALTON_BASES]
        self._restart()

    def _restart(self):
        # Only the draws of the current pass are kept, so memory does not
        # grow with the number of operations.
        self._pass, self._draws, self._next = -1, [], 1

    def _draw(self, i: int):
        u = [(_radical_inverse(i, b) + s) % 1.0
             for b, s in zip(_HALTON_BASES, self.shift)]
        if u[0] < 0.75:
            return ("ml2", 0.25 + 2.75 * u[1], -2.0 + 7.0 * u[2],
                    -5.0 + 10.0 * u[3])
        return ("kml", 0.5 + 1.5 * u[1], 0.5 + 3.5 * u[2], 0.1 + 4.9 * u[3],
                0.1 + 4.9 * u[4], _KML_Q[int(4 * u[5])], -5.0 + 10.0 * u[6])

    @staticmethod
    def _kept(draw) -> bool:
        if draw[-1] >= 0.0:
            return True
        term_log = ml2_term_log if draw[0] == "ml2" else kml_term_log
        peak = peak_log(*term_log(*draw[1:]), cap=OVERFLOW_LOG)
        return peak <= CANCEL_CAP or math.isinf(peak)

    def op_input(self, i: int):
        p, j = divmod(i, self.pass_size)
        if p < self._pass:
            self._restart()
        while self._pass < p:
            self._draws = []
            while len(self._draws) < self.pass_size:
                draw = self._draw(self._next)
                self._next += 1
                if self._kept(draw):
                    self._draws.append(draw)
            self._pass += 1
        return self._draws[j]

    def run(self, inp):
        if inp[0] == "ml2":
            return mittag.ml2(mittag.TwoParamML(inp[1], inp[2]), inp[3])
        return mittag.kml(mittag.MLParameters(*inp[1:6]), inp[6])

    @staticmethod
    def _diverges(inp) -> bool:
        # The kml term ratio grows like n**(q - alpha/k - 1): for
        # q > 1 + alpha/k the series has radius of convergence 0 and no
        # value to compare with.
        return inp[0] == "kml" and inp[5] > 1.0 + inp[2] / inp[1]

    def reference_job(self, inp, out=None):
        if out is not None and (isinstance(out, Exception) or not out.converged):
            return None
        if self._diverges(inp):
            return None
        fn = ml2_reference if inp[0] == "ml2" else kml_reference
        return repr(inp), fn, inp[1:]

    def check(self, inp, out, cache) -> str:
        if not out.converged:
            return "uncertified"
        if self._diverges(inp):
            return "false_certificate"
        try:
            ref = cache.get(*self.reference_job(inp))
        except ReferenceUnavailable as exc:
            raise CheckFailed(f"{inp}: converged, but no reference: {exc}") from None
        if not _close(out.value, ref):
            raise CheckFailed(f"{inp}: value {out.value!r}, reference {ref!r}")
        return "ok"


WORKLOADS = {w.name: w for w in (DbVerify, StiffSolve, PointEval)}
REFERENCED = {w.name: w for w in (StiffSolve, PointEval)}
