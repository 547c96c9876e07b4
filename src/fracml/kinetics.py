"""Closed-form solutions of three fractional kinetic equations.

The equations are Volterra balances for a number density ``N(t)`` with a
Mittag-Leffler forcing and a memory (Riemann-Liouville) removal term:

    theorem 1:  N(t) - N0 E(t)            = -d**nu * I^nu N(t)
    theorem 2:  N(t) - N0 E((d t)**nu)    = -d**nu * I^nu N(t)
    theorem 3:  N(t) - N0 E((d t)**nu)    = -a**nu * I^nu N(t)

where ``E`` is the generalized k-Mittag-Leffler function with parameters
``(k, alpha, beta, gamma, q)`` and ``I^nu`` is the order-``nu`` fractional
integral.  Each solution is a series of the form

    N(t) = N0 * sum_n  C_n * x**n * E_{nu, b(n)}(y)

with coefficients ``C_n = (gamma)_{nq,k} / gamma_k(n alpha + beta)``
(:func:`fracml.mittag.log_coeff_parts`, shared with the forcing), ``x`` the
forcing's argument and ``y = -(a t)**nu``.  For theorem 1, ``x = t`` and
``b(n) = n + 1``.  For the powered-argument equations there are two
variants:

* ``stated``    -- ``x = (d t)**nu``, ``b(n) = nu n + 1``, no extra weight;
* ``rederived`` -- the same series multiplied termwise by
  ``Gamma(nu n + 1) / n!``, which is what the Laplace-transform solution of
  the balance equation produces (the two coincide when ``nu = 1``).

Only the rederived weights make the powered-argument series satisfy its
equation for ``nu != 1``; the residual verification in :mod:`fracml.fracops`
adjudicates this numerically, which is why both variants are kept.

:func:`solve` evaluates this one series for any problem and variant.
``THEOREMS`` states each theorem's forcing and whether it requires ``a ==
d``, ``VARIANTS`` the variant names and ``SOLVERS`` the entry point of each
(theorem, variant); each ``solve_theorem*`` entry point checks its row and
calls :func:`solve`.  The command-line front end reads the same tables.

A series argument beyond the double range (``(a t)**nu``, or the forcing's
``(d t)**nu``) leaves its point unconverged, in the solution and the forcing.

Outer series are truncated with the same geometric-tail certificate as the
Mittag-Leffler evaluators, applied to outer terms that already include their
converged inner factor: to ``OUTER_TOL`` within ``OUTER_MAX_TERMS`` terms,
each inner factor (and the forcing) evaluated to ``mittag.INNER_TOL``.  A
coefficient that is not a double (see :func:`fracml.mittag.log_coeff_parts`)
makes the point unconverged.  Per point, the inner factors come from
:func:`fracml.mittag.ml2_value`: the value and convergence flag of
:func:`fracml.mittag.ml2`, taken from the contour alone, without the double
series, where that series would certainly cancel and escalate to it (fast
removal, large ``a t``).

:func:`solve` also takes a 1-D array of times and returns a
:class:`GridEvaluation`.  With at least ``GRID_CROSSOVER`` points whose
series arguments are nonzero, the series are summed for all points at once.
The inner factors ``E_{nu,b(n)}(y_i)`` are evaluated for a block of outer
indices at a time, in one :class:`fracml.mittag.ML2Rows` whose rows are the
offsets ``b(n)``: first ``n = 0..MIN_TERMS+1``, which every outer sum
computes, then blocks that double the indices covered.  The rows share the
powers of each point's argument and take one gamma value per row and inner
term.  Every factor the batch does not settle, a cancelling one among
them, is evaluated by :func:`fracml.mittag.ml2_value`, as per point, and
only when an outer sum uses its term.  Per-point logarithms, powers and
exponentials come from the same scalar calls the per-point path makes, and
the array arithmetic is IEEE-exact, so each value, term count and tail
bound is bit-identical to a per-point call, for every point the batch
starts.
Smaller grids and points at a zero argument are evaluated by the per-point
code.

An inner factor that is exactly 0.0 at any argument has underflowed (the
functions' real zeros are never hit exactly, and at a zero argument the
factor is ``1/Gamma(b(n))``): the outer sum aborts there and the point is
reported unconverged, because two zero terms would otherwise pass the
flat-tail certificate.

:func:`forcing_value` likewise takes a time array and evaluates the forcing
at all of its points with one :func:`fracml.mittag.kml_batch` call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError
from .mittag import (
    _LOG_HUGE,
    INNER_TOL,
    MIN_TERMS,
    ML2Rows,
    MLParameters,
    PowerTable,
    SeriesEvaluation,
    TwoParamML,
    kml,
    kml_batch,
    log_coeff_parts,
    ml2_value,
)
from .summation import SeriesAbort, SeriesSumBatch, sum_series, sum_series_batch


class Forcing(enum.Enum):
    """Argument shape of the Mittag-Leffler forcing term."""

    PLAIN = "plain"        # f(t) = E(t)
    POWERED = "powered"    # f(t) = E((d t)**nu)


class Theorem(NamedTuple):
    """A kinetic equation: its forcing, and whether it requires ``a == d``."""

    forcing: Forcing
    equal_rates: bool


THEOREMS = {
    1: Theorem(Forcing.PLAIN, equal_rates=True),
    2: Theorem(Forcing.POWERED, equal_rates=True),
    3: Theorem(Forcing.POWERED, equal_rates=False),
}

# The series weights of a solution: unweighted, or Gamma(nu n + 1)/n!.
VARIANTS = ("stated", "rederived")


@dataclass(frozen=True)
class KineticProblem:
    """A kinetic equation instance.

    ``n0`` is the initial number density, ``d`` the forcing rate constant,
    ``a`` the removal rate constant (defaults to ``d``; ``THEOREMS`` says
    which theorems require ``a == d``) and ``nu`` the fractional order.
    ``d = 0`` is a degenerate setting kept for testing the zero-removal
    identity ``N(t) = N0 E(t)``; the kinetic theorems themselves require
    ``d > 0``, which the command-line front end enforces.
    """

    n0: float
    ml: MLParameters
    d: float
    nu: float
    forcing: Forcing = Forcing.PLAIN
    a: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.n0) and self.n0 > 0.0):
            raise DomainError("n0 must be finite and > 0")
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise DomainError("d must be finite and >= 0")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise DomainError("nu must be finite and > 0")
        if not isinstance(self.forcing, Forcing):
            raise DomainError("forcing must be a Forcing member")
        if self.a is None:
            object.__setattr__(self, "a", self.d)
        elif not (math.isfinite(self.a) and self.a >= 0.0):
            raise DomainError("a must be finite and >= 0")


# Truncation of the solution series: the outer sum's tolerance and term
# budget.  Its inner factors and forcing are evaluated to mittag.INNER_TOL.
OUTER_TOL = 1e-12
OUTER_MAX_TERMS = 2000


# Grids with fewer batchable points than this are evaluated point by point:
# below it the fixed cost of the array operations per term outweighs the
# per-point Python work they replace.  Measured with CPython 3.11 and numpy
# 2.4 on a 2-core x86-64 VM, batched over per-point time at 4 / 8 / 16
# points: database set 1 (theorem 1) 1.6 / 0.86 / 0.46, sets 2 and 3
# 0.55-1.3 / 0.54-0.56 / 0.19-0.31, and a theorem-1 problem with d = 30,
# whose inner factors escalate, 1.10 / 0.87 / 0.81.
GRID_CROSSOVER = 8

# A block of inner factors holds at most this many (row, point) entries (or
# one row), which bounds its arrays at about 2 MB each on very large grids.
BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class GridEvaluation:
    """Solution values on a time grid, one entry per time.

    ``value``, ``point_terms``, ``tail_bound`` and ``point_converged`` hold
    what a per-point call at each time returns.  ``terms_used`` totals the
    terms and ``converged`` is True when every point converged.
    """

    t: np.ndarray
    value: np.ndarray
    point_terms: np.ndarray
    tail_bound: np.ndarray
    point_converged: np.ndarray

    @property
    def terms_used(self) -> int:
        return int(self.point_terms.sum())

    @property
    def converged(self) -> bool:
        return bool(self.point_converged.all())

    @property
    def first_uncertified(self) -> Optional[float]:
        """The earliest time whose series did not converge, or None."""
        bad = np.flatnonzero(~self.point_converged)
        return float(self.t[bad[0]]) if bad.size else None


Times = Union[float, np.ndarray]
Evaluation = Union[SeriesEvaluation, GridEvaluation]


def _check_times(t) -> Times:
    """A validated time: a float, or a 1-D float array for a grid."""
    ts = np.array(t, dtype=float)
    if ts.ndim > 1:
        raise DomainError("t must be a number or a 1-D array of times")
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise DomainError("t must be finite and >= 0")
    return ts if ts.ndim else float(ts)


def _rate_power(rate: float, t: float, nu: float) -> float:
    """(rate t)**nu, or inf where it overflows."""
    try:
        return (rate * t) ** nu
    except OverflowError:
        return math.inf


def _forcing_arg(prob: KineticProblem, t: float) -> float:
    """The forcing's argument: t (plain) or (d t)**nu (powered)."""
    plain = prob.forcing is Forcing.PLAIN
    return t if plain else _rate_power(prob.d, t, prob.nu)


# The result at a point whose series cannot be formed.
_UNCONVERGED = SeriesEvaluation(math.nan, 0, math.inf, False)


def forcing_value(prob: KineticProblem, t: Times) -> Evaluation:
    """N0 times the forcing E(z) at z = t (plain) or z = (d t)**nu (powered),
    to ``INNER_TOL``.

    ``t`` is a time (result: :class:`SeriesEvaluation`) or a 1-D array of
    times (result: :class:`GridEvaluation`, from one
    :func:`fracml.mittag.kml_batch` call, equal point for point to per-time
    calls).
    """
    t = _check_times(t)
    if isinstance(t, np.ndarray):
        zs = np.array([_forcing_arg(prob, ti) for ti in t.tolist()])
        ok = zs < math.inf
        value, terms, tail, converged = (np.full(zs.size, fill) for fill in (
            _UNCONVERGED.value, 0, _UNCONVERGED.tail_bound, False))
        value[ok], terms[ok], tail[ok], converged[ok], _ = kml_batch(
            prob.ml, zs[ok].tolist())
        return GridEvaluation(t, prob.n0 * value, terms, prob.n0 * tail,
                              converged)
    z = _forcing_arg(prob, t)
    ev = kml(prob.ml, z, INNER_TOL) if z < math.inf else _UNCONVERGED
    return SeriesEvaluation(prob.n0 * ev.value, ev.terms_used,
                            prob.n0 * ev.tail_bound, ev.converged)


def _solution_series(prob: KineticProblem, x: float, y: float,
                     inner_beta: Callable[[int], float],
                     extra_log: Callable[[int], float]) -> SeriesEvaluation:
    """Sum N0 * sum_n C_n exp(extra_log(n)) x**n E_{nu, inner_beta(n)}(y)."""
    if not (x < math.inf and y > -math.inf):  # an argument overflowed
        return _UNCONVERGED
    nu = prob.nu
    log_n0 = math.log(prob.n0)
    coeff = log_coeff_parts(prob.ml)

    def log_coeff(n: int) -> float:
        num, pw, lg = coeff(n)
        return (num - pw) - lg

    def inner(n: int) -> float:
        value, converged = ml2_value(TwoParamML(nu, inner_beta(n)), y)
        if not converged:
            raise SeriesAbort("inner Mittag-Leffler factor did not converge")
        if value == 0.0:  # underflowed: real zeros are never hit exactly
            raise SeriesAbort("inner Mittag-Leffler factor underflowed")
        return value

    if x == 0.0:
        try:
            value = prob.n0 * math.exp(log_coeff(0)) * inner(0)
        except (SeriesAbort, OverflowError):  # C_0 is not a double
            return _UNCONVERGED
        return SeriesEvaluation(value, 1, 0.0, True)

    log_x = math.log(x)

    def term(n: int) -> float:
        iv = inner(n)
        logmag = (log_n0 + log_coeff(n) + n * log_x + extra_log(n)
                  + math.log(abs(iv)))
        if logmag > _LOG_HUGE:
            raise SeriesAbort("solution series term overflow")
        return math.copysign(math.exp(logmag), iv)

    res = sum_series(term, OUTER_TOL, OUTER_MAX_TERMS, MIN_TERMS)
    return SeriesEvaluation(res.value, res.terms, res.tail_bound, res.converged)


def _solution_series_batch(prob: KineticProblem, xs: list, ys: list,
                           inner_beta: Callable[[int], float],
                           extra_log: Callable[[int], float]) -> SeriesSumBatch:
    """:func:`_solution_series` at every nonzero pair (xs[i], ys[i]) at once.

    The inner factors are evaluated for a block of outer indices at a time,
    at the points still summing when the block starts, in one
    :class:`fracml.mittag.ML2Rows`: first the indices ``0..MIN_TERMS+1``,
    which every outer sum computes, then blocks that double the indices
    covered, each limited to ``BLOCK_ENTRIES`` entries.  Every point's
    result equals the per-point one, converged or not.
    """
    nu = prob.nu
    log_n0 = math.log(prob.n0)
    coeff = log_coeff_parts(prob.ml)
    log_x = np.array([math.log(x) for x in xs])
    powers = PowerTable(ys)
    # The current block: outer indices start..end-1, the inner factors of
    # row n - start, and each point's column in it.
    start = end = 0
    rows = None
    col = np.zeros(len(xs), dtype=np.int64)

    def term(n: int, pos: np.ndarray) -> tuple:
        nonlocal start, end, rows
        try:
            num, pw, lg = coeff(n)
        except SeriesAbort:  # every point aborts; the per-point sum too
            return np.zeros(pos.size), np.ones(pos.size, dtype=bool)
        if n >= end:
            start = n
            end = min(2 * n if n else MIN_TERMS + 2, OUTER_MAX_TERMS + 1,
                      n + max(1, BLOCK_ENTRIES // pos.size))
            rows = ML2Rows(nu, [inner_beta(j) for j in range(start, end)],
                           powers, pos)
            col[pos] = np.arange(pos.size)
        iv, converged = rows.take(n - start, col[pos])
        # An unconverged factor aborts, as in the per-point sum, and so
        # does a zero factor (it underflowed).  The terms of aborting
        # points are not used; theirs are formed from |factor| = 1 and
        # zeroed.
        bad = ~converged | (iv == 0.0)
        aiv = np.where(bad, 1.0, np.abs(iv)).tolist()
        # The per-point sum in its order, with scalar log and exp.
        logmag = (log_n0 + ((num - pw) - lg)) + n * log_x[pos]
        logmag = logmag + extra_log(n)
        logmag = logmag + np.fromiter(map(math.log, aiv), float, pos.size)
        bad |= logmag > _LOG_HUGE
        logmag[bad] = 0.0
        mag = np.fromiter(map(math.exp, logmag.tolist()), float, pos.size)
        t = np.copysign(mag, iv)
        t[bad] = 0.0
        return t, bad

    return sum_series_batch(term, len(xs), OUTER_TOL, OUTER_MAX_TERMS,
                            MIN_TERMS)


def _solution_grid(prob: KineticProblem, ts: np.ndarray,
                   point: Callable[[float], tuple],
                   inner_beta: Callable[[int], float],
                   extra_log: Callable[[int], float]) -> GridEvaluation:
    """The solution series at every time of ``ts``; ``point(t)`` gives the
    series arguments (x, y) exactly as the per-point solver computes them."""
    size = ts.size
    value = np.zeros(size)
    terms = np.zeros(size, dtype=np.int64)
    tail = np.zeros(size)
    converged = np.zeros(size, dtype=bool)
    args = [point(t) for t in ts.tolist()]
    # Points with nonzero, finite arguments (x >= 0 >= y).
    batch = [i for i, (x, y) in enumerate(args)
             if 0.0 < x < math.inf and -math.inf < y < 0.0]
    per_point = np.ones(size, dtype=bool)
    if len(batch) >= GRID_CROSSOVER:
        res = _solution_series_batch(prob, [args[i][0] for i in batch],
                                     [args[i][1] for i in batch],
                                     inner_beta, extra_log)
        value[batch], terms[batch] = res.value, res.terms
        tail[batch], converged[batch] = res.tail_bound, res.converged
        per_point[batch] = False
    for i in np.flatnonzero(per_point).tolist():
        ev = _solution_series(prob, *args[i], inner_beta, extra_log)
        value[i], terms[i] = ev.value, ev.terms_used
        tail[i], converged[i] = ev.tail_bound, ev.converged
    return GridEvaluation(ts, value, terms, tail, converged)


_ZERO = lambda n: 0.0  # noqa: E731


def solve(prob: KineticProblem, t: Times,
          variant: str = "stated") -> Evaluation:
    """The solution ``N0 sum_n C_n x**n E_{nu,b(n)}(-(a t)**nu)`` of the
    problem's equation at ``t``, with ``x`` the forcing argument (``t``, or
    ``(d t)**nu`` for powered forcing) and ``a`` the removal rate.

    Plain forcing is theorem 1: ``b(n) = n + 1``, and both variants are this
    one series.  Powered forcing is theorems 2 and 3: ``b(n) = nu n + 1``,
    and ``variant="rederived"`` weights term ``n`` by ``Gamma(nu n + 1) /
    n!``.  ``t`` is a time (result: :class:`SeriesEvaluation`) or a 1-D
    array of times (result: :class:`GridEvaluation`).  A variant not in
    ``VARIANTS`` raises :class:`DomainError`.
    """
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}")
    t = _check_times(t)
    a, nu = prob.a, prob.nu
    extra_log = _ZERO
    if prob.forcing is Forcing.PLAIN:
        inner_beta = lambda n: n + 1.0  # noqa: E731
    else:
        inner_beta = lambda n: nu * n + 1.0  # noqa: E731
        if variant == "rederived":
            def extra_log(n: int) -> float:
                return math.lgamma(nu * n + 1.0) - math.lgamma(n + 1.0)

    def point(t: float) -> tuple:
        return _forcing_arg(prob, t), -_rate_power(a, t, nu)

    if isinstance(t, np.ndarray):
        return _solution_grid(prob, t, point, inner_beta, extra_log)
    return _solution_series(prob, *point(t), inner_beta, extra_log)


# The named theorems: each checks its row of THEOREMS, then calls solve.

def _solve_theorem(theorem: int, prob: KineticProblem, t: Times,
                   variant: str) -> Evaluation:
    forcing, equal_rates = THEOREMS[theorem]
    if prob.forcing is not forcing:
        raise DomainError(f"this solver requires {forcing.value!r} forcing")
    if equal_rates and prob.a != prob.d:
        raise DomainError("this solver requires equal rates a == d")
    return solve(prob, t, variant)


def solve_theorem1(prob: KineticProblem, t: Times) -> Evaluation:
    """Theorem 1, both variants: N0 sum_n C_n t**n E_{nu,n+1}(-(d t)**nu)."""
    return _solve_theorem(1, prob, t, "stated")


def solve_theorem2_stated(prob: KineticProblem, t: Times) -> Evaluation:
    """Theorem 2, unweighted series."""
    return _solve_theorem(2, prob, t, "stated")


def solve_theorem2_rederived(prob: KineticProblem, t: Times) -> Evaluation:
    """Theorem 2, with the Gamma(nu n + 1)/n! weight."""
    return _solve_theorem(2, prob, t, "rederived")


def solve_theorem3_stated(prob: KineticProblem, t: Times) -> Evaluation:
    """Theorem 3, unweighted series."""
    return _solve_theorem(3, prob, t, "stated")


def solve_theorem3_rederived(prob: KineticProblem, t: Times) -> Evaluation:
    """Theorem 3, with the Gamma(nu n + 1)/n! weight."""
    return _solve_theorem(3, prob, t, "rederived")


# The entry point of each theorem and variant.  Theorem 1's series needs no
# reweighting, so one entry point serves both of its variants.
SOLVERS = {
    (1, "stated"): solve_theorem1,
    (1, "rederived"): solve_theorem1,
    (2, "stated"): solve_theorem2_stated,
    (2, "rederived"): solve_theorem2_rederived,
    (3, "stated"): solve_theorem3_stated,
    (3, "rederived"): solve_theorem3_rederived,
}
