"""Series evaluators for Mittag-Leffler functions.

Two evaluators are provided:

* :func:`ml2` -- the two-parameter function
  ``E_{alpha,beta}(x) = sum_n x**n / Gamma(alpha n + beta)``;
* :func:`kml` -- the five-parameter generalization
  ``E(k, alpha, beta, gamma, q; z)
  = sum_n (gamma)_{nq,k} z**n / (gamma_k(n alpha + beta) n!)``
  built from the step-k gamma and gamma-ratio Pochhammer of
  :mod:`fracml.specfun`.

Both return a :class:`SeriesEvaluation` carrying truncation diagnostics;
``converged`` is True only when the geometric tail certificate of
:mod:`fracml.summation` holds.  Terms are built in log-magnitude + sign
form (or directly through the gamma function while its argument is in
range), and Gamma poles met inside a series contribute zero terms via the
reciprocal-gamma convention.  The tail certificate is tested from the index
:func:`_cert_start` gives, where the gamma argument is past all poles, and
for :func:`ml2` with ``beta > 170`` and :func:`kml` with ``q = 1`` and
``gamma >= k`` no earlier than the peak of the terms (:func:`_peak_start`),
before which they can underflow to zeros that pass the flat-tail test.  A
series is summed to the caller's ``tol`` (``DEFAULT_TOL`` by default,
``INNER_TOL`` in the kinetic entries below) within ``MAX_TERMS`` terms, the
budget of the extended-precision re-sum too.

Every value comes from one of three paths, named by
:attr:`SeriesEvaluation.status`:

* ``series``   -- the double-precision series, summed with compensated
  accumulation and certified by the geometric tail bound;
* ``contour``  -- for :func:`ml2` at ``x < 0`` with ``0 < alpha <= 2``, the
  inverse Laplace transform of ``s**(alpha-beta) / (s**alpha - x)`` by the
  trapezoidal rule on a parabolic contour (:func:`_ml2_contour`): Garrappa's
  placement first, then placements chosen for accuracy relative to a small
  value, with the pole residues computed at 116 bits on mpmath's ``libmp``
  (:func:`_pole_residues`), outside the global mpmath context;
* ``extended`` -- the series re-summed in extended precision (mpmath), in
  one pass at a working precision sized from the absolute term sum the
  double pass measured (:func:`_mp_sum`), in a private mpmath context.

An alternating series whose double-precision term noise would exceed the
requested tolerance relative to the computed value goes to
:func:`_ml2_cancelling`: the contour first, the extended-precision re-sum
only where the contour does not certify (:func:`kml` has no contour and
re-sums directly).  A negative-axis :func:`ml2` series that aborts on a
term overflow also tries the contour, with no extended-precision fallback.

:func:`ml2_value`, the entry of the kinetic solution series' inner
factors, returns :func:`ml2`'s value and convergence flag bit for bit but
skips the double series where it would certainly end on the contour:
``0 < alpha <= 2``, ``1 <= beta``, ``x < 0``, and a certified contour value
far below the bound under which the series must escalate
(:func:`_escalation_bound`).  Every other factor is :func:`ml2`'s.

The contour certificate is relative and is an error estimate, not a proven
bound: the value is accepted only when ``10 * est <= tol * |value|``, where
``est`` adds the difference from a second contour with half the step and a
longer range, the rounding of the quadrature sum and the error of the pole
residues.  Every placement is judged by this one certificate.  The series
certificate bounds the truncation error by ``tol * max(1, |value|)``; the
stricter relative form keeps the contour as accurate relative to small
values as the extended-precision path it replaces.  Results that do not
converge say why: ``overflow`` (a term overflowed), ``budget`` (the term
budget ran out) or ``divergent`` (a :func:`kml` argument beyond the radius
of convergence).

Batched forms serve the kinetic grid solvers and the residual check.
:class:`ML2Rows` evaluates ``E_{alpha,beta_r}`` for several offsets
``beta_r`` at many arguments in one compensated sum, deferring each
cancelling entry's contour or re-sum until it is asked for.  Its
``take`` returns the value and the convergence flag :func:`ml2` returns,
bit for bit, at every entry, evaluating with :func:`ml2` the entries its
sum did not finish, among them every entry whose gamma argument is not
positive (its one caller, the kinetic solution series, has none).
:func:`kml_batch` evaluates :func:`kml` at many arguments, forming each
term's log-coefficient once for all of them, and returns exactly what
:func:`kml` returns at each.  It sums only the points ``0 < z <= radius``,
whose terms are all positive and so cannot cancel, and hands every other
point to :func:`kml`.  Only IEEE-exact operations are vectorized;
logarithms, powers, exponentials and gamma values come from the scalar
calls the per-point evaluators make.

The coefficient ``(gamma)_{nq,k} / gamma_k(n alpha + beta)`` that
:func:`kml` and the kinetic solution series share is stated once, in
:func:`log_coeff_parts`.  Where one of its gamma arguments underflows to 0
(an extreme ``beta/k`` or ``gamma/k``) or exceeds the range of ``lgamma``,
the sum stops there and the result is unconverged with status
``overflow``.

At ``x = 0`` :func:`ml2` is ``1/Gamma(beta)`` and :func:`kml` is
``1/gamma_k(beta)``, formed by :func:`fracml.specfun.recip_k_gamma`, so a
``beta`` whose Gamma value leaves the double range still gives a value;
where that reciprocal itself is not a double the result is unconverged with
status ``overflow``.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from mpmath import MPContext
from mpmath.libmp import (dps_to_prec, fone, from_float, mpf_add, mpf_cos,
                          mpf_cos_sin, mpf_div, mpf_exp, mpf_log, mpf_mul,
                          mpf_pi, mpf_shift, mpf_sub, round_nearest, to_float)

from .errors import DomainError
from .specfun import is_gamma_pole, recip_gamma, recip_k_gamma, signed_log_gamma
from .summation import SeriesAbort, sum_series, sum_series_batch

DEFAULT_TOL = 1e-12
# The tolerance of the kinetic solution series' inner factors and of its
# forcing (fracml.kinetics): the one tolerance of ml2_value, ML2Rows and
# kml_batch.  _escalation_bound's derivation needs it at most 1e-8.
INNER_TOL = 1e-13
MAX_TERMS = 10_000
MIN_TERMS = 8

_EPS = sys.float_info.epsilon
# |log magnitude| cap before a growing term is declared non-summable.
_LOG_HUGE = 700.0
# ml2 builds a term directly as x**n / Gamma(a) while |a| and |n log|x||
# stay within these limits, and in log form beyond them (Gamma(a) ~ 1/a
# overflows for |a| below about 5.6e-309).
_DIRECT_GAMMA_MIN = 1e-300
_DIRECT_GAMMA_MAX = 170.0
_DIRECT_LOG_MAX = 700.0
# Error-estimate weights (ulps) for directly- and log-constructed terms.
_ERR_DIRECT = 3.0
_ERR_LOG = 60.0


def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError("tol must be a positive finite number")


@dataclass(frozen=True)
class TwoParamML:
    """Parameters of the two-parameter Mittag-Leffler series.

    ``alpha > 0`` is the exponent step (required for convergence on all of
    the real line); ``beta`` is the series offset and may be any finite
    real -- non-positive values only zero out the leading terms.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError("alpha must be finite and > 0")
        if not math.isfinite(self.beta):
            raise DomainError("beta must be finite")


def _valid_exponent_step(q: float) -> bool:
    # Admissible q: the open interval (0, 1) or a positive integer.
    return math.isfinite(q) and (0.0 < q < 1.0 or (q >= 1.0 and q == round(q)))


@dataclass(frozen=True)
class MLParameters:
    """Parameters (k, alpha, beta, gamma, q) of the generalized k-Mittag-
    Leffler function; all of k, alpha, beta, gamma must be positive and q
    must lie in (0, 1) or be a positive integer."""

    k: float
    alpha: float
    beta: float
    gamma: float
    q: float

    def __post_init__(self):
        for name in ("k", "alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be finite and > 0")
        if not _valid_exponent_step(self.q):
            raise DomainError("q must lie in (0, 1) or be a positive integer")


@dataclass(frozen=True)
class SeriesEvaluation:
    """A series value plus truncation diagnostics.

    ``status`` says how :func:`ml2` or :func:`kml` obtained the value
    (``series``, ``contour``, ``extended``) or why it did not converge
    (``overflow``, ``budget``, ``divergent``); see the module docstring.  It
    is None where no evaluator set it.  Equality and ``repr`` ignore it: two
    evaluations are equal when their values and certificates are.
    """

    value: float
    terms_used: int
    tail_bound: float
    converged: bool
    status: Optional[str] = field(default=None, compare=False, repr=False)


_MAX_DPS = 300


# The extended-precision re-sum (_mp_sum) works in this private context, so
# it neither reads nor sets the global mpmath precision, and the lock keeps
# the evaluators safe to call from multiple threads.  Nothing else takes the
# lock: the pole residues use explicit precision.
_MP = MPContext()
_MP_LOCK = threading.Lock()


def _mp_sum(term_mp, abs_sum: float) -> tuple[float, int, float]:
    """Re-sum a cancelling series in extended precision, in one pass.

    Away from its real zeros a cancelling ``E_{alpha,beta}(-x)`` is no
    smaller than about ``1 / abs_sum``: ``E_{1,1}(-x) * sum x**n/n! = 1`` is
    the extreme, and the other cases decay algebraically or like their pole
    residues.  The rounding of the sum stays below about ``abs_sum *
    10**-dps``, so ``dps = 22 + 2 log10(abs_sum)`` keeps it some 22 digits
    below that value, 9 beyond ``INNER_TOL``; an infinite ``abs_sum`` gets
    ``_MAX_DPS``.

    ``term_mp(n)`` builds term ``n`` with the ``_MP`` context, which works at
    ``dps`` digits meanwhile.  The sum stops once three consecutive nonzero
    terms fall below the working precision relative to the largest magnitude
    seen; zero terms (at gamma poles) neither count nor break the run.
    Returns the value, the terms used, and the remaining noise floor as a
    tail bound.
    """
    digits = min(math.log10(max(abs_sum, 1.0)), _MAX_DPS)
    dps = min(_MAX_DPS, 22 + 2 * math.ceil(digits))
    with _MP_LOCK, _MP.workdps(dps):
        total = _MP.mpf(0)
        peak = _MP.mpf(0)
        thresh = _MP.mpf(10) ** (-(dps + 3))
        small = 0
        n = 0
        while n < MAX_TERMS:
            t = term_mp(n)
            total += t
            at = abs(t)
            if at > peak:
                peak = at
            if at > thresh * peak:
                small = 0
            elif at:
                small += 1
            if small >= 3 and n >= 8:
                break
            n += 1
        return float(total), n + 1, abs_sum * 10.0 ** (3 - dps)


def _should_escalate(x, abs_sum, value, err_units, tol):
    # Escalate only for genuinely cancelling alternating sums whose
    # double-precision noise floor exceeds tol * max(|value|, 1e-300), on
    # floats or elementwise on arrays.  That bound is split in two (tol > 0
    # rounds monotonically) so that floats stay Python floats.
    av = abs(value)
    noise = _EPS * err_units
    return ((x < 0.0) & (abs_sum > 4.0 * av) & (noise > tol * av)
            & (noise > tol * 1e-300))


def ml2(p: TwoParamML, x: float, tol: float = DEFAULT_TOL) -> SeriesEvaluation:
    """Evaluate the two-parameter Mittag-Leffler series at real ``x``.

    ``converged`` is True when the geometric tail certificate bounds the
    truncation error by ``tol * max(1, |value|)``.
    """
    return _ml2(p, x, tol, _ml2_contour)


def _ml2(p: TwoParamML, x: float, tol: float,
         contour: Callable) -> SeriesEvaluation:
    """:func:`ml2`, with ``contour`` called in place of
    :func:`_ml2_contour` (:func:`ml2_value` passes one it has computed)."""
    _check_tol(tol)
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if x == 0.0:
        value = recip_gamma(p.beta)
        ok = math.isfinite(value)
        return SeriesEvaluation(value, 1, 0.0, ok,
                                "series" if ok else "overflow")

    alpha, beta = p.alpha, p.beta
    log_ax = math.log(abs(x))
    err_units = 0.0

    def term(n: int) -> float:
        nonlocal err_units
        a = alpha * n + beta
        if a <= 0.0 and is_gamma_pole(a):
            return 0.0
        la = n * log_ax
        if (_DIRECT_GAMMA_MIN <= abs(a) <= _DIRECT_GAMMA_MAX
                and -_DIRECT_LOG_MAX <= la <= _DIRECT_LOG_MAX):
            t = x**n / math.gamma(a)
            if not math.isfinite(t):
                raise SeriesAbort("term overflow")
            err_units += _ERR_DIRECT * abs(t)
            return t
        lg, sg = signed_log_gamma(a)
        logmag = la - lg
        if logmag > _LOG_HUGE:
            raise SeriesAbort("term overflow")
        t = sg * math.exp(logmag)
        if x < 0.0 and n % 2:
            t = -t
        err_units += _ERR_LOG * abs(t)
        return t

    start = _cert_start(alpha, beta)
    if beta > _DIRECT_GAMMA_MAX:
        ml = MLParameters(1.0, alpha, beta, 1.0, 1.0)  # kml's E_{alpha,beta}
        start = max(start, _peak_start(ml, log_ax))
    res = sum_series(term, tol, MAX_TERMS, start)
    value, used, tail = res.value, res.terms, res.tail_bound
    converged, status = res.converged, _series_status(res)
    if converged and _should_escalate(x, res.abs_sum, value, err_units, tol):
        value, used_x, tail, status = _ml2_cancelling(
            alpha, beta, x, res.abs_sum, tol, contour)
        used = max(used, used_x)
    elif res.abort is not None and x < 0.0:
        found = contour(alpha, beta, x, tol)
        if found is not None:
            (value, tail), status, converged = found, "contour", True
    converged = converged and tail <= tol * max(1.0, abs(value))
    return SeriesEvaluation(value, used, tail, converged, status)


# ml2_value's route: how far inside the escalation bound the contour value
# must lie (see _escalation_bound).
_ROUTE_MARGIN = 64.0


def ml2_value(p: TwoParamML, x: float) -> tuple[float, bool]:
    """``(value, converged)`` of :func:`ml2` at ``INNER_TOL``, bit for bit,
    without the double series where it would certainly end on the contour.

    Where :func:`_escalation_bound` gives a bound ``B > 0`` (only for ``0 <
    alpha <= 2``, ``beta >= 1`` and ``x < 0``) the contour is computed
    first, and a certified value of magnitude below ``B`` is returned as it
    is: :func:`ml2` returns that same contour value, converged, whether its
    series escalates or aborts on a term overflow, and a contour value that
    small makes its series do one or the other.  Every other factor is
    :func:`ml2`'s; one whose contour was computed and not taken is handed
    that contour, so no factor computes it twice.
    """
    x = float(x)
    bound = _escalation_bound(p.alpha, p.beta, x)
    if bound == 0.0:
        ev = ml2(p, x, INNER_TOL)
    else:
        found = _ml2_contour(p.alpha, p.beta, x, INNER_TOL)
        if found is not None and abs(found[0]) < bound:
            return found[0], True
        ev = _ml2(p, x, INNER_TOL, lambda *args: found)
    return ev.value, ev.converged


def _escalation_bound(alpha: float, beta: float, x: float) -> float:
    """A bound ``B`` such that :func:`ml2` at ``(alpha, beta, x, tol)``,
    ``tol = INNER_TOL``, returns its contour value whenever that value is
    certified and smaller than ``B`` in magnitude; 0.0 where no such bound
    is established, or where the contour is not worth computing up front.

    For ``0 < alpha <= 2``, ``beta >= 1`` and ``x < 0`` the terms
    ``|x|**n / Gamma(alpha n + beta)`` have no gamma poles and are
    unimodal: their ratio ``|x| Gamma(alpha n + beta) / Gamma(alpha n +
    alpha + beta)`` falls with ``n`` (Gamma is log-convex).  With ``beta <=
    170`` none of them up to the peak is below ``1/Gamma(170)``, so none
    underflows to a zero that could pass the flat-tail certificate, and the
    ratio test cannot pass before the peak: a series that certifies has
    summed its peak term, so its ``abs_sum`` is at least any term ``L``,
    taken here at the estimated peak ``(|x|**(1/alpha) - beta) / alpha``.
    Its ``err_units`` is at least ``3 abs_sum``, so :func:`_should_escalate`
    holds once the series value is below ``L * min(1/4, 3 eps / tol)``.
    That value is the function value plus a truncation error of at most
    ``tol * max(1, |value|)`` plus rounding noise, a small multiple of ``eps
    abs_sum``, which ``tol <= 1e-8`` keeps negligible in both tests.  So
    ``B`` is that threshold divided by ``_ROUTE_MARGIN`` (64), and ``B >
    tol`` covers the truncation: the contour, certified to about ``tol /
    10`` relative, needs only to be right within a factor of about 60.

    The series must also not run out of terms: the term of index ``M =
    MAX_TERMS - 1``, past the peak, must be below ``tol / 2`` with a ratio
    below 0.4 (and the certificate may start by then), so the sum certifies
    at ``M`` at the latest, unless a term overflows first, which
    sends it to the contour too.  Last, ``B`` must exceed ``1/Gamma(beta)``
    (the series' first term): a cancelling value is rarely larger, so a
    contour computed for the bound is almost always taken.
    """
    if not (alpha <= 2.0 and 1.0 <= beta <= _DIRECT_GAMMA_MAX
            and -math.inf < x < 0.0):
        return 0.0
    log_ax = math.log(-x)
    m_last = MAX_TERMS - 1
    lg_last = math.lgamma(alpha * m_last + beta)
    if (m_last * log_ax - lg_last > math.log(0.5 * INNER_TOL)
            or log_ax - (math.lgamma(alpha * (m_last + 1) + beta) - lg_last)
            > math.log(0.4)
            or _cert_start(alpha, beta) > m_last):
        return 0.0
    # Past the last index the ratio is below 1, so the peak lies before it
    # and |x|**(1/alpha) < alpha MAX_TERMS + beta stays finite.
    m = int(min(max((math.exp(log_ax / alpha) - beta) / alpha, 0.0), m_last))
    log_peak = min(m * log_ax - math.lgamma(alpha * m + beta), _LOG_HUGE)
    bound = (math.exp(log_peak) * min(0.25, 3.0 * _EPS / INNER_TOL)
             / _ROUTE_MARGIN)
    return bound if bound > max(INNER_TOL, 1.0 / math.gamma(beta)) else 0.0


def _cert_start(alpha: float, beta: float, k: float = 1.0) -> int:
    """The index from which a series whose ``n``-th gamma argument is
    ``(alpha n + beta) / k`` may certify: the least ``n >= MIN_TERMS`` with
    ``(alpha n + beta) / k >= 2`` as rounded in double precision.  Past it
    the argument is beyond all gamma poles and in Gamma's increasing range,
    so zero terms cannot fool the certificate.

    The rule of :func:`ml2` and :class:`ML2Rows` (``k = 1``, where the
    division is exact) and of :func:`kml` and :func:`kml_batch`.  The
    rounded argument is nondecreasing in ``n`` (``alpha, k > 0``), so a
    bisection finds the index.  Where no index below ``MAX_TERMS`` qualifies
    the result is ``MAX_TERMS`` (capped at ``sys.maxsize``, far beyond any
    index a sum reaches), which no summation loop tests.  :func:`ml2` and
    :func:`kml` start no earlier than :func:`_peak_start` either.
    """
    def ok(n: int) -> bool:
        return (alpha * n + beta) / k >= 2.0

    if ok(MIN_TERMS):
        return MIN_TERMS
    return MIN_TERMS + bisect.bisect_left(
        range(MIN_TERMS, min(MAX_TERMS, sys.maxsize)), True, key=ok)


def _peak_start(p: MLParameters, log_az: float) -> int:
    """The least ``n`` at which the :func:`kml` term ratio at ``q = 1``,
    ``|z| k**(1 - s) (c0 + n) / (n + 1) Gamma(a) / Gamma(a + s)`` with ``s =
    alpha / k``, ``a = (alpha n + beta) / k`` and ``c0 = gamma / k``, is
    below 1 (``log_az = log |z|``); ``MAX_TERMS`` where no index below it
    is, and 0 where ``q != 1`` or ``c0 < 1``.  At ``k = gamma = 1`` this is
    the :func:`ml2` ratio, the added logarithms exactly 0.

    Before the peak the terms can underflow to zeros that pass the flat-tail
    test, while the geometric one cannot pass.  Gamma is log-convex and
    ``(c0 + n) / (n + 1)`` does not rise for ``c0 >= 1``, so the ratio falls
    and a bisection finds the index.  :func:`ml2` needs the rule only at
    ``beta > 170``: no term before its peak is below ``1/Gamma(170)``
    otherwise (see :func:`_escalation_bound`).
    """
    if p.q != 1.0 or p.gamma < p.k:
        return 0
    k, alpha, beta, c0 = p.k, p.alpha, p.beta, p.gamma / p.k
    s = alpha / k
    shift = log_az + (1.0 - s) * math.log(k)

    def past_peak(n: int) -> bool:
        a = (alpha * n + beta) / k
        if a > _DIRECT_GAMMA_MAX:
            # log Gamma(a + s) - log Gamma(a) by Stirling's formula, which
            # neither cancels nor overflows: off by below s / (12 a**2), it
            # moves the start at most into the peak, where neither test passes.
            rise = ((a - 0.5) * math.log1p(s / a)
                    + s * (math.log(a + s) - 1.0))
        else:
            rise = signed_log_gamma(a + s)[0] - signed_log_gamma(a)[0]
        return rise > shift + math.log((c0 + n) / (n + 1))

    return bisect.bisect_left(range(MAX_TERMS), True, key=past_peak)


def _series_status(res) -> str:
    # The evaluators' terms raise SeriesAbort only on an overflow: of a term,
    # or of a coefficient's gamma value (log_coeff_parts).
    if res.converged:
        return "series"
    return "overflow" if res.abort is not None else "budget"


def _ml2_cancelling(alpha: float, beta: float, x: float, abs_sum: float,
                    tol: float,
                    contour: Callable) -> tuple[float, int, float, str]:
    """``E_{alpha,beta}(x)`` at ``x < 0`` where the double-precision sum
    (with absolute term sum ``abs_sum``) cancels too much to meet ``tol``.

    The one place both :func:`ml2` and :meth:`ML2Rows.take` send such an
    entry: the contour (``contour``, which is :func:`_ml2_contour` or stands
    in for it) when it certifies, otherwise the extended-precision re-sum.
    Returns ``(value, terms, tail_bound, status)``; ``terms`` counts the
    extended-precision terms, 0 for the contour.
    """
    found = contour(alpha, beta, x, tol)
    if found is not None:
        return found[0], 0, found[1], "contour"
    value, used, tail = _ml2_extended(alpha, beta, x, abs_sum)
    return value, used, tail, "extended"


class PowerTable:
    """Powers ``x_i**m`` of fixed nonzero points for :class:`ML2Rows`.

    Each column is computed once, with the same scalar ``float`` power
    :func:`ml2` uses (numpy's vectorized power differs from it in the last
    bit on a fraction of inputs), and shared by every ``E_{alpha,beta}``
    evaluated at these points.  Entries whose ``|m log|x_i||`` exceeds the
    direct-branch limit are NaN.
    """

    def __init__(self, xs: list):
        self.xs = xs
        self.x = np.array(xs)
        self.log_ax = np.array([math.log(abs(x)) for x in xs])
        # j * |log|x_i|| rounds monotonically in |log|x_i||, so column j is
        # all direct when it holds for the largest.
        self._max_log = float(np.abs(self.log_ax).max(initial=0.0))
        self._columns: list = []

    def column(self, m: int) -> np.ndarray:
        """The powers x_i**m; NaN outside the direct branch."""
        while len(self._columns) <= m:
            j = len(self._columns)
            if j * self._max_log <= _DIRECT_LOG_MAX:
                powers = np.fromiter(map(pow, self.xs, itertools.repeat(j)),
                                     float, len(self.xs))
            else:  # skip the powers that could overflow
                la = j * self.log_ax
                direct = (-_DIRECT_LOG_MAX <= la) & (la <= _DIRECT_LOG_MAX)
                powers = np.array([x**j if ok else math.nan
                                   for x, ok in zip(self.xs, direct.tolist())])
            self._columns.append(powers)
        return self._columns[m]


class ML2Rows:
    """``E_{alpha,beta_r}(x_i)`` for several offsets ``beta_r`` (rows) at the
    points ``x_i`` of a :class:`PowerTable` (columns), summed to
    ``INNER_TOL`` in one :func:`~fracml.summation.sum_series_batch` call.

    Each row follows :func:`ml2`'s term, direct-branch and certificate
    rules for its own ``beta_r``, with one scalar ``math.gamma`` per row and
    term.  A gamma argument outside ``[_DIRECT_GAMMA_MIN,
    _DIRECT_GAMMA_MAX]`` -- zero, negative or a pole among them -- is out of
    the branch, so its entries are :func:`ml2`'s: the kinetic solution
    series, the one caller, only has offsets ``b(n) >= 1``.  A cancelling
    entry goes to :func:`_ml2_cancelling` only when :meth:`take` asks for
    it.
    """

    def __init__(self, alpha: float, betas: list, powers: PowerTable,
                 idx: np.ndarray):
        self.alpha, self.betas = alpha, betas
        self.width = width = idx.size
        rows = np.repeat(np.arange(len(betas)), width)
        points = np.tile(idx, len(betas))
        self.x = x = powers.x[points]
        err_units = np.zeros(rows.size)

        live = [None, None, None]   # pos, and its rows and points

        def term(m: int, pos: np.ndarray) -> tuple:
            den = []
            for beta in betas:
                a = alpha * m + beta
                den.append(math.gamma(a) if _DIRECT_GAMMA_MIN <= a
                           <= _DIRECT_GAMMA_MAX else math.nan)
            if live[0] is not pos:
                live[:] = pos, rows[pos], points[pos]
            t = powers.column(m)[live[2]] / np.array(den)[live[1]]
            err_units[pos] += _ERR_DIRECT * np.abs(t)
            # Not finite: an overflowing term, a NaN power from outside the
            # branch, or a NaN gamma value from outside it.
            return t, ~np.isfinite(t)

        start = [_cert_start(alpha, beta) for beta in betas]
        res = sum_series_batch(term, rows.size, INNER_TOL, MAX_TERMS,
                               np.repeat(start, width))
        self.res = res
        self.escalate = res.converged & _should_escalate(
            x, res.abs_sum, res.value, err_units, INNER_TOL)

    def take(self, row: int, cols: np.ndarray) -> tuple:
        """``(value, converged)`` of row ``row`` at columns ``cols``, each
        entry equal bit for bit to the fields of :func:`ml2` at
        ``INNER_TOL``.  An entry the batch did not sum to the end (an abort,
        an exhausted budget, or a term outside the direct branch) is
        evaluated by :func:`ml2`."""
        f = row * self.width + cols
        value, settled = self.res.value[f], self.res.converged[f]
        beta = self.betas[row]
        for j in np.flatnonzero(self.escalate[f]).tolist():
            i = f[j]
            v, _, tail, _ = _ml2_cancelling(
                self.alpha, beta, float(self.x[i]),
                float(self.res.abs_sum[i]), INNER_TOL, _ml2_contour)
            value[j] = v
            settled[j] = tail <= INNER_TOL * max(1.0, abs(v))
        for j in np.flatnonzero(~self.res.converged[f]).tolist():
            ev = ml2(TwoParamML(self.alpha, beta), float(self.x[f[j]]),
                     INNER_TOL)
            value[j], settled[j] = ev.value, ev.converged
        return value, settled


def _ml2_extended(alpha: float, beta: float, x: float,
                  abs_sum: float) -> tuple[float, int, float]:
    xm, al, be = _MP.mpf(x), _MP.mpf(alpha), _MP.mpf(beta)

    def term(n: int):
        a = al * n + be
        if a <= 0 and a == _MP.floor(a):
            return _MP.mpf(0)
        return xm**n / _MP.gamma(a)

    return _mp_sum(term, abs_sum)


# Contour parameters after Garrappa, "Numerical evaluation of two and three
# parameter Mittag-Leffler functions", SIAM J. Numer. Anal. 53 (2015): the
# initial accuracy target (his default), and the node count above which the
# target is relaxed tenfold.  _CONTOUR_SAFETY is C in the relative
# certificate C * est <= tol * |value|.
_CONTOUR_EPS = 1e-15
_CONTOUR_MAX_NODES = 200
_CONTOUR_SAFETY = 10.0
_LOG_EPS = math.log(_EPS)
# The relative-accuracy placements (see _ml2_contour): the parabola vertices
# tried after the saddle, the nodes of the coarse rule, the decay e**-76
# (about 1e-33) of e**s at its last node, and the least distance, in the
# contour's parameter plane, from a pole to the real axis.
_RELATIVE_MUS = (0.5, 2.0, 4.0, 8.0, 12.0, 20.0)
_RELATIVE_NODES = 160
_RELATIVE_DECAY = 76.0
_POLE_GAP = 0.05
# Precision of the pole residues: 34 digits (116 bits), about quadruple
# precision, and its unit roundoff as mpmath defines eps.
_RESIDUE_PREC = dps_to_prec(34)
_RESIDUE_EPS = math.ldexp(1.0, 1 - _RESIDUE_PREC)
# The most the phase of e**s s**(alpha-beta) may turn between two nodes of
# the coarse rule: the difference of the two rules cannot see an oscillation
# that both alias alike.
_PHASE_STEP = math.pi / 2.0


def _contour_rb(phi1: float, p: float, log_eps: float) -> Optional[tuple]:
    """Garrappa's ``OptimalParam_RB`` for the region between the origin, a
    singularity of strength ``p``, and the simple poles at level ``phi1``
    (``phi(s) = (Re s + |s|) / 2``).  Returns ``(mu, h, N)``, or None when
    the region is not admissible."""
    log_f_max = log_eps - _LOG_EPS
    sq1 = min(math.sqrt(phi1), 2.0 * math.sqrt(log_f_max))
    if p < 1e-14:
        log_f_min = math.log(1.01)
    else:
        # f_min = 1.01 * sq1 / sq1**max(p, 1), in logs: a strong singularity
        # at the origin overflows it when the pole is close.
        log_f_min = math.log(1.01) + (1.0 - max(p, 1.0)) * math.log(sq1)
    if log_f_min >= log_f_max:
        return None
    f_max, f_min = math.exp(log_f_max), math.exp(log_f_min)
    if p < 1e-14:
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        sb0, sb1 = 0.0, 2.0 * sq1 / (2.0 + 1.0 / f_bar)
    else:
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp, fq = f_bar ** (-1.0 / p), 1.0 / f_bar
        w = -phi1 / log_eps
        den = 2.0 + w - (1.0 + w) * fp + fq
        sb0, sb1 = fp * sq1 / den, (2.0 + w - (1.0 + w) * fp) * sq1 / den
    log_e = log_eps - math.log(f_bar)
    w = -sb1 * sb1 / log_e
    mu = (((1.0 + w) * sb0 + sb1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_e * (sb1 - sb0) / ((1.0 + w) * sb0 + sb1)
    return mu, h, math.ceil(math.sqrt(1.0 - log_e / mu) / h)


def _contour_ru(phi0: float, p: float, log_eps: float) -> Optional[tuple]:
    """Garrappa's ``OptimalParam_RU`` for the unbounded region right of the
    singularity of strength ``p`` at level ``phi0``.  Returns ``(mu, h,
    N)``, or None when the region is not admissible."""
    sq0 = math.sqrt(phi0)
    phib = 1.01 * phi0 if phi0 > 0.0 else 0.01
    sqb = math.sqrt(phib)
    for _ in range(100):
        lp = log_eps / phib
        n = math.ceil(phib / math.pi
                      * (1.0 - 1.5 * lp + math.sqrt(1.0 - 2.0 * lp)))
        a = math.pi * n / phib
        sq_mu = sqb * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        # Stop once f_bar = ((sqb - sq0) / sq_mu)**-p lies in (1, 10).
        log_fbar = -p * math.log((sqb - sq0) / sq_mu)
        if p < 1e-14 or 0.0 < log_fbar < math.log(10.0):
            break
        sqb = 5.0 ** (-1.0 / p) * sq_mu + sq0
        phib = sqb * sqb
    else:
        return None
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    threshold = log_eps - _LOG_EPS
    if mu > threshold:
        # Keep round-off under control: move the contour left.
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * math.sqrt(mu)
        phib = (q + sq0) ** 2
        if phib >= threshold:
            return None
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_eps))
        u = math.sqrt(-phib / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_eps / 2.0 / math.pi / (u * w - 1.0))
        h = w / n
    return mu, h, n


def _pole_level(alpha: float, x: float) -> Optional[float]:
    """``phi(s*) = (Re s* + |s*|) / 2`` of the poles ``s* = |x|**(1/alpha)
    e**(+-i pi/alpha)`` of ``s**(alpha-beta) / (s**alpha - x)``, or None
    where there is none outside the branch cut (``alpha <= 1``, or a pole on
    it).  The parabola ``mu (1 + i u)**2`` is the level set ``phi = mu``."""
    if alpha <= 1.0:
        return None
    pole = cmath.rect((-x) ** (1.0 / alpha), math.pi / alpha)
    phi = (pole.real + abs(pole)) / 2.0
    return phi if phi > 1e-15 else None


def _contour_params(alpha: float, beta: float,
                    phi1: Optional[float]) -> Optional[tuple]:
    """Garrappa's contour for ``E_{alpha,beta}(x)``, ``x < 0``, ``alpha <=
    2``, whose poles lie at level ``phi1`` (:func:`_pole_level`): ``(mu, h,
    N)``, or None.

    The singularities of ``s**(alpha-beta) / (s**alpha - x)`` are the branch
    point at the origin, of strength ``max(0, 2 (beta - alpha - 1))``, and
    for ``alpha > 1`` the simple poles ``|x|**(1/alpha) e**(+-i pi/alpha)``.
    Of the regions between them the one needing the fewest nodes wins; while
    that is more than ``_CONTOUR_MAX_NODES`` the accuracy target is relaxed
    tenfold, and the certificate of :func:`_ml2_contour` judges the result.
    """
    p0 = max(0.0, 2.0 * (beta - alpha - 1.0))
    log_eps = math.log(_CONTOUR_EPS)
    while log_eps < 0.0:
        if phi1 is None:
            regions = [_contour_ru(0.0, p0, log_eps)]
        else:
            regions = [_contour_rb(phi1, p0, log_eps)]
            if phi1 < log_eps - _LOG_EPS:
                regions.append(_contour_ru(phi1, 1.0, log_eps))
        best = min(filter(None, regions), key=lambda par: par[2],
                   default=None)
        if best is not None and best[2] <= _CONTOUR_MAX_NODES:
            return best
        log_eps += math.log(10.0)
    return None


def _contour_placements(alpha: float, beta: float, phi1: Optional[float]):
    """The parabolas ``(mu, h, N)`` :func:`_ml2_contour` tries, in order:
    Garrappa's (:func:`_contour_params`), then the relative-accuracy ones.

    These put the vertex at ``beta - alpha + 1`` (if positive), next to the
    saddle ``beta - alpha`` of ``e**s s**(alpha-beta)``, where the
    integrand is not much larger than a small value and its phase turns
    slowly, and then at the fixed ``_RELATIVE_MUS``.  Each has
    ``_RELATIVE_NODES`` nodes up to the ``u`` where ``|e**s|`` has decayed
    to ``e**-_RELATIVE_DECAY``.  A vertex is skipped when the poles lie
    within ``_POLE_GAP`` of the real axis of the parameter plane, where they
    sit at ``Im u = 1 - sqrt(phi1 / mu)``.
    """
    garrappa = _contour_params(alpha, beta, phi1)
    if garrappa is not None:
        yield garrappa
    for mu in (beta - alpha + 1.0, *_RELATIVE_MUS):
        if mu <= 0.0 or (phi1 is not None
                         and abs(1.0 - math.sqrt(phi1 / mu)) < _POLE_GAP):
            continue
        u_max = math.sqrt(1.0 + _RELATIVE_DECAY / mu)
        yield mu, u_max / _RELATIVE_NODES, _RELATIVE_NODES


@functools.lru_cache(maxsize=4096)
def _pole(alpha: float, x: float) -> tuple:
    """The parts of :func:`_pole_residues` that depend only on ``(alpha,
    x)``: ``alpha``, ``log r``, ``theta = pi/alpha``, ``r cos theta`` and
    ``r sin theta`` as raw mpf values, then ``r`` and ``log r`` as doubles.

    The inner factors of a solution share one ``alpha`` (its order ``nu``),
    and those of one point share its ``x``; a batched grid visits them row
    by row, point after point.  So the parts are cached by ``(alpha, x)``.
    """
    prec, rnd = _RESIDUE_PREC, round_nearest
    a = from_float(alpha)
    log_r = mpf_div(mpf_log(from_float(-x), prec, rnd), a, prec, rnd)
    r = mpf_exp(log_r, prec, rnd)
    theta = mpf_div(mpf_pi(prec, rnd), a, prec, rnd)
    cos_t, sin_t = mpf_cos_sin(theta, prec, rnd)
    return (a, log_r, theta, mpf_mul(r, cos_t, prec, rnd),
            mpf_mul(r, sin_t, prec, rnd), to_float(r, rnd=rnd),
            to_float(log_r, rnd=rnd))


def _pole_residues(alpha: float, beta: float, x: float) -> tuple:
    """The real part of the residues ``e**s* (s*)**(1-beta) / alpha`` of the
    conjugate poles ``s* = r e**(+-i pi/alpha)``, ``r = |x|**(1/alpha)``,
    computed with ``_RESIDUE_PREC`` bits, rounded to nearest: ``(hi, lo,
    err)``, where ``hi + lo`` is the sum as two doubles and ``err`` bounds
    its error.

    The arithmetic is mpmath's ``libmp`` at an explicit precision, so it
    neither reads nor sets the global mpmath context and takes no lock.
    """
    prec, rnd = _RESIDUE_PREC, round_nearest
    a, log_r, theta, r_cos, r_sin, r, log_r_f = _pole(alpha, x)
    b1 = mpf_sub(fone, from_float(beta), prec, rnd)
    # |Res| and Re Res: (s*)**(1-beta) = e**((1-beta)(log r + i theta))
    power = mpf_add(r_cos, mpf_mul(b1, log_r, prec, rnd), prec, rnd)
    mag = mpf_div(mpf_shift(mpf_exp(power, prec, rnd), 1), a, prec, rnd)
    phase = mpf_add(r_sin, mpf_mul(b1, theta, prec, rnd), prec, rnd)
    re = mpf_mul(mag, mpf_cos(phase, prec, rnd), prec, rnd)
    hi = to_float(re, rnd=rnd)
    lo = to_float(mpf_sub(re, from_float(hi), prec, rnd), rnd=rnd)
    # A few eps in each operation, magnified by the exponent r cos theta, the
    # power's exponent (1 - beta) log r and the phase.
    cond = 1.0 + r + abs(1.0 - beta) * (abs(log_r_f) + math.pi)
    return hi, lo, 4.0 * _RESIDUE_EPS * cond * to_float(mag, rnd=rnd)


def _ml2_contour(alpha: float, beta: float, x: float,
                 tol: float) -> Optional[tuple[float, float]]:
    """``E_{alpha,beta}(x)`` for ``0 < alpha <= 2`` and ``x < 0`` as the
    inverse Laplace transform of ``s**(alpha-beta) / (s**alpha - x)`` at
    ``t = 1``, by the trapezoidal rule on a parabola ``mu (1 + i u)**2``,
    plus the residues of the poles the parabola leaves to its right.

    The parabolas of :func:`_contour_placements` are tried in order: first
    Garrappa's, chosen for absolute accuracy, then vertices chosen for
    accuracy relative to a small value.  One whose coarse step lets the
    phase of ``e**s s**(alpha-beta)`` turn by more than ``_PHASE_STEP`` is
    skipped.  The first that passes the certificate gives the result:
    ``(value, est)`` with ``_CONTOUR_SAFETY * est <= tol * |value|``, and
    ``value`` a finite normal double.  None when no placement passes (also
    for ``alpha > 2``).

    ``est`` is an error estimate: the difference from the rule with step
    ``h`` on ``N`` nodes, evaluated on the same nodes as the returned rule
    (step ``h/2`` on ``ceil(2.5 N)`` nodes, so it also reaches further),
    plus the rounding ``eps * (1 + |alpha - beta|) * sum |w_j e**s_j
    F(s_j)|`` of the sum and the error of the residues, which are computed
    once, with ``_RESIDUE_PREC`` bits, by :func:`_pole_residues`.
    """
    if alpha > 2.0:
        return None
    phi1 = _pole_level(alpha, x)
    residues = None
    for mu, h, n in _contour_placements(alpha, beta, phi1):
        # On the parabola that phase turns at the rate 2 mu + 2 (alpha -
        # beta) / (1 + u**2), monotone in u.
        if 2.0 * h * max(abs(mu + alpha - beta), mu) > _PHASE_STEP:
            continue
        u = (0.5 * h) * np.arange(math.ceil(2.5 * n) + 1)
        with np.errstate(all="ignore"):
            z = mu * (1.0 + 1j * u) ** 2
            # e**z z**(alpha-beta) as one exponential, so neither factor
            # under- or overflows alone.
            f = (np.exp(z + (alpha - beta) * np.log(z)) / (z ** alpha - x)
                 * (2.0 * mu * (1j - u)))
            f[0] *= 0.5
            # The integrand at -u is minus the conjugate of that at u, so
            # the rule over nodes -m..m is (step / pi) Im of the sum over
            # 0..m with the middle node halved.
            fine = 0.5 * h / math.pi * f.sum().imag
            coarse = h / math.pi * f[:2 * n + 1:2].sum().imag
            # The rounding of z**(alpha-beta) grows with its exponent.
            rounding = (_EPS * (1.0 + abs(alpha - beta))
                        * 0.5 * h / math.pi * np.abs(f).sum())
            est = abs(fine - coarse) + rounding
        value, est = float(fine), float(est)
        if phi1 is not None and phi1 > mu:
            if residues is None:
                residues = _pole_residues(alpha, beta, x)
            hi, lo, err = residues
            value = value + hi + lo
            est += err
        if (sys.float_info.min <= abs(value) < math.inf
                and _CONTOUR_SAFETY * est <= tol * abs(value)):
            return value, est
    return None


def kml(p: MLParameters, z: float,
        tol: float = DEFAULT_TOL) -> SeriesEvaluation:
    """Evaluate the generalized k-Mittag-Leffler series at real ``z``.

    Terms are assembled in log space from the step-k Pochhammer ratio, the
    step-k gamma and the factorial; convergence semantics match :func:`ml2`.
    Beyond the radius of convergence (:func:`_radius`) the result is NaN with
    ``converged=False`` and status ``divergent``, without summing a term.
    """
    _check_tol(tol)
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("z must be finite")
    if z == 0.0:
        value = recip_k_gamma(p.beta, p.k)
        ok = math.isfinite(value)
        return SeriesEvaluation(value, 1, 0.0, ok,
                                "series" if ok else "overflow")
    if abs(z) > _radius(p):
        return SeriesEvaluation(math.nan, 0, math.inf, False, "divergent")
    coeff = log_coeff_parts(p)
    log_az = math.log(abs(z))
    err_units = 0.0

    def term(n: int) -> float:
        nonlocal err_units
        num, pw, lg = coeff(n)
        logmag = (num - ((pw + lg) + math.lgamma(n + 1.0))) + n * log_az
        if logmag > _LOG_HUGE:
            raise SeriesAbort("term overflow")
        t = math.exp(logmag)
        if z < 0.0 and n % 2:
            t = -t
        err_units += _ERR_LOG * abs(t)
        return t

    start = max(_cert_start(p.alpha, p.beta, p.k), _peak_start(p, log_az))
    res = sum_series(term, tol, MAX_TERMS, start)
    value, used, tail = res.value, res.terms, res.tail_bound
    status = _series_status(res)
    if res.converged and _should_escalate(z, res.abs_sum, value, err_units, tol):
        value, used_mp, tail = _kml_extended(p, z, res.abs_sum)
        used, status = max(used, used_mp), "extended"
    converged = res.converged and tail <= tol * max(1.0, abs(value))
    return SeriesEvaluation(value, used, tail, converged, status)


def _radius(p: MLParameters) -> float:
    """The radius of convergence of the kml series in ``z``.

    The term ratio behaves like ``k q**q / (alpha/k)**(alpha/k) *
    n**(q - alpha/k - 1)``: for ``q > 1 + alpha/k`` the radius is 0,
    whatever the early terms suggest at tiny ``|z|``; at ``q == 1 +
    alpha/k`` it is ``(alpha/k)**(alpha/k) / (k q**q)``; below, infinite.
    """
    r = p.alpha / p.k
    if p.q != 1.0 + r:
        return 0.0 if p.q > 1.0 + r else math.inf
    # r log r -> 0 where alpha/k underflows to 0.
    r_log_r = r * math.log(r) if r else 0.0
    try:
        return math.exp(r_log_r - math.log(p.k) - p.q * math.log(p.q))
    except OverflowError:
        return math.inf


def log_coeff_parts(p: MLParameters) -> Callable[[int], tuple]:
    """n -> ``(log (gamma)_{nq,k}, (a - 1) log k, lgamma(a))``, ``a =
    (alpha n + beta) / k``: the parts of the log-coefficient ``log
    (gamma)_{nq,k} - log gamma_k(a k)`` that :func:`kml` and the kinetic
    solution series share.  Each caller combines them in its own order,
    which fixes its rounding: the solution series as ``(num - pow) - lg``,
    :func:`kml` and :func:`kml_batch` as ``num - ((pow + lg) + lgamma(n +
    1))``.

    Where a gamma argument (``a`` or ``gamma/k + n q``) has underflowed to 0
    or passed about 2.6e305, its log-gamma is ``inf``
    (:func:`fracml.specfun.signed_log_gamma`), and so the coefficient is not
    a finite double: the call raises :class:`SeriesAbort`, so the sum stops
    there, unconverged.
    """
    k, alpha, beta, g, q = p.k, p.alpha, p.beta, p.gamma, p.q
    log_k = math.log(k)
    c0 = g / k
    lg_c0 = signed_log_gamma(c0)[0]  # if inf, parts(0) raises as well

    def parts(n: int) -> tuple:
        a = (alpha * n + beta) / k
        lg_c = signed_log_gamma(c0 + n * q)[0]
        lg = signed_log_gamma(a)[0]
        if lg_c == math.inf or lg == math.inf:
            raise SeriesAbort("coefficient overflow")
        return n * q * log_k + lg_c - lg_c0, (a - 1.0) * log_k, lg

    return parts


def kml_batch(p: MLParameters, zs: list) -> tuple:
    """Evaluate the generalized k-Mittag-Leffler series at every real ``zs[i]``
    at once, to ``INNER_TOL``.

    Returns ``(value, terms_used, tail_bound, converged)`` arrays aligned
    with ``zs``, each entry equal bit for bit to the field of :func:`kml` at
    ``zs[i]`` and ``INNER_TOL``.  Only the points ``0 < z <= radius`` are
    summed here: their terms are all positive, so the sum cannot cancel and
    never escalates.  The log-coefficient of each term is formed once for
    all of them with :func:`kml`'s scalar calls; each point adds its own ``n
    log z`` and takes a scalar ``math.exp``.  A point that aborts or
    exhausts the budget keeps the batch's result, which is :func:`kml`'s.
    Every other point (``z <= 0``, beyond the radius of convergence) is
    evaluated by :func:`kml`.
    """
    zs = [float(z) for z in zs]
    z = np.array(zs)
    if not np.isfinite(z).all():
        raise DomainError("z must be finite")
    value = np.zeros(z.size)
    used = np.zeros(z.size, dtype=np.int64)
    tail = np.zeros(z.size)
    settled = np.zeros(z.size, dtype=bool)
    summed = (z > 0.0) & (z <= _radius(p))
    idx = np.flatnonzero(summed)
    if idx.size:
        coeff = log_coeff_parts(p)
        log_az = np.array([math.log(zs[i]) for i in idx.tolist()])

        def term(n: int, pos: np.ndarray) -> tuple:
            try:
                num, pw, lg = coeff(n)
            except SeriesAbort:  # every point aborts; kml says why
                return np.zeros(pos.size), np.ones(pos.size, dtype=bool)
            log_c = num - ((pw + lg) + math.lgamma(n + 1.0))
            logmag = log_c + n * log_az[pos]
            over = logmag > _LOG_HUGE
            logmag[over] = 0.0  # an aborting term is not used
            t = np.fromiter(map(math.exp, logmag.tolist()), float, pos.size)
            return t, over

        # kml's starts; the peak moves out with z, so test the largest first.
        start = _cert_start(p.alpha, p.beta, p.k)
        if _peak_start(p, float(log_az.max())) > start:
            start = np.array([max(start, _peak_start(p, v))
                              for v in log_az.tolist()])
        res = sum_series_batch(term, idx.size, INNER_TOL, MAX_TERMS, start)
        value[idx], used[idx], tail[idx] = res.value, res.terms, res.tail_bound
        settled[idx] = res.converged
    for i in np.flatnonzero(~summed).tolist():
        ev = kml(p, zs[i], INNER_TOL)
        value[i], used[i], tail[i] = ev.value, ev.terms_used, ev.tail_bound
        settled[i] = ev.converged
    return value, used, tail, settled


def _kml_extended(p: MLParameters, z: float,
                  abs_sum: float) -> tuple[float, int, float]:
    km, al, be = _MP.mpf(p.k), _MP.mpf(p.alpha), _MP.mpf(p.beta)
    gm, qm, zm = _MP.mpf(p.gamma), _MP.mpf(p.q), _MP.mpf(z)

    def term(n: int):
        c0 = gm / km
        num = km ** (n * qm) * _MP.gamma(c0 + n * qm) / _MP.gamma(c0)
        a = (al * n + be) / km
        den = km ** (a - 1) * _MP.gamma(a) * _MP.factorial(n)
        return num * zm**n / den

    return _mp_sum(term, abs_sum)
