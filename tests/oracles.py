"""Extended-precision reference evaluations used as independent test oracles.

Everything here is brute force on purpose: plain partial sums, direct
products and adaptive quadrature in mpmath, sharing no code with the
implementations under test.

The last section holds reference helpers that no library code calls: the
plain rising factorial, ``ln Gamma``, the two-step form of the step-s gamma
function (built on the library's ``k_gamma``, whose scaling identity it
exercises), the scalar loop that ``mittag.kml_batch`` must equal point for
point (built on the library's rules), and the table of the paper's eighteen
special-case substitutions.
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

import fracml.mittag as mittag
from fracml.errors import DomainError
from fracml.mittag import MLParameters, SeriesEvaluation
from fracml.specfun import _as_count, _check_finite, k_gamma, recip_k_gamma
from fracml.summation import SeriesAbort, sum_series

DPS = 50


@lru_cache(maxsize=None)
def mp_ml2_partial(alpha, beta, x, terms):
    """Partial sum of sum_n x**n / Gamma(alpha n + beta) over n < terms.

    A pure function of its arguments at DPS digits, so it is memoized: the
    solution oracles below repeat the same inner series across test cases.
    """
    with mp.workdps(DPS):
        alpha, beta, x = mpf(alpha), mpf(beta), mpf(x)
        total = mpf(0)
        for n in range(terms):
            a = alpha * n + beta
            if a <= 0 and a == mp.floor(a):
                continue
            total += x**n / mp.gamma(a)
        return total


def mp_ml2(alpha, beta, x, terms=400):
    return mp_ml2_partial(alpha, beta, x, terms)


@lru_cache(maxsize=None)
def mp_ml2_sum(alpha, beta, x):
    """E_{alpha,beta}(x) to about DPS significant digits, by summing the
    series term by term in mpmath.

    The largest term is about e**(|x|**(1/alpha)), so the working precision
    adds its digits.  Where the sum cancels to below 1, the digits lost to
    the cancellation are added too, and the sum is repeated until the
    precision covers the value it gives: a pass whose absolute accuracy lies
    far above the true value returns noise, which sizes the next pass too
    small.  Each pass stops past the largest term, once three consecutive
    terms are below the working precision relative to it.
    """
    base = DPS + int(abs(x) ** (1.0 / alpha) / math.log(10.0))
    dps = base
    while True:
        value = _mp_ml2_to_precision(alpha, beta, x, dps)
        need = base
        if 0 < abs(value) < 1:
            need += math.ceil(-float(mp.log10(abs(value))))
        if need <= dps:
            return float(value)
        dps = need


def _mp_ml2_to_precision(alpha, beta, x, dps):
    with mp.workdps(dps):
        alpha, beta, x = mpf(alpha), mpf(beta), mpf(x)
        thresh = mpf(10) ** -dps
        total, peak, small, n = mpf(0), mpf(0), 0, 0
        while small < 3:
            a = alpha * n + beta
            t = x**n * mp.rgamma(a)
            total += t
            peak = max(peak, abs(t))
            small = small + 1 if a > 2 and abs(t) <= thresh * peak else 0
            n += 1
        return total


def mp_pole_residues(alpha, beta, x):
    """The real part of the residues e**s* (s*)**(1-beta) / alpha of the
    conjugate poles s* = r e**(+-i pi/alpha), r = |x|**(1/alpha), at 34
    digits through the mpmath context: (hi, lo, err), where hi + lo is the
    sum as two doubles and err bounds its error.  The context-level form of
    ``fracml.mittag._pole_residues``, which must equal it bit for bit."""
    with mp.workdps(34):
        a, b1 = mpf(alpha), 1 - mpf(beta)
        log_r = mp.log(mpf(-x)) / a
        r, theta = mp.exp(log_r), mp.pi / a
        cos_t, sin_t = mp.cos_sin(theta)
        # |Res| and Re Res: (s*)**(1-beta) = e**((1-beta)(log r + i theta))
        mag = 2 * mp.exp(r * cos_t + b1 * log_r) / a
        re = mag * mp.cos(r * sin_t + b1 * theta)
        hi = float(re)
        lo, eps = float(re - hi), float(mp.eps)
        r, log_r, mag = float(r), float(log_r), float(mag)
    # A few eps in each operation, magnified by the exponent r cos theta, the
    # power's exponent (1 - beta) log r and the phase.
    cond = 1.0 + r + abs(1.0 - beta) * (abs(log_r) + math.pi)
    return hi, lo, 4.0 * eps * cond * mag


def _rise_dps(a, s):
    # gamma/k + n q must keep the digits of n q: add those of a / s.
    if not s:
        return DPS
    return DPS + max(0, math.ceil(math.log10(a) - math.log10(s)))


def mp_log_gamma_rise(a, s):
    """log Gamma(a + s) - log Gamma(a) for floats a > 0, s >= 0."""
    with mp.workdps(_rise_dps(a, s)):
        return float(mp.loggamma(mpf(a) + mpf(s)) - mp.loggamma(mpf(a)))


def mp_kml(k, alpha, beta, gamma, q, z, terms=300):
    """Brute-force sum of the generalized k-Mittag-Leffler series."""
    with mp.workdps(_rise_dps(gamma / k, min(q, 1.0))):
        k, alpha, beta = mpf(k), mpf(alpha), mpf(beta)
        gamma, q, z = mpf(gamma), mpf(q), mpf(z)
        c0 = gamma / k
        total = mpf(0)
        for n in range(terms):
            num = k ** (n * q) * mp.gamma(c0 + n * q) / mp.gamma(c0)
            a = (alpha * n + beta) / k
            den = k ** (a - 1) * mp.gamma(a) * mp.factorial(n)
            total += num * z**n / den
        return total


def mp_rl_power(mu, nu, t):
    """Fractional integral of s**mu: Gamma(mu+1)/Gamma(mu+nu+1) * t**(mu+nu)."""
    with mp.workdps(DPS):
        mu, nu, t = mpf(mu), mpf(nu), mpf(t)
        return mp.gamma(mu + 1) / mp.gamma(mu + nu + 1) * t ** (mu + nu)


def mp_product_trapezoid_reference(values, h, nu, i):
    """Quadrature reference for the product-trapezoidal integral at node i:
    integral of (t_i - s)**(nu-1) times the piecewise-linear interpolant of
    ``values``, evaluated element by element with adaptive quadrature."""
    with mp.workdps(30):
        h, nu = mpf(h), mpf(nu)
        t_i = i * h
        total = mpf(0)
        for j in range(i):
            lo, hi = j * h, (j + 1) * h
            fj, fj1 = mpf(values[j]), mpf(values[j + 1])

            def integrand(s, lo=lo, hi=hi, fj=fj, fj1=fj1):
                lin = (fj * (hi - s) + fj1 * (s - lo)) / h
                return (t_i - s) ** (nu - 1) * lin

            total += mp.quad(integrand, [lo, hi])
        return total / mp.gamma(nu)


def mp_stated_solution(theorem, coeff, d, a, nu, n0, t, terms=60,
                       inner_terms=200):
    """Direct evaluation of the unweighted solution series with an explicit
    coefficient function ``coeff(n)`` returning an mpf.

    theorem 1: n0 * sum coeff(n) t**n        E_{nu, n+1}(-(d t)**nu)
    theorem 2/3: n0 * sum coeff(n) w**n      E_{nu, nu n+1}(-(a t)**nu),
    with w = (d t)**nu.
    """
    with mp.workdps(DPS):
        d, a, nu, n0, t = mpf(d), mpf(a), mpf(nu), mpf(n0), mpf(t)
        total = mpf(0)
        for n in range(terms):
            if theorem == 1:
                x = t**n
                inner = mp_ml2_partial(nu, n + 1, -((d * t) ** nu), inner_terms)
            else:
                x = ((d * t) ** nu) ** n
                inner = mp_ml2_partial(nu, nu * n + 1, -((a * t) ** nu),
                                       inner_terms)
            total += coeff(n) * x * inner
        return n0 * total


# ---------------------------------------------------------------------------
# Reference helpers that no library code calls.

def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    x = _check_finite(x, "x")
    if x <= 0.0:
        raise DomainError("log_gamma requires x > 0")
    return math.lgamma(x)


def k_gamma_general(g: float, s: float, k: float) -> float:
    """Step-s gamma via the step-k one: (s/k)**(g/s - 1) * gamma_k(k*g/s).

    Equal to ``k_gamma(g, s)``; the two-step form exists so the scaling
    identity between deformations can be exercised directly.
    """
    s = _check_finite(s, "s")
    k = _check_finite(k, "k")
    if s <= 0.0:
        raise DomainError("s must be > 0")
    if k <= 0.0:
        raise DomainError("k must be > 0")
    g = _check_finite(g, "g")
    return (s / k) ** (g / s - 1.0) * k_gamma(k * g / s, k)


def pochhammer(x: float, n) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); (x)_0 = 1."""
    x = _check_finite(x, "x")
    n = _as_count(n)
    p = 1.0
    for j in range(n):
        p *= x + j
    if math.isinf(p):
        raise OverflowError("pochhammer product overflows double range")
    return p


def scalar_kml(p: MLParameters, z: float, tol: float) -> SeriesEvaluation:
    """The k-Mittag-Leffler series at one point, summed term by term with
    ``sum_series`` and the library's coefficient, start, escalation and
    certificate rules: the scalar loop ``mittag.kml`` once had, which the
    batch, vectorizing only IEEE-exact operations, must equal bit for bit,
    status included."""
    if z == 0.0:
        value = recip_k_gamma(p.beta, p.k)
        ok = math.isfinite(value)
        return SeriesEvaluation(value, 1, 0.0, ok,
                                "series" if ok else "overflow")
    if abs(z) > mittag._radius(p):
        return SeriesEvaluation(math.nan, 0, math.inf, False, "divergent")
    coeff = mittag.log_coeff_parts(p)
    log_az = math.log(abs(z))
    err_units = 0.0

    def term(n: int) -> float:
        nonlocal err_units
        num, pw, lg = coeff(n)
        logmag = (num - ((pw + lg) + math.lgamma(n + 1.0))) + n * log_az
        if logmag > mittag._LOG_HUGE:
            raise SeriesAbort("term overflow")
        t = math.exp(logmag)
        if z < 0.0 and n % 2:
            t = -t
        err_units += mittag._ERR_LOG * abs(t)
        return t

    start = max(mittag._cert_start(p.alpha, p.beta, p.k),
                mittag._peak_start(p, log_az))
    res = sum_series(term, tol, mittag.MAX_TERMS, start)
    value, used, tail = res.value, res.terms, res.tail_bound
    status = mittag._series_status(res)
    if res.converged and mittag._should_escalate(z, res.abs_sum, value,
                                                 err_units, tol):
        value, used_mp, tail = mittag._kml_extended(p, z, res.abs_sum)
        used, status = max(used, used_mp), "extended"
    converged = res.converged and tail <= tol * max(1.0, abs(value))
    return SeriesEvaluation(value, used, tail, converged, status)


class UnknownCaseError(ValueError):
    """An unrecognized reduction-case identifier."""


# Parameter substitutions generating the eighteen special cases: six
# substitution groups, each applied to the three equation families.
_CASE_SUBSTITUTIONS = (
    {"q": 1.0},
    {"k": 1.0},
    {"q": 1.0, "k": 1.0},
    {"q": 1.0, "k": 1.0, "gamma": 1.0},
    {"q": 1.0, "k": 1.0, "gamma": 1.0, "beta": 1.0},
    {"q": 1.0, "k": 1.0, "gamma": 1.0, "alpha": 0.0, "beta": 1.0},
)


@dataclass(frozen=True)
class CorollaryReduction:
    """A special case: which equation family it reduces and how.

    ``evaluable`` is False for the ``alpha = 0`` group (cases 16-18), whose
    printed exponential solutions are not reachable from the general series
    (alpha = 0 violates the parameter domain); :meth:`apply` then raises.
    """

    case_id: int
    theorem: int
    substitutions: dict
    evaluable: bool

    def apply(self, ml: MLParameters) -> MLParameters:
        return dataclasses.replace(ml, **self.substitutions)


def corollary_reduction(case_id: int) -> CorollaryReduction:
    """Map a special-case number (1..18) to its parameter substitution."""
    if not isinstance(case_id, int) or not 1 <= case_id <= 18:
        raise UnknownCaseError(
            f"unknown reduction case {case_id!r}; valid cases are 1..18")
    group, theorem = divmod(case_id - 1, 3)
    subs = dict(_CASE_SUBSTITUTIONS[group])
    return CorollaryReduction(case_id, theorem + 1, subs,
                              evaluable=subs.get("alpha", 1.0) != 0.0)
