"""Real-argument gamma-family primitives.

Provides the gamma function and its step-``k`` deformation

    gamma_k(g) = k**(g/k - 1) * Gamma(g/k),          k > 0,

together with the rising-factorial (Pochhammer) variants behind the
coefficients of the generalized k-Mittag-Leffler series:

    (x)_{n,k}      = x (x+k) ... (x+(n-1)k)
    (g)_{nq}       = Gamma(g + n q) / Gamma(g)
    (g)_{nq,k}     = k**(nq) * (g/k)_{nq}

Operations raise :class:`PoleError` at gamma poles and :class:`DomainError`
for invalid parameters instead of returning infinities; a pole reached inside
a series is handled by the callers through the reciprocal-gamma convention
``1/Gamma(pole) = 0`` (see :func:`recip_gamma`).
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError, PoleError

# Largest argument for which Gamma fits in a double; math.gamma raises
# OverflowError beyond ~171.62, and for |x| below about 5.6e-309, where
# Gamma(x) ~ 1/x.
_GAMMA_OVERFLOW = 171.62
_GAMMA_TINY = 1e-300
# |log| of the largest power of k that recip_k_gamma forms directly.
_LOG_POW_MAX = 700.0
# The coefficients B_2j / (2j (2j - 1)), j = 1..7, of Stirling's series for
# log Gamma, and the least argument of log_gamma_rise, from which the first
# omitted term, 3617/122400 x**-15, is below 3e-17.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0)
STIRLING_MIN = 10.0


def _as_count(n, name: str = "n") -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be a non-negative integer") from None
    if n < 0:
        raise DomainError(f"{name} must be a non-negative integer")
    return n


def _check_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite")
    return x


def is_gamma_pole(x: float) -> bool:
    """True when ``x`` is a non-positive integer."""
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma(x) for real non-pole x; OverflowError past ~171.6."""
    x = _check_finite(x, "x")
    if is_gamma_pole(x):
        raise PoleError(f"gamma pole at x = {x}")
    return math.gamma(x)


def signed_log_gamma(x: float) -> tuple[float, float]:
    """(log |Gamma(x)|, sign of Gamma(x)); sign is 0.0 at a pole.

    The sign on the negative axis alternates between consecutive poles:
    Gamma is negative on (-1, 0), positive on (-2, -1), and so on.  Past
    about 2.6e305, where log Gamma(x) itself exceeds the double range, the
    result is ``(inf, 1.0)``, so the reciprocals built from it are 0.0.
    """
    if is_gamma_pole(x):
        return math.inf, 0.0
    if x > 0.0:
        try:
            return math.lgamma(x), 1.0
        except OverflowError:
            return math.inf, 1.0
    sign = -1.0 if math.floor(x) % 2 else 1.0
    return math.lgamma(x), sign


def _stirling_excess(a: float, s: float) -> float:
    """``log Gamma(a + s) - log Gamma(a) - s log a`` for ``a >= STIRLING_MIN``
    and ``s >= 0``, to a few ``eps * (s + |result|)``.

    ``s`` is taken apart from ``a``, so a rise that ``a + s`` rounds away
    (``a = 1e300``, ``s = 1``) is kept.  Stirling's series for both
    log-gammas, with ``r = log1p(s / a)``, gives ``(a - 1/2) r + s (r - 1)``
    plus the differences ``c_j a**-m expm1(-m r)``, ``m = 2j - 1``, of its
    Bernoulli terms, far smaller.  The result is at least 0 for ``s >= 1``
    and above ``-1 / (8 a)`` below, so adding ``s log a`` cancels nothing.
    """
    t = s / a
    r = math.log1p(t)
    corr = 0.0
    for j, c in reversed(list(enumerate(_STIRLING))):  # smallest first
        corr += c * math.expm1(-(2 * j + 1) * r) * a ** -(2 * j + 1)
    # a r as s (r / t), which keeps its digits where r is subnormal.
    return corr + s * ((r / t if t else 1.0) - 1.0 + r) - 0.5 * r


def log_gamma_rise(a: float, s: float) -> float:
    """``log Gamma(a + s) - log Gamma(a)`` for ``a >= STIRLING_MIN`` and
    ``s >= 0``, to a few ulps: without the cancellation of the difference
    of two log-gammas, whose rounding is about ``eps * log Gamma(a + s)``
    (see :func:`_stirling_excess`)."""
    return s * math.log(a) + _stirling_excess(a, s)


def recip_gamma(x: float) -> float:
    """1 / Gamma(x), with the entire-function convention of 0.0 at poles,
    and an infinity where 1 / Gamma(x) exceeds the double range (``x``
    below about -171.5): :func:`recip_k_gamma` at ``k = 1``."""
    return recip_k_gamma(x, 1.0)


def k_gamma(g: float, k: float) -> float:
    """Step-k gamma: k**(g/k - 1) * Gamma(g/k), for k > 0."""
    g = _check_finite(g, "g")
    k = _check_finite(k, "k")
    if k <= 0.0:
        raise DomainError("k must be > 0")
    z = g / k
    if is_gamma_pole(z):
        raise PoleError(f"k-gamma pole: g/k = {z} is a non-positive integer")
    value = k ** (z - 1.0) * math.gamma(z)
    if math.isinf(value):
        raise OverflowError("k_gamma overflows double range")
    return value


def recip_k_gamma(g: float, k: float) -> float:
    """1 / gamma_k(g) for k > 0: ``1.0 / k_gamma(g, k)`` while Gamma(g/k)
    and the power of k are nonzero doubles, log form beyond; 0.0 at poles,
    and an infinity where 1 / gamma_k(g) itself exceeds the double range (a
    tiny k, or g/k below about -171.5)."""
    z = g / k
    if is_gamma_pole(z):
        return 0.0
    log_pow = (z - 1.0) * math.log(k)
    if (-_GAMMA_OVERFLOW < z <= _GAMMA_OVERFLOW and abs(z) >= _GAMMA_TINY
            and abs(log_pow) <= _LOG_POW_MAX):
        den = k ** (z - 1.0) * math.gamma(z)
        if den != 0.0 and math.isfinite(den):
            return 1.0 / den
    lg, sg = signed_log_gamma(z)
    try:
        return sg * math.exp(-log_pow - lg)
    except OverflowError:
        return sg * math.inf


def k_pochhammer(x: float, n, k: float) -> float:
    """Step-k rising factorial x (x+k) ... (x+(n-1)k), for k > 0."""
    x = _check_finite(x, "x")
    k = _check_finite(k, "k")
    if k <= 0.0:
        raise DomainError("k must be > 0")
    n = _as_count(n)
    p = 1.0
    for j in range(n):
        p *= x + j * k
    if math.isinf(p):
        raise OverflowError("k_pochhammer product overflows double range")
    return p


def generalized_pochhammer(g: float, n, q: float) -> float:
    """Gamma-ratio rising factorial (g)_{nq} = Gamma(g + n q) / Gamma(g).

    Defined for any real increment ``n*q >= 0`` as long as neither gamma
    factor sits on a pole; evaluated in log space so that large arguments
    do not overflow intermediates.  From ``g >= STIRLING_MIN`` on it is
    ``g**(n q)`` times the exponential of :func:`_stirling_excess`: neither
    a difference of log-gammas that cancels nor the exponential of a large
    log, which would magnify its rounding.
    """
    g = _check_finite(g, "g")
    n = _as_count(n)
    q = _check_finite(q, "q")
    if q <= 0.0:
        raise DomainError("q must be > 0")
    if n == 0:
        return 1.0
    if g >= STIRLING_MIN:
        value = g ** (n * q) * math.exp(_stirling_excess(g, n * q))
        if math.isinf(value):
            raise OverflowError("(g)_nq exceeds the double range")
        return value
    top = g + n * q
    la, sa = signed_log_gamma(top)
    lb, sb = signed_log_gamma(g)
    if sa == 0.0 or sb == 0.0:
        raise PoleError(f"gamma pole in (g)_nq at g = {g}, g + nq = {top}")
    if la == math.inf or lb == math.inf:
        raise OverflowError("log-gamma in (g)_nq exceeds the double range")
    return sa * sb * math.exp(la - lb)


def k_pochhammer_general(g: float, n, q: float, k: float) -> float:
    """Step-k gamma-ratio rising factorial (g)_{nq,k} = k**(nq) (g/k)_{nq}.

    This is the coefficient form used by the generalized k-Mittag-Leffler
    series.
    """
    k = _check_finite(k, "k")
    if k <= 0.0:
        raise DomainError("k must be > 0")
    return k ** (n * q) * generalized_pochhammer(g / k, n, q)

