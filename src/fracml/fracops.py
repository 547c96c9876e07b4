"""Fractional-integral quadrature and kinetic-equation residual checks.

The Riemann-Liouville integral of order ``nu``

    (I^nu f)(t) = 1/Gamma(nu) * integral_0^t (t - s)**(nu - 1) f(s) ds

is discretized with the product-trapezoidal rule: the data are interpolated
piecewise-linearly and the weakly singular kernel is integrated exactly
against each linear piece, so the singularity at ``s = t`` (for ``nu < 1``)
is never sampled.  With ``u = t_i - s`` and ``m = i - j``, the element
``[t_j, t_{j+1}]`` contributes

    h**nu * [ f_j * c_left(m) + f_{j+1} * c_right(m) ]

where, writing ``P(m, p) = m**p - (m-1)**p``,

    c_left(m)  = P(m, nu+1)/(nu+1) - (m-1) * P(m, nu)/nu
    c_right(m) = m * P(m, nu)/nu   - P(m, nu+1)/(nu+1).

At ``nu = 1`` both coefficients reduce to 1/2 and the rule is the ordinary
trapezoid.  The scheme is exact for piecewise-linear data and second-order
accurate for smooth ones, which is what the grid-refinement residual report
relies on.

The residual report samples the solver and the forcing once, on the finest
grid, in one grid call of each (see :mod:`fracml.kinetics`; the forcing is
evaluated to ``mittag.INNER_TOL``, the tolerance of the solution's inner
factors), and takes each coarser grid as every ``G // g``-th sample.
Because the grids double, ``np.linspace(0, t_max, g + 1)`` equals
``np.linspace(0, t_max, G + 1)[::G // g]`` exactly (``t_max / g`` and
``t_max / G`` differ by a power of two), so the report is bit-identical to
sampling every grid afresh.  Where ``a**nu`` or a step's ``h**nu``
overflows, ``a**nu I^nu`` is taken as ``I^nu`` on the grid rescaled by ``a``.
A report is complete only when the solver and the forcing converged at every
sample; otherwise it forms no residual, and the CLI's ``verify`` exits 3 and
prints no report.

The verify gate is :meth:`ResidualReport.passes_gate`, stated once here for
the CLI's ``verify`` and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .kinetics import GridEvaluation, KineticProblem, forcing_value


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Samples of a function on the uniform grid t_i = i*step."""

    step: float
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise DomainError("step must be finite and > 0")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise DomainError("values must be a 1-D sequence of length >= 2")
        if not np.all(np.isfinite(v)):
            raise DomainError("values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(self.values.size)


# The least empirical order that passes the verify gate: the residual of a
# true solution falls at second order, that of a wrong one levels off.
MIN_ORDER = 1.5


@dataclass(frozen=True)
class ResidualReport:
    """Grid-refinement residual norms and an empirical convergence order.

    ``order_estimate`` is the mean of log2(max_res[j] / max_res[j+1]) over
    successive grid halvings; ``complete`` is False when any solver or
    forcing evaluation failed to converge, and such a report holds no
    residuals (empty tuples, a NaN order).
    """

    grid_steps: tuple
    max_residuals: tuple
    l2_residuals: tuple
    order_estimate: float
    complete: bool = True

    def passes_gate(self, threshold: float) -> bool:
        """The verify gate: complete, an order estimate of at least
        ``MIN_ORDER`` and a finest-grid max residual of at most
        ``threshold``."""
        return (self.complete and self.order_estimate >= MIN_ORDER
                and self.max_residuals[-1] <= threshold)


def _pow_diff(m: np.ndarray, p: float) -> np.ndarray:
    """m**p - (m-1)**p for integer-valued m >= 1, without cancellation."""
    out = np.empty_like(m)
    first = m == 1.0
    out[first] = 1.0
    mm = m[~first]
    out[~first] = -(mm**p) * np.expm1(p * np.log1p(-1.0 / mm))
    return out


def rl_integral(f: SampledFunction, nu: float) -> SampledFunction:
    """Riemann-Liouville integral of order ``nu > 0`` of sampled data.

    Returns samples of (I^nu f) on the same grid; the value at t = 0 is 0.
    Raises :class:`DomainError` where ``Gamma(nu)`` or a weight overflows.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError("nu must be finite and > 0")
    v = f.values
    n = v.size
    m = np.arange(1, n, dtype=float)
    with np.errstate(all="ignore"):
        pd0 = _pow_diff(m, nu)
        pd1 = _pow_diff(m, nu + 1.0)
        c_left = pd1 / (nu + 1.0) - (m - 1.0) * pd0 / nu
        c_right = m * pd0 / nu - pd1 / (nu + 1.0)
    try:
        gamma_nu = math.gamma(nu)
    except OverflowError:
        gamma_nu = math.inf
    if not (gamma_nu < math.inf and np.isfinite(c_left).all()
            and np.isfinite(c_right).all()):
        raise DomainError(f"nu = {nu:g} is too large for the fractional "
                          f"integral on {n - 1} steps")
    cl = np.concatenate(([0.0], c_left))
    cr = np.concatenate(([0.0], c_right))
    # g_i = h**nu/Gamma(nu) * sum over elements; node j is the left end of
    # element j (kernel index i-j) and the right end of element j-1 (index
    # i-j+1).  Both sums are discrete convolutions; the right-end one picks
    # up a spurious j = 0 contribution that is subtracted explicitly.
    left = np.convolve(v, cl)[:n]
    right = np.convolve(v, cr)[1:n + 1].copy()
    right[:-1] -= v[0] * cr[1:]
    g = (f.step**nu / gamma_nu) * (left + right)
    g[0] = 0.0
    return SampledFunction(f.step, g)


def check_grids(grids: Sequence[int]) -> tuple:
    """Validate a refinement sequence: at least two grids of at least 16
    steps, each double the previous one."""
    grids = tuple(int(g) for g in grids)
    if len(grids) < 2:
        raise DomainError("at least two grids are required")
    for g in grids:
        if g < 16:
            raise DomainError("each grid needs at least 16 steps")
    for a, b in zip(grids, grids[1:]):
        if b != 2 * a:
            raise DomainError("each grid must refine the previous by a factor of 2")
    return grids


def residual_report(prob: KineticProblem,
                    solver: Callable[..., GridEvaluation],
                    t_max: float,
                    grids: Sequence[int]) -> ResidualReport:
    """Defect of a claimed solution against its kinetic equation.

    On each grid the residual R_i = N_i - N0 f(t_i) + a**nu (I^nu N)_i, with
    the removal rate ``a = prob.a``, is formed from solver samples and the
    product-trapezoidal integral; for a true solution max|R| shrinks at
    second order as the step halves, while a wrong solution leaves a
    non-vanishing floor.

    ``solver(prob, ts)`` and ``forcing_value(prob, ts)`` are each called
    once, with the times of the finest grid; the solver returns one value
    per time.  Where ``a**nu`` or ``h**nu`` overflows, the integral is taken
    on the grid rescaled by ``a`` (step ``a h``).  Unless both the solver and
    every forcing point converged, the quadrature is skipped and the report
    has ``complete=False``.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise DomainError("t_max must be finite and > 0")
    grids = check_grids(grids)
    finest = grids[-1]
    ts = np.linspace(0.0, t_max, finest + 1)
    ev = solver(prob, ts)
    forcing = forcing_value(prob, ts)
    if not (ev.converged and forcing.converged):
        # An unconverged sample may be NaN: there is no residual to form.
        return ResidualReport(grids, (), (), math.nan, complete=False)
    max_res = []
    l2_res = []
    for steps in grids:
        h = t_max / steps
        nvals = ev.value[::finest // steps]
        fvals = forcing.value[::finest // steps]
        try:
            removal = prob.a ** prob.nu * rl_integral(
                SampledFunction(h, nvals), prob.nu).values
        except OverflowError:
            # a**nu or h**nu is not a double, but every (a t)**nu is.
            removal = rl_integral(SampledFunction(prob.a * h, nvals),
                                  prob.nu).values
        resid = nvals - fvals + removal
        max_res.append(float(np.max(np.abs(resid))))
        l2_res.append(float(math.sqrt(h * float(np.sum(resid * resid)))))
    ratios = [math.log2(max(a, 1e-300) / max(b, 1e-300))
              for a, b in zip(max_res, max_res[1:])]
    order = sum(ratios) / len(ratios)
    return ResidualReport(grids, tuple(max_res), tuple(l2_res), order)


def laplace_numeric(f: SampledFunction, p: float) -> float:
    """Trapezoidal Laplace transform integral_0^T exp(-p t) f(t) dt over the
    whole sampled range, ``T`` its last time.

    A property-testing helper, not a production transform: the caller is
    responsible for sampling far enough (``p * T >= 20``) that the
    discarded tail is negligible.
    """
    if not (math.isfinite(p) and p > 0.0):
        raise DomainError("p must be finite and > 0")
    return float(np.trapezoid(np.exp(-p * f.times) * f.values, dx=f.step))


def laplace_step_check(f: SampledFunction, nu: float,
                       p: float) -> tuple[float, float]:
    """Both sides of L{I^nu f}(p) = p**(-nu) L{f}(p) on sampled data.

    Returns (transform of the quadrature integral, p**(-nu) times the
    transform of f); callers assert their closeness.
    """
    lhs = laplace_numeric(rl_integral(f, nu), p)
    rhs = p ** (-nu) * laplace_numeric(f, p)
    return lhs, rhs
