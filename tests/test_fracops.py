import math
import random
import warnings

import numpy as np
import pytest

import oracles
import fracml.fracops
from fracml.errors import DomainError
from fracml.fracops import (
    MIN_ORDER,
    ResidualReport,
    SampledFunction,
    laplace_numeric,
    laplace_step_check,
    residual_report,
    rl_integral,
)
from fracml.kinetics import Forcing, KineticProblem, forcing_value, solve_theorem1
from fracml.mittag import MLParameters, SeriesEvaluation


def grid(t_max, steps):
    return np.linspace(0.0, t_max, steps + 1)


class TestSampledFunction:
    def test_requires_positive_step(self):
        with pytest.raises(DomainError):
            SampledFunction(0.0, [1.0, 2.0])

    def test_requires_two_points(self):
        with pytest.raises(DomainError):
            SampledFunction(0.1, [1.0])

    def test_times(self):
        f = SampledFunction(0.25, [0.0, 1.0, 2.0])
        assert np.allclose(f.times, [0.0, 0.25, 0.5])


class TestRlIntegral:
    def test_rejects_nonpositive_order(self):
        f = SampledFunction(0.1, np.ones(8))
        with pytest.raises(DomainError):
            rl_integral(f, 0.0)

    @pytest.mark.parametrize("nu, steps", [(172.0, 16), (130.0, 256)])
    def test_rejects_weights_beyond_the_double_range(self, nu, steps):
        # Gamma(172) is not a double; neither is 255**131, the weight
        # m**(nu + 1) of 256 steps at nu = 130.  Either raises, naming nu and
        # the step count, and no numpy warning escapes.
        f = SampledFunction(0.5 / steps, np.ones(steps + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"nu = {nu:g} .* on "
                               f"{steps} steps"):
                rl_integral(f, nu)
        # Just below those limits both still give numbers.
        assert np.isfinite(rl_integral(f, 171.6 if steps == 16
                                       else 126.0).values).all()

    def test_constant_order_one_is_exact(self):
        f = SampledFunction(1.0 / 256, np.ones(257))
        g = rl_integral(f, 1.0)
        assert np.max(np.abs(g.values - g.times)) < 1e-13

    def test_linear_is_exact_for_any_order(self):
        # The rule integrates the kernel exactly against linear data.
        for nu in (0.5, 0.7, 1.0, 1.4, 2.3):
            ts = grid(1.0, 200)
            g = rl_integral(SampledFunction(ts[1], ts.copy()), nu)
            exact = ts ** (nu + 1.0) / math.gamma(nu + 2.0)
            err = np.abs(g.values - exact)[1:] / exact[1:]
            assert np.max(err) < 1e-11

    def test_constant_fractional_order_is_exact(self):
        # f = 1 is linear too: 2 sqrt(t/pi) at nu = 1/2 up to rounding.
        ts = grid(1.0, 128)
        g = rl_integral(SampledFunction(ts[1], np.ones(ts.size)), 0.5)
        exact = 2.0 * np.sqrt(ts / np.pi)
        assert np.max(np.abs(g.values - exact)) < 1e-13

    def test_kernel_moments_against_quadrature(self):
        # Random nodal data on [0, 1]; every output node must match the
        # exact integral of the kernel against the linear interpolant.
        rng = random.Random(42)
        values = [rng.uniform(-1.0, 1.0) for _ in range(9)]
        h = 1.0 / 8
        for nu in (0.5, 1.3, 2.0):
            g = rl_integral(SampledFunction(h, values), nu)
            for i in (1, 3, 8):
                ref = float(oracles.mp_product_trapezoid_reference(
                    values, h, nu, i))
                assert abs(g.values[i] - ref) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(65)
        v = rng.standard_normal(65)
        h = 0.5 / 64
        a, b = 1.7, -0.4
        lhs = rl_integral(SampledFunction(h, a * u + b * v), 0.6).values
        rhs = (a * rl_integral(SampledFunction(h, u), 0.6).values
               + b * rl_integral(SampledFunction(h, v), 0.6).values)
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_semigroup_on_monomials(self, m):
        # I^{0.8} I^{1.4} s**m == I^{2.2} s**m up to O(h^2); the Richardson
        # slope of the difference must be second order.  (The first order is
        # kept above 1 so the intermediate s**(m+1.4) stays smooth enough
        # for the outer rule's full order on every monomial.)
        errs = []
        for steps in (32, 64, 128):
            ts = grid(1.0, steps)
            f = SampledFunction(ts[1], ts**m)
            twice = rl_integral(rl_integral(f, 1.4), 0.8).values
            once = rl_integral(f, 2.2).values
            errs.append(np.max(np.abs(twice - once)))
        slopes = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(slopes) > 1.8

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("mu", [0, 1, 2.5])
    def test_power_rule(self, mu, nu):
        errs = []
        for steps in (64, 128, 256):
            ts = grid(1.0, steps)
            g = rl_integral(SampledFunction(ts[1], ts**mu), nu).values
            exact = np.array([float(oracles.mp_rl_power(mu, nu, t))
                              for t in ts])
            errs.append(np.max(np.abs(g - exact)))
        if mu in (0, 1):
            assert max(errs) < 1e-12
        else:
            slopes = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert min(slopes) > 1.8


class TestLaplace:
    def test_exponential(self):
        ts = grid(40.0, 32768)
        f = SampledFunction(ts[1], np.exp(-ts))
        assert abs(laplace_numeric(f, 1.0) - 0.5) < 1e-6

    def test_constant(self):
        ts = grid(20.0, 16384)
        f = SampledFunction(ts[1], np.ones(ts.size))
        assert abs(laplace_numeric(f, 2.0) - 0.5) < 1e-6

    def test_ramp(self):
        ts = grid(40.0, 8192)
        f = SampledFunction(ts[1], ts.copy())
        assert abs(laplace_numeric(f, 1.0) - 1.0) < 1e-5

    def test_rejects_nonpositive_p(self):
        f = SampledFunction(0.1, np.ones(8))
        with pytest.raises(DomainError):
            laplace_numeric(f, 0.0)

    @pytest.mark.parametrize(
        "make,nu,p,t_max,steps",
        [(np.ones_like, 1.0, 2.0, 20.0, 8192),
         (np.ones_like, 0.5, 1.0, 20.0, 8192),
         (lambda ts: ts.copy(), 2.0, 1.0, 30.0, 8192)])
    def test_transform_of_fractional_integral(self, make, nu, p, t_max, steps):
        # L{I^nu f}(p) = p**(-nu) L{f}(p)
        ts = grid(t_max, steps)
        f = SampledFunction(ts[1], make(ts))
        lhs, rhs = laplace_step_check(f, nu, p)
        assert abs(lhs - rhs) < 1e-4 * abs(rhs)


DB_PARAMS = MLParameters(k=2.0, alpha=6.0, beta=7.0, gamma=2.0, q=1.0)


def db_problem():
    return KineticProblem(n0=0.05, ml=DB_PARAMS, d=3.0, nu=1.0,
                          forcing=Forcing.PLAIN)


class TestResidualReport:
    def test_grid_validation(self):
        prob = db_problem()
        with pytest.raises(DomainError):
            residual_report(prob, solve_theorem1, 0.5, (8, 16))
        with pytest.raises(DomainError):
            residual_report(prob, solve_theorem1, 0.5, (64,))
        with pytest.raises(DomainError):
            residual_report(prob, solve_theorem1, 0.5, (64, 100))

    def test_true_solution_converges_at_second_order(self):
        rep = residual_report(db_problem(), solve_theorem1, 0.5, (16, 32, 64))
        assert rep.complete
        assert rep.order_estimate > 1.8
        assert rep.max_residuals[-1] < 1e-6
        assert all(a > b for a, b in zip(rep.max_residuals,
                                         rep.max_residuals[1:]))

    def test_zero_solver_is_rejected(self):
        def zero_solver(prob, t):
            return SeriesEvaluation(0.0 * t, 1, 0.0, True)

        prob = db_problem()
        rep = residual_report(prob, zero_solver, 0.5, (16, 32, 64))
        scale = max(forcing_value(prob, 0.5 * i / 64).value for i in range(65))
        # Residual equals the forcing itself: a non-vanishing floor.
        assert rep.max_residuals[-1] > 0.5 * scale
        assert rep.order_estimate < 0.1

    def test_perturbed_solver_is_rejected(self):
        def perturbed(prob, t):
            ev = solve_theorem1(prob, t)
            return SeriesEvaluation(1.01 * ev.value, ev.terms_used,
                                    ev.tail_bound, ev.converged)

        prob = db_problem()
        rep = residual_report(prob, perturbed, 0.5, (16, 32, 64))
        scale = max(forcing_value(prob, 0.5 * i / 64).value for i in range(65))
        assert rep.max_residuals[-1] > 1e-3 * scale
        assert rep.order_estimate < 0.5

    def test_unconverged_point_marks_report_incomplete(self):
        def flaky(prob, t):
            ev = solve_theorem1(prob, t)
            return SeriesEvaluation(ev.value, ev.terms_used, math.inf, False)

        rep = residual_report(db_problem(), flaky, 0.5, (16, 32))
        assert not rep.complete

    def test_nan_from_an_unconverged_solver_marks_report_incomplete(self):
        # An unconverged point may hold NaN; the report forms no residual
        # from it and comes back incomplete instead of raising.
        def failing(prob, t):
            return SeriesEvaluation(math.nan * t, 0, math.inf, False)

        rep = residual_report(db_problem(), failing, 0.5, (16, 32))
        assert not rep.complete
        assert rep.max_residuals == rep.l2_residuals == ()

    def test_unconverged_forcing_marks_report_incomplete(self):
        # q = 2 > 1 + alpha/k: the forcing has no value at t > 0.  A
        # converging solver double leaves the forcing's flag alone to decide.
        def zero_solver(prob, t):
            return SeriesEvaluation(0.0 * t, 1, 0.0, True)

        ml = MLParameters(k=1.0, alpha=0.5, beta=7.0, gamma=2.0, q=2.0)
        prob = KineticProblem(n0=0.05, ml=ml, d=3.0, nu=1.0)
        rep = residual_report(prob, zero_solver, 0.5, (16, 32))
        assert not rep.complete
        assert residual_report(db_problem(), zero_solver, 0.5,
                               (16, 32)).complete

    def test_finest_grid_is_evaluated_once(self, monkeypatch):
        solver_times = []
        forcing_times = []

        def solver(prob, t):
            solver_times.append(np.array(t))
            return solve_theorem1(prob, t)

        forcing = fracml.fracops.forcing_value

        def counting_forcing(prob, t):
            forcing_times.append(np.array(t))
            return forcing(prob, t)

        monkeypatch.setattr(fracml.fracops, "forcing_value", counting_forcing)
        rep = residual_report(db_problem(), solver, 0.5, (64, 128, 256))
        assert rep.complete
        assert len(solver_times) == 1
        assert solver_times[0].tolist() == grid(0.5, 256).tolist()
        assert len(forcing_times) == 1
        assert forcing_times[0].tolist() == grid(0.5, 256).tolist()

    def test_coarse_grids_are_exact_subsamples_of_the_finest(self):
        # The premise of sampling only the finest grid: doubling grids
        # share their points bit for bit.
        rng = random.Random(4)
        for t_max in [0.5, 0.4, 1.0, 3.7] + [rng.uniform(1e-3, 1e3)
                                            for _ in range(200)]:
            finest = grid(t_max, 1024)
            for steps in (16, 32, 64, 128, 256, 512):
                coarse = grid(t_max, steps)
                assert coarse.tolist() == finest[::1024 // steps].tolist()



@pytest.mark.parametrize("report, passed", [
    # order and finest residual exactly at their edges
    (ResidualReport((16, 32), (1.0, 1e-5), (1.0, 1e-5), MIN_ORDER), True),
    (ResidualReport((16, 32), (1.0, 1e-9), (1.0, 1e-9),
                    math.nextafter(MIN_ORDER, 0.0)), False),
    (ResidualReport((16, 32), (1.0, math.nextafter(1e-5, 1.0)), (1.0, 1.0),
                    2.0), False),
    (ResidualReport((16, 32), (), (), math.nan, complete=False), False),
], ids=["at-edges", "order-below", "residual-above", "incomplete"])
def test_gate(report, passed):
    assert report.passes_gate(1e-5) is passed
