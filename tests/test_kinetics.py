import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import oracles
import fracml.kinetics
import fracml.mittag
from fracml.errors import DomainError
from fracml.kinetics import (
    GRID_CROSSOVER,
    SOLVERS,
    THEOREMS,
    VARIANTS,
    Forcing,
    KineticProblem,
    forcing_value,
    solve,
    solve_theorem1,
    solve_theorem2_rederived,
    solve_theorem2_stated,
    solve_theorem3_rederived,
    solve_theorem3_stated,
)
from fracml.mittag import MIN_TERMS, MLParameters, SeriesEvaluation
from fracml.specfun import k_gamma
from oracles import UnknownCaseError, corollary_reduction

DB_PARAMS = MLParameters(k=2.0, alpha=6.0, beta=7.0, gamma=2.0, q=1.0)

# Each entry point's theorem, in the order of SOLVERS.
THEOREM_OF = {solver: theorem for (theorem, _), solver in SOLVERS.items()}
ALL_SOLVERS = tuple(THEOREM_OF)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def problem(nu=1.0, forcing=Forcing.PLAIN, d=3.0, a=None, n0=0.05,
            ml=DB_PARAMS):
    return KineticProblem(n0=n0, ml=ml, d=d, nu=nu, forcing=forcing, a=a)


class TestProblemValidation:
    def test_positive_n0(self):
        with pytest.raises(DomainError):
            problem(n0=0.0)

    def test_positive_nu(self):
        with pytest.raises(DomainError):
            problem(nu=-1.0)

    def test_negative_rate(self):
        with pytest.raises(DomainError):
            problem(d=-1.0)

    def test_forcing_must_be_a_member(self):
        with pytest.raises(DomainError):
            problem(forcing="plain")

    @pytest.mark.parametrize("a", [-1.0, math.inf, math.nan])
    def test_removal_rate_must_be_finite_and_nonnegative(self, a):
        with pytest.raises(DomainError):
            problem(a=a)

    def test_removal_rate_defaults_to_forcing_rate(self):
        assert problem(d=3.0).a == 3.0
        assert problem(d=3.0, a=2.0).a == 2.0

    def test_forcing_mismatch_rejected(self):
        with pytest.raises(DomainError):
            solve_theorem1(problem(forcing=Forcing.POWERED), 0.1)
        with pytest.raises(DomainError):
            solve_theorem2_stated(problem(forcing=Forcing.PLAIN), 0.1)

    def test_theorem2_requires_equal_rates(self):
        prob = problem(forcing=Forcing.POWERED, d=3.0, a=2.0)
        with pytest.raises(DomainError):
            solve_theorem2_stated(prob, 0.1)
        with pytest.raises(DomainError):
            solve_theorem2_rederived(prob, 0.1)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            solve_theorem1(problem(), -0.1)


class TestAnchors:
    def test_initial_value_all_solvers(self):
        expected = 0.05 / k_gamma(7.0, 2.0)
        for solver in ALL_SOLVERS:
            forcing = THEOREMS[THEOREM_OF[solver]].forcing
            ev = solver(problem(nu=2.0, forcing=forcing), 0.0)
            assert ev.converged
            assert rel(ev.value, expected) < 1e-13

    def test_forcing_at_zero_ignores_rates(self):
        expected = 0.05 / k_gamma(7.0, 2.0)
        for nu, d in [(1.0, 3.0), (5.0, 7.0)]:
            ev = forcing_value(problem(nu=nu, d=d, forcing=Forcing.POWERED), 0.0)
            assert rel(ev.value, expected) < 1e-14

    def test_zero_removal_degenerate_restores_forcing(self):
        # With d = 0 every inner factor is E_{nu,n+1}(0) = 1/n!, which
        # restores the forcing series exactly: N(t) = N0 E(t).
        prob = problem(d=0.0)
        for i in range(11):
            t = 1.0 * i / 10
            n = solve_theorem1(prob, t)
            f = forcing_value(prob, t)
            assert n.converged
            assert rel(n.value, f.value) < 1e-12


class TestCollapses:
    def test_nu_one_variants_agree(self):
        prob = problem(nu=1.0, forcing=Forcing.POWERED)
        for i in range(51):
            t = 0.5 * i / 50
            s = solve_theorem2_stated(prob, t)
            r = solve_theorem2_rederived(prob, t)
            assert rel(s.value, r.value) < 1e-10

    def test_equal_rates_collapse(self):
        rng = random.Random(7)
        for _ in range(25):
            ml = MLParameters(k=rng.uniform(0.5, 3.0),
                              alpha=rng.uniform(0.5, 6.0),
                              beta=rng.uniform(0.5, 7.0),
                              gamma=rng.uniform(0.5, 3.0),
                              q=rng.choice([0.5, 1.0, 1.0, 2.0]))
            d = rng.uniform(0.5, 3.0)
            nu = rng.uniform(0.5, 3.0)
            t = rng.uniform(0.0, 0.8)
            prob = problem(nu=nu, forcing=Forcing.POWERED, d=d, a=d, ml=ml)
            s2 = solve_theorem2_stated(prob, t)
            s3 = solve_theorem3_stated(prob, t)
            assert rel(s3.value, s2.value) < 1e-13
            r2 = solve_theorem2_rederived(prob, t)
            r3 = solve_theorem3_rederived(prob, t)
            assert rel(r3.value, r2.value) < 1e-13

    def test_larger_removal_rate_decays_faster(self):
        values = []
        for d in (1.0, 2.0, 3.0):
            prob = problem(nu=1.0, d=d)
            values.append([solve_theorem1(prob, 0.1 * i).value
                           for i in range(1, 6)])
        for slower, faster in zip(values, values[1:]):
            assert all(hi > lo for hi, lo in zip(slower, faster))


class TestSolve:
    """solve(prob, t, variant) is each theorem's entry point, bit for bit."""

    @staticmethod
    def _problem(theorem):
        # Removal rate 20 (theorem 3: forcing rate 3) with nu = 1.5: the
        # inner factors cancel and take the contour at the far end.
        d = 20.0 if THEOREMS[theorem].equal_rates else 3.0
        return problem(nu=1.5, forcing=THEOREMS[theorem].forcing, d=d,
                       a=20.0)

    def test_table_names_every_theorem_and_variant(self):
        assert list(SOLVERS) == [(theorem, variant) for theorem in THEOREMS
                                 for variant in VARIANTS]
        assert all(entry.__name__.startswith("solve_theorem")
                   for entry in SOLVERS.values())

    @pytest.mark.parametrize("theorem, variant, entry",
                             [(*key, entry) for key, entry in SOLVERS.items()])
    def test_equals_the_entry_point(self, theorem, variant, entry):
        prob = self._problem(theorem)
        for t in (0.0, 0.35):
            assert repr(solve(prob, t, variant)) == repr(entry(prob, t))
        ts = np.linspace(0.0, 1.0, 2 * GRID_CROSSOVER + 1)
        got, expected = solve(prob, ts, variant), entry(prob, ts)
        for field in ("t", "value", "point_terms", "tail_bound",
                      "point_converged"):
            assert (getattr(got, field).tobytes()
                    == getattr(expected, field).tobytes()), field

    @pytest.mark.parametrize("variant", ["", "Stated", "weighted", None])
    def test_unknown_variant(self, variant):
        for theorem in (1, 3):
            with pytest.raises(DomainError):
                solve(self._problem(theorem), 0.5, variant)

    @pytest.mark.parametrize("k", [1e-300, 0.5, 3.0, 1e300])
    @pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1.0, 1e300])
    def test_out_of_range_coefficients(self, monkeypatch, k, alpha):
        # beta/k or alpha/k beyond the double range: the point is a number
        # or unconverged, never an exception.
        ml = MLParameters(k=k, alpha=alpha, beta=1e-30, gamma=1.0, q=1.0)
        monkeypatch.setattr(fracml.kinetics, "OUTER_MAX_TERMS", 200)
        for t in (0.0, 0.5):
            ev = solve(problem(nu=1.0, d=1.0, ml=ml), t)
            assert math.isfinite(ev.value) or not ev.converged


class TestCorollaryMapping:
    def test_substitution_groups(self):
        assert corollary_reduction(1).substitutions == {"q": 1.0}
        assert corollary_reduction(5).substitutions == {"k": 1.0}
        assert corollary_reduction(9).substitutions == {"q": 1.0, "k": 1.0}
        assert corollary_reduction(13).substitutions == \
            {"q": 1.0, "k": 1.0, "gamma": 1.0, "beta": 1.0}
        assert corollary_reduction(16).substitutions == \
            {"q": 1.0, "k": 1.0, "gamma": 1.0, "alpha": 0.0, "beta": 1.0}

    def test_theorem_assignment(self):
        assert [corollary_reduction(c).theorem for c in range(1, 7)] == \
            [1, 2, 3, 1, 2, 3]
        assert corollary_reduction(18).theorem == 3

    def test_evaluable_flags(self):
        assert all(corollary_reduction(c).evaluable for c in range(1, 16))
        assert not any(corollary_reduction(c).evaluable for c in (16, 17, 18))

    def test_degenerate_group_refuses_evaluation(self):
        base = MLParameters(k=2.0, alpha=1.5, beta=2.0, gamma=1.7, q=0.5)
        with pytest.raises(DomainError):
            corollary_reduction(16).apply(base)

    @pytest.mark.parametrize("case_id", [0, 19, -1])
    def test_unknown_case(self, case_id):
        with pytest.raises(UnknownCaseError):
            corollary_reduction(case_id)


def _direct_coefficient(case_id, ml):
    """Coefficient C_n of the reduced solution series, built by an
    independent route (direct products and plain gamma ratios in mpmath)."""
    group = (case_id - 1) // 3
    k, alpha, beta = mpf(ml.k), mpf(ml.alpha), mpf(ml.beta)
    gamma, q = mpf(ml.gamma), mpf(ml.q)

    def k_gamma_mp(g):
        return k ** (g / k - 1) * mp.gamma(g / k)

    def coeff(n):
        if group == 0:      # q = 1: direct-product step-k Pochhammer
            num = mpf(1)
            for j in range(n):
                num *= gamma + j * k
            return num / k_gamma_mp(alpha * n + beta)
        if group == 1:      # k = 1: plain gamma-ratio Pochhammer
            num = mp.gamma(gamma + n * q) / mp.gamma(gamma)
            return num / mp.gamma(alpha * n + beta)
        if group == 2:      # q = k = 1: direct rising product
            num = mpf(1)
            for j in range(n):
                num *= gamma + j
            return num / mp.gamma(alpha * n + beta)
        # groups 3 and 4: q = k = gamma = 1, so (1)_n = n!
        return mp.factorial(n) / mp.gamma(alpha * n + beta)

    return coeff


class TestCorollaryEquivalence:
    """The reduced general solvers reproduce each evaluable special case.

    The reference series is built independently in mpmath from direct
    products and plain gamma functions, following the reduced solution
    structure of each equation family.
    """

    BASE = MLParameters(k=2.0, alpha=1.5, beta=2.0, gamma=1.7, q=0.5)
    D, A_INDEP, NU, N0 = 1.2, 0.8, 0.9, 0.4

    @pytest.mark.parametrize("case_id", range(1, 16))
    def test_reduced_solver_matches_direct_series(self, case_id):
        reduction = corollary_reduction(case_id)
        ml = reduction.apply(self.BASE)
        theorem = reduction.theorem
        row = THEOREMS[theorem]
        a = self.D if row.equal_rates else self.A_INDEP
        prob = KineticProblem(n0=self.N0, ml=ml, d=self.D, nu=self.NU,
                              forcing=row.forcing, a=a)
        solver = SOLVERS[(theorem, "stated")]
        coeff = _direct_coefficient(case_id, ml)
        for t in (0.3, 0.7):
            got = solver(prob, t)
            assert got.converged
            ref = float(oracles.mp_stated_solution(
                theorem, coeff, self.D, a, self.NU, self.N0, t))
            assert rel(got.value, ref) < 1e-10


class TestAgainstBruteForce:
    def test_theorem1_database_set(self):
        prob = problem(nu=1.0)
        coeff = _direct_coefficient(1, DB_PARAMS)
        for t in (0.1, 0.3, 0.5):
            got = solve_theorem1(prob, t)
            ref = float(oracles.mp_stated_solution(1, coeff, 3.0, 3.0, 1.0,
                                                   0.05, t))
            assert rel(got.value, ref) < 1e-11

    def test_theorem3_rederived_weight(self):
        # The rederived series carries Gamma(nu n + 1)/n! on each term.
        ml = MLParameters(k=2.0, alpha=1.5, beta=2.0, gamma=1.7, q=1.0)
        prob = KineticProblem(n0=0.4, ml=ml, d=1.2, nu=2.5,
                              forcing=Forcing.POWERED, a=0.8)
        base_coeff = _direct_coefficient(1, ml)

        def coeff(n):
            return base_coeff(n) * mp.gamma(mpf(2.5) * n + 1) / mp.factorial(n)

        for t in (0.3, 0.6):
            got = solve_theorem3_rederived(prob, t)
            ref = float(oracles.mp_stated_solution(3, coeff, 1.2, 0.8, 2.5,
                                                   0.4, t))
            assert rel(got.value, ref) < 1e-11


def _point(grid, i):
    """Point i of a grid result, in the form a per-point call returns."""
    return SeriesEvaluation(float(grid.value[i]), int(grid.point_terms[i]),
                            float(grid.tail_bound[i]),
                            bool(grid.point_converged[i]))


def _assert_grid_matches_points(solver, prob, ts):
    grid = solver(prob, np.array(ts))
    assert grid.t.tolist() == ts
    for i, t in enumerate(ts):
        ev = solver(prob, t)
        assert _point(grid, i) == ev, (solver.__name__, t)
    assert grid.terms_used == sum(solver(prob, t).terms_used for t in ts)
    assert grid.converged == all(solver(prob, t).converged for t in ts)
    return grid


def _record_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def _grid_and_points(solver, prob, ts):
    """A grid call and per-point calls at ``ts``, with the ``(alpha, beta,
    x)`` of the inner factors evaluated on the cancelling route each made:
    those of the contour calls, then those of the extended-precision
    re-sums, sorted."""
    mittag = fracml.mittag
    with mock.patch.object(mittag, "_ml2_contour",
                           wraps=mittag._ml2_contour) as contour, \
            mock.patch.object(mittag, "_ml2_extended",
                              wraps=mittag._ml2_extended) as extended:
        def routed():
            calls = [sorted(c.args[:3] for c in m.call_args_list)
                     for m in (contour, extended)]
            contour.reset_mock()
            extended.reset_mock()
            return calls

        grid = solver(prob, np.array(ts))
        grid_esc = routed()
        points = [solver(prob, t) for t in ts]
        point_esc = routed()
    return grid, points, grid_esc, point_esc


def _problem_for(solver, ml, d, a, nu):
    row = THEOREMS[THEOREM_OF[solver]]
    return problem(nu=nu, forcing=row.forcing, d=d,
                   a=None if row.equal_rates else a, ml=ml)


class TestGridEvaluation:
    """A grid call returns, point for point, exactly what per-point calls
    return: values, term counts, tail bounds and convergence flags."""

    @settings(max_examples=40)
    @given(solver=st.sampled_from(ALL_SOLVERS),
           k=st.floats(0.5, 2.0), alpha=st.floats(2.0, 6.0),
           beta=st.floats(0.5, 7.0), gamma=st.floats(0.5, 3.0),
           q=st.sampled_from([0.5, 1.0]),
           d=st.floats(0.5, 3.0),
           a=st.one_of(st.floats(0.5, 3.0), st.floats(5.0, 9.0)),
           nu=st.floats(0.5, 2.5), t_max=st.floats(0.05, 1.0),
           size=st.sampled_from([2, 5, GRID_CROSSOVER, GRID_CROSSOVER + 1,
                                 GRID_CROSSOVER + 9]))
    def test_grid_equals_per_point_calls(self, solver, k, alpha, beta, gamma,
                                         q, d, a, nu, t_max, size):
        # The grid starts at t = 0, which is never batched, so sizes
        # GRID_CROSSOVER and GRID_CROSSOVER + 1 straddle the crossover.
        # Rates a in [5, 9] make the inner factors of theorem 3 cancel and
        # escalate at the far end.
        ml = MLParameters(k=k, alpha=alpha, beta=beta, gamma=gamma, q=q)
        prob = _problem_for(solver, ml, d, a, nu)
        ts = [t_max * i / (size - 1) for i in range(size)]
        _assert_grid_matches_points(solver, prob, ts)

    def test_database_grid_is_batched_without_fallback(self, monkeypatch):
        calls = _record_calls(monkeypatch, fracml.kinetics, "_solution_series")
        ts = np.linspace(0.0, 0.5, 257).tolist()
        grid = solve_theorem1(problem(), np.array(ts))
        assert grid.converged
        assert len(calls) == 1  # t = 0 only: the series argument is zero
        monkeypatch.undo()
        for i, t in enumerate(ts):
            assert _point(grid, i) == solve_theorem1(problem(), t)

    def test_escalated_inner_factors_match(self, monkeypatch):
        escalations = _record_calls(monkeypatch, fracml.mittag, "_ml2_extended")
        prob = problem(nu=1.0, d=12.0)
        ts = [1.0 * i / GRID_CROSSOVER for i in range(GRID_CROSSOVER + 1)]
        grid = solve_theorem1(prob, np.array(ts))
        assert escalations  # taken inside the batched evaluation
        monkeypatch.undo()
        assert grid.converged
        for i, t in enumerate(ts):
            assert _point(grid, i) == solve_theorem1(prob, t)

    def test_points_outside_the_direct_branch_fall_back(self, monkeypatch):
        # With w = (60 t)**7 the outer series needs n >= 17 at the far end,
        # where the inner gamma arguments 7 m + 7 n + 1 pass 170.  Those
        # inner factors fall back to ml2 inside the batch; the only
        # per-point sum is the one at t = 0.
        calls = _record_calls(monkeypatch, fracml.kinetics, "_solution_series")
        inner = _record_calls(monkeypatch, fracml.mittag, "ml2")
        ml = MLParameters(k=1.0, alpha=1.0, beta=1.0, gamma=1.0, q=1.0)
        prob = problem(nu=7.0, forcing=Forcing.POWERED, d=60.0, a=0.5, ml=ml)
        ts = [1.0 * i / GRID_CROSSOVER for i in range(GRID_CROSSOVER + 1)]
        grid = solve_theorem3_stated(prob, np.array(ts))
        assert [c[2] for c in calls] == [0.0]
        assert inner
        monkeypatch.undo()
        assert grid.converged
        for i, t in enumerate(ts):
            assert _point(grid, i) == solve_theorem3_stated(prob, t)

    @settings(max_examples=15, deadline=None)
    @given(solver=st.sampled_from(ALL_SOLVERS),
           k=st.floats(1.0, 2.0), alpha=st.floats(0.5, 1.5),
           beta=st.floats(0.5, 3.0), gamma=st.floats(0.5, 2.0),
           d=st.floats(0.5, 1.5), a=st.floats(0.5, 1.5),
           nu=st.floats(0.7, 1.5), t_max=st.floats(1.5, 2.5),
           size=st.sampled_from([GRID_CROSSOVER + 1, GRID_CROSSOVER + 6]))
    def test_long_outer_series_equal_per_point_calls(
            self, solver, k, alpha, beta, gamma, d, a, nu, t_max, size):
        # Slowly decaying coefficients need more than MIN_TERMS + 2 outer
        # terms, so the inner factors come from later blocks too; some of
        # them cancel and escalate, and some points underflow or exhaust
        # the outer budget.
        ml = MLParameters(k=k, alpha=alpha, beta=beta, gamma=gamma, q=1.0)
        prob = _problem_for(solver, ml, d, a, nu)
        ts = [t_max * i / (size - 1) for i in range(size)]
        grid, points, grid_esc, point_esc = _grid_and_points(solver, prob,
                                                             ts)
        assert [_point(grid, i) for i in range(size)] == points
        assert grid_esc == point_esc

    def test_later_blocks_and_deferred_escalation(self):
        ml = MLParameters(k=1.0, alpha=1.0, beta=1.0, gamma=1.0, q=1.0)
        prob = problem(nu=1.0, forcing=Forcing.POWERED, d=6.0, a=15.0, ml=ml)
        ts = [1.5 * i / GRID_CROSSOVER for i in range(GRID_CROSSOVER + 1)]
        grid, points, grid_esc, point_esc = _grid_and_points(
            solve_theorem3_stated, prob, ts)
        assert grid.converged
        assert grid.point_terms.max() > 2 * (MIN_TERMS + 2)  # a third block
        # Inner factors of outer indices past the first block escalate.
        assert any(beta > MIN_TERMS + 2 for _, beta, _ in grid_esc[0])
        # Only the factors the outer sums use are evaluated on the
        # cancelling route, each through ml2_value as per point: the same
        # contour and re-sum calls, a contour that ml2_value does not take
        # computed again in ml2 by both.
        assert grid_esc == point_esc
        assert [_point(grid, i) for i in range(len(ts))] == points

    def test_blocks_limited_by_entries(self, monkeypatch):
        # With room for 20 entries, 9 points get 2 outer indices per block
        # (1 once more than 20 points are summing).
        monkeypatch.setattr(fracml.kinetics, "BLOCK_ENTRIES", 20)
        ml = MLParameters(k=1.0, alpha=1.0, beta=1.0, gamma=1.0, q=1.0)
        prob = problem(nu=1.0, forcing=Forcing.POWERED, d=3.0, a=2.0, ml=ml)
        for size in (GRID_CROSSOVER + 1, 3 * GRID_CROSSOVER):
            ts = [1.5 * i / (size - 1) for i in range(size)]
            grid = _assert_grid_matches_points(solve_theorem3_stated, prob, ts)
            assert grid.point_terms.max() > MIN_TERMS + 2

    @pytest.mark.parametrize("d", [1e-12, 0.0])
    def test_underflowed_inner_factor_is_not_certified(self, d):
        # From n ~ 171 the inner factors E_{1,n+1}(-d t) underflow to 0.0,
        # at d = 0 too, where they are 1/Gamma(n + 1); two zero terms must
        # not pass for a flat, certified tail.  The true value is about
        # N0 E(20) ~ 1.04e174.
        ml = MLParameters(k=1.0, alpha=0.5, beta=1.0, gamma=1.0, q=1.0)
        prob = KineticProblem(1.0, ml, d, 1.0)
        ev = solve_theorem1(prob, 20.0)
        assert not ev.converged
        ts = [20.0 * i / GRID_CROSSOVER for i in range(GRID_CROSSOVER + 1)]
        grid = _assert_grid_matches_points(solve_theorem1, prob, ts)
        assert not grid.point_converged[-1]

    @settings(max_examples=40, deadline=None)
    @given(forcing=st.sampled_from(list(Forcing)),
           k=st.floats(0.5, 2.0), alpha=st.floats(0.5, 6.0),
           beta=st.floats(0.5, 7.0), gamma=st.floats(0.5, 3.0),
           q=st.sampled_from([0.5, 1.0, 2.0]), d=st.floats(0.5, 3.0),
           nu=st.floats(0.5, 2.5), t_max=st.floats(0.05, 4.0),
           size=st.integers(2, 40))
    def test_forcing_grid_equals_per_point_calls(self, forcing, k, alpha,
                                                 beta, gamma, q, d, nu,
                                                 t_max, size):
        # q = 2 with alpha < k draws divergent forcing series (NaN values).
        ml = MLParameters(k=k, alpha=alpha, beta=beta, gamma=gamma, q=q)
        prob = problem(nu=nu, d=d, forcing=forcing, ml=ml)
        ts = [t_max * i / (size - 1) for i in range(size)]
        grid = forcing_value(prob, np.array(ts))
        assert grid.t.tolist() == ts
        for i, t in enumerate(ts):
            assert repr(_point(grid, i)) == repr(forcing_value(prob, t))

    def test_overflowing_arguments_are_unconverged(self):
        # (d t)**nu and (a t)**nu overflow at the last time only: the eight
        # points before it are summed in one batch, and that one is
        # unconverged, in the solution and the forcing, as per point.
        prob = problem(nu=2.0, forcing=Forcing.POWERED, d=1e200, a=1e199)
        ts = [0.0, *(i * 1e-200 for i in range(1, 9)), 1.0]
        for f in (solve_theorem3_stated, forcing_value):
            grid = f(prob, np.array(ts))
            assert grid.point_converged.tolist() == [True] * 9 + [False]
            assert math.isnan(grid.value[-1])
            assert grid.tail_bound[-1] == math.inf
            for i, t in enumerate(ts):
                assert repr(_point(grid, i)) == repr(f(prob, t))

    def test_small_grid_stays_per_point(self, monkeypatch):
        def no_batch(*args):
            raise AssertionError("batched below the crossover")

        monkeypatch.setattr(fracml.kinetics, "_solution_series_batch",
                            no_batch)
        ts = [0.1 * i for i in range(GRID_CROSSOVER - 1)]
        _assert_grid_matches_points(solve_theorem1, problem(), ts)

    def test_unconverged_point_is_reported(self, monkeypatch):
        monkeypatch.setattr(fracml.kinetics, "OUTER_MAX_TERMS", 8)
        prob = problem(nu=1.0)
        ts = np.linspace(0.0, 0.5, GRID_CROSSOVER + 1)
        grid = solve_theorem1(prob, ts)
        assert not grid.converged
        assert grid.first_uncertified == ts[1]
        assert isinstance(grid.terms_used, int)
        for i, t in enumerate(ts.tolist()):
            assert _point(grid, i) == solve_theorem1(prob, t)

    def test_time_validation(self):
        with pytest.raises(DomainError):
            solve_theorem1(problem(), np.array([0.0, -0.1]))
        with pytest.raises(DomainError):
            solve_theorem1(problem(), np.array([0.0, math.nan]))
        with pytest.raises(DomainError):
            solve_theorem1(problem(), np.zeros((2, 2)))
