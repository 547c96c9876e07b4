import bisect
import importlib.util
import math
import struct
import sys
import threading
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import fracml.mittag as mittag
from fracml.errors import DomainError
from fracml.mittag import (
    INNER_TOL,
    MLParameters,
    ML2Rows,
    PowerTable,
    TwoParamML,
    SeriesEvaluation,
    kml,
    kml_batch,
    ml2,
    ml2_value,
)
from fracml.specfun import (STIRLING_MIN, k_gamma, k_pochhammer,
                            log_gamma_rise, recip_gamma, signed_log_gamma)
from fracml.summation import SeriesAbort

# Brute-force oracle value (tests/oracles.py) for the database parameter set
# k=2, alpha=6, beta=7, gamma=2, q=1 at z=1.
KML_DB_SET_Z1 = 0.053345909834003538544
E_TIMES_ERFC1 = 0.42758357615580700441


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestParameterValidation:
    def test_two_param_requires_positive_alpha(self):
        with pytest.raises(DomainError):
            TwoParamML(0.0, 1.0)
        with pytest.raises(DomainError):
            TwoParamML(-1.0, 1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_two_param_requires_finite_beta(self, beta):
        with pytest.raises(DomainError):
            TwoParamML(1.0, beta)

    def test_two_param_allows_nonpositive_beta(self):
        TwoParamML(1.0, -2.0)

    def test_ml_parameters_positivity(self):
        for field in ("k", "alpha", "beta", "gamma"):
            kwargs = dict(k=1.0, alpha=1.0, beta=1.0, gamma=1.0, q=1.0)
            kwargs[field] = 0.0
            with pytest.raises(DomainError):
                MLParameters(**kwargs)

    @pytest.mark.parametrize("q", [0.25, 0.999, 1.0, 2.0, 7.0])
    def test_valid_exponent_steps(self, q):
        MLParameters(k=1.0, alpha=1.0, beta=1.0, gamma=1.0, q=q)

    @pytest.mark.parametrize("q", [0.0, -1.0, 1.5, 2.25])
    def test_invalid_exponent_steps(self, q):
        with pytest.raises(DomainError):
            MLParameters(k=1.0, alpha=1.0, beta=1.0, gamma=1.0, q=q)

    def test_tol_must_be_positive(self):
        with pytest.raises(DomainError):
            ml2(TwoParamML(1.0, 1.0), 1.0, tol=0.0)


class TestTwoParamEvaluator:
    def test_exponential(self):
        ev = ml2(TwoParamML(1.0, 1.0), 1.0)
        assert ev.converged
        assert rel(ev.value, math.e) < 1e-12

    def test_shifted_exponential(self):
        ev = ml2(TwoParamML(1.0, 2.0), 1.0)
        assert rel(ev.value, math.e - 1.0) < 1e-12

    def test_cosh_identity(self):
        ev = ml2(TwoParamML(2.0, 1.0), 4.0)
        assert rel(ev.value, math.cosh(2.0)) < 1e-12

    def test_erfc_identity(self):
        # E_{1/2,1}(-1) = e * erfc(1); math.erfc is the independent oracle.
        ev = ml2(TwoParamML(0.5, 1.0), -1.0)
        assert rel(ev.value, math.e * math.erfc(1.0)) < 1e-9
        assert rel(ev.value, E_TIMES_ERFC1) < 1e-9

    def test_at_zero(self):
        assert ml2(TwoParamML(1.7, 2.3), 0.0).value == recip_gamma(2.3)
        ev = ml2(TwoParamML(1.7, 2.3), 0.0)
        assert ev.converged and ev.tail_bound == 0.0

    def test_alternating_cancellation_floor(self):
        # Severe cancellation: the naive sum of |terms| reaches e**20.
        ev = ml2(TwoParamML(1.0, 1.0), -20.0)
        assert ev.converged
        assert abs(ev.value - math.exp(-20.0)) <= 1e-6

    def test_extreme_cancellation(self):
        # At x = -60 the term noise dwarfs the value by ~35 orders of
        # magnitude; the extended-precision path must resolve it and
        # report a tail bound consistent with the returned value.
        ev = ml2(TwoParamML(1.0, 1.0), -60.0)
        assert ev.converged
        assert rel(ev.value, math.exp(-60.0)) < 1e-12
        assert ev.tail_bound <= 1e-12 * max(1.0, abs(ev.value))

    def test_nonpositive_beta_uses_reciprocal_convention(self):
        # E_{1,-1}(x) has its first two gamma factors at poles:
        # sum_{n>=2} x**n/Gamma(n-1) = x**2 e**x.
        ev = ml2(TwoParamML(1.0, -1.0), 0.5)
        assert ev.converged
        assert rel(ev.value, 0.25 * math.exp(0.5)) < 1e-12

    def test_max_terms_exhaustion_is_flagged(self, monkeypatch):
        monkeypatch.setattr(mittag, "MAX_TERMS", 3)
        ev = ml2(TwoParamML(1.0, 1.0), 10.0)
        assert not ev.converged
        assert ev.tail_bound == math.inf

    def test_positivity_and_monotonicity(self):
        p = TwoParamML(0.8, 1.2)
        prev = 0.0
        for i in range(21):
            z = 5.0 * i / 20
            v = ml2(p, z).value
            assert v > 0.0
            assert v > prev or i == 0
            prev = v

    @pytest.mark.parametrize(
        "alpha,beta,x",
        [(1.0, 1.0, 1.0), (0.5, 1.0, 2.0), (2.0, 1.0, 4.0),
         (1.5, 2.5, 3.0), (1.0, 1.0, -3.0), (0.7, 0.9, -2.0)])
    def test_tail_soundness(self, monkeypatch, alpha, beta, x):
        # Doubling the term budget moves the value by at most the
        # certified tail bound.
        ev = ml2(TwoParamML(alpha, beta), x)
        assert ev.converged
        monkeypatch.setattr(mittag, "MAX_TERMS", 2 * ev.terms_used)
        longer = ml2(TwoParamML(alpha, beta), x, tol=1e-15)
        slack = 2e-15 * max(1.0, abs(ev.value))
        assert abs(longer.value - ev.value) <= ev.tail_bound + slack

    @pytest.mark.parametrize(
        "alpha,beta,x",
        [(1.0, 1.0, 1.0), (0.5, 1.0, -1.0), (2.0, 3.0, 5.0), (1.0, 1.0, -5.0)])
    def test_against_brute_force_oracle(self, alpha, beta, x):
        ev = ml2(TwoParamML(alpha, beta), x)
        ref = float(oracles.mp_ml2(alpha, beta, x))
        assert rel(ev.value, ref) < 1e-12


class TestGeneralizedEvaluator:
    def test_at_zero(self):
        p = MLParameters(k=2.0, alpha=6.0, beta=7.0, gamma=2.0, q=1.0)
        ev = kml(p, 0.0)
        assert ev.value == 1.0 / k_gamma(7.0, 2.0)
        assert ev.converged

    def test_database_parameter_set(self):
        p = MLParameters(k=2.0, alpha=6.0, beta=7.0, gamma=2.0, q=1.0)
        assert rel(kml(p, 1.0).value, KML_DB_SET_Z1) < 1e-12

    def test_fractional_q_against_oracle(self):
        p = MLParameters(k=2.0, alpha=1.0, beta=2.0, gamma=1.5, q=0.5)
        for z in (-2.0, 0.3, 1.0, 3.0):
            ref = float(oracles.mp_kml(2.0, 1.0, 2.0, 1.5, 0.5, z))
            assert rel(kml(p, z).value, ref) < 1e-11

    def test_extreme_beta_at_zero(self):
        # 1/gamma_k(beta) by the range rule of recip_gamma, where Gamma(beta/k)
        # or the power of k leaves the double range.
        ev = kml(MLParameters(1.0, 1.0, 400.0, 1.0, 1.0), 0.0)
        assert ev == SeriesEvaluation(0.0, 1, 0.0, True)
        ev = kml(MLParameters(1.0, 1.0, 1e-310, 1.0, 1.0), 0.0)
        assert ev.converged
        assert ev.value == pytest.approx(1e-310, rel=1e-12)
        # k**(beta/k - 1) = 1e-356 underflows, Gamma(90) = 1.65e136.
        ev = kml(MLParameters(1e-4, 1.0, 0.009, 1.0, 1.0), 0.0)
        with mpmath.workdps(30):
            z = mpmath.mpf(0.009) / mpmath.mpf(1e-4)
            ref = 1 / (mpmath.mpf(1e-4) ** (z - 1) * mpmath.gamma(z))
        assert ev.converged
        assert rel(ev.value, float(ref)) < 1e-12
        # k = 1e-5: 1/gamma_k(beta) ~ e**780 is not a double.
        ev = kml(MLParameters(1e-5, 1.0, 0.001, 1.0, 1.0), 0.0)
        assert ev.value == math.inf
        assert not ev.converged

    @settings(max_examples=100)
    @given(k=st.floats(0.1, 10.0), beta=st.floats(1e-3, 300.0))
    def test_in_range_value_at_zero_is_unchanged(self, k, beta):
        # The forcing at t = 0 takes this path: in range it must keep its
        # bits.
        assume(beta / k <= 171.0)
        p = MLParameters(k, 1.0, beta, 1.0, 1.0)
        try:
            expected = 1.0 / k_gamma(beta, k)
        except (OverflowError, ZeroDivisionError):
            return
        assert kml(p, 0.0).value == expected

    def test_divergent_series_is_flagged(self):
        # q = 2 > 1 + alpha/k: term ratios grow without bound, so the series
        # has no value at any z != 0, even where its early terms shrink.
        p = MLParameters(k=1.0, alpha=0.5, beta=1.0, gamma=1.0, q=2.0)
        for z in (2.0, 1e-6, -1e-6):
            ev = kml(p, z)
            assert not ev.converged

    @settings(max_examples=100)
    @given(alpha=st.floats(0.5, 5.0), beta=st.floats(0.5, 5.0),
           z=st.floats(-3.0, 3.0))
    def test_reduction_to_two_parameter(self, alpha, beta, z):
        # With k = q = gamma = 1 the Pochhammer factor cancels n! exactly.
        p = MLParameters(k=1.0, alpha=alpha, beta=beta, gamma=1.0, q=1.0)
        v1 = kml(p, z).value
        v2 = ml2(TwoParamML(alpha, beta), z).value
        assert rel(v1, v2) < 1e-10

    def test_q_one_matches_direct_product_series(self):
        # Independent route: direct-product step-k Pochhammer coefficients.
        p = MLParameters(k=2.0, alpha=1.5, beta=2.0, gamma=1.7, q=1.0)
        for z in (0.5, -1.5, 2.0):
            direct = 0.0
            for n in range(40):
                direct += (k_pochhammer(1.7, n, 2.0) * z**n
                           / (k_gamma(1.5 * n + 2.0, 2.0) * math.factorial(n)))
            assert rel(kml(p, z).value, direct) < 1e-10


class TestBatchEvaluator:
    @settings(max_examples=60)
    @given(alpha=st.floats(0.5, 3.0),
           beta=st.one_of(st.floats(-3.0, 5.0),
                          st.integers(-3, 5).map(float)),
           xs=st.lists(st.floats(-6.0, 6.0).filter(lambda x: x != 0.0),
                       min_size=1, max_size=12))
    def test_settled_points_equal_ml2(self, alpha, beta, xs):
        # Integer beta <= 0 puts gamma poles among the first terms, which
        # the batch leaves to ml2; negative x with alpha near 1/2 cancels
        # and escalates.
        p = TwoParamML(alpha, beta)
        idx = np.arange(len(xs))
        value, settled = ML2Rows(p.alpha, [p.beta], PowerTable(xs),
                                 idx).take(0, idx)
        for i, x in enumerate(xs):
            if settled[i]:
                ev = ml2(p, x, INNER_TOL)
                assert ev.converged
                assert value[i] == ev.value

    def test_subnormal_beta(self):
        # 1/Gamma(beta) ~ beta is representable though Gamma(beta) is not.
        p = TwoParamML(1.0, 2.2250738585e-313)
        assert ml2(p, 0.0).value == pytest.approx(2.2250738585e-313, rel=1e-12)
        xs = [1.0, -0.5]
        idx = np.arange(2)
        value, settled = ML2Rows(p.alpha, [p.beta], PowerTable(xs),
                                 idx).take(0, idx)
        # Gamma(beta) is outside the direct branch: the batch leaves both
        # entries to ml2, which settles them.
        assert settled.all()
        for i, x in enumerate(xs):
            ev = ml2(p, x, INNER_TOL)
            assert ev.converged
            assert value[i] == ev.value
            # E_{1,0}(x) = x e^x
            assert ev.value == pytest.approx(x * math.exp(x), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.5, 3.0),
           betas=st.lists(st.one_of(st.floats(-3.0, 5.0),
                                    st.sampled_from([2.2250738585e-313,
                                                     175.5, 300.0])),
                          min_size=1, max_size=3),
           xs=st.lists(st.one_of(st.floats(-40.0, 40.0),
                                 st.sampled_from([-1e5, 1e5, 900.0])
                                 ).filter(lambda x: x != 0.0),
                       min_size=1, max_size=8))
    def test_every_entry_equals_ml2(self, alpha, betas, xs):
        # Offsets past the direct branch, powers that leave it and terms
        # that overflow end the batch's sum early; those entries come from
        # ml2 itself, so every entry is ml2's.
        idx = np.arange(len(xs))
        rows = ML2Rows(alpha, betas, PowerTable(xs), idx)
        for r, beta in enumerate(betas):
            value, converged = rows.take(r, idx)
            for i, x in enumerate(xs):
                ev = ml2(TwoParamML(alpha, beta), x, INNER_TOL)
                got = (float(value[i]), bool(converged[i]))
                assert repr(got) == repr((ev.value, ev.converged)), (beta, x)

    def test_ordinary_points_settle(self):
        xs = [-3.0, -0.5, 0.25, 2.0, 4.0]
        p = TwoParamML(1.5, 2.5)
        idx = np.arange(5)
        value, settled = ML2Rows(p.alpha, [p.beta], PowerTable(xs),
                                 idx).take(0, idx)
        assert settled.all()
        assert value.tolist() == [ml2(p, x, INNER_TOL).value for x in xs]


def _fields(value, used, tail, converged, status, i):
    # repr tells NaN, signed zeros and every bit of a float apart.
    ev = SeriesEvaluation(float(value[i]), int(used[i]), float(tail[i]),
                          bool(converged[i]))
    return repr(ev), status[i]


def _kml_fields(p, z, tol=INNER_TOL):
    ev = kml(p, z, tol)
    return repr(ev), ev.status


class TestKmlBatch:
    @settings(max_examples=80, deadline=None)
    @given(k=st.floats(0.5, 2.0), alpha=st.floats(0.5, 4.0),
           beta=st.one_of(st.floats(0.1, 5.0),
                          st.sampled_from([2.2250738585e-313, 1e-305,
                                           350.0, 400.0])),
           gamma=st.floats(0.1, 5.0),
           q=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           zs=st.lists(st.one_of(st.floats(-12.0, 12.0), st.just(0.0)),
                       min_size=1, max_size=10))
    def test_equals_kml(self, k, alpha, beta, gamma, q, zs):
        # Negative z cancels and escalates; q = 2, 3 with small alpha/k is
        # divergent; a subnormal or huge beta takes the log form at z = 0
        # and aborts or vanishes elsewhere.
        p = MLParameters(k, alpha, beta, gamma, q)
        out = kml_batch(p, zs)
        for i, z in enumerate(zs):
            assert _fields(*out, i) == _kml_fields(p, z), z

    @settings(max_examples=80, deadline=None)
    @given(k=st.floats(0.5, 2.0), alpha=st.floats(0.5, 4.0),
           beta=st.one_of(st.floats(0.1, 5.0),
                          st.sampled_from([2.2250738585e-313, 350.0])),
           gamma=st.floats(0.1, 5.0),
           q=st.sampled_from([0.3, 0.5, 1.0, 2.0, 3.0]),
           on_radius=st.booleans(),
           tol=st.sampled_from([1e-8, 1e-12, INNER_TOL]),
           zs=st.lists(st.one_of(st.floats(-12.0, 12.0), st.just(0.0)),
                       min_size=1, max_size=10))
    def test_equals_the_scalar_loop(self, k, alpha, beta, gamma, q,
                                    on_radius, tol, zs):
        # The batch vectorizes only IEEE-exact operations, so each entry is
        # the scalar loop's to the bit, status included.  q = 1 + alpha/k
        # gives a finite radius, with points on both sides of it.
        if on_radius and q > 1.0:
            alpha = (q - 1.0) * k
        p = MLParameters(k, alpha, beta, gamma, q)
        out = kml_batch(p, zs, tol)
        for i, z in enumerate(zs):
            ev = oracles.scalar_kml(p, z, tol)
            assert _fields(*out, i) == (repr(ev), ev.status), z

    def test_escalated_points_equal_kml(self, monkeypatch):
        # k = q = gamma = beta = 1: E(z) = exp(z), which cancels badly at
        # z << 0.
        calls = []
        original = mittag._kml_extended

        def recording(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(mittag, "_kml_extended", recording)
        p = MLParameters(1.0, 1.0, 1.0, 1.0, 1.0)
        zs = [-20.0, -3.0, 0.0, 2.5, -15.5]
        out = kml_batch(p, zs)
        assert calls == [-20.0, -3.0, -15.5]  # once each
        for i, z in enumerate(zs):
            ev = kml(p, z, INNER_TOL)
            assert ev.converged
            assert _fields(*out, i) == (repr(ev), ev.status)
        assert out[0][0] == pytest.approx(math.exp(-20.0), rel=1e-11)

    def test_database_grid_is_summed_at_once(self, monkeypatch):
        calls = []
        original = mittag.kml

        def recording(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mittag, "kml", recording)
        p = MLParameters(k=2.0, alpha=6.0, beta=7.0, gamma=2.0, q=1.0)
        zs = np.linspace(0.0, 0.5, 257).tolist()
        value, used, tail, converged, status = kml_batch(p, zs)
        assert converged.all()
        assert calls == []  # z = 0 included
        assert (value[0], used[0], tail[0], status[0]) == (
            1.0 / k_gamma(7.0, 2.0), 1, 0.0, "series")

    def test_rejects_non_finite_z(self):
        p = MLParameters(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kml_batch(p, [0.5, math.inf])

    def test_budget_runs_are_not_summed_again(self, monkeypatch):
        # alpha/k = 3.3e-11: (alpha n + beta)/k never reaches 2 within the
        # budget, so no point certifies: the sums at +-0.25 run all their
        # terms, and the one at 0.5 stops on a term overflow.  The batch's
        # partial sums are kml's, the negative one's too, and kml is not
        # called.
        calls = []
        original = mittag.kml
        monkeypatch.setattr(mittag, "kml",
                            lambda *args: calls.append(args) or original(*args))
        p = MLParameters(3.0, 1e-10, 1.5, 1.0, 1.0)
        zs = [0.25, 0.5, -0.25]
        out = kml_batch(p, zs)
        assert calls == []
        assert list(out[4]) == ["budget", "overflow", "budget"]
        monkeypatch.undo()
        for i, z in enumerate(zs):
            ev = kml(p, z, INNER_TOL)
            assert not ev.converged
            assert _fields(*out, i) == (repr(ev), ev.status)

    def test_sums_every_point_itself(self, monkeypatch):
        # k = alpha = 1, q = 2: the radius of convergence is 1/4.  One call
        # sums every point and calls kml for none: z = 0, the points beyond
        # the radius (divergent), the one on it (budget), and the negative
        # ones.  At gamma = 1 none escalates; at gamma = 8, -0.12 and -0.05
        # cancel and escalate at INNER_TOL but not at 1e-8, and -0.01 does
        # not.  Each entry equals the scalar loop and kml at that tol.
        calls = []
        original = mittag.kml
        monkeypatch.setattr(mittag, "kml",
                            lambda *args: calls.append(args) or original(*args))
        cases = [
            (1.0, [0.1, -0.1, 0.0, 0.3, 0.25, -0.3, 0.2], {INNER_TOL: [
                "series", "series", "series", "divergent", "budget",
                "divergent", "series"]}),
            (8.0, [0.1, -0.12, 0.0, 0.3, -0.3, 0.2, -0.05, -0.01], {
                INNER_TOL: ["series", "extended", "series", "divergent",
                            "divergent", "series", "extended", "series"],
                1e-8: ["series", "series", "series", "divergent",
                       "divergent", "series", "series", "series"]}),
        ]
        outs = []
        for gamma, zs, want in cases:
            p = MLParameters(1.0, 1.0, 1.0, gamma, 2.0)
            outs += [(p, zs, tol, kml_batch(p, zs, tol), status)
                     for tol, status in want.items()]
        assert calls == []
        monkeypatch.undo()
        for p, zs, tol, out, status in outs:
            assert list(out[4]) == status
            for i, z in enumerate(zs):
                ev = oracles.scalar_kml(p, z, tol)
                assert _fields(*out, i) == (repr(ev), ev.status), (tol, z)
                assert _fields(*out, i) == _kml_fields(p, z, tol), (tol, z)


class TestShouldEscalate:
    # (x, abs_sum, value, err_units, tol, escalates)
    CASES = [
        (-1.0, 10.0, math.nan, 1e20, 1e-13, False),
        (-1.0, 10.0, 0.0, 1e20, 1e-13, True),
        (-1.0, 1.0, 0.0, 1e-300, 1e-13, False),      # below tol * 1e-300
        (-1.0, 1.0, 1e-310, 1e-290, 1e-13, True),
        (-1.0, 1.0, 1e-310, 1e-300, 1e-13, False),
        (-1.0, math.inf, 1.0, 1e20, 1e-13, True),
        (1.0, 10.0, 0.0, 1e20, 1e-13, False),        # not alternating
        (-1.0, 10.0, 3.0, 1e20, 1e-13, False),       # no cancellation
        (-1.0, math.inf, 1e300, 1e300, 1e300, False),
        (-1.0, math.inf, -1e300, 1e300, 1e300, False),
    ]

    def test_floats_agree_with_arrays(self):
        # Floats stay Python floats: at tol = 1e300 the product overflows
        # to inf silently, where a numpy scalar would warn.
        cases = np.array([c[:5] for c in self.CASES])
        want = [c[5] for c in self.CASES]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [mittag._should_escalate(*c[:5]) for c in self.CASES]
        assert all(type(g) is bool for g in got)
        assert got == want
        for tol in sorted(set(cases[:, 4].tolist())):
            rows = np.flatnonzero(cases[:, 4] == tol)
            with np.errstate(over="ignore"):
                batch = mittag._should_escalate(*cases[rows, :4].T, tol)
            assert batch.tolist() == [want[i] for i in rows.tolist()]


# E_{1.95...,20.5...}(-1065.6...): an inner factor of a fast-removal solve
# whose terms all lie below 1.  The extended-precision re-sum once stopped
# there at an absolute threshold and certified 3.9342740282457804e-19.
SMALL_TERMS_POINT = (1.953681864029253, 20.53681864029253, -1065.6447624534312)


def _contour_ref_check(alpha, beta, x, tol):
    # The certificate rests on an error estimate, not a proven bound: every
    # value it accepts must be within tol * |value| of the brute-force sum.
    got = mittag._ml2_contour(alpha, beta, x, tol)
    if got is not None:
        ref = oracles.mp_ml2_sum(alpha, beta, x)
        assert abs(got[0] - ref) <= tol * abs(ref), (got, ref)
    return got


def _former_solution_log_coeff(p, n):
    """The solution series' log-coefficient as kinetics stated it before
    the coefficient was stated once (mittag.log_coeff_parts)."""
    k, alpha, beta, g, q = p.k, p.alpha, p.beta, p.gamma, p.q
    log_k = math.log(k)
    c0 = g / k
    lg_c0 = math.lgamma(c0)
    a = (alpha * n + beta) / k
    return (n * q * log_k + math.lgamma(c0 + n * q) - lg_c0
            - (a - 1.0) * log_k - math.lgamma(a))


def _former_kml_log_coeff(p, n):
    """The kml log-coefficient as mittag stated it before (with 1/n!)."""
    k, alpha, beta, g, q = p.k, p.alpha, p.beta, p.gamma, p.q
    log_k = math.log(k)
    c0 = g / k
    lg_c0 = math.lgamma(c0)
    lognum = n * q * log_k + math.lgamma(c0 + n * q) - lg_c0
    a = (alpha * n + beta) / k
    logden = (a - 1.0) * log_k + math.lgamma(a) + math.lgamma(n + 1.0)
    return lognum - logden


def _bits(x):
    return struct.pack("<d", x)


POSITIVE = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7e308),
    st.floats(0.1, 10.0),
    st.sampled_from([5e-324, 1e-310, 1e-300, 0.5, 1.0, 2.0, 3.0, 1e300]))


class TestLogCoeffParts:
    """One coefficient helper, combined in each caller's order, gives both
    former formulas bit for bit over the MLParameters domain."""

    @settings(max_examples=400, deadline=None)
    @given(k=POSITIVE, alpha=POSITIVE, beta=POSITIVE, gamma=POSITIVE,
           q=st.one_of(st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True),
                       st.integers(1, 50).map(float)),
           n=st.integers(0, 2000))
    def test_parts_combine_to_the_former_formulas(self, k, alpha, beta,
                                                  gamma, q, n):
        p = MLParameters(k, alpha, beta, gamma, q)
        parts = mittag.log_coeff_parts(p)
        if STIRLING_MIN <= gamma / k < math.inf:
            self._check_stirling_branch(p, n, parts)
            return
        try:
            solution = _former_solution_log_coeff(p, n)
            kml_coeff = _former_kml_log_coeff(p, n)
        except (ValueError, OverflowError):
            # A gamma argument left lgamma's range: the helper stops the
            # sum at n, or at 0 where gamma/k itself underflowed.
            with pytest.raises(SeriesAbort):
                parts(n if gamma / k else 0)
            return
        if math.inf in ((alpha * n + beta) / k, gamma / k + n * q):
            # An infinite gamma argument: lgamma is inf, and the former
            # formulas gave NaN or -inf.
            with pytest.raises(SeriesAbort):
                parts(n)
            return
        num, pw, lg = parts(n)
        assert _bits((num - pw) - lg) == _bits(solution)
        assert (_bits(num - ((pw + lg) + math.lgamma(n + 1.0)))
                == _bits(kml_coeff))

    @staticmethod
    def _check_stirling_branch(p, n, parts):
        # From gamma/k = STIRLING_MIN on, log (gamma/k)_{nq} is
        # specfun.log_gamma_rise, where the former formulas lost digits to
        # the cancellation of two log-gammas: num agrees with theirs within
        # that rounding, the other parts bit for bit.
        c0, log_k = p.gamma / p.k, math.log(p.k)
        a = (p.alpha * n + p.beta) / p.k
        lg = signed_log_gamma(a)[0]
        rise = log_gamma_rise(c0, n * p.q)
        try:
            num, pw, lg_got = parts(n)
        except SeriesAbort:
            assert lg == math.inf or not n * p.q * log_k + rise < math.inf
            return
        assert (_bits(pw), _bits(lg_got)) == (_bits((a - 1.0) * log_k),
                                             _bits(lg))
        try:
            lg_top = math.lgamma(c0 + n * p.q)
        except OverflowError:  # past about 2.6e305: the former raised
            return
        step = n * p.q * log_k
        former = step + lg_top - math.lgamma(c0)
        assert abs(num - former) <= 4 * mittag._EPS * (abs(step)
                                                       + abs(lg_top))


class TestOutOfRangeParameters:
    """Parameters whose ratios alpha/k, beta/k leave the double range give
    a result, never an exception: converged only where it is a number."""

    KS = (1e-300, 0.5, 3.0, 1e300)
    ALPHAS = (5e-324, 1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300)

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_kml_and_kml_batch(self, monkeypatch, k, alpha):
        # A small term budget: at a tiny alpha/k the gamma argument never
        # reaches 2, so those series run to the budget.
        monkeypatch.setattr(mittag, "MAX_TERMS", 300)
        zs = [0.25, -0.25, 1e-301, 0.0]
        for beta in (1e-310, 1.5, 1e300):
            p = MLParameters(k, alpha, beta, 1.0, 1.0)
            out = kml_batch(p, zs)
            for i, z in enumerate(zs):
                ev = kml(p, z, INNER_TOL)
                assert _fields(*out, i) == (repr(ev), ev.status)
                assert ev.status in ("series", "extended", "overflow",
                                     "budget", "divergent")
                if ev.converged:
                    assert math.isfinite(ev.value)

    def test_radius_at_an_underflowed_ratio(self):
        # alpha/k = 0 in double precision: q == 1 + alpha/k, and the radius
        # takes r log r -> 0, giving 1/k.
        assert mittag._radius(MLParameters(1e300, 1e-300, 1.5, 1.0, 1.0)) \
            == pytest.approx(1e-300, rel=1e-15)
        assert mittag._radius(MLParameters(3.0, 5e-324, 1.5, 1.0, 1.0)) \
            == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_unrepresentable_coefficient_is_an_overflow(self):
        # beta/k underflows to 0: Gamma(beta/k) is not a double.
        ev = kml(MLParameters(1e300, 1e300, 1e-310, 1.0, 1.0), 1e-301)
        assert not ev.converged
        assert (ev.status, ev.terms_used) == ("overflow", 0)


class TestContour:
    """The contour path of ml2 (mittag._ml2_contour) and its routing."""

    @settings(max_examples=40)
    @given(alpha=st.floats(0.25, 2.0), beta=st.floats(-2.0, 30.0),
           u=st.floats(0.0, 1.0), tol=st.sampled_from([1e-12, 1e-13]))
    def test_certified_values_meet_tol(self, alpha, beta, u, tol):
        # |x| <= 200**alpha keeps the brute-force sum affordable.
        x = -(0.5 + u * (min(3000.0, 200.0 ** alpha) - 0.5))
        _contour_ref_check(alpha, beta, x, tol)

    def test_rounding_grows_with_the_power(self):
        # The rounding of z**(alpha-beta) grows with |alpha - beta|: without
        # that factor in est, this value was certified at 1.23 * tol from the
        # brute-force sum.
        alpha, beta, x = 0.19404436050199458, 32.329425418611706, -1.0727292230726875
        _contour_ref_check(alpha, beta, x, 1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
    def test_exponential(self, x):
        value, _ = mittag._ml2_contour(1.0, 1.0, -x, 1e-12)
        assert rel(value, math.exp(-x)) <= 1e-12

    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0, 50.0, 400.0, 3000.0])
    def test_cosine(self, x):
        # E_{2,1}(-x) = cos(sqrt(x)): the poles +-i sqrt(x) lie right of
        # the contour or inside it, depending on x.
        value, _ = mittag._ml2_contour(2.0, 1.0, -x, 1e-12)
        assert rel(value, math.cos(math.sqrt(x))) <= 1e-12

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0])
    def test_erfc(self, x):
        # E_{1/2,1}(-x) = e**(x**2) erfc(x)
        with mpmath.workdps(30):
            ref = float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(x))
        value, _ = mittag._ml2_contour(0.5, 1.0, -x, 1e-12)
        assert rel(value, ref) <= 1e-12

    def test_tiny_values_are_not_certified(self):
        # e**-60 lies far below the contour's rounding floor: the relative
        # certificate refuses it, and ml2 takes the extended-precision path.
        assert mittag._ml2_contour(1.0, 1.0, -60.0, 1e-12) is None
        assert ml2(TwoParamML(1.0, 1.0), -60.0).status == "extended"

    def test_alpha_above_two_is_not_taken(self):
        assert mittag._ml2_contour(2.5, 1.0, -10.0, 1e-12) is None

    def test_overflowing_series_takes_the_contour(self, monkeypatch):
        # The double series overflows at term 751; the contour has the value.
        monkeypatch.setattr(mittag, "_ml2_extended", None)  # never called
        ev = ml2(TwoParamML(0.5, 1.0), -30.0)
        assert ev.converged and ev.status == "contour"
        assert ev.terms_used == 751
        assert rel(ev.value, 0.01879588886141671) <= 1e-12
        assert ev.tail_bound <= 1e-12 * ev.value / mittag._CONTOUR_SAFETY

    def test_overflow_without_contour_stays_unconverged(self, monkeypatch):
        # e**-800 is not certifiable in double precision, and an overflow
        # has no extended-precision fallback.
        monkeypatch.setattr(mittag, "_ml2_extended", None)
        ev = ml2(TwoParamML(1.0, 1.0), -800.0)
        assert not ev.converged and ev.status == "overflow"

    def test_cancelling_entries_share_one_route(self, monkeypatch):
        # ML2Rows.take hands each cancelling entry to ml2_value, the one
        # route of every inner factor no batch settles, and agrees with
        # ml2 bit for bit.
        calls = []
        original = mittag.ml2_value

        def recording(p, x):
            calls.append((p, x))
            return original(p, x)

        monkeypatch.setattr(mittag, "ml2_value", recording)
        p, xs = TwoParamML(1.5, 1.0), [-40.0, -3.0, -25.0]
        idx = np.arange(3)
        value, settled = ML2Rows(p.alpha, [p.beta], PowerTable(xs),
                                 idx).take(0, idx)
        assert calls == [(p, -40.0), (p, -25.0)]
        evs = [ml2(p, x, INNER_TOL) for x in xs]
        assert settled.all()
        assert value.tolist() == [ev.value for ev in evs]
        assert [ev.status for ev in evs] == ["contour", "series", "contour"]

    def test_uncertified_contour_falls_back_unchanged(self, monkeypatch):
        # Without the contour, the route is the extended-precision path.
        p, x = TwoParamML(1.5, 1.0), -40.0
        contour = ml2(p, x, INNER_TOL)
        monkeypatch.setattr(mittag, "_ml2_contour", lambda *args: None)
        ev = ml2(p, x, INNER_TOL)
        assert ev.status == "extended" and ev.converged
        assert rel(ev.value, contour.value) <= 1e-12
        idx = np.arange(1)
        value, settled = ML2Rows(p.alpha, [p.beta], PowerTable([x]),
                                 idx).take(0, idx)
        assert (value[0], settled[0]) == (ev.value, True)

    def test_database_sets_never_reach_the_contour(self, monkeypatch,
                                                   tmp_path):
        # scripts/make_database.py makes no escalation, so neither the
        # contour nor the extended-precision path runs, and the artifacts
        # it writes are the checked-in ones.
        calls = []

        def refuse(name):
            def record(*args):
                calls.append(name)
                raise AssertionError(name)
            return record

        monkeypatch.setattr(mittag, "_ml2_contour", refuse("contour"))
        monkeypatch.setattr(mittag, "_ml2_extended", refuse("extended"))
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "make_database", root / "scripts" / "make_database.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", ["make_database.py", "--out-dir",
                                          str(tmp_path)])
        script.main()
        assert calls == []
        for path in sorted((root / "artifacts").iterdir()):
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()


def _ml2_fields(p, x):
    ev = ml2(p, x, INNER_TOL)
    return ev.value, ev.converged


def _same(got, want):
    return (_bits(got[0]), got[1]) == (_bits(want[0]), want[1])


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(mittag, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(mittag, name, counting)
    return calls


class TestInnerFactorRoute:
    """mittag.ml2_value: ml2's value and convergence flag, taking the contour
    without the double series where ml2 certainly escalates to it."""

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.one_of(st.floats(0.0, 2.0, exclude_min=True),
                           st.floats(1.0 - 1e-6, 1.0 + 1e-6),
                           st.floats(2.0 - 1e-6, 2.0)),
           beta=st.floats(1.0, 25.0), x=st.floats(-4000.0, -1e-3))
    @example(alpha=1.5, beta=1.0, x=-40.0)    # routed, contour taken
    @example(alpha=1.0, beta=1.0, x=-22.5)    # routed, contour uncertified
    @example(alpha=2.0, beta=1.0, x=-3000.0)  # routed, pole residues
    @example(alpha=0.5, beta=1.0, x=-30.0)    # the series overflows
    def test_equals_ml2(self, alpha, beta, x):
        p = TwoParamML(alpha, beta)
        assert _same(ml2_value(p, x), _ml2_fields(p, x))

    @pytest.mark.parametrize("alpha, beta, x", [
        (1.5, 1.0, -40.0), (2.0, 1.0, -3000.0), (1.0, 2.0, -22.5),
        (1.9, 7.0, -500.0)])
    def test_routed_factor_sums_no_series(self, monkeypatch, alpha, beta, x):
        p = TwoParamML(alpha, beta)
        want = _ml2_fields(p, x)
        assert ml2(p, x, INNER_TOL).status == "contour"
        sums = _count_calls(monkeypatch, "sum_series")
        contours = _count_calls(monkeypatch, "_ml2_contour")
        assert _same(ml2_value(p, x), want)
        assert (len(sums), len(contours)) == (0, 1)

    @pytest.mark.parametrize("alpha, beta, x", [
        (2.5, 1.0, -10.0),   # alpha > 2: no contour
        (1.5, 1.0, 40.0),    # x > 0
        (1.5, 1.0, 0.0),
        (1.5, 1.0, -0.0),
        (0.7, 0.7, -40.0),   # beta < 1
        (1.5, 0.5, -40.0),
        (1.0, 1.0, -0.5),    # no cancellation
    ])
    def test_outside_the_route_falls_back(self, monkeypatch, alpha, beta, x):
        p = TwoParamML(alpha, beta)
        want = _ml2_fields(p, x)
        assert mittag._escalation_bound(alpha, beta, x) == 0.0
        calls = _count_calls(monkeypatch, "ml2")
        contours = _count_calls(monkeypatch, "_ml2_contour")
        assert _same(ml2_value(p, x), want)
        assert calls == [(p, x, INNER_TOL)]
        # Only ml2's own contour, where it escalates or overflows.
        assert len(contours) <= 1

    @pytest.mark.parametrize("scale", [None, 1e6])
    def test_rejected_route_falls_back_to_ml2(self, monkeypatch, scale):
        # A routed factor whose contour is not taken: uncertified (None), or
        # certified but (here, made) too large for the bound.  It is ml2's.
        p, x = TwoParamML(1.5, 1.0), -40.0
        assert mittag._escalation_bound(p.alpha, p.beta, x) > 0.0
        monkeypatch.setattr(mittag, "_ml2_contour", lambda *args: (
            None if scale is None else (scale, 0.0)))
        want = _ml2_fields(p, x)
        calls = _count_calls(monkeypatch, "ml2")
        assert _same(ml2_value(p, x), want)
        assert calls == [(p, x, INNER_TOL)]

    def test_budget_below_the_bound_falls_back(self, monkeypatch):
        # With too few terms to certify past the peak the series might end
        # on its budget, so the route is not taken.
        p, x = TwoParamML(1.5, 1.0), -40.0
        assert mittag._escalation_bound(p.alpha, p.beta, x) > 0.0
        monkeypatch.setattr(mittag, "MAX_TERMS", 30)
        want = _ml2_fields(p, x)
        assert mittag._escalation_bound(p.alpha, p.beta, x) == 0.0
        assert _same(ml2_value(p, x), want)
        assert want[1] is False

    def test_invalid_arguments_raise_as_ml2(self):
        p = TwoParamML(1.5, 1.0)
        for x in (-math.inf, math.inf, math.nan):
            with pytest.raises(DomainError):
                ml2_value(p, x)

    def test_inner_tol_is_within_the_bounds_derivation(self):
        # _escalation_bound's derivation neglects rounding noise against
        # the truncation, which needs INNER_TOL <= 1e-8.
        assert 0.0 < mittag.INNER_TOL <= 1e-8


class TestRelativePlacements:
    """The contour placements chosen for relative accuracy, tried after
    Garrappa's, and the extended-precision residues."""

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(1.0, 2.0), beta=st.floats(1.0, 22.0),
           u=st.floats(0.0, 1.0))
    def test_stiff_inner_factors_meet_tol(self, alpha, beta, u):
        # The inner factors E_{nu,b}(-(a t)**nu) of fast-removal solves, at
        # their inner tolerance; removal rates a <= 60 bound |x| by 60**nu.
        x = -(10.0 + u * (min(1100.0, 60.0 ** alpha) - 10.0))
        _contour_ref_check(alpha, beta, x, 1e-13)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.25, 0.99), beta=st.floats(-2.0, 30.0),
           u=st.floats(0.0, 1.0), tol=st.sampled_from([1e-12, 1e-13]))
    def test_alpha_below_one_meets_tol(self, alpha, beta, u, tol):
        x = -(0.5 + u * (min(200.0, 100.0 ** alpha) - 0.5))
        _contour_ref_check(alpha, beta, x, tol)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.3, 2.0), beta=st.floats(30.0, 200.0),
           u=st.floats(0.0, 1.0), tol=st.sampled_from([1e-10, 1e-13]))
    def test_large_beta_meets_tol(self, alpha, beta, u, tol):
        # z**(alpha-beta) oscillates fast on a parabola far from the saddle;
        # the oracle gives 0.0 where the value underflows, which no
        # certified value can match.
        x = -(1.0 + u * (min(3000.0, 100.0 ** alpha) - 1.0))
        _contour_ref_check(alpha, beta, x, tol)

    @pytest.mark.parametrize("alpha, beta, x, tol", [
        # Both rules alias the oscillation of z**(alpha-beta) alike: without
        # the phase-step limit, Garrappa's placement certified 9.4e-189 for
        # the first (true value 1.2e-341) and the vertex 4 certified
        # 1.3e-121 for the second (true value below 1e-308).
        (1.4032567403327711, 186.12606884508716, -73.39427052568027, 1e-12),
        (0.8537892019240338, 196.64348104979265, -45.17458494267553, 1e-10),
    ])
    def test_aliased_oscillation_is_refused(self, alpha, beta, x, tol):
        assert mittag._ml2_contour(alpha, beta, x, tol) is None

    @pytest.mark.parametrize("alpha, beta, x, tol, garrappa", [
        # The pole term in double precision, eps (1 + |s*|) |Res|, kept
        # Garrappa's placement from certifying this one.
        (1.6245, 1.0, -75.88, 1e-13, True),
        (0.7, 0.7, -40.0, 1e-12, False),
        (*SMALL_TERMS_POINT, 1e-13, False),
    ])
    def test_regression_points(self, monkeypatch, alpha, beta, x, tol,
                               garrappa):
        ev = ml2(TwoParamML(alpha, beta), x, tol)
        assert ev.converged and ev.status == "contour"
        assert ev.value == _contour_ref_check(alpha, beta, x, tol)[0]

        def garrappa_only(a, b, phi):
            return filter(None, [mittag._contour_params(a, b, phi)])

        monkeypatch.setattr(mittag, "_contour_placements", garrappa_only)
        only_garrappa = mittag._ml2_contour(alpha, beta, x, tol)
        assert (only_garrappa is not None) == garrappa

    def test_unit_step_stays_refused(self):
        # e**-60 is below the rounding floor of every placement.
        assert mittag._ml2_contour(1.0, 1.0, -60.0, 1e-13) is None

    @pytest.mark.parametrize("alpha, beta, x", [
        (1.6245, 1.0, -75.88), (2.0, 1.0, -3000.0), (1.3, -4.5, -20.0),
        (1.9, 25.0, -500.0)])
    def test_residues_in_extended_precision(self, alpha, beta, x):
        hi, lo, err = mittag._pole_residues(alpha, beta, x)
        with mpmath.workdps(50):
            s = (mpmath.mpf(-x) ** (1 / mpmath.mpf(alpha))
                 * mpmath.expjpi(1 / mpmath.mpf(alpha)))
            res = 2 / mpmath.mpf(alpha) * mpmath.exp(s) * s ** (1 - beta)
            assert abs(mpmath.mpf(hi) + lo - res.real) <= err
            assert err <= 1e-30 * abs(res)
        assert hi == float(res.real)

    def test_each_call_computes_the_residues_at_most_once(self, monkeypatch):
        calls = []
        original = mittag._pole_residues
        monkeypatch.setattr(
            mittag, "_pole_residues",
            lambda *args: calls.append(args) or original(*args))
        # The saddle lies right of the poles here; Garrappa's placement and
        # the vertices left of them both need the residues.
        assert mittag._ml2_contour(1.9, 25.0, -500.0, 1e-30) is None
        assert len(calls) == 1


class TestPoleResidues:
    """mittag._pole_residues runs on mpmath's libmp at an explicit precision;
    it must equal the context-level form (oracles.mp_pole_residues) bit for
    bit, whatever the caller's mpmath context."""

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(1.0, 2.0, exclude_min=True),
           betas=st.lists(st.floats(-5.0, 200.0), min_size=1, max_size=3),
           x=st.floats(-5000.0, -0.5))
    def test_equals_the_context_level_form(self, alpha, betas, x):
        # Several offsets at one (alpha, x), as the inner factors of a
        # solution point: the later ones reuse the memoized pole.
        for beta in betas:
            got = mittag._pole_residues(alpha, beta, x)
            assert got == oracles.mp_pole_residues(alpha, beta, x)

    @pytest.mark.parametrize("alpha, beta, x", [
        (1.6245, 1.0, -75.88), (2.0, 1.0, -3000.0), (1.9, 25.0, -500.0)])
    def test_independent_of_the_mpmath_context(self, monkeypatch, alpha,
                                               beta, x):
        expected = oracles.mp_pole_residues(alpha, beta, x)
        mittag._pole.cache_clear()
        with mpmath.workdps(5):
            cold = mittag._pole_residues(alpha, beta, x)
            warm = mittag._pole_residues(alpha, beta, x)
            assert mpmath.mp.dps == 5
        assert cold == warm == expected

    def test_threads_sharing_the_memo(self):
        # Threads alternate between two poles of an emptied memo, so they
        # fill and read it at once; every result must still be exact.
        mittag._pole.cache_clear()
        cases = [(1.6245, b, -75.88) for b in (1.0, 7.5)] + [
            (1.9, b, -500.0) for b in (25.0, 3.0)]
        expected = [oracles.mp_pole_residues(*c) for c in cases]
        wrong = []

        def work(offset):
            for i in range(300):
                j = (i + offset) % len(cases)
                if mittag._pole_residues(*cases[j]) != expected[j]:
                    wrong.append(cases[j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestCertStart:
    """mittag._cert_start replaces the per-term veto ``n >= MIN_TERMS and
    (alpha n + beta) / k >= 2`` by the first index where it holds."""

    @staticmethod
    def _vetoed(alpha, beta, k, n):
        return n >= mittag.MIN_TERMS and (alpha * n + beta) / k >= 2.0

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.one_of(st.floats(1e-300, 1e3), st.sampled_from(
               [5e-324, 1e-300, 1e-3, 1.0, 1e300])),
           beta=st.one_of(st.floats(-1e4, 1e4), st.sampled_from(
               [-1e300, -1e5, -7.0, 0.0, 1e-310, 2.0, 3.0, 1e300])),
           k=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
           max_terms=st.integers(0, 3000))
    def test_agrees_with_the_veto_at_every_index(self, alpha, beta, k,
                                                 max_terms):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mittag, "MAX_TERMS", max_terms)
            start = mittag._cert_start(alpha, beta, k)
        for n in range(max_terms):
            assert (n >= start) == self._vetoed(alpha, beta, k, n), n

    @pytest.mark.parametrize("alpha, beta, max_terms, expected", [
        (0.5, 3.0, 10_000, mittag.MIN_TERMS),      # beta >= 2
        (0.5, -20.0, 10_000, 44),
        (1e-3, -50.0, 3000, 3000),                 # past the budget
        (1e-300, -1e300, 200, 200),                # (2 - beta)/alpha = inf
        (1e-300, -1e300, 10 ** 30, sys.maxsize),   # and a huge budget
        (1.0, -50.0, 5, mittag.MIN_TERMS),         # the budget ends first
    ])
    def test_edges(self, monkeypatch, alpha, beta, max_terms, expected):
        monkeypatch.setattr(mittag, "MAX_TERMS", max_terms)
        assert mittag._cert_start(alpha, beta) == expected

    @pytest.mark.parametrize("alpha, beta, x, max_terms, expected, status", [
        (1e-300, 1.5, 0.5, 200,
         SeriesEvaluation(2.256758334191025, 200, math.inf, False), "budget"),
        (1e-300, -1e300, -3.0, 200,
         SeriesEvaluation(0.0, 200, math.inf, False), "budget"),
        (0.7, -50.0, 0.5, 10 ** 30,
         SeriesEvaluation(2.4315994726714445e+62, 76, 7.522835937393941e-24,
                          True), "series"),
        (2.5, 3.0, -3.0, 10 ** 30,
         SeriesEvaluation(0.4444475606030481, 9, 6.383540679292933e-21, True),
         "series"),
    ])
    def test_ml2_at_the_edges(self, monkeypatch, alpha, beta, x, max_terms,
                              expected, status):
        # Pinned from the per-term veto.
        monkeypatch.setattr(mittag, "MAX_TERMS", max_terms)
        ev = ml2(TwoParamML(alpha, beta), x, 1e-12)
        assert (ev, ev.status) == (expected, status)


def _summed_past_the_peak(alpha, beta, x):
    """E_{alpha,beta}(x) for x > 0, as an mpmath number: its terms are
    positive and unimodal, so the oracle sums them to e**-70 of the largest,
    past the peak."""
    log_x, n, top = math.log(x), 0, -math.inf
    while (term := n * log_x - math.lgamma(alpha * n + beta)) > top - 70:
        top = max(top, term)
        n += 1
    return oracles.mp_ml2_partial(alpha, beta, x, n)


def _ml2_peak_start(alpha, beta, log_x):
    # E_{alpha,beta} is kml at k = gamma = q = 1.
    return mittag._peak_start(MLParameters(1.0, alpha, beta, 1.0, 1.0), log_x)


def _former_peak_start(p, log_az):
    """mittag._peak_start before it covered gamma < k: the least n at which
    the kml term ratio at q = 1 is below 1, and 0 where q != 1 or gamma <
    k."""
    if p.q != 1.0 or p.gamma < p.k:
        return 0
    k, alpha, beta, c0 = p.k, p.alpha, p.beta, p.gamma / p.k
    s = alpha / k
    shift = log_az + (1.0 - s) * math.log(k)

    def past_peak(n):
        a = (alpha * n + beta) / k
        if a > 170.0:
            rise = log_gamma_rise(a, s)
        else:
            rise = signed_log_gamma(a + s)[0] - signed_log_gamma(a)[0]
        return rise > shift + math.log((c0 + n) / (n + 1))

    return bisect.bisect_left(range(mittag.MAX_TERMS), True, key=past_peak)


class TestPeakStart:
    """Past beta = 170 the terms before the peak can underflow to 0.0, and
    ml2 may certify only past the peak (mittag._peak_start); so may kml
    with q = 1, past the peak of a majorant of its term ratio."""

    @settings(max_examples=12, deadline=None)
    @given(alpha=st.floats(0.8, 1.5),
           beta=st.floats(170.0, 400.0, exclude_min=True),
           x=st.floats(1.0, 3000.0))
    @example(alpha=1.0, beta=250.0, x=2300.0)   # once 0 after 9 terms
    @example(alpha=1.0, beta=400.0, x=3000.0)
    @example(alpha=0.8, beta=380.0, x=900.0)    # a term overflows
    def test_positive_axis_against_the_oracle(self, alpha, beta, x):
        ev = ml2(TwoParamML(alpha, beta), x)
        if not ev.converged:
            assert ev.status == "overflow"
            return
        # Log-form terms carry about eps * lgamma of relative rounding each;
        # underflowed ones at most 1e-304 in all.
        ref = float(_summed_past_the_peak(alpha, beta, x))
        assert abs(ev.value - ref) <= 1e-10 * ref + 1e-300

    @settings(max_examples=8, deadline=None)
    @given(k=st.sampled_from([0.5, 1.0, 2.0]), alpha=st.floats(0.8, 1.5),
           b=st.floats(170.0, 400.0, exclude_min=True),
           x=st.floats(1.0, 3000.0))
    @example(k=1.0, alpha=1.0, b=250.0, x=2300.0)   # once 0 after 9 terms
    @example(k=0.5, alpha=1.0, b=180.0, x=1.0)      # E below the doubles
    @example(k=0.5, alpha=1.0, b=171.0, x=14.0)     # tail 1.3e-10 of E
    def test_kml_against_the_oracle(self, k, alpha, b, x):
        # At gamma = k and q = 1 the coefficient (k)_{n,k} / n! is k**n, so
        # kml(k, alpha k, b k, k, 1; z) = k**(1 - b) E_{alpha,b}(x) with
        # x = k**(1 - alpha) z: ml2's terms past beta = 170, scaled.  z
        # rounds x by an ulp or so, which moves the value by about x ulps.
        p = MLParameters(k, alpha * k, b * k, k, 1.0)
        z = x / k ** (1.0 - alpha)
        ev = kml(p, z)
        if not ev.converged:
            assert ev.status == "overflow"
            return
        # Scaled in mpmath: the factor takes E out of or into the double
        # range.
        ref = float(mpmath.mpf(k) ** (1 - mpmath.mpf(b))
                    * _summed_past_the_peak(alpha, b, x))
        # The tail is certified to tol * max(1, |value|), absolute below 1.
        # ml2 stops that early only below 1e-300; at k < 1 the factor lifts
        # such a value into the doubles (k = 0.5, b = 171, x = 14: 2.2e-256,
        # stopped after 9 terms with a tail of 1.3e-10 of it).  So the value
        # must lie within its certified tail, plus the rounding above.
        assert ev.tail_bound <= mittag.DEFAULT_TOL * max(1.0, abs(ev.value))
        assert abs(ev.value - ref) <= ev.tail_bound + 1e-10 * ref + 1e-300
        # kml_batch starts each point where kml does, also where the points'
        # peaks differ.
        zs = [z, 1.0, z / 2.0]
        out = kml_batch(p, zs)
        for i, zi in enumerate(zs):
            assert _fields(*out, i) == _kml_fields(p, zi), zi

    @settings(max_examples=10, deadline=None)
    @given(gamma=st.floats(0.01, 1.0, exclude_max=True),
           beta=st.floats(1.0, 300.0), z=st.floats(1.0, 3000.0))
    @example(gamma=0.5, beta=250.0, z=2300.0)   # once 0 after 9 terms
    @example(gamma=0.02, beta=300.0, z=3000.0)
    @example(gamma=0.99, beta=171.0, z=1.0)     # E below the doubles
    @example(gamma=0.5, beta=40.0, z=3000.0)    # E above them
    def test_gamma_below_k_against_the_closed_form(self, gamma, beta, z):
        # At k = alpha = q = 1 the coefficient is (gamma)_n / n!, so kml is
        # 1F1(gamma; beta; z) / Gamma(beta).
        p = MLParameters(1.0, 1.0, beta, gamma, 1.0)
        ev = kml(p, z)
        with mpmath.workdps(30):
            ref = float(mpmath.hyp1f1(gamma, beta, z) / mpmath.gamma(beta))
        if math.isinf(ref):
            assert (ev.converged, ev.status) == (False, "overflow")
        else:
            assert ev.converged, ev.status
            assert abs(ev.value - ref) <= (ev.tail_bound + 1e-10 * ref
                                           + 1e-300)
        # kml_batch starts each point where kml does, also where the points'
        # peaks differ.
        zs = [z, 1.0, z / 2.0]
        out = kml_batch(p, zs)
        for i, zi in enumerate(zs):
            assert _fields(*out, i) == _kml_fields(p, zi), zi

    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(1e-3, 1e3), alpha=st.floats(1e-3, 50.0),
           beta=st.floats(1e-3, 1e6), c0=st.floats(1e-3, 1e3),
           q=st.sampled_from([1.0, 1.0, 0.5, 2.0]),
           log_az=st.floats(-50.0, 700.0))
    def test_start_is_the_former_rule_with_its_exception_raised(
            self, k, alpha, beta, c0, q, log_az):
        # Where gamma >= k the majorant is the term ratio, and the start is
        # the former rule's, which was 0 below.  Below, the majorant's factor
        # max(1, (c0 + n)/(n + 1)) is 1, as the ratio's is at gamma = k.
        p = MLParameters(k, alpha, beta, c0 * k, q)
        start = mittag._peak_start(p, log_az)
        if p.gamma >= p.k:
            assert start == _former_peak_start(p, log_az)
        else:
            at_k = MLParameters(k, alpha, beta, k, q)
            assert start == _former_peak_start(at_k, log_az)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(1e-3, 50.0),
           beta=st.floats(170.0, 1e6, exclude_min=True),
           x=st.floats(1e-3, 1e5))
    def test_start_is_the_first_falling_ratio(self, alpha, beta, x):
        # Within one index of the first n where log Gamma(a + alpha) -
        # log Gamma(a) passes log x, as lgamma gives it in its range.
        def past(n):
            a = alpha * n + beta
            return math.lgamma(a + alpha) - math.lgamma(a) > math.log(x)

        start = _ml2_peak_start(alpha, beta, math.log(x))
        assert start == mittag.MAX_TERMS or past(start + 1)
        assert start == 0 or not past(start - 2)

    def test_start_where_lgamma_overflows(self):
        # log Gamma(1e306) is not a double, and beta + n rounds to beta.
        assert _ml2_peak_start(1.0, 1e306, 0.0) == 0
        assert _ml2_peak_start(1e-3, 1e306, math.log(1e308)) == (
            mittag.MAX_TERMS)


def test_brute_force_oracle_reaches_values_below_its_first_pass():
    # The first pass is accurate to about 1e-50 absolute; e**-300 lies far
    # below, so the oracle must keep adding digits until they cover it.
    assert rel(oracles.mp_ml2_sum(1.0, 1.0, -300.0), math.exp(-300.0)) <= 1e-14


class TestExtendedPrecision:
    """The extended-precision re-sum (mittag._mp_sum)."""

    def test_small_terms_stop_relative_to_the_largest(self, monkeypatch):
        # Every term of this series lies below 1; the stop must be relative
        # to the largest of them, as the reported tail assumes.  ml2 takes
        # the contour here, so it is refused to reach the re-sum, whose
        # abs_sum is recorded and both re-sums are called with it.
        alpha, beta, x = SMALL_TERMS_POINT
        tol, args = 1e-13, []
        original = mittag._ml2_extended
        monkeypatch.setattr(mittag, "_ml2_contour", lambda *a: None)
        monkeypatch.setattr(mittag, "_ml2_extended",
                            lambda *a: args.append(a) or original(*a))
        ml2(TwoParamML(alpha, beta), x, tol)
        (_, _, _, abs_sum), = args
        ref = oracles.mp_ml2_sum(alpha, beta, x)
        evaluations = [
            mittag._ml2_extended(alpha, beta, x, abs_sum),
            mittag._kml_extended(MLParameters(1.0, alpha, beta, 1.0, 1.0), x,
                                 abs_sum)]
        for value, _, tail in evaluations:
            assert tail <= tol * abs(value)
            assert abs(value - ref) <= max(tail, mittag._EPS * abs(ref))

    def test_pole_zeros_do_not_stop_the_sum(self, monkeypatch):
        # Twelve leading zeros (gamma poles), then 1 + 1/2 + 1/4 + ...
        def term(n):
            return mpmath.mpf(0) if n < 12 else mpmath.mpf(2) ** (12 - n)

        monkeypatch.setattr(mittag, "MAX_TERMS", 1000)
        value, used, _ = mittag._mp_sum(term, 1.0)  # 22 digits
        assert rel(value, 2.0) <= 1e-15 and used > 70

    def test_leading_pole_zeros(self):
        # E_{1,-50}(x) = x**51 e**x: the first 51 terms are pole zeros.
        ev = ml2(TwoParamML(1.0, -50.0), -30.0)
        assert ev.converged
        assert rel(ev.value, -(30.0 ** 51) * math.exp(-30.0)) <= 1e-12

    @pytest.mark.parametrize("x", [-60.0, -120.0, -200.0, -250.0, -300.0])
    def test_exponential_in_one_pass(self, monkeypatch, x):
        # E_{1,1}(x) = e**x = 1 / abs_sum, the smallest value the working
        # precision is sized for.  A precision sized from the double sum's
        # noise once certified 9.8e-52 for e**-250 = 2.7e-109.
        passes = []
        original = mittag._mp_sum
        monkeypatch.setattr(mittag, "_mp_sum",
                            lambda *a: passes.append(a) or original(*a))
        evaluations = [ml2(TwoParamML(1.0, 1.0), x)]
        if x == -200.0:
            evaluations.append(kml(MLParameters(1.0, 1.0, 1.0, 1.0, 1.0), x))
        for ev in evaluations:
            assert ev.status == "extended" and ev.converged
            assert rel(ev.value, math.exp(x)) <= 1e-15
        assert len(passes) == len(evaluations)

    def test_infinite_absolute_sum(self):
        # An infinite abs_sum takes the most digits and raises nothing.
        seen = set()

        def term(n):
            seen.add(mittag._MP.dps)
            return mittag._MP.mpf(2) ** -n

        value, _, tail = mittag._mp_sum(term, math.inf)
        assert seen == {mittag._MAX_DPS}
        assert (value, tail) == (2.0, math.inf)

    def test_global_precision_untouched(self, monkeypatch):
        # The re-sum works in a private mpmath context: while it runs, the
        # global precision another thread would see stays at its default.
        seen = set()
        original = mittag._mp_sum

        def recording(term_mp, abs_sum):
            def term(n):
                seen.add(mpmath.mp.dps)
                return term_mp(n)
            return original(term, abs_sum)

        monkeypatch.setattr(mittag, "_mp_sum", recording)
        assert ml2(TwoParamML(1.0, 1.0), -60.0).status == "extended"
        ev = kml(MLParameters(1.0, 1.0, 1.0, 1.0, 1.0), -200.0)
        assert (ev.status, ev.value) == ("extended", 1.3838965267367376e-87)
        assert seen == {15}


class TestStatus:
    def test_ml2_paths(self, monkeypatch):
        p = TwoParamML(1.0, 1.0)
        assert ml2(p, 1.0).status == "series"
        assert ml2(p, 0.0).status == "series"
        assert ml2(p, -60.0).status == "extended"
        assert ml2(TwoParamML(1.5, 1.0), -40.0).status == "contour"
        with monkeypatch.context() as m:
            m.setattr(mittag, "MAX_TERMS", 3)
            assert ml2(p, 10.0).status == "budget"
        # E_{1/2,1}(30) = e**900 erfc(-30) is not a double.
        ev = ml2(TwoParamML(0.5, 1.0), 30.0)
        assert (ev.converged, ev.status) == (False, "overflow")
        # A directly formed term x**n / Gamma(beta + n) that overflows:
        # 1e4 / Gamma(-168.5) is not a double.
        ev = ml2(TwoParamML(1.0, -169.5), 1e4)
        assert (ev.converged, ev.status) == (False, "overflow")

    @pytest.mark.parametrize("beta", [-171.5, -200.5])
    def test_ml2_at_zero_beyond_the_double_range(self, beta):
        # 1/Gamma(beta) is not a double: an infinity, reported unconverged,
        # as kml reports 1/gamma_k(beta) at z = 0.
        ev = ml2(TwoParamML(1.0, beta), 0.0)
        assert math.isinf(ev.value)
        assert (ev.converged, ev.status) == (False, "overflow")

    def test_kml_paths(self, monkeypatch):
        p = MLParameters(1.0, 1.0, 1.0, 1.0, 1.0)   # E(z) = exp(z)
        assert kml(p, 1.0).status == "series"
        assert kml(p, 0.0).status == "series"
        assert kml(p, -20.0).status == "extended"
        with monkeypatch.context() as m:
            m.setattr(mittag, "MAX_TERMS", 3)
            assert kml(p, 3.0).status == "budget"
        assert kml(p, 800.0).status == "overflow"
        ev = kml(MLParameters(1e-5, 1.0, 0.001, 1.0, 1.0), 0.0)
        assert (ev.converged, ev.status) == (False, "overflow")
        divergent = MLParameters(1.0, 0.5, 1.0, 1.0, 2.0)
        assert kml(divergent, 1e-6).status == "divergent"

    def test_status_is_not_part_of_equality(self):
        a = SeriesEvaluation(1.0, 3, 0.0, True, "series")
        assert a == SeriesEvaluation(1.0, 3, 0.0, True)
        assert repr(a) == repr(SeriesEvaluation(1.0, 3, 0.0, True))


class TestKmlRadius:
    # At q == 1 + alpha/k the radius of convergence is
    # R = (alpha/k)**(alpha/k) / (k q**q); k is a power of two so that
    # alpha/k is exact.
    @settings(max_examples=30)
    @given(k=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
           q=st.sampled_from([2.0, 3.0]),
           beta=st.floats(0.1, 5.0), gamma=st.floats(0.1, 5.0),
           scale=st.floats(0.0, 3.0), negative=st.booleans())
    def test_nothing_beyond_the_radius_is_certified(self, k, q, beta, gamma,
                                                    scale, negative):
        alpha = (q - 1.0) * k
        p = MLParameters(k, alpha, beta, gamma, q)
        r = alpha / k
        radius = r ** r / (k * q ** q)
        z = scale * radius * (-1.0 if negative else 1.0)
        ev = kml(p, z, INNER_TOL)
        batch = kml_batch(p, [z])
        assert _fields(*batch, 0) == (repr(ev), ev.status)
        if abs(z) > radius:
            assert not ev.converged and ev.status == "divergent"
            assert ev.terms_used == 0

    def test_inside_the_radius(self):
        # k = gamma = beta = 1, alpha = 1, q = 2: the coefficients are
        # (2n)! / (n!)**2, so E(z) = 1 / sqrt(1 - 4 z) with R = 1/4.
        p = MLParameters(1.0, 1.0, 1.0, 1.0, 2.0)
        ev = kml(p, 0.1)
        assert ev.converged
        assert rel(ev.value, 1.0 / math.sqrt(0.6)) < 1e-12

    def test_radius_beyond_the_double_range_is_infinite(self):
        # q == 1 + alpha/k with k = 5e-324: 1/k is not a double.
        assert mittag._radius(MLParameters(5e-324, 5e-324, 1.0, 1.0, 2.0)) \
            == math.inf
