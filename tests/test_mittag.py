import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import fracml.mittag as mittag
from fracml.errors import DomainError
from fracml.mittag import (
    MLParameters,
    PowerTable,
    ReductionCase,
    TwoParamML,
    SeriesEvaluation,
    kml,
    kml_batch,
    ml2,
    ml2_batch,
    reduction_case,
)
from fracml.specfun import k_gamma, k_pochhammer, recip_gamma

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

    def test_max_terms_exhaustion_is_flagged(self):
        ev = ml2(TwoParamML(1.0, 1.0), 10.0, max_terms=3)
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
    def test_tail_soundness(self, alpha, beta, x):
        # Doubling the term budget moves the value by at most the
        # certified tail bound.
        ev = ml2(TwoParamML(alpha, beta), x)
        assert ev.converged
        longer = ml2(TwoParamML(alpha, beta), x, tol=1e-15,
                     max_terms=2 * ev.terms_used)
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
                       min_size=1, max_size=12),
           tol=st.sampled_from([1e-10, 1e-13]))
    def test_settled_points_equal_ml2(self, alpha, beta, xs, tol):
        # Integer beta <= 0 puts gamma poles among the first terms; negative
        # x with alpha near 1/2 cancels and escalates.
        p = TwoParamML(alpha, beta)
        value, used, settled = ml2_batch(p, PowerTable(xs),
                                         np.arange(len(xs)), tol)
        for i, x in enumerate(xs):
            if settled[i]:
                ev = ml2(p, x, tol)
                assert ev.converged
                assert (value[i], used[i]) == (ev.value, ev.terms_used)

    def test_subnormal_beta(self):
        # 1/Gamma(beta) ~ beta is representable though Gamma(beta) is not.
        p = TwoParamML(1.0, 2.2250738585e-313)
        assert ml2(p, 0.0).value == pytest.approx(2.2250738585e-313, rel=1e-12)
        xs = [1.0, -0.5]
        value, _, settled = ml2_batch(p, PowerTable(xs), np.arange(2))
        assert not settled.any()
        for x in xs:
            ev = ml2(p, x)
            assert ev.converged
            # E_{1,0}(x) = x e^x
            assert ev.value == pytest.approx(x * math.exp(x), rel=1e-12)

    def test_ordinary_points_settle(self):
        xs = [-3.0, -0.5, 0.25, 2.0, 4.0]
        p = TwoParamML(1.5, 2.5)
        value, used, settled = ml2_batch(p, PowerTable(xs), np.arange(5))
        assert settled.all()
        assert value.tolist() == [ml2(p, x).value for x in xs]
        assert used.tolist() == [ml2(p, x).terms_used for x in xs]


def _fields(value, used, tail, converged, i):
    # repr tells NaN, signed zeros and every bit of a float apart.
    return repr(SeriesEvaluation(float(value[i]), int(used[i]),
                                 float(tail[i]), bool(converged[i])))


class TestKmlBatch:
    @settings(max_examples=80, deadline=None)
    @given(k=st.floats(0.5, 2.0), alpha=st.floats(0.5, 4.0),
           beta=st.one_of(st.floats(0.1, 5.0),
                          st.sampled_from([2.2250738585e-313, 1e-305,
                                           350.0, 400.0])),
           gamma=st.floats(0.1, 5.0),
           q=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           zs=st.lists(st.one_of(st.floats(-12.0, 12.0), st.just(0.0)),
                       min_size=1, max_size=10),
           tol=st.sampled_from([1e-10, 1e-13]))
    def test_equals_kml(self, k, alpha, beta, gamma, q, zs, tol):
        # Negative z cancels and escalates; q = 2, 3 with small alpha/k is
        # divergent; a subnormal or huge beta takes the log form at z = 0
        # and aborts or vanishes elsewhere.
        p = MLParameters(k, alpha, beta, gamma, q)
        out = kml_batch(p, zs, tol)
        for i, z in enumerate(zs):
            assert _fields(*out, i) == repr(kml(p, z, tol)), z

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
            ev = kml(p, z)
            assert ev.converged
            assert _fields(*out, i) == repr(ev)
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
        value, used, tail, converged = kml_batch(p, zs)
        assert converged[1:].all()
        assert len(calls) == 1  # z = 0 only

    def test_rejects_non_finite_z(self):
        p = MLParameters(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kml_batch(p, [0.5, math.inf])


class TestReductionCase:
    def test_classification(self):
        def params(k, q, gamma, beta, alpha=0.7):
            return MLParameters(k=k, alpha=alpha, beta=beta, gamma=gamma, q=q)

        assert reduction_case(params(1.0, 1.0, 1.0, 1.0)) is ReductionCase.ONE_PARAMETER
        assert reduction_case(params(1.0, 1.0, 1.0, 2.0)) is ReductionCase.TWO_PARAMETER
        assert reduction_case(params(1.0, 1.0, 2.0, 2.0)) is ReductionCase.PRABHAKAR
        assert reduction_case(params(1.0, 2.0, 1.5, 2.0)) is ReductionCase.GENERALIZED_ML
        assert reduction_case(params(2.0, 1.0, 2.0, 7.0, alpha=6.0)) is ReductionCase.K_ML
        assert reduction_case(params(3.0, 2.0, 1.5, 2.0, alpha=1.0)) is ReductionCase.GENERAL
