import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracml.errors import DomainError, PoleError
from fracml.specfun import (
    STIRLING_MIN,
    gamma,
    generalized_pochhammer,
    k_gamma,
    k_pochhammer,
    k_pochhammer_general,
    log_gamma_rise,
    recip_gamma,
    recip_k_gamma,
    signed_log_gamma,
)
from oracles import k_gamma_general, log_gamma, mp_log_gamma_rise, pochhammer

# Reference values computed with a 50-digit brute-force oracle (tests/oracles.py).
GAMMA_3_5 = 3.3233509704478425512
LOG_GAMMA_171 = 706.57306224578734711
K_GAMMA_7_2 = 18.799712059732503768
GEN_POCH_2_5_3_05 = 4.5135166683820502956


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestGamma:
    def test_factorial_identity(self):
        assert gamma(5.0) == 24.0

    def test_half(self):
        assert rel(gamma(0.5), math.sqrt(math.pi)) < 1e-15

    def test_three_and_a_half(self):
        assert rel(gamma(3.5), GAMMA_3_5) < 1e-13

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma(172.0)

    def test_negative_non_pole(self):
        assert rel(gamma(-0.5), -2.0 * math.sqrt(math.pi)) < 1e-14

    def test_non_finite(self):
        with pytest.raises(DomainError):
            gamma(math.inf)


class TestLogGamma:
    def test_at_one_and_two(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_large_argument(self):
        assert abs(log_gamma(171.0) - LOG_GAMMA_171) <= 1e-12 * LOG_GAMMA_171

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestRecipGamma:
    def test_poles_are_zero(self):
        assert recip_gamma(0.0) == 0.0
        assert recip_gamma(-3.0) == 0.0

    def test_regular_point(self):
        assert rel(recip_gamma(5.0), 1.0 / 24.0) < 1e-15

    def test_beyond_overflow(self):
        # 1/Gamma underflows smoothly instead of raising.
        assert recip_gamma(500.0) == 0.0

    @pytest.mark.parametrize("x, expected", [(-171.5, math.inf),
                                             (-200.5, -math.inf)])
    def test_beyond_the_double_range(self, x, expected):
        # 1/Gamma(x) exceeds the largest double: an infinity of its sign.
        assert recip_gamma(x) == expected

    @settings(max_examples=2000)
    @given(x=st.one_of(st.floats(-400.0, 400.0), st.floats(-180.0, -160.0),
                       st.floats(-1e-290, 1e-290),
                       st.integers(-300, 300).map(float),
                       st.floats(allow_nan=False, allow_infinity=False)))
    def test_equals_the_former_formula_bit_for_bit(self, x):
        # recip_gamma is recip_k_gamma at k = 1; it returns the bits of its
        # former own formula wherever that formula returned, and an
        # infinity where it raised.
        def former(x):
            if x <= 0.0 and x == math.floor(x):
                return 0.0
            if -171.62 < x <= 171.62 and abs(x) >= 1e-300:
                return 1.0 / math.gamma(x)
            lg, sg = signed_log_gamma(x)
            return sg * math.exp(-lg)

        value = recip_gamma(x)
        assert struct.pack("<d", value) == struct.pack(
            "<d", recip_k_gamma(x, 1.0))
        try:
            expected = former(x)
        except (OverflowError, ZeroDivisionError):
            assert math.isinf(value)
            return
        assert struct.pack("<d", value) == struct.pack("<d", expected)


class TestKGamma:
    def test_unit_value(self):
        assert k_gamma(2.0, 2.0) == 1.0

    def test_reference_value(self):
        assert rel(k_gamma(7.0, 2.0), K_GAMMA_7_2) < 1e-13

    def test_k_one_collapse_is_exact(self):
        for x in (0.3, 1.0, 2.5, 7.75, 50.0):
            assert k_gamma(x, 1.0) == gamma(x)

    def test_negative_k(self):
        with pytest.raises(DomainError):
            k_gamma(2.0, -1.0)

    def test_pole(self):
        with pytest.raises(PoleError):
            k_gamma(-4.0, 2.0)

    def test_overflow(self):
        # 100**149 Gamma(150) is not a double.
        with pytest.raises(OverflowError):
            k_gamma(15000.0, 100.0)

    @settings(max_examples=200)
    @given(x=st.floats(0.1, 50.0), k=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_functional_equation(self, x, k):
        # gamma_k(x + k) = x * gamma_k(x)
        assert abs(k_gamma(x + k, k) - x * k_gamma(x, k)) \
            <= 1e-10 * abs(x * k_gamma(x, k))


class TestKGammaGeneral:
    def test_examples(self):
        assert k_gamma_general(2.0, 2.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert k_gamma_general(3.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_matches_single_step_form(self):
        assert rel(k_gamma_general(7.0, 2.0, 2.0), k_gamma(7.0, 2.0)) < 1e-13

    @settings(max_examples=100)
    @given(g=st.floats(0.5, 20.0), s=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           k=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_equals_k_gamma_with_step_s(self, g, s, k):
        assert rel(k_gamma_general(g, s, k), k_gamma(g, s)) < 1e-12


class TestPochhammer:
    def test_factorial(self):
        assert pochhammer(1.0, 5) == 120.0

    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0
        assert pochhammer(0.0, 0) == 1.0

    def test_zero_factor(self):
        assert pochhammer(-2.0, 4) == 0.0

    def test_negative_count(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            pochhammer(10.0, 300)


class TestKPochhammer:
    def test_direct_product(self):
        assert k_pochhammer(2.0, 3, 2.0) == 48.0

    def test_empty(self):
        assert k_pochhammer(2.0, 0, 2.0) == 1.0

    def test_scaling_route(self):
        # (x)_{n,k} = k**n (x/k)_n
        assert k_pochhammer_general(2.0, 3, 1.0, 2.0) == pytest.approx(48.0, rel=1e-12)

    def test_requires_positive_k(self):
        with pytest.raises(DomainError):
            k_pochhammer(2.0, 3, 0.0)

    @pytest.mark.parametrize("n", [1.5, "2"])
    def test_requires_an_integer_count(self, n):
        with pytest.raises(DomainError):
            k_pochhammer(2.0, n, 1.0)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            k_pochhammer(1e200, 2, 1.0)

    @settings(max_examples=200)
    @given(x=st.floats(0.5, 10.0), n=st.integers(0, 20),
           k=st.sampled_from([0.5, 1.0, 2.0]))
    def test_gamma_ratio_form(self, x, n, k):
        product = k_pochhammer(x, n, k)
        ratio = k_gamma(x + n * k, k) / k_gamma(x, k)
        assert rel(product, ratio) < 1e-10


class TestGeneralizedPochhammer:
    def test_gamma_ratio(self):
        assert generalized_pochhammer(3.0, 2, 2.0) == pytest.approx(360.0, rel=1e-12)

    def test_empty(self):
        for g in (0.7, 3.0, 11.5):
            assert generalized_pochhammer(g, 0, 2.0) == 1.0

    def test_fractional_step(self):
        v = generalized_pochhammer(2.5, 3, 0.5)
        assert rel(v, GEN_POCH_2_5_3_05) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            generalized_pochhammer(-1.0, 1, 1.0)

    @pytest.mark.parametrize("q", [0.0, -1.0])
    def test_requires_positive_step(self, q):
        with pytest.raises(DomainError):
            generalized_pochhammer(2.0, 1, q)

    def test_overflow_from_a_large_argument(self):
        # g >= STIRLING_MIN: 100**154 is a double, but Gamma(254)/Gamma(100)
        # is not.
        with pytest.raises(OverflowError):
            generalized_pochhammer(100.0, 1, 154.0)

    @pytest.mark.parametrize("g, n, q", [(1e306, 2, 1.0), (1.0, 1, 1e306)])
    def test_log_gamma_beyond_the_double_range(self, g, n, q):
        # The ratio is not a double, and log Gamma(g + n q) is not either
        # (signed_log_gamma gives inf): it raises, not NaN.
        with pytest.raises(OverflowError):
            generalized_pochhammer(g, n, q)

    @pytest.mark.parametrize("g", [1e15, 1e306])
    def test_large_argument_rise(self, g):
        # (g)_1 = g.  As a difference of log-gammas, exponentiated, it was
        # 7.896e13 at g = 1e15, and raised at 1e306.
        assert abs(generalized_pochhammer(g, 1, 1.0) - g) <= 2 * math.ulp(g)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("g", [0.7, 1.0, 2.5, 4.0])
    def test_multiplication_theorem_product(self, q, g):
        # For integer q the gamma ratio factors through the multiplication
        # theorem: (g)_{nq} = q**(qn) * prod_{r<q} ((g+r)/q)_n.
        for n in range(0, 7):
            product = float(q) ** (q * n)
            for r in range(q):
                product *= pochhammer((g + r) / q, n)
            assert rel(generalized_pochhammer(g, n, float(q)), product) < 1e-11


class TestLogGammaRise:
    """specfun.log_gamma_rise: log Gamma(a + s) - log Gamma(a), with no
    cancellation of the two log-gammas."""

    @settings(max_examples=200, deadline=None)
    @given(a=st.one_of(st.floats(STIRLING_MIN, 1e300),
                       st.floats(0.0, 300.0).map(lambda e: 10.0 ** e),
                       st.sampled_from([STIRLING_MIN, 1e15, 1e300])),
           s=st.one_of(st.floats(0.0, 1e4),
                       st.floats(-12.0, 4.0).map(lambda e: 10.0 ** e),
                       st.integers(0, 10_000).map(float)))
    def test_equals_mpmath(self, a, s):
        a = max(a, STIRLING_MIN)
        ref = mp_log_gamma_rise(a, s)
        assert abs(log_gamma_rise(a, s) - ref) <= 4 * math.ulp(ref)

    def test_rise_that_the_sum_rounds_away(self):
        # 1e300 + 1 == 1e300, yet the rise is log 1e300.
        assert log_gamma_rise(1e300, 1.0) == pytest.approx(
            math.log(1e300), rel=1e-15)


class TestKPochhammerGeneral:
    @pytest.mark.parametrize("k", [0.0, -1.0])
    def test_requires_positive_k(self, k):
        with pytest.raises(DomainError):
            k_pochhammer_general(2.0, 1, 1.0, k)

    def test_simple(self):
        assert k_pochhammer_general(2.0, 1, 1.0, 2.0) == pytest.approx(2.0, rel=1e-13)

    def test_k_one_reduction(self):
        for g, n, q in [(2.0, 3, 1.0), (1.5, 4, 0.5), (3.0, 2, 2.0)]:
            assert k_pochhammer_general(g, n, q, 1.0) == \
                generalized_pochhammer(g, n, q)

    def test_matches_direct_product_at_q_one(self):
        assert rel(k_pochhammer_general(2.0, 2, 1.0, 2.0),
                   k_pochhammer(2.0, 2, 2.0)) < 1e-12

    @settings(max_examples=200)
    @given(x=st.floats(0.5, 5.0), n=st.integers(0, 8), r=st.integers(0, 8),
           q=st.sampled_from([1.0, 2.0]), k=st.sampled_from([1.0, 2.0]))
    def test_splitting_identity(self, x, n, r, q, k):
        # (x)_{(n+r)q,k} = (x)_{rq,k} * (x + q r k)_{nq,k}
        whole = k_pochhammer_general(x, n + r, q, k)
        split = (k_pochhammer_general(x, r, q, k)
                 * k_pochhammer_general(x + q * r * k, n, q, k))
        assert rel(whole, split) < 1e-10

    @settings(max_examples=200)
    @given(g=st.floats(0.5, 5.0), n=st.integers(0, 10),
           q=st.sampled_from([0.5, 1.0, 2.0]),
           s=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           k=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_step_scaling_identity(self, g, n, q, s, k):
        # (g)_{nq,s} = (s/k)**(nq) * (k g / s)_{nq,k}
        lhs = k_pochhammer_general(g, n, q, s)
        rhs = (s / k) ** (n * q) * k_pochhammer_general(k * g / s, n, q, k)
        assert rel(lhs, rhs) < 1e-10
