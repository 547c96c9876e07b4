import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracml.summation import SeriesAbort, sum_series, sum_series_batch

# One series: term(n) = scale * ratio**n, sign-alternating or not, zero
# before index `zeros`, aborting at index `abort` (never when None).
series = st.tuples(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(0.0, 1.5),
    st.booleans(),
    st.integers(0, 12),
    st.one_of(st.none(), st.integers(0, 40)),
)


def assert_certified(value, tail, converged, tol):
    # A converged sum's tail bound is below tol * max(1, |value|): the
    # batched Mittag-Leffler evaluators take a converged sum as certified
    # without testing its tail again.
    if converged:
        assert tail <= tol * max(1.0, abs(value)), (value, tail, tol)


def scalar_term(spec):
    scale, ratio, alternate, zeros, abort = spec

    def term(n):
        if n == abort:
            raise SeriesAbort("abort")
        if n < zeros:
            return 0.0
        t = scale * ratio**n
        return -t if alternate and n % 2 else t

    return term


@settings(max_examples=150)
@given(specs=st.lists(series, min_size=1, max_size=12),
       tol=st.sampled_from([1e-6, 1e-12, 1e-15]),
       max_terms=st.integers(1, 60),
       cert_from=st.integers(0, 15))
def test_batch_equals_scalar_sum(specs, tol, max_terms, cert_from):
    terms = [scalar_term(s) for s in specs]
    min_terms = max(8, cert_from)

    def batch_term(n, pos):
        out, bad = np.zeros(pos.size), np.zeros(pos.size, dtype=bool)
        for j, i in enumerate(pos.tolist()):
            try:
                out[j] = terms[i](n)
            except SeriesAbort:
                bad[j] = True
        return out, bad

    res = sum_series_batch(batch_term, len(specs), tol, max_terms, min_terms)
    for i, term in enumerate(terms):
        ref = sum_series(term, tol, max_terms, min_terms)
        got = (res.value[i], res.terms[i], res.tail_bound[i],
               res.converged[i], res.abs_sum[i])
        assert got == ref[:5], (i, specs[i])  # the batch keeps no reason
        assert math.copysign(1.0, res.value[i]) == math.copysign(1.0, ref.value)
        assert_certified(ref.value, ref.tail_bound, ref.converged, tol)
        assert_certified(res.value[i], res.tail_bound[i], res.converged[i],
                         tol)


@settings(max_examples=100)
@given(specs=st.lists(st.tuples(series, st.integers(0, 15)), min_size=1,
                      max_size=12),
       tol=st.sampled_from([1e-6, 1e-12, 1e-15]),
       max_terms=st.integers(1, 60))
def test_per_series_certificate_equals_scalar_sum(specs, tol, max_terms):
    # min_terms may give one index per series, as for the rows of a block of
    # Mittag-Leffler functions with different offsets.
    # Aborts are covered above; these series run to their end.
    terms = [scalar_term(s[:4] + (None,)) for s, _ in specs]
    min_terms = np.maximum(8, [c for _, c in specs])

    def batch_term(n, pos):
        out = np.array([terms[i](n) for i in pos.tolist()])
        return out, np.zeros(pos.size, dtype=bool)

    res = sum_series_batch(batch_term, len(specs), tol, max_terms, min_terms)
    for i, term in enumerate(terms):
        ref = sum_series(term, tol, max_terms, int(min_terms[i]))
        got = (res.value[i], res.terms[i], res.tail_bound[i],
               res.converged[i], res.abs_sum[i])
        assert got == ref[:5], (i, specs[i])
        assert_certified(ref.value, ref.tail_bound, ref.converged, tol)
        assert_certified(res.value[i], res.tail_bound[i], res.converged[i],
                         tol)


def test_abort_reason_is_kept():
    aborted = sum_series(scalar_term((1.0, 0.5, False, 0, 3)), 1e-12, 60, 8)
    assert (aborted.converged, aborted.terms, aborted.abort) == (False, 2, "abort")
    done = sum_series(scalar_term((1.0, 0.25, False, 0, None)), 1e-12, 60, 8)
    assert done.converged and done.abort is None
    budget = sum_series(scalar_term((1.0, 0.99, False, 0, None)), 1e-12, 5, 8)
    assert not budget.converged and budget.abort is None


# The compensated step: sum_series and sum_series_batch take the rounding
# error of acc + t from TwoSum; they once took it from Neumaier's branch.
DBL_MAX = sys.float_info.max
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
         2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0,
         1.0 + 2.0**-52, -(1.0 + 2.0**-52), 0.1, -0.3, 3.0, 2.0**53, 1e16,
         -1e16, 1e300, -1e300, 1e308, -1e308, 8.98846567431158e307,
         -1.3e308, DBL_MAX, -DBL_MAX]


def _neumaier(acc, t):
    s = acc + t
    if abs(acc) >= abs(t):
        return (acc - s) + t
    return (t - s) + acc


def _twosum(acc, t):
    s = acc + t
    bp = s - acc
    return (acc - (s - bp)) + (t - bp)


def _bits(x):
    return np.float64(x).tobytes()


def _neumaier_sum_series(term, tol, max_terms, min_terms):
    """sum_series with Neumaier's branch, as it was before TwoSum."""
    acc = carry = abs_sum = 0.0
    n = 0
    try:
        t = term(0)
        at = abs(t)
        while n < max_terms:
            s = acc + t
            carry += _neumaier(acc, t)
            acc = s
            abs_sum += at
            t_next = term(n + 1)
            an = abs(t_next)
            if n >= min_terms:
                partial = acc + carry
                if at <= tol * max(1.0, abs(partial)):
                    if t != 0.0 and an < 0.5 * at:
                        tail = an / (1.0 - an / at)
                        return (partial, n + 1, tail, True, abs_sum)
                    if t == 0.0 and t_next == 0.0:
                        return (partial, n + 1, 0.0, True, abs_sum)
            t, at = t_next, an
            n += 1
    except SeriesAbort:
        return (acc + carry, n, math.inf, False, abs_sum)
    return (acc + carry, max_terms, math.inf, False, abs_sum)


def _same(got, ref):
    # Bit for bit, except that any NaN equals any NaN.
    return all(_bits(g) == _bits(r) or (math.isnan(g) and math.isnan(r))
               for g, r in zip(map(float, got), map(float, ref)))


class TestTwoSum:
    @staticmethod
    def _pairs(values):
        for acc in values:
            for t in values + [-acc, acc * (1.0 + 2.0**-52)]:
                yield acc, t

    def test_equals_neumaier_on_the_edges_as_floats_and_arrays(self):
        pairs = [(a, t) for a, t in self._pairs(EDGES)
                 if math.isfinite(a + t) and abs(t) < DBL_MAX]
        for acc, t in pairs:
            assert _bits(_twosum(acc, t)) == _bits(_neumaier(acc, t)), (acc, t)
        acc, t = np.array(pairs).T
        with np.errstate(all="ignore"):
            s = acc + t
            bp = s - acc
            got = (acc - (s - bp)) + (t - bp)
            ref = np.where(np.abs(acc) >= np.abs(t), (acc - s) + t,
                           (t - s) + acc)
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=300)
    @given(acc=st.floats(-1e308, 1e308), t=st.floats(-1e308, 1e308),
           scale=st.sampled_from([1.0, 2.0**-600, 2.0**-1000]))
    def test_equals_neumaier_on_random_pairs(self, acc, t, scale):
        acc, t = acc * scale, t * scale  # into the subnormals too
        if math.isfinite(acc + t):
            assert _bits(_twosum(acc, t)) == _bits(_neumaier(acc, t))

    def test_an_overflowing_sum_is_nan_in_both_forms(self):
        for acc, t in [(1e308, 1e308), (-1e308, -DBL_MAX), (DBL_MAX, 1e292)]:
            assert math.isinf(acc + t)
            assert math.isnan((acc + t) + _twosum(acc, t))
            assert math.isnan((acc + t) + _neumaier(acc, t))

    def test_only_the_largest_double_overflows_twosum(self):
        # s - acc rounds past the doubles: acc and s in the top binade, t at
        # the largest double, opposite signs.
        acc, t = 7.315741543055676e307, -DBL_MAX
        assert math.isfinite(acc + t)
        assert math.isnan(_twosum(acc, t)) and math.isfinite(_neumaier(acc, t))

    @settings(max_examples=150)
    @given(values=st.lists(st.one_of(st.sampled_from(EDGES[:-2]),
                                     st.floats(-1e308, 1e308)),
                           min_size=1, max_size=20),
           tol=st.sampled_from([1e-12, 1e-15]),
           abort=st.one_of(st.none(), st.integers(0, 22)),
           poison=st.sampled_from([math.inf, -math.inf, math.nan]))
    def test_sums_equal_the_neumaier_loop(self, values, tol, abort, poison):
        # The series runs through the drawn terms, then zeros; at `abort` its
        # term is non-finite and aborts, through SeriesAbort or `bad`.
        def term(n):
            if n == abort:
                raise SeriesAbort("abort")
            return values[n] if n < len(values) else 0.0

        def batch_term(n, pos):
            if n == abort:
                return (np.full(pos.size, poison),
                        np.ones(pos.size, dtype=bool))
            return np.full(pos.size, term(n)), np.zeros(pos.size, dtype=bool)

        ref = _neumaier_sum_series(term, tol, 40, 8)
        assert _same(sum_series(term, tol, 40, 8)[:5], ref)
        res = sum_series_batch(batch_term, 2, tol, 40, 8)
        for i in range(2):
            assert _same([f[i] for f in res], ref), i
