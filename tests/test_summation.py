import math

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
