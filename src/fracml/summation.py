"""Compensated summation and certified truncation of power-series tails.

All series in this package are summed through :func:`sum_series`, which adds
terms with Neumaier's compensated summation and stops once a geometric tail
bound certifies that the remainder is below the requested tolerance.  The
certificate is: at the first index ``n >= min_terms`` where

* ``|term_n| <= tol * max(1, |partial|)``, and
* ``r = |term_{n+1}| / |term_n| < 1/2``,

the tail is bounded by ``|term_{n+1}| / (1 - r) < |term_n|`` (by 0 where
both terms are 0), so a converged sum's tail bound is at most ``tol * max(1,
|value|)``.  A caller whose early terms can mislead the test (zero terms at
gamma poles) passes the first index past them as ``min_terms``.  If no
index certifies within ``max_terms``, or a term generator raises
:class:`SeriesAbort`, the partial sum is returned with ``converged=False``
(and the abort's reason); a wrong answer is never reported silently.

:func:`sum_series_batch` sums many independent series at once with the same
accumulator and the same certificate, elementwise.  It uses only IEEE-exact
array operations (``+ - * /``, ``abs``, comparisons), so every series it
settles has the bit pattern :func:`sum_series` gives for the same terms.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np


class SeriesAbort(Exception):
    """Raised by a term generator to abandon a summation (divergence, an
    inner factor that failed to converge, overflow)."""


class SeriesSum(NamedTuple):
    value: float
    terms: int
    tail_bound: float
    converged: bool
    abs_sum: float
    # The message of the SeriesAbort that ended the sum, or None.
    abort: Optional[str] = None


def sum_series(
    term: Callable[[int], float],
    tol: float,
    max_terms: int,
    min_terms: int,
) -> SeriesSum:
    """Sum ``term(0) + term(1) + ...`` with the geometric-tail certificate,
    tested from index ``min_terms`` on.

    The terms are added with Neumaier's compensated summation: the rounding
    error of each addition is kept in a carry, so the value is accurate to a
    couple of ulps of the exact sum of the added floats, however much they
    cancel.
    """
    acc = carry = abs_sum = 0.0
    n = 0
    try:
        t = term(0)
        at = abs(t)
        while n < max_terms:
            s = acc + t
            if abs(acc) >= at:
                carry += (acc - s) + t
            else:
                carry += (t - s) + acc
            acc = s
            abs_sum += at
            t_next = term(n + 1)
            an = abs(t_next)
            if n >= min_terms:
                partial = acc + carry
                if at <= tol * max(1.0, abs(partial)):
                    if t != 0.0 and an < 0.5 * at:
                        tail = an / (1.0 - an / at)
                        return SeriesSum(partial, n + 1, tail, True, abs_sum)
                    if t == 0.0 and t_next == 0.0:
                        return SeriesSum(partial, n + 1, 0.0, True, abs_sum)
            t, at = t_next, an
            n += 1
    except SeriesAbort as exc:
        return SeriesSum(acc + carry, n, math.inf, False, abs_sum, str(exc))
    return SeriesSum(acc + carry, max_terms, math.inf, False, abs_sum)


class SeriesSumBatch(NamedTuple):
    """Per-series fields of :class:`SeriesSum`, as arrays."""

    value: np.ndarray
    terms: np.ndarray
    tail_bound: np.ndarray
    converged: np.ndarray
    abs_sum: np.ndarray


def sum_series_batch(
    term: Callable[[int, np.ndarray], tuple],
    size: int,
    tol: float,
    max_terms: int,
    min_terms: int | np.ndarray,
) -> SeriesSumBatch:
    """Sum ``size`` series at once, each exactly as :func:`sum_series` would.

    ``term(n, pos)`` returns the ``n``-th terms of the series at positions
    ``pos`` (an index array into ``range(size)``) and a boolean array marking
    the series whose term aborts, as ``SeriesAbort`` does for the scalar
    version.  A series leaves ``pos`` once it certifies, aborts or runs out
    of terms, so ``term`` is only asked for terms the scalar loop computes.
    ``min_terms`` is one index shared by all series, or an integer array
    with one index per series (indexed like ``range(size)``).
    """
    # Below the least index no series may certify, from the largest on all.
    first = last = min_terms
    if np.ndim(min_terms) and size:
        first, last = int(min_terms.min()), int(min_terms.max())
    value = np.zeros(size)
    terms = np.full(size, max_terms)
    tail = np.full(size, math.inf)
    converged = np.zeros(size, dtype=bool)
    abs_out = np.zeros(size)
    pos = np.arange(size)
    with np.errstate(all="ignore"):
        t, bad = term(0, pos)
        if bad.any():
            terms[pos[bad]] = 0
            pos, t = pos[~bad], t[~bad]
        acc = np.zeros(pos.size)
        carry = np.zeros(pos.size)
        abs_sum = np.zeros(pos.size)
        at = np.abs(t)
        n = 0
        while n < max_terms and pos.size:
            # sum_series's compensated addition, elementwise.
            s = acc + t
            carry += np.where(np.abs(acc) >= at, (acc - s) + t, (t - s) + acc)
            acc = s
            abs_sum += at
            t_next, bad = term(n + 1, pos)
            an = np.abs(t_next)
            leave = bad
            if n >= last:
                ok = True
            elif n < first:
                ok = False
            else:
                ok = min_terms[pos] <= n
            if ok is True or (ok is not False and ok.any()):
                partial = acc + carry
                # tol * max(1.0, |partial|); fmax, like Python's max with 1.0
                # first, gives 1.0 for a NaN.
                small = ok & (at <= tol * np.fmax(np.abs(partial), 1.0))
                if small.any():
                    geometric = small & (t != 0.0) & (an < 0.5 * at) & ~bad
                    flat = small & (t == 0.0) & (t_next == 0.0) & ~bad
                    done = geometric | flat
                    if done.any():
                        p = pos[done]
                        r = an / at
                        value[p] = partial[done]
                        terms[p] = n + 1
                        tail[p] = np.where(geometric, an / (1.0 - r),
                                           0.0)[done]
                        converged[p] = True
                        abs_out[p] = abs_sum[done]
                        leave = done | bad
            if bad.any():
                p = pos[bad]
                value[p] = (acc + carry)[bad]
                terms[p] = n
                abs_out[p] = abs_sum[bad]
            if leave.any():
                keep = ~leave
                pos, t_next, an = pos[keep], t_next[keep], an[keep]
                acc, carry, abs_sum = acc[keep], carry[keep], abs_sum[keep]
            t, at = t_next, an
            n += 1
        value[pos] = acc + carry
        abs_out[pos] = abs_sum
    return SeriesSumBatch(value, terms, tail, converged, abs_out)
