#!/usr/bin/env python3
"""Extended-precision references for the ``stiff_solve`` and ``point_eval``
workloads, with a per-seed cache.

The references are brute-force partial sums in mpmath, written from the
series definitions and sharing no code with ``fracml``:

* ``E_{alpha,beta}(x) = sum_n x**n / Gamma(alpha n + beta)``;
* ``E(k, alpha, beta, gamma, q; z)
  = sum_n k**(nq) Gamma(gamma/k + nq)/Gamma(gamma/k) z**n
          / (k**((alpha n + beta)/k - 1) Gamma((alpha n + beta)/k) n!)``;
* the kinetic solution series ``N0 sum_n C_n W_n x**n E_{nu,b(n)}(y)``
  (see ``solution_values``).

Precision is checked, not assumed: the working precision and term counts
are planned from double-precision log magnitudes, the precision is raised
when the computed value shows more cancellation than planned, and each
value is then recomputed with both the precision and every term count
doubled.  A value counts as a reference only when the two passes agree to
``CONFIRM_REL``; otherwise the doubling repeats, up to ``MAX_DOUBLINGS``.

Run as a script to fill the cache for one seed ahead of a benchmark run::

    python3 bench/reference.py --workload point_eval --seed 3

It fills the references of one pass of the workload's inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec,
    fone,
    fzero,
    from_float,
    from_int,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_gamma,
    mpf_log,
    mpf_mul,
    mpf_rgamma,
    mpf_sub,
    round_nearest,
    to_float,
)

# Digits kept beyond those lost to cancellation.
GUARD_DIGITS = 18
# Two passes (the second with doubled precision and term counts) must agree
# to this relative accuracy.  The benchmark compares the library with the
# reference at 1e-11, so the reference's own error is then negligible.
CONFIRM_REL = 1e-14
MAX_DOUBLINGS = 3
# Planning gives up on a series whose terms still grow after this many, or
# pass this natural-log magnitude.
PLAN_MAX_TERMS = 200_000
PLAN_MAX_LOG = 1e4
# Worker processes that compute missing references after a run.
WORKERS = 2

_LN10 = math.log(10.0)
_RND = round_nearest

CACHE_DIR = Path(__file__).resolve().parent / ".refcache"


class ReferenceUnavailable(Exception):
    """The series could not be summed to a confirmed reference value."""


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi))


def _plan(logmag, monotone_from, drop_digits: float) -> tuple[int, float]:
    """Term count and log10 of the absolute term sum of a series.

    ``logmag(n)`` is the natural log of ``|term_n|`` (None for a zero term).
    The count stops at the first index past ``monotone_from(n)`` whose term
    lies ``drop_digits`` below the absolute sum so far.
    """
    abs_sum = -math.inf
    for n in range(PLAN_MAX_TERMS):
        lm = logmag(n)
        if lm is not None:
            if lm > PLAN_MAX_LOG:
                break
            abs_sum = _logaddexp(abs_sum, lm)
            if (n >= 8 and monotone_from(n)
                    and lm / _LN10 < abs_sum / _LN10 - drop_digits):
                return n + 1, abs_sum / _LN10
    raise ReferenceUnavailable("terms do not decay within the planning limit")


def _log10_abs(v) -> float:
    """log10 |v| of a raw mpmath value; -inf for zero."""
    if v == fzero:
        return -math.inf
    return to_float(mpf_log(mpf_abs(v), 53)) / _LN10


def _scalar_reference(term_log, monotone_from, total, alternating) -> float:
    """Confirmed sum of a scalar power series.

    ``term_log`` gives the float log magnitude of each term, which plans
    the term count; ``total(prec, count)`` sums the first ``count`` terms
    at ``prec`` bits and returns a raw mpmath value.  Each round sums at
    ``dps`` digits and again with the digits and the term count doubled,
    and accepts the doubled sum when the two agree.  Otherwise the next
    round covers the cancellation the doubled sum shows, and at least
    doubles ``dps``.  The first precision assumes no cancellation for a
    positive argument and a value of order one for an alternating one.
    """
    dps = GUARD_DIGITS
    if alternating:
        _, abs_log = _plan(term_log, monotone_from, GUARD_DIGITS + 5)
        dps += max(0, math.ceil(abs_log))
    for _ in range(MAX_DOUBLINGS + 1):
        count, abs_log = _plan(term_log, monotone_from, dps + 5)
        lo = total(dps_to_prec(dps), count)
        hi = total(dps_to_prec(2 * dps), 2 * count)
        diff = mpf_abs(mpf_sub(hi, lo))
        agree = diff == fzero or (hi != fzero and to_float(
            mpf_div(diff, mpf_abs(hi), 53)) <= CONFIRM_REL)
        if agree:
            return to_float(hi)
        need = (GUARD_DIGITS + max(0, math.ceil(abs_log - _log10_abs(hi)))
                if hi != fzero else 0)
        dps = max(need + 5, 2 * dps)
    raise ReferenceUnavailable("doubling precision and terms did not settle")


def _is_pole(a: float) -> bool:
    return a <= 0.0 and a == math.floor(a)


def ml2_term_log(alpha: float, beta: float, x: float):
    """Natural log of |x**n / Gamma(alpha n + beta)| as a function of n
    (None at a pole), and the index test past which it decreases."""
    lx = math.log(abs(x))

    def term_log(n):
        a = alpha * n + beta
        return None if _is_pole(a) else n * lx - math.lgamma(a)

    return term_log, lambda n: alpha * n + beta >= 2.0


def kml_term_log(k: float, alpha: float, beta: float, gamma: float,
                 q: float, z: float):
    """As :func:`ml2_term_log`, for the generalized k-Mittag-Leffler terms."""
    lk, lz = math.log(k), math.log(abs(z))
    c0 = gamma / k
    lg_c0 = math.lgamma(c0)

    def term_log(n):
        a = (alpha * n + beta) / k
        return (n * q * lk + math.lgamma(c0 + n * q) - lg_c0 + n * lz
                - (a - 1.0) * lk - math.lgamma(a) - math.lgamma(n + 1.0))

    # Past the peak the terms fall monotonically once the gamma arguments
    # are in their increasing range and the log magnitude is falling.
    def monotone_from(n):
        return (alpha * n + beta) / k >= 2.0 and term_log(n + 1) < term_log(n)

    return term_log, monotone_from


def peak_log(term_log, monotone_from, cap: float) -> float:
    """Largest natural-log term magnitude, or ``inf`` once a term passes
    ``cap``."""
    peak = -math.inf
    for n in range(PLAN_MAX_TERMS):
        lm = term_log(n)
        if lm is None:
            continue
        if lm > cap:
            return math.inf
        if lm >= peak:
            peak = lm
        elif n >= 8 and monotone_from(n):
            return peak
    return math.inf


def ml2_reference(alpha: float, beta: float, x: float) -> float:
    """Confirmed value of E_{alpha,beta}(x)."""
    if x == 0.0:
        return float(mp.rgamma(beta))
    a, b, xv = from_float(alpha), from_float(beta), from_float(x)

    def total(prec, count):
        s, xn = fzero, fone
        for n in range(count):
            arg = mpf_add(mpf_mul(a, from_int(n)), b)
            s = mpf_add(s, mpf_mul(xn, mpf_rgamma(arg, prec, _RND), prec, _RND),
                        prec, _RND)
            xn = mpf_mul(xn, xv, prec, _RND)
        return s

    return _scalar_reference(*ml2_term_log(alpha, beta, x), total, x < 0.0)


def kml_reference(k: float, alpha: float, beta: float, gamma: float,
                  q: float, z: float) -> float:
    """Confirmed value of the generalized k-Mittag-Leffler function."""
    km, a, b, g, qm, zv = (from_float(v) for v in (k, alpha, beta, gamma, q, z))

    def total(prec, count):
        wp = prec + 10
        log_k = mpf_log(km, wp, _RND)
        c0 = mpf_div(g, km, wp, _RND)
        scale = mpf_rgamma(c0, wp, _RND)            # 1 / Gamma(gamma/k)
        s, zn, fact = fzero, fone, fone
        for n in range(count):
            nq = mpf_mul(qm, from_int(n))
            arg = mpf_div(mpf_add(mpf_mul(a, from_int(n)), b), km, wp, _RND)
            # k**(nq) / k**(arg - 1) * Gamma(c0 + nq) / Gamma(arg)
            power = mpf_exp(mpf_mul(mpf_add(mpf_sub(nq, arg, wp, _RND), fone,
                                            wp, _RND), log_k, wp, _RND), wp, _RND)
            ratio = mpf_mul(mpf_gamma(mpf_add(c0, nq, wp, _RND), wp, _RND),
                            mpf_rgamma(arg, wp, _RND), wp, _RND)
            term = mpf_div(mpf_mul(mpf_mul(power, ratio, wp, _RND), zn, wp, _RND),
                           fact, wp, _RND)
            s = mpf_add(s, term, prec, _RND)
            zn = mpf_mul(zn, zv, wp, _RND)
            fact = mpf_mul(fact, from_int(n + 1), wp, _RND)
        return mpf_mul(s, scale, prec, _RND)

    if z == 0.0:
        return float(1 / (mpf(k) ** (mpf(beta) / k - 1) * mp.gamma(mpf(beta) / k)))
    return _scalar_reference(*kml_term_log(k, alpha, beta, gamma, q, z), total,
                             z < 0.0)


# ---------------------------------------------------------------------------
# kinetic solution series

def _solution_plan(problem: dict, t_max: float, dps: int) -> tuple[int, int]:
    """Outer and inner term counts for every t in [0, t_max]."""
    nu, r = problem["nu"], problem["a"]
    y = (r * t_max) ** nu
    ly = math.log(y) if y > 0 else -math.inf
    # Inner series at the largest |y| and the smallest offset b(0) = 1: the
    # later offsets only shrink the terms.
    inner, _ = _plan(lambda m: m * ly - math.lgamma(nu * m + 1.0),
                     lambda m: nu * m + 1.0 >= 2.0, dps + 5)
    outer, _ = _plan(lambda n: _outer_log(problem, n, t_max),
                     lambda n: _outer_log(problem, n + 1, t_max)
                     < _outer_log(problem, n, t_max), dps + 5)
    return outer, inner


def _outer_log(problem: dict, n: int, t: float) -> float:
    """Log of an upper bound on |C_n W_n x**n E_{nu,b(n)}(y)|, using
    |E_{nu,b}(y)| <= E_{nu,b}(|y|) <= exp(|y|**(1/nu)) / Gamma(b) * b."""
    k, alpha, beta = problem["k"], problem["alpha"], problem["beta"]
    g, q, nu = problem["gamma"], problem["q"], problem["nu"]
    a_arg = (alpha * n + beta) / k
    log_c = (n * q * math.log(k) + math.lgamma(g / k + n * q) - math.lgamma(g / k)
             - (a_arg - 1.0) * math.log(k) - math.lgamma(a_arg))
    if problem["theorem"] == 1:
        log_x, b = math.log(t), n + 1.0
    else:
        log_x, b = nu * math.log(problem["d"] * t), nu * n + 1.0
    log_w = 0.0
    if problem["variant"] == "rederived" and problem["theorem"] != 1:
        log_w = math.lgamma(nu * n + 1.0) - math.lgamma(n + 1.0)
    inner = problem["a"] * t - math.lgamma(b) + math.log(b + 1.0)
    return log_c + log_w + n * log_x + max(inner, 0.0)


def _solution_pass(problem: dict, ts, dps: int, outer: int, inner: int,
                   measure: bool):
    """Values N(t) for each t at working precision ``dps``; with ``measure``
    also the outer absolute sums and the largest inner cancellation (in
    digits) that the precision has to cover."""
    with mp.workdps(dps):
        k, alpha, beta = (mpf(problem[s]) for s in ("k", "alpha", "beta"))
        g, q, nu = (mpf(problem[s]) for s in ("gamma", "q", "nu"))
        d, a, n0 = (mpf(problem[s]) for s in ("d", "a", "N0"))
        theorem = problem["theorem"]
        reweight = problem["variant"] == "rederived" and theorem != 1
        c0 = g / k
        coeff = []
        for n in range(outer):
            arg = (alpha * n + beta) / k
            c = (k ** (n * q) * mp.gamma(c0 + n * q) / mp.gamma(c0)
                 / (k ** (arg - 1) * mp.gamma(arg)))
            if reweight:
                c *= mp.gamma(nu * n + 1) / mp.factorial(n)
            coeff.append(c)
        # rows[n][m] = 1 / Gamma(nu m + b(n)).
        if theorem == 1:
            row = [mp.rgamma(nu * m + 1) for m in range(inner)]
            rows = [row]
            for n in range(1, outer):
                row = [v / (nu * m + n) for m, v in enumerate(row)]
                rows.append(row)
        else:
            diag = [mp.rgamma(nu * j + 1) for j in range(outer + inner)]
            rows = [diag[n:n + inner] for n in range(outer)]
        abs_rows = [[abs(v) for v in row] for row in rows] if measure else None
        values, abs_sums, cancel = [], [], 0.0
        for t in ts:
            t = mpf(t)
            x = t if theorem == 1 else (d * t) ** nu
            y = -((a * t) ** nu)
            ypow = [y ** m for m in range(inner)]
            abs_ypow = [abs(v) for v in ypow] if measure else None
            total = mpf(0)
            abs_total = mpf(0)
            xn = mpf(1)
            for n in range(outer):
                e = mp.fdot(ypow, rows[n])
                if measure and e != 0:
                    e_abs = mp.fdot(abs_ypow, abs_rows[n])
                    cancel = max(cancel, float(mp.log10(e_abs / abs(e))))
                term = coeff[n] * xn * e
                total += term
                abs_total += abs(term)
                xn *= x
            values.append(n0 * total)
            abs_sums.append(n0 * abs_total)
        return values, abs_sums, cancel


def solution_values(problem: dict, ts) -> list:
    """Confirmed values of the kinetic solution N(t) at each t.

    ``problem`` holds ``theorem`` (1, 2 or 3), ``variant`` ("stated" or
    "rederived"), ``N0``, ``k``, ``alpha``, ``beta``, ``gamma``, ``q``,
    ``d``, ``a`` and ``nu``.  The series is ``N0 sum_n C_n W_n x**n
    E_{nu,b(n)}(y)`` with ``C_n = (gamma)_{nq,k} / gamma_k(n alpha + beta)``,
    ``y = -(a t)**nu`` and, for theorem 1, ``x = t``, ``b(n) = n + 1``,
    ``W_n = 1``; for theorems 2 and 3, ``x = (d t)**nu``,
    ``b(n) = nu n + 1`` and ``W_n = Gamma(nu n + 1)/n!`` for the rederived
    variant, 1 for the stated one.
    """
    ts = list(ts)
    t_max = max(ts)
    dps = GUARD_DIGITS
    for _ in range(4):
        outer, inner = _solution_plan(problem, t_max, dps)
        values, abs_sums, cancel = _solution_pass(problem, ts, dps, outer,
                                                  inner, measure=True)
        need = GUARD_DIGITS + math.ceil(cancel)
        with mp.workdps(dps):
            for v, s in zip(values, abs_sums):
                if v != 0:
                    need = max(need, GUARD_DIGITS + math.ceil(
                        float(mp.log10(s / abs(v))) + cancel))
        if need <= dps:
            break
        dps = need + 5
    else:
        raise ReferenceUnavailable("cancellation estimate did not settle")
    prev = values
    for _ in range(MAX_DOUBLINGS):
        dps, outer, inner = 2 * dps, 2 * outer, 2 * inner
        cur, _, _ = _solution_pass(problem, ts, dps, outer, inner,
                                   measure=False)
        with mp.workdps(dps):
            if all(abs(c - p) <= CONFIRM_REL * abs(c) for c, p in zip(cur, prev)):
                return [float(c) for c in cur]
        prev = cur
    raise ReferenceUnavailable("doubling precision and terms did not settle")


# ---------------------------------------------------------------------------
# per-seed cache

class ReferenceCache:
    """References for one (workload, seed), keyed by the input they belong
    to and stored as JSON under ``CACHE_DIR``."""

    def __init__(self, workload: str, seed: int, directory: Path = CACHE_DIR):
        self.path = directory / f"{workload}-{seed}.json"
        self.entries: dict = {}
        self.dirty = False
        try:
            with open(self.path) as fh:
                self.entries = json.load(fh)
        except (OSError, ValueError):
            self.entries = {}

    def get(self, key: str, fn, args):
        if key not in self.entries:
            self.entries[key] = fn(*args)
            self.dirty = True
        return self.entries[key]

    def save(self) -> None:
        if not self.dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(self.entries, fh)
        os.replace(tmp, self.path)
        self.dirty = False


def _compute(job):
    key, fn, args = job
    try:
        return key, fn(*args)
    except ReferenceUnavailable:
        return key, None


_FUNCTIONS = {fn.__name__: fn for fn in (ml2_reference, kml_reference,
                                         solution_values)}


def _worker() -> int:
    """Compute the jobs on standard input, one JSON ``[key, function name,
    args]`` per line, and write one JSON ``[key, value]`` per line; the
    value is null when no reference could be confirmed."""
    for line in sys.stdin:
        key, name, args = json.loads(line)
        print(json.dumps(_compute((key, _FUNCTIONS[name], args))), flush=True)
    return 0


def fill(cache: ReferenceCache, jobs: list) -> None:
    """Compute the references of ``jobs`` ((key, function, args) triples,
    or None for an input without one) missing from ``cache`` in
    ``WORKERS`` worker processes.  A reference that cannot be confirmed is
    left out; checking it raises again.  Jobs and results pass through
    unnamed files under ``CACHE_DIR``, and every worker has ended when
    this returns or raises."""
    missing = list({job[0]: job for job in jobs
                    if job is not None and job[0] not in cache.entries}.values())
    if not missing:
        return
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    procs = []
    with contextlib.ExitStack() as files:
        try:
            for w in range(min(WORKERS, len(missing))):
                jobs_in = files.enter_context(
                    tempfile.TemporaryFile("w+", dir=CACHE_DIR))
                results = files.enter_context(
                    tempfile.TemporaryFile("w+", dir=CACHE_DIR))
                for key, fn, args in missing[w::WORKERS]:
                    jobs_in.write(json.dumps([key, fn.__name__, args]) + "\n")
                jobs_in.seek(0)
                procs.append((subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), "--worker"],
                    stdin=jobs_in, stdout=results), results))
            for proc, results in procs:
                if proc.wait() != 0:
                    raise RuntimeError(f"reference worker exited {proc.returncode}")
                results.seek(0)
                for line in results:
                    key, value = json.loads(line)
                    if value is not None:
                        cache.entries[key] = value
                        cache.dirty = True
        finally:
            for proc, _ in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()


def main(argv=None) -> int:
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.REFERENCED))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    wl = workloads.REFERENCED[args.workload](args.seed, bench.parent)
    jobs = [wl.reference_job(wl.op_input(i)) for i in range(wl.pass_size)]
    cache = ReferenceCache(args.workload, args.seed)
    fill(cache, jobs)
    cache.save()
    missing = sum(job is None or job[0] not in cache.entries for job in jobs)
    print(f"{len(cache.entries)} references in {cache.path}; "
          f"{missing} of {wl.pass_size} inputs have no confirmed reference")
    return 0


if __name__ == "__main__":
    # Run as the ``reference`` module that the workloads import, so that
    # both see one ReferenceUnavailable class.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import reference

    sys.exit(reference._worker() if sys.argv[1:] == ["--worker"]
             else reference.main())
