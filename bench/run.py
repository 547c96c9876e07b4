#!/usr/bin/env python3
"""fracml benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 bench/run.py --workload db_verify --seed 1 --seconds 45 --trace 0

The workloads are described in ``bench/workloads.py`` and ``bench/NOTES.md``.
Each runs in this process with one thread as a closed loop (one client,
the next operation sent when the previous one returns), over whole passes
of its inputs for ``db_verify`` and ``stiff_solve`` and over a stream of
fresh draws for ``point_eval``.

``--trace 0`` times the loop for ``--seconds`` and reports the end-to-end
metrics; the set-up probes run after the loop.  ``--trace 1`` runs passes
over the first ``pass_size`` inputs for ``--seconds``: a warm-up pass,
then untraced and traced (``bench/tracing.py``) passes in turn.  It
reports the per-layer metrics of one traced pass (the mean over the
traced passes) and the tracing overhead, the ratio of the median traced
and untraced pass times.

Every output is checked: ``db_verify`` against ``artifacts/``, the other
two against the confirmed mpmath references of ``bench/reference.py``.
The last line of standard output is the JSON result; the lines before it
are the report (environment stamp, every metric with its unit, sample
counts, ratios with their bases).  The exit code is 1 when an operation
raised or a check failed, and 2 when ``fracml`` cannot be imported from
``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_PROBES = 9
# Where the timed loop spills its outputs; git ignores it.
SPILL_DIR = BENCH / ".refcache"

# (name, unit, better) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def load(workload: str, seed: int):
    """Import fracml from the checkout's ``src/`` and build the workload's
    inputs; return the workload and the seconds this took."""
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import fracml

    if not Path(fracml.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"fracml imported from {fracml.__file__}, not {ROOT / 'src'}")
    import workloads

    wl = workloads.WORKLOADS[workload](seed, ROOT)
    for i in range(wl.pass_size):
        wl.op_input(i)
    return wl, time.perf_counter() - start


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def _run_op(wl, inp):
    try:
        return wl.run(inp)
    except Exception as exc:  # an operation that raises fails the run
        # A plain exception carrying the original's type, so that it pickles.
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def timed_loop(wl, seconds: float, spill):
    """Closed loop for ``seconds`` of loop time.  Inputs for each pass are
    drawn before it and its (input, output) pairs are pickled to the file
    ``spill`` after it, both outside the clock, so that the harness holds
    at most one pass of outputs while the loop runs.  Returns the per-op
    latencies in seconds, the loop time and the (ops, seconds) of each
    pass."""
    lat, passes = array("d"), []
    loop_time = 0.0
    p = 0
    while loop_time < seconds:
        batch = [wl.op_input(p * wl.pass_size + j) for j in range(wl.pass_size)]
        p += 1
        done = []
        start = time.perf_counter()
        for inp in batch:
            t0 = time.perf_counter()
            out = _run_op(wl, inp)
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            done.append((inp, out))
            if not wl.whole_passes and loop_time + (t1 - start) >= seconds:
                break
        elapsed = time.perf_counter() - start
        loop_time += elapsed
        passes.append((len(done), elapsed))
        pickle.dump(done, spill)
    return lat, loop_time, passes


def _unspill(spill) -> list:
    spill.seek(0)
    done = []
    while True:
        try:
            done += pickle.load(spill)
        except EOFError:
            return done


def run_pass(wl, inputs, tracer=None):
    start = time.perf_counter()
    outs = []
    for op, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = op
        outs.append(_run_op(wl, inp))
    return list(zip(inputs, outs)), time.perf_counter() - start


def check_all(wl, done, seed: int):
    """Check every output, computing missing references first; return
    counts by status, failure messages and warnings."""
    import reference

    cache = reference.ReferenceCache(wl.name, seed)
    try:
        reference.fill(cache, [wl.reference_job(inp, out) for inp, out in done])
        return _check(wl, done, cache)
    finally:
        cache.save()


def _check(wl, done, cache):
    import workloads

    status = {"ok": 0, "uncertified": 0, "false_certificate": 0, "raised": 0,
              "wrong": 0}
    errors, warnings = [], []
    for inp, out in done:
        if isinstance(out, Exception):
            status["raised"] += 1
            errors.append(f"{inp!r}: raised {out}")
            continue
        try:
            outcome = wl.check(inp, out, cache)
        except workloads.CheckFailed as exc:
            status["wrong"] += 1
            errors.append(str(exc))
            continue
        status[outcome] += 1
        if outcome == "false_certificate":
            warnings.append(f"{inp!r}: converged=True on a divergent series")
    return status, errors, warnings


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout; None outside a git clone or without git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def end_to_end(args, wl):
    SPILL_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=SPILL_DIR) as spill:
        lat, loop_time, passes = timed_loop(wl, args.seconds, spill)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_probe(args.workload, args.seed)
                  for _ in range(SETUP_PROBES)]
        done = _unspill(spill)
    status, errors, warnings = check_all(wl, done, args.seed)
    ms = [v * 1e3 for v in lat]
    n = len(ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / loop_time,
        "op_p50_ms": percentile(ms, 50),
        "op_p90_ms": percentile(ms, 90),
        "peak_rss_mb": rss_mb,
    }
    not_done = n - status["ok"]
    extra = {
        "fail_ratio": [not_done / n, "ratio", f"{not_done}/{n}"],
        "op_p99_ms": [percentile(ms, 99), "ms",
                      f"{n} samples, {n - int(0.99 * n)} beyond p99"],
        "samples": n,
        "samples_beyond_p90": n - int(0.9 * n),
        "loop_s": loop_time,
        "pass_ops_per_s": [n_ops / t for n_ops, t in passes],
        "setup_probes_s": setups,
        "status": status,
    }
    return metrics, extra, status, errors, warnings


def per_layer(args, wl):
    import tracing

    inputs = [wl.op_input(i) for i in range(wl.pass_size)]
    # A warm-up pass, then untraced and traced passes alternate, so that a
    # drift in machine speed affects both sides of the overhead alike.
    done, _ = run_pass(wl, inputs)
    untraced, traced = [], []
    marks = []                 # (first span, last span, counts) per pass
    tracer = tracing.Tracer()
    while not traced or sum(untraced) + sum(traced) < args.seconds:
        pairs, elapsed = run_pass(wl, inputs)
        done += pairs
        untraced.append(elapsed)
        first, before = len(tracer.spans), tracer.counts.copy()
        tracer.install()
        try:
            pairs, elapsed = run_pass(wl, inputs, tracer)
        finally:
            tracer.uninstall()
        done += pairs
        traced.append(elapsed)
        marks.append((first, len(tracer.spans), tracer.counts - before))
    for name in tracer.missing:
        print(f"trace: {name} not found; its metrics read 0", file=sys.stderr)
    per_pass = [tracing.layer_metrics(tracer.spans, *mark) for mark in marks]
    metrics = {name: statistics.fmean(p[name] for p in per_pass)
               for name in per_pass[0]}
    base = statistics.median(untraced)
    metrics["trace.untraced_pass_s"] = base
    metrics["trace.overhead"] = statistics.median(traced) / base - 1.0
    status, errors, warnings = check_all(wl, done, args.seed)
    extra = {
        "ops_per_pass": len(inputs),
        "passes": len(traced),
        "spans": len(tracer.spans),
        "status": status,
        "ratios": {r: f"{metrics[r]:.6g} of {metrics[b]:.6g} ({b})"
                   for r, b in tracing.RATIO_BASES.items()},
    }
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return ({name: metrics[name] for name in units}, units, extra, status,
            errors, warnings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fracml benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        wl, setup_s = load(args.workload, args.seed)
    except (ImportError, OSError, KeyError) as exc:
        print(f"bench: cannot set up {args.workload!r}: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    if args.trace:
        metrics, units, extra, status, errors, warnings = per_layer(args, wl)
    else:
        metrics, extra, status, errors, warnings = end_to_end(args, wl)
        units = {name: unit for name, unit, _ in END_TO_END}
    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed),
              "metrics": {k: [v, units[k]] for k, v in metrics.items()},
              **extra}
    print(json.dumps(report, indent=1))
    for message in errors[:20]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for message in warnings[:20]:
        print(f"FALSE CERTIFICATE: {message}", file=sys.stderr)
    correct = status["wrong"] == 0 and status["raised"] == 0
    result = {
        "correct": correct,
        "attempted": sum(status.values()),
        "failed": status["raised"] + status["false_certificate"] + status["wrong"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
