"""Outside-in tracing of fracml's layers for the benchmark's traced run.

:class:`Tracer` replaces the module attributes through which the layers
call one another with wrappers that record a span (name, start, end,
parent span, operation id and a summary of the result) or, for the
specfun primitives, only a count.  Nothing inside ``fracml`` changes:
``install`` patches the attributes and ``uninstall`` restores them.

Spans are kept in memory until the run ends; :func:`layer_metrics` turns
the spans and counts of one pass over the workload's inputs into the
per-layer metrics listed in ``PER_LAYER``.  Self time is a span's
duration minus the durations of its direct child spans.  A
``sum_series`` span includes its caller's term closure, because the
closure runs inside it; separating the two needs tracing inside the
program.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import fracml.cli
import fracml.fracops
import fracml.kinetics
import fracml.mittag

SOLVER_NAMES = ("solve_theorem1", "solve_theorem2_stated",
                "solve_theorem2_rederived", "solve_theorem3_stated",
                "solve_theorem3_rederived")

# (name, unit, better); the order is the order of the printed metrics.
PER_LAYER = (
    [("cli.calls", "count", "lower"),
     ("cli.self_s", "s", "lower"),
     ("fracops.residual_report.calls", "count", "lower"),
     ("fracops.residual_report.self_s", "s", "lower"),
     ("fracops.solver_calls", "count", "lower"),
     ("fracops.forcing_calls", "count", "lower"),
     ("fracops.rl_integral.calls", "count", "lower"),
     ("fracops.rl_integral.s", "s", "lower")]
    + [(f"kinetics.{s}.{m}", u, "lower") for s in SOLVER_NAMES
       for m, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [("kinetics.solve.outer_terms", "count", "lower"),
       ("kinetics.solve.failed", "count", "lower"),
       ("kinetics.forcing_value.calls", "count", "lower"),
       ("kinetics.forcing_value.s", "s", "lower")]
    + [(f"mittag.{f}.{m}", u, "lower") for f in ("ml2", "kml")
       for m, u in (("calls", "count"), ("s", "s"), ("terms", "count"),
                    ("failed", "count"), ("escalations", "count"))]
    + [("mittag.ml2_extended.s", "s", "lower"),
       ("mittag.kml_extended.s", "s", "lower"),
       ("mittag.mp_sum.calls", "count", "lower"),
       ("mittag.mp_sum.terms", "count", "lower"),
       ("mittag.calls", "count", "lower"),
       ("mittag.double_useful_ratio", "ratio", "higher"),
       ("mittag.mp_useful_ratio", "ratio", "higher"),
       ("summation.sum_series.calls", "count", "lower"),
       ("summation.sum_series.terms", "count", "lower"),
       ("summation.certified_ratio", "ratio", "higher"),
       ("specfun.calls", "count", "lower"),
       ("trace.untraced_pass_s", "s", "lower"),
       ("trace.overhead", "ratio", "lower")]
)

# Ratios and their bases, printed together in the report.
RATIO_BASES = {
    "mittag.double_useful_ratio": "mittag.calls",
    "mittag.mp_useful_ratio": "mittag.mp_sum.calls",
    "summation.certified_ratio": "summation.sum_series.calls",
    "trace.overhead": "trace.untraced_pass_s",
}


def _series_info(ev):
    return ev.terms_used, ev.converged


def _sum_info(res):
    return res.terms, res.converged


def _mp_info(res):
    return res[1], True


class Tracer:
    """Span recorder over patched module attributes."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent, op, info]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack = [-1]
        self._saved: list = []
        self.missing: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(out)
            return out

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _residual_report(self, fn):
        # Count the calls residual_report makes to the solver it is given,
        # whatever the caller wrapped it in.
        traced = self._span("fracops.residual_report", fn)

        def report(prob, solver, *args, **kwargs):
            return traced(prob, self._counted("fracops.solver_calls", solver),
                          *args, **kwargs)

        return report

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make, setter=setattr, getter=getattr):
        try:
            original = getter(owner, attr)
        except (AttributeError, KeyError):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original, setter))
        setter(owner, attr, make(original))

    def install(self) -> None:
        self.missing = []
        cli, fracops = fracml.cli, fracml.fracops
        kinetics, mittag = fracml.kinetics, fracml.mittag
        self._patch(cli, "main", lambda f: self._span("cli", f))
        self._patch(cli, "residual_report", self._residual_report)
        solvers = getattr(cli, "_SOLVERS", {})
        wrapped = {}
        for key, fn in list(solvers.items()):
            if fn not in wrapped:
                wrapped[fn] = self._span(f"kinetics.{fn.__name__}", fn,
                                         _series_info)
            self._patch(solvers, key, lambda f: wrapped[f],
                        setter=dict.__setitem__, getter=dict.__getitem__)
        self._patch(fracops, "forcing_value",
                    lambda f: self._span("kinetics.forcing_value", f,
                                         _series_info))
        self._patch(fracops, "rl_integral",
                    lambda f: self._span("fracops.rl_integral", f))
        for module in (kinetics, mittag):
            for fn in ("ml2", "kml"):
                self._patch(module, fn,
                            lambda f, fn=fn: self._span(f"mittag.{fn}", f,
                                                        _series_info))
            self._patch(module, "sum_series",
                        lambda f: self._span("summation.sum_series", f,
                                             _sum_info))
        self._patch(mittag, "_ml2_extended",
                    lambda f: self._span("mittag.ml2_extended", f))
        self._patch(mittag, "_kml_extended",
                    lambda f: self._span("mittag.kml_extended", f))
        self._patch(mittag, "_mp_sum",
                    lambda f: self._span("mittag.mp_sum", f, _mp_info))
        for attr, value in list(vars(mittag).items()):
            if getattr(value, "__module__", None) == "fracml.specfun":
                self._patch(mittag, attr,
                            lambda f: self._counted("specfun.calls", f))

    def uninstall(self) -> None:
        for owner, attr, original, setter in reversed(self._saved):
            setter(owner, attr, original)
        self._saved.clear()


def layer_metrics(spans: list, first: int, last: int, counts: Counter) -> dict:
    """Per-layer metrics from ``spans[first:last]`` (one pass; parent links
    are indices into ``spans``) and the counts of the same pass."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    child_time: defaultdict = defaultdict(float)
    escalated: set = set()
    terms: Counter = Counter()
    failed: Counter = Counter()
    for name, start, end, parent, _, _ in spans[first:last]:
        if parent >= first:
            child_time[parent] += end - start
            if name in ("mittag.ml2_extended", "mittag.kml_extended"):
                escalated.add(parent)
    for i in range(first, last):
        name, start, end, _, _, info = spans[i]
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        if info is not None:
            terms[name] += info[0]
        if info is None or not info[1]:
            failed[name] += 1
    escalations = Counter(spans[i][0] for i in escalated)

    m = {"cli.calls": calls["cli"], "cli.self_s": self_time["cli"]}
    m["fracops.residual_report.calls"] = calls["fracops.residual_report"]
    m["fracops.residual_report.self_s"] = self_time["fracops.residual_report"]
    m["fracops.solver_calls"] = counts["fracops.solver_calls"]
    m["fracops.forcing_calls"] = calls["kinetics.forcing_value"]
    m["fracops.rl_integral.calls"] = calls["fracops.rl_integral"]
    m["fracops.rl_integral.s"] = total["fracops.rl_integral"]
    for s in SOLVER_NAMES:
        name = f"kinetics.{s}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = self_time[name]
    solver_spans = [f"kinetics.{s}" for s in SOLVER_NAMES]
    m["kinetics.solve.outer_terms"] = sum(terms[n] for n in solver_spans)
    m["kinetics.solve.failed"] = sum(failed[n] for n in solver_spans)
    m["kinetics.forcing_value.calls"] = calls["kinetics.forcing_value"]
    m["kinetics.forcing_value.s"] = total["kinetics.forcing_value"]
    for f in ("ml2", "kml"):
        name = f"mittag.{f}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.terms"] = terms[name]
        m[f"{name}.failed"] = failed[name]
        m[f"{name}.escalations"] = escalations[name]
    m["mittag.ml2_extended.s"] = total["mittag.ml2_extended"]
    m["mittag.kml_extended.s"] = total["mittag.kml_extended"]
    m["mittag.mp_sum.calls"] = calls["mittag.mp_sum"]
    m["mittag.mp_sum.terms"] = terms["mittag.mp_sum"]
    m["mittag.calls"] = m["mittag.ml2.calls"] + m["mittag.kml.calls"]
    escalations_total = m["mittag.ml2.escalations"] + m["mittag.kml.escalations"]
    m["mittag.double_useful_ratio"] = _ratio(
        m["mittag.calls"] - escalations_total, m["mittag.calls"])
    m["mittag.mp_useful_ratio"] = _ratio(escalations_total,
                                         m["mittag.mp_sum.calls"])
    m["summation.sum_series.calls"] = calls["summation.sum_series"]
    m["summation.sum_series.terms"] = terms["summation.sum_series"]
    m["summation.certified_ratio"] = _ratio(
        calls["summation.sum_series"] - failed["summation.sum_series"],
        calls["summation.sum_series"])
    m["specfun.calls"] = counts["specfun.calls"]
    return m


def _ratio(num: float, base: float) -> float:
    """``num / base``; 0 when the base is 0 (the base is printed beside it)."""
    return num / base if base else 0.0
