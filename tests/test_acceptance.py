"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.  Randomized draws are seeded so reruns are
deterministic; expected values are analytic identities or were computed with
the brute-force extended-precision oracles in tests/oracles.py."""

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from fracml.cli import main
from fracml.fracops import SampledFunction, laplace_step_check, residual_report, rl_integral
from fracml.kinetics import (
    Forcing,
    KineticProblem,
    forcing_value,
    solve_theorem1,
    solve_theorem2_rederived,
    solve_theorem2_stated,
    solve_theorem3_rederived,
    solve_theorem3_stated,
)
from fracml.mittag import MLParameters, SeriesEvaluation, TwoParamML, kml, ml2
from fracml.specfun import k_gamma, k_pochhammer, k_pochhammer_general

REPO = Path(__file__).resolve().parent.parent
ARTIFACTS = REPO / "artifacts"

DB_PARAMS = MLParameters(k=2.0, alpha=6.0, beta=7.0, gamma=2.0, q=1.0)
# The default --threshold of fracml verify, which made the records.
VERIFY_THRESHOLD = 1e-5


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"[acceptance] criterion {num} ({name}): FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed < limit_s
    print(f"[acceptance] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, limit {limit_s:g}s)")
    assert ok, f"criterion {num} exceeded its runtime limit"


def test_criterion_1_gamma_family_identities():
    with criterion(1, "gamma-family identities", 5.0):
        rng = random.Random(20260811)
        for _ in range(200):  # functional equation of the step-k gamma
            x = rng.uniform(0.1, 50.0)
            k = rng.choice([0.5, 1.0, 2.0, 3.0])
            ref = x * k_gamma(x, k)
            assert abs(k_gamma(x + k, k) - ref) <= 1e-10 * abs(ref)
        for _ in range(200):  # product form equals the gamma ratio
            x = rng.uniform(0.5, 10.0)
            n = rng.randint(0, 20)
            k = rng.choice([0.5, 1.0, 2.0])
            ratio = k_gamma(x + n * k, k) / k_gamma(x, k)
            assert rel(k_pochhammer(x, n, k), ratio) <= 1e-10
        for _ in range(200):  # splitting identity
            x = rng.uniform(0.5, 5.0)
            n, r = rng.randint(0, 8), rng.randint(0, 8)
            q = rng.choice([1.0, 2.0])
            k = rng.choice([1.0, 2.0])
            whole = k_pochhammer_general(x, n + r, q, k)
            split = (k_pochhammer_general(x, r, q, k)
                     * k_pochhammer_general(x + q * r * k, n, q, k))
            assert rel(whole, split) <= 1e-10
        for _ in range(200):  # step-scaling identity
            g = rng.uniform(0.5, 5.0)
            n = rng.randint(0, 10)
            q = rng.choice([0.5, 1.0, 2.0])
            s = rng.choice([0.5, 1.0, 2.0, 3.0])
            k = rng.choice([0.5, 1.0, 2.0, 3.0])
            lhs = k_pochhammer_general(g, n, q, s)
            rhs = (s / k) ** (n * q) * k_pochhammer_general(k * g / s, n, q, k)
            assert rel(lhs, rhs) <= 1e-10


def test_criterion_2_mittag_leffler_anchors():
    with criterion(2, "Mittag-Leffler analytic anchors", 2.0):
        exp_p = TwoParamML(1.0, 1.0)
        for i in range(41):
            x = -5.0 + 0.25 * i
            ev = ml2(exp_p, x, tol=1e-13)
            assert ev.converged
            assert rel(ev.value, math.exp(x)) <= 1e-12
        cosh_p = TwoParamML(2.0, 1.0)
        for i in range(31):
            x = 3.0 * i / 30
            ev = ml2(cosh_p, x * x, tol=1e-13)
            assert rel(ev.value, math.cosh(x)) <= 1e-11
        ev = ml2(TwoParamML(1.0, 2.0), 1.0, tol=1e-13)
        assert rel(ev.value, math.e - 1.0) <= 1e-12
        ev = ml2(TwoParamML(0.5, 1.0), -1.0, tol=1e-13)
        assert rel(ev.value, math.e * math.erfc(1.0)) <= 1e-9


def test_criterion_3_reduction_chain():
    with criterion(3, "reduction chain to the two-parameter function", 5.0):
        rng = random.Random(31415926)
        for _ in range(200):
            alpha = rng.uniform(0.5, 5.0)
            beta = rng.uniform(0.5, 5.0)
            z = rng.uniform(-3.0, 3.0)
            p = MLParameters(k=1.0, alpha=alpha, beta=beta, gamma=1.0, q=1.0)
            v_gen = kml(p, z, tol=1e-12)
            v_two = ml2(TwoParamML(alpha, beta), z, tol=1e-12)
            assert v_gen.converged and v_two.converged
            assert rel(v_gen.value, v_two.value) <= 1e-10


def test_criterion_4_theorem1_residual():
    with criterion(4, "plain-forcing residual, database set", 30.0):
        prob = KineticProblem(n0=0.05, ml=DB_PARAMS, d=3.0, nu=1.0,
                              forcing=Forcing.PLAIN)
        rep = residual_report(prob, solve_theorem1, 0.5, (64, 128, 256))
        assert rep.complete
        assert rep.order_estimate >= 1.8
        assert rep.max_residuals[-1] <= 1e-6


def _assert_matches_record(name, meta, rep):
    # The checked-in record must be what this run computes, exactly; the
    # test never rewrites it (scripts/make_database.py does).
    with open(ARTIFACTS / name) as fh:
        record = json.load(fh)
    expected = dict(meta)
    expected.update({
        "grids": list(rep.grid_steps),
        "max_residuals": list(rep.max_residuals),
        "l2_residuals": list(rep.l2_residuals),
        "order_estimate": rep.order_estimate,
        "satisfies_equation_gate": rep.passes_gate(VERIFY_THRESHOLD),
    })
    assert record == expected, name


def test_criterion_5_powered_forcing_residuals():
    with criterion(5, "powered-forcing residuals and variant records", 60.0):
        shared = {"N0": 0.05, "gamma": 2.0, "tau": 1.0, "k": 2.0,
                  "alpha": 6.0, "beta": 7.0, "d": 3.0, "t_max": 0.4,
                  "grids": [64, 128, 256]}
        cases = [
            (2, 2, 5.0, 3.0, solve_theorem2_rederived, solve_theorem2_stated),
            (3, 3, 7.0, 3.0, solve_theorem3_rederived, solve_theorem3_stated),
        ]
        for set_id, theorem, nu, a, rederived, stated in cases:
            prob = KineticProblem(n0=0.05, ml=DB_PARAMS, d=3.0, nu=nu,
                                  forcing=Forcing.POWERED, a=a)
            rep = residual_report(prob, rederived, 0.4, (64, 128, 256))
            assert rep.complete
            assert rep.order_estimate >= 1.8
            assert rep.max_residuals[-1] <= 1e-5
            meta = dict(shared, set=set_id, theorem=theorem, nu=nu, a=a)
            _assert_matches_record(f"residuals_set{set_id}_rederived.json",
                                   dict(meta, variant="rederived"), rep)
            # Record of the unweighted series form: no pass assertion, the
            # report itself is the record that adjudicates it.
            rep_stated = residual_report(prob, stated, 0.4, (64, 128, 256))
            _assert_matches_record(f"residuals_set{set_id}_stated.json",
                                   dict(meta, variant="stated"), rep_stated)


def test_criterion_6_variant_and_rate_collapses():
    with criterion(6, "nu=1 and equal-rate collapses", 10.0):
        prob = KineticProblem(n0=0.05, ml=DB_PARAMS, d=3.0, nu=1.0,
                              forcing=Forcing.POWERED)
        for i in range(51):
            t = 0.5 * i / 50
            s = solve_theorem2_stated(prob, t)
            r = solve_theorem2_rederived(prob, t)
            assert rel(s.value, r.value) <= 1e-10
        rng = random.Random(271828)
        for _ in range(20):
            ml = MLParameters(k=rng.uniform(0.5, 3.0),
                              alpha=rng.uniform(0.5, 6.0),
                              beta=rng.uniform(0.5, 7.0),
                              gamma=rng.uniform(0.5, 3.0),
                              q=rng.choice([0.5, 1.0, 2.0]))
            prob = KineticProblem(n0=rng.uniform(0.01, 2.0), ml=ml,
                                  d=rng.uniform(0.5, 3.0),
                                  nu=rng.uniform(0.5, 3.0),
                                  forcing=Forcing.POWERED)
            t = rng.uniform(0.0, 0.8)
            assert rel(solve_theorem3_stated(prob, t).value,
                       solve_theorem2_stated(prob, t).value) <= 1e-13
            assert rel(solve_theorem3_rederived(prob, t).value,
                       solve_theorem2_rederived(prob, t).value) <= 1e-13


def test_criterion_7_quadrature_power_rule_and_laplace():
    with criterion(7, "quadrature power rule and transform identity", 10.0):
        for mu in (0.0, 1.0, 2.5):
            errs = []
            for steps in (64, 128, 256):
                ts = np.linspace(0.0, 1.0, steps + 1)
                f = SampledFunction(ts[1], ts**mu)
                for nu in (0.5, 1.0, 2.3):
                    g = rl_integral(f, nu).values
                    exact = (math.gamma(mu + 1.0) / math.gamma(mu + nu + 1.0)
                             * ts ** (mu + nu))
                    err = float(np.max(np.abs(g - exact)))
                    if mu in (0.0, 1.0):
                        assert err <= 1e-12
                    else:
                        errs.append(err)
            if errs:
                # errs holds three grids x three orders; compare per order.
                for j in range(3):
                    seq = errs[j::3]
                    slopes = [math.log2(a / b) for a, b in zip(seq, seq[1:])]
                    assert min(slopes) >= 1.8
        checks = [
            (lambda ts: np.ones_like(ts), 1.0, 2.0, 20.0, 8192),
            (lambda ts: np.ones_like(ts), 0.5, 1.0, 20.0, 8192),
            (lambda ts: ts.copy(), 2.0, 1.0, 30.0, 8192),
        ]
        for make, nu, p, t_max, steps in checks:
            ts = np.linspace(0.0, t_max, steps + 1)
            lhs, rhs = laplace_step_check(SampledFunction(ts[1], make(ts)),
                                          nu, p)
            assert abs(lhs - rhs) <= 1e-4 * abs(rhs)


def test_criterion_8_negative_controls(capsys):
    with criterion(8, "negative controls and error surfacing", 30.0):
        prob = KineticProblem(n0=0.05, ml=DB_PARAMS, d=3.0, nu=1.0,
                              forcing=Forcing.PLAIN)

        def perturbed(p, t):
            ev = solve_theorem1(p, t)
            return SeriesEvaluation(1.01 * ev.value, ev.terms_used,
                                    ev.tail_bound, ev.converged)

        def dead(p, t):
            return SeriesEvaluation(0.0 * t, 1, 0.0, True)

        scale = max(forcing_value(prob, 0.5 * i / 64).value for i in range(65))
        rep = residual_report(prob, perturbed, 0.5, (16, 32, 64))
        assert not rep.passes_gate(VERIFY_THRESHOLD)
        assert rep.max_residuals[-1] >= 1e-3 * scale
        rep = residual_report(prob, dead, 0.5, (16, 32, 64))
        assert not rep.passes_gate(VERIFY_THRESHOLD)
        assert rep.max_residuals[-1] >= 0.5 * scale
        # control: the honest solver passes the same gate
        assert residual_report(prob, solve_theorem1, 0.5,
                               (16, 32, 64)).passes_gate(VERIFY_THRESHOLD)

        code = main(["eval-ml", "--alpha", "0", "--beta", "1", "--x", "1"])
        _, err = capsys.readouterr()
        assert code == 2 and "--alpha" in err
        code = main(["eval-ml", "--alpha", "1", "--beta", "1"])
        _, err = capsys.readouterr()
        assert code == 2 and "--x" in err
        code = main(["eval-kml", "--k", "1", "--alpha", "0.5", "--beta", "1",
                     "--gamma", "1", "--tau", "2", "--z", "2"])
        out, _ = capsys.readouterr()
        assert code == 3
        assert out.splitlines()[1].endswith("false")  # flagged, not silent


def _run_cli(argv):
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "fracml", *argv],
                          capture_output=True, env=env, cwd=REPO)


def test_criterion_9_cli_determinism_and_round_trip(capsys):
    with criterion(9, "CLI determinism, round-trip, table schema", 60.0):
        solve_argv = ["solve", "--theorem", "2", "--variant", "rederived",
                      "--N0", "0.05", "--gamma", "2", "--tau", "1", "--k", "2",
                      "--alpha", "6", "--beta", "7", "--d", "3", "--nu", "5",
                      "--t-max", "0.4", "--steps", "12"]
        first, second = _run_cli(solve_argv), _run_cli(solve_argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

        verify_argv = ["verify", "--theorem", "1", "--variant", "stated",
                       "--N0", "0.05", "--gamma", "2", "--tau", "1", "--k", "2",
                       "--alpha", "6", "--beta", "7", "--d", "3", "--nu", "1",
                       "--t-max", "0.5", "--grids", "16,32"]
        first, second = _run_cli(verify_argv), _run_cli(verify_argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

        code = main(["solve", "--theorem", "1", "--variant", "stated",
                     "--N0", "0.05", "--gamma", "2", "--tau", "1", "--k", "2",
                     "--alpha", "6", "--beta", "7", "--d", "3", "--nu", "1",
                     "--t-max", "0.5", "--steps", "8"])
        out, _ = capsys.readouterr()
        assert code == 0
        prob = KineticProblem(n0=0.05, ml=DB_PARAMS, d=3.0, nu=1.0,
                              forcing=Forcing.PLAIN)
        for line in out.splitlines()[1:]:
            t_str, n_str = line.split(",")
            assert float(n_str) == solve_theorem1(prob, float(t_str)).value

        code = main(["table"])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "set,theorem,t,N_stated,N_rederived"
        assert len(lines) == 1 + 3 * 51
        assert sorted({line.split(",")[0] for line in lines[1:]}) == \
            ["1", "2", "3"]
