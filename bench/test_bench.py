"""Self-checks of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    # point_eval is run by hand only (bench/NOTES.md says why).
    assert [w["name"] for w in spec["workloads"]] == ["db_verify", "stiff_solve"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


# Counts that later changes may cite; they must repeat exactly on one seed.
_COUNTS = ("fracops.solver_calls", "mittag.mp_sum.calls",
           "kinetics.solve.outer_terms")
_COUNT_SUFFIXES = (".terms", ".escalations")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_on_one_seed(workload):
    runs = [_result(_bench("--workload", workload, "--seed", "7",
                           "--seconds", "0.1", "--trace", "1"))
            for _ in range(2)]
    assert all(r["correct"] for r in runs)
    first, second = ({k: v["value"] for k, v in r["metrics"].items()}
                     for r in runs)
    assert set(first) == {name for name, _, _ in tracing.PER_LAYER}
    cited = [k for k in first if k in _COUNTS or k.endswith(_COUNT_SUFFIXES)]
    assert len(cited) == 9
    assert {k: first[k] for k in cited} == {k: second[k] for k in cited}
    if workload == "db_verify":
        assert first["fracops.solver_calls"] == 2706
        assert first["mittag.ml2.escalations"] == 0
        assert first["mittag.kml.escalations"] == 0
    if workload == "stiff_solve":
        assert first["mittag.ml2.escalations"] > 0


def test_end_to_end_run_prints_every_metric():
    proc = _bench("--workload", "db_verify", "--seed", "3", "--seconds", "0.1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % 7 == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_reference_fails_the_run():
    seed = 990001
    wl = workloads.PointEval(seed, ROOT)
    cache = reference.ReferenceCache("point_eval", seed)
    try:
        jobs = [wl.reference_job(wl.op_input(i)) for i in range(50)]
        reference.fill(cache, jobs)
        for key in list(cache.entries):
            cache.entries[key] *= 1.0 + 1e-6
        cache.dirty = True
        cache.save()
        proc = _bench("--workload", "point_eval", "--seed", str(seed),
                      "--seconds", "0.05", "--trace", "0")
        assert proc.returncode == 1
        assert _result(proc)["correct"] is False
        assert "CHECK FAILED" in proc.stderr
    finally:
        cache.path.unlink(missing_ok=True)


def test_raising_operation_fails_the_run(monkeypatch, capsys):
    def broken_main(argv):
        raise RuntimeError("broken")

    monkeypatch.setattr(workloads.cli, "main", broken_main)
    code = run.main(["--workload", "db_verify", "--seed", "1",
                     "--seconds", "0.05", "--trace", "0"])
    assert code == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_unconverged_stiff_solve_fails_the_check():
    wl = workloads.StiffSolve(1, ROOT)
    with pytest.raises(workloads.CheckFailed):
        wl.check(wl.op_input(0), (3, "", "no convergence"), None)


def test_point_eval_keeps_one_pass_of_draws():
    wl = workloads.PointEval(5, ROOT)
    first = [wl.op_input(i) for i in range(3)]
    late = wl.op_input(3 * wl.pass_size + 2)
    assert len(wl._draws) == wl.pass_size
    assert [wl.op_input(i) for i in range(3)] == first
    assert workloads.PointEval(5, ROOT).op_input(3 * wl.pass_size + 2) == late


def test_changed_artifact_fails_the_check():
    wl = workloads.DbVerify(1, ROOT)
    for i in range(wl.pass_size):
        inp = wl.op_input(i)
        out = wl.run(inp)
        assert wl.check(inp, out, None) == "ok"
        kind, argv, expected = inp
        if kind == "table":
            bad = expected.replace("0.0026596152026762184", "0.0026596152026762185")
        else:
            bad = dict(expected, l2_residuals=[v * (1 + 1e-15) for v in
                                               expected["l2_residuals"]])
        with pytest.raises(workloads.CheckFailed):
            wl.check((kind, argv, bad), out, None)


def test_references_match_closed_forms():
    import math

    assert reference.ml2_reference(1.0, 1.0, -4.0) == pytest.approx(
        math.exp(-4.0), rel=1e-15)
    assert reference.ml2_reference(2.0, 1.0, -9.0) == pytest.approx(
        math.cos(3.0), rel=1e-15)
    assert reference.ml2_reference(0.5, 1.0, -3.0) == pytest.approx(
        math.exp(9.0) * math.erfc(3.0), rel=1e-13)
    # k = q = gamma = 1 reduces the generalized function to E_{alpha,beta}.
    assert reference.kml_reference(1.0, 1.5, 0.7, 1.0, 1.0, -2.5) == \
        pytest.approx(reference.ml2_reference(1.5, 0.7, -2.5), rel=1e-14)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".refcache", "__pycache__"))
    proc = _bench("--workload", "db_verify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _session_members(sid: int) -> list:
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_leaves_no_process_behind():
    # A fresh seed, so the reference workers run too.
    seed = 990002
    cache = reference.ReferenceCache("stiff_solve", seed)
    cache.path.unlink(missing_ok=True)
    try:
        proc = subprocess.Popen(
            [sys.executable, "bench/run.py", "--workload", "stiff_solve",
             "--seed", str(seed), "--seconds", "0.05", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0
        assert json.loads(out.splitlines()[-1])["correct"]
        assert cache.path.exists()
        assert _session_members(proc.pid) == []
    finally:
        cache.path.unlink(missing_ok=True)
