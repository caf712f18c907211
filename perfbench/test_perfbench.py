"""Tests of the benchmark itself: tiny smoke runs of every workload, the
output format, and that corrupted outputs are counted as failures.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(cwd, workload, trace, size="tiny"):
    cmd = list(BENCHMARK["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", size,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def expected_units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stderr
    assert out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected_units(
        "end_to_end")
    assert all(v["value"] > 0.0 for v in out["metrics"].values())


def test_tiny_traced_run_prints_every_layer_metric():
    proc = run_bench(ROOT, "oval", trace=1)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = out["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected_units("per_layer")
    assert metrics["evolve.step.calls"]["value"] > 0
    assert metrics["evolve.tip.step_share_pct"]["value"] > 0
    assert metrics["recenter.solve_psi.calls"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(tmp_path, "extinction", trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_wrong_extinction_time_is_a_failed_operation(tmp_path, monkeypatch):
    ctx = workloads.extinction_setup(7, "tiny", str(tmp_path))
    real = workloads.evolve.find_extinction

    def late(*args, **kwargs):
        res = real(*args, **kwargs)
        shift = 1.0
        return dataclasses.replace(
            res, t_extinct=res.t_extinct + shift,
            t_last_alive=res.t_last_alive + shift,
            t_first_dead=res.t_first_dead + shift)

    monkeypatch.setattr(workloads.evolve, "find_extinction", late)
    log = workloads.PassLog()
    workloads.extinction_pass(ctx, log)
    assert log.attempted == 3
    assert log.failed == 3
    assert len(log.wrong) == 3


def test_corrupted_history_file_fails_the_round_trip(tmp_path):
    ctx = workloads.analysis_setup(7, "tiny", str(tmp_path))
    snap = os.path.join(ctx["dirs"]["ellipsoid"], "snap_00001.csv")
    with open(snap) as fh:
        lines = fh.readlines()
    fields = lines[1].split(", ")
    fields[-1] = repr(float(fields[-1]) + 1.0e-6) + "\n"
    lines[1] = ", ".join(fields)
    with open(snap, "w") as fh:
        fh.writelines(lines)
    log = workloads.PassLog()
    workloads.analysis_pass(ctx, log)
    wrong = [op.kind for op in log.wrong]
    assert wrong == ["load_dir"]


def test_oval_symmetry_check_catches_a_broken_snapshot():
    ctx = workloads.oval_setup(7, "tiny", None)
    log = workloads.PassLog()
    tau_end = workloads.OVAL_TAU0 + ctx["span"]
    hist = workloads.evolve.run(ctx["state"], tau_end,
                                snapshot_every=workloads.SNAPSHOT_EVERY)
    check = workloads.check_oval_history(ctx, tau_end, log)
    assert check(hist) is None
    final = hist.states[-1]
    w = final.v.w_signed.copy()
    w[3, 1] += 1.0e-8
    broken = dataclasses.replace(final, v=final.v.with_values(final.v.values,
                                                              w_signed=w))
    tampered = workloads.evolve.FlowHistory()
    for st in hist.states[:-1] + [broken]:
        tampered.append(st)
    assert "symmetry" in check(tampered)


def test_calibration_chunks_are_taken_out_of_call_times():
    def spin(seconds):
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            pass

    clock = hostspeed.HostClock(interval=0.02)
    log = workloads.PassLog(clock)
    with clock.running():
        log.call("spin", spin, 0.3)
    op = log.ops[0]
    paused = clock.paused(op.start, op.end)
    assert paused > 0.0
    assert op.seconds == pytest.approx(op.end - op.start - paused)
    assert clock.scale(op.start, op.end) > 0.0
