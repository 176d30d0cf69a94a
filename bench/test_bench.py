"""Self-check of the benchmark harness on tiny shapes; no timing gate.

Runs every workload kind, timed and traced, through the same code the
benchmark uses, so the harness cannot rot unnoticed.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("negflow_bench_run", BENCH / "run.py")
run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

TINY = run.SimParams(n_kz=3, n_qz=2, n_E=8, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4, eta=0.05)
TINY_LOOP = run.LoopWorkload(name="tiny-loop", params=TINY, layer="sse")
TINY_RGF = dataclasses.replace(TINY_LOOP, name="tiny-rgf", solver="rgf")
# P=16 over 24 (k_z, E) points leaves 4 omen ranks idle under ceil chunking.
TINY_DIST = run.DistsimWorkload(name="tiny-distsim", params=TINY, layer="distsim",
                                processes=4, tiles=(2, 2), uneven=(TINY, 16, (4, 4)))


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    # The tiny workloads are not in run.WORKLOADS, so no set-up runs in a fresh process.
    monkeypatch.setattr(run, "SETUP_MIN", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def _assert_checked_and_complete(outcome, trace):
    final = outcome["final"]
    assert outcome["record"]["problems"] == []
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    declared = run.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in final["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in final["metrics"].values())
    json.dumps(final)
    return {name: m["value"] for name, m in final["metrics"].items()}


@pytest.mark.parametrize("workload", [TINY_LOOP, TINY_RGF], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
def test_loop_harness_runs_checked_and_reports_declared_metrics(workload, trace):
    _assert_checked_and_complete(run.run(workload, seed=3, seconds=0, trace=trace), trace)


def test_distsim_timed_run_reports_the_exact_comm_model_bytes():
    metrics = _assert_checked_and_complete(run.run(TINY_DIST, seed=1, seconds=0, trace=False), False)
    omen, tiled = run.comm_plans(TINY, 4, (2, 2))
    assert metrics["bytes_omen"] == omen.total_bytes
    assert metrics["bytes_tiled"] == tiled.total_bytes


def test_distsim_traced_run_records_the_uneven_partition_and_layer_spans():
    outcome = run.run(TINY_DIST, seed=1, seconds=0, trace=True)
    metrics = _assert_checked_and_complete(outcome, True)
    assert metrics["distsim.idle_ranks_uneven"] == 4
    assert metrics["distsim.model_gap_uneven"] == 1.0
    assert metrics["distsim.model_gap"] == 0.0
    assert metrics["distsim.kernel_calls"] == 2 * (4 + 4)
    names = {span[0] for span in outcome["spans"]}
    assert {"distsim.omen", "distsim.kernel", "dataflow.volume", "comm.model", "device.synthesize"} <= names
    assert all(span[2] >= span[1] for span in outcome["spans"])


def test_failed_checks_are_counted_not_dropped(monkeypatch):
    monkeypatch.setattr(run, "ARRANGEMENT_TOL", -1.0)
    final = run.run(TINY_LOOP, seed=1, seconds=0, trace=False)["final"]
    assert not final["correct"]
    assert final["failed"] == final["attempted"] >= 1
    assert final["metrics"]["ok_frac"]["value"] == 0.0


@pytest.mark.parametrize("workload", [TINY_LOOP, TINY_DIST], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
def test_a_body_that_raises_is_a_failed_result_not_a_crash(monkeypatch, workload, trace):
    def broken(self, case, tr):
        raise RuntimeError("broken body")

    monkeypatch.setattr(type(workload), "body", broken)
    outcome = run.run(workload, seed=1, seconds=0, trace=trace)
    final = outcome["final"]
    assert not final["correct"] and final["attempted"] >= 1
    # A traced run also attempts the SSE chain and the uneven partition, which do not run the body.
    assert final["failed"] == final["attempted"] - (2 if trace else 0)
    assert any("broken body" in problem for problem in outcome["record"]["problems"])
    json.dumps(final)
    if not trace:
        assert final["metrics"]["ok_frac"]["value"] == 0.0
        assert math.isnan(final["metrics"]["wall_s"]["value"])


def test_oracles_run_other_code_than_the_timed_path():
    assert run.other_variant(run.DISTSIM_RANK_VARIANT) is not run.DISTSIM_RANK_VARIANT
    loop_variant = run._default(run.sse.self_consistent_loop, "variant")
    assert run.other_variant(loop_variant) is not loop_variant


def test_cold_setup_runs_in_a_fresh_process():
    seconds = run.cold_setup_seconds(run.WORKLOADS["distsim-p8"], seed=1)
    assert 0 < seconds < 60


def test_summary_self_time_excludes_children():
    tr = run.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    tr.spans[0][1:3] = [0.0, 3.0]
    tr.spans[1][1:3] = [1.0, 2.0]
    summary = tr.summary()
    assert summary["outer"] == {"count": 1, "total_s": 3.0, "self_s": 2.0}
    assert summary["inner"]["self_s"] == 1.0


def test_host_clock_scales_by_the_probe_speed_inside_the_interval():
    ref = sys.modules["hostclock"].PROBE_REF_S
    clock = run.HostClock()
    # Two probes inside [10, 20), both at half the reference speed; two outside at the reference speed.
    clock.samples = [(5.0, ref), (12.0, 2 * ref), (15.0, 2 * ref), (25.0, ref)]
    assert clock.speed(10.0, 20.0) == 0.5
    assert clock.scaled(10.0, 20.0) == pytest.approx((10.0 - 4 * ref) * 0.5)
    # An interval no probe fell in takes the speed of all samples.
    assert clock.speed(30.0, 31.0) == pytest.approx(0.75)


def test_host_clock_samples_while_running_and_then_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    clock = run.HostClock()
    with clock.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 4  # one on entry, one on exit, timer probes between


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gf-long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
