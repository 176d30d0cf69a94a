"""CLI subcommands: determinism, artifacts, exit codes."""

import csv
import inspect
import json

import pytest

from negflow.cli import build_parser, main
from negflow.sse import SseVariant, self_consistent_loop


def run(args):
    return main(args)


def test_simulate_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--preset", "tiny", "--seed", "1", "--output-dir", str(out1)]) == 0
    assert run(["simulate", "--preset", "tiny", "--seed", "1", "--output-dir", str(out2)]) == 0
    assert (out1 / "tensors.sha256").read_text() == (out2 / "tensors.sha256").read_text()
    config = json.loads((out1 / "simulate_config.json").read_text())
    assert config["params"]["n_A"] == 8


def test_simulate_variant_default_is_the_loop_default():
    args = build_parser().parse_args(["simulate"])
    assert SseVariant(args.variant) is inspect.signature(self_consistent_loop).parameters["variant"].default


def test_simulate_solver_default_is_the_loop_default():
    args = build_parser().parse_args(["simulate"])
    assert args.solver == inspect.signature(self_consistent_loop).parameters["solver"].default


def test_simulate_divergence_exits_1_and_is_logged(tmp_path, capsys):
    out = tmp_path / "div"
    args = ["simulate", "--preset", "tiny", "--seed", "1", "--init-scale", "0.1", "--max-iter", "10"]
    assert run(args + ["--output-dir", str(out)]) == 1
    assert capsys.readouterr().out.startswith("diverged after")
    log = json.loads((out / "simulate_log.json").read_text())
    assert log["diverged"] is True and log["converged"] is False
    assert log["iterations"] < 10
    assert all(x < 1e12 for x in log["gf_abs_deltas"])


def test_simulate_iteration_cap(tmp_path):
    out = tmp_path / "cap"
    assert run(["simulate", "--preset", "tiny", "--max-iter", "1", "--output-dir", str(out)]) == 0
    log = json.loads((out / "simulate_log.json").read_text())
    assert log["iterations"] == 1
    assert log["converged"] is False


def test_simulate_zero_coupling_converges_in_two(tmp_path):
    out = tmp_path / "zero"
    assert run(["simulate", "--preset", "tiny", "--coupling", "0", "--output-dir", str(out)]) == 0
    log = json.loads((out / "simulate_log.json").read_text())
    assert log["converged"] is True
    assert log["iterations"] == 2


def test_simulate_invalid_params_is_usage_error(tmp_path):
    code = run(["simulate", "--preset", "tiny", "--nqz", "9", "--output-dir", str(tmp_path / "x")])
    assert code == 2


def test_plan_table3_preset(tmp_path, capsys):
    out = tmp_path / "plan"
    assert run(["plan", "--preset", "table3", "--nkz", "3", "--output-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "32.10" in text  # reported 32.11 TiB to 3 significant figures
    rows = list(csv.DictReader((out / "plan.csv").read_text().splitlines()))
    omen = [r for r in rows if r["scheme"] == "omen"][0]
    assert float(omen["total_TiB"]) == pytest.approx(32.11, rel=5e-3)
    tiled = [r for r in rows if r["choice"] == "optimizer"][0]
    assert float(tiled["total_TiB"]) == pytest.approx(0.54, rel=0.10)


def test_plan_table4_row(tmp_path):
    out = tmp_path / "plan4"
    assert run(["plan", "--preset", "table4", "--p", "224", "--output-dir", str(out)]) == 0
    rows = list(csv.DictReader((out / "plan.csv").read_text().splitlines()))
    omen = [r for r in rows if r["scheme"] == "omen"][0]
    assert float(omen["total_TiB"]) == pytest.approx(108.24, rel=5e-3)
    # the reported tiled-scheme row comes from the fixed tiling T_E = N_kz;
    # the optimizer's minimum may lie below it, never above
    fixed = [r for r in rows if r["choice"] == "T_E=N_kz"][0]
    assert (fixed["T_E"], fixed["T_A"]) == ("7", "32")
    assert float(fixed["total_TiB"]) == pytest.approx(0.95, rel=1.5e-2)
    optimizer = [r for r in rows if r["choice"] == "optimizer"][0]
    assert float(optimizer["total_TiB"]) <= float(fixed["total_TiB"])


def test_plan_single_process(tmp_path):
    out = tmp_path / "p1"
    assert run(["plan", "--preset", "table3", "--p", "1", "--output-dir", str(out)]) == 0
    rows = list(csv.DictReader((out / "plan.csv").read_text().splitlines()))
    omen = [r for r in rows if r["scheme"] == "omen"][0]
    # aggregate electron bytes match the P-independent closed form
    assert float(omen["bytes_G"]) == 64 * 3 * 706 * 3 * 70 * 4864 * 144
    tiled = [r for r in rows if r["choice"] == "optimizer"][0]
    assert (tiled["T_E"], tiled["T_A"]) == ("1", "1")


def test_plan_requires_processes(tmp_path):
    assert run(["plan", "--params", "/nonexistent.json", "--output-dir", str(tmp_path)]) == 2
    assert run(["plan", "--output-dir", str(tmp_path)]) == 2


def test_flops_report(tmp_path):
    out = tmp_path / "flops"
    assert run(["flops", "--format", "json", "--output-dir", str(out)]) == 0
    rows = json.loads((out / "flops.json").read_text())
    omen = {r["n_kz"]: r["pflop"] for r in rows if r["kernel"] == "SSE (OMEN)"}
    assert omen[3] == pytest.approx(24.41, rel=1.5e-2)
    assert omen[11] == pytest.approx(328.15, rel=1.5e-2)
    gf_rows = [r for r in rows if r["kernel"] == "RGF"]
    assert all(r["pflop"] is None and "empirical" in r["note"] for r in gf_rows)


def test_distsim_tiny_equivalent(tmp_path):
    out = tmp_path / "dist"
    assert run(["distsim", "--preset", "tiny", "--p", "4", "--te", "2", "--ta", "2",
                "--output-dir", str(out)]) == 0
    summary = json.loads((out / "distsim_summary.json").read_text())
    assert summary["verdict"] == "EQUIVALENT"
    assert summary["schemes"]["omen"]["model_max_rel_delta"] == 0.0
    assert summary["schemes"]["tiled"]["model_max_rel_delta"] == 0.0
    assert summary["tiled_less_than_omen"] is True
    assert (out / "ledger_omen.csv").exists()
    assert (out / "ledger_tiled.csv").exists()


def test_distsim_verdict_reports_the_worst_model_delta(tmp_path, capsys):
    out = tmp_path / "dist"
    # omen: 24 (k_z, E) points over 5 ranks, 4 or 5 per rank against the model's 4.8;
    # tiled 1 x 5 over 8 atoms is uneven too, with a smaller delta
    assert run(["distsim", "--preset", "tiny", "--p", "5",
                "--output-dir", str(out)]) == 0  # the exit code follows equivalence alone
    summary = json.loads((out / "distsim_summary.json").read_text())
    assert summary["verdict"] == "EQUIVALENT"
    schemes = summary["schemes"]
    assert 0 < schemes["tiled"]["model_max_rel_delta"] < schemes["omen"]["model_max_rel_delta"]
    assert summary["model_max_rel_delta"] == schemes["omen"]["model_max_rel_delta"] == pytest.approx(1 / 6)
    assert "verdict: EQUIVALENT, worst model delta 16.67%" in capsys.readouterr().out


def test_distsim_zero_te_is_usage_error(tmp_path):
    assert run(["distsim", "--preset", "tiny", "--te", "0", "--output-dir", str(tmp_path)]) == 2


def test_distsim_infeasible_is_domain_error(tmp_path):
    code = run(["distsim", "--preset", "tiny", "--te", "9", "--ta", "1", "--output-dir", str(tmp_path)])
    assert code == 1


def test_propagate_demo(tmp_path, capsys):
    out = tmp_path / "prop"
    assert run(["propagate", "--output-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Min(N_kz, s_kz + s_qz - 1)" in text.replace("min", "Min")
    graph = json.loads((out / "sse_graph.json").read_text())
    assert graph["map"]["name"].endswith("partitions")


def test_unknown_subcommand_is_usage_error():
    assert run(["bogus"]) == 2


def test_table_presets_are_analytics_only(tmp_path):
    code = run(["simulate", "--preset", "table2", "--output-dir", str(tmp_path / "x")])
    assert code == 2
    code = run(["distsim", "--preset", "table3", "--output-dir", str(tmp_path / "y")])
    assert code == 2
