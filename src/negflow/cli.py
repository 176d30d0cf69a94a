"""Command-line entry point: reproducible experiments and reports.

Subcommands: simulate (self-consistent GF/SSE loop on a synthetic device),
plan (communication-volume tables), flops (analytic flop tables), distsim
(simulated distributed SSE with ledgers), propagate (dataflow-IR demo).
Exit codes: 0 ok, 1 domain error (a diverged simulate run included), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import comm, distsim, flops
from .device import synthesize
from .gf import DEFAULT_SOLVER, SOLVERS, GreensTensor, SingularSystemError
from .params import SimParams, default_grid, load_params, validate
from .sse import (
    SseVariant,
    preprocess_D,
    seeded_self_energies,
    self_consistent_loop,
    sse_pi,
    sse_sigma,
)

# the paper's Table 2 and Table 3 device; `plan --preset table3` differs only in picking P from TABLE3_PROCESSES
_SILICON = SimParams(n_kz=3, n_qz=3, n_E=706, n_w=70, n_A=4864, n_B=34, n_orb=12, bnum=19)

PRESETS: dict[str, SimParams] = {
    "tiny": SimParams(n_kz=3, n_qz=2, n_E=8, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4),
    "small": SimParams(n_kz=3, n_qz=2, n_E=8, n_w=2, n_A=32, n_B=4, n_orb=2, bnum=4),
    "table2": _SILICON,
    "table3": _SILICON,
    "table4": _SILICON.replace(n_kz=7, n_qz=7),
}

TABLE3_PROCESSES = {3: 768, 5: 1280, 7: 1792, 9: 2304, 11: 2816}
TABLE4_PROCESSES = [224, 448, 896, 1792, 2688]

# largest matrix edge the tensor-allocating commands will accept; the table
# presets exist for the analytic commands only and must never be synthesized
_DESK_SCALE_LIMIT = 4096


class UsageError(ValueError):
    pass


def _resolve_params(args) -> SimParams:
    if getattr(args, "params", None):
        try:
            params = load_params(args.params)
        except OSError as exc:
            raise UsageError(f"cannot read parameter file: {exc}") from exc
    elif getattr(args, "preset", None):
        params = PRESETS[args.preset]
    else:
        raise UsageError("either --preset or --params is required")
    overrides = {}
    for name in ("n_kz", "n_qz", "n_E", "n_w", "n_A", "n_B", "n_orb", "bnum", "eta"):
        flag = name.lower().replace("_", "")
        value = getattr(args, flag, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        params = params.replace(**overrides)
    if "n_kz" in overrides and "n_qz" not in overrides and params.n_qz > params.n_kz:
        params = params.replace(n_qz=params.n_kz)
    return params


def _add_params_flags(parser, with_preset=True, default_preset=None):
    if with_preset:
        parser.add_argument("--preset", choices=sorted(PRESETS), default=default_preset)
    parser.add_argument("--params", help="JSON parameter file (one key per field)")
    for name in ("nkz", "nqz", "ne", "nw", "na", "nb", "norb"):
        parser.add_argument(f"--{name}", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--bnum", type=int, default=None,
                        help="blocks of the device partition: only atoms of adjacent blocks couple, and "
                             "--solver rgf recurses over each block cut into the thinnest sub-blocks its "
                             "couplings allow")
    parser.add_argument("--eta", type=float, default=None, help=argparse.SUPPRESS)


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, stem: str, rows: list[dict], fmt: str) -> Path:
    if fmt == "csv":
        path = out / f"{stem}.csv"
        path.write_text(comm.rows_to_csv(rows), encoding="utf-8")
    else:
        path = out / f"{stem}.json"
        path.write_text(json.dumps(rows, indent=2, default=str), encoding="utf-8")
    return path


def _echo_config(out: Path, name: str, args, params: SimParams | None) -> None:
    payload = {"command": name, "argv": {k: v for k, v in vars(args).items() if k != "func"}}
    if params is not None:
        payload["params"] = params.to_dict()
    (out / f"{name}_config.json").write_text(json.dumps(payload, indent=2, default=str), encoding="utf-8")


def _valid(params: SimParams) -> tuple[str, ...]:
    """Warnings of ``params``; a ``validate`` violation is a usage error."""
    report = validate(params)
    if not report.ok:
        raise UsageError("invalid parameters:\n" + str(report))
    return report.warnings


def _desk_params(args) -> tuple[SimParams, tuple[str, ...]]:
    """Parameters of a tensor-allocating command and their warnings; desk scale and no violation, or a usage error."""
    params = _resolve_params(args)
    edge = params.n_A * params.n_orb
    if edge > _DESK_SCALE_LIMIT:
        raise UsageError(
            f"parameters are analytics-only (matrix edge {edge} > {_DESK_SCALE_LIMIT}); "
            "use the plan/flops commands or a desk-scale preset"
        )
    return params, _valid(params)


def cmd_simulate(args) -> int:
    params, warnings = _desk_params(args)
    out = _out_dir(args)
    _echo_config(out, "simulate", args, params)
    dev, nmap = synthesize(params, seed=args.seed, coupling=args.coupling)
    initial = (None, None)
    if args.init_scale:
        initial = seeded_self_energies(params, args.init_scale)
    result = self_consistent_loop(
        dev, nmap, params,
        max_iter=args.max_iter, tol=args.tol, solver=args.solver,
        initial_sigma=initial[0], initial_pi=initial[1],
    )
    digest = hashlib.sha256()
    for pair in (result.g_electron, result.g_phonon):
        digest.update(pair.data.tobytes())  # the lesser tensor's bytes, then the greater's
    log = {
        "iterations": result.iterations,
        "converged": result.converged,
        "diverged": result.diverged,
        "gf_deltas": result.deltas,
        "gf_abs_deltas": result.abs_deltas,
        "digest_sha256": digest.hexdigest(),
    }
    (out / "simulate_log.json").write_text(json.dumps(log, indent=2), encoding="utf-8")
    (out / "tensors.sha256").write_text(digest.hexdigest() + "\n", encoding="utf-8")
    status = "converged" if result.converged else "diverged" if result.diverged else "non-converged"
    print(f"{status} after {result.iterations} iterations; digest {digest.hexdigest()[:16]}...")
    for line in warnings:
        print(f"warning: {line}")
    return 1 if result.diverged else 0


def cmd_plan(args) -> int:
    params = _resolve_params(args)
    _valid(params)  # the analytic commands take the table presets, so no desk-scale limit
    if args.p:
        process_counts = args.p
    elif args.preset == "table3":
        process_counts = [TABLE3_PROCESSES[params.n_kz]] if params.n_kz in TABLE3_PROCESSES else []
        if not process_counts:
            raise UsageError("table3 preset needs --nkz in {3,5,7,9,11} or explicit --p")
    elif args.preset == "table4":
        process_counts = TABLE4_PROCESSES
    else:
        raise UsageError("plan needs --p (one or more process counts)")
    if any(p < 1 for p in process_counts):
        raise UsageError("process counts must be >= 1")
    out = _out_dir(args)
    _echo_config(out, "plan", args, params)
    rows = comm.plan_report(params, process_counts)
    path = _write_report(out, "plan", rows, args.format)
    for row in rows:
        print(
            f"{row['scheme']:5s} P={row['P']:>6} T_E={str(row['T_E']):>4} T_A={str(row['T_A']):>5} "
            f"total={row['total_TiB']:10.4f} TiB ({row['choice']})"
        )
    print(f"wrote {path}")
    return 0


def cmd_flops(args) -> int:
    params = _resolve_params(args)
    nkz_values = args.nkz_list or [3, 5, 7, 9, 11]
    row_params = [params.replace(n_kz=nkz, n_qz=nkz) for nkz in nkz_values]
    for p in row_params:
        _valid(p)
    out = _out_dir(args)
    _echo_config(out, "flops", args, params)
    rows = []
    for p in row_params:
        for kernel in ("Contour Integral", "RGF"):
            rows.append({"n_kz": p.n_kz, "kernel": kernel, "pflop": None, "note": "n/a (empirical in paper)"})
        for kernel, count in (("SSE (OMEN)", flops.sse_flops_omen(p)), ("SSE (DaCe)", flops.sse_flops_dace(p))):
            rows.append({"n_kz": p.n_kz, "kernel": kernel, "pflop": count / flops.PFLOP, "note": ""})
    path = _write_report(out, "flops", rows, args.format)
    for row in rows:
        val = "n/a (empirical in paper)" if row["pflop"] is None else f"{row['pflop']:.2f}"
        print(f"N_kz={row['n_kz']:>2} {row['kernel']:<16} {val}")
    print(f"wrote {path}")
    return 0


def cmd_distsim(args) -> int:
    params, _ = _desk_params(args)
    if args.te is not None and args.te < 1:
        raise UsageError("--te must be >= 1")
    if args.ta is not None and args.ta < 1:
        raise UsageError("--ta must be >= 1")
    out = _out_dir(args)
    _echo_config(out, "distsim", args, params)
    grid = default_grid(params)
    dev, nmap = synthesize(params, seed=args.seed, coupling=args.coupling)
    rng = np.random.default_rng(args.seed)

    def rand(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    g = GreensTensor(rand(params.electron_shape), rand(params.electron_shape))
    d = GreensTensor(rand(params.phonon_shape), rand(params.phonon_shape))
    dc = preprocess_D(d, nmap)
    # The oracle runs other code than the ranks: the straightforward Sigma and the unhoisted Pi.
    ref_sigma = sse_sigma(SseVariant.REFERENCE, g, dc, dev.dH, nmap, grid)
    ref_pi = sse_pi(g, dev.dH, nmap, grid, params.n_qz, hoist_invariant=False)

    processes = args.p
    t_e = args.te if args.te is not None else min(2, params.n_E)
    t_a = args.ta if args.ta is not None else max(1, processes // t_e)
    if args.te is None and args.ta is None and t_e * t_a != processes:
        t_e, t_a = 1, processes

    summary = {"schemes": {}}
    worst = 0.0
    schemes = {
        "omen": (distsim.run_omen_scheme, comm.omen_volume, {"processes": processes}),
        "tiled": (distsim.run_tiled_scheme, comm.dace_volume, {"t_e": t_e, "t_a": t_a}),
    }
    for name, (run, volume, partition) in schemes.items():
        if args.scheme not in (name, "both"):
            continue
        s, pi, ledger = run(g, d, dev.dH, nmap, grid, params, *partition.values())
        dev_sigma = s.change_from(ref_sigma)[1]
        dev_pi = pi.change_from(ref_pi)[1]
        worst = max(worst, dev_sigma, dev_pi)
        rows = distsim.compare_ledger_with_model(ledger, volume(params, *partition.values()))
        (out / f"ledger_{name}.csv").write_text(ledger.to_csv(), encoding="utf-8")
        summary["schemes"][name] = {
            **partition,
            "sigma_rel_dev": dev_sigma,
            "pi_rel_dev": dev_pi,
            "ledger": ledger.summary(),
            "model_max_rel_delta": max(r["rel_delta"] for r in rows),
        }
    summary["verdict"] = "EQUIVALENT" if worst <= 1e-10 else "DIVERGED"
    summary["model_max_rel_delta"] = max(info["model_max_rel_delta"] for info in summary["schemes"].values())
    if len(summary["schemes"]) == 2:
        omen_total = summary["schemes"]["omen"]["ledger"]["total_bytes"]
        tiled_total = summary["schemes"]["tiled"]["ledger"]["total_bytes"]
        summary["tiled_less_than_omen"] = tiled_total < omen_total
    (out / "distsim_summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    print(f"verdict: {summary['verdict']}, worst model delta {summary['model_max_rel_delta']:.2%}")
    for name, info in summary["schemes"].items():
        print(
            f"{name}: sigma dev {info['sigma_rel_dev']:.2e}, pi dev {info['pi_rel_dev']:.2e}, "
            f"total {info['ledger']['total_bytes']} bytes, model delta {info['model_max_rel_delta']:.2%}"
        )
    return 0 if summary["verdict"] == "EQUIVALENT" else 1


def cmd_propagate(args) -> int:
    # the symbolic modules load only here, keeping the other commands off sympy
    import sympy

    from . import dataflow

    out = _out_dir(args)
    _echo_config(out, "propagate", args, None)
    graph = dataflow.build_sse_graph(tile_e=args.tile_e, tile_a=args.tile_a)
    volumes = dataflow.volume_between_maps(graph.outer, graph.graph)
    # generic momentum-difference pattern with symbolic tile sizes
    n_kz = graph.symbols["N_kz"]
    s_k, s_q = sympy.symbols("s_kz s_qz", integer=True, positive=True)
    t_k, t_q = sympy.symbols("t_kz t_qz", integer=True, nonnegative=True)
    k, q = sympy.symbols("k_z q_z", integer=True, nonnegative=True)
    pattern = dataflow.MapScope(
        "pattern", (k, q),
        (dataflow.SymRange(t_k * s_k, (t_k + 1) * s_k), dataflow.SymRange(t_q * s_q, (t_q + 1) * s_q)),
    )
    kq = dataflow.propagate_memlet(pattern, dataflow.Memlet("G", (k - q,)), dataflow.ArrayDecl("G", (n_kz,)))
    lines = [
        "momentum-difference pattern over (s_kz, s_qz) tiles:",
        f"  range:  {kq.range}",
        f"  total accesses:  {kq.total_accesses}",
        f"  unique accesses: {kq.unique_accesses}",
        "per-array boundary volume of the tiled SSE map (bytes per process):",
    ]
    lines += [f"  {name}: {expr}" for name, expr in sorted(volumes.items())]
    text = "\n".join(lines)
    print(text)
    (out / "propagate.txt").write_text(text + "\n", encoding="utf-8")
    (out / "sse_graph.json").write_text(dataflow.graph_to_json(graph.graph), encoding="utf-8")
    print(f"wrote {out / 'sse_graph.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="negflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the self-consistent GF/SSE loop")
    _add_params_flags(p_sim, default_preset="tiny")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--coupling", type=float, default=0.05)
    p_sim.add_argument("--init-scale", type=float, default=0.0,
                       help="seed the starting self-energies (0 = plain zero start)")
    p_sim.add_argument("--max-iter", type=int, default=20)
    p_sim.add_argument("--tol", type=float, default=1e-8)
    p_sim.add_argument("--solver", choices=SOLVERS, default=DEFAULT_SOLVER)
    p_sim.add_argument("--output-dir", default="out")
    p_sim.set_defaults(func=cmd_simulate)

    p_plan = sub.add_parser("plan", help="communication-volume models and tile search")
    _add_params_flags(p_plan, default_preset=None)
    p_plan.add_argument("--p", type=int, nargs="*", default=None, help="process counts")
    p_plan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_plan.add_argument("--output-dir", default="out")
    p_plan.set_defaults(func=cmd_plan)

    p_flops = sub.add_parser("flops", help="analytic SSE flop tables")
    _add_params_flags(p_flops, default_preset="table2")
    p_flops.add_argument("--nkz-list", type=int, nargs="*", default=None)
    p_flops.add_argument("--format", choices=["csv", "json"], default="csv")
    p_flops.add_argument("--output-dir", default="out")
    p_flops.set_defaults(func=cmd_flops)

    p_dist = sub.add_parser("distsim", help="simulated distributed SSE with byte ledgers")
    _add_params_flags(p_dist, default_preset="tiny")
    p_dist.add_argument("--seed", type=int, default=0)
    p_dist.add_argument("--coupling", type=float, default=0.05)
    p_dist.add_argument("--scheme", choices=["omen", "tiled", "both"], default="both")
    p_dist.add_argument("--p", type=int, default=4, help="process count (omen scheme)")
    p_dist.add_argument("--te", type=int, default=None, help="energy partitions (tiled scheme)")
    p_dist.add_argument("--ta", type=int, default=None, help="atom partitions (tiled scheme)")
    p_dist.add_argument("--output-dir", default="out")
    p_dist.set_defaults(func=cmd_distsim)

    p_prop = sub.add_parser("propagate", help="dataflow-IR propagation demo")
    p_prop.add_argument("--tile-e", default="s_E", help="energy tile size (number or symbol)")
    p_prop.add_argument("--tile-a", default="s_A", help="atom tile size (number or symbol)")
    p_prop.add_argument("--output-dir", default="out")
    p_prop.set_defaults(func=cmd_propagate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SingularSystemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
