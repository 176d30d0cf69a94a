#!/usr/bin/env python3
"""negflow benchmark: timed workloads, a traced run for layer numbers, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload sse-desk32 --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics.  ``--trace 1`` is a separate run that records layer spans and
reports the per-layer metrics.  Every run checks the program's outputs
against an oracle.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; metric names
and units are the ones BENCHMARK.json declares.  A fuller record (environment,
medians with quartiles and sample counts, spans) goes to ``bench/results/``.
bench/NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

if not (SRC / "negflow" / "__init__.py").is_file():
    raise SystemExit(f"error: negflow sources not found under {SRC}; run from a full checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
# One BLAS thread (unless the caller sets one): the work then runs on the thread
# that HostClock samples, so its speed correction covers all of it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from negflow import comm, distsim, gf, sse  # noqa: E402
from negflow.device import synthesize  # noqa: E402
from negflow.flops import FLOPS_PER_CMULADD, FlopCounter, sse_flops_dace, sse_flops_omen  # noqa: E402
from negflow.gf import GreensTensor  # noqa: E402
from negflow.params import SimParams, default_grid  # noqa: E402
from negflow.sse import SseVariant  # noqa: E402
from hostclock import HostClock  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

# Tolerances the tests pin: between Sigma arrangements, and RGF against dense.
ARRANGEMENT_TOL = 1e-10
RGF_TOL = 1e-8
# A negative tolerance never stops the loop early.  One iteration per repeat:
# the dense oracle costs about 10 s per pass on gf-long (bench/NOTES.md).
NEVER_CONVERGED = -1.0
LOOP_ITERATIONS = 1
SEED_SCALE = 0.1
ZGEMM_WINDOW_S = 0.1
# Set-up repeats: at least SETUP_MIN, more while the next still fits in SETUP_SECONDS.
SETUP_MIN = 3
SETUP_SECONDS = 3.0
# Partition at which the loop workloads report the comm model's bytes per SSE step.
COMM_PROCESSES = 8
COMM_TILES = (2, 4)
# Paper's transformation chain, in order; the first is the speed-up base.
CHAIN = ("REFERENCE", "FISSIONED", "REDUNDANCY_REMOVED", "LAYOUT_TRANSFORMED", "BATCHED_FUSED")
UNHOISTED_PI_PAIRS = ("REFERENCE", "FISSIONED")

# distsim's ranks run this Sigma arrangement (and the hoisted Pi).
DISTSIM_RANK_VARIANT = SseVariant.REFERENCE
SMALL = SimParams(n_kz=3, n_qz=2, n_E=8, n_w=2, n_A=32, n_B=4, n_orb=2, bnum=4)
NULL = NullTracer()


# ---------------------------------------------------------------- helpers


def _rel_dev(got, want) -> float:
    """Max |got - want| over max |want| across the lesser/greater pair; inf if not finite."""
    scale = max(float(np.max(np.abs(want.lesser))), float(np.max(np.abs(want.greater))), 1e-300)
    diff = max(float(np.max(np.abs(got.lesser - want.lesser))), float(np.max(np.abs(got.greater - want.greater))))
    return diff / scale if math.isfinite(diff) else math.inf


def _finite(pair) -> bool:
    return bool(np.all(np.isfinite(pair.lesser)) and np.all(np.isfinite(pair.greater)))


def _random_pair(rng, shape) -> GreensTensor:
    def rand():
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return GreensTensor(rand(), rand())


def _default(func, parameter: str):
    return inspect.signature(func).parameters[parameter].default


def other_variant(used: SseVariant) -> SseVariant:
    """A Sigma arrangement other than ``used``, so that an oracle does not rerun the code it checks."""
    return SseVariant.REFERENCE if used is SseVariant.BATCHED_FUSED else SseVariant.BATCHED_FUSED


def _more(times: list[float], budget: float, minimum: int = 1) -> bool:
    """Whether to repeat again: fewer than ``minimum`` so far, or one more as long as the last fits in ``budget``."""
    return len(times) < minimum or sum(times) + times[-1] <= budget


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _stats(values: list[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered),
            "min": ordered[0], "max": ordered[-1]}


def ledger_rows(ledger, plan):
    """Ledger bytes against the comm model, per rank and per comm tag.

    Yields ``(rank, tag, ledger_bytes, model_bytes)``.  comm counts the
    phonon pair as one term, so the ledger's D broadcast (received) and Pi
    reduction (sent) are summed for it; electron G is received and electron
    Sigma sent, as the model attributes them.
    """
    for rank in range(plan.processes):
        got = {
            comm.ELECTRON_G: ledger.bytes_received(rank, distsim.ELECTRON_G),
            comm.ELECTRON_SIGMA: ledger.bytes_sent(rank, distsim.ELECTRON_SIGMA),
            comm.PHONON_D_PI: ledger.bytes_received(rank, distsim.PHONON_D)
            + ledger.bytes_sent(rank, distsim.PHONON_PI),
        }
        for tag, model in plan.per_process_bytes.items():
            yield rank, tag, got[tag], model


def model_gap(ledger, plan) -> float:
    """Largest relative ledger-vs-model difference over ranks and tags."""
    worst = 0.0
    for _, _, got, model in ledger_rows(ledger, plan):
        if model:
            worst = max(worst, abs(got - model) / model)
        elif got:
            worst = math.inf
    return worst


def check_ledger(scheme: str, ledger, plan) -> list[str]:
    problems = [
        f"{scheme} ledger rank {rank} {tag}: {got} bytes vs model {model}"
        for rank, tag, got, model in ledger_rows(ledger, plan)
        if got != model
    ]
    if ledger.total_bytes() != plan.total_bytes:
        problems.append(f"{scheme} ledger total {ledger.total_bytes()} vs model {plan.total_bytes}")
    return problems


def check_distributed(scheme: str, sigma, pi, ref_sigma, ref_pi) -> list[str]:
    problems = []
    for name, got, want in (("Sigma", sigma, ref_sigma), ("Pi", pi, ref_pi)):
        deviation = _rel_dev(got, want)
        if not deviation <= ARRANGEMENT_TOL:
            problems.append(f"{scheme} {name} deviates from single node by {deviation:.3e}")
    return problems


def comm_plans(params: SimParams, processes: int, tiles: tuple[int, int]):
    return comm.omen_volume(params, processes), comm.dace_volume(params, *tiles)


# ---------------------------------------------------------------- workloads


@dataclass
class LoopCase:
    dev: object
    nmap: object
    grid: object
    sigma0: object
    pi0: object
    g_first: GreensTensor
    d_first: GreensTensor


@dataclass(frozen=True)
class LoopWorkload:
    """Seeded GF/SSE loop run for a fixed number of iterations.

    ``solver=None`` leaves the loop's default solver (and variant) in place,
    which is what ``negflow simulate`` runs without ``--solver/--variant``.
    """

    name: str
    params: SimParams
    layer: str
    solver: str | None = None

    def record(self) -> dict:
        return {"name": self.name, "kind": "loop", "params": self.params.to_dict(), "iterations": LOOP_ITERATIONS,
                "solver": self.solver or "loop default", "variant": "loop default",
                "seeded_scale": SEED_SCALE, "seed_drives": "synthesize", "layer": self.layer}

    def _solver_kw(self) -> dict:
        return {} if self.solver is None else {"solver": self.solver}

    def tolerance(self) -> float:
        return ARRANGEMENT_TOL if (self.solver or _default(sse.self_consistent_loop, "solver")) == "dense" else RGF_TOL

    def setup(self, seed: int, tr) -> LoopCase:
        """Device synthesis, grid, seeded self-energies and one warm-up GF pass."""
        with tr.span("device.synthesize"):
            dev, nmap = synthesize(self.params, seed)
        grid = default_grid(self.params)
        sigma0, pi0 = sse.seeded_self_energies(self.params, SEED_SCALE)
        with tr.span("bench.warmup"):
            g_first, d_first = gf.gf_phase(dev, sigma0, pi0, self.params, grid, nmap, **self._solver_kw())
        return LoopCase(dev, nmap, grid, sigma0, pi0, g_first, d_first)

    def body(self, case: LoopCase, tr):
        with tr.span("loop"):
            return sse.self_consistent_loop(
                case.dev, case.nmap, self.params, case.grid,
                max_iter=LOOP_ITERATIONS, tol=NEVER_CONVERGED,
                initial_sigma=case.sigma0, initial_pi=case.pi0, **self._solver_kw(),
            )

    def step_interval(self, out, start: float, end: float) -> tuple[float, float]:
        return start, end

    def oracle(self, case: LoopCase) -> tuple:
        """One loop iteration rebuilt from other code than the timed loop runs.

        Dense GF phase, then a Sigma arrangement other than the loop's and
        the Pi form other than the loop's (unhoisted where the loop hoists).
        """
        g, d = gf.gf_phase(case.dev, case.sigma0, case.pi0, self.params, case.grid, case.nmap, solver="dense")
        dc = sse.preprocess_D(d, case.nmap)
        variant = other_variant(_default(sse.self_consistent_loop, "variant"))
        sigma = sse.sse_sigma(variant, g, dc, case.dev.dH, case.nmap, case.grid)
        pi = sse.sse_pi(g, case.dev.dH, case.nmap, case.grid, self.params.n_qz,
                        hoist_invariant=not _default(sse.sse_pi, "hoist_invariant"))
        return g, d, sigma, pi

    def check(self, out, case: LoopCase, oracle) -> list[str]:
        problems = []
        if not all(math.isfinite(x) for x in out.deltas + out.abs_deltas):
            problems.append("loop deltas are not finite")
        tol = self.tolerance()
        for name, got, want in zip(("G", "D", "Sigma", "Pi"), (out.g_electron, out.g_phonon, out.sigma, out.pi), oracle):
            if not _finite(got):
                problems.append(f"loop {name} has non-finite entries")
                continue
            deviation = _rel_dev(got, want)
            if not deviation <= tol:
                problems.append(f"loop {name} deviates from the oracle by {deviation:.3e} > {tol:g}")
        return problems

    def bytes_per_step(self, out) -> tuple[float, float]:
        omen, tiled = comm_plans(self.params, COMM_PROCESSES, COMM_TILES)
        return omen.total_bytes, tiled.total_bytes

    def chain_input(self, case: LoopCase):
        return self.params, case.g_first, case.d_first, case.dev.dH, case.nmap, case.grid

    def single_node_s(self, setup_summary: dict) -> float:
        return 0.0

    def traced_extras(self, seed: int) -> tuple[dict, list[str]]:
        return {"distsim.model_gap_uneven": 0.0, "distsim.idle_ranks_uneven": 0}, []


@dataclass
class DistCase:
    params: SimParams
    dh: object
    nmap: object
    grid: object
    g: GreensTensor
    d: GreensTensor


@dataclass
class DistOut:
    omen: tuple
    tiled: tuple
    volumes: dict
    graph: object
    plans: tuple
    step: tuple[float, float]  # perf_counter bounds of the two schemes


@dataclass(frozen=True)
class DistsimWorkload:
    """Simulated distributed SSE under both schemes, plus the dataflow and comm volume models."""

    name: str
    params: SimParams
    layer: str
    processes: int
    tiles: tuple[int, int]
    uneven: tuple[SimParams, int, tuple[int, int]]

    def record(self) -> dict:
        uneven_params, uneven_p, uneven_tiles = self.uneven
        return {"name": self.name, "kind": "distsim", "params": self.params.to_dict(), "P": self.processes,
                "T_E": self.tiles[0], "T_A": self.tiles[1], "seed_drives": "synthesize and the random G/D",
                "uneven_traced": {"params": uneven_params.to_dict(), "P": uneven_p,
                                  "T_E": uneven_tiles[0], "T_A": uneven_tiles[1]},
                "layer": self.layer}

    def setup(self, seed: int, tr, params: SimParams | None = None) -> DistCase:
        """Device synthesis, grid, random G/D, and the single-node kernels the ranks run.

        The single-node Sigma/Pi warm those kernels, and their time is the
        base of ``distsim.work_ratio``.
        """
        params = params or self.params
        with tr.span("device.synthesize"):
            dev, nmap = synthesize(params, seed)
        grid = default_grid(params)
        rng = np.random.default_rng(seed)
        g = _random_pair(rng, params.electron_shape)
        d = _random_pair(rng, params.phonon_shape)
        with tr.span("sse.single_node"):
            dc = sse.preprocess_D(d, nmap)
            sse.sse_sigma(DISTSIM_RANK_VARIANT, g, dc, dev.dH, nmap, grid)
            sse.sse_pi(g, dev.dH, nmap, grid, params.n_qz)
        return DistCase(params, dev.dH, nmap, grid, g, d)

    def _schemes(self, case: DistCase, params: SimParams, processes: int, tiles, tr):
        with tr.span("distsim.omen"):
            omen = distsim.run_omen_scheme(case.g, case.d, case.dh, case.nmap, case.grid, params, processes)
        with tr.span("distsim.tiled"):
            tiled = distsim.run_tiled_scheme(case.g, case.d, case.dh, case.nmap, case.grid, params, *tiles)
        return omen, tiled

    def body(self, case: DistCase, tr) -> DistOut:
        # Imported here, not at the top, so the loop workloads' peak RSS carries no sympy.
        import sympy

        from negflow import dataflow

        t0 = time.perf_counter()
        omen, tiled = self._schemes(case, self.params, self.processes, self.tiles, tr)
        step = (t0, time.perf_counter())
        # Each repeat sees sympy as a fresh process would, not warmed by the previous repeat.
        sympy.core.cache.clear_cache()
        with tr.span("dataflow.graph"):
            graph = dataflow.build_sse_graph()
        with tr.span("dataflow.volume"):
            volumes = dataflow.volume_between_maps(graph.outer, graph.graph)
        with tr.span("comm.model"):
            plans = comm_plans(self.params, self.processes, self.tiles)
        return DistOut(omen, tiled, volumes, graph, plans, step)

    def step_interval(self, out: DistOut, start: float, end: float) -> tuple[float, float]:
        return out.step

    def oracle(self, case: DistCase) -> tuple:
        """Single-node Sigma/Pi from another arrangement and the unhoisted Pi than the ranks run."""
        dc = sse.preprocess_D(case.d, case.nmap)
        sigma = sse.sse_sigma(other_variant(DISTSIM_RANK_VARIANT), case.g, dc, case.dh, case.nmap, case.grid)
        pi = sse.sse_pi(case.g, case.dh, case.nmap, case.grid, case.params.n_qz, hoist_invariant=False)
        return sigma, pi

    def _volume_problems(self, out: DistOut) -> list[str]:
        """The symbolic boundary volumes, at this workload's sizes, must equal the comm model exactly."""
        import sympy

        p, sym = self.params, out.graph.symbols
        subs = {sym["N_kz"]: p.n_kz, sym["N_E"]: p.n_E, sym["N_qz"]: p.n_qz, sym["N_w"]: p.n_w,
                sym["N_A"]: p.n_A, sym["N_B"]: p.n_B, sym["N_orb"]: p.n_orb, sym["N_3D"]: p.n_3D,
                sym["s_E"]: sympy.Rational(p.n_E, self.tiles[0]), sym["s_A"]: sympy.Rational(p.n_A, self.tiles[1])}
        subs.update({s: 0 for s in out.graph.outer.symbols})
        per_process = out.plans[1].per_process_bytes
        pairs = (
            (("G_lesser", "G_greater", "Sigma_lesser", "Sigma_greater"),
             per_process[comm.ELECTRON_G] + per_process[comm.ELECTRON_SIGMA]),
            (("D_lesser", "D_greater", "Pi_lesser", "Pi_greater"), per_process[comm.PHONON_D_PI]),
        )
        problems = []
        for arrays, model in pairs:
            volume = sum(out.volumes[a].subs(subs) for a in arrays)
            if volume != sympy.Rational(model):
                problems.append(f"dataflow volume of {'/'.join(arrays)} is {volume}, comm model {model}")
        return problems

    def check(self, out: DistOut, case: DistCase, oracle) -> list[str]:
        problems = []
        for scheme, (sigma, pi, ledger), plan in (("omen", out.omen, out.plans[0]), ("tiled", out.tiled, out.plans[1])):
            problems += check_distributed(scheme, sigma, pi, *oracle)
            problems += check_ledger(scheme, ledger, plan)
        return problems + self._volume_problems(out)

    def bytes_per_step(self, out: DistOut) -> tuple[float, float]:
        return out.omen[2].total_bytes(), out.tiled[2].total_bytes()

    def chain_input(self, case: DistCase):
        return self.params, case.g, case.d, case.dh, case.nmap, case.grid

    def single_node_s(self, setup_summary: dict) -> float:
        return setup_summary.get("sse.single_node", {}).get("total_s", 0.0)

    def traced_extras(self, seed: int) -> tuple[dict, list[str]]:
        """The uneven partition (ROADMAP 5c), recorded as numbers: model gap and idle omen ranks."""
        params, processes, tiles = self.uneven
        case = self.setup(seed, NULL, params=params)
        omen, tiled = self._schemes(case, params, processes, tiles, NULL)
        omen_plan, tiled_plan = comm_plans(params, processes, tiles)
        oracle = self.oracle(case)
        problems = check_distributed("uneven omen", omen[0], omen[1], *oracle)
        problems += check_distributed("uneven tiled", tiled[0], tiled[1], *oracle)
        idle = sum(1 for rank in range(processes) if omen[2].bytes_received(rank, distsim.ELECTRON_G) == 0)
        gap = max(model_gap(omen[2], omen_plan), model_gap(tiled[2], tiled_plan))
        return {"distsim.model_gap_uneven": gap, "distsim.idle_ranks_uneven": idle}, problems


WORKLOADS = {
    w.name: w
    for w in (
        LoopWorkload(
            name="sse-desk32",
            params=SimParams(n_kz=3, n_qz=2, n_E=64, n_w=8, n_A=32, n_B=4, n_orb=4, bnum=4, eta=0.05),
            layer="sse",
        ),
        LoopWorkload(
            name="gf-long",
            params=SimParams(n_kz=3, n_qz=1, n_E=32, n_w=2, n_A=128, n_B=2, n_orb=4, bnum=16, eta=0.05),
            layer="gf",
            solver="rgf",
        ),
        DistsimWorkload(
            name="distsim-p8",
            params=SMALL.replace(n_E=16, n_w=4),
            layer="distsim, comm, dataflow",
            processes=8,
            tiles=(2, 4),
            uneven=(SMALL, 16, (4, 4)),
        ),
    )
}


# ---------------------------------------------------------------- environment


def zgemm_ceiling(params: SimParams) -> dict[str, float]:
    """Warmed ZGEMM GF/s at the shapes the kernels run, and their maximum.

    ``batched``: the n_orb-class GEMMs over the (k_z, E) batch; ``tall``: the
    (n_kz n_E n_orb) x n_orb stage-1 GEMM; ``512``: a GF-class square GEMM.
    Each shape is warmed, then timed in three windows of at least
    ``ZGEMM_WINDOW_S``; the best window counts.
    """
    rng = np.random.default_rng(0)
    o, batch = params.n_orb, params.n_kz * params.n_E

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    shapes = {
        "batched": (cplx(batch, o, o), cplx(o, o), batch * o**3),
        "tall": (cplx(batch * o, o), cplx(o, o), batch * o**3),
        "512": (cplx(512, 512), cplx(512, 512), 512**3),
    }
    out = {}
    for label, (a, b, cmuladds) in shapes.items():
        for _ in range(3):
            np.matmul(a, b)
        best = 0.0
        for _ in range(3):
            calls, t0 = 0, time.perf_counter()
            while (elapsed := time.perf_counter() - t0) < ZGEMM_WINDOW_S:
                np.matmul(a, b)
                calls += 1
            best = max(best, FLOPS_PER_CMULADD * cmuladds * calls / elapsed / 1e9)
        out[f"env.zgemm_{label}_gflops"] = best
    out["env.zgemm_gflops"] = max(out.values())
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "machine": platform.machine(),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = benchmark_spec()
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------- timed run


def cold_setup_seconds(wl, seed: int) -> float:
    """Seconds of one set-up in a fresh process, which is what a CLI invocation pays."""
    argv = ["--workload", wl.name, "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True, check=True)
    return float(proc.stdout.splitlines()[-1])


def timed_setup(wl, seed: int):
    """The workload's set-up and its seconds at the reference host speed, timed in this process."""
    clock = HostClock()
    with clock.running():
        t0 = time.perf_counter()
        case = wl.setup(seed, NULL)
        t1 = time.perf_counter()
    return case, clock.scaled(t0, t1)


def run_timed(wl, seed: int, seconds: float) -> dict:
    """Cold set-ups, then the timed body repeated for at most ``seconds`` (at least once).

    Every set-up sample is the first of its process: this process's own, then
    more in fresh processes while they fit in ``SETUP_SECONDS`` (at least
    ``SETUP_MIN``).  Peak RSS is read after the first repeat, before the
    oracle runs, so it covers set-up plus one body.  Every repeat is checked;
    a repeat whose check fails is counted as failed and still timed.  A
    repeat that raises is counted as failed and has no time.  Set-ups and
    repeats are timed with a ``HostClock``: the metrics are seconds at the
    reference host speed, and the record keeps the unscaled wall seconds and
    the sampled host speed beside them.
    """
    case, first = timed_setup(wl, seed)
    setup_s = [first]
    while _more(setup_s, SETUP_SECONDS, SETUP_MIN):
        setup_s.append(cold_setup_seconds(wl, seed))

    wall, step, unscaled, speed, spent, problems = [], [], [], [], [], []
    failed = 0
    peak = oracle = bytes_step = None
    while _more(spent, seconds):
        t0 = time.perf_counter()
        clock = HostClock()
        try:
            with clock.running():
                start = time.perf_counter()
                out = wl.body(case, NULL)
                end = time.perf_counter()
            elapsed = end - start
            if peak is None:
                peak = _peak_rss_mb()
            if oracle is None:
                oracle = wl.oracle(case)
            found = wl.check(out, case, oracle)
        except Exception:  # a failed repeat is a counted result, not a crash
            spent.append(time.perf_counter() - t0)
            failed += 1
            problems.append(traceback.format_exc(limit=3))
            continue
        spent.append(elapsed)
        failed += bool(found)
        problems += found
        wall.append(clock.scaled(start, end))
        step.append(clock.scaled(*wl.step_interval(out, start, end)))
        unscaled.append(elapsed)
        speed.append(clock.speed(start, end))
        bytes_step = wl.bytes_per_step(out)

    samples = {"iter_s": step, "wall_s": wall, "setup_s": setup_s,
               "wall_s.unscaled": unscaled, "host_speed": speed}
    stats = {name: _stats(values) for name, values in samples.items() if values}
    metrics = {name: stats[name]["median"] for name in ("iter_s", "wall_s", "setup_s") if name in stats}
    metrics["peak_rss_mb"] = peak if peak is not None else _peak_rss_mb()
    attempted = len(spent)
    metrics["ok_frac"] = 1.0 - failed / attempted
    if bytes_step is not None:
        metrics["bytes_omen"], metrics["bytes_tiled"] = bytes_step
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "stats": stats, "problems": problems}


# ---------------------------------------------------------------- traced run


def trace_targets(counter: FlopCounter):
    """Module attributes through which the library looks up the functions spanned."""
    inject = {"counter": counter}
    return [
        (sse, "gf_phase", "gf.phase", None),
        (sse, "preprocess_D", "sse.preprocess", None),
        (sse, "sse_sigma", "sse.sigma", inject),
        (sse, "sse_pi", "sse.pi", inject),
        (gf, "solve_point_dense", "gf.electron", None),
        (gf, "solve_point_rgf", "gf.electron", None),
        (gf, "solve_phonon_point", "gf.phonon", None),
        (distsim, "preprocess_D", "distsim.preprocess", None),
        (distsim, "sse_sigma", "distsim.kernel", None),
        (distsim, "sse_pi_chains", "distsim.kernel", None),
    ]


def layer_metrics(params: SimParams, summary: dict, counter: FlopCounter) -> dict[str, float]:
    """Per-layer numbers of one traced body from its span summary and flop counter."""

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def count(name):
        return summary.get(name, {}).get("count", 0)

    sigma_cm = sum(v for k, v in counter.stages.items() if k.startswith("sigma"))
    pi_cm = sum(v for k, v in counter.stages.items() if k.startswith("pi"))
    sse_evals = count("sse.sigma")
    return {
        "trace.wall_s": total("bench.body"),
        "gf.phase_s": total("gf.phase"),
        "gf.electron_s": total("gf.electron"),
        "gf.phonon_s": total("gf.phonon"),
        "gf.points": count("gf.electron") + count("gf.phonon"),
        "gf.self_s": own("gf.phase"),
        "sse.preprocess_s": total("sse.preprocess"),
        "sse.sigma_s": total("sse.sigma"),
        "sse.pi_s": total("sse.pi"),
        "sse.sigma_cmuladds": sigma_cm,
        "sse.pi_cmuladds": pi_cm,
        "sse.sigma_gflops": FLOPS_PER_CMULADD * sigma_cm / total("sse.sigma") / 1e9 if sigma_cm else 0.0,
        "sse.pi_gflops": FLOPS_PER_CMULADD * pi_cm / total("sse.pi") / 1e9 if pi_cm else 0.0,
        "sse.redundancy": (FLOPS_PER_CMULADD * (sigma_cm + pi_cm) / sse_evals / sse_flops_dace(params)
                           if sse_evals else 0.0),
        "dataflow.graph_s": total("dataflow.graph"),
        "dataflow.volume_s": total("dataflow.volume"),
        "comm.model_s": total("comm.model"),
        "distsim.omen_s": total("distsim.omen"),
        "distsim.tiled_s": total("distsim.tiled"),
        "distsim.kernel_s": total("distsim.kernel"),
        "distsim.kernel_calls": count("distsim.kernel"),
        "distsim.ledger_s": own("distsim.omen") + own("distsim.tiled"),
    }


def sse_chain(params, g, d, dh, nmap, grid) -> tuple[dict, list[str]]:
    """Time every Sigma arrangement and both Pi forms; check counted flops against the closed forms.

    REFERENCE and FISSIONED pair with the unhoisted Pi (``sse_flops_omen``),
    the redundancy-free arrangements with the hoisted one (``sse_flops_dace``).
    """
    metrics, problems = {}, []
    dc = sse.preprocess_D(d, nmap)
    pi_flops = {}
    for hoist, label in ((False, "unhoisted"), (True, "hoisted")):
        counter = FlopCounter()
        t0 = time.perf_counter()
        sse.sse_pi(g, dh, nmap, grid, params.n_qz, counter=counter, hoist_invariant=hoist)
        metrics[f"sse.pi.{label}_s"] = time.perf_counter() - t0
        pi_flops[label] = counter.flops()
    metrics["sse.pi.hoist_speedup"] = metrics["sse.pi.unhoisted_s"] / metrics["sse.pi.hoisted_s"]
    for name in CHAIN:
        counter = FlopCounter()
        t0 = time.perf_counter()
        sse.sse_sigma(SseVariant[name], g, dc, dh, nmap, grid, counter=counter)
        metrics[f"sse.sigma.{name.lower()}_s"] = time.perf_counter() - t0
        if name in UNHOISTED_PI_PAIRS:
            counted, model, form = counter.flops() + pi_flops["unhoisted"], sse_flops_omen(params), "omen"
        else:
            counted, model, form = counter.flops() + pi_flops["hoisted"], sse_flops_dace(params), "dace"
        if counted != model:
            problems.append(f"{name} counted {counted} flops, closed form {form} gives {model}")
    base = metrics["sse.sigma.reference_s"]
    for name in CHAIN[1:]:
        metrics[f"sse.sigma.{name.lower()}_speedup"] = base / metrics[f"sse.sigma.{name.lower()}_s"]
    return metrics, problems


def run_traced(wl, seed: int, seconds: float) -> dict:
    """Traced run: per-layer medians over traced bodies, alternated with untraced ones."""
    tr = Tracer()
    setups, setup_s, case = [], [], None
    while _more(setup_s, SETUP_SECONDS, SETUP_MIN):
        case = None
        mark = len(tr.spans)
        with tr.span("bench.setup"):
            case = wl.setup(seed, tr)
        setups.append(tr.summary(mark))
        setup_s.append(setups[-1]["bench.setup"]["total_s"])
    attempted = failed = 0
    oracle = last = None
    problems, untraced, traced, spent = [], [], [], []
    while _more(spent, seconds):
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = wl.body(case, NULL)
            untraced_s = time.perf_counter() - t0
            counter = FlopCounter()
            mark = len(tr.spans)
            with tr.patched(trace_targets(counter)), tr.span("bench.body"):
                last = wl.body(case, tr)
            spent_s = time.perf_counter() - t0
            if oracle is None:
                oracle = wl.oracle(case)
            found = wl.check(out, case, oracle) + wl.check(last, case, oracle)
        except Exception:  # a failed repeat is a counted result, not a crash
            spent_s = time.perf_counter() - t0
            found = [traceback.format_exc(limit=3)]
        else:
            untraced.append(untraced_s)
            traced.append(layer_metrics(wl.params, tr.summary(mark), counter))
        spent.append(spent_s)
        failed += bool(found)
        problems += found

    metrics = zgemm_ceiling(wl.params)
    metrics["flops.model_omen"] = sse_flops_omen(wl.params)
    metrics["flops.model_dace"] = sse_flops_dace(wl.params)
    omen_plan, tiled_plan = comm_plans(wl.params, COMM_PROCESSES, COMM_TILES)
    metrics["comm.model_bytes_omen"] = omen_plan.total_bytes
    metrics["comm.model_bytes_tiled"] = tiled_plan.total_bytes
    metrics["device.synthesize_s"] = statistics.median(s["device.synthesize"]["total_s"] for s in setups)
    if traced:
        metrics.update({name: statistics.median(m[name] for m in traced) for name in traced[0]})
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
        single = statistics.median(wl.single_node_s(s) for s in setups)
        metrics["distsim.work_ratio"] = metrics["distsim.kernel_s"] / 2 / single if single else 0.0
        sse_s = metrics["sse.sigma_s"] + metrics["sse.pi_s"]
        sse_cmuladds = metrics["sse.sigma_cmuladds"] + metrics["sse.pi_cmuladds"]
        sse_gflops = FLOPS_PER_CMULADD * sse_cmuladds / sse_s / 1e9 if sse_s else 0.0
        metrics["sse.peak_frac"] = sse_gflops / metrics["env.zgemm_gflops"]
        if isinstance(last, DistOut):
            metrics["distsim.messages_omen"] = len(last.omen[2].entries)
            metrics["distsim.messages_tiled"] = len(last.tiled[2].entries)
            metrics["distsim.model_gap"] = max(model_gap(last.omen[2], last.plans[0]),
                                               model_gap(last.tiled[2], last.plans[1]))
        else:
            metrics.update({"distsim.messages_omen": 0, "distsim.messages_tiled": 0, "distsim.model_gap": 0.0})

    # The chain and the uneven case run after the bodies, so their memory does not shape them.
    for extra in (lambda: sse_chain(*wl.chain_input(case)), lambda: wl.traced_extras(seed)):
        attempted += 1
        try:
            values, found = extra()
            metrics.update(values)
        except Exception:
            found = [traceback.format_exc(limit=3)]
        failed += bool(found)
        problems += found

    return {"attempted": attempted, "failed": failed, "metrics": metrics, "problems": problems,
            "spans": tr.spans, "span_summary": tr.summary()}


# ---------------------------------------------------------------- entry point


def run(wl, seed: int, seconds: float, trace: bool) -> dict:
    """One run of workload ``wl``: the result object, the record for bench/results, and the spans."""
    result = run_traced(wl, seed, seconds) if trace else run_timed(wl, seed, seconds)
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    missing = sorted(set(declared) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(declared))
    # A failed run may lack metrics that only a passing repeat yields; they read NaN.
    if extra or (missing and not result["failed"]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    metrics = {name: {"value": float(result["metrics"].get(name, math.nan)), "unit": unit}
               for name, unit in declared.items()}
    why = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}
    record = {
        "workload": {**wl.record(), "why": why.get(wl.name)},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "stats": result.get("stats", {}),
        "fail_frac": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "span_summary": result.get("span_summary", {}),
    }
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"],
             "metrics": metrics}
    return {"final": final, "record": record, "spans": result.get("spans")}


def _write_results(name: str, outcome: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / name
    record = {**outcome["record"], "result": outcome["final"]}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    if outcome["spans"] is not None:
        Path(f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": outcome["spans"]}) + "\n",
            encoding="utf-8")


def _print_table(outcome: dict) -> None:
    record, final = outcome["record"], outcome["final"]
    print(f"workload: {json.dumps(record['workload'])}")
    print(f"environment: {json.dumps(record['environment'], default=str)}")
    for name, metric in final["metrics"].items():
        s = record["stats"].get(name)
        spread = f"  [q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, n={s['n']}]" if s else ""
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}{spread}")
    for name, s in record["stats"].items():
        if name not in final["metrics"]:
            print(f"{name:34s} {s['median']:>16.6g}  [q1 {s['q1']:.4g}, q3 {s['q3']:.4g}, n={s['n']}]")
    print(f"{'fail_frac':34s} {record['fail_frac']:>16.6g} frac  "
          f"[{final['failed']} of {final['attempted']} failed]")
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process, one after another, then one summary table."""
    finals = {}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        finals[name] = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    print(f"\n{'metric':34s}" + "".join(f"{name:>16s}" for name in finals))
    for metric, unit in declared_metrics()["per_layer" if trace else "end_to_end"].items():
        values = [final["metrics"][metric]["value"] if final else math.nan for final in finals.values()]
        print(f"{metric + ' [' + unit + ']':34s}" + "".join(f"{v:>16.6g}" for v in values))
    fail_fracs = [final["failed"] / final["attempted"] if final else math.nan for final in finals.values()]
    print(f"{'fail_frac [frac]':34s}" + "".join(f"{v:>16.6g}" for v in fail_fracs))
    return 0 if all(final and final["correct"] for final in finals.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="a workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed repeats run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of the workload in this process and print its seconds")
    args = parser.parse_args(argv)
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only takes a single workload")
        print(timed_setup(WORKLOADS[args.workload], args.seed)[1])
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    outcome = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    _write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}", outcome)
    _print_table(outcome)
    print(json.dumps(outcome["final"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
