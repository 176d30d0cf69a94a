"""Closed-form SSE communication-volume models and the tile-size search.

The one source of each message's size, tag and footprint: a message moves a
lesser/greater pair (``PAIR_BYTES`` per element) as an electron column or a
phonon slice, for a tiled rank over :func:`tiled_atoms`, the paper's tile +
N_B rectangle (odd N_B too), which the IR's ``neighbor_indirection`` derives.
The closed forms are message counts times these units; ``distsim`` counts its
own messages and takes each entry's size and tag from here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .params import SimParams

TIB = 2**40
PAIR_BYTES = 32  # lesser + greater, 16-byte complex each

ELECTRON_G = "electron_G"
ELECTRON_SIGMA = "electron_Sigma"
PHONON_D = "phonon_D"
PHONON_PI = "phonon_Pi"
PHONON_D_PI = "phonon_D_Pi"  # the models' sum of D received and Pi sent


class InfeasiblePartitionError(ValueError):
    """No factorization of the process count fits the tensor extents."""


@dataclass(frozen=True)
class CommPlan:
    """One evaluated decomposition: partition choice plus its byte breakdown.

    ``scheme`` is ``"omen"`` (momentum/energy) or ``"tiled"`` (all-to-all).
    """

    scheme: str
    processes: int
    t_e: int | None
    t_a: int | None
    per_process_bytes: dict[str, float]
    total_bytes: float

    @property
    def total_tib(self) -> float:
        return self.total_bytes / TIB

    def row(self) -> dict:
        return {
            "scheme": self.scheme,
            "P": self.processes,
            "T_E": self.t_e if self.t_e is not None else "",
            "T_A": self.t_a if self.t_a is not None else "",
            "bytes_G": self.per_process_bytes[ELECTRON_G] + self.per_process_bytes[ELECTRON_SIGMA],
            "bytes_D_Pi": self.per_process_bytes[PHONON_D_PI],
            "total_TiB": self.total_tib,
        }


def electron_column_bytes(params: SimParams, atoms: float) -> float:
    """Electron pair bytes over ``atoms`` atom blocks; one message is one (k_z, E) point's column."""
    return PAIR_BYTES * atoms * params.n_orb**2


def phonon_slice_bytes(params: SimParams, atoms: float) -> float:
    """Phonon pair bytes over ``atoms`` atoms x N_B slots; one message is one (q_z, omega) round's slice."""
    return PAIR_BYTES * atoms * params.n_B * params.n_3D**2


def tiled_atoms(params: SimParams, tile: float) -> float:
    """Atoms a tiled rank's messages span: its tile plus N_B, for odd N_B too."""
    return tile + params.n_B


def omen_volume(params: SimParams, processes: int) -> CommPlan:
    """Per-process and aggregate bytes of the momentum/energy scheme.

    Every (q_z, omega) round each (k_z, E) point receives two shifted electron
    columns of all N_A atoms; each process receives D and sends Pi slices.
    """
    if processes < 1:
        raise ValueError("process count must be >= 1")
    rounds = params.n_qz * params.n_w
    g_aggregate = float(electron_column_bytes(params, 2 * params.n_kz * params.n_E * rounds * params.n_A))
    d_per_process = float(phonon_slice_bytes(params, 2 * rounds * params.n_A))
    per_process = {ELECTRON_G: g_aggregate / processes, ELECTRON_SIGMA: 0.0, PHONON_D_PI: d_per_process}
    total = g_aggregate + processes * d_per_process
    return CommPlan("omen", processes, None, None, per_process, total)


def dace_volume(params: SimParams, t_e: int, t_a: int) -> CommPlan:
    """Per-process and aggregate bytes of the tiled all-to-all scheme.

    Per process: N_kz (N_E/T_E + 2 N_w) electron columns in and as many Sigma
    columns out, N_qz N_w D slices in and Pi slices out, over N_A/T_A + N_B
    atoms.  Counts multiply the atoms inside the units to keep the rounding.
    """
    if t_e < 1 or t_a < 1:
        raise ValueError("partition counts must be >= 1")
    atoms = tiled_atoms(params, params.n_A / t_a)
    g_half = float(electron_column_bytes(params, params.n_kz * (params.n_E / t_e + 2 * params.n_w) * atoms))
    d_per_process = float(phonon_slice_bytes(params, 2 * params.n_qz * params.n_w * atoms))
    per_process = {ELECTRON_G: g_half, ELECTRON_SIGMA: g_half, PHONON_D_PI: d_per_process}
    processes = t_e * t_a
    total = processes * (2 * g_half + d_per_process)
    return CommPlan("tiled", processes, t_e, t_a, per_process, total)


def factor_pairs(processes: int) -> list[tuple[int, int]]:
    pairs = []
    for t_e in range(1, processes + 1):
        if processes % t_e == 0:
            pairs.append((t_e, processes // t_e))
    return pairs


def optimize_tiles(params: SimParams, processes: int) -> CommPlan:
    """Exhaustive search over factor pairs T_E * T_A = P minimizing total bytes.

    Feasible pairs satisfy T_E <= N_E and T_A <= N_A.  Ties break toward the
    smallest T_A, then the smallest T_E.
    """
    if processes < 1:
        raise ValueError("process count must be >= 1")
    best: CommPlan | None = None
    candidates = sorted(factor_pairs(processes), key=lambda p: (p[1], p[0]))
    for t_e, t_a in candidates:
        if t_e > params.n_E or t_a > params.n_A:
            continue
        plan = dace_volume(params, t_e, t_a)
        if best is None or plan.total_bytes < best.total_bytes:
            best = plan
    if best is None:
        raise InfeasiblePartitionError(
            f"no factorization of P={processes} with T_E <= {params.n_E} and T_A <= {params.n_A}"
        )
    return best


def plan_report(params: SimParams, process_counts: list[int]) -> list[dict]:
    """Rows for the CLI: per process count, both schemes plus the optimizer.

    Includes the fixed tiling T_E = N_kz, T_A = P / N_kz whenever it divides,
    alongside the optimizer's pick, so both reproductions are on record.
    """
    rows: list[dict] = []
    for p in process_counts:
        omen = omen_volume(params, p)
        rows.append({**omen.row(), "choice": "model"})
        opt = optimize_tiles(params, p)
        rows.append({**opt.row(), "choice": "optimizer"})
        if p % params.n_kz == 0 and params.n_kz <= params.n_E and p // params.n_kz <= params.n_A:
            fixed = dace_volume(params, params.n_kz, p // params.n_kz)
            rows.append({**fixed.row(), "choice": "T_E=N_kz"})
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
