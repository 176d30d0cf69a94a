"""Deterministic simulated multi-rank execution of the SSE exchange.

Ranks are plain loop iterations over an in-memory exchange table: no real
transport, bitwise reproducibility, and a ledger recording every simulated
message.  A rank is what it owns.  Every partition is an integer owner grid
built from ceil chunks (:func:`_owners`): over (k_z, E) it names the source
of each electron block, over (q_z, omega) the root of each phonon round.  A
rank's share is a (k_z, E) mask plus an atom range: an omen rank owns one
chunk of the flattened (k_z, E) points and every atom, a tiled rank one
energy tile at every k_z and one atom tile.  Both schemes record, while they
ledger, the (k_z, E) mask each rank receives, and every rank then runs one
path (:func:`_rank`): it slices G to the energy hull of what it received x
its atoms plus a halo and runs the loop's default kernels
(``sse.DEFAULT_VARIANT`` Sigma and the default Pi) on that slice,
restricted to the points and atoms it owns.  Under that point mask the
kernels form their factors only at the rows the owned points read, not on
the whole hull.  So a rank does its share of the single-node work rather
than all of it, and a slice that misses part of the halo a rank reads fails
loudly instead of reading zeros.  A rank that owns nothing runs no kernel.

The ledger counts messages and names their ends; ``comm`` sizes and tags
each entry, a tiled rank's over its footprint (tile + N_B atoms, odd N_B
too), so checking the ledger against ``comm``'s closed forms checks counts.
Off-grid shifts and halo entries travel as zero blocks, and rank-local
copies are ledgered, because the models count them too.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .comm import ELECTRON_G, ELECTRON_SIGMA, PHONON_D, PHONON_D_PI, PHONON_PI, CommPlan, InfeasiblePartitionError
from .comm import electron_column_bytes, phonon_slice_bytes, tiled_atoms
from .device import NeighborMap
from .gf import GreensTensor
from .params import EnergyGrid, SimParams
from .sse import DEFAULT_VARIANT, pi_from_chains, preprocess_D, sse_pi_chains, sse_sigma

Array = np.ndarray


@dataclass(frozen=True)
class LedgerEntry:
    round: int
    src: int
    dst: int
    tag: str
    bytes: int


@dataclass
class MessageLedger:
    """Exact per-message byte record of one simulated run."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def add(self, round_: int, src: int, dst: int, tag: str, nbytes: int) -> None:
        self.entries.append(LedgerEntry(round_, src, dst, tag, int(nbytes)))

    def bytes_sent(self, rank: int | None = None, tag: str | None = None) -> int:
        return sum(
            e.bytes
            for e in self.entries
            if (rank is None or e.src == rank) and (tag is None or e.tag == tag)
        )

    def bytes_received(self, rank: int | None = None, tag: str | None = None) -> int:
        return sum(
            e.bytes
            for e in self.entries
            if (rank is None or e.dst == rank) and (tag is None or e.tag == tag)
        )

    def total_bytes(self, tag: str | None = None) -> int:
        return sum(e.bytes for e in self.entries if tag is None or e.tag == tag)

    def tags(self) -> list[str]:
        return sorted({e.tag for e in self.entries})

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["round", "src", "dst", "tag", "bytes"])
        for e in self.entries:
            writer.writerow([e.round, e.src, e.dst, e.tag, e.bytes])
        return buf.getvalue()

    def summary(self) -> dict:
        return {
            "messages": len(self.entries),
            "total_bytes": self.total_bytes(),
            "by_tag": {tag: self.total_bytes(tag) for tag in self.tags()},
        }


def _chunks(total: int, parts: int) -> list[range]:
    """Contiguous ceil-division chunks (short or empty tails allowed)."""
    size = -(-total // parts)
    return [range(min(i * size, total), min((i + 1) * size, total)) for i in range(parts)]


def _owners(n_outer: int, n_inner: int, parts: int) -> Array:
    """Owner rank of every point of an (outer, inner) grid whose row-major flattening is split into ceil chunks.

    Momentum-energy points are (k_z, E); phonon rounds are (q_z, omega).
    """
    lengths = [len(chunk) for chunk in _chunks(n_outer * n_inner, parts)]
    return np.repeat(np.arange(parts), lengths).reshape(n_outer, n_inner)


def _rank(
    g: GreensTensor, dc: GreensTensor, dh: Array, nmap: NeighborMap, grid: EnergyGrid, n_qz: int,
    owned: Array, received: Array, a_range: tuple[int, int], halo_a: int,
) -> tuple[Array, Array]:
    """One rank on a slice of G: the energy hull of the (k,E) points it received x its atoms +- ``halo_a``.

    ``owned`` and ``received`` are (k,E) masks; momentum wraps, so the hull
    spans every k.  The rank copies that slice of G (clipped to the grid),
    zeroed at the points of the hull outside ``received``, and reads
    ``dc``/``dh`` of the same atoms with the neighbor map re-indexed into
    the slice.  Both kernels take ``owned`` as their point mask, so they
    compute only the owned points and the rows of the slice those read.
    Returns, as stacked lesser/greater arrays, the Sigma at the owned points
    x atoms ``a_range``, in ``owned``'s row-major point order, and the
    partial Pi chains of those atoms reduced over the owned points.
    """
    received_e = np.flatnonzero(received.any(axis=0))
    e_lo, e_hi = int(received_e[0]), int(received_e[-1]) + 1
    a_lo, a_hi = a_range
    wa_lo, wa_hi = max(0, a_lo - halo_a), min(g.shape[2], a_hi + halo_a)
    local = g.data[:, :, e_lo:e_hi, wa_lo:wa_hi].copy()
    local[:, ~received[:, e_lo:e_hi]] = 0
    g_rank = GreensTensor.wrap(local)
    dc_rank = GreensTensor.wrap(dc.data[:, :, :, wa_lo:wa_hi])
    nmap_rank = NeighborMap(idx=nmap.idx[wa_lo:wa_hi] - wa_lo)
    own_a = (a_lo - wa_lo, a_hi - wa_lo)
    own = owned[:, e_lo:e_hi]
    sigma = sse_sigma(DEFAULT_VARIANT, g_rank, dc_rank, dh[wa_lo:wa_hi], nmap_rank, grid, point_mask=own, atom_range=own_a)
    chains = sse_pi_chains(g_rank, dh[wa_lo:wa_hi], nmap_rank, grid, n_qz, point_mask=own, atom_range=own_a)
    atoms = slice(*own_a)
    return sigma.data[:, own, atoms], chains.data[:, :, :, atoms]


def _run_ranks(
    g: GreensTensor, dc: GreensTensor, dh: Array, nmap: NeighborMap, grid: EnergyGrid, params: SimParams,
    owned: list[Array], a_ranges: list[tuple[int, int]], received: list[Array], halo_a: int,
) -> tuple[GreensTensor, GreensTensor]:
    """Every rank that owns something runs :func:`_rank` on what it received; Sigma and Pi from their owned parts."""
    sigma = GreensTensor.zeros(params.electron_shape)
    chains = GreensTensor.zeros((params.n_qz, params.n_w, params.n_A, params.n_B, 3, 3))
    for mask, (a_lo, a_hi), got in zip(owned, a_ranges, received):
        if a_lo == a_hi or not mask.any():
            continue
        sigma_part, chains_part = _rank(g, dc, dh, nmap, grid, params.n_qz, mask, got, (a_lo, a_hi), halo_a)
        sigma.data[:, mask, a_lo:a_hi] = sigma_part
        chains.data[:, :, :, a_lo:a_hi] += chains_part
    return sigma, pi_from_chains(chains)


def run_omen_scheme(
    g: GreensTensor,
    d: GreensTensor,
    dh: Array,
    nmap: NeighborMap,
    grid: EnergyGrid,
    params: SimParams,
    processes: int,
) -> tuple[GreensTensor, GreensTensor, MessageLedger]:
    """Momentum-energy decomposition with one exchange round per (q_z, omega).

    Each round broadcasts the preprocessed phonon slice to every rank, moves
    the two shifted electron blocks (E -+ offset, k -+ q) for every owned
    point, and reduces the partial phonon trace chains to the round's owner.
    Messages are simulated in ascending (round, src, dst) order.  Each rank
    then runs the loop's default kernels on the energy hull of the points it
    received, over every atom, computing only its own points and the rows
    they read (see :func:`_rank`).
    """
    if processes < 1:
        raise ValueError("process count must be >= 1")
    owner = _owners(params.n_kz, params.n_E, processes)
    roots = _owners(params.n_qz, params.n_w, processes)
    owned = [owner == r for r in range(processes)]
    dc = preprocess_D(d, nmap)
    ledger = MessageLedger()

    d_bytes = phonon_slice_bytes(params, params.n_A)
    g_bytes = electron_column_bytes(params, params.n_A)

    received = [mask.copy() for mask in owned]
    for q in range(params.n_qz):
        for w in range(params.n_w):
            round_ = q * params.n_w + w
            off = grid.frequency_map[w][0]
            root = int(roots[q, w])
            for dst in range(processes):
                ledger.add(round_, root, dst, PHONON_D, d_bytes)
            for dst in range(processes):
                for k, i_e in np.argwhere(owned[dst]):
                    for k_s, e_s in (
                        ((k - q) % params.n_kz, i_e - off),
                        ((k + q) % params.n_kz, i_e + off),
                    ):
                        if 0 <= e_s < params.n_E:
                            src = int(owner[k_s, e_s])
                            received[dst][k_s, e_s] = True
                        else:
                            src = dst  # off-grid shift travels as a zero block
                        ledger.add(round_, src, dst, ELECTRON_G, g_bytes)
            for src in range(processes):
                ledger.add(round_, src, root, PHONON_PI, d_bytes)

    a_ranges = [(0, params.n_A)] * processes
    sigma, pi = _run_ranks(g, dc, dh, nmap, grid, params, owned, a_ranges, received, halo_a=0)
    return sigma, pi, ledger


def run_tiled_scheme(
    g: GreensTensor,
    d: GreensTensor,
    dh: Array,
    nmap: NeighborMap,
    grid: EnergyGrid,
    params: SimParams,
    t_e: int,
    t_a: int,
) -> tuple[GreensTensor, GreensTensor, MessageLedger]:
    """Energy-atom tiling with one all-to-all halo exchange.

    Rank tE * T_A + tA owns energy tile tE at every k_z and atom tile tA.  It
    computes its Sigma tile and partial phonon chains with the loop's default
    kernels on its halo'd slice (see :func:`_rank`): energies +- the largest
    frequency offset, atoms +- the neighbor map's reach.  Its messages span
    ``comm``'s tile + N_B footprint instead.  Round 0 is the forward
    exchange, round 1 the return.
    """
    if t_e < 1 or t_a < 1:
        raise ValueError("partition counts must be >= 1")
    if t_e > params.n_E or t_a > params.n_A:
        raise InfeasiblePartitionError(
            f"infeasible partition: T_E={t_e} > n_E or T_A={t_a} > n_A"
        )
    processes = t_e * t_a
    e_tiles = _chunks(params.n_E, t_e)
    a_tiles = _chunks(params.n_A, t_a)
    halo_e = grid.max_offset
    owner = _owners(params.n_kz, params.n_E, processes)
    roots = _owners(params.n_qz, params.n_w, processes)
    dc = preprocess_D(d, nmap)
    ledger = MessageLedger()

    col_atoms = tiled_atoms(params, len(a_tiles[0]))  # unclipped model footprint
    g_col_bytes = electron_column_bytes(params, col_atoms)
    d_slice_bytes = phonon_slice_bytes(params, col_atoms)

    owned = [np.zeros((params.n_kz, params.n_E), dtype=bool) for _ in range(processes)]
    received = [np.zeros((params.n_kz, params.n_E), dtype=bool) for _ in range(processes)]
    a_ranges = [(tile.start, tile.stop) for _ in e_tiles for tile in a_tiles]
    for rank in range(processes):
        e_tile = e_tiles[rank // t_a]
        owned[rank][:, e_tile.start : e_tile.stop] = True
        for k in range(params.n_kz):
            for e_s in range(e_tile.start - halo_e, e_tile.stop + halo_e):
                if 0 <= e_s < params.n_E:
                    src = int(owner[k, e_s])
                    received[rank][k, e_s] = True
                else:
                    src = rank  # zero-padded halo mirrors the model rectangle
                ledger.add(0, src, rank, ELECTRON_G, g_col_bytes)
                ledger.add(1, rank, src, ELECTRON_SIGMA, g_col_bytes)
        for q in range(params.n_qz):
            for w in range(params.n_w):
                root = int(roots[q, w])
                ledger.add(0, root, rank, PHONON_D, d_slice_bytes)
                ledger.add(1, rank, root, PHONON_PI, d_slice_bytes)

    sigma, pi = _run_ranks(g, dc, dh, nmap, grid, params, owned, a_ranges, received, nmap.max_reach)
    return sigma, pi, ledger


def compare_ledger_with_model(ledger: MessageLedger, plan: CommPlan) -> list[dict]:
    """Per-rank comparison of the ledger against a comm plan, in the plan's terms.

    The plan counts electron G received, electron Sigma sent, and the phonon
    pair as D received plus Pi sent.  Bytes the plan puts at zero give an
    infinite delta.
    """
    rows = []
    for rank in range(plan.processes):
        got = {
            ELECTRON_G: ledger.bytes_received(rank, ELECTRON_G),
            ELECTRON_SIGMA: ledger.bytes_sent(rank, ELECTRON_SIGMA),
            PHONON_D_PI: ledger.bytes_received(rank, PHONON_D) + ledger.bytes_sent(rank, PHONON_PI),
        }
        for tag, expected in plan.per_process_bytes.items():
            if expected:
                delta = abs(got[tag] - expected) / expected
            else:
                delta = math.inf if got[tag] else 0.0
            rows.append(
                {"tag": tag, "rank": rank, "ledger_bytes": got[tag], "model_bytes": expected, "rel_delta": delta}
            )
    return rows
