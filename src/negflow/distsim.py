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
restricted to the points and atoms it owns.  The kernels' one rows rule
(``sse._rows_read``) then forms their factors only at the rows the owned
points read, not on the whole hull; a rank that owns every point of its
slice forms every row, as an unmasked call does.  So a rank does its share
of the single-node work rather than all of it, and a slice that misses
part of the halo a rank reads fails loudly instead of reading zeros.  A
rank that owns nothing runs no kernel.

The ledger counts messages and names their ends; ``comm`` sizes and tags
each entry, a tiled rank's over its footprint (tile + N_B atoms, odd N_B
too), so checking the ledger against ``comm``'s closed forms checks counts.
It holds its messages as integer columns, which both schemes build with
array operations in simulation order.
Off-grid shifts and halo entries travel as zero blocks, and rank-local
copies are ledgered, because the models count them too.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

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


def _columns(round_, src, dst, tag, nbytes) -> Array:
    """Ledger columns of the messages given as broadcastable integer arrays, one message per broadcast entry."""
    return np.stack(np.broadcast_arrays(round_, src, dst, tag, nbytes)).astype(np.int64, copy=False)


def _round_trips(peers: Array, rank: int, tags: list[int], nbytes: int) -> Array:
    """Ledger columns of one message from each of ``peers`` to ``rank`` in round 0, each followed by its return in round 1."""
    trip = np.array([0, 1])
    peers = peers.reshape(-1, 1)
    return _columns(trip, np.where(trip, rank, peers), np.where(trip, peers, rank), tags, nbytes)


class MessageLedger:
    """Exact per-message byte record of one simulated run, held as integer columns.

    ``columns`` is a (5, messages) array in simulation order whose rows are
    the round, source, destination, tag index (into ``tag_names``) and bytes
    of each message; :attr:`entries` materializes them as
    :class:`LedgerEntry` rows in that order.
    """

    FIELDS = ("round", "src", "dst", "tag", "bytes")

    def __init__(self) -> None:
        self.tag_names: list[str] = []
        self.columns = np.zeros((len(self.FIELDS), 0), dtype=np.int64)

    def tag_index(self, tag: str) -> int:
        """Index of ``tag`` in ``tag_names``, appended on first use."""
        if tag not in self.tag_names:
            self.tag_names.append(tag)
        return self.tag_names.index(tag)

    def extend(self, columns: Array) -> None:
        """Append messages given as columns (see :func:`_columns`); trailing axes run fastest."""
        self.columns = np.concatenate([self.columns, columns.reshape(len(self.FIELDS), -1)], axis=1)

    def add(self, round_: int, src: int, dst: int, tag: str, nbytes: int) -> None:
        self.extend(_columns(round_, src, dst, self.tag_index(tag), int(nbytes)))

    @property
    def entries(self) -> list[LedgerEntry]:
        names = self.tag_names
        return [LedgerEntry(r, s, d, names[t], b) for r, s, d, t, b in self.columns.T.tolist()]

    def _bytes(self, tag: str | None, end: Array | None = None, rank: int | None = None) -> int:
        """Bytes of the messages with ``tag`` whose ``end`` column reads ``rank``; None matches any."""
        keep = np.ones(self.columns.shape[1], dtype=bool)
        if rank is not None:
            keep &= end == rank
        if tag is not None:
            keep &= self.columns[3] == (self.tag_names.index(tag) if tag in self.tag_names else -1)
        return int(self.columns[4, keep].sum())

    def bytes_sent(self, rank: int | None = None, tag: str | None = None) -> int:
        return self._bytes(tag, self.columns[1], rank)

    def bytes_received(self, rank: int | None = None, tag: str | None = None) -> int:
        return self._bytes(tag, self.columns[2], rank)

    def total_bytes(self, tag: str | None = None) -> int:
        return self._bytes(tag)

    def tags(self) -> list[str]:
        return sorted(self.tag_names[t] for t in np.unique(self.columns[3]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.FIELDS)
        writer.writerows((e.round, e.src, e.dst, e.tag, e.bytes) for e in self.entries)
        return buf.getvalue()

    def summary(self) -> dict:
        return {
            "messages": self.columns.shape[1],
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
    compute only the owned points, at the rows of the slice their rows rule
    picks for that mask.
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
    owned: Array, a_ranges: list[tuple[int, int]], received: Array, halo_a: int,
) -> tuple[GreensTensor, GreensTensor]:
    """Every rank that owns something runs :func:`_rank` on what it received; Sigma and Pi from their owned parts.

    ``owned`` and ``received`` hold one (k, E) mask per rank.
    """
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
    owned = owner == np.arange(processes)[:, None, None]
    dc = preprocess_D(d, nmap)
    ledger = MessageLedger()

    d_bytes = phonon_slice_bytes(params, params.n_A)
    g_bytes = electron_column_bytes(params, params.n_A)

    # Per round (q, w): the D broadcast from its root, then the two shifted electron blocks (E -+ offset,
    # k -+ q) of every (k, E) point in row-major order, which walks the ranks in order since their chunks
    # are contiguous, then the Pi reduction to the root.  Axes [q, w, k, E, -+].
    k, e = (axis[..., None] for axis in np.indices((params.n_kz, params.n_E)))
    sign = np.array([-1, 1])
    k_s = (k + sign * np.arange(params.n_qz)[:, None, None, None, None]) % params.n_kz
    e_s = e + sign * np.asarray(grid.offsets)[:, None, None, None]
    on = (0 <= e_s) & (e_s < params.n_E)
    shape = np.broadcast_shapes(k_s.shape, e_s.shape)
    dst = np.broadcast_to(owner[..., None], shape)
    src = np.where(on, owner[k_s, np.clip(e_s, 0, params.n_E - 1)], dst)  # off-grid shifts travel as zero blocks
    received = owned.copy()
    hit = np.broadcast_to(on, shape)
    received[dst[hit], np.broadcast_to(k_s, shape)[hit], np.broadcast_to(e_s, shape)[hit]] = True

    rounds = np.arange(params.n_qz * params.n_w).reshape(params.n_qz, params.n_w, 1)
    ranks = np.arange(processes)
    root = roots[..., None]
    per_round = rounds.shape[:2] + (-1,)
    ledger.extend(np.concatenate([
        _columns(rounds, root, ranks, ledger.tag_index(PHONON_D), d_bytes),
        _columns(rounds, src.reshape(per_round), dst.reshape(per_round), ledger.tag_index(ELECTRON_G), g_bytes),
        _columns(rounds, ranks, root, ledger.tag_index(PHONON_PI), d_bytes),
    ], axis=-1))

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

    # Per rank: each electron column it reads (every k, its energy tile +- halo_e) arrives in round 0 and
    # its Sigma column returns in round 1, message by message; then each (q, w) round's D slice and Pi
    # slice the same way.
    owned = np.zeros((processes, params.n_kz, params.n_E), dtype=bool)
    received = np.zeros_like(owned)
    a_ranges = [(tile.start, tile.stop) for _ in e_tiles for tile in a_tiles]
    electron = [ledger.tag_index(ELECTRON_G), ledger.tag_index(ELECTRON_SIGMA)]
    phonon = [ledger.tag_index(PHONON_D), ledger.tag_index(PHONON_PI)]
    for rank in range(processes):
        e_tile = e_tiles[rank // t_a]
        owned[rank, :, e_tile.start : e_tile.stop] = True
        e_s = np.arange(e_tile.start - halo_e, e_tile.stop + halo_e)
        on = (0 <= e_s) & (e_s < params.n_E)
        received[rank, :, e_s[on]] = True
        # the zero-padded halo mirrors the model rectangle
        src = np.where(on, owner[:, np.clip(e_s, 0, params.n_E - 1)], rank)
        ledger.extend(_round_trips(src, rank, electron, g_col_bytes))
        ledger.extend(_round_trips(roots, rank, phonon, d_slice_bytes))

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
