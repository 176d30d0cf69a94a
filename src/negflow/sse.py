"""Electron-phonon scattering self-energy kernels, in equivalent variants.

The electron self-energy accumulates, for every point of the 8-D space
(k_z, E, q_z, omega, i, j, a, b),

    Sigma[k,E,a] += (G[k-q, E-off(w), f(a,b)] @ dH[a,b,i])
                    @ (dH[a,b,j] * Dc[q,w,a,b,i,j])

scaled by the imaginary prefactor and the frequency weight, where Dc is the
preprocessed four-term phonon combination.  The phonon self-energy reduces
trace chains of the same blocks over (k_z, E).  Five algorithmically
equivalent arrangements of the Sigma kernel trace the optimization chain
from the straightforward map to the batched, fused form (the three middle
ones share one staged kernel, :func:`_sigma_staged`), and Pi comes in
three forms that differ in which work is hoisted out of the (q_z, omega)
loop.  The default forms run in chunks of at most ``BUDGET`` transient
bytes, both over blocks of atoms.  Batched-fused Sigma applies the
momentum/energy shift to a product (it shifts dHG Xi); the default Pi
applies both shifts to G, in one window of each atom's G that all its
neighbors share.  All of them take every shift from one cached plan,
:func:`_shift_plan`, so they agree by construction on how momentum wraps
and how off-grid energy offsets drop out.  Both kernels take a (k_z, E)
point mask, as the distributed ranks use: Sigma is produced, and Pi's
trace reduced, at the masked points only; an unmasked call is the mask of
every point.  The default forms compute their factors at the rows one rule
picks (:func:`_rows_read`): every row under the mask of every point, else
only the rows the masked points read, with one zero row for off-grid
energies either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product

import numpy as np

from .device import DeviceMatrices, NeighborMap
from .flops import FlopCounter
from .gf import DEFAULT_SOLVER, GreensTensor, gf_phase
from .params import EnergyGrid, SimParams, default_grid

Array = np.ndarray


class SseVariant(Enum):
    REFERENCE = "reference"
    FISSIONED = "fissioned"
    REDUNDANCY_REMOVED = "redundancy-removed"
    LAYOUT_TRANSFORMED = "layout-transformed"
    BATCHED_FUSED = "batched-fused"


# The fastest arrangement that passes the equivalence tests: the one the loop,
# ``negflow simulate`` and the simulated ranks run unless told otherwise.
DEFAULT_VARIANT = SseVariant.BATCHED_FUSED

# The loop stops as diverged after this many consecutive GF passes whose
# absolute change grows while their relative change exceeds 1.
DIVERGENCE_PASSES = 3


# Transient bytes one chunk of a default kernel may hold: each runs as many atoms per chunk as fit (at
# least one).  Larger chunks save per-call overhead on small orbital blocks, but past about this size the
# batched GEMMs and gathers slow down (sweep in CHANGES.md).
BUDGET = 1 << 20


def _chunk(unit_entries: int, n_units: int) -> int:
    """Units per chunk when each unit holds ``unit_entries`` complex128 transient entries: at least 1, at most ``n_units``."""
    return max(1, min(n_units, BUDGET // (16 * unit_entries)))


def _carve(buffer: Array, offset: int, shape: tuple[int, ...]) -> Array:
    """A C-ordered ``shape`` view into the flat scratch ``buffer``, starting at ``offset``."""
    return buffer[offset : offset + math.prod(shape)].reshape(shape)


def to_atom_major(arr: Array) -> Array:
    """[k, E, a, ...] -> [a, k, E, ...]; a lossless permutation."""
    return np.ascontiguousarray(np.moveaxis(arr, 2, 0))


def to_grid_major(arr: Array) -> Array:
    """[a, k, E, ...] -> [k, E, a, ...]; inverse of :func:`to_atom_major`."""
    return np.ascontiguousarray(np.moveaxis(arr, 0, 2))


@lru_cache(maxsize=512)
def _shift_plan(n_kz: int, n_e: int, e_shifts: tuple[int, ...], q_shifts: tuple[int, ...] | range):
    """The single boundary rule of every kernel: energy padding and a ``[q, w, k, E]`` gather index, cached.

    It serves both use sites (E - omega for Sigma, E + omega for Pi via
    negated shifts): momentum wraps periodically, while entries whose shifted
    energy falls off the grid are zero, which is arithmetically identical to
    dropping those terms from the accumulation.  Returns ``(before, n_pad,
    index)``: an array whose energy axis is zero-padded to ``n_pad`` entries,
    the grid starting at ``before`` (:func:`_pad_energy`), holds its entry at
    ``[(k - q_shifts[q]) mod n_kz, E - e_shifts[w]]`` at position
    ``index[q, w, k, E]`` of its merged (k, padded E) axis.
    """
    shifts = np.clip(np.array(e_shifts, dtype=np.int64), -n_e, n_e)
    before = max(int(shifts.max(initial=0)), 0)
    n_pad = before + n_e + max(-int(shifts.min(initial=0)), 0)
    k_index = (np.arange(n_kz) - np.array(q_shifts, dtype=np.int64)[:, None]) % n_kz  # [q, k]
    e_index = np.arange(n_e) - shifts[:, None] + before  # [w, E]
    index = k_index[:, None, :, None] * n_pad + e_index[None, :, None, :]
    index.setflags(write=False)
    return before, n_pad, index


def _pad_energy(arr: Array, before: int, n_pad: int) -> Array:
    """``arr[k, E, ...]`` with its energy axis zero-padded to ``n_pad`` entries, the grid starting at ``before``."""
    padded = np.zeros((arr.shape[0], n_pad) + arr.shape[2:], dtype=arr.dtype)
    padded[:, before : before + arr.shape[1]] = arr
    return padded


def shifted_grid(arr: Array, q_shift: int, e_shift: int) -> Array:
    """Array indexed at ``[(k - q_shift) mod n_kz, E - e_shift, ...]``, zero where E - e_shift is off the grid."""
    n_kz, n_e = arr.shape[:2]
    before, n_pad, index = _shift_plan(n_kz, n_e, (e_shift,), (q_shift,))
    return np.take(_pad_energy(arr, before, n_pad).reshape((-1,) + arr.shape[2:]), index[0, 0], axis=0)


def preprocess_D(d: GreensTensor, nmap: NeighborMap) -> GreensTensor:
    """Four-term combination D_ba - D_bb - D_aa + D_ab for b = f(a,s), in the n_B-slot phonon layout.

    Consumes the slot-layout phonon tensor; the reverse (b -> a) blocks are
    looked up through the neighbor map, which therefore must be
    reverse-closed (devices from :func:`negflow.device.synthesize` are).
    """
    if d.kind != "phonon":
        raise ValueError("preprocess_D expects a phonon tensor")
    if d.shape[2] != nmap.n_A or d.shape[3] != nmap.n_B + 1:
        raise ValueError(f"missing neighbor slot: tensor has {d.shape[3] - 1} slots for {nmap.n_B} neighbors")
    b = nmap.idx
    rev = nmap.reverse_slot_table()
    pair = d.data  # [2, q, w, a, slot, i, j]
    # D_ba (the gather is laid out atom-major, hence the copy), then reduced in place, one temporary at a time
    dc = np.ascontiguousarray(pair[:, :, :, b, 1 + rev])
    dc -= pair[:, :, :, b, 0]  # D_bb
    dc -= pair[:, :, :, :, :1]  # D_aa
    dc += pair[:, :, :, :, 1:]  # D_ab
    return GreensTensor.wrap(dc)


def _atom_range(atom_range: tuple[int, int] | None, nmap: NeighborMap, n_atoms: int) -> range:
    """The produced atoms, checked: each one and all its neighbors must index G's atom axis.

    A neighbor outside ``[0, n_atoms)`` means G is a slice that misses part
    of the halo the range needs; a negative index must not wrap around.
    """
    lo, hi = atom_range if atom_range is not None else (0, nmap.n_A)
    if not 0 <= lo <= hi <= min(nmap.n_A, n_atoms):
        raise ValueError(f"atom range [{lo}, {hi}) outside the {n_atoms} atoms of G")
    idx = nmap.idx[lo:hi]
    if idx.size and (idx.min() < 0 or idx.max() >= n_atoms):
        bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
        raise ValueError(f"neighbor index {bad} of atoms [{lo}, {hi}) outside the {n_atoms} atoms of G")
    return range(lo, hi)


def _xi_block(dc_block: Array, dh_ab: Array, weight: float) -> Array:
    # Xi_i = weight * sum_j Dc[i,j] * dH_j; orb^2-class work, not tallied.
    return weight * np.einsum("ij,jMN->iMN", dc_block, dh_ab)


def _sigma_reference(g, dc, dh, nmap, grid, counter, atoms: range) -> GreensTensor:
    """Straightforward kernel: one conceptual map over the full 8-D space.

    Loops run over (q_z, omega, b) in ascending order (the documented
    deterministic reduction chunking) with the (k_z, E) sub-space batched;
    per point, the j-contraction is folded into one matrix per i before the
    two GEMMs.
    """
    n_kz, n_e, _, n_orb, _ = g.shape
    n_qz, n_w = dc.shape[:2]
    sigma = GreensTensor.zeros(g.shape)
    for q, w, s in product(range(n_qz), range(n_w), range(nmap.n_B)):
        off, weight = grid.frequency_map[w]
        for a in atoms:
            b = int(nmap.idx[a, s])
            dh_ab = dh[a, s]
            for g_arr, dc_arr, out in zip(g.data, dc.data, sigma.data):
                gs = shifted_grid(g_arr[:, :, b], q, off)
                dhg = np.einsum("keMP,iPN->keiMN", gs, dh_ab)
                xi = _xi_block(dc_arr[q, w, a, s], dh_ab, weight)
                out[:, :, a] += np.einsum("keiMP,iPN->keMN", dhg, xi)
                counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.dhg")
                counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.accumulate")
    return sigma


def _dhg_transient(
    variant: SseVariant, g_arr: Array, dh: Array, nmap: NeighborMap, atoms: range, n_qw: int, counter: FlopCounter
) -> Array:
    """Stage 1 of the staged Sigma: dHG[c, a, s, k, E, i, M, N] of ``atoms``.

    FISSIONED keeps the (q_z, omega) dimensions of the fissioned map: its
    n_qw copies c are literally identical, since the momentum/frequency
    offsets are applied at the consumption site, which is exactly the
    redundancy the next step removes.  The other arrangements compute one
    copy.  LAYOUT_TRANSFORMED reads the atom-major G ``[a, k, E, M, N]``, so
    each (a, b, i) takes one tall GEMM on a contiguous per-atom block; the
    others contract the grid-major G per (k, E) point.
    """
    atom_major = variant is SseVariant.LAYOUT_TRANSFORMED
    n_kz, n_e = g_arr.shape[1:3] if atom_major else g_arr.shape[:2]
    n_orb = g_arr.shape[-1]
    copies = n_qw if variant is SseVariant.FISSIONED else 1
    dhg = np.empty((copies, len(atoms), nmap.n_B, n_kz, n_e, 3, n_orb, n_orb), dtype=np.complex128)
    for c, (i_a, a), s in product(range(copies), enumerate(atoms), range(nmap.n_B)):
        b = int(nmap.idx[a, s])
        if atom_major:
            rows = g_arr[b].reshape(-1, n_orb)
            for i in range(3):
                dhg[c, i_a, s, :, :, i] = (rows @ dh[a, s, i]).reshape(n_kz, n_e, n_orb, n_orb)
        else:
            dhg[c, i_a, s] = np.einsum("keMP,iPN->keiMN", g_arr[:, :, b], dh[a, s])
        counter.add_matmul(n_kz * n_e * n_orb, n_orb, n_orb, repeat=3, stage="sigma.dhg")
    return dhg


def _sigma_staged(variant, g, dc, dh, nmap, grid, counter, atoms: range) -> GreensTensor:
    """The chain's middle steps: the stage-1 dHG transient, then one shifted GEMM per (q_z, omega, a, b).

    LAYOUT_TRANSFORMED works on the atom-major layout throughout: it reads
    the atom-major G and accumulates into an atom-major Sigma.
    """
    n_kz, n_e, _, n_orb, _ = g.shape
    n_qz, n_w = dc.shape[:2]
    atom_major = variant is SseVariant.LAYOUT_TRANSFORMED
    sigma = GreensTensor.zeros(g.shape)
    for g_arr, dc_arr, out in zip(g.data, dc.data, sigma.data):
        src = to_atom_major(g_arr) if atom_major else g_arr
        dhg = _dhg_transient(variant, src, dh, nmap, atoms, n_qz * n_w, counter)
        total = np.zeros_like(src) if atom_major else out
        for q, w in product(range(n_qz), range(n_w)):
            off, weight = grid.frequency_map[w]
            c = (q * n_w + w) % len(dhg)
            for (i_a, a), s in product(enumerate(atoms), range(nmap.n_B)):
                xi = _xi_block(dc_arr[q, w, a, s], dh[a, s], weight)
                acc = total[a] if atom_major else total[:, :, a]
                acc += np.einsum("keiMP,iPN->keMN", shifted_grid(dhg[c, i_a, s], q, off), xi)
                counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.accumulate")
        del dhg  # released before the next tensor's transient is built, so at most one is held
        if atom_major:
            out[...] = to_grid_major(total)
    return sigma


def _rows_read(index: Array, before: int, n_pad: int, n_e: int, points: Array, every: bool) -> tuple[Array, Array]:
    """The grid rows a default kernel forms, for a padded gather ``index[..., k, E]`` of :func:`_shift_plan`.

    The one rows rule: when the call's mask selects ``every`` point, every
    grid row, as the flop closed forms count; otherwise only the in-grid
    rows the (k, E) mask ``points`` reads.  Returns ``(rows, slots)``:
    ``rows``, the flat k n_E + E indices, ascending, and, for every leading
    index and point of ``points`` in row-major order, the position of its
    row in ``rows``, or ``rows.size`` (one zero row) where the shifted
    energy is off the grid.
    """
    k, e = np.divmod(index[..., points], n_pad)
    e -= before
    on_grid = (e >= 0) & (e < n_e)
    flat = np.where(on_grid, k * n_e + e, points.size)
    read = np.full(points.size + 1, every)
    read[flat] = True
    rows = np.flatnonzero(read[:-1])
    slots = np.full(points.size + 1, rows.size)
    slots[rows] = np.arange(rows.size)
    return rows, slots[flat]


def _take_rows(g_arr: Array, rows: Array, atoms: Array, out: Array) -> None:
    """``out[r, ...] = g_arr[k, E, atoms[...]]`` at the (k, E) of each flat row index ``rows[r]`` (ascending, unique)."""
    n_kz, n_e, n_a = g_arr.shape[:3]
    if rows.size == n_kz * n_e:  # every row: one gather along the atom axis
        np.take(g_arr, atoms, axis=2, out=out.reshape((n_kz, n_e) + out.shape[1:]), mode="clip")
    else:
        flat = g_arr.reshape((-1,) + g_arr.shape[3:])
        np.take(flat, rows.reshape((-1,) + (1,) * atoms.ndim) * n_a + atoms, axis=0, out=out, mode="clip")


def _sigma_batched_fused(g, dc, dh, nmap, grid, counter, atoms: range, mask: Array) -> GreensTensor:
    """Final form: atom blocks of at most ``BUDGET`` transient bytes, one GEMM per stage, the shift applied to the product.

    Per block, stage 1 computes dHG of every atom's n_B neighbors in one
    batched GEMM (rows [k, E, M], columns (i, P)).  Stage 2 is reassociated:
    since the (k, E) shift commutes with right multiplication, one batched
    (r n_orb) x (n_B 3 n_orb) x (n_qz n_w n_orb) GEMM per atom forms
    Y = dHG Xi at r rows for every neighbor and (q_z, omega) at once, and
    the shift then gathers n_orb columns of Y per (q_z, omega) in one
    indexed copy (rows from :func:`_shift_plan`; one zero row of Y stands in
    for off-grid energies) before the (q_z, omega) sum.  Xi takes one
    (3 n_qz n_w) x 3 GEMM per (atom, neighbor), from a contiguous copy of
    the block's Dc.  Both stages run at the rows :func:`_rows_read` picks
    for the point ``mask``: every row when it holds every point, else the
    rows ((k - q) mod n_kz, E - off(w)) its points read.  Sigma is formed
    at the masked points only.
    """
    n_kz, n_e, _, n_orb, _ = g.shape
    n_qz, n_w = dc.shape[:2]
    n_b, n_qw = nmap.n_B, n_qz * n_w
    depth = n_b * 3 * n_orb
    before, n_pad, k_e = _shift_plan(n_kz, n_e, grid.offsets, range(n_qz))
    read, slots = _rows_read(k_e, before, n_pad, n_e, mask, mask.all())
    rows = read.size * n_orb
    # Y is laid out as rows [slot, M, (q, w)] of n_orb columns, the slots being the rows read and one zero
    # row; index[(q, w), point, M] is the row holding Y at [slots[(q, w), point], M, (q, w)]
    index = (slots.reshape(n_qw, -1, 1) * n_orb + np.arange(n_orb)) * n_qw + np.arange(n_qw)[:, None, None]
    weights = np.asarray(grid.weights)[:, None]
    dh_cols = dh.transpose(0, 1, 3, 2, 4).reshape(dh.shape[0], n_b, n_orb, 3 * n_orb)  # [a, s, Q, (i, P)]
    # per-block buffers, reused across blocks and both tensors; per atom, the neighbors' G (as GEMM
    # rows, then as taken), dHG and the shifted product with its sum share one: dHG is written past the
    # rows it is formed from, and the shift-add gathers once Y has consumed dHG.  The gather of G's rows
    # builds an int64 index unless it takes every row.
    stack = n_b * rows * n_orb
    summed = index.size * n_orb // n_qw
    taken = -(-read.size * n_b // 2)
    per_atom = max(4 * stack, index.size * n_orb + summed)
    y_size = (rows + n_orb) * n_qw * n_orb
    block = _chunk(per_atom + taken + y_size + n_b * 3 * n_qw * (2 * n_orb**2 + 3), len(atoms))
    scratch = np.empty(block * per_atom, dtype=np.complex128)
    dc_rows = np.empty((block, n_b, 3, n_qw, 3), dtype=np.complex128)
    dcdh = np.empty((block, n_b, 3, n_qz, n_w, n_orb, n_orb), dtype=np.complex128)
    xi = np.empty((block, n_b, 3, n_orb, n_qz, n_w, n_orb), dtype=np.complex128)
    y = np.zeros((block, rows + n_orb, n_qw * n_orb), dtype=np.complex128)
    sigma = GreensTensor.zeros(g.shape)
    for g_arr, dc_arr, out in zip(g.data, dc.data, sigma.data):
        for lo in range(atoms.start, atoms.stop, block):
            hi = min(lo + block, atoms.stop)
            u = hi - lo
            g_rows = _carve(scratch, 0, (u, n_b, read.size, n_orb, n_orb))
            g_nb = _carve(scratch, u * stack, (read.size, u, n_b, n_orb, n_orb))
            dhg = _carve(scratch, u * stack, (u, rows, n_b, 3 * n_orb))
            shifted = _carve(scratch, 0, (u,) + index.shape + (n_orb,))
            at_mask = _carve(scratch, shifted.size, (u,) + index.shape[1:] + (n_orb,))
            # dHG[a, k, E, M, s, (i, P)] = G[k, E, f(a, s)][M, Q] dH[a, s, i][Q, P]
            _take_rows(g_arr, read, nmap.idx[lo:hi], g_nb)
            np.copyto(g_rows, g_nb.transpose(1, 2, 0, 3, 4))
            np.matmul(g_rows.reshape(u, n_b, rows, n_orb), dh_cols[lo:hi], out=dhg.transpose(0, 2, 1, 3))
            # Xi[a, (s, i, P), (q, w, N)] = weight_w sum_j Dc[q, w, a, s, i, j] dH[a, s, j][P, N]
            np.copyto(dc_rows[:u], dc_arr[:, :, lo:hi].reshape(n_qw, u, n_b, 3, 3).transpose(1, 2, 3, 0, 4))  # [a, s, i, (q, w), j]
            np.matmul(dc_rows[:u].reshape(u, n_b, 3 * n_qw, 3), dh[lo:hi].reshape(u, n_b, 3, -1), out=dcdh[:u].reshape(u, n_b, 3 * n_qw, -1))
            np.multiply(dcdh[:u].transpose(0, 1, 2, 5, 3, 4, 6), weights, out=xi[:u])
            np.matmul(dhg.reshape(u, rows, depth), xi[:u].reshape(u, depth, n_qw * n_orb), out=y[:u, :rows])
            np.take(y[:u].reshape(u, -1, n_orb), index, axis=1, out=shifted, mode="clip")
            np.add.reduce(shifted, axis=1, out=at_mask)
            out[mask, lo:hi] = at_mask.transpose(1, 0, 2, 3)
            counter.add_matmul(rows, n_orb, n_orb, repeat=3 * n_b * u, stage="sigma.dhg")
            counter.add_matmul(rows, depth, n_qw * n_orb, repeat=u, stage="sigma.accumulate")
    return sigma


def _point_mask(point_mask, shape: tuple[int, int]) -> Array:
    """The checked (k_z, E) mask of a kernel call, the mask of every point when none is given.

    An unmasked call and one under the mask of every point are the same
    call: the default kernels form every row for it (:func:`_rows_read`).
    """
    if point_mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(point_mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"point mask must have shape {shape}")
    return mask


def sse_sigma(
    variant: SseVariant,
    g: GreensTensor,
    dc: GreensTensor,
    dh: Array,
    nmap: NeighborMap,
    grid: EnergyGrid,
    counter: FlopCounter | None = None,
    atom_range: tuple[int, int] | None = None,
    point_mask: Array | None = None,
) -> GreensTensor:
    """Electron self-energy in the requested kernel arrangement.

    ``dc`` is the preprocessed phonon tensor (:func:`preprocess_D`).
    ``atom_range`` restricts the produced atoms, as in :func:`sse_pi_chains`:
    Sigma is computed for those atoms only and is zero elsewhere.  G may
    then be a slice of the device, as long as it holds every neighbor of
    the range (a neighbor index outside G's atom axis raises ``ValueError``).
    ``point_mask`` (a (k_z, E) boolean array) restricts the produced points
    the same way: Sigma is zero outside it.  The default arrangement then
    computes only the masked points, at the rows of G :func:`_rows_read`
    picks (every row for the mask of every point, else those they read);
    the others compute every point and zero the rest.  ``counter`` tallies
    the GEMMs; a new one is used when none is given.
    """
    if g.kind != "electron":
        raise ValueError("sse_sigma expects an electron tensor")
    if dc.kind != "phonon" or dc.shape[2:4] != (nmap.n_A, nmap.n_B):
        raise ValueError("sse_sigma expects the preprocessed phonon tensor of the neighbor map (n_A, n_B slots)")
    counter = counter if counter is not None else FlopCounter()
    atoms = _atom_range(atom_range, nmap, g.shape[2])
    mask = _point_mask(point_mask, g.shape[:2])
    if variant is SseVariant.BATCHED_FUSED:
        sigma = _sigma_batched_fused(g, dc, dh, nmap, grid, counter, atoms, mask)
    else:
        if variant is SseVariant.REFERENCE:
            sigma = _sigma_reference(g, dc, dh, nmap, grid, counter, atoms)
        elif variant in (SseVariant.FISSIONED, SseVariant.REDUNDANCY_REMOVED, SseVariant.LAYOUT_TRANSFORMED):
            sigma = _sigma_staged(variant, g, dc, dh, nmap, grid, counter, atoms)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        sigma.data[:, ~mask] = 0
    # the imaginary prefactor, common to every arrangement
    sigma.data *= 1j
    return sigma


def _per_atom_chains(
    g: GreensTensor, dh: Array, nmap: NeighborMap, grid: EnergyGrid, n_qz: int, counter: FlopCounter,
    mask: Array, atoms: range,
) -> GreensTensor:
    """Unweighted [q, w, a, s, i, j] trace chains of ``atoms``, from one window of G1 per atom.

    By the cyclic trace, chain = sum_{S,Q} dH_i[S, Q] D[Q, S], where D sums
    G1[(k + q) mod n_kz, E + off(w), a] m2 over the masked points (k, E) and
    m2 = dH_j G2[k, E, f(a, s)].  The atoms run in chunks of at most
    ``BUDGET`` transient bytes.  Per chunk, m2 takes one batched GEMM over
    the (atom, neighbor) pairs at the masked rows.  Both shifts go onto G1:
    one gather takes an atom's G1 at the rows :func:`_rows_read` picks for
    the mask (every row when it holds every point, else the in-grid rows its
    points read) and a second its window W[(Q, q, w), (t, M)] at every
    masked point t, one zero row standing in for off-grid energies.  That
    window serves all the atom's neighbors and (i, j), in one
    (3 n_B n_orb) x (n_t n_orb) x (n_qz n_w n_orb) GEMM per atom that forms D.
    The dH_i contraction then takes one (3 x n_orb^2) x (n_orb^2 x 3 n_qz n_w)
    GEMM per pair, an orb^2-class step that is not tallied.
    """
    n_kz, n_e, n_a, n_orb, _ = g.shape
    n_b, n_qw, block = nmap.n_B, n_qz * grid.n_w, n_orb**2
    # m2 rows t: the masked points; G1 rows: the rows rule's for the mask, then a zero row, and
    # windows_at[(q, w), t] is the G1 row at ((k + q) mod n_kz, E + off(w)) of point t
    m2_read = np.flatnonzero(mask)
    before, n_pad, shift = _shift_plan(n_kz, n_e, tuple(-off for off in grid.offsets), range(0, -n_qz, -1))
    g1_read, windows_at = _rows_read(shift, before, n_pad, n_e, mask, mask.all())
    n_t, n_g1 = m2_read.size, g1_read.size
    windows_at = windows_at.reshape(n_qw, n_t)
    # per-chunk buffers, reused across chunks and both chains.  Per atom, the first region holds its
    # neighbors' G2 as taken, then m2 as formed, then its G1 as taken and its window; the second holds
    # G2 as GEMM rows, then m2 as the trace GEMM reads it.  The gathers of G's rows build an int64 index
    # unless they take every row, and m2's GEMM columns are a copy of dH.
    slab = n_b * n_t * block  # one atom's neighbors' G2 at the masked rows
    first, second = max(3 * slab, (n_g1 + n_qw * n_t) * block), 3 * slab
    taken = -(-max(n_b * n_t, n_g1) // 2)
    d_size = 3 * n_b * block * n_qw
    chunk = _chunk(first + second + (n_g1 + 1) * block + 2 * d_size + 9 * n_b * n_qw + 3 * n_b * block + taken, len(atoms))
    scratch = np.empty(chunk * (first + second), dtype=np.complex128)
    g1_cols = np.zeros((chunk, n_orb, n_g1 + 1, n_orb), dtype=np.complex128)  # [a, Q, row, M], the zero row last
    d = np.empty((chunk, n_b, 3, n_orb, n_orb * n_qw), dtype=np.complex128)  # D^T [a, s, j, S, (Q, q, w)]
    d_pairs = np.empty((chunk, n_b, block, 3 * n_qw), dtype=np.complex128)  # [a, s, (S, Q), (j, q, w)]
    traces = np.empty((chunk, n_b, 3, 3, n_qw), dtype=np.complex128)
    dh_rows = dh.reshape(-1, n_b, 3, block)  # [a, s, i, (S, Q)]
    chains = GreensTensor.zeros((n_qz, grid.n_w, n_a, n_b, 3, 3))
    for lo in range(atoms.start, atoms.stop, chunk):
        hi = min(lo + chunk, atoms.stop)
        u = hi - lo
        g2_nb = _carve(scratch, 0, (n_t, u, n_b, n_orb, n_orb))
        formed = _carve(scratch, 0, (u, n_b, n_orb, n_t, 3, n_orb))  # [a, s, S, t, j, M]
        g1_nb = _carve(scratch, 0, (n_g1, u, n_orb, n_orb))
        windows = _carve(scratch, g1_nb.size, (u, n_orb, n_qw, n_t, n_orb))  # [a, Q, (q, w), t, M]
        g2_rows = _carve(scratch, u * first, (u, n_b, n_orb, n_t, n_orb))  # [a, s, S, t, N]
        m2 = _carve(scratch, u * first, (u, n_b, 3, n_orb, n_t, n_orb))  # [a, s, j, S, t, M]
        m2_cols = dh[lo:hi].transpose(0, 1, 4, 2, 3).reshape(u, n_b, n_orb, 3 * n_orb)  # [a, s, N, (j, M)]
        # the greater chain's first factor is the greater G, its trailing one the lesser G, and vice versa
        for g1_arr, g2_arr, out in zip(g.data[::-1], g.data, chains.data[::-1]):
            # m2[a, s, j, S, t, M] = (dH[a, s, j] G2[t, f(a, s)])[M, S]
            _take_rows(g2_arr, m2_read, nmap.idx[lo:hi], g2_nb)
            np.copyto(g2_rows, g2_nb.transpose(1, 2, 4, 0, 3))
            np.matmul(g2_rows.reshape(u, n_b, -1, n_orb), m2_cols, out=formed.reshape(u, n_b, -1, 3 * n_orb))
            np.copyto(m2, formed.transpose(0, 1, 4, 2, 3, 5))
            # windows[a, Q, (q, w), t, M] = G1[(k + q) mod n_kz, E + off(w), a][Q, M] at point t
            _take_rows(g1_arr, g1_read, np.arange(lo, hi), g1_nb)
            np.copyto(g1_cols[:u, :, :n_g1], g1_nb.transpose(1, 2, 0, 3))
            np.take(g1_cols[:u], windows_at, axis=2, out=windows, mode="clip")
            # D^T[a, (s, j, S), (Q, q, w)] = sum_{t, M} m2[a, s, j, S, t, M] windows[a, Q, (q, w), t, M]
            np.matmul(m2.reshape(u, 3 * n_b * n_orb, -1), windows.reshape(u, n_orb * n_qw, -1).transpose(0, 2, 1),
                      out=d[:u].reshape(u, 3 * n_b * n_orb, -1))
            counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_t * 3 * n_b * u, stage="pi.m2")
            counter.add_matmul(3 * n_b * n_orb, n_t * n_orb, n_qw * n_orb, repeat=u, stage="pi.trace")
            # traces[a, s, i, j, (q, w)] = sum_{S, Q} dH[a, s, i][S, Q] D^T[a, s, j, S, Q, (q, w)]
            np.copyto(d_pairs[:u].reshape(u, n_b, n_orb, n_orb, 3, n_qw),
                      d[:u].reshape(u, n_b, 3, n_orb, n_orb, n_qw).transpose(0, 1, 3, 4, 2, 5))
            np.matmul(dh_rows[lo:hi], d_pairs[:u], out=traces[:u].reshape(u, n_b, 3, -1))
            np.copyto(out.reshape(n_qw, n_a, n_b, 3, 3)[:, lo:hi], traces[:u].transpose(4, 0, 1, 2, 3))
    return chains


def sse_pi_chains(
    g: GreensTensor,
    dh: Array,
    nmap: NeighborMap,
    grid: EnergyGrid,
    n_qz: int,
    counter: FlopCounter | None = None,
    hoist_invariant: bool | None = None,
    point_mask: Array | None = None,
    atom_range: tuple[int, int] | None = None,
) -> GreensTensor:
    """Per-(q,w,a,b,i,j) trace chains of the phonon self-energy, before signs: a lesser/greater pair with n_B slots.

    chain[q,w,a,s,i,j] = w_E * sum_{k,E} tr( dH_i G^{><}[k+q, E+off, a]
    dH_j G^{<>}[k,E,b] ); the first factor of the greater chain comes from
    the greater tensor and the trailing one from the lesser tensor, and vice
    versa.  ``point_mask`` restricts the (k,E) reduction and ``atom_range``
    the produced atoms (both used by the distributed schemes); as in
    :func:`sse_sigma`, G may be a slice holding every neighbor of the range.

    ``hoist_invariant`` picks one of three arrangements with equal values.
    ``False`` recomputes both dH G factors for every (q, omega), the
    arrangement of the straightforward flop model.  ``True`` computes the
    momentum/frequency-independent dH_j G factor once per (a,b), the
    arrangement of the reduced model.  The default ``None``
    (:func:`_per_atom_chains`) forms no dH_i G factor: it contracts one
    window of G1 per atom with dH_j G2 in one GEMM, then with dH_i, and
    tallies the reduced model's Pi count.  ``counter`` tallies the GEMMs; a
    new one is used when none is given.
    """
    if g.kind != "electron":
        raise ValueError("sse_pi_chains expects the electron Green's tensor")
    n_kz, n_e, n_a, n_orb, _ = g.shape
    n_w = grid.n_w
    counter = counter if counter is not None else FlopCounter()
    atoms = _atom_range(atom_range, nmap, n_a)
    mask = _point_mask(point_mask, (n_kz, n_e))
    if hoist_invariant is None:
        chains = _per_atom_chains(g, dh, nmap, grid, n_qz, counter, mask, atoms)
    else:
        chains = GreensTensor.zeros((n_qz, n_w, n_a, nmap.n_B, 3, 3))
        for a, s in product(atoms, range(nmap.n_B)):
            b = int(nmap.idx[a, s])
            dh_ab = dh[a, s]
            for g1_arr, g2_arr, out in zip(g.data[::-1], g.data, chains.data[::-1]):
                g2 = g2_arr[:, :, b] * mask[:, :, None, None]
                m2 = None
                if hoist_invariant:
                    m2 = np.einsum("jPQ,keQM->kejPM", dh_ab, g2)
                    counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="pi.m2")
                for q, w in product(range(n_qz), range(n_w)):
                    off = grid.frequency_map[w][0]
                    g1s = shifted_grid(g1_arr[:, :, a], -q, -off)
                    m1 = np.einsum("iPQ,keQM->keiPM", dh_ab, g1s)
                    counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="pi.m1")
                    if not hoist_invariant:
                        m2 = np.einsum("jPQ,keQM->kejPM", dh_ab, g2)
                        counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="pi.m2")
                    out[q, w, a, s] = np.einsum("keiPM,kejMP->ij", m1, m2)
    # the energy-integral weight, common to every arrangement
    chains.data *= grid.energy_weight
    return chains


def pi_from_chains(chains: GreensTensor) -> GreensTensor:
    """Assemble the slot-layout phonon self-energy from trace chains.

    The diagonal (self) slot carries -i times the neighbor sum; each
    neighbor slot carries +i times its own chain.
    """
    n_qz, n_w, n_a, n_b = chains.shape[:4]
    pi = GreensTensor.wrap(np.empty((2, n_qz, n_w, n_a, n_b + 1, 3, 3), np.complex128))
    np.multiply(-1j, chains.data.sum(axis=4), out=pi.data[:, :, :, :, 0])
    np.multiply(1j, chains.data, out=pi.data[:, :, :, :, 1:])
    return pi


def sse_pi(
    g: GreensTensor,
    dh: Array,
    nmap: NeighborMap,
    grid: EnergyGrid,
    n_qz: int,
    counter: FlopCounter | None = None,
    hoist_invariant: bool | None = None,
) -> GreensTensor:
    """Phonon self-energy: diagonal slot per the -i trace sum, neighbor slots per +i."""
    return pi_from_chains(sse_pi_chains(g, dh, nmap, grid, n_qz, counter=counter, hoist_invariant=hoist_invariant))


@dataclass
class LoopResult:
    """Outcome of the self-consistent GF/SSE iteration."""

    g_electron: GreensTensor
    g_phonon: GreensTensor
    sigma: GreensTensor
    pi: GreensTensor
    iterations: int
    converged: bool
    deltas: list[float]
    abs_deltas: list[float]
    diverged: bool = False


def seeded_self_energies(params: SimParams, scale: float) -> tuple[GreensTensor, GreensTensor]:
    """Deterministic nonzero starting self-energies.

    The plain algorithm starts from zero, whose fixed point under the
    absorbing boundary is the all-zero lesser/greater sector; seeding the
    diagonal with +-i*scale produces a relaxation trajectory worth logging.
    """
    sigma = GreensTensor.zeros(params.electron_shape)
    pi = GreensTensor.zeros(params.phonon_shape)
    signs = np.array([1j * scale, -1j * scale]).reshape(2, 1, 1, 1, 1, 1)  # lesser +i, greater -i
    sigma.data[...] = signs * np.eye(params.n_orb)
    pi.data[:, :, :, :, 0] = signs * np.eye(params.n_3D)
    return sigma, pi


def self_consistent_loop(
    dev: DeviceMatrices,
    nmap: NeighborMap,
    params: SimParams,
    grid: EnergyGrid | None = None,
    max_iter: int = 20,
    tol: float = 1e-8,
    variant: SseVariant = DEFAULT_VARIANT,
    solver: str = DEFAULT_SOLVER,
    initial_sigma: GreensTensor | None = None,
    initial_pi: GreensTensor | None = None,
) -> LoopResult:
    """Alternate GF and SSE phases until the electron GF stops moving.

    Starts from zero self-energies unless seeds are given; stops once the
    max relative change of G^<> between consecutive GF passes is within
    ``tol``, or after ``max_iter`` iterations (reported as non-converged,
    distinct from solver failures which raise).  An iterate with non-finite
    entries, or ``DIVERGENCE_PASSES`` growing passes in a row, stops the
    loop as non-converged and ``diverged``.  The retarded inputs of
    every GF pass are derived from the lesser/greater pair.  Sigma runs in
    ``variant`` (by default the batched-fused arrangement, the fastest that
    passes the equivalence tests) and Pi in its default, per-atom form.
    """
    grid = grid if grid is not None else default_grid(params)
    sigma = initial_sigma if initial_sigma is not None else GreensTensor.zeros(params.electron_shape)
    pi = initial_pi if initial_pi is not None else GreensTensor.zeros(params.phonon_shape)
    g_e = g_ph = None
    prev: GreensTensor | None = None
    deltas: list[float] = []
    abs_deltas: list[float] = []
    growing = 0
    for iteration in range(1, max_iter + 1):
        g_e, g_ph = gf_phase(dev, sigma, pi, params, grid, nmap, solver=solver)
        if not (g_e.all_finite() and g_ph.all_finite()):
            return LoopResult(g_e, g_ph, sigma, pi, iteration, False, deltas, abs_deltas, diverged=True)
        if prev is not None:
            diff, delta = g_e.change_from(prev)
            deltas.append(delta)
            abs_deltas.append(diff)
            if delta <= tol:
                return LoopResult(g_e, g_ph, sigma, pi, iteration, True, deltas, abs_deltas)
            growing = growing + 1 if len(abs_deltas) > 1 and diff > abs_deltas[-2] and delta > 1 else 0
            if growing >= DIVERGENCE_PASSES:
                return LoopResult(g_e, g_ph, sigma, pi, iteration, False, deltas, abs_deltas, diverged=True)
        prev = g_e
        dc = preprocess_D(g_ph, nmap)
        # Pi first: its small output, not Sigma's, is then held through the other phase's transients
        pi = sse_pi(g_e, dev.dH, nmap, grid, params.n_qz)
        sigma = sse_sigma(SseVariant(variant), g_e, dc, dev.dH, nmap, grid)
    return LoopResult(g_e, g_ph, sigma, pi, max_iter, False, deltas, abs_deltas)
