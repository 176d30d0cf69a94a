"""Electron-phonon scattering self-energy kernels, in equivalent variants.

The electron self-energy accumulates, for every point of the 8-D space
(k_z, E, q_z, omega, i, j, a, b),

    Sigma[k,E,a] += (G[k-q, E-off(w), f(a,b)] @ dH[a,b,i])
                    @ (dH[a,b,j] * Dc[q,w,a,b,i,j])

scaled by the imaginary prefactor and the frequency weight, where Dc is the
preprocessed four-term phonon combination.  The phonon self-energy reduces
trace chains of the same blocks over (k_z, E).  Five algorithmically
equivalent arrangements of the Sigma kernel trace the optimization chain
from the straightforward map to the batched, fused form, and Pi comes in
three forms that differ in which dH G factors are hoisted.  All of them
share a single boundary-handling helper, :class:`ShiftGather`, so they agree
by construction on how momentum wraps and how off-grid energy offsets drop
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Iterable

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


def to_atom_major(arr: Array) -> Array:
    """[k, E, a, ...] -> [a, k, E, ...]; a lossless permutation."""
    return np.ascontiguousarray(np.moveaxis(arr, 2, 0))


def to_grid_major(arr: Array) -> Array:
    """[a, k, E, ...] -> [k, E, a, ...]; inverse of :func:`to_atom_major`."""
    return np.ascontiguousarray(np.moveaxis(arr, 0, 2))


@lru_cache(maxsize=512)
def _shift_plan(n_kz: int, n_e: int, e_shifts: tuple[int, ...], q_shift: int, window_last: bool):
    """Zero padding of the energy axis and the gather index of :class:`ShiftGather`, cached."""
    shifts = np.clip(np.array(e_shifts, dtype=np.int64), -n_e, n_e)
    before = max(int(shifts.max(initial=0)), 0)
    n_pad = before + n_e + max(-int(shifts.min(initial=0)), 0)
    k_index = (np.arange(n_kz) - q_shift) % n_kz
    e_index = np.arange(n_e)[None, :] - shifts[:, None] + before
    index = k_index[:, None, None] * n_pad + e_index[None]  # [k, w, E] into the merged (k, padded E) axis
    index = np.ascontiguousarray(index.transpose((0, 2, 1) if window_last else (1, 0, 2)))
    index.setflags(write=False)
    return before, n_pad, index


class ShiftGather:
    """Every energy window of a ``[..., k, E, ...]`` array, gathered by index.

    The single boundary-handling site shared by every kernel and both use
    sites (E - omega for Sigma, E + omega for Pi via negated shifts):
    momentum wraps periodically, while entries whose shifted energy falls off
    the grid are zero, which is arithmetically identical to dropping those
    terms from the accumulation.

    The momentum and energy axes sit at ``axis`` and ``axis + 1`` of
    ``shape``.  :meth:`load` copies an array into a buffer zero-padded along
    E, once; :meth:`windows` then returns, in one indexed copy, every window
    for one momentum shift ``q``: window ``w`` holds the loaded array at
    ``[(k - q) mod n_kz, E - e_shifts[w]]``.  The window axis goes right
    before the momentum axis, or right after the energy axis with
    ``window_last``.  Both buffers are reused: a returned window stack is
    valid until the next :meth:`windows` call.
    """

    def __init__(self, shape: tuple[int, ...], e_shifts: Iterable[int], axis: int = 0, window_last: bool = False):
        self.shape = tuple(shape)
        self._e_shifts = tuple(int(e) for e in e_shifts)
        self.n_windows = len(self._e_shifts)
        self._n_kz, self._n_e = shape[axis], shape[axis + 1]
        self._axis, self._window_last = axis, window_last
        before, n_pad, _ = _shift_plan(self._n_kz, self._n_e, self._e_shifts, 0, window_last)
        self._padded = np.zeros(shape[:axis] + (self._n_kz, n_pad) + shape[axis + 2 :], dtype=np.complex128)
        self._interior = (slice(None),) * (axis + 1) + (slice(before, before + self._n_e),)
        self._merged = self._padded.reshape(shape[:axis] + (-1,) + shape[axis + 2 :])
        self._out: Array | None = None

    def load(self, arr: Array) -> "ShiftGather":
        self._padded[self._interior] = arr
        return self

    def windows(self, q_shift: int) -> Array:
        index = _shift_plan(self._n_kz, self._n_e, self._e_shifts, q_shift % self._n_kz, self._window_last)[2]
        self._out = np.take(self._merged, index, axis=self._axis, out=self._out, mode="clip")
        return self._out


def shifted_grid(arr: Array, q_shift: int, e_shift: int) -> Array:
    """Array indexed at ``[(k - q_shift) mod n_kz, E - e_shift, ...]``: one window of :class:`ShiftGather`."""
    return ShiftGather(arr.shape, (e_shift,)).load(arr).windows(q_shift)[0]


@dataclass(frozen=True)
class CombinedD:
    """Preprocessed phonon input: per-(q,w,a,b,i,j) scalar combination."""

    lesser: Array
    greater: Array

    def __post_init__(self):
        if self.lesser.shape != self.greater.shape or self.lesser.ndim != 6:
            raise ValueError("combined phonon tensor must be a matching 6-D pair")


def preprocess_D(d: GreensTensor, nmap: NeighborMap) -> CombinedD:
    """Four-term combination D_ba - D_bb - D_aa + D_ab for b = f(a,s).

    Consumes the slot-layout phonon tensor; the reverse (b -> a) blocks are
    looked up through the neighbor map, which therefore must be
    reverse-closed (devices from :func:`negflow.device.synthesize` are).
    """
    if d.kind != "phonon":
        raise ValueError("preprocess_D expects a phonon tensor")
    n_a = nmap.n_A
    if d.lesser.shape[2] != n_a or d.lesser.shape[3] != nmap.n_B + 1:
        raise ValueError(
            f"missing neighbor slot: tensor has {d.lesser.shape[3] - 1} slots for {nmap.n_B} neighbors"
        )
    b = nmap.idx
    rev = nmap.reverse_slot_table()

    def combine(arr: Array) -> Array:
        d_ab = arr[:, :, :, 1:]
        d_aa = arr[:, :, :, :1]
        d_bb = arr[:, :, b, 0]
        d_ba = arr[:, :, b, 1 + rev]
        return d_ba - d_bb - d_aa + d_ab

    return CombinedD(lesser=combine(d.lesser), greater=combine(d.greater))


def _default_qws_order(n_qz: int, n_w: int, n_b: int) -> list[tuple[int, int, int]]:
    return list(product(range(n_qz), range(n_w), range(n_b)))


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


def sse_sigma_reference(
    g: GreensTensor,
    dc: CombinedD,
    dh: Array,
    nmap: NeighborMap,
    grid: EnergyGrid,
    counter: FlopCounter | None = None,
    qws_order: Iterable[tuple[int, int, int]] | None = None,
    atom_range: tuple[int, int] | None = None,
) -> GreensTensor:
    """Straightforward kernel: one conceptual map over the full 8-D space.

    Loops run over (q_z, omega, b) in ascending order (the documented
    deterministic reduction chunking) with the (k_z, E) sub-space batched;
    per point, the j-contraction is folded into one matrix per i before the
    two GEMMs.  ``atom_range`` as in :func:`sse_sigma`.
    """
    n_kz, n_e, n_a, n_orb, _ = g.lesser.shape
    n_qz, n_w = dc.lesser.shape[:2]
    atoms = _atom_range(atom_range, nmap, n_a)
    order = list(qws_order) if qws_order is not None else _default_qws_order(n_qz, n_w, nmap.n_B)
    out_l = np.zeros_like(g.lesser)
    out_g = np.zeros_like(g.greater)
    for q, w, s in order:
        off, weight = grid.frequency_map[w]
        for a in atoms:
            b = int(nmap.idx[a, s])
            dh_ab = dh[a, s]
            for g_arr, dc_arr, out in ((g.lesser, dc.lesser, out_l), (g.greater, dc.greater, out_g)):
                gs = shifted_grid(g_arr[:, :, b], q, off)
                dhg = np.einsum("keMP,iPN->keiMN", gs, dh_ab)
                xi = _xi_block(dc_arr[q, w, a, s], dh_ab, weight)
                out[:, :, a] += np.einsum("keiMP,iPN->keMN", dhg, xi)
                if counter is not None:
                    counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.dhg")
                    counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.accumulate")
    return GreensTensor(lesser=1j * out_l, greater=1j * out_g)


def _fissioned_stage1(
    g_arr: Array, dh: Array, nmap: NeighborMap, n_qz: int, n_w: int, counter: FlopCounter | None,
    atoms: range | None = None,
) -> Array:
    """Map-fission transient: dHG with the (q,w) dimensions kept, for ``atoms`` (default: all).

    The removed-later dimensions hold literally identical copies, since the
    momentum/frequency offsets are applied at the consumption site; that is
    exactly the redundancy the next transformation eliminates.
    """
    n_kz, n_e, _, n_orb, _ = g_arr.shape
    n_b = nmap.n_B
    atoms = atoms if atoms is not None else range(nmap.n_A)
    dhg = np.empty((n_qz, n_w, len(atoms), n_b, n_kz, n_e, 3, n_orb, n_orb), dtype=np.complex128)
    for q in range(n_qz):
        for w in range(n_w):
            for i_a, a in enumerate(atoms):
                for s in range(n_b):
                    b = int(nmap.idx[a, s])
                    dhg[q, w, i_a, s] = np.einsum("keMP,iPN->keiMN", g_arr[:, :, b], dh[a, s])
                    if counter is not None:
                        counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.dhg")
    return dhg


def _sigma_fissioned(g, dc, dh, nmap, grid, counter, atoms: range) -> GreensTensor:
    n_kz, n_e, _, n_orb, _ = g.lesser.shape
    n_qz, n_w = dc.lesser.shape[:2]
    outs = []
    for g_arr, dc_arr in ((g.lesser, dc.lesser), (g.greater, dc.greater)):
        # Map 1: dHG transient (with redundant q,w dims).  Map 2: dHD scalars.
        dhg = _fissioned_stage1(g_arr, dh, nmap, n_qz, n_w, counter, atoms)
        dhd = np.empty((n_qz, n_w, len(atoms), nmap.n_B, 3, 3, n_orb, n_orb), dtype=np.complex128)
        for q in range(n_qz):
            for w in range(n_w):
                weight = grid.frequency_map[w][1]
                for i_a, a in enumerate(atoms):
                    for s in range(nmap.n_B):
                        dhd[q, w, i_a, s] = weight * np.einsum("ij,jMN->ijMN", dc_arr[q, w, a, s], dh[a, s])
        # Map 3: fold j, shift the transient, accumulate.
        out = np.zeros_like(g_arr)
        for q in range(n_qz):
            for w in range(n_w):
                off = grid.frequency_map[w][0]
                for i_a, a in enumerate(atoms):
                    for s in range(nmap.n_B):
                        xi = dhd[q, w, i_a, s].sum(axis=1)
                        out[:, :, a] += np.einsum(
                            "keiMP,iPN->keMN", shifted_grid(dhg[q, w, i_a, s], q, off), xi
                        )
                        if counter is not None:
                            counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.accumulate")
        outs.append(1j * out)
    return GreensTensor(lesser=outs[0], greater=outs[1])


def _redundancy_removed_stage1(
    g_arr: Array, dh: Array, nmap: NeighborMap, counter, fused: bool, atoms: range | None = None
) -> Array:
    """dHG for ``atoms`` (default: all) without the (q,w) dimensions; optionally one fused GEMM per (a,b,i)."""
    n_kz, n_e, _, n_orb, _ = g_arr.shape
    n_b = nmap.n_B
    atoms = atoms if atoms is not None else range(nmap.n_A)
    dhg = np.empty((len(atoms), n_b, n_kz, n_e, 3, n_orb, n_orb), dtype=np.complex128)
    for i_a, a in enumerate(atoms):
        for s in range(n_b):
            b = int(nmap.idx[a, s])
            if fused:
                flat = g_arr[:, :, b].reshape(n_kz * n_e * n_orb, n_orb)
                for i in range(3):
                    dhg[i_a, s, :, :, i] = (flat @ dh[a, s, i]).reshape(n_kz, n_e, n_orb, n_orb)
                    if counter is not None:
                        counter.add_matmul(n_kz * n_e * n_orb, n_orb, n_orb, stage="sigma.dhg")
            else:
                dhg[i_a, s] = np.einsum("keMP,iPN->keiMN", g_arr[:, :, b], dh[a, s])
                if counter is not None:
                    counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.dhg")
    return dhg


def _sigma_redundancy_removed(
    g, dc, dh, nmap, grid, counter, atoms: range, fused_stage1: bool, atom_major: bool
) -> GreensTensor:
    n_kz, n_e, n_a, n_orb, _ = g.lesser.shape
    n_qz, n_w = dc.lesser.shape[:2]
    outs = []
    for g_arr, dc_arr in ((g.lesser, dc.lesser), (g.greater, dc.greater)):
        src = to_grid_major(to_atom_major(g_arr)) if atom_major else g_arr
        dhg = _redundancy_removed_stage1(src, dh, nmap, counter, fused=fused_stage1, atoms=atoms)
        acc_shape = (n_a, n_kz, n_e, n_orb, n_orb) if atom_major else g_arr.shape
        out = np.zeros(acc_shape, dtype=np.complex128)
        for q in range(n_qz):
            for w in range(n_w):
                off, weight = grid.frequency_map[w]
                for i_a, a in enumerate(atoms):
                    for s in range(nmap.n_B):
                        xi = _xi_block(dc_arr[q, w, a, s], dh[a, s], weight)
                        update = np.einsum("keiMP,iPN->keMN", shifted_grid(dhg[i_a, s], q, off), xi)
                        if atom_major:
                            out[a] += update
                        else:
                            out[:, :, a] += update
                        if counter is not None:
                            counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="sigma.accumulate")
        outs.append(1j * (to_grid_major(out) if atom_major else out))
    return GreensTensor(lesser=outs[0], greater=outs[1])


def _sigma_batched_fused(g, dc, dh, nmap, grid, counter, atoms: range) -> GreensTensor:
    """Final form: per-(a,b) transients, fused GEMMs for both stages.

    Stage 1 computes dHG once per (a,b) as one (n_orb n_kz n_E)-tall GEMM
    against the three dH_i side by side, in the row order [M, k, E].
    Stage 2 gathers every omega window of dHG for one q_z at once
    (:class:`ShiftGather`; zero rows stand in for off-grid energies) and
    realizes the accumulation as one
    (n_orb n_kz n_E) x (n_w 3 n_orb) x n_orb GEMM per (a, b, q_z).
    """
    n_kz, n_e, _, n_orb, _ = g.lesser.shape
    n_qz, n_w = dc.lesser.shape[:2]
    rows, depth = n_orb * n_kz * n_e, n_w * 3 * n_orb
    weights = np.asarray(grid.weights)[:, None, None, None]
    gather = ShiftGather((n_orb, n_kz, n_e, 3 * n_orb), grid.offsets, axis=1, window_last=True)
    acc = np.empty((rows, n_orb), dtype=np.complex128)
    outs = []
    for g_arr, dc_arr in ((g.lesser, dc.lesser), (g.greater, dc.greater)):
        out = np.empty_like(g_arr)
        out[:, :, : atoms.start] = 0
        out[:, :, atoms.stop :] = 0
        for a in atoms:
            acc.fill(0)
            for s in range(nmap.n_B):
                b = int(nmap.idx[a, s])
                dh_ab = dh[a, s]
                # dHG[M, k, E, (i, P)] = G[k, E, b][M, Q] dH_i[Q, P]
                g_rows = g_arr[:, :, b].transpose(2, 0, 1, 3).reshape(rows, n_orb)
                gather.load((g_rows @ dh_ab.transpose(1, 0, 2).reshape(n_orb, 3 * n_orb)).reshape(gather.shape))
                xi = weights * np.einsum("qwij,jPN->qwiPN", dc_arr[:, :, a, s], dh_ab)
                if counter is not None:
                    counter.add_matmul(rows, n_orb, n_orb, repeat=3, stage="sigma.dhg")
                for q in range(n_qz):
                    acc += gather.windows(q).reshape(rows, depth) @ xi[q].reshape(depth, n_orb)
                    if counter is not None:
                        counter.add_matmul(rows, depth, n_orb, stage="sigma.accumulate")
            out[:, :, a] = acc.reshape(n_orb, n_kz, n_e, n_orb).transpose(1, 2, 0, 3)
        out *= 1j
        outs.append(out)
    return GreensTensor(lesser=outs[0], greater=outs[1])


def sse_sigma(
    variant: SseVariant,
    g: GreensTensor,
    dc: CombinedD,
    dh: Array,
    nmap: NeighborMap,
    grid: EnergyGrid,
    counter: FlopCounter | None = None,
    atom_range: tuple[int, int] | None = None,
) -> GreensTensor:
    """Electron self-energy in the requested kernel arrangement.

    ``atom_range`` restricts the produced atoms, as in :func:`sse_pi_chains`:
    Sigma is computed for those atoms only and is zero elsewhere.  G may
    then be a slice of the device, as long as it holds every neighbor of
    the range (a neighbor index outside G's atom axis raises ``ValueError``).
    """
    if g.kind != "electron":
        raise ValueError("sse_sigma expects an electron tensor")
    if dc.lesser.shape[2:4] != (nmap.n_A, nmap.n_B):
        raise ValueError("combined phonon tensor does not match the neighbor map")
    if variant is SseVariant.REFERENCE:
        return sse_sigma_reference(g, dc, dh, nmap, grid, counter=counter, atom_range=atom_range)
    atoms = _atom_range(atom_range, nmap, g.lesser.shape[2])
    if variant is SseVariant.FISSIONED:
        return _sigma_fissioned(g, dc, dh, nmap, grid, counter, atoms)
    if variant is SseVariant.REDUNDANCY_REMOVED:
        return _sigma_redundancy_removed(g, dc, dh, nmap, grid, counter, atoms, fused_stage1=False, atom_major=False)
    if variant is SseVariant.LAYOUT_TRANSFORMED:
        return _sigma_redundancy_removed(g, dc, dh, nmap, grid, counter, atoms, fused_stage1=True, atom_major=True)
    if variant is SseVariant.BATCHED_FUSED:
        return _sigma_batched_fused(g, dc, dh, nmap, grid, counter, atoms)
    raise ValueError(f"unknown variant {variant!r}")


def _fully_hoisted_chains(
    g1: Array, g2: Array, dh_ab: Array, gather: ShiftGather, n_qz: int, counter: FlopCounter | None
) -> Array:
    """[q, w, i, j] trace chains of one (a,b) pair, both dH G factors computed once.

    The (k, E) shift commutes with left multiplication, so dH_i G1 is
    shifted after the product: m1 and m2 take one tall GEMM each, and each
    q contracts the gathered windows of m1 against m2 in one
    (n_w 3) x (n_kz n_E n_orb^2) x 3 GEMM, an orb^2-class trace that is not
    tallied.
    """
    n_kz, n_e, n_orb, _ = g1.shape
    rows = n_kz * n_e * n_orb
    dh_cols = dh_ab.transpose(2, 0, 1).reshape(n_orb, 3 * n_orb)  # [Q, (i, P)] = dH_i[P, Q]
    # [k, E, M, i, P] = (dH_i G1)[P, M], loaded as [i, k, E, M, P]
    m1 = g1.transpose(0, 1, 3, 2).reshape(rows, n_orb) @ dh_cols
    gather.load(m1.reshape(n_kz, n_e, n_orb, 3, n_orb).transpose(3, 0, 1, 2, 4))
    # [k, E, P, j, M] = (dH_j G2)[M, P], laid out as [(k, E, M, P), j]
    m2 = g2.transpose(0, 1, 3, 2).reshape(rows, n_orb) @ dh_cols
    m2 = m2.reshape(n_kz, n_e, n_orb, 3, n_orb).transpose(0, 1, 4, 2, 3).reshape(-1, 3)
    if counter is not None:
        counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="pi.m1")
        counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="pi.m2")
    n_w = gather.n_windows
    chains = np.empty((n_qz, n_w, 3, 3), dtype=np.complex128)
    for q in range(n_qz):
        # windows [i, w, k, E, M, P] hold m1 at [k + q, E + off(w)]
        chains[q] = (gather.windows(-q).reshape(3 * n_w, -1) @ m2).reshape(3, n_w, 3).transpose(1, 0, 2)
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
) -> tuple[Array, Array]:
    """Per-(q,w,a,b,i,j) trace chains of the phonon self-energy, before signs.

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
    arrangement of the reduced model.  The default ``None`` hoists the first
    factor as well (:func:`_fully_hoisted_chains`), the arrangement of
    :func:`negflow.flops.sse_flops_fully_hoisted`.
    """
    n_kz, n_e, n_a, n_orb, _ = g.lesser.shape
    n_w = grid.n_w
    w_e = grid.energy_weight
    atoms = _atom_range(atom_range, nmap, n_a)
    chains_l = np.zeros((n_qz, n_w, n_a, nmap.n_B, 3, 3), dtype=np.complex128)
    chains_g = np.zeros_like(chains_l)
    mask = None
    if point_mask is not None:
        mask = np.asarray(point_mask, dtype=bool)
        if mask.shape != (n_kz, n_e):
            raise ValueError(f"point mask must have shape ({n_kz}, {n_e})")
    gather = None
    if hoist_invariant is None:
        gather = ShiftGather((3, n_kz, n_e, n_orb, n_orb), [-off for off in grid.offsets], axis=1)
    for a in atoms:
        for s in range(nmap.n_B):
            b = int(nmap.idx[a, s])
            dh_ab = dh[a, s]
            for g1_arr, g2_arr, chains in ((g.greater, g.lesser, chains_g), (g.lesser, g.greater, chains_l)):
                g2 = g2_arr[:, :, b]
                if mask is not None:
                    g2 = g2 * mask[:, :, None, None]
                if gather is not None:
                    chains[:, :, a, s] = w_e * _fully_hoisted_chains(g1_arr[:, :, a], g2, dh_ab, gather, n_qz, counter)
                    continue
                m2 = None
                if hoist_invariant:
                    m2 = np.einsum("jPQ,keQM->kejPM", dh_ab, g2)
                    if counter is not None:
                        counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="pi.m2")
                for q in range(n_qz):
                    for w in range(n_w):
                        off = grid.frequency_map[w][0]
                        g1s = shifted_grid(g1_arr[:, :, a], -q, -off)
                        m1 = np.einsum("iPQ,keQM->keiPM", dh_ab, g1s)
                        if counter is not None:
                            counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="pi.m1")
                        if not hoist_invariant:
                            m2 = np.einsum("jPQ,keQM->kejPM", dh_ab, g2)
                            if counter is not None:
                                counter.add_matmul(n_orb, n_orb, n_orb, repeat=n_kz * n_e * 3, stage="pi.m2")
                        chains[q, w, a, s] = w_e * np.einsum("keiPM,kejMP->ij", m1, m2)
    return chains_l, chains_g


def pi_from_chains(chains_lesser: Array, chains_greater: Array) -> GreensTensor:
    """Assemble the slot-layout phonon self-energy from trace chains.

    The diagonal (self) slot carries -i times the neighbor sum; each
    neighbor slot carries +i times its own chain.
    """
    n_qz, n_w, n_a, n_b = chains_lesser.shape[:4]
    out_shape = (n_qz, n_w, n_a, n_b + 1, 3, 3)
    out_l = np.empty(out_shape, dtype=np.complex128)
    out_g = np.empty(out_shape, dtype=np.complex128)
    for chains, out in ((chains_lesser, out_l), (chains_greater, out_g)):
        out[:, :, :, 0] = -1j * chains.sum(axis=3)
        out[:, :, :, 1:] = 1j * chains
    return GreensTensor(lesser=out_l, greater=out_g)


def sse_pi(
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
    """Phonon self-energy: diagonal slot per the -i trace sum, neighbor slots per +i."""
    if g.kind != "electron":
        raise ValueError("sse_pi expects the electron Green's tensor")
    chains_l, chains_g = sse_pi_chains(
        g, dh, nmap, grid, n_qz,
        counter=counter, hoist_invariant=hoist_invariant,
        point_mask=point_mask, atom_range=atom_range,
    )
    return pi_from_chains(chains_l, chains_g)


def count_sse_phase(
    g: GreensTensor,
    dc: CombinedD,
    dh: Array,
    nmap: NeighborMap,
    grid: EnergyGrid,
    n_qz: int,
    variant: SseVariant = SseVariant.REFERENCE,
) -> FlopCounter:
    """Run one full SSE evaluation (Sigma + Pi) with an attached GEMM counter.

    The reference and fissioned arrangements pair with the unhoisted Pi
    kernel (full recomputation, the straightforward-algorithm flop model);
    the redundancy-free arrangements pair with the hoisted one (the reduced
    model).
    """
    counter = FlopCounter()
    hoist = variant not in (SseVariant.REFERENCE, SseVariant.FISSIONED)
    sse_sigma(variant, g, dc, dh, nmap, grid, counter=counter)
    sse_pi(g, dh, nmap, grid, n_qz, counter=counter, hoist_invariant=hoist)
    return counter


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


def _gf_change(old: GreensTensor, new: GreensTensor) -> tuple[float, float]:
    """(absolute, relative) max change of the lesser/greater pair."""
    scale = max(float(np.max(np.abs(old.lesser))), float(np.max(np.abs(old.greater))), 1e-300)
    diff = max(
        float(np.max(np.abs(new.lesser - old.lesser))),
        float(np.max(np.abs(new.greater - old.greater))),
    )
    return diff, diff / scale


def seeded_self_energies(params: SimParams, scale: float) -> tuple[GreensTensor, GreensTensor]:
    """Deterministic nonzero starting self-energies.

    The plain algorithm starts from zero, whose fixed point under the
    absorbing boundary is the all-zero lesser/greater sector; seeding the
    diagonal with +-i*scale produces a relaxation trajectory worth logging.
    """
    sigma = GreensTensor.zeros_electron(params)
    pi = GreensTensor.zeros_phonon(params)
    eye_orb = np.eye(params.n_orb)
    sigma.lesser[:] = 1j * scale * eye_orb
    sigma.greater[:] = -1j * scale * eye_orb
    pi.lesser[:, :, :, 0] = 1j * scale * np.eye(params.n_3D)
    pi.greater[:, :, :, 0] = -1j * scale * np.eye(params.n_3D)
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
    passes the equivalence tests) and Pi in its default, fully hoisted form.
    """
    grid = grid if grid is not None else default_grid(params)
    sigma = initial_sigma if initial_sigma is not None else GreensTensor.zeros_electron(params)
    pi = initial_pi if initial_pi is not None else GreensTensor.zeros_phonon(params)
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
            diff, delta = _gf_change(prev, g_e)
            deltas.append(delta)
            abs_deltas.append(diff)
            if delta <= tol:
                return LoopResult(g_e, g_ph, sigma, pi, iteration, True, deltas, abs_deltas)
            growing = growing + 1 if len(abs_deltas) > 1 and diff > abs_deltas[-2] and delta > 1 else 0
            if growing >= DIVERGENCE_PASSES:
                return LoopResult(g_e, g_ph, sigma, pi, iteration, False, deltas, abs_deltas, diverged=True)
        prev = g_e
        dc = preprocess_D(g_ph, nmap)
        sigma = sse_sigma(SseVariant(variant), g_e, dc, dev.dH, nmap, grid)
        pi = sse_pi(g_e, dev.dH, nmap, grid, params.n_qz)
    return LoopResult(g_e, g_ph, sigma, pi, max_iter, False, deltas, abs_deltas)
