"""Green's function solves: the full-matrix oracle and the loop's dense and RGF paths.

Every (E, k_z) electron point solves ``(E S - H - Sigma^R + i eta I) G^R = I``
and ``G^<> = G^R Sigma^<> G^A`` with the advanced function stored as the plain
transpose of the retarded one; every solver takes it from ``_advanced``.
Phonon points solve the analogous system with ``omega^2 I`` in place of
``E S``.

The device holds S, H and Phi as diagonal bands (``DeviceMatrices``).
``gf_phase`` rebuilds each momentum's S, H or Phi whole from its band, one
momentum at a time (solver ``"dense"``), or runs on the device's RGF plan
(``"rgf"``, ``_rgf_plan``): built by the first RGF phase for a (device,
``bnum``, neighbor map) from one scan of each band (``_extents``) and kept
with the device, it holds each kind's slot index and every momentum's
``_tridiagonal_band``, cut from the band, so no RGF phase or plan builds an
n x n matrix and later phases read no S, H or Phi entry (``DeviceMatrices``
keeps them read-only).  Every point's system is
assembled in one place, ``point_system``.  The loop keeps only the
atom-diagonal blocks of G^<> and the self/neighbor slots of D^<>, so its
three point solves form nothing else:

- ``solve_point_dense_diag`` (dense electrons) forms only the diagonal
  blocks of G^R Sigma^<> (G^R)^T, O(n^2 n_orb) each.
- ``solve_phonon_point`` (dense phonons) forms D^R Pi^<> once and then only
  the slot blocks of D^R Pi^<> (D^R)^T.
- ``solve_point_rgf`` (both kinds) runs one block-tridiagonal recursion
  (``_rgf_pass``) and builds no n x n matrix.  ``bnum`` is the device's
  partition, and the recursion refines it: ``_rgf_blocks`` cuts each of its
  blocks into the thinnest equal sub-blocks that the couplings keep
  block-tridiagonal, of at least ``RGF_MIN_EDGE`` rows (on gf-long 64
  electron blocks of 8 rows and 32 phonon blocks of 12, where ``bnum`` has
  16 of 32 and 24), since the recursion's work per point grows as the
  square of the block edge.  The couplings reach only a few atoms across a
  block boundary, so every coupling block is zero outside a c x c corner
  of whole atoms (4 of 8 rows on gf-long's electrons), derived once per
  momentum and plan (``_coupling_corner``).  The band
  (``_tridiagonal_band``) holds, per block, the diagonal block and the c
  columns on either side that hold the corners, and every product with a
  coupling block runs on its corner.  Both kinds' slots go into a zero
  source by one rule (``_rgf_source``) and are picked back out of it:
  Sigma's atom blocks into the diagonal blocks alone, and Pi's slots, some
  across a block boundary, into a band of the same corner, so the
  recursion also forms the corners of D^<>'s neighbor blocks where they
  lie.  ``gf_phase`` passes the RGF points of one momentum in chunks, a
  leading batch axis sized by ``RGF_BUDGET`` by the same rule, and the
  recursion works in the chunk's band and source.  A gf-long phonon chunk
  of two points takes about 6 ms (8 ms over ``bnum``'s blocks, side by
  side), against 58 ms for one dense point (one BLAS thread).

``solve_point_dense``, the electron oracle, keeps its own assembly: one
n x n solve and two full n^3 triple products.

Every per-atom block moves into or out of a block matrix through one
``SlotIndex`` and three primitives, ``add_slots``, ``place_slots`` and
``pick_slots``: the atom-diagonal blocks of G and Sigma and the phonon slots
of D and Pi, in the full matrix and in the RGF band alike (the full matrix
is the band of one block without a corner).  ``slot_index`` derives an
index once, and ``_depth`` is the one rule that turns its slots, and the
scan's row extents, into corners.

Every lesser/greater pair is one ``GreensTensor``, stored as one ``[2, ...]``
array, and the loop's solvers take and return their pair stacked the same
way, so each pair operation is written once over the pair axis.  Every
solve, each RGF block solve included, is residual-checked and raises
``SingularSystemError`` naming its point; the RGF recursion checks all of a
chunk's blocks in one check after its forward sweep.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .device import DeviceMatrices, NeighborMap, band_window, from_band
from .params import EnergyGrid, SimParams

Array = np.ndarray

_RESIDUAL_LIMIT = 1e-8

SOLVERS = ("dense", "rgf")
# Bytes one chunk of RGF points holds (gf_phase): its bands and its lesser/greater sources (_rgf_source).
RGF_BUDGET = 3 << 20
# The fewest rows of a block the RGF recursion is cut to (_rgf_blocks): thinner blocks cost more numpy calls
# than the flops they save (gf_phase on gf-long: 0.20 s at 4 rows, 0.15-0.16 s at 8, 0.27 s at 32; CHANGES.md).
RGF_MIN_EDGE = 8
# Shared by gf_phase, sse.self_consistent_loop and `negflow simulate --solver`;
# it picks the path of the electron and the phonon points alike.  Neither
# solver is faster everywhere (gf_phase with seeded self-energies, best of 7
# in CPU seconds, one BLAS thread; best of 2 for dense on gf-long;
# CHANGES.md): RGF wins on desk-32 (0.076 s against 0.43 s), desk-32 wide
# (0.11 against 0.59 s), gf-long (0.16 against 6.9 s) and small (0.010
# against 0.019 s); dense wins on tiny (0.0029 against 0.0040 s).
# The benchmark's harness self-check reads this default to pick the
# tolerance it breaks on purpose, so any switch waits for the next benchmark
# change.
DEFAULT_SOLVER = "dense"


class SingularSystemError(RuntimeError):
    """Raised when a Green's function system cannot be solved reliably."""


class GreensTensor:
    """Lesser/greater pair of Green's functions or of self-energies, stored as one array.

    ``data`` is one complex128 array ``[2, ...]``: index 0 is the lesser
    tensor, index 1 the greater one, and ``lesser``/``greater`` are views of
    it, so every pair operation runs once over the pair axis.
    ``GreensTensor(lesser, greater)`` copies its two inputs into a new
    ``data`` once; :meth:`wrap` holds an already stacked array without a
    copy.  Both tensors share one layout, so one type holds every SSE tensor
    alike.  Electron (G, Sigma): ``[n_kz, n_E, n_A, n_orb, n_orb]``
    (per-atom diagonal blocks).  Phonon, in one of two slot layouts: D and
    Pi are ``[n_qz, n_w, n_A, n_B+1, n_3D, n_3D]`` with slot 0 the self
    block and slots 1..n_B the neighbor blocks in neighbor-map order; the
    preprocessed D (``sse.preprocess_D``) and the Pi trace chains
    (``sse.sse_pi_chains``) have the n_B neighbor slots only.
    """

    __slots__ = ("data",)

    def __init__(self, lesser: Array, greater: Array):
        if np.shape(lesser) != np.shape(greater):
            raise ValueError(f"lesser/greater shape mismatch: {np.shape(lesser)} vs {np.shape(greater)}")
        data = np.empty((2, *np.shape(lesser)), np.complex128)
        data[0], data[1] = lesser, greater
        self._hold(data)

    @classmethod
    def wrap(cls, data: Array) -> "GreensTensor":
        """The pair stacked in ``data`` (``[2, ...]``, 0 = lesser, 1 = greater), held without a copy."""
        pair = cls.__new__(cls)
        pair._hold(data)
        return pair

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> "GreensTensor":
        """A zero pair of tensors of ``shape`` each (``SimParams.electron_shape`` or ``phonon_shape``)."""
        return cls.wrap(np.zeros((2, *shape), np.complex128))

    def _hold(self, data: Array) -> None:
        if data.shape[0] != 2 or data.ndim not in (6, 7):
            raise ValueError("expected a 5-D electron or 6-D phonon tensor")
        self.data = data

    @property
    def lesser(self) -> Array:
        return self.data[0]

    @property
    def greater(self) -> Array:
        return self.data[1]

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of each of the two tensors."""
        return self.data.shape[1:]

    @property
    def kind(self) -> str:
        return "electron" if self.data.ndim == 6 else "phonon"

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))

    def change_from(self, old: "GreensTensor") -> tuple[float, float]:
        """(absolute, relative) max change of the lesser/greater pair from ``old``, relative to old's largest entry."""
        scale = max(float(np.max(np.abs(old.data))), 1e-300)
        diff = float(np.max(np.abs(self.data - old.data)))
        return diff, diff / scale


def _retarded(lg: Array) -> Array:
    """Elementwise (greater - lesser) / 2 of a stacked pair ``[2, ...]`` (0 = lesser, 1 = greater)."""
    return (lg[1] - lg[0]) / 2.0


def retarded_from_lesser_greater(se: GreensTensor) -> Array:
    """Elementwise (greater - lesser) / 2."""
    return _retarded(se.data)


def _advanced(x: Array) -> Array:
    """Advanced counterpart of retarded blocks (and of system blocks in the products): the plain transpose."""
    return x.swapaxes(-1, -2)


class SlotIndex(NamedTuple):
    """Where every slot sits in a target of ``blocks`` block rows (``slot_index``).

    Slot (a, s) couples atom ``row[a, s]`` = a to the atom ``col[a, s]``
    atoms after the first atom of a's block row: negative in the block row's
    left neighbor, past its atoms in its right one.  ``blocks`` is None for
    the full matrix, the band of one block with no corner, where ``col`` is
    the partner itself.  ``depth`` is how many atoms from a block boundary
    the deepest slot lies (``_depth``), so a band of that corner holds them.
    """

    row: Array
    col: Array
    blocks: int | None
    depth: int


def _depth(local: Array, first: Array, last: Array, size: int) -> Array:
    """How deep into a coupling block's corner each row or atom reaches, 0 inside its block.

    ``local`` is its place in its block of ``size``, and ``first`` and
    ``last`` its farthest partners counted from the block's start.  A partner
    in the block before needs a corner ``local + 1`` deep and ``-first``
    back; one in the block after, ``size - local`` deep and ``last - size +
    1`` into it.  Row extents (``_extents``) and slots share this one rule.
    """
    return np.maximum(np.where(first < 0, np.maximum(local + 1, -first), 0),
                      np.where(last >= size, np.maximum(size - local, last - size + 1), 0))


def slot_index(partners: Array, bnum: int | None = None) -> SlotIndex:
    """The block of every slot (a, s), which couples atom a to atom ``partners[a, s]``.

    Partners ``arange(n_A)[:, None]`` give the atom-diagonal blocks, and
    ``NeighborMap.partners`` the phonon slots.  Without ``bnum`` the target is
    the full matrix, [n_A, m, n_A, m] as blocks.  With it, the target is a band
    of ``_tridiagonal_band``; ``ValueError`` unless every partner lies in its
    atom's block or an adjacent one, i.e. the slots are block-tridiagonal.
    """
    n_a = partners.shape[0]
    if n_a % (bnum or 1) != 0:
        raise ValueError(f"{n_a} atoms not divisible into {bnum} blocks")
    per_block = n_a // (bnum or 1)
    rows = np.broadcast_to(np.arange(n_a)[:, None], partners.shape)
    reach = int(np.max(np.abs(partners - rows)))
    if reach > per_block:
        raise ValueError(
            f"neighbor reach {reach} exceeds the {per_block} atoms of a block: "
            f"Pi is not block-tridiagonal under {bnum} blocks"
        )
    local = rows % per_block
    offset = partners - rows + local
    return SlotIndex(rows, offset, bnum, int(np.max(_depth(local, offset, offset, per_block), initial=0)))


def _slot_blocks(target: Array, index: SlotIndex) -> tuple[Array, Array, Array]:
    """``target`` as a view [..., n_A, cols, m, m] of its blocks, and the row and column of every slot in it.

    A band ``[..., blocks, e, c + e + c]`` (``_tridiagonal_band``) is viewed
    as its block rows' atoms against the c/m atoms before each diagonal
    block, its e/m and the c/m after it, and the full matrix as the band of
    one block with c = 0; ``ValueError`` unless every slot across a block
    boundary lies in its coupling block's c x c corner.
    """
    n_a = index.row.shape[0]
    m = target.shape[-2] * (index.blocks or 1) // n_a
    gap = target.shape[-1] - target.shape[-2]
    corner, rest = divmod(gap, 2 * m)  # the corner in atoms
    if rest or index.depth > corner:
        raise ValueError(f"a band corner of {gap // 2} rows does not hold every slot in whole atoms of {m}: "
                         f"a slot reaches {index.depth} atoms deep")
    lead = target.shape[: -2 if index.blocks is None else -3]
    return target.reshape(*lead, n_a, m, -1, m, copy=False).swapaxes(-3, -2), index.row, index.col + corner


def add_slots(target: Array, slots: Array, index: SlotIndex) -> Array:
    """Add ``slots`` [..., n_A, S, m, m] onto their blocks of ``target``, in place; returns ``target``.

    A block that two slots share (a chain end lists a neighbor twice) gets
    only the last of them, here and in ``place_slots``: both write through
    one fancy index of ``_slot_blocks``, and numpy applies repeated
    fancy-index writes in order, though it does not promise to.  These two
    writes are where the duplicate rule lives (ROADMAP item 1 (d)).
    """
    blocks, rows, cols = _slot_blocks(target, index)
    blocks[..., rows, cols, :, :] += slots
    return target


def place_slots(slots: Array, index: SlotIndex, shape: tuple[int, ...] | None = None) -> Array:
    """``slots`` [..., n_A, S, m, m] written into a new zero target: a band of ``shape``, or the full matrix [..., n, n].

    They land as ``add_slots`` adds them, but writing gathers no copy of the
    zeros first, as an add onto them would.
    """
    n = slots.shape[-4] * slots.shape[-1]
    target = np.zeros(shape or (*slots.shape[:-4], n, n), np.complex128)
    blocks, rows, cols = _slot_blocks(target, index)
    blocks[..., rows, cols, :, :] = slots
    return target


def pick_slots(target: Array, index: SlotIndex) -> Array:
    """The blocks of ``target`` that the slots keep, as a new [..., n_A, S, m, m] array."""
    blocks, rows, cols = _slot_blocks(target, index)
    return blocks[..., rows, cols, :, :]


def _defect_sums(a: Array, inverse: Array, out: Array | None = None) -> Array:
    """sum |a a^-1 - I|^2 of every matrix of a stack [..., n, n], as complex [...] (into ``out`` if given).

    The residual ||a a^-1 - I||_F / ||I||_F is the square root of its real
    part over n.
    """
    n = a.shape[-1]
    defect = (a @ inverse).reshape(*a.shape[:-2], n * n)
    defect[..., :: n + 1] -= 1.0
    return np.vecdot(defect, defect, out=out)  # without a temporary of |defect|^2


def _residual_error(name: str, residual: float) -> SingularSystemError:
    return SingularSystemError(f"{name}: solve residual {residual:.3e} too large (eta too small?)")


def _solve_system(a: Array, context: str | Sequence[str]) -> Array:
    """Inverse of ``a`` [n, n], or of every matrix of a stack [P, n, n] with one ``context`` per matrix.

    Each inverse is rejected unless ||a a^-1 - I||_F / ||I||_F <= _RESIDUAL_LIMIT;
    a failing stack raises for its first failing matrix, named by its context.
    """
    n = a.shape[-1]
    try:
        g_r = np.linalg.inv(a)  # the same LU solve against I as np.linalg.solve, bit for bit
    except np.linalg.LinAlgError as exc:
        if a.ndim == 2:
            raise SingularSystemError(f"{context}: singular system ({exc})") from exc
        for matrix, name in zip(a, context):  # the stack's first singular (or failing) matrix raises
            _solve_system(matrix, name)
        raise
    residual = np.sqrt(_defect_sums(a, g_r).real / n)
    failing = np.flatnonzero(~(residual <= _RESIDUAL_LIMIT))  # NaN fails too
    if failing.size:
        p = failing[0]
        raise _residual_error(context if a.ndim == 2 else context[p], residual.flat[p])
    return g_r


def solve_point_dense(
    dev: DeviceMatrices,
    sigma_r: Array,
    sigma_lesser: Array,
    sigma_greater: Array,
    energy: float,
    kz: int,
    eta: float,
) -> tuple[Array, Array, Array]:
    """Dense solve of one electron (E, k_z) point; the full-matrix oracle.

    Returns full matrices (G^R, G^<, G^>) with G^<> = G^R Sigma^<> (G^R)^T.
    S and H are rebuilt whole from the device's bands (``from_band``).
    """
    n = dev.H.shape[1]
    a = energy * from_band(dev.S[kz]) - from_band(dev.H[kz]) - sigma_r + 1j * eta * np.eye(n)
    g_r = _solve_system(a, f"electron point (kz={kz}, E={energy:g})")
    g_a = _advanced(g_r)
    g_lesser = g_r @ sigma_lesser @ g_a
    g_greater = g_r @ sigma_greater @ g_a
    return g_r, g_lesser, g_greater


def point_system(
    shift: float | Array, mass: Array | None, stiffness: Array, self_r: Array, index: SlotIndex, eta: float
) -> Array:
    """The system ``shift M - K - self^R + i eta I`` of one point, or of a batch of points, new.

    Electrons pass (E, S, H); phonons (omega^2, None, Phi), None standing for
    M = I: -Phi with omega^2 added on the diagonal.  M and K are full
    matrices or bands of one corner (``_tridiagonal_band``).  A scalar
    ``shift`` gives one system in the layout of ``stiffness``; a shift per
    point [P] gives P of them, [P, ...], and ``self_r`` then leads with the
    same P.  ``self_r`` goes onto the matrix or the band by ``index``.
    """
    lead = np.shape(shift)  # () for one point, (P,) for a batch
    if mass is None:
        a = np.negative(np.broadcast_to(stiffness, lead + stiffness.shape))
    else:
        a = np.reshape(shift, lead + (1,) * stiffness.ndim) * mass
        a -= stiffness
    diagonal = np.einsum("...ii->...i", _diagonal_blocks(a))  # a view, writable, of the band's strided blocks too
    if mass is None:
        diagonal += np.reshape(shift, lead + (1,) * (stiffness.ndim - 1))
    add_slots(a, -self_r, index)
    diagonal += 1j * eta
    return a


def solve_point_dense_diag(a: Array, sigma_lg: Array, context: str) -> Array:
    """Dense solve of one electron point, keeping only the atom-diagonal G^<> blocks.

    ``a`` is the point's n x n system (``point_system``), and ``sigma_lg``
    the stacked lesser/greater pair of per-atom blocks ``[2, n_A, o, o]``.
    Because Sigma is block-diagonal per atom, block (a, a) of
    G^R Sigma (G^R)^T is sum_c G^R[a, c] Sigma_c G^R[a, c]^T: one batched
    product over the column blocks of G^R and one over its row blocks,
    O(n^2 o) each instead of n^3.  Returns the stacked ``[2, n_A, o, o]``
    blocks of G^< and G^>.
    """
    _, n_a, o, _ = sigma_lg.shape
    n = n_a * o
    g_r = _solve_system(a, context)
    cols = g_r.reshape(n, n_a, o).transpose(1, 0, 2)  # column blocks G^R[:, c]
    rows_t = _advanced(g_r.reshape(n_a, o, n))  # row blocks G^R[a, :], transposed
    g_sigma = np.empty((n, n_a, o), np.complex128)  # G^R Sigma, written column block by column block
    g_lg = np.empty((2, n_a, o, o), np.complex128)
    # one tensor at a time: a buffer for both (2 n^2 entries) enlarges what each point frees at the heap
    # top, and past glibc's trim threshold every point faults its memory in afresh (ROADMAP item 5 (h))
    for sig, blocks in zip(sigma_lg, g_lg):
        np.matmul(cols, sig, out=g_sigma.transpose(1, 0, 2))
        np.matmul(g_sigma.reshape(n_a, o, n), rows_t, out=blocks)
    return g_lg


def solve_phonon_point(a: Array, pi_lg: Array, nmap: NeighborMap, context: str) -> tuple[Array, Array]:
    """Dense solve of one phonon (omega, q_z) point.

    ``a`` is the point's n x n system (``point_system``), and ``pi_lg``
    stacks the full Pi^< and Pi^> matrices ``[2, n, n]``.  Returns the full
    D^R matrix and the stacked D^< and D^> already in the slot layout
    ``[2, n_A, n_B+1, n_3D, n_3D]``.  D^R Pi^<> is formed once; of
    D^R Pi^<> (D^R)^T only the self and neighbor blocks the slots keep are
    computed, as row block a of D^R Pi^<> times row block b of D^R.
    """
    d_r = _solve_system(a, context)
    n, n_a = a.shape[0], nmap.n_A
    m = n // n_a
    rows = d_r.reshape(n_a, m, n)
    slots = np.empty((2, n_a, nmap.n_B + 1, m, m), np.complex128)
    # one tensor and one slot at a time, so only one D^R Pi^<> and one gathered copy of D^R's rows are alive
    for pi_x, out in zip(pi_lg, slots):
        d_pi = (d_r @ pi_x).reshape(n_a, m, n)
        for s, b in enumerate(nmap.partners.T):
            out[:, s] = d_pi @ _advanced(rows[b])
    return d_r, slots


def _tridiagonal_band(band: Array, bnum: int, corner: int) -> Array:
    """The block rows ``[bnum, m, c + m + c]`` of an n x n matrix under ``bnum`` blocks, cut to a corner c.

    The matrix comes as its diagonal band ``[n, 2w + 1]`` (``device.to_band``).
    Row i holds diagonal block (i, i) between c columns on either side: the
    last c of block (i, i-1) before it and the first c of block (i, i+1) after
    it, zero outside the matrix and the band; ``_rgf_pass`` reads only the c x
    c corners of those side columns, in the first and the last c rows.  The
    RGF plan (``_rgf_plan``) cuts each momentum's S, H or Phi band through it
    once, with the momentum's corner (``_coupling_corner``), so no RGF point
    or plan builds an n x n matrix.
    """
    n = band.shape[0]
    if n % bnum != 0:
        raise ValueError(f"matrix edge {n} not divisible into {bnum} blocks")
    m = n // bnum
    # every row's columns from c before its block row's diagonal block to c after it
    return band_window(band, np.arange(n) // m * m - corner, m + 2 * corner).reshape(bnum, m, m + 2 * corner)


def _diagonal_blocks(band: Array) -> Array:
    """The diagonal blocks ``[..., bnum, m, m]`` of bands ``[..., bnum, m, c + m + c]``, as a view.

    A full matrix, the band of one block with c = 0, is its own.
    """
    m = band.shape[-2]
    c = (band.shape[-1] - m) // 2
    return band[..., c : c + m]


def _extents(band: Array) -> Array:
    """The first and the last nonzero column of every row of a matrix, ``[2, n]``; (n, -1) for a zero row.

    The matrix comes as its diagonal band ``[n, 2w + 1]`` (``device.to_band``).

    The RGF plan scans each momentum's S, H and Phi band through this once,
    and derives both the sub-blocks (``_rgf_blocks``) and the corners
    (``_coupling_corner``) from what it returns.
    """
    n, width = band.shape
    # real and imaginary parts apart, as floats: far faster to test than complex entries
    nonzero = band.view(np.float64) != 0
    first, last = np.argmax(nonzero, axis=1), 2 * width - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    zero = ~nonzero[np.arange(n), first]  # argmax finds no nonzero in a zero row
    extents = np.stack((first, last)) // 2 + np.arange(n) - width // 2  # band cells to columns
    extents[:, zero] = ((n,), (-1,))
    return extents


def _coupling_corner(extents: Sequence[Array], blocks: int, atom: int, depth: int = 0) -> int:
    """The smallest corner edge c, in whole atoms of ``atom`` rows, that holds every coupling nonzero and slot.

    ``extents`` are one momentum's row extents (``_extents``) of S and H, or
    of Phi, under ``blocks`` blocks.  Block (i, i+1) must be zero outside its
    last c rows and first c columns, block (i+1, i) outside its first c rows
    and last c columns (``_depth`` of each row), and slots ``depth`` atoms
    deep (``SlotIndex``) need that many atoms.  Full coupling blocks give
    c = m, and one block gives 0.  The RGF plan derives c once per momentum.
    """
    n = extents[0].shape[-1]
    rows = np.arange(n)
    local = rows % (n // blocks)
    rows_deep = max(int(np.max(_depth(local, first - rows + local, last - rows + local, n // blocks)))
                    for first, last in extents)
    return max(-(-rows_deep // atom), depth) * atom


def _rgf_blocks(extents: dict[str, Sequence[Array]], n_a: int, bnum: int, reach: int = 0) -> int:
    """The number of blocks the RGF recursion runs over: each of ``bnum``'s blocks cut into equal sub-blocks of r atoms.

    ``extents`` names the row extents (``_extents``) of every momentum's
    matrices of one particle kind, ``{"S": ..., "H": ...}`` or ``{"Phi":
    ...}``, and ``reach`` is the atom reach of Pi's slots.  r is the smallest
    divisor of n_A / bnum that is at least the largest atom distance of any
    nonzero of the matrices, couplings inside a block included, and of
    ``reach``, and whose blocks have at least ``RGF_MIN_EDGE`` rows; the
    sub-blocks are then block-tridiagonal too.  Without such a divisor the
    blocks are not cut.  ``ValueError`` if a matrix couples atoms more than
    one block apart, which no band of ``bnum`` blocks holds.
    """
    per_block = n_a // bnum
    block = np.arange(n_a) // per_block
    for name, scans in extents.items():
        atom = scans[0].shape[-1] // n_a
        # an atom's farthest partners on either side, at any momentum, are its rows' first and last
        first = np.min([scan[0] for scan in scans], axis=0).reshape(n_a, atom).min(axis=1) // atom
        last = np.max([scan[1] for scan in scans], axis=0).reshape(n_a, atom).max(axis=1) // atom
        rows = np.flatnonzero(first <= last)  # an all-zero atom has no partner
        rows, cols = np.tile(rows, 2), np.concatenate((first[rows], last[rows]))
        apart = np.abs(block[rows] - block[cols])
        if np.any(apart > 1):
            far = np.argmax(apart)
            a, b = sorted((rows[far], cols[far]))
            raise ValueError(f"{name} couples atoms {a} and {b}, {apart[far]} blocks apart: "
                             f"{name} is not block-tridiagonal under {bnum} blocks")
        reach = max(reach, int(np.max(np.abs(rows - cols), initial=0)))
    r = next((r for r in range(1, per_block) if per_block % r == 0 and r >= reach and r * atom >= RGF_MIN_EDGE),
             per_block)
    return n_a // r


def _rgf_source(band_shape: tuple[int, ...], index: SlotIndex) -> tuple[int, ...]:
    """The shape of one tensor of the RGF source that ``index``'s slots go into, over bands of ``band_shape``.

    The band's own shape when a slot lies across a block boundary
    (``index.depth > 0``: Pi's), else its diagonal blocks ``[..., blocks, m,
    m]`` (Sigma's).  ``solve_point_rgf`` builds and ``gf_phase`` sizes by it.
    """
    return band_shape if index.depth else (*band_shape[:-1], band_shape[-2])


def _rgf_pass(a: Array, q: Array, contexts: Sequence[str]) -> tuple[Array, Array]:
    """One forward/backward recursion over the blocks of ``a X = I`` with source ``X Q X^T``, for P points at once.

    ``a`` stacks the points' bands ``[P, bnum, m, c + m + c]`` of one corner
    c (``_tridiagonal_band``): every coupling block of ``a`` and ``q`` is zero
    outside its c x c corner, and the recursion reads nothing else of it.
    ``contexts`` names each point.  ``q`` stacks the lesser/greater source
    (``_rgf_source``): its diagonal blocks ``[2, P, bnum, m, m]``, or a band
    ``[2, P, bnum, m, c + m + c]`` that also holds blocks across the block
    boundaries.  The forward sweep builds the left-connected blocks g_i and
    their lesser/greater XL_i = g_i (Q_i + inflow) g_i^T by Schur
    complements; the backward sweep, with W = g_i U_i, forms the diagonal
    blocks of X and of X Q X^T, and for a band source also the corners of
    its neighbor blocks.

    Every block solve is residual-checked at every point, as ``_solve_system``
    checks, but in one check after the forward sweep: each block's residual
    sums are kept, and the first block that fails raises, at its first failing
    point.  A singular block i raises on the spot, after blocks 0..i-1 are
    checked, so a failure is named as a check at every block would name it.
    The error text, ``RGF forward pass, block i (context)``, is formed only
    then.

    Each product with a coupling block runs on its corner: the Schur
    complement and the inflow change only a c x c corner of block i, and W,
    G_{i+1} D_{i+1} and their product keep c columns.  A block costs its
    solve, its residual check and two m^3 products per tensor, and O(m^2 c)
    besides; the source's corner terms run for a band source only.

    The recursion works in ``a`` and ``q``: the diagonal blocks of ``a``
    become g_i and then X's, and ``q`` becomes X Q X^T in its own layout.
    A source block is read before the block of X Q X^T that replaces it is
    written.  Returns X's diagonal blocks (the view ``_diagonal_blocks(a)``)
    and X Q X^T (``q``).
    """
    n_points, bnum, m = a.shape[:3]
    c = (a.shape[-1] - m) // 2
    defects = np.empty((bnum, n_points), np.complex128)  # each block's sum |a a^-1 - I|^2 at every point

    def check(blocks: int) -> None:
        """Raise for the first of the first ``blocks`` blocks whose residual fails, at its first failing point."""
        residual = np.sqrt(defects[:blocks].real / m)
        failing = np.argwhere(~(residual <= _RESIDUAL_LIMIT))  # block by block, point by point; NaN fails too
        if failing.size:
            i, p = failing[0]
            raise _residual_error(f"RGF forward pass, block {i} ({contexts[p]})", residual[i, p])

    corners = q.shape[-1] > m
    head, tail = slice(None, c), slice(m - c, None)  # a block's first and last c rows or columns
    x_r, x_lg = _diagonal_blocks(a), _diagonal_blocks(q)  # system and source blocks, then g_i and XL_i, then X's
    up, down = a[..., tail, c + m :], a[..., head, :c]  # corners of blocks (i, i+1) and (i, i-1)
    q_up, q_down = q[..., tail, c + m :], q[..., head, :c]  # read only when the source has corners

    for i in range(bnum):
        block = x_r[:, i]
        if i > 0:
            d = down[:, i]
            dg = d @ x_r[:, i - 1, tail, tail]  # D_i g_{i-1}, the corner that meets U_{i-1} and Q_{i-1,i}
            block[:, head, head] -= dg @ up[:, i - 1]
            inflow = d @ x_lg[:, :, i - 1, tail, tail] @ _advanced(d)
            if corners:  # Q's neighbor blocks: -D g_{i-1} Q_{i-1,i} - Q_{i,i-1} (D g_{i-1})^T
                inflow -= dg @ q_up[:, :, i - 1] + q_down[:, :, i] @ _advanced(dg)
            x_lg[:, :, i, head, head] += inflow
        try:
            g = np.linalg.inv(block)  # the same LU solve as _solve_system's
        except np.linalg.LinAlgError:
            check(i)  # a block before i fails first
            for matrix, context in zip(block, contexts):  # block i's first singular (or failing) point raises
                _solve_system(matrix, f"RGF forward pass, block {i} ({context})")
            raise
        _defect_sums(block, g, out=defects[i])
        x_r[:, i] = g
        x_lg[:, :, i] = g @ x_lg[:, :, i] @ _advanced(g)
    check(bnum)

    for i in range(bnum - 2, -1, -1):
        g, g_lg = x_r[:, i], x_lg[:, :, i]  # g_i and XL_i, replaced last
        after, after_lg = x_r[:, i + 1], x_lg[:, :, i + 1]  # X_{i+1} and its lesser/greater
        w = g[..., tail] @ up[:, i]  # W = g_i U_i: its first c columns
        gd = after[..., head] @ down[:, i + 1]  # G_{i+1} D_{i+1}: its last c columns
        v = w @ gd[..., head, :]  # W G_{i+1} D_{i+1}: its last c columns
        wx = w @ after_lg[..., head, head]  # W X_{i+1}: its first c columns
        update = wx @ _advanced(w) + v @ g_lg[..., tail, :] + g_lg[..., tail] @ _advanced(v)
        if corners:
            right = g[..., tail] @ q_up[:, :, i] @ _advanced(after[..., head, head])  # g_i Q_{i,i+1} G_{i+1}^T
            left = after[..., head, head] @ q_down[:, :, i + 1] @ _advanced(g[..., tail])  # G_{i+1} Q_{i+1,i} g_i^T
            update -= right @ _advanced(w) + w @ left  # right's first c columns, left's first c rows
            # the corners of X_{i,i+1} = (g_i Q_{i,i+1} - XL_i D_i^T) G_{i+1}^T - W X_{i+1} and of its mirror
            q_up[:, :, i] = right[..., tail, :] - g_lg[..., tail, tail] @ _advanced(gd[..., head, :]) - wx[..., tail, :]
            q_down[:, :, i + 1] = (left[..., tail] - gd[..., head, :] @ g_lg[..., tail, tail]
                                   - after_lg[..., head, head] @ _advanced(w[..., tail, :]))
        g_lg += update
        g += v @ g[..., tail, :]
    return x_r, q


def solve_point_rgf(a: Array, self_lg: Array, index: SlotIndex, context: Sequence[str]) -> tuple[Array, Array]:
    """RGF pass over the bands ``a`` of a chunk of points, with the stacked lesser/greater ``self_lg`` as source.

    A chunk of P points passes ``a`` as ``[P, bnum, m, c + m + c]``,
    ``self_lg`` as ``[2, P, n_A, S, o, o]`` slots of ``index`` and one
    context per point (a single point is a chunk of one).  Sigma's atom
    blocks and Pi's slots alike are placed into a zero source
    (``_rgf_source``: a band of ``a``'s corner only when a slot lies across
    a block boundary) and picked back out of the result.  The recursion
    overwrites ``a``.  Returns the diagonal blocks of the retarded solution
    ``[P, bnum, m, m]``, a view of ``a``, and the lesser/greater slots
    ``[2, P, n_A, S, o, o]``.
    """
    source = place_slots(self_lg, index, (2, *_rgf_source(a.shape, index)))
    x_r, x_lg = _rgf_pass(a, source, context)
    return x_r, pick_slots(x_lg, index)


class _Layout(NamedTuple):
    """How one particle kind's points are solved on a device: its slot index and its momenta's matrices.

    ``index`` is the ``slot_index`` its self-energy goes in by, and for RGF
    ``matrices[k]`` momentum k's (S, H) or (Phi,) as bands of the momentum's
    corner (``_tridiagonal_band``, ``_coupling_corner``) over
    ``index.blocks`` blocks, read-only; None for dense, which rebuilds each
    momentum's matrices whole as it reaches them.
    """

    index: SlotIndex
    matrices: tuple[tuple[Array, ...], ...] | None


# Each device's RGF layouts of both particle kinds, by (bnum, the neighbor map), kept for the device's lifetime.
# gf_phase takes the device, not a plan (ROADMAP item 15), so the plans live here, keyed by the device itself
# (DeviceMatrices hashes by identity), never by an id() that a new object may reuse.
_RGF_PLANS: weakref.WeakKeyDictionary[DeviceMatrices, dict[tuple, tuple[_Layout, _Layout]]] = (
    weakref.WeakKeyDictionary()
)


def _rgf_plan(dev: DeviceMatrices, bnum: int, nmap: NeighborMap) -> tuple[_Layout, _Layout]:
    """The electron and phonon RGF layouts of ``dev`` under ``bnum`` blocks and ``nmap``'s slots, derived once.

    The first call for a (device, ``bnum``, neighbor map) scans each
    momentum's S, H and Phi band once (``_extents``), cuts each kind's blocks
    (``_rgf_blocks``), which raises ``ValueError`` for S, H or Phi coupling
    atoms more than one block apart, builds its slot index (``slot_index``:
    ``ValueError`` unless Pi is block-tridiagonal), and derives every
    momentum's corner and RGF bands from the scan, cut from the device's
    bands; no n x n matrix is built.  Later calls read no S, H or
    Phi entry: the device's matrices are read-only (``DeviceMatrices``), so
    the plan cannot go stale.
    """
    plans = _RGF_PLANS.setdefault(dev, {})
    key = (bnum, nmap.idx.shape, nmap.idx.tobytes())
    if key not in plans:
        n_a = nmap.n_A
        scans = {name: [_extents(mat) for mat in getattr(dev, name)] for name in ("S", "H", "Phi")}
        # the blocks of each kind's recursion, both cut (and checked) before any band is read
        e_blocks = _rgf_blocks({"S": scans["S"], "H": scans["H"]}, n_a, bnum)
        ph_blocks = _rgf_blocks({"Phi": scans["Phi"]}, n_a, bnum, nmap.max_reach)

        def bands(names: tuple[str, ...], k: int, index: SlotIndex) -> tuple[Array, ...]:
            mats = [getattr(dev, name)[k] for name in names]
            corner = _coupling_corner([scans[name][k] for name in names], index.blocks, mats[0].shape[-2] // n_a,
                                      index.depth)
            cut = tuple(_tridiagonal_band(mat, index.blocks, corner) for mat in mats)
            for band in cut:
                band.setflags(write=False)
            return cut

        e_index, ph_index = slot_index(np.arange(n_a)[:, None], e_blocks), slot_index(nmap.partners, ph_blocks)
        plans[key] = (_Layout(e_index, tuple(bands(("S", "H"), k, e_index) for k in range(len(dev.S)))),
                      _Layout(ph_index, tuple(bands(("Phi",), q, ph_index) for q in range(len(dev.Phi)))))
    return plans[key]


def gf_phase(
    dev: DeviceMatrices,
    sigma: GreensTensor,
    pi: GreensTensor,
    params: SimParams,
    grid: EnergyGrid,
    nmap: NeighborMap,
    solver: str = DEFAULT_SOLVER,
) -> tuple[GreensTensor, GreensTensor]:
    """Fill the electron and phonon Green's tensors, one chunk of a momentum's points at a time.

    ``solver`` picks the path of both particle kinds, ``"dense"`` or
    ``"rgf"`` (see the module docstring); both produce the same atom-diagonal
    G blocks and D slots.  One ``SlotIndex`` per particle kind serves all of
    its points.  ``"rgf"`` runs on the device's plan (``_rgf_plan``), built
    on the first RGF call for the device, ``params.bnum`` and ``nmap`` and
    kept with the device: each kind's sub-blocks of the ``params.bnum``
    blocks (``_rgf_blocks``), its slot index and each momentum's corner and
    bands.  Building it raises ``ValueError`` before any solve when S, H or
    Phi couples atoms more than one ``bnum`` block apart (``_rgf_blocks``)
    or Pi is not block-tridiagonal under ``params.bnum`` blocks
    (``slot_index``); later calls read no S, H or Phi entry.  The dense path
    builds no plan and rebuilds each momentum's matrices whole from the
    device's bands, one momentum at a time.  A dense chunk
    is one point; an RGF chunk is as many consecutive energies (or
    frequencies) as ``RGF_BUDGET`` holds of what the chunk holds per point:
    its band and its lesser/greater source, by the rule the solve builds the
    source by (``_rgf_source``: the diagonal blocks for electrons, a band
    for phonons).  It is assembled, solved and copied into the output as one
    batch.  Points are independent: each (k_z, E) and (q_z, omega) solve
    writes a disjoint tensor slice, so evaluation order cannot change the
    result.  Retarded self-energies are always derived from the
    lesser/greater pair, one chunk at a time.  A failing solve names its
    point once: k_z, iE and E, or q_z, iw and omega; a chunk names the first
    of its points that fails at the first failing block.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    rgf, eta = solver == "rgf", params.eta
    if rgf:
        electrons, phonons = _rgf_plan(dev, params.bnum, nmap)
    else:
        electrons = _Layout(slot_index(np.arange(params.n_A)[:, None]), None)
        phonons = _Layout(slot_index(nmap.partners), None)

    def chunks(n_points: int, band: Array, index: SlotIndex) -> list[range]:
        """Runs of consecutive points: one for dense; for RGF as many as ``RGF_BUDGET`` holds of a point's band and
        lesser/greater source (``_rgf_source``)."""
        point_bytes = band.nbytes + 2 * band.itemsize * math.prod(_rgf_source(band.shape, index))
        step = max(1, RGF_BUDGET // point_bytes) if rgf else 1
        return [range(start, min(start + step, n_points)) for start in range(0, n_points, step)]

    g_e = GreensTensor.zeros(params.electron_shape)
    g_ph = GreensTensor.zeros(params.phonon_shape)

    for kz in range(params.n_kz):
        # the plan's bands, or for dense the momentum's matrices rebuilt whole from the device's bands
        s, h = electrons.matrices[kz] if rgf else (from_band(dev.S[kz]), from_band(dev.H[kz]))
        for run in chunks(params.n_E, s, electrons.index):
            points = slice(run.start, run.stop)
            contexts = [f"electron point (kz={kz}, iE={i_e}, E={grid.values[i_e]:g})" for i_e in run]
            sig_lg = sigma.data[:, kz, points, :, None]  # one slot per atom, [2, P, n_A, 1, o, o]
            # the chunk's Sigma^R only, and freed once it is in the system, not held through the recursion: a whole
            # momentum's (1 MiB on gf-long) would stay alive beside the chunk's band and G^<> and raise the phase's peak
            sig_r = _retarded(sig_lg)
            a = point_system(grid.values[points], s, h, sig_r, electrons.index, eta)
            del sig_r
            if rgf:
                g_lg = solve_point_rgf(a, sig_lg, electrons.index, contexts)[1][..., 0, :, :]
            else:
                g_lg = solve_point_dense_diag(a[0], sig_lg[:, 0, :, 0], contexts[0])[:, None]
            g_e.data[:, kz, points] = g_lg
            del a, g_lg  # not held into the next chunk's assembly

    for qz in range(params.n_qz):
        (phi,) = phonons.matrices[qz] if rgf else (from_band(dev.Phi[qz]),)
        for run in chunks(params.n_w, phi, phonons.index):
            points = slice(run.start, run.stop)
            omegas = [grid.frequency_value(i_w) for i_w in run]
            contexts = [f"phonon point (qz={qz}, iw={i_w}, omega={omega:g})" for i_w, omega in zip(run, omegas)]
            pi_lg = pi.data[:, qz, points]
            a = point_system(np.array([omega**2 for omega in omegas]), None, phi, _retarded(pi_lg), phonons.index, eta)
            if rgf:
                g_ph.data[:, qz, points] = solve_point_rgf(a, pi_lg, phonons.index, contexts)[1]
            else:
                # the retarded solution is dropped at once rather than held into the next solve
                d_lg = solve_phonon_point(a[0], place_slots(pi_lg[:, 0], phonons.index), nmap, contexts[0])[1]
                g_ph.data[:, qz, points] = d_lg[:, None]
            del a
    for pair in (g_e, g_ph):
        # batched small products can round an exact zero to -0.0; adding +0.0
        # keeps a zero state's bytes (and its digest) the same on every path
        pair.data += 0.0
    return g_e, g_ph
