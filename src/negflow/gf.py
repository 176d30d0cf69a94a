"""Green's function solves: the full-matrix oracle and the loop's dense and RGF paths.

Every (E, k_z) electron point solves ``(E S - H - Sigma^R + i eta I) G^R = I``
and ``G^<> = G^R Sigma^<> G^A`` with the advanced function stored as the plain
transpose of the retarded one; every solver takes it from ``_advanced``.
Phonon points solve the analogous system with ``omega^2 I`` in place of
``E S``.

The loop keeps only the atom-diagonal blocks of G^<> and the self/neighbor
slots of D^<>, so it forms nothing else:

- ``solve_point_dense`` is the full-matrix oracle: one n x n solve and two
  full n^3 triple products.
- ``solve_point_dense_diag`` (solver ``"dense"``) makes the same n x n solve
  but forms only the diagonal blocks of the products, O(n^2 n_orb) each.
- ``solve_phonon_point`` (solver ``"dense"``, and the phonon oracle) forms
  D^R Pi^<> once and then only the slot blocks of D^R Pi^<> (D^R)^T.
- Solver ``"rgf"`` runs one block-tridiagonal recursion (``_rgf_pass``)
  over ``bnum`` blocks for both particle kinds, and builds no n x n matrix
  for either.  ``solve_point_rgf`` reads the tridiagonal blocks of E S - H
  straight from the device; Sigma is block-diagonal.
  ``solve_phonon_point_rgf`` reads those of Phi and adds Pi's slots into
  its tridiagonal blocks; the recursion then also forms the neighbor
  blocks of D^<>, and the slots are picked back out.  On gf-long a phonon
  point takes about a tenth of its dense time this way (7 ms against
  77 ms, one BLAS thread).

Every per-atom block moves into or out of a block matrix through one
``SlotIndex`` and three primitives, ``add_slots``, ``place_slots`` and
``pick_slots``: the atom-diagonal blocks of G and Sigma, the phonon slots of
D and Pi, in the full matrix and in the RGF band alike.

Every lesser/greater pair is one ``GreensTensor``, stored as one ``[2, ...]``
array, and the loop's solvers take and return their pair stacked the same
way, so each pair operation is written once over the pair axis.  Every
solve, each RGF block solve included, is residual-checked and raises
``SingularSystemError`` naming its point.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .device import DeviceMatrices, NeighborMap
from .params import EnergyGrid, SimParams

Array = np.ndarray

_RESIDUAL_LIMIT = 1e-8

SOLVERS = ("dense", "rgf")
# Shared by gf_phase, sse.self_consistent_loop and `negflow simulate --solver`;
# it picks the path of the electron and the phonon points alike.  Neither
# solver is faster everywhere (gf_phase, best of 7, one BLAS thread;
# CHANGES.md): RGF wins on desk-32 (0.28 s against 0.48 s), desk-32 wide
# (0.50 against 0.70 s) and gf-long (0.65 against 9.4 s), dense on tiny
# (0.005 against 0.015 s), and small is a tie (0.030 s).  The benchmark's
# harness self-check reads this default to pick the tolerance it breaks on
# purpose, so any switch waits for the next benchmark change.
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


def retarded_from_lesser_greater(se: GreensTensor) -> Array:
    """Elementwise (greater - lesser) / 2."""
    return (se.greater - se.lesser) / 2.0


def _advanced(x: Array) -> Array:
    """Advanced counterpart of retarded blocks (and of system blocks in the products): the plain transpose."""
    return x.swapaxes(-1, -2)


class SlotIndex(NamedTuple):
    """Where every slot sits in a target layout of blocks (``slot_index``).

    With the block edge m, the target is viewed as [..., rows, m, cols, m];
    slot (a, s) is its block (``row[a, s]``, ``col[a, s]``).  ``layout`` is the
    target's trailing shape in blocks of one atom: ``(n_A, n_A)`` for the full
    matrix, ``(bnum, 3, n_A/bnum, n_A/bnum)`` for the band.
    """

    row: Array
    col: Array
    layout: tuple[int, ...]


def slot_index(partners: Array, bnum: int | None = None) -> SlotIndex:
    """The block of every slot (a, s), which couples atom a to atom ``partners[a, s]``.

    Partners ``arange(n_A)[:, None]`` give the atom-diagonal blocks, and
    ``NeighborMap.partners`` the phonon slots.  Without ``bnum`` the target is
    the full matrix, [n_A, m, n_A, m] as blocks.  With it, the target is the
    band ``[bnum, 3, e, e]`` of ``_tridiagonal_band`` (e = m n_A / bnum), as
    blocks [3 n_A, m, n_A/bnum, m]; ``ValueError`` unless every partner lies
    in its atom's block or an adjacent one, i.e. the slots are block-tridiagonal.
    """
    n_a = partners.shape[0]
    rows = np.broadcast_to(np.arange(n_a)[:, None], partners.shape)
    if bnum is None:
        return SlotIndex(rows, partners, (n_a, n_a))
    if n_a % bnum != 0:
        raise ValueError(f"{n_a} atoms not divisible into {bnum} blocks")
    per_block = n_a // bnum
    reach = int(np.max(np.abs(partners - rows)))
    if reach > per_block:
        raise ValueError(
            f"neighbor reach {reach} exceeds the {per_block} atoms of a block: "
            f"Pi is not block-tridiagonal under {bnum} blocks"
        )
    block = rows // per_block
    side = partners // per_block - block + 1  # 0, 1, 2 = left, diagonal, right
    return SlotIndex((3 * block + side) * per_block + rows % per_block, partners % per_block,
                     (bnum, 3, per_block, per_block))


def _slot_blocks(target: Array, index: SlotIndex) -> Array:
    """``target`` as a view [..., rows, cols, m, m] of its blocks."""
    n_cols = index.layout[-1]
    lead = target.shape[: target.ndim - len(index.layout)]
    m = target.shape[-1] // n_cols
    return target.reshape(*lead, -1, m, n_cols, m, copy=False).swapaxes(-3, -2)


def add_slots(target: Array, slots: Array, index: SlotIndex) -> Array:
    """Add ``slots`` [..., n_A, S, m, m] onto their blocks of ``target``, in place; returns ``target``.

    A block that two slots share (a chain end lists a neighbor twice) gets
    only the last of them: numpy applies repeated fancy-index writes in
    order, though it does not promise to.  This line is the one place the
    duplicate rule lives (ROADMAP item 1 (d)).
    """
    _slot_blocks(target, index)[..., index.row, index.col, :, :] += slots
    return target


def place_slots(slots: Array, index: SlotIndex) -> Array:
    """``slots`` [..., n_A, S, m, m] in a zero target: [..., n, n], or the band [..., bnum, 3, e, e]."""
    m = slots.shape[-1]
    *outer, rows, cols = index.layout
    target = np.zeros((*slots.shape[:-4], *outer, rows * m, cols * m), np.complex128)
    return add_slots(target, slots, index)


def pick_slots(target: Array, index: SlotIndex) -> Array:
    """The blocks of ``target`` that the slots keep, as a new [..., n_A, S, m, m] array."""
    return _slot_blocks(target, index)[..., index.row, index.col, :, :]


def _solve_system(a: Array, context: str) -> Array:
    """Inverse of ``a``, rejected unless ||a a^-1 - I||_F / ||I||_F <= _RESIDUAL_LIMIT."""
    n = a.shape[0]
    try:
        g_r = np.linalg.inv(a)  # the same LU solve against I as np.linalg.solve, bit for bit
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{context}: singular system ({exc})") from exc
    defect = a @ g_r
    defect.reshape(-1)[:: n + 1] -= 1.0
    residual = np.linalg.norm(defect) / np.sqrt(n)
    if not np.isfinite(residual) or residual > _RESIDUAL_LIMIT:
        raise SingularSystemError(f"{context}: solve residual {residual:.3e} too large (eta too small?)")
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
    """
    n = dev.H.shape[1]
    a = energy * dev.S[kz] - dev.H[kz] - sigma_r + 1j * eta * np.eye(n)
    g_r = _solve_system(a, f"electron point (kz={kz}, E={energy:g})")
    g_a = _advanced(g_r)
    g_lesser = g_r @ sigma_lesser @ g_a
    g_greater = g_r @ sigma_greater @ g_a
    return g_r, g_lesser, g_greater


def solve_point_dense_diag(
    dev: DeviceMatrices, sigma_r: Array, sigma_lg: Array, energy: float, kz: int, eta: float
) -> Array:
    """Dense solve of one electron point, keeping only the atom-diagonal G^<> blocks.

    The self-energies are per-atom blocks: ``sigma_r`` ``[n_A, o, o]`` and
    the stacked lesser/greater pair ``sigma_lg`` ``[2, n_A, o, o]``.
    Because Sigma is block-diagonal per atom, block (a, a) of
    G^R Sigma (G^R)^T is sum_c G^R[a, c] Sigma_c G^R[a, c]^T: one batched
    product over the column blocks of G^R and one over its row blocks,
    O(n^2 o) each instead of n^3.  Returns the stacked ``[2, n_A, o, o]``
    blocks of G^< and G^>.
    """
    n_a, o, _ = sigma_r.shape
    n = n_a * o
    a = energy * dev.S[kz] - dev.H[kz]
    add_slots(a, -sigma_r[:, None], slot_index(np.arange(n_a)[:, None]))
    a.reshape(-1)[:: n + 1] += 1j * eta
    g_r = _solve_system(a, f"electron point (kz={kz}, E={energy:g})")
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


def solve_phonon_point(
    dev: DeviceMatrices, pi_r: Array, pi_lg: Array, omega: float, qz: int, eta: float, nmap: NeighborMap
) -> tuple[Array, Array]:
    """Dense solve of one phonon (omega, q_z) point.

    ``pi_lg`` stacks the full Pi^< and Pi^> matrices ``[2, n, n]``.
    Returns the full D^R matrix and the stacked D^< and D^> already in the
    slot layout ``[2, n_A, n_B+1, n_3D, n_3D]``.  D^R Pi^<> is formed once;
    of D^R Pi^<> (D^R)^T only the self and neighbor blocks the slots keep
    are computed, as row block a of D^R Pi^<> times row block b of D^R.
    """
    n = dev.Phi.shape[1]
    a = omega**2 * np.eye(n) - dev.Phi[qz] - pi_r + 1j * eta * np.eye(n)
    d_r = _solve_system(a, f"phonon point (qz={qz}, omega={omega:g})")
    m, n_a = dev.n_3D, nmap.n_A
    rows = d_r.reshape(n_a, m, n)
    slots = np.empty((2, n_a, nmap.n_B + 1, m, m), np.complex128)
    # one tensor and one slot at a time, so only one D^R Pi^<> and one gathered copy of D^R's rows are alive
    for pi_x, out in zip(pi_lg, slots):
        d_pi = (d_r @ pi_x).reshape(n_a, m, n)
        for s, b in enumerate(nmap.partners.T):
            out[:, s] = d_pi @ _advanced(rows[b])
    return d_r, slots


def _tridiagonal_band(mat: Array, bnum: int) -> Array:
    """Band ``[bnum, 3, m, m]`` of an n x n matrix under ``bnum`` blocks.

    ``[i, 0]``, ``[i, 1]``, ``[i, 2]`` are blocks (i, i-1), (i, i), (i, i+1);
    the two corners outside the matrix stay zero.  Both RGF systems are read
    from the device through this one reader, so neither builds an n x n matrix.
    """
    n = mat.shape[-1]
    if n % bnum != 0:
        raise ValueError(f"matrix edge {n} not divisible into {bnum} blocks")
    # block i's partners are blocks i-1, i, i+1, wrapped around at the ends and then zeroed there
    band = pick_slots(mat, slot_index((np.arange(bnum)[:, None] + np.arange(-1, 2)) % bnum))
    band[0, 0] = band[-1, 2] = 0.0
    return band


def _rgf_pass(a: Array, q: Array, context: str) -> tuple[Array, Array]:
    """One forward/backward recursion over the blocks of ``a X = I`` with source ``X Q X^T``.

    ``a`` is the system's band ``[bnum, 3, m, m]`` (``_tridiagonal_band``).
    ``q`` stacks the lesser/greater source: a block-diagonal one (electrons)
    passes its diagonal blocks ``[2, bnum, m, m]``, a block-tridiagonal one
    (phonons) its band ``[2, bnum, 3, m, m]``.  The forward sweep builds the
    left-connected blocks g_i and their lesser/greater XL_i by Schur
    complements, each block solve residual-checked; the backward sweep, with
    W = g_i U_i, forms the diagonal blocks of X and of X Q X^T, and for a
    tridiagonal source also the neighbor blocks of X Q X^T.  Returns the
    diagonal X blocks ``[bnum, m, m]`` and the lesser/greater in ``q``'s layout
    (band corners outside the matrix are zero).
    """
    bnum, m = a.shape[0], a.shape[-1]
    tridiagonal = q.ndim == 5
    q_diag = q[:, :, 1] if tridiagonal else q

    g_r = np.empty((bnum, m, m), np.complex128)  # left-connected retarded
    g_lg = np.empty((2, bnum, m, m), np.complex128)  # left-connected lesser, greater
    for i in range(bnum):
        block_context = f"RGF forward pass, block {i} ({context})"
        if i == 0:
            g_r[i] = _solve_system(a[i, 1], block_context)
            inflow = q_diag[:, i]
        else:
            d = a[i, 0]
            dg = d @ g_r[i - 1]
            g_r[i] = _solve_system(a[i, 1] - dg @ a[i - 1, 2], block_context)
            inflow = q_diag[:, i] + d @ g_lg[:, i - 1] @ _advanced(d)
            if tridiagonal:  # Q's neighbor blocks: -D g_{i-1} Q_{i-1,i} - Q_{i,i-1} (D g_{i-1})^T
                inflow -= dg @ q[:, i - 1, 2] + q[:, i, 0] @ _advanced(dg)
        g_lg[:, i] = g_r[i] @ inflow @ _advanced(g_r[i])

    big_r = np.empty_like(g_r)
    big_lg = np.zeros_like(q)
    big_diag = big_lg[:, :, 1] if tridiagonal else big_lg
    big_r[-1] = g_r[-1]
    big_diag[:, -1] = g_lg[:, -1]
    for i in range(bnum - 2, -1, -1):
        gr, gs, x_next = g_r[i], g_lg[:, i], big_diag[:, i + 1]
        w = gr @ a[i, 2]  # W = g_i U_i
        gd = big_r[i + 1] @ a[i + 1, 0]  # G_{i+1} D_i
        v = w @ gd
        big_r[i] = gr + v @ gr
        wx = w @ x_next
        big_diag[:, i] = gs + wx @ _advanced(w) + v @ gs + gs @ _advanced(v)
        if tridiagonal:
            right = gr @ q[:, i, 2] @ _advanced(big_r[i + 1])  # g_i Q_{i,i+1} G_{i+1}^T
            left = big_r[i + 1] @ q[:, i + 1, 0] @ _advanced(gr)  # G_{i+1} Q_{i+1,i} g_i^T
            big_diag[:, i] -= right @ _advanced(w) + w @ left
            # X_{i,i+1} = (g_i Q_{i,i+1} - XL_i D_i^T) G_{i+1}^T - W X_{i+1}, and X_{i+1,i} its mirror
            big_lg[:, i, 2] = right - gs @ _advanced(gd) - wx
            big_lg[:, i + 1, 0] = left - gd @ gs - x_next @ _advanced(w)
    return big_r, big_lg


def solve_point_rgf(
    dev: DeviceMatrices, sigma_r: Array, sigma_lg: Array, energy: float, kz: int, eta: float, bnum: int
) -> tuple[Array, Array]:
    """Recursive Green's function pass over ``bnum`` blocks of one electron point.

    The self-energies are per-atom blocks: ``sigma_r`` ``[n_A, o, o]`` and
    the stacked lesser/greater pair ``sigma_lg`` ``[2, n_A, o, o]``; Sigma
    touches only the diagonal blocks.  Returns the diagonal blocks of the
    full G^R ``[bnum, m, m]`` and the stacked G^<, G^> ``[2, bnum, m, m]``.
    """
    n_a, o, _ = sigma_r.shape
    if n_a % bnum != 0:
        raise ValueError(f"{n_a} atoms not divisible into {bnum} blocks")
    per_block = n_a // bnum
    diag = slot_index(np.arange(per_block)[:, None])  # each diagonal block is the matrix of its per_block atoms
    a = _tridiagonal_band(dev.S[kz], bnum)
    a *= energy
    a -= _tridiagonal_band(dev.H[kz], bnum)
    add_slots(a[:, 1], -sigma_r.reshape(bnum, per_block, 1, o, o), diag)
    a[:, 1] += 1j * eta * np.eye(per_block * o)
    sigma_blocks = place_slots(sigma_lg.reshape(2, bnum, per_block, 1, o, o), diag)
    return _rgf_pass(a, sigma_blocks, f"kz={kz}, E={energy:g}")


def solve_phonon_point_rgf(
    dev: DeviceMatrices, pi_r: Array, pi_lg: Array, omega: float, qz: int, eta: float,
    index: SlotIndex,
) -> tuple[Array, Array]:
    """Recursive Green's function pass over the blocks of one phonon (omega, q_z) point.

    ``pi_r`` ``[n_A, n_B+1, n_3D, n_3D]`` and the stacked ``pi_lg``
    ``[2, n_A, n_B+1, n_3D, n_3D]`` are in the slot layout; ``index`` is
    ``slot_index(nmap.partners, bnum)``.  Pi is added into its tridiagonal
    blocks, the recursion also forms the neighbor blocks of D^<>, and the
    slots are picked back out, so no n x n matrix is built.  Returns the
    diagonal blocks of D^R ``[bnum, m, m]`` and the stacked D^<, D^> in the
    slot layout ``[2, n_A, n_B+1, n_3D, n_3D]``, as ``solve_phonon_point``.
    """
    a = -_tridiagonal_band(dev.Phi[qz], index.layout[0])  # a band layout leads with bnum
    unit = np.eye(a.shape[-1])
    a[:, 1] += omega**2 * unit
    add_slots(a, -pi_r, index)
    a[:, 1] += 1j * eta * unit
    d_r, d_lg = _rgf_pass(a, place_slots(pi_lg, index), f"qz={qz}, omega={omega:g}")
    return d_r, pick_slots(d_lg, index)


def _electron_point(dev, sig_r, sig_lg, energy, kz, eta, solver, bnum):
    """Stacked atom-diagonal [2, n_A, o, o] blocks of G^< and G^> at one electron point."""
    if solver == "dense":
        return solve_point_dense_diag(dev, sig_r, sig_lg, energy, kz, eta)
    g_lg = solve_point_rgf(dev, sig_r, sig_lg, energy, kz, eta, bnum)[1]
    n_a, o, _ = sig_r.shape
    return pick_slots(g_lg, slot_index(np.arange(n_a // bnum)[:, None])).reshape(2, n_a, o, o)


def _phonon_point(dev, pi_r, pi_lg, omega, qz, eta, nmap, solver, index):
    """Stacked [2, n_A, n_B+1, n_3D, n_3D] slots of D^< and D^> at one phonon point."""
    if solver == "dense":
        # the retarded solution is dropped at once rather than held into the next solve
        return solve_phonon_point(dev, place_slots(pi_r, index), place_slots(pi_lg, index), omega, qz, eta, nmap)[1]
    return solve_phonon_point_rgf(dev, pi_r, pi_lg, omega, qz, eta, index)[1]


def gf_phase(
    dev: DeviceMatrices,
    sigma: GreensTensor,
    pi: GreensTensor,
    params: SimParams,
    grid: EnergyGrid,
    nmap: NeighborMap,
    solver: str = DEFAULT_SOLVER,
) -> tuple[GreensTensor, GreensTensor]:
    """Fill the electron and phonon Green's tensors point by point.

    ``solver`` picks the path of both particle kinds, ``"dense"`` or
    ``"rgf"`` (see the module docstring); both produce the same atom-diagonal
    G blocks and D slots.  ``"rgf"`` raises ``ValueError`` before any solve
    when Pi is not block-tridiagonal under ``params.bnum`` blocks
    (``slot_index``); one phonon ``SlotIndex``, of the full matrix or of the
    band, serves every phonon point.  Points are independent: each (k_z, E)
    and (q_z, omega) solve writes a disjoint tensor slice, so evaluation
    order cannot change the result.  Retarded self-energies are always derived
    from the lesser/greater pair.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    index = slot_index(nmap.partners, params.bnum if solver == "rgf" else None)
    sig_r = retarded_from_lesser_greater(sigma)
    pi_r = retarded_from_lesser_greater(pi)

    g_e = GreensTensor.zeros(params.electron_shape)
    g_ph = GreensTensor.zeros(params.phonon_shape)

    for kz in range(params.n_kz):
        for i_e in range(params.n_E):
            try:
                g_e.data[:, kz, i_e] = _electron_point(
                    dev, sig_r[kz, i_e], sigma.data[:, kz, i_e],
                    grid.values[i_e], kz, params.eta, solver, params.bnum,
                )
            except SingularSystemError as exc:
                raise SingularSystemError(f"electron point (kz={kz}, iE={i_e}): {exc}") from exc

    for qz in range(params.n_qz):
        for i_w in range(params.n_w):
            try:
                g_ph.data[:, qz, i_w] = _phonon_point(
                    dev, pi_r[qz, i_w], pi.data[:, qz, i_w], grid.frequency_value(i_w), qz, params.eta,
                    nmap, solver, index,
                )
            except SingularSystemError as exc:
                raise SingularSystemError(f"phonon point (qz={qz}, iw={i_w}): {exc}") from exc
    for pair in (g_e, g_ph):
        # batched small products can round an exact zero to -0.0; adding +0.0
        # keeps a zero state's bytes (and its digest) the same on every path
        pair.data += 0.0
    return g_e, g_ph
