"""Green's function solves: the full-matrix oracle and the loop's dense and RGF paths.

Every (E, k_z) electron point solves ``(E S - H - Sigma^R + i eta I) G^R = I``
and ``G^<> = G^R Sigma^<> G^A`` with the advanced function stored as the plain
transpose of the retarded one; every solver takes it from ``_advanced``.
Phonon points solve the analogous system with ``omega^2 I`` in place of
``E S``.

``gf_phase`` reads each momentum's S, H or Phi once, whole (solver
``"dense"``) or as its ``_tridiagonal_band`` (``"rgf"``); every point's
system is assembled from them in one place, ``point_system``.  The loop
keeps only the atom-diagonal blocks of G^<> and the self/neighbor slots of
D^<>, so its three point solves form nothing else:

- ``solve_point_dense_diag`` (dense electrons) forms only the diagonal
  blocks of G^R Sigma^<> (G^R)^T, O(n^2 n_orb) each.
- ``solve_phonon_point`` (dense phonons) forms D^R Pi^<> once and then only
  the slot blocks of D^R Pi^<> (D^R)^T.
- ``solve_point_rgf`` (both kinds) runs one block-tridiagonal recursion
  (``_rgf_pass``) over ``bnum`` blocks between ``place_slots`` and
  ``pick_slots`` and builds no n x n matrix.  Sigma stays a block-diagonal
  source; Pi's slots go into the tridiagonal blocks, so the recursion also
  forms D^<>'s neighbor blocks.  A gf-long phonon point takes about a tenth
  of its dense time this way (7 ms against 77 ms, one BLAS thread).

``solve_point_dense``, the electron oracle, keeps its own assembly: one
n x n solve and two full n^3 triple products.

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


def point_system(
    shift: float, mass: Array | None, stiffness: Array, self_r: Array, index: SlotIndex, eta: float
) -> Array:
    """The system ``shift M - K - self^R + i eta I`` of one point, new, in the layout of ``stiffness``.

    Electrons pass (E, S, H); phonons (omega^2, None, Phi), None standing for
    M = I: -Phi with omega^2 added on the diagonal.  M and K are full
    matrices or bands (``_tridiagonal_band``).  ``self_r`` goes onto the
    target ``index`` describes: the matrix, the band, or (an index of one
    block's atoms) the band's diagonal blocks.
    """
    a = np.negative(stiffness) if mass is None else shift * mass
    blocks = a[:, 1] if a.ndim == 4 else a[None]  # the blocks that hold the matrix diagonal
    edge = blocks.shape[-1]
    diagonal = blocks.reshape(len(blocks), edge * edge, copy=False)[:, :: edge + 1]
    if mass is None:
        diagonal += shift
    else:
        a -= stiffness
    add_slots(a if a.ndim == len(index.layout) else blocks, -self_r, index)
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


def _tridiagonal_band(mat: Array, bnum: int) -> Array:
    """Band ``[bnum, 3, m, m]`` of an n x n matrix under ``bnum`` blocks.

    ``[i, 0]``, ``[i, 1]``, ``[i, 2]`` are blocks (i, i-1), (i, i), (i, i+1);
    the two corners outside the matrix stay zero.  ``gf_phase`` reads each
    momentum's S, H or Phi through it once, so no RGF point builds an n x n matrix.
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


def solve_point_rgf(a: Array, self_lg: Array, index: SlotIndex, context: str) -> tuple[Array, Array]:
    """RGF pass over the band ``a`` of one point's system, with the stacked lesser/greater ``self_lg`` as source.

    ``index`` places the slots ``self_lg`` into the source and picks them back
    out of the result.  Electrons pass Sigma as ``[2, bnum, n_A/bnum, 1, o, o]``
    with an index of one block's atoms, so the source stays block-diagonal;
    phonons pass Pi's slots with ``slot_index(nmap.partners, bnum)``.
    Returns the diagonal blocks of the retarded solution ``[bnum, m, m]`` and
    the lesser/greater slots in ``self_lg``'s layout.
    """
    x_r, x_lg = _rgf_pass(a, place_slots(self_lg, index), context)
    return x_r, pick_slots(x_lg, index)


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
    G blocks and D slots.  Each momentum's matrices are read once, and one
    ``SlotIndex`` per particle kind, built once, serves all of its points.
    ``"rgf"`` raises ``ValueError`` before any solve when Pi is not
    block-tridiagonal under ``params.bnum`` blocks (``slot_index``).  Points
    are independent: each (k_z, E) and (q_z, omega) solve writes a disjoint
    tensor slice, so evaluation order cannot change the result.  Retarded
    self-energies are always derived from the lesser/greater pair, one
    momentum at a time.  A failing solve names its point once: k_z, iE and
    E, or q_z, iw and omega.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    rgf = solver == "rgf"
    o, eta = params.n_orb, params.eta
    phonon_index = slot_index(nmap.partners, params.bnum if rgf else None)
    atoms = params.n_A // params.bnum if rgf else params.n_A  # the atoms of one RGF diagonal block, or all
    electron_index = slot_index(np.arange(atoms)[:, None])
    electron_slots = (params.bnum, atoms, 1, o, o) if rgf else (atoms, 1, o, o)

    def read(mat: Array) -> Array:
        return _tridiagonal_band(mat, params.bnum) if rgf else mat

    g_e = GreensTensor.zeros(params.electron_shape)
    g_ph = GreensTensor.zeros(params.phonon_shape)

    for kz in range(params.n_kz):
        s, h = read(dev.S[kz]), read(dev.H[kz])
        # this momentum's Sigma^R only: that saves more memory than holding its two bands costs
        sig_r = retarded_from_lesser_greater(GreensTensor.wrap(sigma.data[:, kz : kz + 1]))[0]
        for i_e in range(params.n_E):
            energy = grid.values[i_e]
            context = f"electron point (kz={kz}, iE={i_e}, E={energy:g})"
            a = point_system(energy, s, h, sig_r[i_e].reshape(electron_slots), electron_index, eta)
            sig_lg = sigma.data[:, kz, i_e]
            if rgf:
                g_lg = solve_point_rgf(a, sig_lg.reshape(2, *electron_slots), electron_index, context)[1]
            else:
                g_lg = solve_point_dense_diag(a, sig_lg, context)
            g_e.data[:, kz, i_e] = g_lg.reshape(2, -1, o, o)
            del a  # not held into the next point's assembly

    for qz in range(params.n_qz):
        phi = read(dev.Phi[qz])
        pi_r = retarded_from_lesser_greater(GreensTensor.wrap(pi.data[:, qz : qz + 1]))[0]
        for i_w in range(params.n_w):
            omega = grid.frequency_value(i_w)
            context = f"phonon point (qz={qz}, iw={i_w}, omega={omega:g})"
            a = point_system(omega**2, None, phi, pi_r[i_w], phonon_index, eta)
            pi_lg = pi.data[:, qz, i_w]
            if rgf:
                g_ph.data[:, qz, i_w] = solve_point_rgf(a, pi_lg, phonon_index, context)[1]
            else:
                # the retarded solution is dropped at once rather than held into the next solve
                g_ph.data[:, qz, i_w] = solve_phonon_point(a, place_slots(pi_lg, phonon_index), nmap, context)[1]
            del a
    for pair in (g_e, g_ph):
        # batched small products can round an exact zero to -0.0; adding +0.0
        # keeps a zero state's bytes (and its digest) the same on every path
        pair.data += 0.0
    return g_e, g_ph
