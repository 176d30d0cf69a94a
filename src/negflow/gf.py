"""Green's function solves: the full-matrix oracle and the loop's dense and RGF paths.

Every (E, k_z) electron point solves ``(E S - H - Sigma^R + i eta I) G^R = I``
and ``G^<> = G^R Sigma^<> G^A`` with the advanced function stored as the plain
transpose of the retarded one.  Phonon points solve the analogous system with
``omega^2 I`` in place of ``E S``.

The loop keeps only the atom-diagonal blocks of G^<> and the self/neighbor
slots of D^<>, so it forms nothing else:

- ``solve_point_dense`` is the full-matrix oracle: one n x n solve and two
  full n^3 triple products.
- ``solve_point_dense_diag`` (solver ``"dense"``) makes the same n x n solve
  but forms only the diagonal blocks of the products, O(n^2 n_orb) each.
- ``solve_point_rgf`` (solver ``"rgf"``) reads the tridiagonal blocks of
  E S - H straight from the device and runs a forward/backward pass over
  ``bnum`` blocks; it builds no n x n matrix.
- ``solve_phonon_point`` forms D^R Pi^<> once and then only the slot blocks
  of D^R Pi^<> (D^R)^T.

Every solve, each RGF block solve included, is residual-checked and raises
``SingularSystemError`` naming its point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceMatrices, NeighborMap
from .params import EnergyGrid, SimParams

Array = np.ndarray

_RESIDUAL_LIMIT = 1e-8

SOLVERS = ("dense", "rgf")
# Shared by gf_phase, sse.self_consistent_loop and `negflow simulate --solver`.
# RGF measures faster on every benchmarked shape (CHANGES.md), but the
# benchmark's harness self-check reads this default to pick the tolerance it
# breaks on purpose, so the switch waits for the next benchmark change.
DEFAULT_SOLVER = "dense"


class SingularSystemError(RuntimeError):
    """Raised when a Green's function system cannot be solved reliably."""


@dataclass(frozen=True)
class GreensTensor:
    """Lesser/greater pair of Green's functions or of self-energies.

    Both share one layout, so one type holds G, D, Sigma and Pi alike.
    Electron: ``[n_kz, n_E, n_A, n_orb, n_orb]`` (per-atom diagonal blocks).
    Phonon: ``[n_qz, n_w, n_A, n_B+1, n_3D, n_3D]`` with slot 0 the self block
    and slots 1..n_B the neighbor blocks in neighbor-map order.
    """

    lesser: Array
    greater: Array

    def __post_init__(self):
        if self.lesser.ndim not in (5, 6):
            raise ValueError("expected a 5-D electron or 6-D phonon tensor")
        if self.lesser.shape != self.greater.shape:
            raise ValueError(f"lesser/greater shape mismatch: {self.lesser.shape} vs {self.greater.shape}")

    @property
    def kind(self) -> str:
        return "electron" if self.lesser.ndim == 5 else "phonon"

    def all_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.lesser)) and np.all(np.isfinite(self.greater)))

    @classmethod
    def zeros_electron(cls, params: SimParams) -> "GreensTensor":
        shape = params.electron_shape
        return cls(np.zeros(shape, np.complex128), np.zeros(shape, np.complex128))

    @classmethod
    def zeros_phonon(cls, params: SimParams) -> "GreensTensor":
        shape = params.phonon_shape
        return cls(np.zeros(shape, np.complex128), np.zeros(shape, np.complex128))


def retarded_from_lesser_greater(se: GreensTensor) -> Array:
    """Elementwise (greater - lesser) / 2."""
    return (se.greater - se.lesser) / 2.0


def _atom_diag_view(mat4: Array) -> Array:
    """(..., n_A, m, n_A, m) array -> strided (..., n_A, m, m) view of its diagonal blocks."""
    *lead, s_a, s_i, s_b, s_j = mat4.strides
    shape = (*mat4.shape[:-4], mat4.shape[-4], mat4.shape[-3], mat4.shape[-1])
    return np.lib.stride_tricks.as_strided(mat4, shape, (*lead, s_a + s_b, s_i, s_j))


def block_diag_from_atoms(blocks: Array) -> Array:
    """[n_A, m, m] atom blocks -> (n_A*m, n_A*m) block-diagonal matrix."""
    n_a, m, _ = blocks.shape
    out = np.zeros((n_a, m, n_a, m), dtype=blocks.dtype)
    _atom_diag_view(out)[...] = blocks
    return out.reshape(n_a * m, n_a * m)


def extract_atom_diag(matrix: Array, n_a: int, m: int) -> Array:
    """(..., n_A*m, n_A*m) matrices -> [..., n_A, m, m] diagonal atom blocks."""
    return _atom_diag_view(matrix.reshape(*matrix.shape[:-2], n_a, m, n_a, m)).copy()


def _slot_partners(nmap: NeighborMap) -> Array:
    """[n_A, n_B+1] atom index of every slot: the atom itself, then its neighbors."""
    return np.concatenate((np.arange(nmap.n_A)[:, None], nmap.idx), axis=1)


def assemble_phonon_matrix(slots: Array, nmap: NeighborMap) -> Array:
    """Slot layout [n_A, n_B+1, m, m] -> full (n_A*m, n_A*m) matrix.

    Duplicate neighbor slots hold identical blocks, so plain assignment is
    well-defined.
    """
    n_a, _, m, _ = slots.shape
    out = np.zeros((n_a, m, n_a, m), dtype=slots.dtype)
    out[np.arange(n_a)[:, None], :, _slot_partners(nmap), :] = slots
    return out.reshape(n_a * m, n_a * m)


def extract_phonon_slots(matrix: Array, nmap: NeighborMap, m: int) -> Array:
    """Full matrix -> slot layout [n_A, n_B+1, m, m] (self + neighbors)."""
    n_a = nmap.n_A
    return matrix.reshape(n_a, m, n_a, m)[np.arange(n_a)[:, None], :, _slot_partners(nmap), :]


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
    g_a = g_r.T
    g_lesser = g_r @ sigma_lesser @ g_a
    g_greater = g_r @ sigma_greater @ g_a
    return g_r, g_lesser, g_greater


def solve_point_dense_diag(
    dev: DeviceMatrices,
    sigma_r: Array,
    sigma_lesser: Array,
    sigma_greater: Array,
    energy: float,
    kz: int,
    eta: float,
) -> tuple[Array, Array]:
    """Dense solve of one electron point, keeping only the atom-diagonal G^<> blocks.

    The self-energies are per-atom blocks ``[n_A, o, o]``.  Because Sigma is
    block-diagonal per atom, block (a, a) of G^R Sigma (G^R)^T is
    sum_c G^R[a, c] Sigma_c G^R[a, c]^T: one batched product over the column
    blocks of G^R and one over its row blocks, O(n^2 o) each instead of n^3.
    Returns the ``[n_A, o, o]`` blocks of G^< and G^>.
    """
    n_a, o, _ = sigma_r.shape
    n = n_a * o
    a = energy * dev.S[kz] - dev.H[kz]
    _atom_diag_view(a.reshape(n_a, o, n_a, o))[...] -= sigma_r
    a.reshape(-1)[:: n + 1] += 1j * eta
    g_r = _solve_system(a, f"electron point (kz={kz}, E={energy:g})")
    cols = g_r.reshape(n, n_a, o).transpose(1, 0, 2)  # column blocks G^R[:, c]
    rows_t = g_r.reshape(n_a, o, n).transpose(0, 2, 1)  # row blocks G^R[a, :], transposed
    g_sigma = np.empty((n, n_a, o), np.complex128)  # G^R Sigma, written column block by column block
    diag_blocks = []
    for sig in (sigma_lesser, sigma_greater):
        np.matmul(cols, sig, out=g_sigma.transpose(1, 0, 2))
        diag_blocks.append(g_sigma.reshape(n_a, o, n) @ rows_t)
    return diag_blocks[0], diag_blocks[1]


def solve_phonon_point(
    dev: DeviceMatrices,
    pi_r: Array,
    pi_lesser: Array,
    pi_greater: Array,
    omega: float,
    qz: int,
    eta: float,
    nmap: NeighborMap,
) -> tuple[Array, Array, Array]:
    """Dense solve of one phonon (omega, q_z) point.

    Returns the full D^R matrix plus D^< and D^> already reshaped into the
    slot layout ``[n_A, n_B+1, n_3D, n_3D]``.  D^R Pi^<> is formed once;
    of D^R Pi^<> (D^R)^T only the self and neighbor blocks the slots keep
    are computed, as row block a of D^R Pi^<> times row block b of D^R.
    """
    n = dev.Phi.shape[1]
    a = omega**2 * np.eye(n) - dev.Phi[qz] - pi_r + 1j * eta * np.eye(n)
    d_r = _solve_system(a, f"phonon point (qz={qz}, omega={omega:g})")
    m, n_a = dev.n_3D, nmap.n_A
    rows = d_r.reshape(n_a, m, n)

    def slot_blocks(pi_x):
        d_pi = (d_r @ pi_x).reshape(n_a, m, n)
        # one slot at a time, so only one gathered copy of D^R's rows is alive
        return np.stack([d_pi @ rows[b].transpose(0, 2, 1) for b in _slot_partners(nmap).T], axis=1)

    return d_r, slot_blocks(pi_lesser), slot_blocks(pi_greater)


def _tridiagonal_system(dev: DeviceMatrices, sigma_r: Array, energy: float, kz: int, eta: float, bnum: int):
    """Diagonal, upper and lower blocks of E S - H - Sigma^R + i eta I under ``bnum`` blocks.

    Read straight from the device's S and H; Sigma^R (atom blocks) touches
    only the diagonal blocks, so no n x n matrix is built.
    """
    n_a, o, _ = sigma_r.shape
    if n_a % bnum != 0:
        raise ValueError(f"{n_a} atoms not divisible into {bnum} blocks")
    m, per_block = n_a * o // bnum, n_a // bnum
    s4 = dev.S[kz].reshape(bnum, m, bnum, m)
    h4 = dev.H[kz].reshape(bnum, m, bnum, m)
    here, nxt = np.arange(bnum - 1), np.arange(1, bnum)
    diag = energy * _atom_diag_view(s4) - _atom_diag_view(h4)
    _atom_diag_view(diag.reshape(bnum, per_block, o, per_block, o))[...] -= sigma_r.reshape(bnum, per_block, o, o)
    diag += 1j * eta * np.eye(m)
    up = energy * s4[here, :, nxt] - h4[here, :, nxt]
    down = energy * s4[nxt, :, here] - h4[nxt, :, here]
    return diag, up, down


def solve_point_rgf(
    dev: DeviceMatrices,
    sigma_r: Array,
    sigma_lesser: Array,
    sigma_greater: Array,
    energy: float,
    kz: int,
    eta: float,
    bnum: int,
) -> tuple[Array, Array, Array]:
    """Recursive Green's function pass over ``bnum`` blocks.

    The self-energies are per-atom blocks ``[n_A, o, o]``.  The forward
    sweep builds left-connected retarded and lesser/greater blocks by Schur
    complements, each block solve residual-checked like the dense one; the
    backward sweep assembles the diagonal blocks of the full G^R and G^<>.
    Returns those diagonal blocks as ``[bnum, m, m]`` arrays (G^R, G^<, G^>).
    """
    diag, up, down = _tridiagonal_system(dev, sigma_r, energy, kz, eta, bnum)
    m, o = diag.shape[-1], sigma_r.shape[-1]
    per_block = m // o
    sigma_lg = np.zeros((2, bnum, per_block, o, per_block, o), np.complex128)
    _atom_diag_view(sigma_lg)[...] = np.stack((sigma_lesser, sigma_greater)).reshape(2, bnum, per_block, o, o)
    sigma_lg = sigma_lg.reshape(2, bnum, m, m)

    g_r = np.empty((bnum, m, m), np.complex128)  # left-connected retarded
    g_lg = np.empty((2, bnum, m, m), np.complex128)  # left-connected lesser, greater
    for i in range(bnum):
        context = f"RGF forward pass, block {i} (kz={kz}, E={energy:g})"
        if i == 0:
            g_r[i] = _solve_system(diag[i], context)
            inflow = sigma_lg[:, i]
        else:
            d = down[i - 1]
            g_r[i] = _solve_system(diag[i] - d @ g_r[i - 1] @ up[i - 1], context)
            inflow = sigma_lg[:, i] + d @ g_lg[:, i - 1] @ d.T
        g_lg[:, i] = g_r[i] @ inflow @ g_r[i].T

    big_r = np.empty_like(g_r)
    big_lg = np.empty_like(g_lg)
    big_r[-1] = g_r[-1]
    big_lg[:, -1] = g_lg[:, -1]
    for i in range(bnum - 2, -1, -1):
        u, gr, gs = up[i], g_r[i], g_lg[:, i]
        gr_coupled = gr @ (u @ big_r[i + 1] @ down[i])
        big_r[i] = gr + gr_coupled @ gr
        big_lg[:, i] = gs + gr @ (u @ big_lg[:, i + 1] @ u.T) @ gr.T + gr_coupled @ gs + gs @ gr_coupled.T
    return big_r, big_lg[0], big_lg[1]


def _electron_point(dev, sig_r, sig_l, sig_g, energy, kz, eta, solver, bnum):
    """Atom-diagonal [n_A, o, o] blocks of G^< and G^> at one electron point."""
    if solver == "dense":
        return solve_point_dense_diag(dev, sig_r, sig_l, sig_g, energy, kz, eta)
    _, less, grt = solve_point_rgf(dev, sig_r, sig_l, sig_g, energy, kz, eta, bnum)
    n_a, o, _ = sig_r.shape
    return extract_atom_diag(np.stack((less, grt)), n_a // bnum, o).reshape(2, n_a, o, o)


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

    ``solver`` picks the electron path, ``"dense"`` or ``"rgf"`` (see the
    module docstring); both produce the same atom-diagonal blocks.  Points
    are independent: each (k_z, E) and (q_z, omega) solve writes a
    disjoint tensor slice, so evaluation order cannot change the result.
    Retarded self-energies are always derived from the lesser/greater pair.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    sig_r = retarded_from_lesser_greater(sigma)
    pi_r = retarded_from_lesser_greater(pi)

    g_e = GreensTensor.zeros_electron(params)
    g_ph = GreensTensor.zeros_phonon(params)

    for kz in range(params.n_kz):
        for i_e in range(params.n_E):
            try:
                g_e.lesser[kz, i_e], g_e.greater[kz, i_e] = _electron_point(
                    dev, sig_r[kz, i_e], sigma.lesser[kz, i_e], sigma.greater[kz, i_e],
                    grid.values[i_e], kz, params.eta, solver, params.bnum,
                )
            except SingularSystemError as exc:
                raise SingularSystemError(f"electron point (kz={kz}, iE={i_e}): {exc}") from exc

    for qz in range(params.n_qz):
        for i_w in range(params.n_w):
            try:
                # the retarded solution is dropped at once rather than held into the next solve
                g_ph.lesser[qz, i_w], g_ph.greater[qz, i_w] = solve_phonon_point(
                    dev,
                    assemble_phonon_matrix(pi_r[qz, i_w], nmap),
                    assemble_phonon_matrix(pi.lesser[qz, i_w], nmap),
                    assemble_phonon_matrix(pi.greater[qz, i_w], nmap),
                    grid.frequency_value(i_w), qz, params.eta, nmap,
                )[1:]
            except SingularSystemError as exc:
                raise SingularSystemError(f"phonon point (qz={qz}, iw={i_w}): {exc}") from exc
    for tensor in (g_e.lesser, g_e.greater, g_ph.lesser, g_ph.greater):
        # batched small products can round an exact zero to -0.0; adding +0.0
        # keeps a zero state's bytes (and its digest) the same on every path
        tensor += 0.0
    return g_e, g_ph
