"""Green's function solves: dense oracle path and block-tridiagonal RGF.

Every (E, k_z) electron point solves ``(E S - H - Sigma^R + i eta I) G^R = I``
and ``G^<> = G^R Sigma^<> G^A`` with the advanced function stored as the plain
transpose of the retarded one.  Phonon points solve the analogous system with
``omega^2 I`` in place of ``E S``.  The RGF path reproduces the diagonal
blocks of the dense solve by a forward/backward pass over ``bnum`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceMatrices, NeighborMap
from .params import EnergyGrid, SimParams

Array = np.ndarray

_RESIDUAL_LIMIT = 1e-8


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


def block_diag_from_atoms(blocks: Array) -> Array:
    """[n_A, m, m] atom blocks -> (n_A*m, n_A*m) block-diagonal matrix."""
    n_a, m, _ = blocks.shape
    out = np.zeros((n_a * m, n_a * m), dtype=blocks.dtype)
    for a in range(n_a):
        out[a * m : (a + 1) * m, a * m : (a + 1) * m] = blocks[a]
    return out


def extract_atom_diag(matrix: Array, n_a: int, m: int) -> Array:
    """(n_A*m, n_A*m) matrix -> [n_A, m, m] diagonal atom blocks."""
    out = np.empty((n_a, m, m), dtype=matrix.dtype)
    for a in range(n_a):
        out[a] = matrix[a * m : (a + 1) * m, a * m : (a + 1) * m]
    return out


def assemble_phonon_matrix(slots: Array, nmap: NeighborMap) -> Array:
    """Slot layout [n_A, n_B+1, m, m] -> full (n_A*m, n_A*m) matrix.

    Duplicate neighbor slots hold identical blocks, so plain assignment is
    well-defined.
    """
    n_a, _, m, _ = slots.shape
    out = np.zeros((n_a * m, n_a * m), dtype=slots.dtype)
    for a in range(n_a):
        out[a * m : (a + 1) * m, a * m : (a + 1) * m] = slots[a, 0]
        for s in range(nmap.n_B):
            b = int(nmap.idx[a, s])
            out[a * m : (a + 1) * m, b * m : (b + 1) * m] = slots[a, 1 + s]
    return out


def extract_phonon_slots(matrix: Array, nmap: NeighborMap, m: int) -> Array:
    """Full matrix -> slot layout [n_A, n_B+1, m, m] (self + neighbors)."""
    n_a = nmap.n_A
    out = np.empty((n_a, nmap.n_B + 1, m, m), dtype=matrix.dtype)
    for a in range(n_a):
        out[a, 0] = matrix[a * m : (a + 1) * m, a * m : (a + 1) * m]
        for s in range(nmap.n_B):
            b = int(nmap.idx[a, s])
            out[a, 1 + s] = matrix[a * m : (a + 1) * m, b * m : (b + 1) * m]
    return out


def _solve_system(a: Array, context: str) -> Array:
    ident = np.eye(a.shape[0], dtype=np.complex128)
    try:
        g_r = np.linalg.solve(a, ident)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"{context}: singular system ({exc})") from exc
    residual = np.linalg.norm(a @ g_r - ident) / np.linalg.norm(ident)
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
    """Dense solve of one electron (E, k_z) point; the oracle path.

    Returns full matrices (G^R, G^<, G^>) with G^<> = G^R Sigma^<> (G^R)^T.
    """
    n = dev.H.shape[1]
    a = energy * dev.S[kz] - dev.H[kz] - sigma_r + 1j * eta * np.eye(n)
    g_r = _solve_system(a, f"electron point (kz={kz}, E={energy:g})")
    g_a = g_r.T
    g_lesser = g_r @ sigma_lesser @ g_a
    g_greater = g_r @ sigma_greater @ g_a
    return g_r, g_lesser, g_greater


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
    slot layout ``[n_A, n_B+1, n_3D, n_3D]``.
    """
    n = dev.Phi.shape[1]
    a = omega**2 * np.eye(n) - dev.Phi[qz] - pi_r + 1j * eta * np.eye(n)
    d_r = _solve_system(a, f"phonon point (qz={qz}, omega={omega:g})")
    d_a = d_r.T
    m = dev.n_3D
    d_lesser = extract_phonon_slots(d_r @ pi_lesser @ d_a, nmap, m)
    d_greater = extract_phonon_slots(d_r @ pi_greater @ d_a, nmap, m)
    return d_r, d_lesser, d_greater


def _partition(a: Array, bnum: int) -> list[tuple[int, int]]:
    n = a.shape[0]
    if n % bnum != 0:
        raise ValueError(f"matrix size {n} not divisible into {bnum} blocks")
    step = n // bnum
    return [(i * step, (i + 1) * step) for i in range(bnum)]


def solve_point_rgf(
    dev: DeviceMatrices,
    sigma_r: Array,
    sigma_lesser: Array,
    sigma_greater: Array,
    energy: float,
    kz: int,
    eta: float,
    bnum: int,
) -> tuple[list[Array], list[Array], list[Array]]:
    """Recursive Green's function pass over ``bnum`` blocks.

    Forward sweep builds left-connected retarded and lesser/greater blocks by
    Schur complements; the backward sweep assembles the diagonal blocks of
    the full G^R and G^<>.  Valid only for block-tridiagonal systems (the
    self-energy must be block diagonal).  Returns the diagonal blocks.
    """
    n = dev.H.shape[1]
    a = energy * dev.S[kz] - dev.H[kz] - sigma_r + 1j * eta * np.eye(n)
    spans = _partition(a, bnum)

    def blk(mat, i, j):
        (r0, r1), (c0, c1) = spans[i], spans[j]
        return mat[r0:r1, c0:c1]

    m = spans[0][1] - spans[0][0]
    ident = np.eye(m, dtype=np.complex128)

    g_r: list[Array] = [None] * bnum  # left-connected retarded
    g_l: list[Array] = [None] * bnum
    g_g: list[Array] = [None] * bnum
    for i in range(bnum):
        a_ii = blk(a, i, i)
        bl_i = blk(sigma_lesser, i, i)
        bg_i = blk(sigma_greater, i, i)
        if i == 0:
            eff = a_ii
        else:
            down = blk(a, i, i - 1)
            eff = a_ii - down @ g_r[i - 1] @ blk(a, i - 1, i)
        try:
            g_r[i] = np.linalg.solve(eff, ident)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"RGF forward pass: singular block {i} (kz={kz}, E={energy:g})") from exc
        if i == 0:
            g_l[i] = g_r[i] @ bl_i @ g_r[i].T
            g_g[i] = g_r[i] @ bg_i @ g_r[i].T
        else:
            down = blk(a, i, i - 1)
            g_l[i] = g_r[i] @ (bl_i + down @ g_l[i - 1] @ down.T) @ g_r[i].T
            g_g[i] = g_r[i] @ (bg_i + down @ g_g[i - 1] @ down.T) @ g_r[i].T

    big_r: list[Array] = [None] * bnum
    big_l: list[Array] = [None] * bnum
    big_g: list[Array] = [None] * bnum
    big_r[-1] = g_r[-1]
    big_l[-1] = g_l[-1]
    big_g[-1] = g_g[-1]
    for i in range(bnum - 2, -1, -1):
        up = blk(a, i, i + 1)
        down = blk(a, i + 1, i)
        big_r[i] = g_r[i] + g_r[i] @ (up @ big_r[i + 1] @ down) @ g_r[i]
        for g_small, big in ((g_l, big_l), (g_g, big_g)):
            mixed = g_r[i] @ (up @ big_r[i + 1] @ down) @ g_small[i]
            big[i] = (
                g_small[i]
                + g_r[i] @ (up @ big[i + 1] @ up.T) @ g_r[i].T
                + mixed
                + g_small[i] @ (down.T @ big_r[i + 1].T @ up.T) @ g_r[i].T
            )
    return big_r, big_l, big_g


def _electron_point(dev, sig_r, sig_l, sig_g, energy, kz, eta, solver, bnum, n_a, n_orb):
    sr = block_diag_from_atoms(sig_r)
    sl = block_diag_from_atoms(sig_l)
    sg = block_diag_from_atoms(sig_g)
    if solver == "rgf":
        blocks_r, blocks_l, blocks_g = solve_point_rgf(dev, sr, sl, sg, energy, kz, eta, bnum)
        per_block = n_a // bnum
        less = np.empty((n_a, n_orb, n_orb), np.complex128)
        grt = np.empty_like(less)
        for blk_i, (bl, bg) in enumerate(zip(blocks_l, blocks_g)):
            local_less = extract_atom_diag(bl, per_block, n_orb)
            local_grt = extract_atom_diag(bg, per_block, n_orb)
            less[blk_i * per_block : (blk_i + 1) * per_block] = local_less
            grt[blk_i * per_block : (blk_i + 1) * per_block] = local_grt
        return less, grt
    _, g_lesser, g_greater = solve_point_dense(dev, sr, sl, sg, energy, kz, eta)
    return extract_atom_diag(g_lesser, n_a, n_orb), extract_atom_diag(g_greater, n_a, n_orb)


def gf_phase(
    dev: DeviceMatrices,
    sigma: GreensTensor,
    pi: GreensTensor,
    params: SimParams,
    grid: EnergyGrid,
    nmap: NeighborMap,
    solver: str = "dense",
) -> tuple[GreensTensor, GreensTensor]:
    """Fill the electron and phonon Green's tensors point by point.

    Points are independent: each (k_z, E) and (q_z, omega) solve writes a
    disjoint tensor slice, so evaluation order cannot change the result.
    Retarded self-energies are always derived from the lesser/greater pair.
    """
    if solver not in ("dense", "rgf"):
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
                    grid.values[i_e], kz, params.eta, solver, params.bnum, params.n_A, params.n_orb,
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
    return g_e, g_ph
