"""Synthetic block-tridiagonal device matrices and neighbor maps.

Stands in for the DFT-produced inputs: Hamiltonian/overlap matrices per
electron momentum, dynamical matrices per phonon momentum, Hamiltonian
derivative blocks, and the atom neighbor indirection table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import SimParams

Array = np.ndarray


@dataclass(frozen=True)
class NeighborMap:
    """Atom neighbor table: ``idx[a, s]`` is the atom index of neighbor s of a.

    The relation is reverse-closed by construction: whenever b appears in
    a's list, a appears in b's list, so every coupling block has a stored
    counterpart in the opposite direction.  Chain ends may repeat an entry.
    """

    idx: Array

    def __post_init__(self):
        idx = np.asarray(self.idx)
        if idx.ndim != 2 or idx.dtype.kind != "i":
            raise ValueError("neighbor map must be a 2-D integer array")

    @property
    def n_A(self) -> int:
        return self.idx.shape[0]

    @property
    def n_B(self) -> int:
        return self.idx.shape[1]

    @property
    def max_reach(self) -> int:
        """Largest |f(a,s) - a| over the whole map."""
        a = np.arange(self.n_A)[:, None]
        return int(np.max(np.abs(self.idx - a))) if self.idx.size else 0

    @property
    def partners(self) -> Array:
        """[n_A, n_B+1] atom of every phonon slot: the atom itself, then its neighbors in map order."""
        return np.concatenate((np.arange(self.n_A)[:, None], self.idx), axis=1)

    def reverse_slot_table(self) -> Array:
        """[n_A, n_B] first slot s with idx[idx[a, t], s] == a, for every edge (a, t); raises if one is missing."""
        hits = self.idx[self.idx] == np.arange(self.n_A)[:, None, None]
        found = hits.any(-1)
        if not found.all():
            a, t = np.argwhere(~found)[0]
            raise ValueError(f"missing neighbor slot: atom {a} not in neighbor list of {self.idx[a, t]}")
        return hits.argmax(-1)


@dataclass(frozen=True, eq=False)
class DeviceMatrices:
    """Per-momentum device matrices plus the coupling derivative blocks; one device, never edited.

    H, S: ``[n_kz, n_A*n_orb, n_A*n_orb]``; Phi: ``[n_qz, n_A*n_3D, n_A*n_3D]``;
    dH: ``[n_A, n_B, n_3D, n_orb, n_orb]``.  All complex128, Hermitian where
    the physics requires it, block-tridiagonal under the ``bnum`` partition.
    H, S and Phi are marked read-only on construction (the arrays passed in,
    not copies; a view's writable base can still change them), because
    ``gf`` keeps an RGF plan derived from them with each device; an edited
    device is a new one, e.g. ``dataclasses.replace(dev, H=edited)``.
    ``eq=False``: a device compares and hashes by identity.
    """

    H: Array
    S: Array
    Phi: Array
    dH: Array

    def __post_init__(self):
        for matrices in (self.H, self.S, self.Phi):
            matrices.setflags(write=False)

    @property
    def n_3D(self) -> int:
        return self.dH.shape[2]


def build_neighbor_map(n_A: int, n_B: int) -> NeighborMap:
    """1-D chain neighbor table with reflection at the ends.

    Slots come in +/- offset pairs of magnitude 1..n_B//2; an offset that
    falls off the chain is reflected to the opposite side, which may
    duplicate an existing entry (allowed).  An odd n_B adds one slot pairing
    each atom with its XOR-1 partner, which needs an even atom count.
    """
    if n_B >= n_A:
        raise ValueError(f"n_B must be < n_A (got n_B={n_B}, n_A={n_A})")
    if n_B < 1:
        raise ValueError("n_B must be >= 1")
    if n_B % 2 == 1 and n_A % 2 == 1:
        raise ValueError("odd n_B requires an even atom count for a symmetric neighbor map")

    idx = np.empty((n_A, n_B), dtype=np.int64)
    half = n_B // 2
    for a in range(n_A):
        slot = 0
        for m in range(1, half + 1):
            for cand, alt in ((a + m, a - m), (a - m, a + m)):
                idx[a, slot] = cand if 0 <= cand < n_A else alt
                slot += 1
        if n_B % 2 == 1:
            idx[a, slot] = a ^ 1
    return NeighborMap(idx=idx)


def atom_block_index(n_A: int, bnum: int) -> Array:
    """Block id of each atom under the bnum partition (requires bnum | n_A)."""
    if n_A % bnum != 0:
        raise ValueError(f"bnum ({bnum}) must divide n_A ({n_A})")
    return np.repeat(np.arange(bnum), n_A // bnum)


def coupling_mask(nmap: NeighborMap, bnum: int) -> Array:
    """Boolean [n_A, n_A] of allowed atom couplings.

    Diagonal plus the symmetrized neighbor relation, restricted to pairs that
    stay within adjacent blocks of the bnum partition.
    """
    n_a = nmap.n_A
    mask = np.eye(n_a, dtype=bool)
    rows = np.repeat(np.arange(n_a), nmap.n_B)
    mask[rows, nmap.idx.ravel()] = True
    mask |= mask.T
    blk = atom_block_index(n_a, bnum)
    mask &= np.abs(blk[:, None] - blk[None, :]) <= 1
    return mask


def _expand_mask(mask: Array, block: int) -> Array:
    return np.kron(mask, np.ones((block, block), dtype=bool))


def _decay_profile(n_A: int, block: int) -> Array:
    a = np.arange(n_A)
    decay = 1.0 / (1.0 + np.abs(a[:, None] - a[None, :]) ** 2)
    return np.kron(decay, np.ones((block, block)))


def _random_coupling(rng: np.random.Generator, mask: Array, profile: Array | None, radius: float) -> Array:
    """A random Hermitian matrix times ``profile`` (if given), zero outside ``mask``, scaled to spectral ``radius``."""
    n = mask.shape[0]
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = (x + x.conj().T) / 2.0
    if profile is not None:
        x *= profile
    x[~mask] = 0.0
    norm = float(np.max(np.abs(np.linalg.eigvalsh(x))))
    if norm > 0:
        x *= radius / norm
    return x


def synthesize(params: SimParams, seed: int, coupling: float = 0.05) -> tuple[DeviceMatrices, NeighborMap]:
    """Deterministic random device honoring every structural invariant.

    ``coupling`` scales the electron-phonon derivative blocks dH; zero turns
    the scattering off entirely.  H is scaled so its spectrum sits inside the
    default energy grid; Phi below the lowest phonon frequency squared, which
    keeps every solve safely away from resonance at desk scale.
    """
    rng = np.random.default_rng(seed)
    nmap = build_neighbor_map(params.n_A, params.n_B)
    mask = coupling_mask(nmap, params.bnum)
    n_a, n_orb, n_3d = params.n_A, params.n_orb, params.n_3D

    e_mask = _expand_mask(mask, n_orb)
    e_decay = _decay_profile(n_a, n_orb)
    n_e = n_a * n_orb
    h = np.empty((params.n_kz, n_e, n_e), dtype=np.complex128)
    s = np.empty_like(h)
    for k in range(params.n_kz):  # H, then S's perturbation, per k_z: the draw order the seed fixes
        h[k] = _random_coupling(rng, e_mask, e_decay, 0.8)
        s[k] = np.eye(n_e) + _random_coupling(rng, e_mask, None, 0.4)

    ph_mask = _expand_mask(mask, n_3d)
    ph_decay = _decay_profile(n_a, n_3d)
    # Lowest phonon frequency under the default grid convention (one step).
    omega_min = 2.0 / max(params.n_E - 1, 1)
    phi = np.empty((params.n_qz, n_a * n_3d, n_a * n_3d), dtype=np.complex128)
    for q in range(params.n_qz):
        phi[q] = _random_coupling(rng, ph_mask, ph_decay, 0.5 * omega_min**2)

    dh = coupling * (
        rng.standard_normal((n_a, params.n_B, n_3d, n_orb, n_orb))
        + 1j * rng.standard_normal((n_a, params.n_B, n_3d, n_orb, n_orb))
    )

    return DeviceMatrices(H=h, S=s, Phi=phi, dH=dh), nmap


def hermitian_check(dev: DeviceMatrices) -> float:
    """Max |M - M^dagger| element over all H(k_z) and Phi(q_z)."""
    worst = 0.0
    for stack in (dev.H, dev.Phi):
        for m in stack:
            worst = max(worst, float(np.max(np.abs(m - m.conj().T))))
    return worst
