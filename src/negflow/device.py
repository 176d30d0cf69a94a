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
    """Per-momentum device matrices as diagonal bands, plus the coupling derivative blocks; one device, never edited.

    H, S: ``[n_kz, n_A*n_orb, 2w + 1]``; Phi: ``[n_qz, n_A*n_3D, 2w + 1]``;
    dH: ``[n_A, n_B, n_3D, n_orb, n_orb]``.  All complex128, Hermitian where
    the physics requires it, block-tridiagonal under the ``bnum`` partition.
    Row i of a band holds columns i - w .. i + w of its n x n matrix, zero
    outside the matrix (``to_band``; ``from_band`` rebuilds the matrix), w
    being the stack's half-bandwidth (on gf-long 7 for H and S and 5 for
    Phi), so a momentum takes n (2w + 1) entries, not n^2.  The bands are
    copied on construction and the copies marked read-only, because ``gf``
    keeps an RGF plan derived from them with each device; an edited device
    is a new one, e.g. ``dataclasses.replace(dev, H=to_band(edited))``.
    ``eq=False``: a device compares and hashes by identity.
    """

    H: Array
    S: Array
    Phi: Array
    dH: Array

    def __post_init__(self):
        for name in ("H", "S", "Phi"):
            band = np.array(getattr(self, name), np.complex128)  # a copy: no array of the caller's reaches the device
            width = band.shape[-1] if band.ndim == 3 else 0
            if width % 2 == 0 or np.any(band[:, ~_band_columns(band.shape[1], width // 2)[1]]):
                raise ValueError(f"{name} must be bands [momenta, n, 2w + 1], zero outside the n x n matrix")
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    @property
    def n_3D(self) -> int:
        return self.dH.shape[2]


def half_bandwidth(matrices: Array) -> int:
    """The largest |i - j| of a nonzero entry (i, j) of a matrix or a stack ``[..., n, n]``, by one scan; 0 if none."""
    rows, cols = np.nonzero(np.any(matrices.reshape(-1, *matrices.shape[-2:]) != 0, axis=0))
    return int(np.max(np.abs(rows - cols), initial=0))


def _band_columns(n: int, w: int) -> tuple[Array, Array]:
    """The column of every cell of a band ``[n, 2w + 1]``, row i's being i - w .. i + w, and which lie in the matrix."""
    cols = np.arange(n)[:, None] + np.arange(-w, w + 1)
    return cols, (cols >= 0) & (cols < n)


def to_band(matrices: Array, w: int | None = None) -> Array:
    """The diagonal bands ``[..., n, 2w + 1]`` of matrices ``[..., n, n]``, new; zero outside the matrix.

    w defaults to the half-bandwidth of the whole stack (``half_bandwidth``),
    so every nonzero is kept; a given w drops the entries farther out.
    """
    n = matrices.shape[-1]
    w = half_bandwidth(matrices) if w is None else w
    cols, inside = _band_columns(n, w)
    band = np.zeros((*matrices.shape[:-1], 2 * w + 1), np.complex128)
    band[..., inside] = matrices[..., np.nonzero(inside)[0], cols[inside]]
    return band


def band_window(band: Array, starts: Array, width: int) -> Array:
    """Columns ``starts[i]`` .. ``starts[i] + width - 1`` of every row i of the matrices of bands ``[..., n, 2w + 1]``.

    Returns them new, ``[..., n, width]``, zero where the band holds no
    entry: outside its 2w + 1 columns or outside the matrix.
    """
    n, band_width = band.shape[-2:]
    cells = starts[:, None] + np.arange(width) - np.arange(n)[:, None] + band_width // 2
    inside = (cells >= 0) & (cells < band_width)
    window = np.zeros((*band.shape[:-1], width), np.complex128)
    window[..., inside] = band[..., np.nonzero(inside)[0], cells[inside]]
    return window


def from_band(band: Array) -> Array:
    """The matrices ``[..., n, n]`` of bands ``[..., n, 2w + 1]`` (``to_band``), new: the one way back to n x n."""
    n = band.shape[-2]
    return band_window(band, np.zeros(n, np.int64), n)


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

    # each momentum is cut to its band as soon as it is drawn; every draw is zero outside its mask, so the mask's
    # half-bandwidth is the stack's, and no [n_kz, n, n] stack is ever held
    e_mask = _expand_mask(mask, n_orb)
    e_decay = _decay_profile(n_a, n_orb)
    n_e, w_e = n_a * n_orb, half_bandwidth(e_mask)
    h = np.empty((params.n_kz, n_e, 2 * w_e + 1), dtype=np.complex128)
    s = np.empty_like(h)
    for k in range(params.n_kz):  # H, then S's perturbation, per k_z: the draw order the seed fixes
        h[k] = to_band(_random_coupling(rng, e_mask, e_decay, 0.8), w_e)
        s[k] = to_band(np.eye(n_e) + _random_coupling(rng, e_mask, None, 0.4), w_e)

    ph_mask = _expand_mask(mask, n_3d)
    ph_decay = _decay_profile(n_a, n_3d)
    w_ph = half_bandwidth(ph_mask)
    # Lowest phonon frequency under the default grid convention (one step).
    omega_min = 2.0 / max(params.n_E - 1, 1)
    phi = np.empty((params.n_qz, n_a * n_3d, 2 * w_ph + 1), dtype=np.complex128)
    for q in range(params.n_qz):
        phi[q] = to_band(_random_coupling(rng, ph_mask, ph_decay, 0.5 * omega_min**2), w_ph)

    dh = coupling * (
        rng.standard_normal((n_a, params.n_B, n_3d, n_orb, n_orb))
        + 1j * rng.standard_normal((n_a, params.n_B, n_3d, n_orb, n_orb))
    )

    return DeviceMatrices(H=h, S=s, Phi=phi, dH=dh), nmap


def hermitian_check(dev: DeviceMatrices) -> float:
    """Max |M - M^dagger| element over all H(k_z), S(k_z) and Phi(q_z), read from their bands.

    Entry (i, j), cell d = j - i + w of band row i, meets its mirror (j, i),
    cell 2w - d of band row j, so the check gathers one band's worth of
    mirrors and forms no n x n matrix.
    """
    worst = 0.0
    for band in (dev.H, dev.S, dev.Phi):
        n, width = band.shape[-2:]
        cols, inside = _band_columns(n, width // 2)
        mirror = band[:, cols[inside], width - 1 - np.nonzero(inside)[1]]
        worst = max(worst, float(np.max(np.abs(band[:, inside] - mirror.conj()), initial=0.0)))
    return worst
