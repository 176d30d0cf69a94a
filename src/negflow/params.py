"""Simulation parameters and discretization grids shared by all other modules."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

# Soft ranges of typical production simulations; values outside only warn.
_TYPICAL_RANGES: dict[str, tuple[int, int]] = {
    "n_kz": (1, 21),
    "n_qz": (1, 21),
    "n_E": (700, 1500),
    "n_w": (10, 100),
    "n_B": (4, 50),
    "n_orb": (1, 30),
}

_COUNT_FIELDS = ("n_kz", "n_qz", "n_E", "n_w", "n_A", "n_B", "n_orb", "n_3D", "bnum")


@dataclass(frozen=True)
class SimParams:
    """Full parameter set of a dissipative quantum-transport run.

    All quantities are dimensionless grid units.  ``bnum`` is the number of
    blocks of the device's block-tridiagonal partition: ``synthesize``
    couples only atoms of adjacent blocks, and the RGF solver refines the
    partition, recursing over each block cut into the thinnest sub-blocks
    its couplings allow (``gf._rgf_blocks``).  ``eta`` is the diagonal
    broadening that stands in for open-boundary self-energies.
    """

    n_kz: int
    n_qz: int
    n_E: int
    n_w: int
    n_A: int
    n_B: int
    n_orb: int
    bnum: int = 1
    n_3D: int = 3
    eta: float = 1e-3

    @property
    def electron_shape(self) -> tuple[int, int, int, int, int]:
        return (self.n_kz, self.n_E, self.n_A, self.n_orb, self.n_orb)

    @property
    def phonon_shape(self) -> tuple[int, int, int, int, int, int]:
        return (self.n_qz, self.n_w, self.n_A, self.n_B + 1, self.n_3D, self.n_3D)

    def replace(self, **kwargs) -> "SimParams":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimParams":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    def __str__(self) -> str:
        lines = ["ok" if self.ok else "INVALID"]
        lines += [f"violation: {v}" for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate(params: SimParams) -> ValidationReport:
    """Check every hard invariant of ``params``; report-only, never raises.

    Hard violations make the parameter set unusable downstream; warnings only
    flag values outside the typical production ranges.
    """
    violations: list[str] = []
    warnings: list[str] = []

    for name in _COUNT_FIELDS:
        value = getattr(params, name)
        if not isinstance(value, (int, np.integer)):
            violations.append(f"{name} must be an integer, got {value!r}")
        elif value < 1:
            violations.append(f"{name} must be >= 1, got {value}")
    if isinstance(params.n_3D, (int, np.integer)) and params.n_3D != 3:
        violations.append("n_3D must equal 3")
    if (
        isinstance(params.n_A, (int, np.integer))
        and isinstance(params.bnum, (int, np.integer))
        and params.bnum >= 1
        and params.n_A >= 1
        and params.n_A % params.bnum != 0
    ):
        violations.append(f"n_A must be divisible by bnum ({params.n_A} % {params.bnum} != 0)")
    if params.n_qz > params.n_kz:
        violations.append(f"n_qz must be <= n_kz ({params.n_qz} > {params.n_kz})")
    if (
        isinstance(params.n_A, (int, np.integer))
        and isinstance(params.n_B, (int, np.integer))
        and params.n_A % 2 == 1
        and params.n_B % 2 == 1
    ):
        # Symmetric neighbor tables need an even number of edge endpoints.
        violations.append(f"n_A * n_B must be even (got n_A={params.n_A}, n_B={params.n_B})")
    if params.n_B >= params.n_A:
        violations.append(f"n_B must be < n_A (got n_B={params.n_B}, n_A={params.n_A})")
    if params.n_w >= params.n_E:
        violations.append(f"n_w must be < n_E ({params.n_w} >= {params.n_E})")
    if not params.eta > 0:
        violations.append(f"eta must be > 0, got {params.eta}")

    for name, (lo, hi) in _TYPICAL_RANGES.items():
        value = getattr(params, name)
        if isinstance(value, (int, np.integer)) and value >= 1 and not lo <= value <= hi:
            warnings.append(f"{name} outside [{lo},{hi}]: {value}")

    return ValidationReport(ok=not violations, violations=tuple(violations), warnings=tuple(warnings))


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform energy grid plus the frequency-to-energy offset map.

    ``frequency_map`` holds one ``(offset, weight)`` pair per phonon
    frequency: the offset is the integer number of grid steps standing in for
    the energy shift of that frequency, and the weight absorbs the 1/(2*pi)
    and d-omega factors of the frequency integral.  ``energy_weight`` plays
    the same role for the energy integral of the phonon self-energies.
    """

    values: tuple[float, ...]
    frequency_map: tuple[tuple[int, float], ...]
    energy_weight: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("energy grid must be a non-empty 1-D sequence")
        if vals.size > 1:
            steps = np.diff(vals)
            if np.any(steps <= 0):
                raise ValueError("energy grid must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("energy grid must be uniformly spaced")
        n_e = vals.size
        for w, (off, weight) in enumerate(self.frequency_map):
            if not isinstance(off, (int, np.integer)) or not 0 <= off < n_e:
                raise ValueError(f"frequency offset {off} (index {w}) outside [0, {n_e})")
            if not math.isfinite(weight):
                raise ValueError(f"frequency weight {weight} (index {w}) is not finite")

    @property
    def n_E(self) -> int:
        return len(self.values)

    @property
    def n_w(self) -> int:
        return len(self.frequency_map)

    @property
    def spacing(self) -> float:
        if len(self.values) < 2:
            return 1.0
        return float(self.values[1] - self.values[0])

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(off for off, _ in self.frequency_map)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.frequency_map)

    @property
    def max_offset(self) -> int:
        return max(self.offsets) if self.frequency_map else 0

    def frequency_value(self, w: int) -> float:
        """Phonon frequency in energy units: offset times grid spacing."""
        return self.frequency_map[w][0] * self.spacing


def default_grid(params: SimParams) -> EnergyGrid:
    """Uniform grid on [-1, 1] with frequency offsets 1..n_w.

    Offsets are clamped into the grid (a single-point grid degenerates to
    offset 0) and weighted uniformly by 1/(2*pi*n_w); the energy integral
    weight is the analogous 1/(2*pi*n_E).
    """
    if params.n_E == 1:
        values = (0.0,)
    else:
        values = tuple(np.linspace(-1.0, 1.0, params.n_E))
    weight = 1.0 / (2.0 * math.pi * params.n_w)
    freq_map = tuple((min(w + 1, params.n_E - 1), weight) for w in range(params.n_w))
    return EnergyGrid(values=values, frequency_map=freq_map, energy_weight=1.0 / (2.0 * math.pi * params.n_E))


def load_params(path: str) -> SimParams:
    """Read a SimParams JSON file (one key per field)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return SimParams.from_dict(data)
