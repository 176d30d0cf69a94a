"""Closed-form flop models for the scattering self-energy phase.

The analytic forms count the orb^3-bearing small matrix multiplications of
one full SSE evaluation (electron and phonon self-energies, lesser and
greater), at 8 real flop per complex multiply-add.  The instrumented counter
tallies exactly those GEMM contractions, so on any grid the counted value of
the matching kernel arrangement reproduces the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .params import SimParams

FLOPS_PER_CMULADD = 8

PFLOP = 1e15


@dataclass
class FlopCounter:
    """Per-stage tally of complex multiply-adds from matrix contractions.

    Only the orb^3-class GEMM work is tallied; orb^2-class scalings, traces
    and additions are excluded by design, mirroring what the closed forms
    model.  One m x k x n complex GEMM contributes m*k*n multiply-adds.
    """

    stages: dict[str, int] = field(default_factory=dict)

    def add_matmul(self, m: int, k: int, n: int, repeat: int = 1, stage: str = "gemm") -> None:
        self.stages[stage] = self.stages.get(stage, 0) + m * k * n * repeat

    def cmuladds(self, stage: str | None = None) -> int:
        if stage is not None:
            return self.stages.get(stage, 0)
        return sum(self.stages.values())

    def flops(self, stage: str | None = None) -> int:
        return FLOPS_PER_CMULADD * self.cmuladds(stage)


def sse_flops_omen(params: SimParams) -> int:
    """Flop count of the straightforward SSE algorithm (full redundancy)."""
    return (
        64
        * params.n_A
        * params.n_B
        * params.n_3D
        * params.n_kz
        * params.n_qz
        * params.n_E
        * params.n_w
        * params.n_orb**3
    )


def sse_flops_dace(params: SimParams) -> int:
    """Flop count after redundancy removal of the momentum/frequency-invariant stage."""
    common = params.n_A * params.n_B * params.n_3D * params.n_kz * params.n_E * params.n_orb**3
    return 32 * common * params.n_qz * params.n_w + 32 * common
