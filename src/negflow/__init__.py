"""Desk-scale dissipative quantum transport with data-movement and flop models."""

from .params import EnergyGrid, SimParams, ValidationReport, default_grid, validate
from .device import DeviceMatrices, NeighborMap, hermitian_check, synthesize
from .gf import (
    GreensTensor,
    SingularSystemError,
    gf_phase,
    retarded_from_lesser_greater,
    solve_phonon_point,
    solve_point_dense,
    solve_point_dense_diag,
    solve_point_rgf,
)
from .sse import (
    LoopResult,
    SseVariant,
    preprocess_D,
    self_consistent_loop,
    sse_pi,
    sse_sigma,
)
from .distsim import MessageLedger, run_omen_scheme, run_tiled_scheme
from .flops import FlopCounter, sse_flops_dace, sse_flops_omen

__version__ = "0.1.0"

__all__ = [
    "DeviceMatrices",
    "EnergyGrid",
    "FlopCounter",
    "GreensTensor",
    "LoopResult",
    "MessageLedger",
    "NeighborMap",
    "SimParams",
    "SingularSystemError",
    "SseVariant",
    "ValidationReport",
    "default_grid",
    "gf_phase",
    "hermitian_check",
    "preprocess_D",
    "retarded_from_lesser_greater",
    "run_omen_scheme",
    "run_tiled_scheme",
    "self_consistent_loop",
    "solve_phonon_point",
    "solve_point_dense",
    "solve_point_dense_diag",
    "solve_point_rgf",
    "sse_flops_dace",
    "sse_flops_omen",
    "sse_pi",
    "sse_sigma",
    "synthesize",
    "validate",
]
