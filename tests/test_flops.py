"""Flop models: closed forms, instrumented counters, and their agreement."""

import inspect
from fractions import Fraction

import numpy as np
import pytest

from negflow.device import NeighborMap, synthesize
from negflow.flops import (
    FLOPS_PER_CMULADD,
    FlopCounter,
    sse_flops_dace,
    sse_flops_omen,
)
from negflow.gf import GreensTensor
from negflow.params import EnergyGrid, SimParams, default_grid
from negflow.sse import SseVariant, preprocess_D, self_consistent_loop, sse_pi, sse_sigma

FULLSCALE = SimParams(n_kz=3, n_qz=3, n_E=706, n_w=70, n_A=4864, n_B=34, n_orb=12, bnum=19)

TABLE_OMEN = {3: 24.41, 5: 67.80, 7: 132.89, 9: 219.67, 11: 328.15}
TABLE_DACE = {3: 12.38, 5: 34.19, 7: 66.85, 9: 110.36, 11: 164.71}


def count_sse_phase(
    g: GreensTensor,
    dc: GreensTensor,
    dh: np.ndarray,
    nmap: NeighborMap,
    grid: EnergyGrid,
    n_qz: int,
    variant: SseVariant = SseVariant.REFERENCE,
) -> FlopCounter:
    """Run one full SSE evaluation (Sigma + Pi) with an attached GEMM counter.

    The reference and fissioned arrangements pair with the unhoisted Pi
    kernel (full recomputation, the straightforward-algorithm flop model);
    the redundancy-free arrangements pair with the hoisted one (the reduced
    model).
    """
    counter = FlopCounter()
    hoist = variant not in (SseVariant.REFERENCE, SseVariant.FISSIONED)
    sse_sigma(variant, g, dc, dh, nmap, grid, counter=counter)
    sse_pi(g, dh, nmap, grid, n_qz, counter=counter, hoist_invariant=hoist)
    return counter


@pytest.mark.parametrize("n_kz", sorted(TABLE_OMEN))
def test_closed_forms_match_reported_table(n_kz):
    params = FULLSCALE.replace(n_kz=n_kz, n_qz=n_kz)
    assert sse_flops_omen(params) / 1e15 == pytest.approx(TABLE_OMEN[n_kz], rel=1.5e-2)
    assert sse_flops_dace(params) / 1e15 == pytest.approx(TABLE_DACE[n_kz], rel=1.5e-2)


def test_omen_form_tightness():
    # the straightforward-algorithm numbers agree to 1 permille
    assert sse_flops_omen(FULLSCALE) / 1e15 == pytest.approx(24.41, rel=1e-3)


def test_zero_parameter_zeroes_the_count():
    for name in ("n_kz", "n_qz", "n_E", "n_w", "n_A", "n_B"):
        assert sse_flops_omen(FULLSCALE.replace(**{name: 0})) == 0


def test_dace_to_omen_ratio_identity():
    for n_qz, n_w in [(1, 1), (2, 3), (7, 70)]:
        params = FULLSCALE.replace(n_kz=max(n_qz, 1), n_qz=n_qz, n_w=n_w)
        ratio = Fraction(sse_flops_dace(params), sse_flops_omen(params))
        assert ratio == Fraction(1, 2) + Fraction(1, 2 * n_qz * n_w)


def test_multilinearity():
    def first_term(p):
        second = 32 * p.n_A * p.n_B * p.n_3D * p.n_kz * p.n_E * p.n_orb**3
        return sse_flops_dace(p) - second

    base = first_term(FULLSCALE)
    for name in ("n_kz", "n_qz", "n_E", "n_w", "n_A", "n_B"):
        doubled = FULLSCALE.replace(**{name: 2 * getattr(FULLSCALE, name)})
        assert sse_flops_omen(doubled) == 2 * sse_flops_omen(FULLSCALE)
        assert first_term(doubled) == 2 * base
    # orbital count enters cubically
    assert sse_flops_omen(FULLSCALE.replace(n_orb=24)) == 8 * sse_flops_omen(FULLSCALE)


def test_counter_unit_convention():
    counter = FlopCounter()
    counter.add_matmul(1, 1, 1)
    assert counter.flops() == 8  # one complex multiply-add


def test_counter_single_update_hand_count():
    # one (a,b,i,j,point) update at n_orb=2: one dHG GEMM plus one
    # accumulation GEMM, 2^3 multiply-adds each -> 2 * 8 * 8 = 128 flop
    counter = FlopCounter()
    counter.add_matmul(2, 2, 2, stage="sigma.dhg")
    counter.add_matmul(2, 2, 2, stage="sigma.accumulate")
    assert counter.flops() == 128
    assert counter.flops("sigma.dhg") == FLOPS_PER_CMULADD * 8


def _tiny_instance(seed, params):
    rng = np.random.default_rng(seed)

    def rand(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    grid = default_grid(params)
    _, nmap = synthesize(params, seed=seed)
    g = GreensTensor(rand(params.electron_shape), rand(params.electron_shape))
    d = GreensTensor(rand(params.phonon_shape), rand(params.phonon_shape))
    dh = rand((params.n_A, params.n_B, 3, params.n_orb, params.n_orb))
    return grid, nmap, g, preprocess_D(d, nmap), dh


def _variant_cases(params_list, pinned, *others):
    """(variant, params) cases: ``pinned`` under the plain ``params<i>`` ids, then each of ``others``."""
    return [
        pytest.param(variant, params, id=f"params{i}" if variant is pinned else f"params{i}-{variant.value}")
        for variant in (pinned, *others)
        for i, params in enumerate(params_list)
    ]


@pytest.mark.parametrize(
    "variant, params",
    _variant_cases(
        [
            SimParams(n_kz=2, n_qz=2, n_E=4, n_w=2, n_A=4, n_B=2, n_orb=2, bnum=2),
            SimParams(n_kz=3, n_qz=1, n_E=3, n_w=1, n_A=4, n_B=2, n_orb=3, bnum=1),
        ],
        SseVariant.REFERENCE,
        SseVariant.FISSIONED,
    ),
)
def test_counted_reference_matches_straightforward_form(variant, params):
    # the arrangements that keep the redundant (q_z, omega) work, with the unhoisted Pi
    grid, nmap, g, dc, dh = _tiny_instance(0, params)
    counter = count_sse_phase(g, dc, dh, nmap, grid, params.n_qz, variant=variant)
    # within 5 percent on instrumentable sizes; the tally is in fact exact
    assert counter.flops() == sse_flops_omen(params)


@pytest.mark.parametrize(
    "variant, params",
    _variant_cases(
        [
            SimParams(n_kz=2, n_qz=2, n_E=4, n_w=2, n_A=4, n_B=2, n_orb=2, bnum=2),
            SimParams(n_kz=3, n_qz=1, n_E=3, n_w=2, n_A=4, n_B=2, n_orb=3, bnum=1),
        ],
        SseVariant.BATCHED_FUSED,
        SseVariant.REDUNDANCY_REMOVED,
        SseVariant.LAYOUT_TRANSFORMED,
    ),
)
def test_counted_batched_matches_reduced_form(variant, params):
    # the redundancy-free arrangements, with the hoisted Pi
    grid, nmap, g, dc, dh = _tiny_instance(1, params)
    counter = count_sse_phase(g, dc, dh, nmap, grid, params.n_qz, variant=variant)
    assert counter.flops() == sse_flops_dace(params)


@pytest.mark.parametrize(
    "params",
    [
        SimParams(n_kz=2, n_qz=2, n_E=4, n_w=2, n_A=4, n_B=2, n_orb=2, bnum=2),
        SimParams(n_kz=3, n_qz=3, n_E=5, n_w=3, n_A=4, n_B=2, n_orb=3, bnum=1),
    ],
)
def test_counted_defaults_match_dace_form(params):
    # the loop's Sigma arrangement with Pi in its default form: its trace GEMM does the n_qz n_w dH G
    # stages of work the hoisted Pi's per-(q, omega) factor does, so the defaults count the reduced model
    grid, nmap, g, dc, dh = _tiny_instance(4, params)
    counter = FlopCounter()
    sse_sigma(inspect.signature(self_consistent_loop).parameters["variant"].default, g, dc, dh, nmap, grid,
              counter=counter)
    sse_pi(g, dh, nmap, grid, params.n_qz, counter=counter)
    assert counter.flops() == sse_flops_dace(params)


@pytest.mark.parametrize("n_qz, n_w", [(2, 1), (1, 2), (2, 2), (3, 2)])
def test_batched_counts_below_reference(n_qz, n_w):
    params = SimParams(n_kz=3, n_qz=n_qz, n_E=4, n_w=n_w, n_A=4, n_B=2, n_orb=2, bnum=2)
    grid, nmap, g, dc, dh = _tiny_instance(2, params)
    ref = count_sse_phase(g, dc, dh, nmap, grid, params.n_qz, variant=SseVariant.REFERENCE)
    fused = count_sse_phase(g, dc, dh, nmap, grid, params.n_qz, variant=SseVariant.BATCHED_FUSED)
    assert fused.flops() < ref.flops()
