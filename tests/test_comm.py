"""Communication-volume models and the tile-size optimizer."""

import pytest

from negflow.comm import (
    TIB,
    CommPlan,
    InfeasiblePartitionError,
    dace_volume,
    factor_pairs,
    omen_volume,
    optimize_tiles,
    plan_report,
    rows_to_csv,
)
from negflow.params import SimParams

FULLSCALE = SimParams(n_kz=3, n_qz=3, n_E=706, n_w=70, n_A=4864, n_B=34, n_orb=12, bnum=19)


def test_omen_weak_scaling_row():
    plan = omen_volume(FULLSCALE, 768)
    assert plan.total_tib == pytest.approx(32.11, rel=5e-3)
    assert plan.scheme == "omen"


def test_omen_strong_scaling_row():
    params = FULLSCALE.replace(n_kz=7, n_qz=7)
    plan = omen_volume(params, 224)
    assert plan.total_tib == pytest.approx(108.24, rel=5e-3)


def test_omen_zero_frequencies():
    plan = omen_volume(FULLSCALE.replace(n_w=0), 16)
    assert plan.total_bytes == 0.0


def test_omen_electron_aggregate_independent_of_processes():
    expected = 64 * FULLSCALE.n_kz * FULLSCALE.n_E * FULLSCALE.n_qz * FULLSCALE.n_w * FULLSCALE.n_A * FULLSCALE.n_orb**2
    for p in (1, 7, 768, 2816):
        plan = omen_volume(FULLSCALE, p)
        assert plan.per_process_bytes["electron_G"] * p == pytest.approx(expected, rel=1e-12)


def test_dace_single_process_footprint():
    plan = dace_volume(FULLSCALE, 1, 1)
    assert plan.scheme == "tiled"
    g = 64 * FULLSCALE.n_kz * (FULLSCALE.n_E + 2 * FULLSCALE.n_w) * (FULLSCALE.n_A + FULLSCALE.n_B) * FULLSCALE.n_orb**2
    d = 64 * FULLSCALE.n_qz * FULLSCALE.n_w * (FULLSCALE.n_A + FULLSCALE.n_B) * FULLSCALE.n_B * 9
    assert plan.total_bytes == pytest.approx(g + d)
    # no momentum-grid replication factor multiplies the electron term
    assert plan.per_process_bytes["electron_G"] * 2 == pytest.approx(g)


def test_dace_atom_halving_structure():
    # while N_A/T_A > N_B, doubling T_A strictly shrinks per-process electron bytes
    t_a = 2
    while FULLSCALE.n_A / (2 * t_a) > FULLSCALE.n_B:
        before = dace_volume(FULLSCALE, 1, t_a).per_process_bytes["electron_G"]
        after = dace_volume(FULLSCALE, 1, 2 * t_a).per_process_bytes["electron_G"]
        assert after < before
        t_a *= 2


def test_optimizer_single_process():
    plan = optimize_tiles(FULLSCALE, 1)
    assert (plan.t_e, plan.t_a) == (1, 1)
    assert plan.processes == 1


def test_optimizer_prime_forced_split():
    params = FULLSCALE.replace(n_E=5, n_w=2)
    plan = optimize_tiles(params, 7)  # prime, > n_E, <= n_A
    assert (plan.t_e, plan.t_a) == (1, 7)


def test_optimizer_never_beaten_by_enumeration():
    for processes in (24, 96, 768):
        best = optimize_tiles(FULLSCALE, processes)
        for t_e, t_a in factor_pairs(processes):
            if t_e > FULLSCALE.n_E or t_a > FULLSCALE.n_A:
                continue
            assert best.total_bytes <= dace_volume(FULLSCALE, t_e, t_a).total_bytes + 1e-9


def test_optimizer_matches_weak_scaling_table():
    # Table of weak-scaling DaCe volumes; exhaustive optimum lands within 10%
    targets = {3: (768, 0.54), 5: (1280, 1.22), 7: (1792, 2.17), 9: (2304, 3.38), 11: (2816, 4.86)}
    for n_kz, (processes, tib) in targets.items():
        params = FULLSCALE.replace(n_kz=n_kz, n_qz=n_kz)
        plan = optimize_tiles(params, processes)
        assert plan.total_tib == pytest.approx(tib, rel=0.10)
        assert plan.t_e * plan.t_a == processes


def test_optimizer_infeasible_partition():
    params = FULLSCALE.replace(n_E=3, n_w=2, n_A=4, n_B=2, bnum=1)
    with pytest.raises(InfeasiblePartitionError):
        optimize_tiles(params, 35)


def test_optimizer_tie_break_is_deterministic():
    # symmetric configuration with equal totals picks the smallest T_A
    params = FULLSCALE.replace(n_E=706, n_A=706)
    first = optimize_tiles(params, 36)
    second = optimize_tiles(params, 36)
    assert (first.t_e, first.t_a) == (second.t_e, second.t_a)


def test_plan_report_rows_and_csv():
    rows = plan_report(FULLSCALE, [768])
    choices = [r["choice"] for r in rows]
    assert choices == ["model", "optimizer", "T_E=N_kz"]
    for row in rows:
        assert set(row) >= {"scheme", "P", "T_E", "T_A", "bytes_G", "bytes_D_Pi", "total_TiB"}
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0].startswith("scheme,P,T_E,T_A,bytes_G,bytes_D_Pi,total_TiB")
    assert len(csv_text.splitlines()) == 4


def test_invalid_inputs():
    with pytest.raises(ValueError):
        omen_volume(FULLSCALE, 0)
    with pytest.raises(ValueError):
        dace_volume(FULLSCALE, 0, 4)
    with pytest.raises(ValueError):
        optimize_tiles(FULLSCALE, 0)


def test_comm_plan_row_units():
    plan = dace_volume(FULLSCALE, 4, 192)
    row = plan.row()
    assert row["total_TiB"] == pytest.approx(plan.total_bytes / TIB)
    assert isinstance(plan, CommPlan)
    assert all(v >= 0 for v in plan.per_process_bytes.values())
