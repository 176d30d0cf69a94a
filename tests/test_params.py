"""Parameter validation and grid construction."""

import json

import numpy as np
import pytest

from negflow.params import (
    EnergyGrid,
    SimParams,
    default_grid,
    load_params,
    validate,
)

FULLSCALE = SimParams(n_kz=3, n_qz=3, n_E=706, n_w=70, n_A=4864, n_B=34, n_orb=12, bnum=19)


def test_paper_configuration_is_valid():
    report = validate(FULLSCALE)
    assert report.ok
    assert report.violations == ()
    assert report.warnings == ()


def test_n3d_must_be_three():
    report = validate(FULLSCALE.replace(n_3D=2))
    assert not report.ok
    assert any("n_3D must equal 3" in v for v in report.violations)


def test_out_of_range_count_warns_but_passes():
    report = validate(FULLSCALE.replace(n_kz=22, n_qz=3))
    assert report.ok
    assert any("n_kz outside [1,21]" in w for w in report.warnings)


@pytest.mark.parametrize(
    "override, fragment",
    [
        ({"n_kz": 0}, "n_kz must be >= 1"),
        ({"n_A": 4863}, "divisible by bnum"),
        ({"n_qz": 5, "n_kz": 4}, "n_qz must be <= n_kz"),
        ({"n_w": 706}, "n_w must be < n_E"),
        ({"eta": 0.0}, "eta must be > 0"),
        ({"n_A": 4845, "n_B": 33, "bnum": 5}, "must be even"),
        ({"n_B": 4864}, "n_B must be < n_A"),
    ],
)
def test_violations(override, fragment):
    report = validate(FULLSCALE.replace(**override))
    assert not report.ok
    assert any(fragment in v for v in report.violations), report.violations


def test_validate_is_pure_and_deterministic():
    p = FULLSCALE.replace(n_kz=22, n_qz=3)
    assert validate(p) == validate(p)


def test_validated_params_accepted_downstream():
    # Any parameter set that validates cleanly must be accepted by every
    # downstream constructor.
    from negflow.device import synthesize
    from negflow.gf import GreensTensor

    rng = np.random.default_rng(0)
    for _ in range(10):
        p = SimParams(
            n_kz=int(rng.integers(1, 4)),
            n_qz=1,
            n_E=int(rng.integers(2, 6)),
            n_w=1,
            n_A=int(rng.integers(2, 5)) * 2,
            n_B=int(rng.integers(1, 4)),
            n_orb=int(rng.integers(1, 3)),
            bnum=1,
        )
        report = validate(p)
        assert report.ok, report.violations
        synthesize(p, seed=1)
        default_grid(p)
        GreensTensor.zeros(p.electron_shape)
        GreensTensor.zeros(p.phonon_shape)


def test_grid_monotone_and_uniform():
    with pytest.raises(ValueError, match="strictly increasing"):
        EnergyGrid(values=(0.0, 0.0, 1.0), frequency_map=((1, 1.0),), energy_weight=1.0)
    with pytest.raises(ValueError, match="uniformly spaced"):
        EnergyGrid(values=(0.0, 1.0, 3.0), frequency_map=((1, 1.0),), energy_weight=1.0)


def test_grid_offsets_must_fit():
    with pytest.raises(ValueError, match="outside"):
        EnergyGrid(values=(0.0, 1.0), frequency_map=((2, 1.0),), energy_weight=1.0)
    with pytest.raises(ValueError, match="outside"):
        EnergyGrid(values=(0.0, 1.0), frequency_map=((-1, 1.0),), energy_weight=1.0)


def test_default_grid_layout():
    p = FULLSCALE.replace(n_E=16, n_w=3)
    grid = default_grid(p)
    assert grid.n_E == 16
    assert grid.offsets == (1, 2, 3)
    assert grid.max_offset == 3
    assert grid.weights == pytest.approx((1 / (2 * np.pi * 3),) * 3)
    assert grid.spacing == pytest.approx(2.0 / 15)
    assert grid.frequency_value(1) == pytest.approx(2 * grid.spacing)
    # Single-point grids degenerate to a zero offset.
    tiny = default_grid(p.replace(n_E=1, n_w=1))
    assert tiny.offsets == (0,)
    assert tiny.spacing == 1.0


def test_params_json_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(FULLSCALE.to_dict()), encoding="utf-8")
    loaded = load_params(str(path))
    assert loaded == FULLSCALE
    data = json.loads(path.read_text())
    assert data["n_A"] == 4864
    with pytest.raises(ValueError, match="unknown parameter"):
        SimParams.from_dict({**data, "bogus": 1})
