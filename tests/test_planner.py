"""Power allocation, symmetry classes, envelopes, and scans."""

import numpy as np
import pytest

import fsoqkd.planner as planner
from fsoqkd.planner import (
    OptimizerOptions,
    PowerAllocation,
    RatePoint,
    ScanGeometry,
    crosstalk_power,
    fb_envelope,
    lg_envelope,
    optimize_allocation,
    orbit_classes,
    scan,
    total_rate,
)
from fsoqkd.qkd import QkdSystemParams, rate_per_pulse
from fsoqkd.vacuum import (
    CouplingMatrix,
    FBPixel,
    LGMode,
    fb_pixel_grid,
    fb_vacuum_matrix,
    lg_vacuum_matrix,
)

from conftest import WAVELENGTH, RADIUS, gauss_channel, square_channel


def two_mode_matrix(eta=None):
    modes = (LGMode(0, 0), LGMode(1, 0))
    if eta is None:
        eta = np.array([[0.5, 0.1], [0.1, 0.25]])
    return CouplingMatrix(modes=modes, eta=np.asarray(eta, float), provenance="vacuum")


def allocation_for(matrix, mu, pulse_rate=1e9):
    return PowerAllocation(
        modes=matrix.modes,
        mu=np.asarray(mu, float),
        orbits=orbit_classes(matrix.modes),
        pulse_rate=pulse_rate,
    )


# ------------------------------------------------------------------
# Symmetry classes
# ------------------------------------------------------------------


def test_fb_orbit_classes():
    assert orbit_classes(fb_pixel_grid(2)) == ((0, 1, 2, 3),)
    classes = orbit_classes(fb_pixel_grid(3))
    assert classes == ((0, 2, 6, 8), (1, 3, 5, 7), (4,))


def test_lg_orbit_classes():
    modes = (LGMode(0, 0), LGMode(0, -1), LGMode(0, 1), LGMode(0, -2), LGMode(1, 0), LGMode(0, 2))
    assert orbit_classes(modes) == ((0,), (1, 2), (3, 5), (4,))


def test_orbit_classes_rejects_unknown_modes():
    with pytest.raises(TypeError):
        orbit_classes(((0, 0),))


# ------------------------------------------------------------------
# Allocations and rates
# ------------------------------------------------------------------


def test_power_allocation_validation():
    mat = two_mode_matrix()
    with pytest.raises(ValueError):
        allocation_for(mat, [0.1])
    with pytest.raises(ValueError):
        allocation_for(mat, [-0.1, 0.2])
    with pytest.raises(ValueError):
        PowerAllocation(modes=mat.modes, mu=np.array([0.1, 0.2]), orbits=((0,),), pulse_rate=1e9)
    with pytest.raises(ValueError):
        PowerAllocation(
            modes=(LGMode(0, -1), LGMode(0, 1)),
            mu=np.array([0.1, 0.2]),
            orbits=((0, 1),),
            pulse_rate=1e9,
        )
    alloc = allocation_for(mat, [0.2, 0.5])
    np.testing.assert_allclose(alloc.transmit_power(), [0.2e9, 0.5e9])


def test_crosstalk_power_examples():
    mat = two_mode_matrix()
    alloc = allocation_for(mat, [0.2, 0.5])
    # Only the other mode's power leaks in, weighted by its coupling.
    assert crosstalk_power(alloc, mat, LGMode(0, 0)) == pytest.approx(0.5e9 * 0.1, rel=1e-12)
    assert crosstalk_power(alloc, mat, LGMode(1, 0)) == pytest.approx(0.2e9 * 0.1, rel=1e-12)
    diag = two_mode_matrix(np.diag([0.5, 0.25]))
    alloc_d = allocation_for(diag, [0.2, 0.5])
    assert crosstalk_power(alloc_d, diag, LGMode(0, 0)) == 0.0
    other = CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[0.5]]), provenance="vacuum")
    with pytest.raises(ValueError):
        crosstalk_power(alloc, other, LGMode(0, 0))


def test_total_rate_matches_manual_sum():
    params = QkdSystemParams(pulse_rate=1e9)
    mat = two_mode_matrix()
    alloc = allocation_for(mat, [0.2, 0.5])
    manual = 0.0
    manual += 1e9 * float(rate_per_pulse(0.5, 0.2, 0.5 * 0.1, params))
    manual += 1e9 * float(rate_per_pulse(0.25, 0.5, 0.2 * 0.1, params))
    assert total_rate(alloc, mat, params) == pytest.approx(manual, rel=1e-12)
    with pytest.raises(ValueError):
        other = CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[0.5]]), provenance="vacuum")
        total_rate(alloc, other, params)


# ------------------------------------------------------------------
# Optimizer
# ------------------------------------------------------------------


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(mu_min=0.0)
    with pytest.raises(ValueError):
        OptimizerOptions(mu_min=2.0, mu_max=1.0)
    with pytest.raises(ValueError):
        OptimizerOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        OptimizerOptions(max_sweeps=0)


def test_optimizer_single_mode_matches_grid():
    params = QkdSystemParams()
    mat = CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[0.37]]), provenance="vacuum")
    alloc, val = optimize_allocation(mat, params)
    grid = np.linspace(1e-6, 1.5, 200001)
    curve = params.pulse_rate * rate_per_pulse(0.37, grid, 0.0, params)
    assert val == pytest.approx(float(np.max(curve)), rel=1e-8)
    assert alloc.mu[0] == pytest.approx(float(grid[np.argmax(curve)]), abs=1e-4)


def test_optimizer_diagonal_identical_modes_decouple():
    params = QkdSystemParams()
    modes = (LGMode(0, 0), LGMode(1, 0), LGMode(0, 2))
    mat = CouplingMatrix(modes=modes, eta=np.diag([0.2, 0.2, 0.2]), provenance="vacuum")
    alloc, val = optimize_allocation(mat, params)
    single_mat = CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[0.2]]), provenance="vacuum")
    _, single_val = optimize_allocation(single_mat, params)
    assert val == pytest.approx(3.0 * single_val, rel=1e-9)
    np.testing.assert_allclose(alloc.mu, alloc.mu[0], rtol=1e-6)


def test_optimizer_near_brute_force_with_strong_crosstalk():
    params = QkdSystemParams()
    mat = two_mode_matrix(np.array([[0.3, 0.3], [0.3, 0.3]]))
    alloc, val = optimize_allocation(mat, params)

    grid = np.linspace(1e-6, 1.5, 200)
    m1, m2 = np.meshgrid(grid, grid, indexing="ij")
    r1 = params.pulse_rate * rate_per_pulse(0.3, m1, m2 * 0.3, params)
    r2 = params.pulse_rate * rate_per_pulse(0.3, m2, m1 * 0.3, params)
    totals = r1 + r2
    brute = float(np.max(totals))

    # Best single-active point: the other mode floored at mu_min.
    single_active = float(np.max(totals[:, 0]))
    assert val >= single_active * (1.0 - 1e-7)
    assert val >= brute * (1.0 - 0.01)


# ------------------------------------------------------------------
# Envelopes
# ------------------------------------------------------------------


def test_fb_envelope_picks_best_grid_size():
    ch = square_channel(10e3, 0.0)
    params = QkdSystemParams()
    point = fb_envelope(ch, params, n_range=range(1, 4))
    assert point.mode_set == "fb"
    assert point.config in (1, 2, 3)
    for n_grid in range(1, 4):
        _, rate = optimize_allocation(fb_vacuum_matrix(n_grid, ch), params)
        assert point.total_rate_bps >= rate * (1.0 - 1e-12)
    with pytest.raises(ValueError):
        fb_envelope(gauss_channel(10e3, 0.0), params)
    with pytest.raises(ValueError):
        fb_envelope(ch, params, n_range=())


def test_lg_envelope_vacuum_prefers_more_orders():
    ch = gauss_channel(10e3, 0.0)
    params = QkdSystemParams()
    point = lg_envelope(ch, params, q_max=3)
    assert point.mode_set == "lg"
    assert point.config == 3
    for q in range(1, 4):
        _, rate = optimize_allocation(lg_vacuum_matrix(q, ch), params)
        assert point.total_rate_bps >= rate * (1.0 - 1e-12)
    with pytest.raises(ValueError):
        lg_envelope(square_channel(10e3, 0.0), params)
    with pytest.raises(ValueError):
        lg_envelope(ch, params, q_max=0)


def test_lg_envelope_pib_fallback_under_strong_turbulence():
    # Strong near-field turbulence makes mode sorting pure cross-talk;
    # the single-beam bucket fallback carries the family.
    ch = gauss_channel(1e3, 1e-13)
    params = QkdSystemParams()
    point = lg_envelope(ch, params, q_max=2)
    assert point.mode_set == "gaussian-pib"
    assert point.config is None
    assert point.total_rate_bps > 0.0


def test_rate_point_validation():
    mat = two_mode_matrix()
    alloc = allocation_for(mat, [0.1, 0.1])
    with pytest.raises(ValueError):
        RatePoint(
            path_length=1e3,
            cn2=0.0,
            mode_set="lg",
            config=1,
            total_rate_bps=-1.0,
            allocation=alloc,
        )


# ------------------------------------------------------------------
# Scans
# ------------------------------------------------------------------


def scan_geometry():
    return ScanGeometry(
        wavelength=WAVELENGTH,
        gauss_radius=RADIUS,
        square_side=square_channel(1e3).config.pupil.side,
    )


def test_scan_row_layout_and_capacity():
    params = QkdSystemParams()
    rows = scan([(10e3, 0.0)], ("lg", "fb"), scan_geometry(), params, n_max=2, q_max=2)
    assert len(rows) == 2
    lg_row, fb_row = rows
    assert (lg_row.family, fb_row.family) == ("lg", "fb")
    assert lg_row.error is None and fb_row.error is None
    assert lg_row.capacity_bps is not None and lg_row.capacity_bps > 0.0
    assert fb_row.capacity_bps is None
    assert lg_row.point.total_rate_bps > 0.0
    assert fb_row.point.total_rate_bps > 0.0
    # Rates can never exceed the lossy-channel bound.
    assert lg_row.point.total_rate_bps <= lg_row.capacity_bps


def test_scan_records_errors_and_continues(monkeypatch):
    params = QkdSystemParams()

    def boom(n_grid, ch):
        raise RuntimeError("boom")

    monkeypatch.setattr(planner, "fb_turb_matrix", boom)
    rows = scan([(10e3, 1e-14)], ("lg", "fb"), scan_geometry(), params, n_max=2, q_max=1)
    lg_row, fb_row = rows
    assert lg_row.error is None
    assert lg_row.point is not None
    assert fb_row.point is None
    assert fb_row.error == "RuntimeError: boom"


def test_scan_propagates_programming_errors(monkeypatch):
    def broken(n_grid, ch):
        raise TypeError("broken")

    monkeypatch.setattr(planner, "fb_turb_matrix", broken)
    with pytest.raises(TypeError, match="broken"):
        scan([(10e3, 1e-14)], ("fb",), scan_geometry(), QkdSystemParams(), n_max=2)


def test_scan_validation():
    params = QkdSystemParams()
    with pytest.raises(ValueError):
        scan([], ("lg",), scan_geometry(), params)
    with pytest.raises(ValueError):
        scan([(1e3, 0.0)], ("hg",), scan_geometry(), params)
