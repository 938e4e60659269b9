"""Power allocation, symmetry classes, envelopes, and scans."""

import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsoqkd.planner as planner
from fsoqkd.planner import (
    OptimizerOptions,
    PowerAllocation,
    RatePoint,
    _golden_max,
    fb_envelope,
    lg_envelope,
    optimize_allocation,
    orbit_classes,
    scan,
    total_rate,
)
from fsoqkd.qkd import QkdSystemParams, rate_per_pulse
from fsoqkd.turbulence import fb_turb_matrix, lg_turb_matrix
from fsoqkd.vacuum import (
    CouplingMatrix,
    FBPixel,
    LGMode,
    fb_pixel_grid,
    fb_vacuum_matrix,
    lg_modes_up_to,
    lg_vacuum_capacity,
    lg_vacuum_matrix,
)

import oracles
from conftest import gauss_channel, square_channel


def two_mode_matrix(eta=None):
    modes = (LGMode(0, 0), LGMode(1, 0))
    if eta is None:
        eta = np.array([[0.5, 0.1], [0.1, 0.25]])
    return CouplingMatrix(modes=modes, eta=np.asarray(eta, float))


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
    # Only the other mode's power leaks in, weighted by its coupling:
    # 0.5e9 * 0.1 photons/s into mode 0, 0.2e9 * 0.1 into mode 1, and none
    # through a diagonal matrix.  A zero diagonal entry silences a mode's
    # own rate, so each total isolates one mode's cross-talk.
    params = QkdSystemParams(pulse_rate=1e9)

    def rate(eta, mu, crosstalk_photons_per_s):
        return 1e9 * float(rate_per_pulse(eta, mu, crosstalk_photons_per_s / 1e9, params))

    only_0 = two_mode_matrix([[0.5, 0.1], [0.1, 0.0]])
    got = total_rate(allocation_for(only_0, [0.2, 0.5]), only_0, params)
    assert got == pytest.approx(rate(0.5, 0.2, 0.5e9 * 0.1), rel=1e-12)
    only_1 = two_mode_matrix([[0.0, 0.1], [0.1, 0.25]])
    got = total_rate(allocation_for(only_1, [0.2, 0.5]), only_1, params)
    assert got == pytest.approx(rate(0.25, 0.5, 0.2e9 * 0.1), rel=1e-12)
    diag = two_mode_matrix(np.diag([0.5, 0.25]))
    got = total_rate(allocation_for(diag, [0.2, 0.5]), diag, params)
    assert got == pytest.approx(rate(0.5, 0.2, 0.0) + rate(0.25, 0.5, 0.0), rel=1e-12)
    assert rate(0.5, 0.2, 0.5e9 * 0.1) < rate(0.5, 0.2, 0.0)


def test_total_rate_matches_manual_sum():
    params = QkdSystemParams(pulse_rate=1e9)
    mat = two_mode_matrix()
    alloc = allocation_for(mat, [0.2, 0.5])
    manual = 0.0
    manual += 1e9 * float(rate_per_pulse(0.5, 0.2, 0.5 * 0.1, params))
    manual += 1e9 * float(rate_per_pulse(0.25, 0.5, 0.2 * 0.1, params))
    assert total_rate(alloc, mat, params) == pytest.approx(manual, rel=1e-12)
    with pytest.raises(ValueError):
        other = CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[0.5]]))
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


@pytest.mark.parametrize("field", ["mu_min", "mu_max", "rel_tol", "line_tol"])
def test_optimizer_options_reject_non_finite(field):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=field):
            OptimizerOptions(**{field: bad})


def test_optimizer_single_mode_matches_grid():
    params = QkdSystemParams()
    mat = CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[0.37]]))
    alloc, val = optimize_allocation(mat, params)
    grid = np.linspace(1e-6, 1.5, 200001)
    curve = params.pulse_rate * rate_per_pulse(0.37, grid, 0.0, params)
    assert val == pytest.approx(float(np.max(curve)), rel=1e-8)
    assert alloc.mu[0] == pytest.approx(float(grid[np.argmax(curve)]), abs=1e-4)


def test_optimizer_diagonal_identical_modes_decouple():
    params = QkdSystemParams()
    modes = (LGMode(0, 0), LGMode(1, 0), LGMode(0, 2))
    mat = CouplingMatrix(modes=modes, eta=np.diag([0.2, 0.2, 0.2]))
    alloc, val = optimize_allocation(mat, params)
    single_mat = CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[0.2]]))
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


def test_optimizer_warns_when_sweeps_run_out(caplog):
    # Strong cross-talk between two classes: no start settles in one sweep.
    mat = two_mode_matrix(np.array([[0.3, 0.3], [0.3, 0.3]]))
    params = QkdSystemParams()
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        _, capped = optimize_allocation(mat, params, OptimizerOptions(max_sweeps=1))
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings and all(r.name == "fsoqkd.planner" for r in warnings)
    assert all("used all 1 sweeps" in r.getMessage() for r in warnings)
    assert "'uniform 0.05'" in warnings[0].getMessage()
    debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(debug) == 1
    assert "sweeps per start [1, 1, 1, 1]" in debug[0].getMessage()

    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        _, val = optimize_allocation(mat, params)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    (debug,) = caplog.records
    assert "winning start" in debug.getMessage()
    assert val >= capped


def test_golden_max_rows_match_scalar_searches():
    params = QkdSystemParams()
    functions = [
        lambda x: -((x - 0.3) ** 2),
        lambda x: 0.0,  # every comparison ties: the bracket keeps its left part
        lambda x: x,  # always moves right
        lambda x: float(rate_per_pulse(0.2, x, 1e-4, params)),
        lambda x: -abs(x - 7.0),
    ]
    # Brackets of very different widths: rows finish many steps apart.
    lo = np.array([0.0, -3.0, 1e-6, 1e-6, 5.0])
    hi = np.array([1.0, 10.0, 1.5, 1.5, 5.5])

    def f(v):
        return np.array([g(x) for g, x in zip(functions, v)])

    for tol in (1e-9, 1e-6, 0.3):
        x, val = _golden_max(f, lo, hi, tol)
        assert x.shape == val.shape == (len(functions),)
        for s, g in enumerate(functions):
            xs, vs = oracles.scalar_golden_max(g, lo[s], hi[s], tol)
            assert (x[s], val[s]) == (xs, vs), (tol, s)


_MODE_LISTS = [lg_modes_up_to(q) for q in range(1, 9)] + [
    fb_pixel_grid(n) for n in range(1, 7)
]


def random_matrix(modes, seed, crosstalk_exp, diag_exp):
    """A random symmetric coupling matrix on ``modes`` that is not invariant
    under their symmetry classes: diagonal 10**U(diag_exp, 0), cross-talk
    scaled by 10**crosstalk_exp, rows normalized to sum to at most 1."""
    rng = np.random.default_rng(seed)
    n = len(modes)
    off = rng.random((n, n))
    off = (off + off.T) * 10.0**crosstalk_exp
    np.fill_diagonal(off, 0.0)
    eta = off + np.diag(10.0 ** rng.uniform(diag_exp, 0.0, n))
    eta /= max(1.0, float(eta.sum(axis=1).max()))
    return CouplingMatrix(modes=tuple(modes), eta=eta)


@functools.cache
def real_matrices():
    """FB and LG matrices of real links, in vacuum and in turbulence."""
    return (
        fb_vacuum_matrix(5, square_channel(1.75e3, 0.0)),
        fb_turb_matrix(5, square_channel(1.75e3, 1e-14)),
        lg_vacuum_matrix(5, gauss_channel(1e3, 0.0)),
        lg_turb_matrix(5, gauss_channel(3e3, 1e-14)),
    )


@settings(max_examples=50, deadline=None)
@given(
    matrix=st.one_of(
        st.builds(
            random_matrix,
            st.sampled_from(_MODE_LISTS),
            st.integers(0, 2**32 - 1),
            st.floats(-6.0, 0.0),
            st.floats(-4.0, 0.0),
        ),
        st.integers(0, 3).map(lambda i: real_matrices()[i]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_objective_matches_mode_space_oracle(matrix, seed):
    # Class values spread log-uniformly over [mu_min, mu_max]; the package
    # aggregates cross-talk by source class, the oracle sums it mode by mode.
    orbits = orbit_classes(matrix.modes)
    values = 10.0 ** np.random.default_rng(seed).uniform(-6.0, math.log10(1.5), len(orbits))
    mu = np.empty(len(matrix.modes))
    for value, orbit in zip(values, orbits):
        mu[list(orbit)] = value
    params = QkdSystemParams()
    got = total_rate(allocation_for(matrix, mu, params.pulse_rate), matrix, params)
    assert got == pytest.approx(oracles.mode_space_total(matrix, mu, params), rel=1e-12, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(
    modes=st.sampled_from(_MODE_LISTS),
    seed=st.integers(0, 2**32 - 1),
    crosstalk_exp=st.floats(-6.0, 0.0),
    diag_exp=st.floats(-4.0, 0.0),
)
def test_optimizer_matches_scalar_oracle(modes, seed, crosstalk_exp, diag_exp):
    mat = random_matrix(modes, seed, crosstalk_exp, diag_exp)
    params = QkdSystemParams()
    opts = OptimizerOptions()
    alloc, val = optimize_allocation(mat, params, opts)
    mu_ref, val_ref = oracles.scalar_coordinate_ascent(mat, params, opts)
    assert val == pytest.approx(val_ref, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(alloc.mu, mu_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("q_max", [2, 3])
def test_optimizer_matches_scalar_oracle_on_tied_starts(q_max):
    # In the near-field vacuum several starts end on the same total rate
    # with different mu; the earliest of them must win, as in the oracle.
    mat = lg_vacuum_matrix(q_max, gauss_channel(1e3, 0.0))
    params = QkdSystemParams()
    opts = OptimizerOptions()
    alloc, val = optimize_allocation(mat, params, opts)
    mu_ref, val_ref = oracles.scalar_coordinate_ascent(mat, params, opts)
    assert val == val_ref
    np.testing.assert_array_equal(alloc.mu, mu_ref)


def test_optimizer_takes_first_of_tied_corners(caplog):
    # Classes (0,) and (4,) of the order-3 LG list mirror each other: equal
    # diagonals, strong mutual cross-talk, and every other mode dark.  The
    # couplings are powers of two, so every mu * eta product is exact and
    # the two corner totals tie bit for bit.  Every start that lights both
    # classes ends on a lower rate and only the corner start reaches the
    # best one, so the returned allocation shows which tied corner was
    # taken: the first.
    modes = lg_modes_up_to(3)
    assert orbit_classes(modes) == ((0,), (1, 2), (3, 5), (4,))
    eta = np.zeros((6, 6))
    eta[0, 0] = eta[4, 4] = 0.25
    eta[0, 4] = eta[4, 0] = 0.5
    mat = CouplingMatrix(modes=modes, eta=eta)
    params = QkdSystemParams()
    opts = OptimizerOptions()
    for v in (0.2, 0.5, 0.9):
        first = np.full(6, opts.mu_min)
        last = first.copy()
        first[0] = last[4] = v
        assert total_rate(allocation_for(mat, first, params.pulse_rate), mat, params) == (
            total_rate(allocation_for(mat, last, params.pulse_rate), mat, params)
        )
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        alloc, val = optimize_allocation(mat, params, opts)
    assert "winning start 'best corner'" in caplog.text
    assert alloc.mu[0] > 0.1 and alloc.mu[4] == opts.mu_min
    mu_ref, val_ref = oracles.scalar_coordinate_ascent(mat, params, opts)
    assert val == val_ref
    np.testing.assert_array_equal(alloc.mu, mu_ref)


# ------------------------------------------------------------------
# Envelopes
# ------------------------------------------------------------------


def test_fb_envelope_picks_best_grid_size():
    ch = square_channel(10e3, 0.0)
    params = QkdSystemParams()
    point = fb_envelope(ch, params, n_max=3)
    assert point.mode_set == "fb"
    assert point.config in (1, 2, 3)
    for n_grid in range(1, 4):
        _, rate = optimize_allocation(fb_vacuum_matrix(n_grid, ch), params)
        assert point.total_rate_bps >= rate * (1.0 - 1e-12)
    with pytest.raises(ValueError):
        fb_envelope(gauss_channel(10e3, 0.0), params)
    with pytest.raises(ValueError):
        fb_envelope(ch, params, n_max=0)


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


def test_envelopes_keep_first_of_tied_configurations(monkeypatch):
    # Every configuration gets a scripted rate; a later one replaces the
    # best only when higher by more than planner._TIE_REL_TOL (1e-12)
    # relative, and the PIB fallback comes last.
    real = planner._optimize
    rates = []

    def scripted(candidates, params, opts):
        results = real(candidates, params, opts)
        return [(alloc, rates.pop(0)) for alloc, _ in results]

    monkeypatch.setattr(planner, "_optimize", scripted)
    params = QkdSystemParams()
    rates[:] = [1.0, 1.0, 1.0]
    point = fb_envelope(square_channel(10e3), params, n_max=3)
    assert (point.mode_set, point.config) == ("fb", 1)
    assert rates == []
    ch = gauss_channel(10e3)
    # q_max = 2: LG Q = 1, LG Q = 2, then the PIB.
    for scripted_rates, winner, total in (
        ([1.0, 1.0, 1.0], ("lg", 1), 1.0),
        ([1.0, 2.0, 2.0], ("lg", 2), 2.0),
        ([1.0, 1.0, 1.0 + 1e-15], ("lg", 1), 1.0),
        ([1.0, 1.0, 1.0 + 1e-9], ("gaussian-pib", None), 1.0 + 1e-9),
    ):
        rates[:] = scripted_rates
        point = lg_envelope(ch, params, q_max=2)
        assert (point.mode_set, point.config) == winner
        assert point.total_rate_bps == total
        assert rates == []


@pytest.mark.parametrize(
    "path_length", [5340.266319495154, 1914.4751163699957, 7482.9069838679825]
)
def test_vacuum_lg_q1_keeps_its_roundoff_tie_with_the_pib(path_length):
    # In vacuum LG Q = 1 and the PIB fallback are the same beam.  At these
    # lengths lg_turb_matrix's Q = 1 entry was measured an ulp below the
    # PIB's closed form; the tie tolerance keeps the earlier candidate.
    ch = gauss_channel(path_length)
    point = lg_envelope(ch, QkdSystemParams(), q_max=1)
    assert (point.mode_set, point.config) == ("lg", 1)


@pytest.mark.parametrize(
    "family,path_length,cn2,cap",
    [("fb", 1e3, 0.0, 8), ("fb", 1.75e3, 1e-14, 8), ("lg", 10e3, 1e-14, 5)],
)
def test_envelope_lockstep_equals_per_candidate(monkeypatch, family, path_length, cn2, cap):
    real = planner._optimize
    seen = []

    def spy(candidates, params, opts):
        results = real(candidates, params, opts)
        seen.append((candidates, results))
        return results

    monkeypatch.setattr(planner, "_optimize", spy)
    params = QkdSystemParams()
    if family == "fb":
        point = fb_envelope(square_channel(path_length, cn2), params, n_max=cap)
    else:
        point = lg_envelope(gauss_channel(path_length, cn2), params, q_max=cap)
    ((candidates, results),) = seen
    assert len(candidates) == cap + (family == "lg")
    solo = [optimize_allocation(matrix, params)[1] for _, _, matrix in candidates]
    for (_, rate), expected in zip(results, solo):
        assert rate == pytest.approx(expected, rel=1e-12, abs=0.0)
    mode_set, config, _ = candidates[solo.index(max(solo))]
    assert (point.mode_set, point.config) == (mode_set, config)


def test_envelope_warns_when_cut_off_by_its_budget(caplog):
    params = QkdSystemParams()
    with caplog.at_level(logging.WARNING, logger="fsoqkd.planner"):
        point = lg_envelope(gauss_channel(10e3, 0.0), params, q_max=1)
    assert (point.mode_set, point.config) == ("lg", 1)
    (record,) = caplog.records
    assert record.name == "fsoqkd.planner" and record.levelno == logging.WARNING
    assert "mode set 'lg'" in record.getMessage()
    assert "config 1" in record.getMessage()

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fsoqkd.planner"):
        point = lg_envelope(gauss_channel(1e3, 1e-13), params, q_max=2)
    assert point.mode_set == "gaussian-pib"
    assert not caplog.records


def test_lg_envelope_pib_fallback_under_strong_turbulence():
    # Strong near-field turbulence makes mode sorting pure cross-talk;
    # the single-beam bucket fallback carries the family.
    ch = gauss_channel(1e3, 1e-13)
    params = QkdSystemParams()
    point = lg_envelope(ch, params, q_max=2)
    assert point.mode_set == "gaussian-pib"
    assert point.config is None
    assert point.total_rate_bps > 0.0


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=30, deadline=None)
@given(
    path_length=_log_uniform(1e3, 100e3),
    cn2=st.one_of(st.just(0.0), _log_uniform(1e-16, 1e-13)),
    q_max=st.integers(1, 4),
)
def test_lg_envelope_within_vacuum_capacity(path_length, cn2, q_max):
    params = QkdSystemParams()
    point = lg_envelope(gauss_channel(path_length, cn2), params, q_max=q_max)
    capacity = lg_vacuum_capacity(gauss_channel(path_length, 0.0), params.pulse_rate)
    assert 0.0 <= point.total_rate_bps <= capacity


def test_rate_point_validation():
    mat = two_mode_matrix()
    alloc = allocation_for(mat, [0.1, 0.1])
    with pytest.raises(ValueError):
        RatePoint(
            mode_set="lg",
            config=1,
            total_rate_bps=-1.0,
            allocation=alloc,
        )


def test_rate_point_rejects_non_finite_total():
    alloc = allocation_for(two_mode_matrix(), [0.1, 0.1])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            RatePoint(mode_set="lg", config=1, total_rate_bps=bad, allocation=alloc)


# ------------------------------------------------------------------
# Scans
# ------------------------------------------------------------------


def test_scan_row_layout_and_capacity():
    params = QkdSystemParams()
    lg_row = scan(gauss_channel(10e3).config, params, n_max=2, q_max=2)
    fb_row = scan(square_channel(10e3).config, params, n_max=2, q_max=2)
    assert lg_row.error is None and fb_row.error is None
    assert lg_row.point.mode_set in ("lg", "gaussian-pib")
    assert fb_row.point.mode_set == "fb"
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
    lg_row = scan(gauss_channel(10e3, 1e-14).config, params, n_max=2, q_max=1)
    fb_row = scan(square_channel(10e3, 1e-14).config, params, n_max=2, q_max=1)
    assert lg_row.error is None
    assert lg_row.point is not None
    assert fb_row.point is None
    assert fb_row.error == "RuntimeError: boom"


def test_scan_keeps_rate_when_capacity_fails():
    # A 0.3 m link exhausts the LG capacity series' order budget; the
    # envelope does not depend on that series and still runs.
    params = QkdSystemParams()
    row = scan(gauss_channel(0.3).config, params, q_max=1)
    assert row.capacity_bps is None
    assert row.error.startswith("RuntimeError: lg_vacuum_capacity:")
    assert "D_f = " in row.error
    expected = lg_envelope(gauss_channel(0.3), params, q_max=1)
    assert row.point.total_rate_bps == expected.total_rate_bps > 0.0


def test_scan_names_every_failure(monkeypatch):
    def boom(q_max, ch):
        raise RuntimeError("boom")

    monkeypatch.setattr(planner, "lg_turb_matrix", boom)
    row = scan(gauss_channel(0.3).config, QkdSystemParams(), q_max=1)
    assert row.point is None and row.capacity_bps is None
    first, second = row.error.split("; ")
    assert first.startswith("RuntimeError: lg_vacuum_capacity:")
    assert second == "RuntimeError: boom"


def test_scan_propagates_programming_errors(monkeypatch):
    def broken(n_grid, ch):
        raise TypeError("broken")

    monkeypatch.setattr(planner, "fb_turb_matrix", broken)
    with pytest.raises(TypeError, match="broken"):
        scan(square_channel(10e3, 1e-14).config, QkdSystemParams(), n_max=2)
