"""Power allocation, symmetry classes, envelopes, and scans."""

import functools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fsoqkd.planner as planner
import fsoqkd.vacuum as vacuum
from fsoqkd.channel import derive
from fsoqkd.numerics import QuadratureError
from fsoqkd.planner import (
    OptimizerOptions,
    PowerAllocation,
    RatePoint,
    _line_max,
    fb_envelope,
    lg_envelope,
    optimize_allocation,
    orbit_classes,
    scan,
    total_rate,
)
from fsoqkd.qkd import QkdSystemParams, rate_and_slopes, rate_bound, rate_per_pulse
from fsoqkd.turbulence import fb_turb_matrix, gaussian_pib_turb, lg_turb_matrix
from fsoqkd.vacuum import (
    CouplingMatrix,
    FBPixel,
    LGMode,
    class_index,
    class_sums,
    fb_axis,
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


@pytest.mark.parametrize("field", ["mu_min", "mu_max", "rel_tol"])
def test_optimizer_options_reject_non_finite(field):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=field):
            OptimizerOptions(**{field: bad})


def test_optimizer_options_have_no_line_tol():
    # The line-search width is the module constant _LINE_TOL, not an option.
    with pytest.raises(TypeError, match="line_tol"):
        OptimizerOptions(line_tol=1e-9)


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

    def rate(x):
        value, slope, _ = rate_and_slopes(0.2, x, 1e-4, params)
        return float(value), float(slope)

    def clipped(x):
        # Zero, with zero slope, up to 0.03; a peak at 0.05 beyond.
        if x <= 0.03:
            return 0.0, 0.0
        decay = math.exp(-50.0 * (x - 0.03))
        return (x - 0.03) * decay, decay * (1.0 - 50.0 * (x - 0.03))

    functions = [
        lambda x: (-((x - 0.3) ** 2), -2.0 * (x - 0.3)),
        lambda x: (0.0, 0.0),  # flat: every comparison ties, the smallest point wins
        lambda x: (x, 1.0),  # monotone: always moves right
        rate,
        lambda x: (-abs(x - 7.0), math.copysign(1.0, 7.0 - x)),  # kinked
        lambda x: (-abs(x - 0.4), math.copysign(1.0, 0.4 - x)),  # kink inside
        clipped,  # the zero slope at lo points toward the better probes
    ]
    # Brackets of very different widths: rows finish many steps apart.
    lo = np.array([0.0, -3.0, 1e-6, 1e-6, 5.0, 0.0, 0.0])
    hi = np.array([1.0, 10.0, 1.5, 1.5, 5.5, 1.0, 0.1])

    def f(rows, x, slopes=False):
        out = np.array([[functions[s](v) for v in row] for s, row in zip(rows, x)])
        return (out[..., 0], out[..., 1]) if slopes else out[..., 0]

    for tol in (1e-9, 1e-6, 0.05, 0.3):
        x, val = _line_max(f, lo, hi, tol)
        assert x.shape == val.shape == (len(functions),)
        for s, g in enumerate(functions):
            xs, vs = oracles.scalar_line_max(g, lo[s], hi[s], tol)
            assert (x[s], val[s]) == (xs, vs), (tol, s)
    x, _ = _line_max(f, lo, hi, 1e-9)
    assert x[1] == lo[1] and x[2] == hi[2] and x[4] == hi[4]
    assert abs(x[0] - 0.3) < 1e-9 and abs(x[5] - 0.4) < 1e-9 and abs(x[6] - 0.05) < 1e-9


def test_line_max_passes_each_row_only_while_it_searches():
    # A spy records the rows of every call: each row is evaluated at the
    # points its scalar search evaluates, as often and in the same order,
    # so never after that search has converged.
    params = QkdSystemParams()
    functions = [
        lambda x: (-((x - 0.3) ** 2), -2.0 * (x - 0.3)),
        lambda x: (x, 1.0),  # stops at hi after the golden phase
        lambda x: tuple(float(y) for y in rate_and_slopes(0.2, x, 1e-4, params)[:2]),
        lambda x: (-abs(x - 0.4), math.copysign(1.0, 0.4 - x)),
        lambda x: (-((x - 0.05) ** 2), -2.0 * (x - 0.05)),  # no golden step
    ]
    lo = np.array([0.0, 1e-6, 1e-6, 0.0, 0.0])
    hi = np.array([1.0, 1.5, 1.5, 1.0, 0.08])
    for tol in (1e-9, 0.05):
        calls = []

        def f(rows, x, slopes=False):
            assert np.all(np.diff(rows) > 0) and x.shape[0] == len(rows)
            calls.append(dict(zip(rows.tolist(), x.tolist())))
            out = np.array([[functions[s](v) for v in row] for s, row in zip(rows, x)])
            return (out[..., 0], out[..., 1]) if slopes else out[..., 0]

        _line_max(f, lo, hi, tol)
        assert any(len(rows) < len(functions) for rows in calls)
        for s, g in enumerate(functions):
            probes = []

            def spied(x, g=g):
                probes.append(x)
                return g(x)

            oracles.scalar_line_max(spied, lo[s], hi[s], tol)
            assert [x for rows in calls for x in rows.get(s, [])] == probes, (tol, s)


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


@settings(max_examples=40, deadline=None)
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
# A draw whose 3.1e6 total put a central difference at h = 1e-5 v 4e-4 off.
@example(matrix=random_matrix(lg_modes_up_to(2), 156, -5, -4), seed=156)
def test_class_slopes_match_mode_space_differences(matrix, seed):
    # d total/d v[k] against Richardson's combination of two central
    # differences of the mode-space oracle, at h = 1e-3 v[k] and h / 2: its
    # truncation error is O(h^4), while a plain central difference at
    # h = 1e-5 v[k] is swamped by roundoff, eps * total / h, on totals of
    # 1e6 and more.  A class whose stencil moves some mode across the
    # rate's clip at 0 has no derivative there and is skipped.
    orbits = orbit_classes(matrix.modes)
    params = QkdSystemParams()
    values = 10.0 ** np.random.default_rng(seed).uniform(-3.0, math.log10(1.4), len(orbits))
    problem = planner._class_space([(matrix, orbits)])
    total = planner._totals(problem, np.array([0]), values[None], params)

    def allocation(v):
        mu = np.empty(len(matrix.modes))
        for value, orbit in zip(v, orbits):
            mu[list(orbit)] = value
        return mu

    def lit(mu):
        off = matrix.eta - np.diag(np.diag(matrix.eta))
        return rate_per_pulse(np.diag(matrix.eta), mu, mu @ off, params) > 0.0

    def line_order_total(k):
        # The total with class k's cross-talk added last, as the line adds it,
        # each entry's rate counted once per mode it stands for.
        _, cls, eta, coupling, weight = problem
        others = sum(values[j] * coupling[:, j] for j in range(len(orbits)) if j != k)
        rates = rate_per_pulse(eta, values[cls], others + values[k] * coupling[:, k], params)
        return math.fsum(params.pulse_rate * weight * rates)

    for k in range(len(orbits)):
        f = planner._line(problem, np.array([0]), values[None], k, params)
        value, slope = (out[0] for out in f(np.array([0]), values[None, k : k + 1], True))
        assert value[0] == pytest.approx(line_order_total(k), rel=1e-14, abs=0.0)
        h = 1e-3 * values[k]
        step = h * (np.arange(len(orbits)) == k)
        stencil = [allocation(values + s * step) for s in (-1.0, -0.5, 0.5, 1.0)]
        pattern = lit(stencil[0])
        if any(np.any(lit(mu) != pattern) for mu in stencil[1:]):
            continue
        lower, half_lower, half_upper, upper = (
            oracles.mode_space_total(matrix, mu, params) for mu in stencil
        )
        wide = (upper - lower) / (2.0 * h)
        narrow = (half_upper - half_lower) / h
        difference = (4.0 * narrow - wide) / 3.0
        assert slope[0] == pytest.approx(difference, rel=1e-4, abs=1e-6 * total[0])


def test_class_space_rows_equal_their_problem_alone():
    # One-class, 10-class and 6-class problems (FB N = 1, FB N = 8, LG
    # Q = 4) in one class space padded to 10 classes: every total, line
    # value and line slope of a row is bit for bit that of its problem in a
    # class space of its own, whatever the other rows and the padding.
    matrices = [
        fb_turb_matrix(1, square_channel(2e3, 1e-14)),
        fb_turb_matrix(8, square_channel(2e3, 1e-14)),
        lg_turb_matrix(4, gauss_channel(2e3, 1e-14)),
    ]
    problems = [(m, orbit_classes(m.modes)) for m in matrices]
    assert [len(orbits) for _, orbits in problems] == [1, 10, 6]
    params = QkdSystemParams()
    rng = np.random.default_rng(5)
    of = np.array([2, 0, 1, 1, 2])
    # Values on padded classes too: they must couple into nothing.
    v = 10.0 ** rng.uniform(-3.0, 0.0, (len(of), 10))
    x = 10.0 ** rng.uniform(-3.0, 0.0, (len(of), 2))
    batch = planner._class_space(problems)
    alone = [planner._class_space([p]) for p in problems]
    totals = planner._totals(batch, of, v, params)
    for r, b in enumerate(of):
        own = v[r : r + 1, : len(problems[b][1])]
        assert totals[r] == planner._totals(alone[b], np.array([0]), own, params)[0]
    for k in range(10):
        rows = np.flatnonzero([len(problems[b][1]) > k for b in of])
        f = planner._line(batch, of[rows], v[rows], k, params)
        live = np.arange(0, len(rows), 2)
        values, slopes = f(live, x[rows[live]], True)
        for at, (i, r) in enumerate(zip(live, rows[live])):
            b = of[r]
            own = v[r : r + 1, : len(problems[b][1])]
            solo = planner._line(alone[b], np.array([0]), own, k, params)
            solo_values, solo_slopes = solo(np.array([0]), x[r : r + 1], True)
            np.testing.assert_array_equal(values[at], solo_values[0])
            np.testing.assert_array_equal(slopes[at], solo_slopes[0])
            np.testing.assert_array_equal(f(np.array([i]), x[r : r + 1]), solo_values)


def _mode_sum_totals(problem, of, v, params):
    """Each row's total written out: every entry of its problem in mode
    order, its cross-talk added class by class in order, one
    ``rate_per_pulse`` call, and a per-row ``bincount`` of each entry's
    rate times the number of modes it stands for."""
    offset, cls, eta, coupling, weight = problem
    row = np.concatenate([np.full(offset[b + 1] - offset[b], r) for r, b in enumerate(of)])
    entry = np.concatenate([np.arange(offset[b], offset[b + 1]) for b in of])
    cross = v[row, 0] * coupling[entry, 0]
    for j in range(1, v.shape[1]):
        cross = cross + v[row, j] * coupling[entry, j]
    rates = rate_per_pulse(eta[entry], v[row, cls[entry]], cross, params)
    return np.bincount(row, params.pulse_rate * (weight[entry] * rates), len(of))


def test_totals_are_the_written_out_mode_sum():
    # _totals is the line of the last class at its own value; bit for bit,
    # that is the written-out sum, on one-class, 10-class and padded
    # problems (FB N = 1, FB N = 8, LG Q = 4) alone and in one class space
    # padded to 10 classes.
    matrices = [
        fb_turb_matrix(1, square_channel(2e3, 1e-14)),
        fb_turb_matrix(8, square_channel(2e3, 1e-14)),
        lg_turb_matrix(4, gauss_channel(2e3, 1e-14)),
    ]
    problems = [(m, orbit_classes(m.modes)) for m in matrices]
    params = QkdSystemParams()
    rng = np.random.default_rng(11)
    of = np.array([0, 2, 1, 0, 2, 1])
    v = 10.0 ** rng.uniform(-3.0, 0.0, (len(of), 10))
    batch = planner._class_space(problems)
    np.testing.assert_array_equal(
        planner._totals(batch, of, v, params), _mode_sum_totals(batch, of, v, params)
    )
    for b, problem in enumerate(problems):
        alone = planner._class_space([problem])
        own = v[of == b, : len(problem[1])]
        at = np.zeros(len(own), dtype=int)
        np.testing.assert_array_equal(
            planner._totals(alone, at, own, params), _mode_sum_totals(alone, at, own, params)
        )


# ------------------------------------------------------------------
# One weighted entry per group of matching modes
# ------------------------------------------------------------------

@functools.cache
def _builder_matrices(cn2):
    """FB N = 1..8 and LG Q = 1..8 at ``cn2``, each for one 2 km channel
    and for a batch of 1, 10 and 50 km links."""
    matrices = []
    for size in range(1, 9):
        for build, channel in ((fb_turb_matrix, square_channel), (lg_turb_matrix, gauss_channel)):
            matrices.append(build(size, channel(2e3, cn2)))
            matrices.extend(build(size, [channel(L, cn2) for L in (1e3, 10e3, 50e3)]))
    return matrices


@pytest.mark.parametrize("cn2", [0.0, 1e-15, 1e-13])
def test_builder_matrices_collapse_every_class_to_one_entry(cn2):
    # Each class of a builder's matrix is one entry, its lead, weighted by
    # the class size; a builder that broke its symmetry would fall back to
    # one entry per mode without failing anything else.
    matrices = _builder_matrices(cn2)
    problems = [(m, orbit_classes(m.modes)) for m in matrices]
    for matrix, orbits in problems:
        cls, eta, coupling, weight = class_sums(matrix, orbits)
        np.testing.assert_array_equal(cls, np.arange(len(orbits)))
        np.testing.assert_array_equal(weight, [len(orbit) for orbit in orbits])
        leads = [orbit[0] for orbit in orbits]
        np.testing.assert_array_equal(eta, np.diag(matrix.eta)[leads])
        assert coupling.shape == (len(orbits), len(orbits))
    offset = planner._class_space(problems)[0]
    np.testing.assert_array_equal(np.diff(offset), [len(orbits) for _, orbits in problems])


@pytest.mark.parametrize("cn2", [0.0, 1e-15, 1e-13])
def test_collapsed_totals_and_slopes_match_the_mode_space_oracle(cn2):
    # On the collapsed layout every total, line value and line slope is the
    # mode-space one, every mode's term summed by math.fsum, within 1e-13
    # relative: the modes a weight stands for differ only by roundoff.
    params = QkdSystemParams()
    rng = np.random.default_rng(17)
    # Each size's FB and LG matrices of the 10 km link of the batch.
    for matrix in _builder_matrices(cn2)[2::4]:
        orbits = orbit_classes(matrix.modes)
        problem = planner._class_space([(matrix, orbits)])
        values = 10.0 ** rng.uniform(-3.0, math.log10(1.4), (1, len(orbits)))
        mu = values[0][class_index(orbits)]
        exact = oracles.mode_space_total(matrix, mu, params)
        total = planner._totals(problem, np.array([0]), values, params)[0]
        assert total == pytest.approx(exact, rel=1e-13, abs=0.0)
        for k, members in enumerate(orbits):
            f = planner._line(problem, np.array([0]), values, k, params)
            value, slope = (out[0, 0] for out in f(np.array([0]), values[:, k : k + 1], True))
            assert value == pytest.approx(exact, rel=1e-13, abs=0.0)
            oracle = oracles.mode_space_slope(matrix, mu, members, params)
            assert slope == pytest.approx(oracle, rel=1e-13, abs=1e-13 * exact)


def _per_mode_totals(matrix, orbits, v, params):
    """Each row's total on one entry per mode, written out: mode i's
    coupling from class j adds eta[i', i] over the modes i' != i of class j
    in mode order, its cross-talk adds the classes in order, and the rates
    of one ``rate_per_pulse`` call are summed per row by a ``bincount``."""
    n = len(matrix.modes)
    cls = class_index(orbits)
    coupling = np.zeros((n, len(orbits)))
    for i in range(n):
        for j, members in enumerate(orbits):
            for source in members:
                if source != i:
                    coupling[i, j] += matrix.eta[source, i]
    row = np.repeat(np.arange(len(v)), n)
    cross = v[row, 0] * np.tile(coupling[:, 0], len(v))
    for j in range(1, len(orbits)):
        cross = cross + v[row, j] * np.tile(coupling[:, j], len(v))
    eta = np.tile(np.diag(matrix.eta), len(v))
    rates = rate_per_pulse(eta, v[row, np.tile(cls, len(v))], cross, params)
    return np.bincount(row, params.pulse_rate * rates, len(v))


def test_random_matrices_merge_nothing_and_keep_every_bit():
    # A matrix that is not invariant under its classes keeps one entry of
    # weight 1 per mode, and its totals are the written-out per-mode sum
    # bit for bit: a weight of 1 multiplies exactly.
    params = QkdSystemParams()
    rng = np.random.default_rng(23)
    for seed, modes in enumerate(_MODE_LISTS):
        matrix = random_matrix(modes, seed, -3.0, -2.0)
        orbits = orbit_classes(modes)
        cls, _, _, weight = class_sums(matrix, orbits)
        np.testing.assert_array_equal(cls, class_index(orbits))
        np.testing.assert_array_equal(weight, np.ones(len(modes)))
        problem = planner._class_space([(matrix, orbits)])
        v = 10.0 ** rng.uniform(-3.0, 0.0, (3, len(orbits)))
        np.testing.assert_array_equal(
            planner._totals(problem, np.zeros(3, dtype=int), v, params),
            _per_mode_totals(matrix, orbits, v, params),
        )


@pytest.mark.parametrize("family", ["fb", "lg"])
@pytest.mark.parametrize("where", ["diagonal", "coupling"])
def test_a_perturbed_mode_stays_apart(family, where):
    # One non-lead mode of one class, its transmissivity or one coupling
    # into it moved by 1e-9 relative: that mode alone becomes an entry of
    # its own, weight 1, and its class lead stands for the others.
    if family == "fb":
        matrix = fb_turb_matrix(4, square_channel(2e3, 1e-14))
    else:
        matrix = lg_turb_matrix(4, gauss_channel(2e3, 1e-14))
    orbits = orbit_classes(matrix.modes)
    k = next(j for j, orbit in enumerate(orbits) if len(orbit) > 1)
    mode = orbits[k][-1]
    source = orbits[0][0] if where == "coupling" else mode
    eta = matrix.eta.copy()
    eta[source, mode] *= 1.0 + 1e-9
    cls, _, _, weight = class_sums(CouplingMatrix(modes=matrix.modes, eta=eta), orbits)
    expected = np.ones(len(orbits) + 1, dtype=int)
    expected[: len(orbits)] = [len(orbit) for orbit in orbits]
    expected[k] -= 1
    # Entries are in mode order, so the mode apart follows every lead
    # before it.
    apart = sum(orbit[0] < mode for orbit in orbits)
    np.testing.assert_array_equal(np.delete(weight, apart), np.delete(expected, -1))
    assert weight[apart] == 1 and cls[apart] == k
    np.testing.assert_array_equal(np.delete(cls, apart), np.arange(len(orbits)))


def test_fb_two_by_two_collapses_yet_sweeps(monkeypatch, caplog):
    # FB N = 2 is one class of four modes: one entry of weight 4, yet not a
    # one-mode candidate, since each mode takes cross-talk from the other
    # three.  Every start sweeps its class line after the lead search.
    matrix = fb_turb_matrix(2, square_channel(1.75e3, 1e-14))
    cls, _, _, weight = class_sums(matrix, orbit_classes(matrix.modes))
    assert cls.tolist() == [0] and weight.tolist() == [4.0]
    searched = []
    line_max = planner._line_max
    monkeypatch.setattr(planner, "_line_max", lambda *args: searched.append(1) or line_max(*args))
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        ((alloc, total),) = planner._optimize([("fb", 2, matrix)], QkdSystemParams(), None, [0])
    (message,) = [r.getMessage() for r in caplog.records if "sweeps per start" in r.getMessage()]
    sweeps = [int(s) for s in re.search(r"sweeps per start \[([^]]*)\]", message)[1].split(",")]
    assert min(sweeps) > 0, message
    assert len(searched) > 1
    exact = oracles.mode_space_total(matrix, alloc.mu, QkdSystemParams())
    assert total == pytest.approx(exact, rel=1e-13)


def _lg_cap(full, q):
    """LG order cap Q = q of a full lg_turb_matrix build."""
    k = q * (q + 1) // 2
    return CouplingMatrix(modes=full.modes[:k], eta=full.eta[:k, :k])


def _built_candidates(chans, flat, size):
    """Every candidate of planner._candidates at the default parameters,
    the LG caps it drops before their cross-order blocks included: each LG
    cap is a prefix of one full lg_turb_matrix build, and bit for bit the
    cap of planner._candidates where that one is built."""
    groups = planner._candidates(chans, flat, size, QkdSystemParams(), None)
    if flat:
        return groups
    built = []
    for full, group in zip(lg_turb_matrix(size, chans), groups):
        caps = [("lg", q, _lg_cap(full, q)) for q in range(1, size + 1)]
        for (_, _, kept), (_, _, cap) in zip(group[:-1], caps):
            np.testing.assert_array_equal(kept.eta, cap.eta)
        built.append(caps + group[-1:])
    return built


@pytest.mark.parametrize("family", ["fb", "gaussian-pib"])
def test_one_class_candidate_runs_four_starts(monkeypatch, caplog, family):
    # A one-class candidate (FB N = 1, or the power-in-bucket fallback) runs
    # all four starts.  Its best corner is its single-mode start, so the
    # fourth start begins where the third does and equals it; ties go to
    # the third.  With one mode its class line is its lead's, so the
    # single-mode search is its only line search: the third and fourth
    # starts hold that search's result, no start runs a sweep, and the
    # result is that search's.
    if family == "fb":
        candidate = _built_candidates([square_channel(10e3, 1e-14)], True, 1)[0][0]
    else:
        candidate = _built_candidates([gauss_channel(10e3, 1e-14)], False, 1)[0][-1]
    assert candidate[0] == family and len(candidate[2].modes) == 1
    bases, searches = [], []
    line, line_max = planner._line, planner._line_max

    def recorded_line(problem, of, base, k, params):
        bases.append(base.copy())
        return line(problem, of, base, k, params)

    def recorded_line_max(f, lo, hi, tol):
        searches.append(line_max(f, lo, hi, tol))
        return searches[-1]

    monkeypatch.setattr(planner, "_line", recorded_line)
    monkeypatch.setattr(planner, "_line_max", recorded_line_max)
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        (result,) = planner._optimize([candidate], QkdSystemParams(), None, [0])
    assert result is not None
    (message,) = [r.getMessage() for r in caplog.records if "sweeps per start" in r.getMessage()]
    sweeps = [int(s) for s in re.search(r"sweeps per start \[([^]]*)\]", message)[1].split(",")]
    assert sweeps == [0, 0, 0, 0]
    assert "winning start 'best corner'" not in message
    # _line calls: the uniform start totals, the single-mode search, the
    # corner total, the last two start totals, the reported total.
    assert [len(base) for base in bases] == [2, 1, 1, 2, 1]
    ((x, value),) = searches
    np.testing.assert_array_equal(bases[3], np.full((2, 1), x[0]))
    assert result[0].mu[0] == x[0] and result[1] == value[0]


def test_one_mode_configurations_leave_the_ascent_at_their_lead_search(monkeypatch, caplog):
    # LG Q = 1 and the power-in-bucket fallback have one mode each.  Their
    # single-mode search is their ascent: they run no sweep and no line
    # search after it, and win on the single-mode start, while LG Q = 2,
    # in the same call, still sweeps.  Each is its own group, so none is
    # pruned.
    batch = _built_candidates([gauss_channel(10e3, 1e-14)], False, 2)[0]
    assert [(c[0], c[1], len(c[2].modes)) for c in batch] == [
        ("lg", 1, 1), ("lg", 2, 3), ("gaussian-pib", None, 1)
    ]
    lines, searched = {}, []
    line, line_max = planner._line, planner._line_max

    def recorded_line(problem, of, base, k, params):
        f = line(problem, of, base, k, params)
        lines[id(f)] = of.copy()
        return f

    def recorded_line_max(f, lo, hi, tol):
        searched.append(lines[id(f)])
        return line_max(f, lo, hi, tol)

    monkeypatch.setattr(planner, "_line", recorded_line)
    monkeypatch.setattr(planner, "_line_max", recorded_line_max)
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        results = planner._optimize(batch, QkdSystemParams(), None, [0, 1, 2])
    assert all(result is not None for result in results)
    # The lead search first, on the lead problem; then only Q = 2's rows.
    assert len(searched) > 1
    assert all(set(of.tolist()) == {1} for of in searched[1:])
    messages = [r.getMessage() for r in caplog.records if "sweeps per start" in r.getMessage()]
    assert len(messages) == 3
    for (mode_set, config, _), message in zip(batch, messages):
        assert f"mode set {mode_set!r}, config {config!r}:" in message
        one_mode = "sweeps per start [0, 0, 0, 0], winning start 'single-mode optima'"
        assert message.endswith(one_mode) == (config != 2), message


@pytest.mark.parametrize("chunk", [2, 3, 5, 64])
def test_kernel_chunks_change_no_bit(monkeypatch, kernel_work, chunk):
    # Every total and every value and slope of a line probe with one and
    # two columns is bit for bit the unchunked call's, no call sees more
    # than the chunk, and the call count rises as the chunk shrinks.
    matrices = [
        fb_turb_matrix(1, square_channel(2e3, 1e-14)),
        fb_turb_matrix(4, square_channel(2e3, 1e-14)),
        lg_turb_matrix(4, gauss_channel(2e3, 1e-14)),
    ]
    problem = planner._class_space([(m, orbit_classes(m.modes)) for m in matrices])
    params = QkdSystemParams()
    rng = np.random.default_rng(21)
    # Enough rows that a probe spans more than twice the largest chunk: the
    # problems collapse to 1, 3 and 6 entries.
    of = rng.integers(0, 3, 48)
    v = 10.0 ** rng.uniform(-3.0, 0.0, (len(of), 6))
    x = 10.0 ** rng.uniform(-3.0, 0.0, (len(of), 2))
    rows = np.flatnonzero(of != 0)
    live = np.arange(0, len(rows), 2)

    def evaluate():
        out = [planner._totals(problem, of, v, params)]
        f = planner._line(problem, of[rows], v[rows], 1, params)
        for m in (1, 2):
            out.append(f(live, x[rows[live], :m]))
            out.extend(f(live, x[rows[live], :m], True))
        return out

    calls = []
    results = []
    for size in (10**9, 2 * chunk, chunk):
        monkeypatch.setattr(planner, "_KERNEL_CHUNK", size)
        kernel_work.calls.clear()
        kernel_work.largest = 0
        results.append(evaluate())
        assert kernel_work.largest <= size
        calls.append(len(kernel_work.calls))
    assert calls[0] < calls[1] < calls[2]
    whole = results[0]
    for chunked in results[1:]:
        for a, b in zip(chunked, whole):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("chunk", [2, 7, 30])
def test_envelope_is_the_same_in_any_kernel_chunk(monkeypatch, kernel_work, chunk):
    # The single-mode searches, starts, corners and line searches of a
    # whole envelope all go through the chunked kernel.
    ch, params = gauss_channel(2e3, 1e-14), QkdSystemParams()
    whole = lg_envelope(ch, params, q_max=3)
    assert kernel_work.largest > chunk
    kernel_work.largest = 0
    monkeypatch.setattr(planner, "_KERNEL_CHUNK", chunk)
    point = lg_envelope(ch, params, q_max=3)
    assert kernel_work.largest <= chunk
    assert (point.mode_set, point.config) == (whole.mode_set, whole.config)
    assert point.total_rate_bps == whole.total_rate_bps
    np.testing.assert_array_equal(point.allocation.mu, whole.allocation.mu)


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
    # diagonals and strong mutual cross-talk.  Class (1, 2) is dimmer and
    # leaks weakly into both; class (3, 5) is dark.  The couplings are
    # powers of two, so every mu * eta product is exact and the two corner
    # totals tie bit for bit.  The uniform and single-mode starts end with
    # class (1, 2) lit, up to 5% lower; only the corner start reaches the
    # best rate, so the returned allocation shows which tied corner was
    # taken: the first.
    modes = lg_modes_up_to(3)
    assert orbit_classes(modes) == ((0,), (1, 2), (3, 5), (4,))
    eta = np.zeros((6, 6))
    eta[0, 0] = eta[4, 4] = 0.5
    eta[0, 4] = eta[4, 0] = 0.25
    eta[1, 1] = eta[2, 2] = 0.25
    eta[np.ix_([1, 2], [0, 4])] = eta[np.ix_([0, 4], [1, 2])] = 2.0**-6
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
    assert alloc.mu[0] > 0.1
    np.testing.assert_array_equal(alloc.mu[1:], opts.mu_min)
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
    # relative, and the PIB fallback comes last.  Each configuration is
    # optimized as its own group, so none is pruned and each keeps its
    # scripted rate.
    real = planner._optimize
    rates = []

    def scripted(candidates, params, opts, groups):
        results = real(candidates, params, opts, range(len(candidates)))
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


def _config_bound(matrix, params, opts=OptimizerOptions()):
    """A configuration's rate bound U, bits/s, computed on its own."""
    diag = np.diag(matrix.eta)
    return params.pulse_rate * float(np.sum(rate_bound(diag, params, opts.mu_min, opts.mu_max)))


@pytest.mark.parametrize(
    "family,path_length,cn2,cap",
    [("fb", 1e3, 0.0, 8), ("fb", 1.75e3, 1e-14, 8), ("lg", 10e3, 1e-14, 5)],
)
def test_envelope_lockstep_equals_per_candidate(monkeypatch, family, path_length, cn2, cap):
    # Every candidate left standing ends on its solo optimum.  Each pruned
    # one (some are at each of these links) has a solo optimum within its
    # rate bound and below the winner by more than the tie tolerance.
    real = planner._optimize
    seen = []

    def spy(candidates, params, opts, groups):
        results = real(candidates, params, opts, groups)
        seen.append((candidates, results))
        return results

    monkeypatch.setattr(planner, "_optimize", spy)
    params = QkdSystemParams()
    if family == "fb":
        point = fb_envelope(square_channel(path_length, cn2), params, n_max=cap)
    else:
        point = lg_envelope(gauss_channel(path_length, cn2), params, q_max=cap)
    ((candidates, results),) = seen
    if family == "lg":
        # The caps dropped before their cross-order blocks never reach
        # _optimize: they join the check as pruned, built in full.
        reached = dict(zip([c[:2] for c in candidates], results))
        candidates = _built_candidates([gauss_channel(path_length, cn2)], False, cap)[0]
        results = [reached.get(c[:2]) for c in candidates]
    assert len(candidates) == cap + (family == "lg")
    assert None in results
    solo = [optimize_allocation(matrix, params)[1] for _, _, matrix in candidates]
    for (_, _, matrix), result, expected in zip(candidates, results, solo):
        if result is None:
            assert expected <= _config_bound(matrix, params)
            assert expected * (1.0 + planner._TIE_REL_TOL) < point.total_rate_bps
        else:
            assert result[1] == pytest.approx(expected, rel=1e-12, abs=0.0)
    mode_set, config, _ = candidates[solo.index(max(solo))]
    assert (point.mode_set, point.config) == (mode_set, config)


def _start_totals(matrix, params, opts=OptimizerOptions()):
    """The totals of a configuration's four starts: uniform 0.05 and 0.5,
    every class at the single-mode optimum of its lead, the best corner."""
    orbits = orbit_classes(matrix.modes)
    single = np.empty(len(matrix.modes))
    for orbit in orbits:
        i = orbit[0]
        lead = CouplingMatrix(modes=(matrix.modes[i],), eta=matrix.eta[i : i + 1, i : i + 1])
        single[list(orbit)] = optimize_allocation(lead, params, opts)[0].mu[0]
    lit = [np.isin(np.arange(len(single)), orbit) for orbit in orbits]
    corners = [np.where(on, single, opts.mu_min) for on in lit]
    starts = [np.full(len(single), 0.05), np.full(len(single), 0.5), single]
    totals = [total_rate(allocation_for(matrix, mu), matrix, params) for mu in starts + corners]
    return totals[:3] + [max(totals[3:])]


def test_mixed_batch_prunes_on_start_totals_and_keeps_solo_bits(caplog):
    # Flat-top and LG links, vacuum and cn2 1e-13, 1 to 40 km, in one
    # ascent.  The uniform starts cut first, so the single-mode search,
    # the corners and the other starts run only on the candidates left; the
    # configurations dropped before the first sweep are still those whose
    # bound is below their group's best start total, and every survivor
    # ends on the bits of its own one-candidate ascent.
    params = QkdSystemParams()
    links = [(L, cn2) for L in (1e3, 10e3, 40e3) for cn2 in (0.0, 1e-13)]
    groups = _built_candidates([square_channel(*link) for link in links], True, 4)
    groups += _built_candidates([gauss_channel(*link) for link in links], False, 4)
    batch = [c for group in groups for c in group]
    labels = [g for g, group in enumerate(groups) for _ in group]
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        results = planner._optimize(batch, params, None, labels)
    for candidate, result in zip(batch, results):
        if result is not None:
            ((alloc, total),) = planner._optimize([candidate], params, None, [0])
            np.testing.assert_array_equal(result[0].mu, alloc.mu)
            assert result[1] == total
    best = {}
    for g, (_, _, matrix) in zip(labels, batch):
        best[g] = max(best.get(g, -math.inf), *_start_totals(matrix, params))
    ceiling = 1.0 + planner._BOUND_REL_TOL
    expected = sorted(
        f"mode set {mode_set!r}, config {config!r} pruned at sweep 0: rate bound "
        f"{_config_bound(matrix, params):.6g} bits/s"
        for g, (mode_set, config, matrix) in zip(labels, batch)
        if _config_bound(matrix, params) * ceiling < best[g]
    )
    dropped = sorted(
        r.getMessage().split(": ", 1)[1].split(" is below")[0]
        for r in caplog.records
        if " pruned at sweep 0:" in r.getMessage()
    )
    assert len(dropped) >= 10 and dropped == expected


@pytest.mark.parametrize(
    "family,path_length,cn2",
    [
        ("fb", 1e3, 0.0),
        ("fb", 40e3, 1e-13),
        ("gaussian-pib", 1e3, 0.0),
        ("gaussian-pib", 10e3, 1e-14),
    ],
)
def test_one_mode_rows_equal_a_search_of_their_own_line(family, path_length, cn2):
    # A one-mode candidate's rows take its single-mode search's result in
    # place of a search of their class line.  Forced, that search gives
    # the same bits from any base, in a batch padded to many classes.
    params, opts = QkdSystemParams(), OptimizerOptions()
    flat = family == "fb"
    ch = (square_channel if flat else gauss_channel)(path_length, cn2)
    batch = _built_candidates([ch], flat, 4)[0]
    one = 0 if flat else len(batch) - 1
    assert batch[one][0] == family and len(batch[one][2].modes) == 1
    alloc, total = planner._optimize(batch, params, opts, list(range(len(batch))))[one]
    orbits = [orbit_classes(matrix.modes) for _, _, matrix in batch]
    problem = planner._class_space([(m, orb) for (_, _, m), orb in zip(batch, orbits)])
    base = np.random.default_rng(5).uniform(opts.mu_min, opts.mu_max, (4, max(map(len, orbits))))
    f = planner._line(problem, np.full(4, one), base, 0, params)
    x, value = _line_max(f, np.full(4, opts.mu_min), np.full(4, opts.mu_max), planner._LINE_TOL)
    assert base.shape[1] > 1 and (x == x[0]).all() and (value == value[0]).all()
    assert alloc.mu.tolist() == [x[0]] and total == value[0]


def _no_bound(eta, *args):
    return np.full(np.shape(eta), np.inf)


@pytest.mark.parametrize("cn2", [0.0, 1e-15, 1e-14, 1e-13])
def test_pruning_changes_no_envelope_point(monkeypatch, caplog, cn2):
    # Against envelopes whose bounds are infinite, so that nothing is
    # pruned, every point keeps its winner and its bits.
    params = QkdSystemParams()

    def points():
        return [
            envelope(channel(path_length, cn2), params)
            for path_length in (1e3, 3e3, 10e3, 40e3)
            for envelope, channel in ((fb_envelope, square_channel), (lg_envelope, gauss_channel))
        ]

    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        pruned = points()
    assert " pruned at sweep " in caplog.text
    monkeypatch.setattr(planner, "rate_bound", _no_bound)
    for got, want in zip(pruned, points()):
        assert (got.mode_set, got.config) == (want.mode_set, want.config)
        assert got.total_rate_bps == want.total_rate_bps
        np.testing.assert_array_equal(got.allocation.mu, want.allocation.mu)
    winners = {(p.mode_set, p.config) for p in pruned}
    if cn2 >= 1e-14:
        assert ("gaussian-pib", None) in winners and ("fb", 1) in winners


def test_envelope_logs_each_pruned_configuration(caplog):
    # Vacuum flat-top grids at 1 km: N = 1 and 2 fall below the best start
    # total at once, N = 3 after the first sweep.
    params = QkdSystemParams()
    ch = square_channel(1e3, 0.0)
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        point = fb_envelope(ch, params)
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    dropped = [m for m in messages if " pruned at sweep " in m]
    assert len(dropped) == 3
    for n_grid, sweep, message in zip((1, 2, 3), (0, 0, 1), dropped):
        head = f"mode set 'fb', config {n_grid} pruned at sweep {sweep}: rate bound "
        assert head in message
        bound, best = (float(x) for x in re.findall(r"([0-9.e+]+) bits/s", message))
        assert f"{bound:.6g}" == f"{_config_bound(fb_turb_matrix(n_grid, ch), params):.6g}"
        assert bound < best <= point.total_rate_bps
    summaries = [m for m in messages if "sweeps per start" in m]
    assert len(summaries) == 8
    assert all(m.endswith(", pruned") for m in summaries[:3])
    assert all("winning start" in m for m in summaries[3:])


def test_rate_bound_violation_raises(monkeypatch):
    # A bound below a reachable total is a broken proof: it must surface,
    # not be clamped or turned into a pruned configuration.
    real = planner.rate_bound
    monkeypatch.setattr(planner, "rate_bound", lambda *args: 0.5 * real(*args))
    mat = CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[0.37]]))
    with pytest.raises(RuntimeError, match="exceeds its rate bound"):
        optimize_allocation(mat, QkdSystemParams())
    with pytest.raises(RuntimeError, match="mode set 'lg', config 1: total"):
        lg_envelope(gauss_channel(10e3, 1e-14), QkdSystemParams(), q_max=2)


@pytest.mark.parametrize(
    "family,path_length,cn2",
    [
        ("fb", 1e3, 0.0),
        ("fb", 3e3, 0.0),
        ("fb", 1.2e3, 1e-14),
        ("lg", 1e3, 0.0),
        ("lg", 50e3, 0.0),
        ("lg", 2e3, 1e-15),
        ("lg", 3e3, 1e-14),
    ],
)
def test_envelope_total_is_total_rate_of_its_allocation(family, path_length, cn2):
    # The winner's total comes from whichever probe of the line search was
    # best, value-only or with slopes, on rows padded to the largest
    # configuration; it must be the total of its own allocation to the bit.
    params = QkdSystemParams()
    if family == "fb":
        ch = square_channel(path_length, cn2)
        point = fb_envelope(ch, params)
    else:
        ch = gauss_channel(path_length, cn2)
        point = lg_envelope(ch, params)
    matrix = _winner_matrix(point, ch, q_max=8)
    assert point.total_rate_bps == total_rate(point.allocation, matrix, params)


def _winner_matrix(point, ch, q_max):
    """The coupling matrix of an envelope point's configuration on ``ch``."""
    if point.mode_set == "fb":
        return fb_turb_matrix(point.config, ch)
    if point.mode_set == "lg":
        full, k = lg_turb_matrix(q_max, ch), point.config * (point.config + 1) // 2
        return CouplingMatrix(modes=full.modes[:k], eta=full.eta[:k, :k])
    return CouplingMatrix(modes=(LGMode(0, 0),), eta=np.array([[gaussian_pib_turb(ch)]]))


def test_scan_batch_totals_are_total_rates_of_their_allocations():
    # One batch per family, every candidate padded to the family's largest
    # (16 pixels, 10 LG modes), and winners of mixed sizes: each row's
    # total is total_rate of its allocation on its own matrix, bit for bit,
    # and within 1e-12 of the mode-space total summed by math.fsum.
    params = QkdSystemParams()
    channels = [
        square_channel(1e3, 0.0),
        square_channel(2e3, 0.0),
        square_channel(2e3, 1e-15),
        square_channel(8e3, 0.0),
        square_channel(40e3, 1e-14),
        gauss_channel(1e3, 0.0),
        gauss_channel(3e3, 1e-14),
        gauss_channel(50e3, 0.0),
    ]
    rows = scan([ch.config for ch in channels], params, n_max=4, q_max=4)
    winners = {(row.point.mode_set, row.point.config) for row in rows}
    mixed = {("fb", 1), ("fb", 3), ("fb", 4), ("lg", 3), ("lg", 4), ("gaussian-pib", None)}
    assert mixed <= winners
    for ch, row in zip(channels, rows):
        point, matrix = row.point, _winner_matrix(row.point, ch, q_max=4)
        assert point.total_rate_bps == total_rate(point.allocation, matrix, params)
        reference = oracles.mode_space_total(matrix, point.allocation.mu, params)
        assert point.total_rate_bps == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_fb_envelope_rate_kernel_call_budget(kernel_work):
    # Deterministic work count of the optimizer: every rate-kernel call of
    # one vacuum flat-top envelope at 1 km, N = 1..8 (71 line searches).
    # Golden section to line_tol took 3,339 calls; the golden-then-secant
    # search takes 877.
    calls = kernel_work.calls
    fb_envelope(square_channel(1e3, 0.0), QkdSystemParams())
    assert len(calls) <= 900
    assert 0 < calls.count("rate_and_slopes") < calls.count("rate_per_pulse")


# The benchmark's turbulent LG points: 14.6 km at cn2 1e-14 and 1e-13.
_LG_TURB_LINKS = [
    family(14.6e3, cn2).config
    for cn2 in (1e-14, 1e-13)
    for family in (gauss_channel, square_channel)
]


def test_lg_turb_rate_kernel_call_budget(monkeypatch, kernel_work):
    # The turbulent LG benchmark point: 14.6 km at cn2 1e-14 and 1e-13,
    # q_max = 8 with single flat-top beams, in one scan.  The PIB fallback
    # wins both LG envelopes, and every order cap is dropped on its
    # diagonal's bound before its cross-order blocks are built: the cut
    # before the build totals the fallbacks' uniform starts in one kernel
    # call, and LG Q = 1 is pruned on its uniform starts, before the
    # single-mode search.  Every survivor has one mode, so the
    # single-mode search is the only line search: 18 kernel calls on 92
    # elements, against 17 on 564 when every cap reached the optimizer and
    # 366 calls without pruning.
    calls = kernel_work.calls
    searches = []
    line_max = planner._line_max
    monkeypatch.setattr(planner, "_line_max", lambda *args: searches.append(1) or line_max(*args))
    rows = scan(_LG_TURB_LINKS, QkdSystemParams(), n_max=1, q_max=8)
    assert [row.point.mode_set for row in rows] == ["gaussian-pib", "fb"] * 2
    assert len(searches) == 1
    budget = 18
    assert len(calls) <= budget
    assert kernel_work.elements <= 101
    calls.clear()
    monkeypatch.setattr(planner, "rate_bound", _no_bound)
    scan(_LG_TURB_LINKS, QkdSystemParams(), n_max=1, q_max=8)
    assert len(calls) > 4 * budget


def test_fb_scan_rate_kernel_budget(monkeypatch, kernel_work):
    # The benchmark's flat-top scan at its reference seed: 1751.67, 5340.27
    # and 21614.07 m in vacuum and at cn2 1e-14, n_max = 8 with q_max = 1.
    # Every class of every grid is one weighted entry, so the 71 line
    # searches evaluate 165,080 kernel elements, against 832,048 with one
    # entry per mode (the budget is the count plus 10%, floored).
    searches = []
    line_max = planner._line_max
    monkeypatch.setattr(planner, "_line_max", lambda *args: searches.append(1) or line_max(*args))
    links = [
        family(length, cn2).config
        for length in (1751.67, 5340.27, 21614.07)
        for cn2 in (0.0, 1e-14)
        for family in (gauss_channel, square_channel)
    ]
    scan(links, QkdSystemParams(), n_max=8, q_max=1)
    assert len(searches) == 71
    budget = 181_588
    assert kernel_work.elements <= budget
    kernel_work.elements = 0
    monkeypatch.setattr(vacuum, "_MATCH_TOL", -1.0)
    scan(links, QkdSystemParams(), n_max=8, q_max=1)
    assert kernel_work.elements > 4 * budget


def _spy_cross_order(monkeypatch):
    """The links of every planner.lg_turb_cross_order call, as lists."""
    seen, real = [], planner.lg_turb_cross_order

    def spy(same, links):
        seen.append(list(links))
        return real(same, links)

    monkeypatch.setattr(planner, "lg_turb_cross_order", spy)
    return seen


def test_lg_turb_points_build_no_cross_order_block(monkeypatch, caplog):
    # On the benchmark's turbulent LG points every cap is dropped before its
    # cross-order blocks exist, with its two debug lines, and every row is
    # the row of the path that builds and optimizes every cap, bit for bit.
    params = QkdSystemParams()
    seen = _spy_cross_order(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="fsoqkd.planner"):
        rows = scan(_LG_TURB_LINKS, params, n_max=1, q_max=8)
    assert seen == [[]]
    messages = [r.getMessage() for r in caplog.records]
    for q in range(1, 9):
        head = f"mode set 'lg', config {q}"
        assert len([m for m in messages if f"{head} pruned at sweep 0: rate bound " in m]) == 2
        assert len([m for m in messages if f"{head}: " in m and m.endswith(", pruned")]) == 2
    assert len([m for m in messages if "pruned at sweep 0" in m and "'lg'" in m]) == 16
    built = _built_candidates([derive(link) for link in _LG_TURB_LINKS[::2]], False, 8)
    for row, winner in zip(rows[::2], planner._envelopes(built, params, None)):
        mode_set, config, total, alloc = winner
        assert (row.point.mode_set, row.point.config) == (mode_set, config)
        assert row.point.total_rate_bps == total
        assert row.point.allocation.mu.tobytes() == alloc.mu.tobytes()


def test_only_surviving_links_get_cross_order_blocks(monkeypatch):
    # A link whose caps survive (1 km, cn2 1e-15) and one whose caps are all
    # dropped (14.6 km, cn2 1e-13) in one batch: only the first gets the
    # second step, and each row is its one-link scan's, bit for bit.
    params = QkdSystemParams()
    links = [gauss_channel(1e3, 1e-15).config, gauss_channel(14.6e3, 1e-13).config]
    seen = _spy_cross_order(monkeypatch)
    rows = scan(links, params, q_max=4)
    assert seen == [[0]]
    assert [row.point.mode_set for row in rows] == ["lg", "gaussian-pib"]
    for link, row in zip(links, rows):
        (solo,) = scan([link], params, q_max=4)
        _same_row(row, solo)


def test_unbounded_caps_all_get_cross_order_blocks(monkeypatch):
    # With infinite bounds no cap can be pruned, so none is dropped before
    # its cross-order blocks.
    monkeypatch.setattr(planner, "rate_bound", _no_bound)
    seen = _spy_cross_order(monkeypatch)
    scan(_LG_TURB_LINKS, QkdSystemParams(), n_max=1, q_max=8)
    assert seen == [[0, 1]]


def test_scan_fails_only_the_link_whose_same_order_step_fails(monkeypatch):
    # The first LG step raises for one link of two: the batch is rebuilt
    # link by link, that link alone fails with its own error, and the other
    # keeps the bits of its one-link scan.
    params = QkdSystemParams()
    links = [gauss_channel(1e3, 1e-15).config, gauss_channel(14.6e3, 1e-13).config]
    real = planner.lg_turb_same_order

    def flaky(q_max, chans):
        if any(ch.config.path_length == 1e3 for ch in chans):
            raise QuadratureError("no convergence")
        return real(q_max, chans)

    monkeypatch.setattr(planner, "lg_turb_same_order", flaky)
    rows = scan(links, params, q_max=4)
    assert rows[0].point is None and rows[0].error == "QuadratureError: no convergence"
    assert rows[0].capacity_bps is not None
    (solo,) = scan(links[1:], params, q_max=4)
    _same_row(rows[1], solo)
    assert rows[1].point.mode_set == "gaussian-pib"


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
    lg_row, fb_row = scan(
        [gauss_channel(10e3).config, square_channel(10e3).config], params, n_max=2, q_max=2
    )
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
    links = [gauss_channel(10e3, 1e-14).config, square_channel(10e3, 1e-14).config]
    lg_row, fb_row = scan(links, params, n_max=2, q_max=1)
    assert lg_row.error is None
    assert lg_row.point is not None
    assert fb_row.point is None
    assert fb_row.error == "RuntimeError: boom"


def test_scan_keeps_rate_when_capacity_fails():
    # A 0.3 m link exhausts the LG capacity series' order budget; the
    # envelope does not depend on that series and still runs.
    params = QkdSystemParams()
    (row,) = scan([gauss_channel(0.3).config], params, q_max=1)
    assert row.capacity_bps is None
    assert row.error.startswith("RuntimeError: lg_vacuum_capacity:")
    assert "D_f = " in row.error
    expected = lg_envelope(gauss_channel(0.3), params, q_max=1)
    assert row.point.total_rate_bps == expected.total_rate_bps > 0.0


def test_scan_names_every_failure(monkeypatch):
    def boom(q_max, ch):
        raise RuntimeError("boom")

    monkeypatch.setattr(planner, "lg_turb_matrix", boom)
    monkeypatch.setattr(planner, "lg_turb_same_order", boom)
    (row,) = scan([gauss_channel(0.3).config], QkdSystemParams(), q_max=1)
    assert row.point is None and row.capacity_bps is None
    first, second = row.error.split("; ")
    assert first.startswith("RuntimeError: lg_vacuum_capacity:")
    assert second == "RuntimeError: boom"


def _same_row(row, solo):
    assert row.error == solo.error
    assert row.capacity_bps == solo.capacity_bps
    if solo.point is None:
        assert row.point is None
        return
    assert (row.point.mode_set, row.point.config) == (solo.point.mode_set, solo.point.config)
    assert row.point.total_rate_bps == solo.point.total_rate_bps
    np.testing.assert_array_equal(row.point.allocation.mu, solo.point.allocation.mu)


def test_scan_batch_rows_equal_one_link_scans(monkeypatch):
    # The links of one family share one lockstep ascent, padded to the
    # n_max or q_max configuration, so every row keeps the bits of its own
    # one-link scan; a link whose matrix build fails fails alone.
    params = QkdSystemParams()
    links = [
        square_channel(1e3, 0.0).config,
        gauss_channel(10e3, 1e-14).config,
        square_channel(1.75e3, 1e-14).config,
        gauss_channel(1e3, 0.0).config,
        square_channel(3e3, 1e-14).config,
        square_channel(5e3, 1e-15).config,
        gauss_channel(2e3, 1e-13).config,
    ]
    real = planner.fb_turb_matrix

    def flaky(n_grid, chans):
        if n_grid == 3 and any(ch.config.path_length == 3e3 for ch in chans):
            raise RuntimeError("boom")
        return real(n_grid, chans)

    monkeypatch.setattr(planner, "fb_turb_matrix", flaky)
    rows = scan(links, params, n_max=4, q_max=4)
    assert len(rows) == len(links)
    assert rows[4].point is None and rows[4].error == "RuntimeError: boom"
    for i, (link, row) in enumerate(zip(links, rows)):
        (solo,) = scan([link], params, n_max=4, q_max=4)
        _same_row(row, solo)
        if i != 4:
            assert row.error is None and row.point.total_rate_bps > 0.0

    # A real failure: at 30 m the flat-top axis at N = 5..8 does not
    # converge, and that link alone fails, with its own error.
    monkeypatch.setattr(planner, "fb_turb_matrix", real)
    with pytest.raises(QuadratureError) as err:
        fb_axis(8, square_channel(30.0, 1e-14))
    links = [links[0], square_channel(30.0, 1e-14).config, links[1], links[2]]
    rows = scan(links, params, n_max=8, q_max=2)
    assert rows[1].point is None and rows[1].error == f"QuadratureError: {err.value}"
    for i, (link, row) in enumerate(zip(links, rows)):
        (solo,) = scan([link], params, n_max=8, q_max=2)
        _same_row(row, solo)
        if i != 1:
            assert row.error is None and row.point.total_rate_bps > 0.0


def test_scan_runs_one_ascent_for_both_families(kernel_work, monkeypatch):
    # Flat-top and LG links, vacuum and turbulent, 1 to 40 km, at n_max =
    # q_max = 8 share one lockstep ascent, and each row keeps the bits of
    # its own one-link scan.  The links of one configuration share one mode
    # list, classified once: N = 1..8 and Q = 1..8, the fallback sharing
    # Q = 1's.
    params = QkdSystemParams()
    links = [
        channel(L, cn2).config
        for channel, L, cn2 in (
            (square_channel, 1e3, 0.0),
            (gauss_channel, 2e3, 1e-14),
            (square_channel, 5e3, 1e-15),
            (gauss_channel, 10e3, 0.0),
            (gauss_channel, 20e3, 1e-13),
            (square_channel, 40e3, 1e-14),
        )
    ]
    classified = []
    monkeypatch.setattr(
        planner, "orbit_classes", lambda modes: classified.append(modes) or orbit_classes(modes)
    )
    rows = scan(links, params)
    assert kernel_work.optimize == 1
    assert len(classified) == 16
    for link, row in zip(links, rows):
        assert row.error is None and row.point.total_rate_bps > 0.0
        (solo,) = scan([link], params)
        _same_row(row, solo)


def test_scan_batch_rate_kernel_call_budget(kernel_work):
    # A batch costs about as many kernel calls as its slowest link alone:
    # each call carries every link's rows.
    calls = kernel_work.calls
    links = [square_channel(1e3, 0.0).config, square_channel(1e3, 1e-14).config]
    solo = []
    for link in links:
        calls.clear()
        scan([link], QkdSystemParams())
        solo.append(len(calls))
    calls.clear()
    scan(links, QkdSystemParams())
    assert len(calls) <= 1.1 * max(solo)


def test_scan_propagates_programming_errors(monkeypatch):
    def broken(n_grid, ch):
        raise TypeError("broken")

    monkeypatch.setattr(planner, "fb_turb_matrix", broken)
    with pytest.raises(TypeError, match="broken"):
        scan([square_channel(10e3, 1e-14).config], QkdSystemParams(), n_max=2)
