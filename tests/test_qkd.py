"""Decoy-state BB84 rate formula and its building blocks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsoqkd.qkd import (
    QkdSystemParams,
    binary_entropy,
    rate_and_slopes,
    rate_bound,
    rate_per_pulse,
)

import oracles


def test_binary_entropy_landmarks():
    assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-12)
    assert binary_entropy(0.01) == pytest.approx(0.08079313589591118, rel=1e-12)


def test_binary_entropy_symmetry_and_vectorization():
    x = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(binary_entropy(x), binary_entropy(1.0 - x), atol=1e-14)
    assert np.all(binary_entropy(x) <= 1.0 + 1e-15)


def test_ideal_collapse_rate():
    # Lossless channel, perfect visibility, no dark counts: the rate is
    # sift * mu * exp(-mu) at mu = 0.5.
    params = QkdSystemParams(
        visibility=1.0,
        dark_count=0.0,
        pulse_rate=1e10,
        error_correction_factor=1.0,
        sifting_factor=0.5,
    )
    got = rate_per_pulse(1.0, 0.5, 0.0, params)
    assert got == pytest.approx(0.5 * 0.5 * math.exp(-0.5), rel=1e-12)
    assert got == pytest.approx(0.15163266492815836, rel=1e-12)


def test_rate_matches_scalar_reference_on_random_grid():
    params = QkdSystemParams()
    rng = np.random.default_rng(20260814)
    for _ in range(300):
        eta = float(rng.uniform(0.0, 1.0))
        mu = float(rng.uniform(0.0, 1.5))
        mu_c = float(rng.uniform(0.0, 0.05))
        expected = oracles.decoy_rate_reference(
            eta,
            mu,
            mu_c,
            params.visibility,
            params.dark_count,
            params.error_correction_factor,
            params.sifting_factor,
        )
        got = float(rate_per_pulse(eta, mu, mu_c, params))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_rate_and_slopes_value_is_rate_per_pulse():
    params = QkdSystemParams()
    rng = np.random.default_rng(11)
    eta = 10.0 ** rng.uniform(-6.0, 0.0, 500)
    mu = rng.uniform(0.0, 1.5, 500)
    mu_c = 10.0 ** rng.uniform(-9.0, -1.0, 500)
    rate, _, _ = rate_and_slopes(eta, mu, mu_c, params)
    np.testing.assert_array_equal(rate, rate_per_pulse(eta, mu, mu_c, params))


def _unit_or_zero(lo_exp):
    """0, a subnormal, 1 or a log-uniform value in [10**lo_exp, 1]."""
    return st.one_of(
        st.sampled_from([0.0, 1e-310, 1.0]), st.floats(lo_exp, 0.0).map(lambda e: 10.0**e)
    )


@settings(max_examples=200, deadline=None)
@given(
    eta=st.lists(_unit_or_zero(-12.0), min_size=1, max_size=6),
    mu=st.one_of(st.just(0.0), st.floats(1e-6, 1.5), st.floats(0.0, 20.0)),
    mu_c=st.one_of(st.just(0.0), st.floats(-12.0, 1.0).map(lambda e: 10.0**e)),
    dark_count=st.one_of(st.just(0.0), st.floats(-12.0, -0.01).map(lambda e: 10.0**e)),
    visibility=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    f_ec=st.one_of(st.just(1.0), st.floats(1.0, 2.0)),
)
# Dark counts and cross-talk near saturation push e_1 past 1 (to 1.48 at
# eta = 1), where the clip acts.
@example(eta=[1.0, 0.5], mu=0.5, mu_c=10.0, dark_count=0.97, visibility=0.01, f_ec=1.0)
def test_rate_kernel_bitwise_matches_frozen_kernel(
    eta, mu, mu_c, dark_count, visibility, f_ec
):
    # The guards and logarithms were rewritten to do less work; value and
    # slopes must keep their bits, on padded modes (eta = 0), without dark
    # counts and without cross-talk included.
    params = QkdSystemParams(
        visibility=visibility, dark_count=dark_count, error_correction_factor=f_ec
    )
    eta = np.array(eta)
    got = rate_and_slopes(eta, mu, mu_c, params)
    want = oracles.decoy_rate_frozen(eta, mu, mu_c, params, slopes=True)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
        assert not np.any(np.signbit(g) != np.signbit(w))
    np.testing.assert_array_equal(
        rate_per_pulse(eta, mu, mu_c, params), oracles.decoy_rate_frozen(eta, mu, mu_c, params, False)
    )


def _system_params():
    """Every corner of the QkdSystemParams domain: visibility toward 0,
    dark counts toward 1, f_ec above 1, any sifting factor."""
    return st.builds(
        QkdSystemParams,
        visibility=st.one_of(st.just(1.0), _unit_or_zero(-12.0).filter(lambda v: v > 0.0)),
        dark_count=st.one_of(
            st.just(0.0),
            st.floats(-12.0, -0.01).map(lambda e: 10.0**e),
            st.floats(-12.0, -0.01).map(lambda e: 1.0 - 10.0**e),
        ),
        error_correction_factor=st.one_of(st.just(1.0), st.floats(1.0, 10.0)),
        sifting_factor=st.floats(1e-3, 1.0),
    )


@st.composite
def _mu_window(draw):
    """An optimizer window [mu_min, mu_max] and an array of mu in it: its
    ends, the peak of mu exp(-mu) when inside, and interior points."""
    lo, hi = sorted(draw(st.lists(st.floats(-8.0, 1.0), min_size=2, max_size=2, unique=True)))
    mu_min, mu_max = 10.0**lo, 10.0**hi
    inside = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    mu = [mu_min, mu_max, min(max(1.0, mu_min), mu_max)]
    mu += [min(mu_min + t * (mu_max - mu_min), mu_max) for t in inside]
    return mu_min, mu_max, np.array(mu)


@settings(max_examples=300, deadline=None)
@given(
    params=_system_params(),
    window=_mu_window(),
    eta=st.lists(_unit_or_zero(-14.0), min_size=1, max_size=4),
    mu_c=st.one_of(st.just(0.0), st.floats(-20.0, 3.0).map(lambda e: 10.0**e)),
)
@example(
    params=QkdSystemParams(visibility=1.0, dark_count=0.0),
    window=(1e-6, 1.5, np.array([1.0, 0.5])),
    eta=[1.0, 0.3, 1e-310, 0.0],
    mu_c=0.0,
)
# Rounded mu exp(-mu) one ulp below mu_max rounds one ulp above its value
# at mu_max.
@example(
    params=QkdSystemParams(visibility=1.0, dark_count=0.0, sifting_factor=1.0),
    window=(0.1, 0.9821718891880378, np.array([0.1, 0.9821718891880378, 0.9821718891880377])),
    eta=[1.0],
    mu_c=0.0,
)
def test_rate_bound_holds_and_crosstalk_only_lowers_the_rate(params, window, eta, mu_c):
    # The cross-talk-free single-photon term bounds the rate at every mu of
    # the window and every mu_c, to the bit; the rate's mu_c slope is never
    # positive, as the bound's proof needs.
    mu_min, mu_max, mu = window
    eta = np.array(eta)[:, None]
    bound = rate_bound(eta, params, mu_min, mu_max)
    assert bound.shape == eta.shape and np.all(np.isfinite(bound)) and np.all(bound >= 0.0)
    rate, _, d_mu_c = rate_and_slopes(eta, mu, mu_c, params)
    assert np.all(rate <= bound)
    assert np.all(d_mu_c <= 0.0)


def test_rate_slopes_match_central_differences():
    # Random points cover the clipped region (rate 0, where both slopes
    # must be exactly 0) and the lit one; points whose difference stencil
    # straddles the clip are skipped.  The mu_c step has a 1e-10 floor:
    # y0 = p_dc + 1 - exp(-mu_c) cancels to the last bits below it.
    params = QkdSystemParams()

    def ref(eta, mu, mu_c):
        return oracles.decoy_rate_reference(
            eta, mu, mu_c, params.visibility, params.dark_count,
            params.error_correction_factor, params.sifting_factor,
        )

    rng = np.random.default_rng(20261018)
    clipped = lit = 0
    for _ in range(400):
        eta = float(10.0 ** rng.uniform(-6.0, 0.0))
        mu = float(rng.uniform(1e-3, 1.5))
        mu_c = float(10.0 ** rng.uniform(-8.0, -1.0))
        rate, d_mu, d_mu_c = (float(x) for x in rate_and_slopes(eta, mu, mu_c, params))
        h, h_c = 1e-6 * mu, max(1e-4 * mu_c, 1e-10)
        stencil = [ref(eta, mu - h, mu_c), ref(eta, mu + h, mu_c)]
        stencil += [ref(eta, mu, mu_c - h_c), ref(eta, mu, mu_c + h_c)]
        if rate == 0.0 and not any(stencil):
            clipped += 1
            assert d_mu == d_mu_c == 0.0
        elif rate > 0.0 and all(stencil):
            lit += 1
            scale = rate / mu
            assert d_mu == pytest.approx(
                (stencil[1] - stencil[0]) / (2.0 * h), rel=1e-4, abs=1e-6 * scale
            )
            assert d_mu_c == pytest.approx((stencil[3] - stencil[2]) / (2.0 * h_c), rel=1e-4)
    assert clipped > 100 and lit > 100


def test_rate_slopes_finite_at_ideal_corner():
    # V = 1, p_dc = 0, mu_c = 0: every error rate is 0, where
    # H2'(0) = inf.  The slopes stay finite; d/dmu is the exact
    # sift * (1 - mu) exp(-mu) eta of the error-free rate sift * mu exp(-mu) eta.
    params = QkdSystemParams(visibility=1.0, dark_count=0.0)
    eta, mu = np.meshgrid(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.5, 16))
    rate, d_mu, d_mu_c = rate_and_slopes(eta, mu, 0.0, params)
    assert np.all(np.isfinite(d_mu)) and np.all(np.isfinite(d_mu_c))
    np.testing.assert_array_equal(rate, rate_per_pulse(eta, mu, 0.0, params))
    lit = rate > 0.0
    assert np.count_nonzero(lit) == 150  # all but mu = 0 or eta = 0
    np.testing.assert_allclose(
        d_mu[lit], (0.5 * (1.0 - mu) * np.exp(-mu) * eta)[lit], rtol=1e-14, atol=0.0
    )
    assert np.all(d_mu_c[lit] < 0.0)
    assert not np.any(d_mu[~lit]) and not np.any(d_mu_c[~lit])


def test_rate_vectorizes_over_mu():
    params = QkdSystemParams()
    mu = np.linspace(0.01, 1.2, 40)
    vec = rate_per_pulse(0.3, mu, 1e-4, params)
    scalar = np.array([float(rate_per_pulse(0.3, m, 1e-4, params)) for m in mu])
    np.testing.assert_allclose(vec, scalar, rtol=1e-14)


def test_rate_nonincreasing_in_crosstalk_and_dark_counts():
    mu_c = np.linspace(0.0, 0.1, 30)
    rates = rate_per_pulse(0.2, 0.4, mu_c, QkdSystemParams())
    assert np.all(np.diff(rates) <= 1e-15)
    darker = [
        float(rate_per_pulse(0.2, 0.4, 0.0, QkdSystemParams(dark_count=p)))
        for p in (1e-8, 1e-6, 1e-4, 1e-2)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(darker, darker[1:]))


def test_rate_zero_when_signal_buried():
    # Detection dominated by dark counts: error rate saturates and the
    # clamped rate is exactly zero.
    params = QkdSystemParams(dark_count=1e-3)
    assert float(rate_per_pulse(1e-9, 0.1, 0.0, params)) == 0.0
    assert float(rate_per_pulse(0.0, 0.5, 0.0, QkdSystemParams())) == 0.0


def test_mode_rate_zero_power_is_zero():
    # No signal photons and no cross-talk: nothing to distill.
    assert float(rate_per_pulse(0.5, 0.0, 0.0, QkdSystemParams())) == 0.0


def test_rate_dominated_by_channel_capacity():
    # Per-pulse key yield cannot beat -log2(1 - eta) for any mu, mu_c.
    rng = np.random.default_rng(7)
    params = QkdSystemParams()
    for _ in range(1000):
        eta = float(rng.uniform(1e-6, 0.999))
        mu = float(rng.uniform(0.0, 1.5))
        mu_c = float(rng.uniform(0.0, 0.05))
        got = float(rate_per_pulse(eta, mu, mu_c, params))
        assert got <= -math.log2(1.0 - eta) + 1e-12


def test_param_validation():
    with pytest.raises(ValueError):
        QkdSystemParams(visibility=1.2)
    with pytest.raises(ValueError):
        QkdSystemParams(dark_count=-1e-9)
    with pytest.raises(ValueError):
        QkdSystemParams(pulse_rate=0.0)
    with pytest.raises(ValueError):
        QkdSystemParams(error_correction_factor=0.9)
    with pytest.raises(ValueError):
        QkdSystemParams(sifting_factor=0.0)
