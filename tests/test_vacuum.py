"""Vacuum transmissivities: LG ladder, focused-beam pixels, capacities."""

import math
import re

import numpy as np
import pytest

from fsoqkd.vacuum import (
    CouplingMatrix,
    FBPixel,
    LGMode,
    fb_axis,
    fb_pixel_grid,
    fb_vacuum_matrix,
    lg_modes_up_to,
    lg_vacuum_capacity,
    lg_vacuum_eta,
    lg_vacuum_matrix,
    mode_label,
    qkd_capacity,
)

from fsoqkd.turbulence import fb_turb_matrix

import oracles
from conftest import WAVELENGTH, gauss_channel, gauss_channel_for_df, square_channel


def test_lg_base_ratio_closed_form_at_unit_fresnel():
    # x = 2 Df / (1 + 2 Df + sqrt(1 + 4 Df)) reduces to (3 - sqrt(5)) / 2
    # at Df = 1.
    ch = gauss_channel_for_df(1.0)
    x = lg_vacuum_matrix(1, ch).eta[0, 0]
    assert x == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-9)
    assert x == pytest.approx(0.38196601125010515, rel=1e-9)


def test_lg_vacuum_eta_is_geometric_in_order():
    ch = gauss_channel(10e3)
    x = lg_vacuum_eta(1, ch.fresnel_product)
    for q in range(1, 9):
        assert lg_vacuum_eta(q, ch.fresnel_product) == pytest.approx(
            x ** q, rel=1e-12
        )
        # No power reaches the receiver at D_f = 0.
        assert lg_vacuum_eta(q, 0.0) == 0.0


@pytest.mark.parametrize("df", [0.01, 1.0, 100.0])
def test_lg_sum_rule(df):
    ch = gauss_channel_for_df(df)
    x = lg_vacuum_eta(1, ch.fresnel_product)
    total = 0.0
    q = 1
    while True:
        term = q * x ** q
        total += term
        if term < 1e-18 * df:
            break
        q += 1
    assert total == pytest.approx(df, rel=1e-10)


def test_lg_modes_up_to_structure():
    modes = lg_modes_up_to(4)
    assert len(modes) == 10
    orders = [m.order for m in modes]
    assert orders == sorted(orders)
    for mode in modes:
        assert mode.order == 2 * mode.p + abs(mode.l) + 1
    assert modes[:3] == (LGMode(0, 0), LGMode(0, -1), LGMode(0, 1))


def test_lg_vacuum_matrix_is_diagonal():
    ch = gauss_channel(10e3)
    mat = lg_vacuum_matrix(3, ch)
    for i, mi in enumerate(mat.modes):
        for j in range(len(mat)):
            if i == j:
                assert mat.eta[i, j] == pytest.approx(
                    lg_vacuum_eta(mi.order, ch.fresnel_product), rel=1e-12
                )
            else:
                assert mat.eta[i, j] == 0.0


@pytest.mark.parametrize(
    "path_length,n_grid,d",
    [
        (1e3, 1, 0),
        (1e3, 2, 0),
        (1e3, 2, 1),
        (1e3, 5, 0),
        (1e3, 5, 2),
        (1e3, 5, 4),
        (10e3, 2, 0),
        (10e3, 2, 1),
    ],
)
def test_fb_axis_against_fft_propagation(path_length, n_grid, d):
    ch = square_channel(path_length)
    got = fb_axis(n_grid, ch)[d]
    ref = oracles.fb_axis_fft(d, n_grid, WAVELENGTH, path_length, ch.config.pupil.side)
    assert got == pytest.approx(ref, rel=2e-3)


def test_fb_matrices_reject_empty_grid():
    with pytest.raises(ValueError, match="n_grid must be >= 1, got 0"):
        fb_vacuum_matrix(0, square_channel(10e3))
    with pytest.raises(ValueError, match="n_grid must be >= 1, got 0"):
        fb_turb_matrix(0, square_channel(10e3, 1e-14))


def test_fb_vacuum_eta_factorizes_over_axes():
    ch = square_channel(10e3)
    a = FBPixel(1, 2, 3)
    b = FBPixel(3, 3, 3)
    axis = fb_axis(3, ch)
    expected = axis[2] * axis[1]
    assert fb_vacuum_matrix(3, ch).entry(a, b) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("path_length", [100.0, 300.0, 1e3, 10e3, 100e3])
def test_fb_axis_matches_pixel_overlap_oracle(path_length):
    # The autocorrelation form at cn2 = 0 against the sinc^2 pixel overlap,
    # a different integral of the same vacuum quantity, on QUADPACK.
    ch = square_channel(path_length)
    for n_grid in range(1, 9):
        axis = fb_axis(n_grid, ch)
        ref = [oracles.fb_axis_vacuum_overlap(d, n_grid, ch) for d in range(n_grid)]
        np.testing.assert_allclose(axis, ref, rtol=0, atol=1e-12 * axis.max())


def test_fb_vacuum_matrix_invariants():
    ch = square_channel(10e3)
    mat = fb_vacuum_matrix(3, ch)
    assert len(mat) == 9
    np.testing.assert_allclose(mat.eta, mat.eta.T, rtol=0, atol=1e-12)
    assert np.all(mat.row_sums() <= 1.0 + 1e-6)
    # Entries depend only on the axis displacements.
    for i, mi in enumerate(mat.modes):
        for j, mj in enumerate(mat.modes):
            ref = mat.entry(FBPixel(1, 1, 3), FBPixel(1 + abs(mi.n - mj.n), 1 + abs(mi.m - mj.m), 3))
            assert mat.eta[i, j] == pytest.approx(ref, rel=1e-12)


def test_fb_pixel_grid_row_major():
    grid = fb_pixel_grid(2)
    assert grid == (
        FBPixel(1, 1, 2),
        FBPixel(1, 2, 2),
        FBPixel(2, 1, 2),
        FBPixel(2, 2, 2),
    )
    with pytest.raises(ValueError):
        FBPixel(0, 1, 2)
    with pytest.raises(ValueError):
        FBPixel(3, 1, 2)


def test_mode_labels():
    assert mode_label(LGMode(0, 1)) == "lg(p=0,l=+1)"
    assert mode_label(LGMode(2, -3)) == "lg(p=2,l=-3)"
    assert mode_label(FBPixel(1, 2, 3)) == "fb(n=1,m=2;N=3)"


def test_coupling_matrix_clamps_and_rejects():
    modes = (LGMode(0, 0), LGMode(0, 1))
    eta = np.array([[0.5, -1e-9], [0.0, 0.25]])
    mat = CouplingMatrix(modes=modes, eta=eta)
    assert mat.eta[0, 1] == 0.0
    with pytest.raises(ValueError):
        CouplingMatrix(modes=modes, eta=np.array([[0.5, -1e-3], [0.0, 0.25]]))
    with pytest.raises(ValueError):
        CouplingMatrix(modes=modes, eta=np.array([[0.9, 0.2], [0.0, 0.25]]))
    ok = CouplingMatrix(modes=modes, eta=np.array([[0.9, 0.1 + 1e-7], [0.0, 0.25]]))
    assert ok.row_sums()[0] > 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_coupling_matrix_rejects_non_finite(bad):
    # NaN fails every comparison, so the range checks alone let it through.
    eta = np.array([[0.5, bad], [0.0, 0.25]])
    with pytest.raises(ValueError, match="finite"):
        CouplingMatrix(modes=(LGMode(0, 0), LGMode(0, 1)), eta=eta)


def test_coupling_matrix_dump_format():
    ch = square_channel(10e3)
    mat = fb_vacuum_matrix(2, ch)
    text = mat.dump()
    lines = text.splitlines()
    assert lines[0] == "# from_mode to_mode eta"
    assert len(lines) == 1 + 16
    cell = re.compile(r"^fb\(n=\d,m=\d;N=2\) fb\(n=\d,m=\d;N=2\) \d\.\d{11}e[+-]\d{2}$")
    for line in lines[1:]:
        assert cell.match(line), line
    assert text.endswith("\n")


def test_qkd_capacity_hand_value():
    got = qkd_capacity(np.array([0.5, 0.25]), 2.0)
    assert got == pytest.approx(2.0 * (1.0 + math.log2(4.0 / 3.0)), rel=1e-12)
    # A small eta keeps its digits: log2(1 - 1e-12) reads 2.2e-5 relative low.
    small = qkd_capacity(np.array([1e-12]), 1.0)
    assert small == pytest.approx(-math.log1p(-1e-12) / math.log(2), rel=1e-13, abs=0.0)
    with pytest.raises(ValueError):
        qkd_capacity(np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        qkd_capacity(np.array([-0.1]), 1.0)


@pytest.mark.parametrize("path_length", [1e8, 1e13])
def test_lg_vacuum_capacity_keeps_its_digits_in_the_far_field(path_length):
    # The same sum regrouped by powers of the base, a Lambert series that
    # takes no logarithm of 1 - x: sum_m base^m / (m (1 - base^m)^2) / ln 2.
    # With log2(1 - x) the capacity read 5.6e-10 relative low at 1e8 m, and
    # at 1e13 m (base 1e-18) it summed to 0.0 and ran out of orders.
    x = lg_vacuum_eta(1, gauss_channel(path_length).fresnel_product)
    want, m = 0.0, 1
    while m == 1 or x ** m > 1e-20 * want:
        want += x ** m / (m * (1.0 - x ** m) ** 2)
        m += 1
    want /= math.log(2)
    assert lg_vacuum_capacity(gauss_channel(path_length), 1.0) == pytest.approx(
        want, rel=1e-13, abs=0.0
    )


def test_lg_vacuum_capacity_against_partial_sum():
    ch = gauss_channel(10e3)
    x = lg_vacuum_eta(1, ch.fresnel_product)
    total = 0.0
    q = 1
    while True:
        term = -q * math.log2(1.0 - x ** q)
        total += term
        if term < 1e-18:
            break
        q += 1
    assert lg_vacuum_capacity(ch, 1.0) == pytest.approx(total, rel=1e-12)
    assert lg_vacuum_capacity(ch, 3.0) == pytest.approx(3.0 * total, rel=1e-12)


def test_lg_vacuum_capacity_raises_past_order_budget():
    # At 0.3 m (D_f ~ 1.1e9) the series needs ~1.3e6 orders; the sum reached
    # within the 200000-order budget is 1.5% below the full one.
    with pytest.raises(RuntimeError, match=r"within 200000 orders at D_f = 1\.14113e\+09"):
        lg_vacuum_capacity(gauss_channel(0.3), 1.0)
