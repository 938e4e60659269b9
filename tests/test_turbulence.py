"""Square-law turbulence moments, LG/FB coupling matrices, PIB references."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fsoqkd.channel import ChannelConfig, SoftGaussian, cn2_for_coherence_length, derive
from fsoqkd.numerics import lg_hg_unitary
from fsoqkd.planner import fb_envelope
from fsoqkd.qkd import QkdSystemParams
from fsoqkd.turbulence import (
    StructureFunctionKind,
    fb_turb_eta,
    fb_turb_matrix,
    gaussian_pib_53,
    gaussian_pib_turb,
    hg_second_moments,
    lg_turb_matrix,
    structure_fn,
)
from fsoqkd.vacuum import (
    FBPixel,
    LGMode,
    fb_axis,
    fb_vacuum_matrix,
    lg_mode_scale,
    lg_vacuum_eta,
    lg_vacuum_matrix,
)

import oracles
from conftest import RADIUS, WAVELENGTH, gauss_channel, square_channel


# ------------------------------------------------------------------
# Structure functions
# ------------------------------------------------------------------


def test_structure_fn_square_law_closed_form():
    ch = gauss_channel(10e3, 1e-14)
    rho0 = ch.coherence_length
    r = 0.013
    got = structure_fn(StructureFunctionKind.SQUARE_LAW, (r, 0.0), (r, 0.0), ch)
    assert got == pytest.approx(3.0 * r * r / rho0 ** 2, rel=1e-13)
    got = structure_fn(StructureFunctionKind.SQUARE_LAW, (0.0, r), (0.0, -r), ch)
    assert got == pytest.approx(r * r / rho0 ** 2, rel=1e-13)
    got = structure_fn(StructureFunctionKind.SQUARE_LAW, (r, 0.0), (0.0, 0.0), ch)
    assert got == pytest.approx(r * r / rho0 ** 2, rel=1e-13)


def test_structure_fn_five_thirds_closed_forms():
    ch = gauss_channel(10e3, 1e-14)
    r = 0.02
    scale = 2.91 * ch.wave_number ** 2 * ch.cn2 * ch.path_length * r ** (5.0 / 3.0)
    same = structure_fn(StructureFunctionKind.FIVE_THIRDS, (r, 0.0), (r, 0.0), ch)
    assert same == pytest.approx(scale, rel=1e-8)
    # One-plane separations and antipodal separations both integrate
    # |xi|^(5/3) type profiles with mean 3/8.
    for d_out, d_in in (((r, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, r)), ((r, 0.0), (-r, 0.0))):
        got = structure_fn(StructureFunctionKind.FIVE_THIRDS, d_out, d_in, ch)
        assert got == pytest.approx(0.375 * scale, rel=1e-7)


def test_structure_fn_rotation_invariance():
    ch = gauss_channel(10e3, 1e-14)
    angle = 0.7
    c, s = math.cos(angle), math.sin(angle)
    d_out, d_in = (0.011, -0.004), (0.002, 0.009)
    rot = lambda v: (c * v[0] - s * v[1], s * v[0] + c * v[1])
    for kind in StructureFunctionKind:
        base = structure_fn(kind, d_out, d_in, ch)
        turned = structure_fn(kind, rot(d_out), rot(d_in), ch)
        assert turned == pytest.approx(base, rel=1e-8)


def test_structure_fn_vacuum_is_zero():
    ch = gauss_channel(10e3, 0.0)
    for kind in StructureFunctionKind:
        assert structure_fn(kind, (0.1, 0.0), (0.0, 0.1), ch) == 0.0


@pytest.mark.parametrize("cn2", [0.0, 1e-14])
def test_structure_fn_rejects_unknown_kind(cn2):
    with pytest.raises(ValueError, match="unknown structure function kind"):
        structure_fn("bogus", (0.1, 0.0), (0.0, 0.1), gauss_channel(10e3, cn2))


# ------------------------------------------------------------------
# HG second moments
# ------------------------------------------------------------------


def test_engine_vacuum_moments_factorize():
    ch = gauss_channel(10e3, 0.0)
    x = lg_vacuum_eta(1, ch.fresnel_product)
    mom = hg_second_moments(ch, (5, 5, 5, 5))
    for a in range(5):
        for b in range(5):
            got = mom[a, b, a, b]
            expected = x ** (0.5 * (a + b + 1)) * (-1j) ** (a - b)
            assert got == pytest.approx(expected, abs=1e-9 * abs(expected) + 1e-12)


def test_engine_vacuum_cross_moments_vanish():
    ch = gauss_channel(10e3, 0.0)
    mom = hg_second_moments(ch, (3, 3, 3, 3))
    assert abs(mom[2, 0, 0, 2]) <= 1e-8
    assert abs(mom[0, 0, 2, 0]) <= 1e-8


def test_moment_parity_exact_zero():
    ch = gauss_channel(10e3, 1e-14)
    mom = hg_second_moments(ch, (4, 4, 4, 4))
    assert mom[0, 0, 1, 0] == 0.0
    assert mom[1, 0, 0, 0] == 0.0
    total_order = np.indices(mom.shape).sum(axis=0)
    assert np.all(mom[total_order % 2 == 1] == 0.0)


def test_moment_exchange_symmetry():
    # Swapping the transmitter and receiver planes leaves the kernel
    # unchanged; the recurrence does not enforce this, so it is a check.
    ch = gauss_channel(10e3, 1e-14)
    mom = hg_second_moments(ch, (6, 6, 6, 6))
    scale = np.max(np.abs(mom))
    np.testing.assert_allclose(mom, mom.transpose(2, 3, 0, 1), rtol=0, atol=1e-13 * scale)


def test_moment_conjugation_symmetry_public():
    ch = gauss_channel(10e3, 1e-14)
    mom = hg_second_moments(ch, (3, 3, 3, 3))
    assert mom[2, 1, 1, 0] == np.conj(mom[1, 2, 0, 1])
    assert np.array_equal(mom, mom.transpose(1, 0, 3, 2).conj())


def test_moment_diagonals_real_unit_interval():
    ch = gauss_channel(10e3, 1e-14)
    mom = hg_second_moments(ch, (3, 3, 3, 3))
    for a in range(3):
        for c in range(3):
            val = mom[a, a, c, c]
            assert abs(val.imag) <= 1e-10
            assert -1e-10 <= val.real <= 1.0 + 1e-9


def test_moment_rejects_negative_indices():
    ch = gauss_channel(10e3, 1e-14)
    for shape in ((-1, 1, 1, 1), (1, 1, 0, 1), (1, 1, 1), ()):
        with pytest.raises(ValueError):
            hg_second_moments(ch, shape)


def test_moments_require_gaussian_pupil():
    with pytest.raises(ValueError):
        hg_second_moments(square_channel(10e3, 1e-14), (1, 1, 1, 1))


def test_moments_match_direct_4d_quadrature():
    # Independent cubature of the moment integral in sum/difference
    # coordinates, with HG polynomials from scipy.
    ch = gauss_channel(10e3, 1e-14)
    sigma = lg_mode_scale(ch)
    alpha = 1.0 / RADIUS ** 2 + 1.0 / (2.0 * sigma ** 2)
    soft = alpha * sigma ** 2 - 0.5
    inv_rho2 = 1.0 / ch.coherence_length ** 2
    k_over_l = ch.wave_number / ch.path_length
    pref = 1.0 / (ch.wavelength * ch.path_length)
    mom = hg_second_moments(ch, (3, 3, 3, 3))

    def hg_exp(n, u):
        norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        return norm * scipy.special.eval_hermite(n, u) * np.exp(-0.5 * u * u)

    def halfwidths(n):
        spread = 1.5 * (6.0 + math.sqrt(2.0 * n + 1.0))
        return spread / (2.0 * math.sqrt(alpha)), spread / math.sqrt(alpha + inv_rho2)

    for a, b, c, d in ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 2, 0)):
        hs_in, hd_in = halfwidths(max(a, b))
        hs_out, hd_out = halfwidths(max(c, d))

        def f(s_in, d_in, s_out, d_out):
            u1p = (s_in + 0.5 * d_in) / sigma
            u1m = (s_in - 0.5 * d_in) / sigma
            g1 = hg_exp(a, u1p) * hg_exp(b, u1m) * np.exp(-soft * (u1p ** 2 + u1m ** 2)) / sigma
            u2p = (s_out + 0.5 * d_out) / sigma
            u2m = (s_out - 0.5 * d_out) / sigma
            g2 = hg_exp(c, u2p) * hg_exp(d, u2m) * np.exp(-soft * (u2p ** 2 + u2m ** 2)) / sigma
            turb = np.exp(-0.5 * inv_rho2 * (d_in ** 2 + d_in * d_out + d_out ** 2))
            phase = np.exp(-1j * k_over_l * (s_in * d_out + s_out * d_in))
            return g1 * g2 * turb * phase * pref

        box = ((-hs_in, hs_in), (-hd_in, hd_in), (-hs_out, hs_out), (-hd_out, hd_out))
        ref = oracles.tensor_gl_4d(f, box, 48)
        assert mom[a, b, c, d] == pytest.approx(ref, rel=1e-9)


def test_completeness_weak_turbulence():
    ch = gauss_channel(10e3, 1e-15)
    mom = hg_second_moments(ch, (1, 1, 121, 121))
    axis_total = sum(mom[0, 0, c, c].real for c in range(25))
    assert axis_total == pytest.approx(math.sqrt(gaussian_pib_turb(ch)), rel=1e-6)


def test_completeness_moderate_turbulence():
    # Stronger turbulence spreads power across many output orders; the
    # axis sum recovers the closed-form bucket power once enough orders
    # are included.
    ch = gauss_channel(10e3, 1e-14)
    mom = hg_second_moments(ch, (1, 1, 121, 121))
    axis_total = sum(mom[0, 0, c, c].real for c in range(121))
    assert axis_total == pytest.approx(math.sqrt(gaussian_pib_turb(ch)), rel=1e-3)


# ------------------------------------------------------------------
# LG coupling matrices
# ------------------------------------------------------------------


def test_lg_turb_matrix_vacuum_reduction():
    ch = gauss_channel(10e3, 0.0)
    turb = lg_turb_matrix(3, ch)
    vac = lg_vacuum_matrix(3, ch)
    assert turb.modes == vac.modes
    np.testing.assert_allclose(turb.eta, vac.eta, rtol=0, atol=1e-8)


def test_lg_turb_matrix_invariants():
    ch = gauss_channel(10e3, 1e-14)
    mat = lg_turb_matrix(3, ch)
    assert np.all(mat.row_sums() <= 1.0 + 1e-6)
    np.testing.assert_allclose(mat.eta, mat.eta.T, rtol=0, atol=1e-10)
    # Azimuthal inversion symmetry: flipping the sign of every l leaves
    # the power couplings unchanged.
    for i, mi in enumerate(mat.modes):
        for j, mj in enumerate(mat.modes):
            fi = mat.index(type(mi)(mi.p, -mi.l))
            fj = mat.index(type(mj)(mj.p, -mj.l))
            assert mat.eta[i, j] == pytest.approx(mat.eta[fi, fj], abs=1e-8)


def test_lg_turb_matrix_matches_elementwise_sum():
    # Reference: the docstring's sum over a, b, c, d, one moment pair per term.
    ch = gauss_channel(10e3, 1e-14)
    q_max = 3
    mat = lg_turb_matrix(q_max, ch)
    mom = hg_second_moments(ch, (q_max,) * 4)
    rows = [(n, u) for n in range(q_max) for u in lg_hg_unitary(n)]
    for i, (n, u) in enumerate(rows):
        for j, (n2, w) in enumerate(rows):
            ref = sum(
                u[a] * u[b].conjugate() * w[c].conjugate() * w[d]
                * mom[a, b, c, d]
                * mom[n - a, n - b, n2 - c, n2 - d]
                for a in range(n + 1)
                for b in range(n + 1)
                for c in range(n2 + 1)
                for d in range(n2 + 1)
            )
            assert mat.eta[i, j] == pytest.approx(ref.real, rel=1e-12, abs=1e-14)


def test_lg_turb_diag_monotone_in_cn2():
    for path_length, q_max in ((1e3, 1), (100e3, 2)):
        diags = [
            np.diag(lg_turb_matrix(q_max, gauss_channel(path_length, cn2)).eta)
            for cn2 in (0.0, 1e-15, 1e-14, 1e-13)
        ]
        for prev, cur in zip(diags, diags[1:]):
            assert np.all(cur <= prev + 1e-9)


def test_lg_turb_matrix_rejects_bad_sizes():
    ch = gauss_channel(10e3, 1e-14)
    with pytest.raises(ValueError):
        lg_turb_matrix(0, ch)
    with pytest.raises(ValueError):
        lg_turb_matrix(-1, ch)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(
    path_length=_log_uniform(1e3, 100e3),
    cn2=st.one_of(st.just(0.0), _log_uniform(1e-16, 1e-13)),
    q_max=st.integers(1, 8),
)
def test_lg_turb_matrix_random_invariants(path_length, cn2, q_max):
    ch = gauss_channel(path_length, cn2)
    mat = lg_turb_matrix(q_max, ch)
    assert len(mat) == q_max * (q_max + 1) // 2
    np.testing.assert_allclose(mat.eta, mat.eta.T, rtol=0, atol=1e-12)
    assert np.all(mat.row_sums() <= 1.0 + 1e-6)
    flip = [mat.index(LGMode(m.p, -m.l)) for m in mat.modes]
    np.testing.assert_allclose(mat.eta[np.ix_(flip, flip)], mat.eta, rtol=0, atol=1e-12)
    if cn2 == 0.0:
        vac = lg_vacuum_matrix(q_max, ch)
        np.testing.assert_allclose(mat.eta, vac.eta, rtol=0, atol=1e-12)


@pytest.mark.parametrize("q_max", [8, 16])
@pytest.mark.parametrize("path_length", [1.0, 100.0, 300e3])
def test_lg_turb_matrix_is_vacuum_matrix_at_cn2_zero(path_length, q_max):
    # The envelopes build vacuum LG rows with lg_turb_matrix; the closed
    # form is the reference from the near field to the deep far field.
    ch = gauss_channel(path_length, 0.0)
    turb = lg_turb_matrix(q_max, ch)
    vac = lg_vacuum_matrix(q_max, ch)
    assert turb.modes == vac.modes
    diff = np.abs(turb.eta - vac.eta)
    assert diff.max() <= 1e-13 * np.diag(vac.eta).max()
    np.fill_diagonal(diff, 0.0)
    assert diff.max() <= 1e-15


# ------------------------------------------------------------------
# Focused-beam coupling under turbulence
# ------------------------------------------------------------------


def test_fb_turb_vacuum_identity():
    ch = square_channel(10e3, 0.0)
    vac = fb_vacuum_matrix(3, ch)
    for a, b in (
        (FBPixel(1, 1, 3), FBPixel(1, 1, 3)),
        (FBPixel(1, 1, 3), FBPixel(2, 3, 3)),
        (FBPixel(2, 2, 3), FBPixel(3, 1, 3)),
    ):
        assert fb_turb_eta(a, b, ch) == pytest.approx(vac.entry(a, b), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    path_length=_log_uniform(1e3, 100e3),
    cn2=st.one_of(st.just(0.0), _log_uniform(1e-16, 1e-13)),
    n_grid=st.integers(1, 8),
)
def test_fb_turb_matrix_invariants(path_length, cn2, n_grid):
    ch = square_channel(path_length, cn2)
    mat = fb_turb_matrix(n_grid, ch)
    assert len(mat) == n_grid * n_grid
    assert np.all(mat.row_sums() <= 1.0 + 1e-6)
    np.testing.assert_allclose(mat.eta, mat.eta.T, rtol=0, atol=1e-12)
    # Entries depend only on the axis displacements |dn| and |dm|.
    for i, mi in enumerate(mat.modes):
        for j, mj in enumerate(mat.modes):
            ref = mat.entry(
                FBPixel(1, 1, n_grid),
                FBPixel(1 + abs(mi.n - mj.n), 1 + abs(mi.m - mj.m), n_grid),
            )
            assert mat.eta[i, j] == pytest.approx(ref, rel=1e-12)
    # The first row covers every displacement; it matches the per-pixel path.
    for j, mj in enumerate(mat.modes):
        assert mat.eta[0, j] == fb_turb_eta(mat.modes[0], mj, ch)
    if cn2 == 0.0:
        vac = fb_vacuum_matrix(n_grid, ch)
        np.testing.assert_allclose(mat.eta, vac.eta, rtol=1e-10, atol=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda soft, square: fb_axis(2, soft),
        lambda soft, square: fb_axis(2, [square, soft, square]),
        lambda soft, square: fb_turb_eta(FBPixel(1, 1, 2), FBPixel(1, 2, 2), soft),
        lambda soft, square: fb_turb_matrix(2, soft),
        lambda soft, square: fb_vacuum_matrix(2, soft),
        lambda soft, square: fb_envelope(soft, QkdSystemParams(), n_max=2),
    ],
    ids=["fb_axis", "fb_axis-batch", "fb_turb_eta", "fb_turb_matrix", "fb_vacuum_matrix", "fb_envelope"],
)
def test_flat_top_entry_points_reject_soft_pupils(call):
    soft, square = gauss_channel(10e3, 1e-14), square_channel(10e3, 1e-14)
    with pytest.raises(ValueError, match="hard square pupils"):
        call(soft, square)


@pytest.mark.parametrize("path_length", [1e3, 3e3, 10e3, 30e3, 100e3])
def test_fb_axis_matches_quadpack_oracle(path_length):
    for cn2 in (0.0, 1e-15, 1e-14, 1e-13):
        ch = square_channel(path_length, cn2)
        for n_grid in range(1, 9):
            axis = fb_axis(n_grid, ch)
            ref = [oracles.fb_axis_quadpack(d, n_grid, ch) for d in range(n_grid)]
            np.testing.assert_allclose(axis, ref, rtol=0, atol=1e-12 * axis.max())


def test_fb_turb_diag_monotone_far_field():
    diags = [
        fb_turb_matrix(2, square_channel(100e3, cn2)).eta[0, 0]
        for cn2 in (0.0, 1e-15, 1e-14, 1e-13)
    ]
    for prev, cur in zip(diags, diags[1:]):
        assert cur < prev


def test_fb_turb_diag_near_field_slack():
    # In the near field the damped autocorrelation suppresses a negative
    # sinc lobe, so weak turbulence can raise the diagonal by a few 1e-4
    # before loss takes over; monotonicity holds to that slack.
    diags = [
        fb_turb_matrix(2, square_channel(1e3, cn2)).eta[0, 0]
        for cn2 in (0.0, 1e-15, 1e-14, 1e-13)
    ]
    for prev, cur in zip(diags, diags[1:]):
        assert cur <= prev + 2e-4
    assert diags[-1] < diags[0]


# ------------------------------------------------------------------
# Gaussian power-in-bucket references
# ------------------------------------------------------------------


def test_gaussian_pib_turb_vacuum_reduction():
    ch = gauss_channel(10e3, 0.0)
    df = ch.fresnel_product
    expected = 2.0 * df / (1.0 + 2.0 * df + math.sqrt(1.0 + 4.0 * df))
    assert gaussian_pib_turb(ch) == pytest.approx(expected, rel=1e-12)


def test_gaussian_pib_turb_is_vacuum_eta_exactly_at_cn2_zero():
    # The closed form has no vacuum branch: rho_0 = inf makes T / (T + 0)
    # exactly 1.0, so the result is the fundamental-mode transmissivity to
    # the bit on every link.
    for radius in (0.05, 0.10, 0.20):
        for path_length in np.geomspace(1.0, 1e6, 4000):
            ch = derive(
                ChannelConfig(
                    wavelength=WAVELENGTH,
                    path_length=float(path_length),
                    cn2=0.0,
                    pupil=SoftGaussian(radius=radius),
                )
            )
            assert gaussian_pib_turb(ch) == lg_vacuum_eta(1, ch.fresnel_product)


def test_gaussian_pib_turb_requires_gaussian_pupil():
    with pytest.raises(ValueError):
        gaussian_pib_turb(square_channel(10e3, 1e-14))


def test_gaussian_pib_turb_far_field_slope():
    # Deep in the turbulent far field eta ~ L^-2 * rho_0^2 ~ L^(-16/5).
    lengths = np.geomspace(50e3, 100e3, 6)
    etas = [gaussian_pib_turb(gauss_channel(L, 1e-13)) for L in lengths]
    slope = np.polyfit(np.log(lengths), np.log(etas), 1)[0]
    assert slope == pytest.approx(-16.0 / 5.0, abs=0.1)


def test_gaussian_pib_53_vacuum_limit():
    ch = gauss_channel(10e3, 1e-22)
    vac = gaussian_pib_turb(gauss_channel(10e3, 0.0))
    assert gaussian_pib_53(ch) == pytest.approx(vac, rel=1e-4)


@pytest.mark.parametrize("path_length", [1e3, 10e3, 100e3])
def test_gaussian_pib_53_matches_nested_oracle(path_length):
    for cn2 in (0.0, 1e-15, 1e-14, 1e-13):
        ch = gauss_channel(path_length, cn2)
        expected = oracles.gaussian_pib_53_nested(ch)
        assert gaussian_pib_53(ch) == pytest.approx(expected, rel=1e-9)


def test_single_beam_batches_equal_their_channels_alone():
    # One quadrature call over many channels gives each channel the bits
    # of its own call; one channel still gives a float.
    lengths = (1e3, 7e3, 40e3, 100e3)
    cn2s = (0.0, 1e-15, 1e-14, 1e-13)
    gauss = [gauss_channel(L, c) for L in lengths for c in cn2s]
    pib = gaussian_pib_53(gauss)
    assert pib.shape == (len(gauss),)
    assert pib.tolist() == [gaussian_pib_53(ch) for ch in gauss]
    assert type(gaussian_pib_53(gauss[0])) is float
    square = [square_channel(L, c) for L in lengths for c in cn2s]
    pixels = FBPixel(1, 1, 3), FBPixel(2, 3, 3)
    eta = fb_turb_eta(*pixels, square)
    assert eta.tolist() == [fb_turb_eta(*pixels, ch) for ch in square]
    assert type(fb_turb_eta(*pixels, square[0])) is float
    alone = [fb_axis(3, ch) for ch in square]
    np.testing.assert_array_equal(fb_axis(3, square), alone)


def test_gaussian_pib_ordering_single_point():
    ch = gauss_channel(10e3, 1e-14)
    sq = gaussian_pib_turb(ch)
    ft = gaussian_pib_53(ch)
    vac = gaussian_pib_turb(gauss_channel(10e3, 0.0))
    assert sq <= ft * (1.0 + 1e-9)
    assert ft <= vac * (1.0 + 1e-9)


def test_coherence_length_vacuum_reduction_channel():
    # A 1e6 m coherence length makes turbulence negligible for any of
    # the mode families at 10 km.
    cn2 = cn2_for_coherence_length(1e6, WAVELENGTH, 10e3)
    ch = gauss_channel(10e3, cn2)
    vac = gaussian_pib_turb(gauss_channel(10e3, 0.0))
    assert gaussian_pib_turb(ch) == pytest.approx(vac, abs=1e-6)
