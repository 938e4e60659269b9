"""Channel geometry, Fresnel products, and coherence lengths."""

import math

import pytest

from fsoqkd.channel import (
    ChannelConfig,
    HardSquare,
    SoftGaussian,
    cn2_for_coherence_length,
    derive,
    matched_square_side,
)

from conftest import WAVELENGTH, RADIUS, gauss_channel, square_channel


def test_pupil_areas():
    assert SoftGaussian(radius=2.0).area == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert HardSquare(side=3.0).area == pytest.approx(9.0, rel=1e-15)


def test_matched_square_side_frozen_value():
    side = matched_square_side(RADIUS)
    assert side == pytest.approx(0.12533141373155002, rel=1e-14)
    assert HardSquare(side=side).area == pytest.approx(
        SoftGaussian(radius=RADIUS).area, rel=1e-14
    )


def test_fresnel_product_frozen_values():
    assert gauss_channel(10e3).fresnel_product == pytest.approx(
        1.0270139855451987, rel=1e-13
    )
    assert gauss_channel(1e3).fresnel_product == pytest.approx(
        102.7013985545199, rel=1e-13
    )


def test_fresnel_product_scales_inverse_square_in_length():
    ratio = gauss_channel(10e3).fresnel_product / gauss_channel(20e3).fresnel_product
    assert ratio == pytest.approx(4.0, rel=1e-12)


def test_matched_square_channel_has_equal_fresnel_product():
    assert square_channel(10e3).fresnel_product == pytest.approx(
        gauss_channel(10e3).fresnel_product, rel=1e-12
    )


def test_wave_number():
    ch = gauss_channel(10e3)
    assert ch.wave_number == pytest.approx(2.0 * math.pi / WAVELENGTH, rel=1e-15)


def test_coherence_length_frozen_values():
    assert gauss_channel(10e3, cn2=1e-14).coherence_length == pytest.approx(
        0.011171880895807621, rel=1e-13
    )
    assert gauss_channel(10e3, cn2=1e-15).coherence_length == pytest.approx(
        0.04447605893190642, rel=1e-13
    )
    assert gauss_channel(100e3, cn2=1e-13).coherence_length == pytest.approx(
        0.000704898030286778, rel=1e-13
    )


def test_coherence_length_definition():
    ch = gauss_channel(10e3, cn2=1e-14)
    k = ch.wave_number
    expected = (1.09 * k * k * 1e-14 * 10e3) ** (-3.0 / 5.0)
    assert ch.coherence_length == pytest.approx(expected, rel=1e-14)


def test_vacuum_coherence_length_is_infinite():
    assert math.isinf(gauss_channel(10e3, cn2=0.0).coherence_length)


@pytest.mark.parametrize("target", [1e6, 0.05, 0.01])
def test_cn2_for_coherence_length_roundtrip(target):
    cn2 = cn2_for_coherence_length(target, WAVELENGTH, 10e3)
    assert cn2 > 0.0
    ch = gauss_channel(10e3, cn2=cn2)
    assert ch.coherence_length == pytest.approx(target, rel=1e-12)


def test_cn2_for_coherence_length_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cn2_for_coherence_length(0.0, WAVELENGTH, 10e3)
    with pytest.raises(ValueError):
        cn2_for_coherence_length(0.01, WAVELENGTH, 0.0)


def test_config_validation():
    pupil = SoftGaussian(radius=RADIUS)
    with pytest.raises(ValueError):
        derive(ChannelConfig(wavelength=0.0, path_length=1e3, cn2=0.0, pupil=pupil))
    with pytest.raises(ValueError):
        derive(ChannelConfig(wavelength=WAVELENGTH, path_length=-1.0, cn2=0.0, pupil=pupil))
    with pytest.raises(ValueError):
        derive(ChannelConfig(wavelength=WAVELENGTH, path_length=1e3, cn2=-1e-16, pupil=pupil))
    for cn2 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="cn2"):
            ChannelConfig(wavelength=WAVELENGTH, path_length=1e3, cn2=cn2, pupil=pupil)
    with pytest.raises(ValueError):
        SoftGaussian(radius=-0.1)
    with pytest.raises(ValueError):
        HardSquare(side=0.0)


def test_derived_channel_is_hashable_and_frozen():
    a = gauss_channel(10e3)
    b = gauss_channel(10e3)
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.config = None
