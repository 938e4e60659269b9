"""Free-space channel geometry and derived propagation quantities.

All lengths are SI meters.  Vacuum propagation is represented by
``cn2 = 0``, which yields an infinite coherence length so that every
turbulent expression reduces smoothly to its vacuum counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

__all__ = [
    "SoftGaussian",
    "HardSquare",
    "PupilSpec",
    "ChannelConfig",
    "DerivedChannel",
    "derive",
    "matched_square_side",
    "cn2_for_coherence_length",
]

# Spherical-wave coherence-length prefactor for Kolmogorov turbulence.
_RHO0_COEFF = 1.09


@dataclass(frozen=True)
class SoftGaussian:
    """Soft Gaussian pupil with field transmission exp(-|rho|^2 / R^2)."""

    radius: float  # effective radius R, m

    def __post_init__(self) -> None:
        if not (isinstance(self.radius, (int, float)) and self.radius > 0):
            raise ValueError(f"Gaussian pupil radius must be > 0, got {self.radius!r}")

    @property
    def area(self) -> float:
        """Effective area pi R^2 / 2, the integral of the squared transmission."""
        return 0.5 * math.pi * self.radius ** 2


@dataclass(frozen=True)
class HardSquare:
    """Unapodized square pupil of side length s."""

    side: float  # side length s, m

    def __post_init__(self) -> None:
        if not (isinstance(self.side, (int, float)) and self.side > 0):
            raise ValueError(f"square pupil side must be > 0, got {self.side!r}")

    @property
    def area(self) -> float:
        return self.side ** 2


PupilSpec = Union[SoftGaussian, HardSquare]


@dataclass(frozen=True)
class ChannelConfig:
    """Line-of-sight channel description.

    Parameters
    ----------
    wavelength : float
        Optical wavelength, m.
    path_length : float
        Transmitter-to-receiver distance L, m.
    cn2 : float
        Refractive-index structure constant, m^(-2/3).  Zero means vacuum.
    pupil : PupilSpec
        Pupil shared by transmitter and receiver.  Identical pupils at the
        two ends are assumed throughout; asymmetric links are not
        representable on purpose.
    """

    wavelength: float
    path_length: float
    cn2: float
    pupil: PupilSpec

    def __post_init__(self) -> None:
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be > 0, got {self.wavelength!r}")
        if not self.path_length > 0:
            raise ValueError(f"path length must be > 0, got {self.path_length!r}")
        if not math.isfinite(self.cn2) or self.cn2 < 0:
            raise ValueError(f"cn2 must be finite and >= 0, got {self.cn2!r}")
        if not isinstance(self.pupil, (SoftGaussian, HardSquare)):
            raise ValueError(f"unsupported pupil spec: {self.pupil!r}")


@dataclass(frozen=True)
class DerivedChannel:
    """Channel scalars derived from a :class:`ChannelConfig`.

    Attributes
    ----------
    config : ChannelConfig
        The configuration these scalars were derived from.
    wave_number : float
        k = 2 pi / wavelength, rad/m.
    area : float
        Effective pupil area A, m^2.
    fresnel_product : float
        D_f = (A / (wavelength * L))^2, dimensionless.  D_f >> 1 is the
        near field, D_f << 1 the far field.
    coherence_length : float
        Spherical-wave coherence length rho_0 = (1.09 k^2 cn2 L)^(-3/5), m.
        Infinite in vacuum.
    """

    config: ChannelConfig
    wave_number: float
    area: float
    fresnel_product: float
    coherence_length: float

    @property
    def wavelength(self) -> float:
        return self.config.wavelength

    @property
    def path_length(self) -> float:
        return self.config.path_length

    @property
    def cn2(self) -> float:
        return self.config.cn2

    @property
    def pupil(self) -> PupilSpec:
        return self.config.pupil


def derive(config: ChannelConfig) -> DerivedChannel:
    """Compute the derived scalars for a channel configuration."""
    k = 2.0 * math.pi / config.wavelength
    area = config.pupil.area
    fresnel = (area / (config.wavelength * config.path_length)) ** 2
    if config.cn2 == 0.0:
        rho0 = math.inf
    else:
        rho0 = (_RHO0_COEFF * k ** 2 * config.cn2 * config.path_length) ** (-3.0 / 5.0)
    return DerivedChannel(
        config=config,
        wave_number=k,
        area=area,
        fresnel_product=fresnel,
        coherence_length=rho0,
    )


def matched_square_side(radius: float) -> float:
    """Side of the hard square pupil whose area equals a soft Gaussian pupil's.

    s = sqrt(pi / 2) * R, so that s^2 = pi R^2 / 2 and the two pupil shapes
    share the same Fresnel number product at every distance.
    """
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius!r}")
    return math.sqrt(0.5 * math.pi) * radius


def cn2_for_coherence_length(
    coherence_length: float, wavelength: float, path_length: float
) -> float:
    """Structure constant giving a prescribed coherence length rho_0.

    Inverts rho_0 = (1.09 k^2 cn2 L)^(-3/5); useful for pinning a channel
    at a coherence length (for example a quasi-vacuum rho_0 = 10^6 m)
    instead of a cn2 value.
    """
    if not coherence_length > 0:
        raise ValueError(f"coherence length must be > 0, got {coherence_length!r}")
    if not wavelength > 0 or not path_length > 0:
        raise ValueError("wavelength and path length must be > 0")
    k = 2.0 * math.pi / wavelength
    return coherence_length ** (-5.0 / 3.0) / (_RHO0_COEFF * k ** 2 * path_length)
