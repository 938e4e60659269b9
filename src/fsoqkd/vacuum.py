"""Vacuum-propagation mode sets and their power coupling matrices.

Two families of spatial modes are modeled over the same pupil pair:

* Laguerre-Gauss (LG) modes over soft Gaussian pupils.  These are the
  vacuum normal modes, so their vacuum coupling matrix is diagonal with
  transmissivity depending only on the mode order q = 2p + |l| + 1.
* Focused-beam (FB) tiles over hard square pupils: an N x N grid of
  flat-top beams, each focused onto the matching receiver pixel.  The
  coupling factorizes into per-axis integrals of the pixel-index
  differences, so matrices are Toeplitz in each axis.  :func:`fb_axis` is
  that integral at every cn2; the turbulent FB builders call it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .channel import DerivedChannel, HardSquare, SoftGaussian
from .numerics import integrate_1d, lg_modes_of_order

__all__ = [
    "LGMode",
    "FBPixel",
    "ModeId",
    "CouplingMatrix",
    "mode_label",
    "lg_vacuum_eta",
    "lg_modes_up_to",
    "lg_mode_scale",
    "lg_vacuum_matrix",
    "fb_pixel_grid",
    "fb_axis",
    "fb_coupling_matrix",
    "fb_vacuum_matrix",
    "qkd_capacity",
    "lg_vacuum_capacity",
]


@dataclass(frozen=True)
class LGMode:
    """Laguerre-Gauss mode with radial index p >= 0 and azimuthal index l."""

    p: int
    l: int

    def __post_init__(self) -> None:
        if self.p < 0:
            raise ValueError(f"radial index must be >= 0, got {self.p}")

    @property
    def order(self) -> int:
        """Mode order q = 2p + |l| + 1 (the vacuum transmissivity exponent)."""
        return 2 * self.p + abs(self.l) + 1


@dataclass(frozen=True)
class FBPixel:
    """Focused beam aimed at pixel (n, m) of an N x N receiver grid, 1-based."""

    n: int
    m: int
    grid: int

    def __post_init__(self) -> None:
        if self.grid < 1:
            raise ValueError(f"grid size must be >= 1, got {self.grid}")
        if not (1 <= self.n <= self.grid and 1 <= self.m <= self.grid):
            raise ValueError(
                f"pixel ({self.n}, {self.m}) outside 1..{self.grid} grid"
            )


ModeId = Union[LGMode, FBPixel]


def mode_label(mode: ModeId) -> str:
    if isinstance(mode, LGMode):
        return f"lg(p={mode.p},l={mode.l:+d})"
    if isinstance(mode, FBPixel):
        return f"fb(n={mode.n},m={mode.m};N={mode.grid})"
    raise TypeError(f"not a mode id: {mode!r}")


@dataclass(frozen=True)
class CouplingMatrix:
    """Dense power-coupling matrix eta[i, j] from modes[i] into modes[j].

    Entries are average power transmissivities in [0, 1]; each row sums to
    at most 1 (power into the modeled output set cannot exceed the power
    sent).  Vacuum and turbulent matrices are the same type: vacuum is
    the cn2 = 0 call of the turbulent builders.
    """

    modes: Tuple[ModeId, ...]
    eta: np.ndarray

    # Numerical slack for clamping quadrature noise at the domain edges.
    _NEG_CLAMP = 1e-8
    _ROW_SLACK = 1e-6

    def __post_init__(self) -> None:
        eta = np.asarray(self.eta, dtype=float)
        n = len(self.modes)
        if eta.shape != (n, n):
            raise ValueError(f"eta shape {eta.shape} does not match {n} modes")
        if not np.all(np.isfinite(eta)):
            raise ValueError("coupling entries must be finite")
        if np.any(eta < -self._NEG_CLAMP) or np.any(eta > 1.0 + self._ROW_SLACK):
            raise ValueError("coupling entries outside [0, 1] beyond tolerance")
        eta = np.clip(eta, 0.0, 1.0)
        rows = eta.sum(axis=1)
        if np.any(rows > 1.0 + self._ROW_SLACK):
            worst = float(rows.max())
            raise ValueError(f"row power sum {worst} exceeds 1")
        object.__setattr__(self, "eta", eta)

    def __len__(self) -> int:
        return len(self.modes)

    def index(self, mode: ModeId) -> int:
        return self.modes.index(mode)

    def entry(self, mode_from: ModeId, mode_to: ModeId) -> float:
        return float(self.eta[self.index(mode_from), self.index(mode_to)])

    def row_sums(self) -> np.ndarray:
        return self.eta.sum(axis=1)

    def dump(self) -> str:
        """Plain-text table: one row per (from, to, eta), 12 significant digits."""
        lines = ["# from_mode to_mode eta"]
        for i, mi in enumerate(self.modes):
            for j, mj in enumerate(self.modes):
                lines.append(
                    f"{mode_label(mi)} {mode_label(mj)} {self.eta[i, j]:.11e}"
                )
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Laguerre-Gauss vacuum quantities
# --------------------------------------------------------------------------


def _eta_base(fresnel_product: float) -> float:
    """Per-order transmissivity base (1 + 2 D_f - sqrt(1 + 4 D_f)) / (2 D_f).

    Evaluated as 2 D_f / (1 + 2 D_f + sqrt(1 + 4 D_f)), which is the same
    number without the small-D_f cancellation.
    """
    df = fresnel_product
    if df < 0:
        raise ValueError(f"Fresnel number product must be >= 0, got {df}")
    if df == 0.0:
        return 0.0
    return 2.0 * df / (1.0 + 2.0 * df + math.sqrt(1.0 + 4.0 * df))


def lg_vacuum_eta(q: int, fresnel_product: float) -> float:
    """Vacuum transmissivity of every LG mode of order q over Gaussian pupils."""
    if q < 1:
        raise ValueError(f"mode order must be >= 1, got {q}")
    return _eta_base(fresnel_product) ** q


def lg_modes_up_to(q_max: int) -> Tuple[LGMode, ...]:
    """All LG modes with order <= q_max, sorted by (order, l).

    Order q holds the q modes of :func:`lg_modes_of_order` (q - 1), so the
    modes of orders <= Q are the leading Q (Q + 1) / 2 entries.
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    return tuple(
        LGMode(p=p, l=l) for top in range(q_max) for p, l in lg_modes_of_order(top)
    )


def lg_mode_scale(ch: DerivedChannel) -> float:
    """1/e^2-intensity scale sigma of the vacuum normal-mode LG/HG set.

    The LG modes that diagonalize the Gaussian-pupil vacuum channel carry
    envelope exp(-r^2 / (2 sigma^2)) and a focusing phase exp(-i k r^2 / 2L),
    with sigma set by the pupil radius and the Fresnel number product:

        gamma^2 = R^2 / (1 + sqrt(1 + 4 D_f)),
        sigma^2 = gamma^2 R^2 / (2 (R^2 - gamma^2)).
    """
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("LG mode scale requires soft Gaussian pupils")
    r2 = ch.pupil.radius ** 2
    gamma2 = r2 / (1.0 + math.sqrt(1.0 + 4.0 * ch.fresnel_product))
    return math.sqrt(gamma2 * r2 / (2.0 * (r2 - gamma2)))


def lg_vacuum_matrix(q_max: int, ch: DerivedChannel) -> CouplingMatrix:
    """Diagonal vacuum coupling matrix for all LG modes of order <= q_max:
    the closed-form reference for ``lg_turb_matrix`` at cn2 = 0."""
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("LG modes require soft Gaussian pupils")
    modes = lg_modes_up_to(q_max)
    eta = np.diag([lg_vacuum_eta(m.order, ch.fresnel_product) for m in modes])
    return CouplingMatrix(modes=modes, eta=eta)


# --------------------------------------------------------------------------
# Focused-beam vacuum quantities
# --------------------------------------------------------------------------


def fb_pixel_grid(n_grid: int) -> Tuple[FBPixel, ...]:
    """Row-major tuple of the N x N focused-beam pixels."""
    if n_grid < 1:
        raise ValueError(f"grid size must be >= 1, got {n_grid}")
    return tuple(
        FBPixel(n=n, m=m, grid=n_grid)
        for n in range(1, n_grid + 1)
        for m in range(1, n_grid + 1)
    )


def fb_coupling_matrix(axis: np.ndarray) -> CouplingMatrix:
    """Coupling matrix of the N x N focused-beam set from its per-axis factors.

    ``axis[d]`` is the per-axis coupling for pixel-index difference d = 0..N-1.
    The 2-D coupling is the product of the x and y factors, so over the
    row-major pixel list the matrix is the Kronecker square of the
    symmetric Toeplitz matrix T[i, j] = axis[|i - j|].
    """
    idx = np.arange(len(axis))
    toeplitz = axis[np.abs(idx[:, None] - idx[None, :])]
    return CouplingMatrix(modes=fb_pixel_grid(len(axis)), eta=np.kron(toeplitz, toeplitz))


def fb_axis(
    n_grid: int, ch: Union[DerivedChannel, Sequence[DerivedChannel]]
) -> np.ndarray:
    """Per-axis focused-beam coupling factors for index differences d = 0..N-1.

    I(d) = 2c * integral_0^1 (1 - xi) sinc(c xi) exp(-g xi^2) cos(2 pi c xi d) dxi,

    with c = sqrt(D_f) / N and sinc(x) = sin(pi x) / (pi x): the pixel
    autocorrelation of the far-field pattern of a hard square pupil of
    side s, damped by square-law turbulence with g = (s / rho_0)^2 / 2.
    Vacuum's rho_0 = inf makes g = 0.0 exactly: I(d) is then the overlap
    of the sinc^2 pattern with pixel d.  A sequence of channels gives a
    (P, N) array from one quadrature call, each row the same bit for bit
    as its channel alone.
    """
    if n_grid < 1:
        raise ValueError(f"n_grid must be >= 1, got {n_grid}")
    chans = [ch] if isinstance(ch, DerivedChannel) else list(ch)
    if not all(isinstance(x.pupil, HardSquare) for x in chans):
        raise ValueError("focused-beam modes require hard square pupils")
    c = np.array([math.sqrt(x.fresnel_product) for x in chans]) / n_grid
    damp = np.array([(x.pupil.side / x.coherence_length) ** 2 / 2.0 for x in chans])
    phase = 2.0 * np.pi * c
    d = np.arange(n_grid)[:, None]

    def integrand(rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
        envelope = (1.0 - xi) * np.sinc(c[rows, None] * xi) * np.exp(-damp[rows, None] * xi * xi)
        return envelope[:, None, :] * np.cos(phase[rows, None, None] * d * xi[:, None, :])

    overlap = integrate_1d(integrand, np.zeros(c.size), np.ones(c.size), rel_tol=1e-12)
    axis = (2.0 * c)[:, None] * overlap
    return axis[0] if isinstance(ch, DerivedChannel) else axis


def fb_vacuum_matrix(n_grid: int, ch: DerivedChannel) -> CouplingMatrix:
    """Vacuum flat-top coupling matrix: the cn2 = 0 call of :func:`fb_axis`,
    kept under its name for the tests and the benchmark tracer.  Its independent
    oracles are ``tests/oracles.py`` ``fb_axis_fft``, ``fb_axis_quadpack`` and
    ``fb_axis_vacuum_overlap``."""
    return fb_coupling_matrix(fb_axis(n_grid, ch))


# --------------------------------------------------------------------------
# Capacity bound
# --------------------------------------------------------------------------

# Order budget of the LG capacity series.
_CAPACITY_ORDERS = 200000


def qkd_capacity(etas: Iterable[float], nu: float) -> float:
    """Secret-key capacity bound -nu * sum log2(1 - eta) over parallel modes."""
    if nu <= 0:
        raise ValueError(f"pulse rate must be > 0, got {nu}")
    total = 0.0
    for eta in etas:
        if not 0.0 <= eta < 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1), got {eta}")
        total -= math.log2(1.0 - eta)
    return nu * total


def lg_vacuum_capacity(ch: DerivedChannel, nu: float) -> float:
    """Capacity bound over the full vacuum LG spectrum with order degeneracy.

    Sums -q * log2(1 - base^q) until the remaining geometric tail is below
    1e-16 of the accumulated value.  Near-field links (large D_f, base
    close to 1) that need more than 200000 orders raise
    :class:`RuntimeError` rather than return a truncated sum.
    """
    if nu <= 0:
        raise ValueError(f"pulse rate must be > 0, got {nu}")
    base = _eta_base(ch.fresnel_product)
    if base == 0.0:
        return 0.0
    total = 0.0
    for q in range(1, _CAPACITY_ORDERS + 1):
        total -= q * math.log2(1.0 - base ** q)
        # Remaining tail is below sum_{j>q} j base^j / ln 2.
        tail = base ** (q + 1) * (q + 1 + base) / ((1 - base) ** 2 * math.log(2))
        if tail < 1e-16 * total:
            return nu * total
    raise RuntimeError(
        f"lg_vacuum_capacity: the sum over LG orders did not converge within "
        f"{_CAPACITY_ORDERS} orders at D_f = {ch.fresnel_product:.6g}"
    )
