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

:func:`orbit_classes` partitions either set into the symmetry classes
under which its coupling matrices are invariant up to roundoff, and
:func:`class_sums` lays a matrix out by those classes, one entry per group
of modes that match within that roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .channel import DerivedChannel, HardSquare, SoftGaussian
from .numerics import integrate_1d, lg_modes_of_order

__all__ = [
    "LGMode",
    "FBPixel",
    "ModeId",
    "CouplingMatrix",
    "mode_label",
    "orbit_classes",
    "class_index",
    "class_sums",
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


def orbit_classes(modes: Sequence[ModeId]) -> Tuple[Tuple[int, ...], ...]:
    """Partition modes into classes sharing one power level.

    FB pixels are grouped by the dihedral symmetry of the square grid
    (corner, edge, interior, ... classes), keyed by the sorted pair of
    their distances to the nearest grid edge in each axis; LG modes by
    (order, |l|).  The builders' coupling matrices are invariant under these
    groups up to roundoff, so an optimal allocation may be sought within
    the constrained set.  Over N, Q = 1..8, 50 m to 100 km and cn2 0 to
    1e-12, the in-class spreads relative to the largest entry are: FB
    diagonals none, FB class-summed couplings up to 17 eps (from the order
    of the sums), LG diagonals up to 3 eps and LG couplings up to 1.5 eps.
    :func:`class_sums` checks each matrix, mode by mode, rather than
    assuming it.  Classes are listed by their first mode.
    """
    classes: Dict[object, List[int]] = {}
    for i, mode in enumerate(modes):
        if isinstance(mode, FBPixel):
            edge = (min(mode.n - 1, mode.grid - mode.n), min(mode.m - 1, mode.grid - mode.m))
            key: object = ("fb", min(edge), max(edge))
        elif isinstance(mode, LGMode):
            key = ("lg", mode.order, abs(mode.l))
        else:
            raise TypeError(f"no symmetry class defined for {mode!r}")
        classes.setdefault(key, []).append(i)
    return tuple(tuple(v) for v in classes.values())


def class_index(classes: Sequence[Sequence[int]]) -> np.ndarray:
    """Each mode's class number under the partition ``classes``."""
    index = np.empty(sum(map(len, classes)), dtype=int)
    index[np.concatenate(classes)] = np.repeat(np.arange(len(classes)), list(map(len, classes)))
    return index


# Modes match within _MATCH_TOL x n x max|eta| for n modes.  A class-summed
# coupling adds fewer than n entries of at most max|eta| each, in an order
# that differs from mode to mode, so mirrored modes' sums differ by roundoff
# that grows with n: the measured worst is 0.8 n eps (FB N = 4), and 4 eps
# leaves room.  At n = 64 the tolerance is 5.7e-14 x max|eta|, still 1e4
# times below a 1e-9 asymmetry.  A mode counted as its lead moves its own
# rate by at most the rate's slope times this tolerance.
_MATCH_TOL = 4.0 * np.finfo(float).eps


def class_sums(matrix: CouplingMatrix, classes: Sequence[Sequence[int]]) -> Tuple[np.ndarray, ...]:
    """The couplings of ``matrix`` summed by source class, one entry per
    group of matching modes.

    Mode i has class cls[i], transmissivity eta[i, i] and a row of
    class-summed couplings: column j sums eta[i', i] over the modes i' != i
    of class j, in mode order (the diagonal is zeroed first, so a mode's own
    power is left out exactly, not subtracted).  A mode joins its class's
    lead, the class's first listed mode, when its transmissivity and every
    coupling equal the lead's within ``_MATCH_TOL`` x n x max|eta|; every
    other mode stays apart.  Returns ``(cls, eta, coupling, weight)``, one
    entry per lead or mode apart, in mode order, ``weight`` the number of
    modes each stands for.  A group's modes get the same rate at any class
    values, up to that tolerance, so a sum over modes is the sum over
    entries of weight x rate; when nothing merges every weight is 1.  A
    one-mode matrix skips the test.
    """
    n = len(matrix.modes)
    eta = np.diag(matrix.eta)
    if n == 1:
        return np.zeros(1, dtype=int), eta, np.zeros((1, 1)), np.ones(1)
    cls = class_index(classes)
    coupling = np.zeros((len(classes), n))
    off = matrix.eta.copy()
    np.fill_diagonal(off, 0.0)
    # Row i' of off adds into its class's row in mode order, as a sum would.
    np.add.at(coupling, cls, off)
    coupling = coupling.T
    lead = np.array([c[0] for c in classes])[cls]
    tol = _MATCH_TOL * n * matrix.eta.max()
    same = np.abs(coupling - coupling[lead]).max(axis=1) <= tol
    into = np.where(same & (np.abs(eta - eta[lead]) <= tol), lead, np.arange(n))
    keep = into == np.arange(n)
    return cls[keep], eta[keep], coupling[keep], np.bincount(into, minlength=n)[keep].astype(float)


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
    number without the small-D_f cancellation, and exactly 0.0 at D_f = 0.
    """
    df = fresnel_product
    if df < 0:
        raise ValueError(f"Fresnel number product must be >= 0, got {df}")
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
        raise ValueError("LG modes require soft Gaussian pupils")
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


def fb_coupling_matrix(axis: np.ndarray) -> Union[CouplingMatrix, List[CouplingMatrix]]:
    """Coupling matrix of the N x N focused-beam set from its per-axis factors.

    ``axis[d]`` is the per-axis coupling for pixel-index difference d = 0..N-1.
    The 2-D coupling is the product of the x and y factors, so over the
    row-major pixel list the matrix is the Kronecker square of the
    symmetric Toeplitz matrix T[i, j] = axis[|i - j|].  A (P, N) array of
    factors gives a list of P matrices over one shared pixel tuple.
    """
    rows = np.atleast_2d(axis)
    idx = np.arange(rows.shape[1])
    modes = fb_pixel_grid(len(idx))
    matrices = [
        CouplingMatrix(modes=modes, eta=np.kron(toeplitz, toeplitz))
        for toeplitz in rows[:, np.abs(idx[:, None] - idx[None, :])]
    ]
    return matrices[0] if np.ndim(axis) == 1 else matrices


def fb_axis(
    n_grid: int, ch: Union[DerivedChannel, Sequence[DerivedChannel]]
) -> np.ndarray:
    """Per-axis focused-beam coupling factors for index differences d = 0..N-1.

    I(d) = 2c * integral_0^1 (1 - xi) sinc(c xi) exp(-g xi^2) cos(2 pi c xi d) dxi,

    with c = sqrt(D_f) / N and sinc(x) = sin(pi x) / (pi x): the pixel
    autocorrelation of the far-field pattern of a hard square pupil of
    side s, damped by square-law turbulence with g = (s / rho_0)^2 / 2.
    Vacuum's rho_0 = inf makes g = 0.0 exactly: I(d) is then the overlap
    of the sinc^2 pattern with pixel d.  The quadrature runs over [0,
    min(1, sqrt(60 / g))]: past sqrt(60 / g) the damping is below e^-60,
    and a row with g <= 60, vacuum included, keeps [0, 1] and its bits.  A
    sequence of channels gives a (P, N) array from one quadrature call,
    each row the same bit for bit as its channel alone.
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

    end = np.sqrt(60.0 / np.maximum(damp, 60.0))
    overlap = integrate_1d(integrand, np.zeros(c.size), end, rel_tol=1e-12)
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
    """Secret-key capacity bound -nu * sum log2(1 - eta), by log1p, over modes."""
    if nu <= 0:
        raise ValueError(f"pulse rate must be > 0, got {nu}")
    total = 0.0
    for eta in etas:
        if not 0.0 <= eta < 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1), got {eta}")
        total -= math.log1p(-eta) / math.log(2)
    return nu * total


def lg_vacuum_capacity(ch: DerivedChannel, nu: float) -> float:
    """Capacity bound over the full vacuum LG spectrum with order degeneracy.

    Sums -q * log2(1 - base^q), by log1p, until the remaining geometric
    tail is below 1e-16 of the accumulated value.  Near-field links (large
    D_f, base close to 1) that need more than 200000 orders raise
    :class:`RuntimeError` rather than return a truncated sum.
    """
    if nu <= 0:
        raise ValueError(f"pulse rate must be > 0, got {nu}")
    base = _eta_base(ch.fresnel_product)
    if base == 0.0:
        return 0.0
    total = 0.0
    for q in range(1, _CAPACITY_ORDERS + 1):
        total -= q * math.log1p(-base ** q) / math.log(2)
        # Remaining tail is below sum_{j>q} j base^j / ln 2.
        tail = base ** (q + 1) * (q + 1 + base) / ((1 - base) ** 2 * math.log(2))
        if tail < 1e-16 * total:
            return nu * total
    raise RuntimeError(
        f"lg_vacuum_capacity: the sum over LG orders did not converge within "
        f"{_CAPACITY_ORDERS} orders at D_f = {ch.fresnel_product:.6g}"
    )
