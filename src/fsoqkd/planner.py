"""Power allocation and configuration search for multimode QKD links.

Each transmitted mode carries its own decoy-state BB84 stream; cross-talk
from the other modes raises that mode's background click rate.  The total
key rate is therefore a nonconvex function of the vector of per-mode mean
photon numbers, maximized here by coordinate ascent over symmetry classes
of modes with a golden-section line search, restarted from a few spread
initial points.

The envelope operations additionally maximize over the mode-set
configuration itself: the focused-beam grid size N, or the LG order cap Q
against the single-beam power-in-bucket fallback.  Both run one rule,
:func:`_envelope`: optimize each candidate configuration in turn and keep
the first strictly best, so ties go to the smaller configuration and the
fallback, the last LG candidate, wins only when strictly better.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    ChannelConfig,
    DerivedChannel,
    HardSquare,
    SoftGaussian,
    derive,
)
from .qkd import QkdSystemParams, rate_per_pulse
from .turbulence import fb_turb_matrix, gaussian_pib_turb, lg_turb_matrix
from .vacuum import (
    CouplingMatrix,
    FBPixel,
    LGMode,
    ModeId,
    fb_vacuum_matrix,
    lg_vacuum_capacity,
    lg_vacuum_matrix,
)

log = logging.getLogger(__name__)

__all__ = [
    "OptimizerOptions",
    "PowerAllocation",
    "RatePoint",
    "ScanRow",
    "orbit_classes",
    "total_rate",
    "optimize_allocation",
    "fb_envelope",
    "lg_envelope",
    "scan",
]


@dataclass(frozen=True)
class OptimizerOptions:
    """Coordinate-ascent controls for the power allocation search.

    ``mu_min``/``mu_max`` bound each mode's mean photon number; decoy-state
    optima sit below 1, so the 1.5 ceiling leaves headroom while the floor
    keeps logarithms finite.  A sweep updates every symmetry class once;
    ascent stops when a full sweep improves the total rate by less than
    ``rel_tol`` relative, or after ``max_sweeps``.
    """

    mu_min: float = 1e-6
    mu_max: float = 1.5
    rel_tol: float = 1e-6
    max_sweeps: int = 100
    line_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("mu_min", "mu_max", "rel_tol", "line_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.mu_min < self.mu_max:
            raise ValueError("need 0 < mu_min < mu_max")
        if self.rel_tol <= 0.0 or self.line_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_sweeps < 1:
            raise ValueError("need at least one sweep")


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Mean photon numbers per mode, constant on each symmetry class.

    ``orbits`` lists the index classes; every mode inside one class shares
    one value.  Transmit power on mode q is pulse_rate * mu[q] photons/s.
    """

    modes: Tuple[ModeId, ...]
    mu: np.ndarray
    orbits: Tuple[Tuple[int, ...], ...]
    pulse_rate: float

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (len(self.modes),):
            raise ValueError("one mean photon number per mode required")
        if np.any(~np.isfinite(mu)) or np.any(mu < 0.0):
            raise ValueError("mean photon numbers must be finite and >= 0")
        covered = sorted(i for orbit in self.orbits for i in orbit)
        if covered != list(range(len(self.modes))):
            raise ValueError("orbits must partition the mode list")
        for orbit in self.orbits:
            vals = mu[list(orbit)]
            if np.any(vals != vals[0]):
                raise ValueError("modes in one orbit must share a value")
        object.__setattr__(self, "mu", mu)

    def transmit_power(self) -> np.ndarray:
        """Per-mode transmitted power in photons/s."""
        return self.pulse_rate * self.mu


@dataclass(frozen=True, eq=False)
class RatePoint:
    """One optimized operating point of the link."""

    mode_set: str
    config: Optional[int]
    total_rate_bps: float
    allocation: PowerAllocation

    def __post_init__(self) -> None:
        if self.total_rate_bps < 0.0:
            raise ValueError("total rate must be >= 0")


@dataclass(frozen=True, eq=False)
class ScanRow:
    """One link's envelope point and LG capacity bound (None on flat-top
    links); each is None where its own computation failed, named in ``error``."""

    point: Optional[RatePoint]
    capacity_bps: Optional[float]
    error: Optional[str]


# --------------------------------------------------------------------------
# Symmetry classes
# --------------------------------------------------------------------------


def orbit_classes(modes: Sequence[ModeId]) -> Tuple[Tuple[int, ...], ...]:
    """Partition modes into classes sharing one power level.

    FB pixels are grouped by the dihedral symmetry of the square grid
    (corner, edge, interior, ... classes), keyed by the sorted pair of
    their distances to the nearest grid edge in each axis; LG modes by
    (order, |l|).  The coupling matrices are exactly invariant under these
    groups, so an optimal allocation may be sought within the constrained
    set.  Classes are listed by their first mode.
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


# --------------------------------------------------------------------------
# Rates of an allocation
# --------------------------------------------------------------------------


def _rates_per_mode(
    mu: np.ndarray, matrix: CouplingMatrix, params: QkdSystemParams
) -> np.ndarray:
    """Per-mode key rates, bits/s, of allocations ``mu`` of shape (..., n)."""
    eta_diag = np.diag(matrix.eta)
    # Each allocation is multiplied as its own (1, n) matrix: a stacked
    # (S, n) GEMM may sum in another order, and a row's cross-talk must not
    # depend on how many rows share the call.
    mu_cross = (mu[..., None, :] @ matrix.eta)[..., 0, :] - mu * eta_diag
    return params.pulse_rate * rate_per_pulse(eta_diag, mu, mu_cross, params)


def total_rate(
    alloc: PowerAllocation, matrix: CouplingMatrix, params: QkdSystemParams
) -> float:
    """Total key rate of an allocation over all modes, bits/s."""
    if alloc.modes != matrix.modes:
        raise ValueError("allocation and matrix cover different mode lists")
    return float(np.sum(_rates_per_mode(alloc.mu, matrix, params)))


# --------------------------------------------------------------------------
# Coordinate ascent
# --------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_START_NAMES = ("uniform 0.05", "uniform 0.5", "single-mode optima", "best corner")


def _golden_max(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Golden-section maximizers of S scalar functions, run in lockstep.

    Row s searches [lo[s], hi[s]]; ``f`` maps one (S,) vector of
    candidates, one per row, to their (S,) values.  Each row takes exactly
    the steps a scalar golden-section search takes on its own function and
    stops changing once its bracket is <= ``tol``.  Returns the (S,)
    bracket midpoints and their values.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    live = b - a > tol
    while live.any():
        keep_left = fc >= fd
        left = live & keep_left
        right = live & ~keep_left
        a, b, c, d, fc, fd = (
            np.where(right, c, a),
            np.where(left, d, b),
            np.where(right, d, c),
            np.where(left, c, d),
            np.where(right, fd, fc),
            np.where(left, fc, fd),
        )
        probe = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        value = f(probe)
        c, fc = np.where(left, probe, c), np.where(left, value, fc)
        d, fd = np.where(right, probe, d), np.where(right, value, fd)
        live = b - a > tol
    x = 0.5 * (a + b)
    return x, f(x)


def optimize_allocation(
    matrix: CouplingMatrix,
    params: QkdSystemParams,
    opts: Optional[OptimizerOptions] = None,
) -> Tuple[PowerAllocation, float]:
    """Maximize the total rate over per-class mean photon numbers.

    Coordinate ascent: each symmetry class's shared value is line-searched
    by golden section on [mu_min, mu_max] with the rest held fixed, and
    sweeps repeat until a full sweep gains less than ``rel_tol`` relative
    (or ``max_sweeps``).  The best of several starts is returned: uniform
    mu = 0.05, uniform mu = 0.5, every class at its own single-mode
    optimum (cross-talk ignored), and the best single-active corner (one
    class lit, the rest floored), so heavy cross-talk cases where
    shutting modes down is optimal are always reachable.  Ties go to the
    earliest start in that order.  The starts run in lockstep as the rows
    of one array, each taking the steps it would take alone.  The problem
    is nonconvex, so this is a heuristic; it is validated against small
    brute-force grids.

    A start that uses all ``max_sweeps`` without meeting ``rel_tol`` is
    logged as a warning on the ``fsoqkd.planner`` logger.
    """
    opts = opts or OptimizerOptions()
    orbits = orbit_classes(matrix.modes)
    n_classes = len(orbits)
    eta_diag = np.diag(matrix.eta)
    cls = np.empty(len(matrix.modes), dtype=int)
    for k, orbit in enumerate(orbits):
        cls[list(orbit)] = k

    def bracket(rows: int) -> Tuple[np.ndarray, np.ndarray]:
        return np.full(rows, opts.mu_min), np.full(rows, opts.mu_max)

    def total(mu: np.ndarray) -> np.ndarray:
        return np.sum(_rates_per_mode(mu, matrix, params), axis=-1)

    lead_eta = eta_diag[[orbit[0] for orbit in orbits]]
    single_k, _ = _golden_max(
        lambda v: rate_per_pulse(lead_eta, v, 0.0, params),
        *bracket(n_classes),
        opts.line_tol,
    )
    single = single_k[cls]
    starts = [
        np.full(len(matrix.modes), 0.05),
        np.full(len(matrix.modes), 0.5),
        single,
    ]
    if n_classes > 1:
        corners = np.where(cls == np.arange(n_classes)[:, None], single, opts.mu_min)
        starts.append(corners[np.argmax(total(corners))])

    mu = np.clip(np.array(starts), opts.mu_min, opts.mu_max)
    current = total(mu)
    sweeps = np.zeros(len(mu), dtype=int)
    before = current.copy()
    active = np.ones(len(mu), dtype=bool)
    for _ in range(opts.max_sweeps):
        rows = np.flatnonzero(active)
        before[rows] = current[rows]
        for orbit in orbits:
            idx = list(orbit)
            trial = mu[rows]

            def line(v: np.ndarray) -> np.ndarray:
                trial[:, idx] = v[:, None]
                return total(trial)

            v_star, val = _golden_max(line, *bracket(len(rows)), opts.line_tol)
            better = val >= current[rows]
            mu[np.ix_(rows[better], idx)] = v_star[better, None]
            current[rows[better]] = val[better]
        sweeps[rows] += 1
        gain = current[rows] - before[rows]
        active[rows[gain <= opts.rel_tol * np.maximum(np.abs(before[rows]), 1e-300)]] = False
        if not active.any():
            break
    for s in np.flatnonzero(active):
        base = float(before[s])
        log.warning(
            "optimize_allocation: start %r used all %d sweeps on %d modes "
            "without meeting rel_tol %g (last relative gain %.3g)",
            _START_NAMES[s], sweeps[s], len(matrix.modes), opts.rel_tol,
            (float(current[s]) - base) / max(abs(base), 1e-300),
        )
    best = int(np.argmax(current))
    log.debug(
        "optimize_allocation: %d modes in %d classes, sweeps per start %s, "
        "winning start %r",
        len(matrix.modes), n_classes, sweeps.tolist(), _START_NAMES[best],
    )
    alloc = PowerAllocation(
        modes=matrix.modes, mu=mu[best], orbits=orbits, pulse_rate=params.pulse_rate
    )
    return alloc, float(current[best])


# --------------------------------------------------------------------------
# Configuration envelopes
# --------------------------------------------------------------------------


def _envelope(
    candidates: Iterable[Tuple[str, Optional[int], CouplingMatrix]],
    params: QkdSystemParams,
    opts: Optional[OptimizerOptions],
) -> RatePoint:
    """Best optimized operating point over ``(mode_set, config, matrix)``
    candidates; a later candidate replaces the best only when strictly
    better, so ties go to the earliest."""
    best: Optional[RatePoint] = None
    for mode_set, config, matrix in candidates:
        alloc, rate = optimize_allocation(matrix, params, opts)
        if best is None or rate > best.total_rate_bps:
            best = RatePoint(
                mode_set=mode_set, config=config, total_rate_bps=rate, allocation=alloc
            )
    assert best is not None, "an envelope has at least one candidate"
    return best


def fb_envelope(
    ch: DerivedChannel,
    params: QkdSystemParams,
    n_max: int = 8,
    opts: Optional[OptimizerOptions] = None,
) -> RatePoint:
    """Best focused-beam operating point over grid sizes N = 1..n_max."""
    if not isinstance(ch.pupil, HardSquare):
        raise ValueError("focused-beam envelope requires hard square pupils")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    matrix = fb_vacuum_matrix if ch.cn2 == 0.0 else fb_turb_matrix
    candidates = (("fb", n_grid, matrix(n_grid, ch)) for n_grid in range(1, n_max + 1))
    return _envelope(candidates, params, opts)


def lg_envelope(
    ch: DerivedChannel,
    params: QkdSystemParams,
    q_max: int = 8,
    opts: Optional[OptimizerOptions] = None,
) -> RatePoint:
    """Best LG operating point: mode-sorted order caps Q <= q_max, or the
    single-beam power-in-bucket fallback when mode sorting only adds
    cross-talk (deep far field under strong turbulence)."""
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("LG envelope requires soft Gaussian pupils")
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    full = (lg_vacuum_matrix if ch.cn2 == 0.0 else lg_turb_matrix)(q_max, ch)

    def candidates():
        for q in range(1, q_max + 1):
            k = q * (q + 1) // 2
            yield "lg", q, CouplingMatrix(
                modes=full.modes[:k], eta=full.eta[:k, :k], provenance=full.provenance
            )
        pib = np.array([[gaussian_pib_turb(ch)]])
        yield "gaussian-pib", None, CouplingMatrix(
            modes=(LGMode(p=0, l=0),), eta=pib, provenance=full.provenance
        )

    return _envelope(candidates(), params, opts)


# --------------------------------------------------------------------------
# Scans
# --------------------------------------------------------------------------


def scan(
    link: ChannelConfig,
    params: QkdSystemParams,
    n_max: int = 8,
    q_max: int = 8,
    opts: Optional[OptimizerOptions] = None,
) -> ScanRow:
    """Optimize one link; its pupil chooses the mode family.

    A :class:`HardSquare` link runs :func:`fb_envelope`.  A
    :class:`SoftGaussian` link runs :func:`lg_envelope` and also carries
    the lossy channel capacity bound C = -nu * sum_q log2(1 - eta_q) on the
    vacuum LG transmissivities: turbulence with a passive receiver cannot
    beat the pure-loss bound, so the vacuum figure is the binding one at
    every cn2.  It depends on the channel only through the Fresnel
    product, so the link's own channel serves at any cn2.  The rate and
    the bound are computed independently: a failure of one (a
    :class:`RuntimeError` such as a :class:`QuadratureError`, or a
    :class:`ValueError`) leaves that field None and is named in
    ``error``; any other exception propagates.
    """
    ch = derive(link)
    errors: List[str] = []

    def attempt(compute: Callable[[], object]):
        try:
            return compute()
        except (RuntimeError, ValueError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            return None

    capacity = None
    if isinstance(link.pupil, HardSquare):
        point = attempt(lambda: fb_envelope(ch, params, n_max, opts))
    else:
        capacity = attempt(lambda: lg_vacuum_capacity(ch, params.pulse_rate))
        point = attempt(lambda: lg_envelope(ch, params, q_max, opts))
    return ScanRow(point=point, capacity_bps=capacity, error="; ".join(errors) or None)
