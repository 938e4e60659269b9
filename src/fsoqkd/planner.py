"""Power allocation and configuration search for multimode QKD links.

Each transmitted mode carries its own decoy-state BB84 stream; cross-talk
from the other modes raises that mode's background click rate.  The total
key rate is therefore a nonconvex function of the vector of per-mode mean
photon numbers, maximized here by coordinate ascent over symmetry classes
of modes with a golden-section line search, restarted from a few spread
initial points.  The objective is evaluated in class space: one value per
class, with cross-talk aggregated by source class.

The envelope operations additionally maximize over the mode-set
configuration itself: the focused-beam grid size N, or the LG order cap Q
against the single-beam power-in-bucket fallback.  Both build their
matrices with the turbulent builders at every cn2, vacuum included, and
run one rule, :func:`_envelope`: optimize every candidate configuration in
one lockstep ascent and keep the first best beyond roundoff, so ties go to
the smaller configuration and the fallback, the last LG candidate, wins
only when better by more than ``_TIE_REL_TOL`` relative.
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
from .vacuum import CouplingMatrix, FBPixel, LGMode, ModeId, lg_vacuum_capacity
# Unused here; the benchmark tracer wraps fsoqkd.planner.<name> by name.
from .vacuum import fb_vacuum_matrix, lg_vacuum_matrix  # noqa: F401

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
        if not 0.0 <= self.total_rate_bps < math.inf:
            raise ValueError(f"total rate must be finite and >= 0, got {self.total_rate_bps}")


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


def _class_space(
    problems: Sequence[Tuple[CouplingMatrix, Tuple[Tuple[int, ...], ...]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rate objective of each ``(matrix, classes)`` problem in class space.

    Returns ``(coupling, eta_diag, cls)`` of shapes (B, K, n), (B, n) and
    (B, n), padded to the largest class count K and mode count n.
    ``coupling[b, j, i]`` sums eta[i', i] over the modes i' != i of class j
    (the diagonal is zeroed first, so a mode's own power is left out
    exactly, not subtracted); with one value v[j] per class, mode i's
    cross-talk is ``(v @ coupling[b])[i]`` for any matrix.  ``cls`` maps
    each mode to its class.  A padded mode has zero transmissivity and no
    cross-talk, so its rate is exactly 0; a padded class couples into
    nothing.
    """
    n_modes = max(len(matrix.modes) for matrix, _ in problems)
    n_classes = max(len(orbits) for _, orbits in problems)
    coupling = np.zeros((len(problems), n_classes, n_modes))
    eta_diag = np.zeros((len(problems), n_modes))
    cls = np.zeros((len(problems), n_modes), dtype=int)
    for b, (matrix, orbits) in enumerate(problems):
        size = len(matrix.modes)
        off = matrix.eta.copy()
        np.fill_diagonal(off, 0.0)
        eta_diag[b, :size] = np.diag(matrix.eta)
        for j, orbit in enumerate(orbits):
            coupling[b, j, :size] = off[list(orbit)].sum(axis=0)
            cls[b, list(orbit)] = j
    return coupling, eta_diag, cls


def _class_totals(
    v: np.ndarray, problem: Tuple[np.ndarray, ...], params: QkdSystemParams
) -> np.ndarray:
    """Total key rates, bits/s, of the class values ``v`` (r, K), row s on
    row s of each array of ``problem`` (see :func:`_class_space`).  Every
    mode's rate is evaluated and summed."""
    coupling, eta_diag, cls = problem
    # Each row is multiplied as its own (1, K) matrix: a stacked (r, K)
    # GEMM may sum in another order, and a row's total must not depend on
    # how many rows share the call.
    cross = (v[:, None, :] @ coupling)[:, 0, :]
    mu = v[np.arange(len(v))[:, None], cls]
    return np.sum(params.pulse_rate * rate_per_pulse(eta_diag, mu, cross, params), axis=1)


def total_rate(
    alloc: PowerAllocation, matrix: CouplingMatrix, params: QkdSystemParams
) -> float:
    """Total key rate of an allocation over all modes, bits/s."""
    if alloc.modes != matrix.modes:
        raise ValueError("allocation and matrix cover different mode lists")
    v = alloc.mu[[orbit[0] for orbit in alloc.orbits]]
    return float(_class_totals(v[None], _class_space([(matrix, alloc.orbits)]), params)[0])


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


def _optimize(
    candidates: Sequence[Tuple[Optional[str], Optional[int], CouplingMatrix]],
    params: QkdSystemParams,
    opts: Optional[OptimizerOptions],
) -> List[Tuple[PowerAllocation, float]]:
    """Optimize the allocation of every ``(mode_set, config, matrix)``
    candidate in one lockstep ascent; returns each candidate's best
    allocation and total rate, in order.

    Every candidate gets the starts, sweep rule and tie rules of
    :func:`optimize_allocation`.  Its starts are rows of one array of
    class values, padded to the largest class count, and each row takes
    exactly the steps it would take alone: the line search of class k runs
    on the live rows of candidates with more than k classes.  A
    one-class candidate has no corner start; that row starts at -inf, so
    it never runs or wins.
    """
    opts = opts or OptimizerOptions()
    orbits = [orbit_classes(matrix.modes) for _, _, matrix in candidates]
    problem = _class_space([(matrix, orb) for (_, _, matrix), orb in zip(candidates, orbits)])
    counts = np.array([len(orb) for orb in orbits])
    n_cand, n_cls = len(candidates), counts.max()
    own_class = np.arange(n_cls) < counts[:, None]

    def objective(cand: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        rows = tuple(x[cand] for x in problem)
        return lambda v: _class_totals(v, rows, params)

    def bracket(rows: int) -> Tuple[np.ndarray, np.ndarray]:
        return np.full(rows, opts.mu_min), np.full(rows, opts.mu_max)

    lead_eta = np.concatenate(
        [np.diag(m.eta)[[o[0] for o in orb]] for (_, _, m), orb in zip(candidates, orbits)]
    )
    single_k, _ = _golden_max(
        lambda x: rate_per_pulse(lead_eta, x, 0.0, params),
        *bracket(len(lead_eta)),
        opts.line_tol,
    )
    single = np.full((n_cand, n_cls), opts.mu_min)
    single[own_class] = single_k
    # Corners: one class lit at its single-mode optimum, the rest floored.
    corner_cand, corner_k = np.nonzero(own_class & (counts > 1)[:, None])
    corners = np.where(np.arange(n_cls) == corner_k[:, None], single[corner_cand], opts.mu_min)
    corner_val = objective(corner_cand)(corners)

    start = np.empty((n_cand, len(_START_NAMES), n_cls))
    start[:, 0], start[:, 1], start[:, 2], start[:, 3] = 0.05, 0.5, single, opts.mu_min
    for b in np.flatnonzero(counts > 1):
        own = np.flatnonzero(corner_cand == b)
        start[b, 3] = corners[own[np.argmax(corner_val[own])]]
    n_starts = np.where(counts > 1, len(_START_NAMES), len(_START_NAMES) - 1)
    has_start = (np.arange(len(_START_NAMES)) < n_starts[:, None]).ravel()
    cand = np.repeat(np.arange(n_cand), len(_START_NAMES))

    v = np.clip(start.reshape(-1, n_cls), opts.mu_min, opts.mu_max)
    current = np.where(has_start, objective(cand)(v), -np.inf)
    sweeps = np.zeros(len(v), dtype=int)
    before = current.copy()
    active = has_start.copy()
    for _ in range(opts.max_sweeps):
        rows = np.flatnonzero(active)
        before[rows] = current[rows]
        for k in range(n_cls):
            step = rows[counts[cand[rows]] > k]
            if not step.size:
                break
            total = objective(cand[step])
            trial = v[step]

            def line(x: np.ndarray) -> np.ndarray:
                trial[:, k] = x
                return total(trial)

            x_star, val = _golden_max(line, *bracket(len(step)), opts.line_tol)
            better = val >= current[step]
            v[step[better], k] = x_star[better]
            current[step[better]] = val[better]
        sweeps[rows] += 1
        gain = current[rows] - before[rows]
        active[rows[gain <= opts.rel_tol * np.maximum(np.abs(before[rows]), 1e-300)]] = False
        if not active.any():
            break

    results = []
    cls = problem[2]
    for b, ((mode_set, config, matrix), orb) in enumerate(zip(candidates, orbits)):
        first = b * len(_START_NAMES)
        own = np.arange(first, first + n_starts[b])
        for s in own[active[own]]:
            base = float(before[s])
            log.warning(
                "optimize_allocation: mode set %r, config %r: start %r used all %d "
                "sweeps on %d modes without meeting rel_tol %g (last relative gain %.3g)",
                mode_set, config, _START_NAMES[s - first], sweeps[s], len(matrix.modes),
                opts.rel_tol, (float(current[s]) - base) / max(abs(base), 1e-300),
            )
        best = own[np.argmax(current[own])]
        log.debug(
            "optimize_allocation: mode set %r, config %r: %d modes in %d classes, "
            "sweeps per start %s, winning start %r",
            mode_set, config, len(matrix.modes), counts[b], sweeps[own].tolist(),
            _START_NAMES[best - first],
        )
        alloc = PowerAllocation(
            modes=matrix.modes,
            mu=v[best][cls[b, : len(matrix.modes)]],
            orbits=orb,
            pulse_rate=params.pulse_rate,
        )
        results.append((alloc, float(current[best])))
    return results


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
    class lit, the rest floored; the first of tied corners), so heavy
    cross-talk cases where shutting modes down is optimal are always
    reachable.  Ties go to the earliest start in that order.  The starts
    run in lockstep as the rows of one array, each taking the steps it
    would take alone; the envelopes run every configuration's starts in
    the same array.  The problem is nonconvex, so this is a heuristic; it
    is validated against small brute-force grids.

    A start that uses all ``max_sweeps`` without meeting ``rel_tol`` is
    logged as a warning on the ``fsoqkd.planner`` logger.
    """
    return _optimize([(None, None, matrix)], params, opts)[0]


# --------------------------------------------------------------------------
# Configuration envelopes
# --------------------------------------------------------------------------


# Relative margin by which a later envelope candidate must beat the best.
# Two builders of one vacuum beam (LG Q = 1 and the power-in-bucket) differ
# by ~1e-15 relative; the optimizer's rel_tol is 1e6 times coarser.
_TIE_REL_TOL = 1e-12


def _envelope(
    candidates: Iterable[Tuple[str, Optional[int], CouplingMatrix]],
    params: QkdSystemParams,
    opts: Optional[OptimizerOptions],
) -> RatePoint:
    """Best optimized operating point over ``(mode_set, config, matrix)``
    candidates, all optimized in one lockstep ascent; a later candidate
    replaces the best only when higher by more than ``_TIE_REL_TOL``
    relative, so ties, roundoff ties included, go to the earliest.  A
    winner that is the last sized candidate (the N or Q budget cap) is
    logged as a warning: a larger cap may do better."""
    candidates = list(candidates)
    results = _optimize(candidates, params, opts)
    best = 0
    for i, (_, rate) in enumerate(results):
        if rate > results[best][1] * (1.0 + _TIE_REL_TOL):
            best = i
    mode_set, config, _ = candidates[best]
    if config is not None and all(later[1] is None for later in candidates[best + 1 :]):
        log.warning(
            "envelope: mode set %r wins at its budget cap, config %d; "
            "a larger cap may give a higher rate",
            mode_set, config,
        )
    alloc, rate = results[best]
    return RatePoint(mode_set=mode_set, config=config, total_rate_bps=rate, allocation=alloc)


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
    candidates = (("fb", n_grid, fb_turb_matrix(n_grid, ch)) for n_grid in range(1, n_max + 1))
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
    full = lg_turb_matrix(q_max, ch)

    def candidates():
        for q in range(1, q_max + 1):
            k = q * (q + 1) // 2
            yield "lg", q, CouplingMatrix(modes=full.modes[:k], eta=full.eta[:k, :k])
        pib = np.array([[gaussian_pib_turb(ch)]])
        yield "gaussian-pib", None, CouplingMatrix(modes=(LGMode(p=0, l=0),), eta=pib)

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
