"""Power allocation and configuration search for multimode QKD links.

Each transmitted mode carries its own decoy-state BB84 stream; cross-talk
from the other modes raises that mode's background click rate.  The total
key rate is therefore a nonconvex function of the vector of per-mode mean
photon numbers, maximized here by coordinate ascent over symmetry classes
of modes, restarted from a few spread initial points.  Each line search
narrows its bracket by value comparisons, which chooses the basin, then
finishes with a secant on the closed-form slope of the total.  The
objective is evaluated in class space: one value per class, with
cross-talk aggregated by source class.  A line search lays out the real
modes of its rows once, and each probe evaluates only the rows still
searching.

The envelope operations additionally maximize over the mode-set
configuration itself: the focused-beam grid size N, or the LG order cap Q
against the single-beam power-in-bucket fallback.  Both build their
matrices with the turbulent builders at every cn2, vacuum included, and
run one rule, :func:`_envelopes`: optimize every candidate configuration
of every link in one lockstep ascent and keep each link's first best
beyond roundoff, so ties go to the smaller configuration and the
fallback, the last LG candidate, wins only when better by more than
``_TIE_REL_TOL`` relative.  The ascent drops a configuration as soon as
its closed-form rate bound (:func:`fsoqkd.qkd.rate_bound`, free of
cross-talk) is below the best total its link has reached, a cut that
changes no winner.  :func:`scan` runs the links of one family through
such ascents in batches.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    ChannelConfig,
    DerivedChannel,
    HardSquare,
    SoftGaussian,
    derive,
)
from .qkd import QkdSystemParams, rate_and_slopes, rate_bound, rate_per_pulse
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
    ``rel_tol`` relative, or after ``max_sweeps``.  ``line_tol`` bounds the
    final bracket of each line search: a class value ends within
    ``line_tol`` of a stationary point of its line, or exactly at
    ``mu_min`` or ``mu_max`` where the slope there points outward.
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
) -> Tuple[np.ndarray, ...]:
    """The rate objective of each ``(matrix, classes)`` problem in class space.

    Returns ``(offset, cls, eta, coupling)``, one entry per real mode,
    problem by problem in mode order: problem b holds entries
    ``offset[b]:offset[b + 1]``, and entry e is a mode of class ``cls[e]``
    with transmissivity ``eta[e]``.  ``coupling[e, j]`` (E, K) sums eta[i',
    i] over the modes i' != i of class j (the diagonal is zeroed first, so
    a mode's own power is left out exactly, not subtracted); only the class
    axis is padded, to the largest class count K, and a padded class
    couples into nothing.
    """
    sizes = [len(matrix.modes) for matrix, _ in problems]
    offset = np.concatenate([[0], np.cumsum(sizes)])
    coupling = np.zeros((offset[-1], max(len(orbits) for _, orbits in problems)))
    cls = np.empty(offset[-1], dtype=int)
    eta = np.empty(offset[-1])
    for b, (matrix, orbits) in enumerate(problems):
        own = slice(offset[b], offset[b + 1])
        off = matrix.eta.copy()
        np.fill_diagonal(off, 0.0)
        eta[own] = np.diag(matrix.eta)
        for j, orbit in enumerate(orbits):
            coupling[own, j] = off[list(orbit)].sum(axis=0)
            cls[own][list(orbit)] = j
    return offset, cls, eta, coupling


def _modes(
    problem: Tuple[np.ndarray, ...], of: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """The real modes of the rows of class values ``v`` (R, K), row r on
    problem ``of[r]`` of ``problem`` (see :func:`_class_space`), one element
    each, row by row in mode order.  Returns each element's row, entry and
    cross-talk, added class by class in order (a NumPy sum may pair terms
    by K): no term depends on another row or on the padding, which adds
    exact zeros last."""
    offset, _, _, coupling = problem
    size = offset[of + 1] - offset[of]
    row = np.repeat(np.arange(len(of)), size)
    entry = np.arange(row.size) + (offset[of] - np.cumsum(size) + size)[row]
    cross = sum(vj[row] * cj[entry] for vj, cj in zip(v.T, coupling.T))
    return row, entry, cross


def _totals(
    problem: Tuple[np.ndarray, ...], of: np.ndarray, v: np.ndarray, params: QkdSystemParams
) -> np.ndarray:
    """Total key rates, bits/s, of the class values ``v`` (R, K), row r on
    problem ``of[r]`` (see :func:`_modes`): every start, corner and
    reported total.  A ``bincount`` adds each row's mode rates in mode
    order."""
    _, cls, eta, _ = problem
    row, entry, cross = _modes(problem, of, v)
    rates = rate_per_pulse(eta[entry], v[row, cls[entry]], cross, params)
    return np.bincount(row, params.pulse_rate * rates, len(of))


def _line(
    problem: Tuple[np.ndarray, ...],
    of: np.ndarray,
    base: np.ndarray,
    k: int,
    params: QkdSystemParams,
) -> Callable[..., object]:
    """The line evaluator of class ``k`` through the class values ``base``
    (R, K), row r on problem ``of[r]``, for :func:`_line_max`.

    The real modes of every row are laid out once (:func:`_modes`), as one
    element each: its row, transmissivity, base mu, whether it is in class
    k, its coupling from class k and its cross-talk from the other classes.
    ``f(rows, x)`` maps the (r, m) values x of class k on the rows ``rows``
    (ascending) to their totals, and ``f(rows, x, True)`` returns
    ``(totals, slopes)``, the slopes d total/d v[k] = pulse_rate * (sum
    over the modes of class k of d rate/d mu + sum over all modes of
    coupling[k] d rate/d mu_c).  A probe costs one multiply-add for the
    cross-talk and the rate kernel on the elements of its rows.  Values and
    slopes are summed per row in mode order, as :func:`_totals` adds them.
    """
    _, cls, eta_all, coupling = problem
    rest = base.copy()
    rest[:, k] = 0.0
    row, entry, other = _modes(problem, of, rest)
    in_k = cls[entry] == k
    # The per-element quantities, one row each, so a probe gathers them in one take.
    table = np.stack([eta_all[entry], base[row, cls[entry]], other, coupling[entry, k]])

    def f(rows: np.ndarray, x: np.ndarray, slopes: bool = False):
        if rows.size == len(of):
            own, lit, (eta, base_mu, other, from_k) = row, in_k, table
        else:
            keep = np.zeros(len(of), dtype=bool)
            keep[rows] = True
            at = np.flatnonzero(keep[row])
            own = (np.cumsum(keep) - 1)[row[at]]
            lit, (eta, base_mu, other, from_k) = in_k[at], table[:, at]
        m = x.shape[1]
        xe = x[own]
        mu = np.where(lit[:, None], xe, base_mu[:, None])
        cross = other[:, None] + xe * from_k[:, None]
        bins = own if m == 1 else (own[:, None] * m + np.arange(m)).ravel()

        def total(per_mode: np.ndarray) -> np.ndarray:
            sums = np.bincount(bins, params.pulse_rate * per_mode.ravel(), x.size)
            return sums.reshape(x.shape)

        if not slopes:
            return total(rate_per_pulse(eta[:, None], mu, cross, params))
        rate, d_mu, d_cross = rate_and_slopes(eta[:, None], mu, cross, params)
        return total(rate), total(np.where(lit[:, None], d_mu, 0.0) + from_k[:, None] * d_cross)

    return f


def total_rate(
    alloc: PowerAllocation, matrix: CouplingMatrix, params: QkdSystemParams
) -> float:
    """Total key rate of an allocation over all modes, bits/s."""
    if alloc.modes != matrix.modes:
        raise ValueError("allocation and matrix cover different mode lists")
    v = alloc.mu[[orbit[0] for orbit in alloc.orbits]]
    problem = _class_space([(matrix, alloc.orbits)])
    return float(_totals(problem, np.array([0]), v[None], params)[0])


# --------------------------------------------------------------------------
# Coordinate ascent
# --------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Golden steps shrink a line search's bracket to this width, choosing its
# basin as a whole golden-section search would; the slope phase finishes.
_COARSE_WIDTH = 0.1

_START_NAMES = ("uniform 0.05", "uniform 0.5", "single-mode optima", "best corner")


def _line_max(
    f: Callable[..., object], lo: np.ndarray, hi: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Maximizers of S scalar functions, run in lockstep.

    Row s searches [lo[s], hi[s]].  ``f(rows, x)`` maps an (r, m) array of
    candidates, m for each of the rows ``rows`` (ascending indices), to
    their (r, m) values, and ``f(rows, x, True)`` returns ``(values,
    slopes)``; a call passes only the rows still searching.  Each row
    takes golden-section steps until its bracket is at most
    ``_COARSE_WIDTH`` (or ``tol``) wide, which chooses its basin.  One call
    then evaluates value and slope at both bracket ends.  A row stops at
    ``lo`` or ``hi`` when the slope there points out of the interval (a
    zero slope points toward the best point evaluated); the others run a
    secant on the slope inside the bracket, bisecting when the secant step
    leaves the bracket or is more than half as long as the last step, and
    probing at least ``tol``/2 inside either end, until the bracket is <=
    ``tol`` wide.  Each row takes exactly the steps a scalar search takes
    on its own function.  Returns each row's best evaluated point, ties
    going to the smaller point, and its value.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    a, b = lo.copy(), hi.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(np.arange(len(a)), np.stack([c, d], axis=1)).T
    best_x, best_f = np.where(fd > fc, d, c), np.maximum(fc, fd)

    def consider(rows: np.ndarray, x: np.ndarray, fx: np.ndarray) -> None:
        top = best_f[rows]
        take = (fx > top) | ((fx == top) & (x < best_x[rows]))
        best_x[rows[take]], best_f[rows[take]] = x[take], fx[take]

    coarse = max(tol, _COARSE_WIDTH)
    # The live rows' brackets [ra, rb], each with its probes c < d; every
    # step keeps the half holding the better probe, and with it that probe.
    go = b - a > coarse
    live, ra, rb, c, d, fc, fd = (v[go] for v in (np.arange(len(a)), a, b, c, d, fc, fd))
    while live.size:
        left = fc >= fd
        ra, rb = np.where(left, ra, c), np.where(left, d, rb)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        probe = np.where(left, rb - _INVPHI * (rb - ra), ra + _INVPHI * (rb - ra))
        value = f(live, probe[:, None])[:, 0]
        consider(live, probe, value)
        c, fc = np.where(left, probe, kept), np.where(left, value, f_kept)
        d, fd = np.where(left, kept, probe), np.where(left, f_kept, value)
        a[live], b[live] = ra, rb
        go = rb - ra > coarse
        live, ra, rb, c, d, fc, fd = (v[go] for v in (live, ra, rb, c, d, fc, fd))

    live = np.flatnonzero(b - a > tol)
    if not live.size:
        return best_x, best_f
    a, b = a[live], b[live]
    ends, slope = f(live, np.stack([a, b], axis=1), True)
    consider(live, a, ends[:, 0])
    consider(live, b, ends[:, 1])
    ga, gb = slope.T

    def rising(rows: np.ndarray, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        # The maximum lies right of x; a zero slope (a clipped, flat
        # stretch) points toward the best point evaluated.
        return (g > 0.0) | ((g == 0.0) & (best_x[rows] > x))

    go = ~(((a == lo[live]) & ~rising(live, a, ga)) | ((b == hi[live]) & rising(live, b, gb)))
    # The secant runs through the last two probes, (x0, g0) then (x1, g1);
    # ``last`` is the length of the last step, x1 - x0.
    state = (live, a, b, a, ga, b, gb, np.full(len(a), np.inf))
    live, a, b, x0, g0, x1, g1, last = (v[go] for v in state)
    while live.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = x1 - g1 * (x1 - x0) / (g1 - g0)
        secant = (s > a) & (s < b) & (np.abs(s - x1) <= 0.5 * last)
        x = np.where(secant, s, 0.5 * (a + b))
        x = np.minimum(np.maximum(x, a + 0.5 * tol), b - 0.5 * tol)
        fx, gx = (out[:, 0] for out in f(live, x[:, None], True))
        consider(live, x, fx)
        up = rising(live, x, gx)
        a, b = np.where(up, x, a), np.where(up, b, x)
        go = b - a > tol
        state = (live, a, b, x1, g1, x, gx, np.abs(x - x1))
        live, a, b, x0, g0, x1, g1, last = (v[go] for v in state)
    return best_x, best_f


# Relative margin on a configuration's rate bound.  The bound is proven
# for exact arithmetic; summed mode rates carry roundoff near 1e-14.
_BOUND_REL_TOL = 1e-9


def _optimize(
    candidates: Sequence[Tuple[Optional[str], Optional[int], CouplingMatrix]],
    params: QkdSystemParams,
    opts: Optional[OptimizerOptions],
    groups: Sequence[int],
) -> List[Optional[Tuple[PowerAllocation, float]]]:
    """Optimize the allocation of every ``(mode_set, config, matrix)``
    candidate in one lockstep ascent; returns each candidate's best
    allocation and total rate, in order, or None for a pruned candidate.

    Every candidate gets the starts, sweep rule and tie rules of
    :func:`optimize_allocation`.  Its starts are rows of one array of
    class values, padded to the largest class count, and each row takes
    exactly the steps it would take alone: the line search of class k runs
    on the live rows of candidates with more than k classes, and every
    total and probe evaluates only the real modes of its rows
    (:func:`_modes`), whatever the other candidates.  A
    one-class candidate has no corner start; that row starts at -inf, so
    it never runs or wins.  The corners, the starts and each candidate's
    returned total are :func:`_totals` of their allocations; a line
    search's values (:func:`_line`) add class k's cross-talk last, so they
    may differ from these in the last bits.

    Each candidate's total is bounded by U = pulse_rate * sum of
    :func:`rate_bound` over its diagonal transmissivities, whatever its
    allocation and cross-talk.  A row whose total exceeds U (1 +
    ``_BOUND_REL_TOL``) raises :class:`RuntimeError`.  ``groups`` labels
    each candidate's group.  The start totals and every line search are
    followed by a cut (branch and bound, Land & Doig 1960): a candidate
    whose U (1 + ``_BOUND_REL_TOL``) is below the best total of any row of
    its group cannot reach it, so its rows stop.  A candidate alone in its
    group is never pruned.  The other rows keep their steps, so their
    results do not change.
    """
    opts = opts or OptimizerOptions()
    orbits = [orbit_classes(matrix.modes) for _, _, matrix in candidates]
    problem = _class_space([(matrix, orb) for (_, _, matrix), orb in zip(candidates, orbits)])
    counts = np.array([len(orb) for orb in orbits])
    n_cand, n_cls = len(candidates), counts.max()
    own_class = np.arange(n_cls) < counts[:, None]
    offset, cls, eta, _ = problem
    per_mode = rate_bound(eta, params, opts.mu_min, opts.mu_max)
    of_mode = np.repeat(np.arange(n_cand), np.diff(offset))
    bound = params.pulse_rate * np.bincount(of_mode, per_mode)
    ceiling = bound * (1.0 + _BOUND_REL_TOL)

    def bracket(rows: int) -> Tuple[np.ndarray, np.ndarray]:
        return np.full(rows, opts.mu_min), np.full(rows, opts.mu_max)

    lead_eta = np.concatenate(
        [np.diag(m.eta)[[o[0] for o in orb]] for (_, _, m), orb in zip(candidates, orbits)]
    )[:, None]

    def lone(rows: np.ndarray, x: np.ndarray, slopes: bool = False):
        if not slopes:
            return rate_per_pulse(lead_eta[rows], x, 0.0, params)
        return rate_and_slopes(lead_eta[rows], x, 0.0, params)[:2]

    single_k, _ = _line_max(lone, *bracket(len(lead_eta)), opts.line_tol)
    single = np.full((n_cand, n_cls), opts.mu_min)
    single[own_class] = single_k
    # Corners: one class lit at its single-mode optimum, the rest floored.
    corner_cand, corner_k = np.nonzero(own_class & (counts > 1)[:, None])
    corners = np.where(np.arange(n_cls) == corner_k[:, None], single[corner_cand], opts.mu_min)
    corner_val = _totals(problem, corner_cand, corners, params)

    start = np.empty((n_cand, len(_START_NAMES), n_cls))
    start[:, 0], start[:, 1], start[:, 2], start[:, 3] = 0.05, 0.5, single, opts.mu_min
    for b in np.flatnonzero(counts > 1):
        own = np.flatnonzero(corner_cand == b)
        start[b, 3] = corners[own[np.argmax(corner_val[own])]]
    n_starts = np.where(counts > 1, len(_START_NAMES), len(_START_NAMES) - 1)
    has_start = (np.arange(len(_START_NAMES)) < n_starts[:, None]).ravel()
    cand = np.repeat(np.arange(n_cand), len(_START_NAMES))

    v = np.clip(start.reshape(-1, n_cls), opts.mu_min, opts.mu_max)
    current = np.where(has_start, _totals(problem, cand, v, params), -np.inf)
    sweeps = np.zeros(len(v), dtype=int)
    before = current.copy()
    active = has_start.copy()
    pruned = np.zeros(n_cand, dtype=bool)
    label = np.asarray(groups)

    def cut(sweep: int) -> None:
        """Check every row against its bound, then prune the candidates
        that cannot reach their group's best total."""
        over = np.flatnonzero(current > ceiling[cand])
        if over.size:
            b = cand[over[0]]
            raise RuntimeError(
                f"optimize_allocation: mode set {candidates[b][0]!r}, config "
                f"{candidates[b][1]!r}: total {current[over[0]]!r} bits/s exceeds "
                f"its rate bound {bound[b]!r} bits/s"
            )
        best = np.full(label.max() + 1, -np.inf)
        np.maximum.at(best, label[cand], current)
        doomed = ~pruned & (ceiling < best[label])
        for b in np.flatnonzero(doomed):
            log.debug(
                "optimize_allocation: mode set %r, config %r pruned at sweep %d: rate "
                "bound %.6g bits/s is below its group's best total %.6g bits/s",
                candidates[b][0], candidates[b][1], sweep, bound[b], best[label[b]],
            )
        pruned[doomed] = True
        active[pruned[cand]] = False

    cut(0)
    for sweep in range(1, opts.max_sweeps + 1):
        rows = np.flatnonzero(active)
        before[rows] = current[rows]
        for k in range(n_cls):
            step = rows[active[rows] & (counts[cand[rows]] > k)]
            if not step.size:
                break
            f = _line(problem, cand[step], v[step], k, params)
            x_star, val = _line_max(f, *bracket(len(step)), opts.line_tol)
            better = val >= current[step]
            v[step[better], k] = x_star[better]
            current[step[better]] = val[better]
            cut(sweep)
        sweeps[rows] += 1
        gain = current[rows] - before[rows]
        active[rows[gain <= opts.rel_tol * np.maximum(np.abs(before[rows]), 1e-300)]] = False
        if not active.any():
            break

    # Each candidate's best start (a missing corner is at -inf) reports the
    # total of its allocation, computed as every start's total is.
    best = np.arange(0, len(v), len(_START_NAMES)) + np.argmax(current.reshape(n_cand, -1), axis=1)
    reported = _totals(problem, cand[best], v[best], params)
    results: List[Optional[Tuple[PowerAllocation, float]]] = []
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
        log.debug(
            "optimize_allocation: mode set %r, config %r: %d modes in %d classes, "
            "sweeps per start %s, %s",
            mode_set, config, len(matrix.modes), counts[b], sweeps[own].tolist(),
            "pruned" if pruned[b] else f"winning start {_START_NAMES[best[b] - first]!r}",
        )
        if pruned[b]:
            results.append(None)
            continue
        alloc = PowerAllocation(
            modes=matrix.modes,
            mu=v[best[b]][cls[offset[b] : offset[b + 1]]],
            orbits=orb,
            pulse_rate=params.pulse_rate,
        )
        results.append((alloc, float(reported[b])))
    return results


def optimize_allocation(
    matrix: CouplingMatrix,
    params: QkdSystemParams,
    opts: Optional[OptimizerOptions] = None,
) -> Tuple[PowerAllocation, float]:
    """Maximize the total rate over per-class mean photon numbers.

    Coordinate ascent: each symmetry class's shared value is line-searched
    on [mu_min, mu_max] with the rest held fixed (value comparisons down to
    a 0.1-wide bracket, then a secant on the class slope), and sweeps
    repeat until a full sweep gains less than ``rel_tol`` relative (or
    ``max_sweeps``).  The best of several starts is returned: uniform
    mu = 0.05, uniform mu = 0.5, every class at its own single-mode
    optimum (cross-talk ignored), and the best single-active corner (one
    class lit, the rest floored; the first of tied corners), so heavy
    cross-talk cases where shutting modes down is optimal are always
    reachable.  Ties go to the earliest start in that order.  The starts
    run in lockstep as the rows of one array, each taking the steps it
    would take alone; the envelopes run every configuration's starts in
    the same array and stop those of a configuration that cannot win.
    The problem is nonconvex, so this is a heuristic; it is validated
    against small brute-force grids.

    A start that uses all ``max_sweeps`` without meeting ``rel_tol`` is
    logged as a warning on the ``fsoqkd.planner`` logger.
    """
    return _optimize([(None, None, matrix)], params, opts, [0])[0]


# --------------------------------------------------------------------------
# Configuration envelopes
# --------------------------------------------------------------------------


# Relative margin by which a later envelope candidate must beat the best.
# Two builders of one vacuum beam (LG Q = 1 and the power-in-bucket) differ
# by ~1e-15 relative; the optimizer's rel_tol is 1e6 times coarser.
_TIE_REL_TOL = 1e-12

_Candidate = Tuple[str, Optional[int], CouplingMatrix]
_Winner = Tuple[str, Optional[int], float, PowerAllocation]


def _envelopes(
    groups: Sequence[Sequence[_Candidate]],
    params: QkdSystemParams,
    opts: Optional[OptimizerOptions],
) -> List[_Winner]:
    """Best optimized operating point of each group of ``(mode_set,
    config, matrix)`` candidates, as the :class:`RatePoint` fields
    ``(mode_set, config, total_rate_bps, allocation)``.

    Every candidate of every group is optimized in one lockstep ascent,
    which prunes a candidate once its rate bound falls below the best
    total of its group (see :func:`_optimize`).  Within a group a later
    candidate replaces the best only when higher by more than
    ``_TIE_REL_TOL`` relative, so ties, roundoff ties included, go to the
    earliest.  A winner that is its group's last sized candidate (the N or
    Q budget cap) is logged as a warning: a larger cap may do better.

    Pruning changes no winner.  A pruned candidate ends below the group's
    maximum M by more than ``_BOUND_REL_TOL`` = 1e-9 relative, a thousand
    tie tolerances, so it cannot win, and it is skipped.  Nor can it
    change which candidate wins.  Whatever its rate, the best so far can
    differ from that of the unpruned run only while both are below M / (1
    + 1e-9), raised by one tie tolerance per candidate since; the first
    candidate within ``_TIE_REL_TOL`` of M replaces either, and from then
    on the two runs agree.  This needs fewer than about a thousand
    candidates per group."""
    labels = [g for g, candidates in enumerate(groups) for _ in candidates]
    results = iter(_optimize([c for group in groups for c in group], params, opts, labels))
    winners = []
    for candidates in groups:
        own = [next(results) for _ in candidates]
        best = None
        for i, result in enumerate(own):
            if result is not None and (
                best is None or result[1] > own[best][1] * (1.0 + _TIE_REL_TOL)
            ):
                best = i
        mode_set, config, _ = candidates[best]
        if config is not None and all(later[1] is None for later in candidates[best + 1 :]):
            log.warning(
                "envelope: mode set %r wins at its budget cap, config %d; "
                "a larger cap may give a higher rate",
                mode_set, config,
            )
        alloc, rate = own[best]
        winners.append((mode_set, config, rate, alloc))
    return winners


def _fb_candidates(ch: DerivedChannel, n_max: int) -> List[_Candidate]:
    """The focused-beam grids N = 1..n_max of one link."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return [("fb", n_grid, fb_turb_matrix(n_grid, ch)) for n_grid in range(1, n_max + 1)]


def _lg_candidates(ch: DerivedChannel, q_max: int) -> List[_Candidate]:
    """The LG order caps Q = 1..q_max of one link, then its single-beam
    power-in-bucket fallback."""
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("LG envelope requires soft Gaussian pupils")
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    full = lg_turb_matrix(q_max, ch)
    candidates: List[_Candidate] = []
    for q in range(1, q_max + 1):
        k = q * (q + 1) // 2
        candidates.append(("lg", q, CouplingMatrix(modes=full.modes[:k], eta=full.eta[:k, :k])))
    pib = np.array([[gaussian_pib_turb(ch)]])
    candidates.append(("gaussian-pib", None, CouplingMatrix(modes=(LGMode(p=0, l=0),), eta=pib)))
    return candidates


def fb_envelope(
    ch: DerivedChannel,
    params: QkdSystemParams,
    n_max: int = 8,
    opts: Optional[OptimizerOptions] = None,
) -> RatePoint:
    """Best focused-beam operating point over grid sizes N = 1..n_max."""
    return RatePoint(*_envelopes([_fb_candidates(ch, n_max)], params, opts)[0])


def lg_envelope(
    ch: DerivedChannel,
    params: QkdSystemParams,
    q_max: int = 8,
    opts: Optional[OptimizerOptions] = None,
) -> RatePoint:
    """Best LG operating point: mode-sorted order caps Q <= q_max, or the
    single-beam power-in-bucket fallback when mode sorting only adds
    cross-talk (deep far field under strong turbulence)."""
    return RatePoint(*_envelopes([_lg_candidates(ch, q_max)], params, opts)[0])


# --------------------------------------------------------------------------
# Scans
# --------------------------------------------------------------------------


# Class-space coupling entries per lockstep ascent in ``scan``, counted
# by :func:`_class_space_entries`.  The traced peak of an ascent grows by
# about 70 bytes per entry at n_max = 8, 50 at q_max = 8 and 45 at q_max =
# 16, while the gain of one more link shrinks as the arrays grow.  At
# n_max = q_max = 8 a batch holds 3 links (5,120 and 6,480 entries each);
# from q_max = 10 (18,150) on it holds one.
_SCAN_BATCH_ENTRIES = 20_000


def _class_space_entries(candidates: Sequence[_Candidate]) -> int:
    """The size of one link's candidates for the batch budget: candidates
    x largest class count x largest mode count.  The class space itself
    holds one row of K couplings per real mode, fewer entries than this."""
    matrices = [matrix for _, _, matrix in candidates]
    n_classes = max(len(orbit_classes(m.modes)) for m in matrices)
    return len(matrices) * n_classes * max(len(m.modes) for m in matrices)


def scan(
    links: Sequence[ChannelConfig],
    params: QkdSystemParams,
    n_max: int = 8,
    q_max: int = 8,
    opts: Optional[OptimizerOptions] = None,
) -> List[ScanRow]:
    """Optimize every link; each link's pupil chooses its mode family.
    Returns one row per link, in order.

    A :class:`HardSquare` link gets the :func:`fb_envelope` point.  A
    :class:`SoftGaussian` link gets the :func:`lg_envelope` point and also
    carries the lossy channel capacity bound C = -nu * sum_q log2(1 -
    eta_q) on the vacuum LG transmissivities: turbulence with a passive
    receiver cannot beat the pure-loss bound, so the vacuum figure is the
    binding one at every cn2.  It depends on the channel only through the
    Fresnel product, so the link's own channel serves at any cn2.

    The links of one family are optimized in lockstep batches, in link
    order, whatever their path lengths: a batch takes links while their
    candidates stay within ``_SCAN_BATCH_ENTRIES`` class-space coupling
    entries (3 links at ``n_max = q_max = 8``, 1 from ``q_max = 10``),
    and at least one.  Every total and line search of a link evaluates its
    own modes only, each class-space sum runs in a fixed order, and each
    link prunes its configurations against its own best, so each row is
    bit for bit the row of a one-link scan.  A link's rate and
    bound are computed independently, and a failure of either (a
    :class:`RuntimeError` such as a :class:`QuadratureError`, or a
    :class:`ValueError`, in its matrix builds, its bound or its
    :class:`RatePoint`) leaves that field None and is named in its
    ``error``; the other links are untouched.  Any other exception
    propagates.
    """
    links = list(links)
    points: List[Optional[RatePoint]] = [None] * len(links)
    capacity: List[Optional[float]] = [None] * len(links)
    errors: List[List[str]] = [[] for _ in links]

    def attempt(i: int, compute: Callable[[], object]):
        try:
            return compute()
        except (RuntimeError, ValueError) as exc:
            errors[i].append(f"{type(exc).__name__}: {exc}")
            return None

    batches: Dict[str, List[Tuple[int, List[_Candidate]]]] = {"fb": [], "lg": []}

    def run(batch: List[Tuple[int, List[_Candidate]]]) -> None:
        winners = _envelopes([candidates for _, candidates in batch], params, opts)
        for (i, _), winner in zip(batch, winners):
            points[i] = attempt(i, lambda: RatePoint(*winner))
        batch.clear()

    for i, link in enumerate(links):
        ch = derive(link)
        if isinstance(link.pupil, HardSquare):
            family, candidates = "fb", attempt(i, lambda: _fb_candidates(ch, n_max))
        else:
            capacity[i] = attempt(i, lambda: lg_vacuum_capacity(ch, params.pulse_rate))
            family, candidates = "lg", attempt(i, lambda: _lg_candidates(ch, q_max))
        if candidates is None:
            continue
        batch = batches[family]
        batch.append((i, candidates))
        if (len(batch) + 1) * _class_space_entries(candidates) > _SCAN_BATCH_ENTRIES:
            run(batch)
    for batch in batches.values():
        if batch:
            run(batch)
    return [
        ScanRow(point=point, capacity_bps=bound, error="; ".join(errs) or None)
        for point, bound, errs in zip(points, capacity, errors)
    ]
