"""Power allocation and configuration search for multimode QKD links.

Each transmitted mode carries its own decoy-state BB84 stream; cross-talk
from the other modes raises that mode's background click rate.  The total
key rate is therefore a nonconvex function of the vector of per-mode mean
photon numbers, maximized here by coordinate ascent over symmetry classes
of modes, restarted from a few spread initial points.  Each line search
narrows its bracket by value comparisons, which chooses the basin, then
finishes with a secant on the closed-form slope of the total.  The
objective is evaluated in class space, with cross-talk aggregated by
source class, on one entry per group of modes whose terms match, weighted
by the group's size (on the builders' matrices, one per class), by one
evaluator: a line search lays out the entries of its rows once, each
probe evaluates only the rows still searching, a total is the line of the
last class, and a single-mode search is the line of a one-mode problem: a
one-mode configuration's whole ascent.

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
cross-talk) is below the best total its link has reached, first on the
four start totals, before the first sweep; the cut changes no winner.
An LG order cap is bounded before it is built: its bound needs only its
diagonal, which the same-order blocks of the first step of
:func:`fsoqkd.turbulence.lg_turb_matrix` hold, so the cross-order blocks
are built only on the links where a cap beats the fallback's uniform
starts, and the other links' caps Q >= 2 never reach the ascent.
:func:`scan` runs all its links, of both families, in one such ascent.
Only :func:`_kernel` names the rate kernels, and only it splits work, into
calls of at most ``_KERNEL_CHUNK`` elements.
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
    derive,
)
from .numerics import line_max as _line_max
from .qkd import QkdSystemParams, rate_and_slopes, rate_bound, rate_per_pulse
from .turbulence import fb_turb_matrix, gaussian_pib_turb, lg_turb_cross_order, lg_turb_same_order
from .vacuum import (
    CouplingMatrix,
    ModeId,
    class_index,
    class_sums,
    lg_vacuum_capacity,
    orbit_classes,
)
# Unused here; the benchmark tracer wraps fsoqkd.planner.<name> by name.
from .turbulence import lg_turb_matrix  # noqa: F401
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
    ``rel_tol`` relative, or after ``max_sweeps``.  Each line search ends
    within ``_LINE_TOL`` of a stationary point of its line, or exactly at
    ``mu_min`` or ``mu_max`` where the slope there points outward.
    """

    mu_min: float = 1e-6
    mu_max: float = 1.5
    rel_tol: float = 1e-6
    max_sweeps: int = 100

    def __post_init__(self) -> None:
        for name in ("mu_min", "mu_max", "rel_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.mu_min < self.mu_max:
            raise ValueError("need 0 < mu_min < mu_max")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
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
# Rates of an allocation
# --------------------------------------------------------------------------


def _class_space(
    problems: Sequence[Tuple[CouplingMatrix, Tuple[Tuple[int, ...], ...]]],
) -> Tuple[np.ndarray, ...]:
    """The rate objective of each ``(matrix, classes)`` problem in class space.

    Returns ``(offset, cls, eta, coupling, weight)``, one entry per group of
    matching modes (see :func:`class_sums`), problem by problem in mode
    order: problem b holds entries ``offset[b]:offset[b + 1]``, and entry e
    stands for ``weight[e]`` modes of class ``cls[e]`` with transmissivity
    ``eta[e]`` and class-summed couplings ``coupling[e]`` (E, K).  Only the
    class axis is padded, to the largest class count K, and a padded class
    couples into nothing.
    """
    cls, eta, parts, weight = zip(*(class_sums(matrix, orbits) for matrix, orbits in problems))
    offset = np.cumsum([0, *map(len, cls)])
    coupling = np.zeros((offset[-1], max(part.shape[1] for part in parts)))
    for b, part in enumerate(parts):
        coupling[offset[b] : offset[b + 1], : part.shape[1]] = part
    return offset, np.concatenate(cls), np.concatenate(eta), coupling, np.concatenate(weight)


# Elements per rate-kernel call: near 4k the cost per element is least
# (smaller calls pay per-call overhead, larger ones fall out of cache).
_KERNEL_CHUNK = 4096


def _kernel(eta, mu: np.ndarray, cross, params: QkdSystemParams, slopes: bool = False):
    """:func:`rate_per_pulse`, or :func:`rate_and_slopes` with ``slopes``,
    on ``eta`` (E, 1), ``mu`` and ``cross`` (E, m), in calls of at most
    ``_KERNEL_CHUNK`` elements; the kernel is elementwise, so the outputs
    are one call's bits."""
    kernel = rate_and_slopes if slopes else rate_per_pulse
    if mu.size <= _KERNEL_CHUNK:
        return kernel(eta, mu, cross, params)
    step = max(1, _KERNEL_CHUNK * len(mu) // mu.size)
    parts = [
        kernel(*(a[i : i + step] for a in (eta, mu, cross)), params)
        for i in range(0, len(mu), step)
    ]
    return tuple(map(np.concatenate, zip(*parts))) if slopes else np.concatenate(parts)


def _line(
    problem: Tuple[np.ndarray, ...],
    of: np.ndarray,
    base: np.ndarray,
    k: int,
    params: QkdSystemParams,
) -> Callable[..., object]:
    """The line evaluator of class ``k`` through the class values ``base``
    (R, K), row r on problem ``of[r]`` (see :func:`_class_space`), for
    :func:`_line_max`; the one evaluator of the objective.

    The entries of every row are laid out once, in mode order, as one
    element each: its row, transmissivity, base mu, whether it is in class
    k, its coupling from class k, its weight and its cross-talk from the
    other classes, added class by class in order (class k's an exact zero;
    a NumPy sum may pair terms by K), so no term depends on another row or
    the padding.
    ``f(rows, x)`` maps the (r, m) values x of class k on the rows ``rows``
    (ascending) to their totals, and ``f(rows, x, True)`` returns
    ``(totals, slopes)``, the slopes d total/d v[k] = pulse_rate * (sum
    over the modes of class k of d rate/d mu + sum over all modes of
    coupling[k] d rate/d mu_c).  A probe costs one multiply-add for the
    cross-talk and the rate kernel on the elements of its rows.  Values and
    slopes, each times its element's weight, are summed per row in mode
    order by a ``bincount``; a weight of 1 multiplies exactly.
    """
    offset, cls, eta_all, coupling, weight = problem
    size = offset[of + 1] - offset[of]
    row = np.repeat(np.arange(len(of)), size)
    entry = np.arange(row.size) + (offset[of] - np.cumsum(size) + size)[row]
    rest = base.copy()
    rest[:, k] = 0.0
    other = sum(vj[row] * cj[entry] for vj, cj in zip(rest.T, coupling.T))
    in_k = cls[entry] == k
    # The per-element quantities, kept apart: stacking them would copy all five
    # at once, the largest allocation of a total over many rows.
    table = (eta_all[entry], base[row, cls[entry]], other, coupling[entry, k], weight[entry])

    def f(rows: np.ndarray, x: np.ndarray, slopes: bool = False):
        if rows.size == len(of):
            own, lit, (eta, base_mu, other, from_k, w) = row, in_k, table
        else:
            keep = np.zeros(len(of), dtype=bool)
            keep[rows] = True
            at = np.flatnonzero(keep[row])
            own = (np.cumsum(keep) - 1)[row[at]]
            lit, (eta, base_mu, other, from_k, w) = in_k[at], (a[at] for a in table)
        m = x.shape[1]
        xe = x[own]
        mu = np.where(lit[:, None], xe, base_mu[:, None])
        cross = other[:, None] + xe * from_k[:, None]
        bins = own if m == 1 else (own[:, None] * m + np.arange(m)).ravel()

        def total(per_mode: np.ndarray) -> np.ndarray:
            sums = np.bincount(bins, params.pulse_rate * (w[:, None] * per_mode).ravel(), x.size)
            return sums.reshape(x.shape)

        if not slopes:
            return total(_kernel(eta[:, None], mu, cross, params))
        rate, d_mu, d_cross = _kernel(eta[:, None], mu, cross, params, slopes=True)
        return total(rate), total(np.where(lit[:, None], d_mu, 0.0) + from_k[:, None] * d_cross)

    return f


def _totals(
    problem: Tuple[np.ndarray, ...], of: np.ndarray, v: np.ndarray, params: QkdSystemParams
) -> np.ndarray:
    """Total key rates, bits/s, of the class values ``v`` (R, K), row r on
    problem ``of[r]``: every start, corner and reported total.  Each is the
    line of the last class through ``v`` at its own value, whose cross-talk
    still adds the classes in order, the last class's term last."""
    k = v.shape[1] - 1
    return _line(problem, of, v, k, params)(np.arange(len(of)), v[:, k:])[:, 0]


def total_rate(
    alloc: PowerAllocation, matrix: CouplingMatrix, params: QkdSystemParams
) -> float:
    """Total key rate of an allocation over all modes, bits/s, on one
    weighted entry per group of matching modes, as the optimizer sees it."""
    if alloc.modes != matrix.modes:
        raise ValueError("allocation and matrix cover different mode lists")
    v = alloc.mu[[orbit[0] for orbit in alloc.orbits]]
    problem = _class_space([(matrix, alloc.orbits)])
    return float(_totals(problem, np.array([0]), v[None], params)[0])


# --------------------------------------------------------------------------
# Coordinate ascent
# --------------------------------------------------------------------------

# Each line search ends within this width of a stationary point of its line.
_LINE_TOL = 1e-9

_START_NAMES = ("uniform 0.05", "uniform 0.5", "single-mode optima", "best corner")


# Relative margin on a configuration's rate bound.  The bound is proven
# for exact arithmetic; summed mode rates carry roundoff near 1e-14.
_BOUND_REL_TOL = 1e-9

# The debug lines of a pruned candidate and of every candidate's outcome.
_PRUNED = (
    "optimize_allocation: mode set %r, config %r pruned at sweep %d: rate "
    "bound %.6g bits/s is below its group's best total %.6g bits/s"
)
_SUMMARY = (
    "optimize_allocation: mode set %r, config %r: %d modes in %d classes, "
    "sweeps per start %s, %s"
)


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
    total and probe evaluates only the entries of its rows, one weighted
    entry per group of matching modes (:func:`_class_space`).  Every
    value comes from one evaluator, :func:`_line`: the totals
    (:func:`_totals`), the line searches, and the single-mode search of
    each class lead, a one-mode problem without cross-talk.  That is the
    class line of a one-mode candidate (one mode, not one entry: FB N = 2
    is one entry of four modes), whose last two starts thus hold the lead's
    optimum and total: its rows leave before the first sweep.

    Each candidate's total is bounded by U = pulse_rate * sum of weight x
    :func:`rate_bound` over its entries' transmissivities, whatever its
    allocation and cross-talk; a total above U (1 + ``_BOUND_REL_TOL``)
    raises :class:`RuntimeError`.  ``groups`` labels each candidate's
    group.  A cut (branch and bound, Land & Doig 1960) stops the rows of a
    candidate whose U (1 + ``_BOUND_REL_TOL``) is below the best total of
    its group.  It runs once on all four start totals, taken in one
    :func:`_totals` call after the single-mode search and the corners, and
    after every line search; the other rows keep their steps and their
    results.  A candidate alone in its group is never pruned.  Some LG
    caps that the first cut would prune never get here: :func:`_candidates`
    bounds them on their diagonals against their fallback's uniform starts
    and builds the cross-order blocks only for the links where a cap
    survives.
    """
    opts = opts or OptimizerOptions()
    # One classification per distinct mode tuple, keyed by identity: hashing
    # a long tuple costs about as much as classifying it.
    memo: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
    orbits = [
        memo.get(id(m.modes)) or memo.setdefault(id(m.modes), orbit_classes(m.modes))
        for _, _, m in candidates
    ]
    problem = _class_space([(matrix, orb) for (_, _, matrix), orb in zip(candidates, orbits)])
    counts = np.array([len(orb) for orb in orbits])
    n_cand, n_cls, n_starts = len(candidates), counts.max(), len(_START_NAMES)
    offset, cls, eta, _, weight = problem
    of_entry = np.repeat(np.arange(n_cand), np.diff(offset))
    bound = params.pulse_rate * np.bincount(
        of_entry, weight * rate_bound(eta, params, opts.mu_min, opts.mu_max)
    )
    ceiling = bound * (1.0 + _BOUND_REL_TOL)

    def bracket(rows: int) -> Tuple[np.ndarray, np.ndarray]:
        return np.full(rows, opts.mu_min), np.full(rows, opts.mu_max)

    cand = np.repeat(np.arange(n_cand), n_starts)
    v = np.full((len(cand), n_cls), opts.mu_min)
    v[0::n_starts], v[1::n_starts] = np.clip([0.05, 0.5], opts.mu_min, opts.mu_max)
    sweeps = np.zeros(len(v), dtype=int)
    active = np.ones(len(v), dtype=bool)
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
            log.debug(_PRUNED, candidates[b][0], candidates[b][1], sweep, bound[b], best[label[b]])
        pruned[doomed] = True
        active[pruned[cand]] = False

    # Each class lead, alone: one mode, class 0, no coupling.  Classes are
    # listed by first mode, so a class's first entry, its lead's, has a key
    # above every key before it.
    key = of_entry * n_cls + cls
    lead_at = np.flatnonzero(key > np.maximum.accumulate(np.append(-1, key))[:-1])
    lead_cand, lead_k, n_lead = of_entry[lead_at], cls[lead_at], len(lead_at)
    zero = np.zeros((n_lead, 1))
    lead = (np.arange(n_lead + 1), np.zeros(n_lead, dtype=int), eta[lead_at], zero, np.ones(n_lead))
    f = _line(lead, np.arange(n_lead), zero, 0, params)
    single = np.full((n_cand, n_cls), opts.mu_min)
    single[lead_cand, lead_k] = _line_max(f, *bracket(n_lead), _LINE_TOL)[0]
    # Corners: one class lit at its single-mode optimum, the rest floored.
    corners = np.where(np.arange(n_cls) == lead_k[:, None], single[lead_cand], opts.mu_min)
    corner_val = np.full((n_cand, n_cls), -np.inf)
    corner_val[lead_cand, lead_k] = _totals(problem, lead_cand, corners, params)
    lit = np.arange(n_cls) == np.argmax(corner_val, axis=1)[:, None]
    v[2::n_starts], v[3::n_starts] = single, np.where(lit, single, opts.mu_min)
    current = _totals(problem, cand, v, params)
    cut(0)
    # A one-mode candidate (its weights sum to 1) has its lead's class line:
    # its last two starts hold that search's optimum and total, and no
    # sweep can change them.
    active[(np.bincount(of_entry, weight) == 1)[cand]] = False

    before = current.copy()
    for sweep in range(1, opts.max_sweeps + 1):
        rows = np.flatnonzero(active)
        before[rows] = current[rows]
        for k in range(n_cls):
            step = rows[active[rows] & (counts[cand[rows]] > k)]
            if not step.size:
                break
            f = _line(problem, cand[step], v[step], k, params)
            x_star, val = _line_max(f, *bracket(step.size), _LINE_TOL)
            better = val >= current[step]
            v[step[better], k] = x_star[better]
            current[step[better]] = val[better]
            cut(sweep)
        sweeps[rows] += 1
        gain = current[rows] - before[rows]
        active[rows[gain <= opts.rel_tol * np.maximum(np.abs(before[rows]), 1e-300)]] = False
        if not active.any():
            break

    # Each candidate's best start reports the total of its allocation,
    # computed as every start's total is.
    best = np.arange(0, len(v), n_starts) + np.argmax(current.reshape(n_cand, -1), axis=1)
    reported = np.zeros(n_cand)
    reported[~pruned] = _totals(problem, np.flatnonzero(~pruned), v[best[~pruned]], params)
    results: List[Optional[Tuple[PowerAllocation, float]]] = []
    for b, ((mode_set, config, matrix), orb) in enumerate(zip(candidates, orbits)):
        first = b * n_starts
        own = np.arange(first, first + n_starts)
        for s in own[active[own]]:
            base = float(before[s])
            log.warning(
                "optimize_allocation: mode set %r, config %r: start %r used all %d "
                "sweeps on %d modes without meeting rel_tol %g (last relative gain %.3g)",
                mode_set, config, _START_NAMES[s - first], sweeps[s], len(matrix.modes),
                opts.rel_tol, (float(current[s]) - base) / max(abs(base), 1e-300),
            )
        log.debug(
            _SUMMARY, mode_set, config, len(matrix.modes), counts[b], sweeps[own].tolist(),
            "pruned" if pruned[b] else f"winning start {_START_NAMES[best[b] - first]!r}",
        )
        if pruned[b]:
            results.append(None)
            continue
        alloc = PowerAllocation(
            modes=matrix.modes,
            mu=v[best[b]][class_index(orb)],
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
    ``max_sweeps``).  The best of four starts is returned: uniform mu =
    0.05, uniform mu = 0.5, every class at its own single-mode optimum
    (cross-talk ignored), and the best single-active corner (one class lit,
    the rest floored; the first of tied corners; with one class, the
    single-mode start again, and with one mode the whole ascent), so heavy
    cross-talk cases where shutting modes down is optimal are always
    reachable.  Ties go to the earliest start in that order.  The starts
    run in lockstep as the rows of one array, each taking the steps it
    would take alone; the envelopes run every configuration's starts in
    the same array and stop those of a configuration that cannot win,
    first on its four start totals.  The problem is nonconvex, so this is
    a heuristic; it is validated against small brute-force grids.

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


def _candidates(
    chans: Sequence[DerivedChannel],
    flat: bool,
    size: int,
    params: QkdSystemParams,
    opts: Optional[OptimizerOptions],
) -> List[List[_Candidate]]:
    """Each link's candidates from one builder call per configuration on
    all the links: with ``flat`` the focused-beam grids N = 1..size, else
    the LG order caps Q = 1..size, then the single-beam power-in-bucket
    fallback.  The links' candidates of one configuration share one mode
    tuple (the fallback's is Q = 1's).

    Bound first, build second: the LG matrices come from the two steps of
    :func:`lg_turb_matrix`.  Between them each cap is bounded on its
    diagonal, as :func:`_optimize` bounds it up to the roundoff of the sum
    (there a class lead counts once per mode it stands for).  Where even
    the largest cap's bound is below the better of the fallback's two
    uniform-start totals, the link's caps Q >= 2 are dropped, logged as
    the first cut of :func:`_optimize` logs them, and its cross-order
    blocks are never built.  That cut, on the best of all four starts,
    prunes a superset of the caps dropped here, and a cap kept here is
    still pruned, or wins, in the ascent.  LG Q = 1's own totals are left
    out of that best: they are at most its bound, the smallest cap's, so
    they prune no cap.  The one-mode candidates need no cross-order block
    and always reach :func:`_optimize`, whose first cut checks their
    totals against their bounds, so a broken bound still raises.  A
    dropped cap's totals are at most its bound, so its group's best, and
    every other candidate's steps, are unchanged."""
    if size < 1:
        raise ValueError(f"{'n_max' if flat else 'q_max'} must be >= 1, got {size}")
    if flat:
        grids = zip(*(fb_turb_matrix(n_grid, chans) for n_grid in range(1, size + 1)))
        return [[("fb", n, m) for n, m in enumerate(own, 1)] for own in grids]
    mom, same = lg_turb_same_order(size, chans)
    prefixes = [same[0].modes[: q * (q + 1) // 2] for q in range(1, size + 1)]
    fallback = [
        ("gaussian-pib", None, CouplingMatrix(modes=prefixes[0], eta=np.array([[eta]])))
        for eta in map(gaussian_pib_turb, chans)
    ]
    opts = opts or OptimizerOptions()
    # Each cap's bound on its diagonal and each fallback's two uniform-start
    # totals, as _optimize computes them.
    diagonals = np.array([np.diag(m.eta) for m in same])
    per_mode = rate_bound(diagonals, params, opts.mu_min, opts.mu_max)
    bound = params.pulse_rate * np.cumsum(per_mode, axis=1)[:, [len(m) - 1 for m in prefixes]]
    problem = _class_space([(m, ((0,),)) for _, _, m in fallback])
    uniform = np.clip([[0.05], [0.5]] * len(chans), opts.mu_min, opts.mu_max)
    totals = _totals(problem, np.arange(len(uniform)) // 2, uniform, params)
    best = totals.reshape(-1, 2).max(axis=1)
    build = bound[:, -1] * (1.0 + _BOUND_REL_TOL) >= best
    # Classifying the prefixes only to log them would cost 14 us each.
    for p in np.flatnonzero(~build) if log.isEnabledFor(logging.DEBUG) else []:
        for q, m in enumerate(prefixes[1:], 2):
            log.debug(_PRUNED, "lg", q, 0, bound[p, q - 1], best[p])
            log.debug(
                _SUMMARY, "lg", q, len(m), len(orbit_classes(m)), [0] * len(_START_NAMES), "pruned"
            )
    kept = np.flatnonzero(build)
    for p, full in zip(kept, lg_turb_cross_order((mom, same), kept)):
        same[p] = full
    return [
        [
            ("lg", q, CouplingMatrix(modes=m, eta=full.eta[: len(m), : len(m)]))
            for q, m in enumerate(prefixes[: size if b else 1], 1)
        ]
        + [last]
        for b, full, last in zip(build, same, fallback)
    ]


def fb_envelope(
    ch: DerivedChannel,
    params: QkdSystemParams,
    n_max: int = 8,
    opts: Optional[OptimizerOptions] = None,
) -> RatePoint:
    """Best focused-beam operating point over grid sizes N = 1..n_max."""
    return RatePoint(*_envelopes(_candidates([ch], True, n_max, params, opts), params, opts)[0])


def lg_envelope(
    ch: DerivedChannel,
    params: QkdSystemParams,
    q_max: int = 8,
    opts: Optional[OptimizerOptions] = None,
) -> RatePoint:
    """Best LG operating point: mode-sorted order caps Q <= q_max, or the
    single-beam power-in-bucket fallback when mode sorting only adds
    cross-talk (deep far field under strong turbulence)."""
    return RatePoint(*_envelopes(_candidates([ch], False, q_max, params, opts), params, opts)[0])


# --------------------------------------------------------------------------
# Scans
# --------------------------------------------------------------------------


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

    All links, of both families, are optimized in one lockstep ascent,
    each link its own group, after one builder call per configuration
    has built that family's matrices for all its links.  The builders,
    the totals and line searches, the class-space sums and the pruning
    give each link the bits it has alone, so each row is bit for bit the
    row of a one-link scan.  A link's rate and bound are computed
    independently.  A failure of either (a :class:`RuntimeError` such as a
    :class:`QuadratureError`, or a :class:`ValueError`, in its matrix
    builds, its bound or its :class:`RatePoint`) leaves that field None
    and is named in its ``error``; when a batched build fails, its family
    is rebuilt one link at a time, so the other links are untouched.  Any
    other exception propagates.
    """
    chans = [derive(link) for link in links]
    errors: List[List[str]] = [[] for _ in chans]

    def attempt(i: int, compute: Callable[[], object]):
        try:
            return compute()
        except (RuntimeError, ValueError) as exc:
            errors[i].append(f"{type(exc).__name__}: {exc}")
            return None

    flat = [isinstance(ch.pupil, HardSquare) for ch in chans]
    capacity = [
        None if f else attempt(i, lambda: lg_vacuum_capacity(chans[i], params.pulse_rate))
        for i, f in enumerate(flat)
    ]
    groups: Dict[int, List[_Candidate]] = {}
    for family, size in ((True, n_max), (False, q_max)):
        members = [i for i, f in enumerate(flat) if f is family]
        try:
            built = [] if not members else _candidates(
                [chans[i] for i in members], family, size, params, opts
            )
        except (RuntimeError, ValueError):
            built = [
                attempt(i, lambda: _candidates([chans[i]], family, size, params, opts)[0])
                for i in members
            ]
        groups.update((i, c) for i, c in zip(members, built) if c is not None)
    winners = _envelopes(list(groups.values()), params, opts) if groups else []
    points = {i: attempt(i, lambda: RatePoint(*winner)) for i, winner in zip(groups, winners)}
    return [
        ScanRow(point=points.get(i), capacity_bps=capacity[i], error="; ".join(errs) or None)
        for i, errs in enumerate(errors)
    ]
