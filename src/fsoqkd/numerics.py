"""Shared numerical kernels: Hermite-Gauss samples, quadrature, basis change.

Every 1-D integral in the package runs on one Gauss-Legendre rule with an
order-doubling error check: callers state a tolerance and get either a
value that met it or a :class:`QuadratureError`.  A call integrates a
batch of rows, each over its own interval: a row's error is measured
against its own largest entry, its sum is reduced apart from the other
rows, so its bits do not depend on the batch, and the integrand sees at
most ``_CHUNK_NODES`` (row, node) pairs at a time.  The nodes come from a
Newton rule on Legendre's cosine series, in numpy alone: no eigensolve and
no ``numpy.polynomial`` import, which a fresh CLI process would otherwise
pay for on every run.  :func:`line_max` maximizes a batch of scalar
functions in lockstep, for the power optimizer.  LG modes are enumerated
in one place, :func:`lg_modes_of_order`, whose order the LG mode lists
and the LG-to-HG unitaries share.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "QuadratureError",
    "hg_sample",
    "integrate_1d",
    "line_max",
    "lg_modes_of_order",
    "lg_hg_unitary",
]


class QuadratureError(RuntimeError):
    """A quadrature routine could not meet its tolerance within budget."""


def hg_sample(n: int, x):
    """Orthonormal 1-D Hermite-Gauss sample at unit scale.

    Returns H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), so that the
    squared samples integrate to 1 over the line.  The normalized
    recurrence

        psi_{k+1} = x sqrt(2/(k+1)) psi_k - sqrt(k/(k+1)) psi_{k-1}

    keeps every intermediate O(1), so the evaluation stays finite at
    orders where the bare polynomial would overflow.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    xa = np.asarray(x, dtype=float)
    prev = np.zeros_like(xa)
    cur = np.pi ** -0.25 * np.exp(-0.5 * xa * xa)
    for k in range(n):
        prev, cur = cur, xa * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(
            k / (k + 1.0)
        ) * prev
    if np.isscalar(x) or getattr(x, "ndim", None) == 0:
        return float(cur)
    return cur


# Node sets are cached per order and read-only, since every caller shares them.
@functools.lru_cache(maxsize=None)
def _leggauss(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    P_n(cos t) is Legendre's cosine series sum_k a_k a_{n-k} cos((n-2k) t)
    with a_k = C(2k, k) / 4^k, whose +-frequency terms pair into n/2
    columns.  Three Newton steps in t from Tricomi's guess solve the
    nodes of one half at once; the weights 2 / (dP/dt)^2 avoid the
    1 - x^2 cancellation, and the other half is the mirror image.
    """
    n = order
    h = np.arange((n + 1) // 2)  # nodes with x >= 0, and the paired columns
    t = np.arccos(
        (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * h + 3) / (4 * n + 2))
    )
    j = np.arange(1, n + 1)
    a = np.cumprod(np.concatenate(([1.0], (2 * j - 1) / (2.0 * j))))
    freq = (n - 2 * h).astype(float)
    coef = 2.0 * a[h] * a[n - h]
    const = a[n // 2] ** 2 if n % 2 == 0 else 0.0
    slope = coef * freq  # dP/dt = -sin(t freq) @ slope
    for _ in range(3):
        arg = np.multiply.outer(t, freq)
        p = np.cos(arg) @ coef + const
        t = t + p / (np.sin(arg, out=arg) @ slope)
    np.sin(np.multiply.outer(t, freq, out=arg), out=arg)
    x, w = np.cos(t), 2.0 / (arg @ slope) ** 2
    if n % 2:
        x[-1] = 0.0  # the middle node, at t = pi/2
    nodes = np.concatenate((-x[: n // 2], x[::-1]))
    weights = np.concatenate((w[: n // 2], w[::-1]))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# Rows are integrated in chunks of at most this many (row, node) pairs per
# integrand call, so the working set stays flat however many rows a call holds.
_CHUNK_NODES = 8192
_NODE_CAP = 1024


def integrate_1d(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b, rel_tol: float
) -> np.ndarray:
    """Gauss-Legendre quadrature of a batch of rows, row i over [a[i], b[i]].

    ``a`` and ``b`` are (P,) arrays.  ``f(rows, x)`` maps the indices
    ``rows`` (r,) of the rows still live and their (r, n) nodes ``x`` to
    values of shape (r, ..., n), and the result has shape (P, ...).  Each
    row doubles its order from 8 until its two successive orders agree
    within ``rel_tol`` times the largest entry of that row; its
    higher-order sum is then frozen and the row leaves the evaluation, so
    no other row's scale enters its test; every order stores and drops the
    rows that agreed, on one path for any batch.  Each row is reduced on
    its own, ``(f * w).sum(-1)``, never by a matrix product whose bits
    depend on the batch: a row's value is the same bit for bit alone or in
    any batch.  ``f`` sees at most ``_CHUNK_NODES`` (row, node) pairs per
    call.  A row that reaches order ``_NODE_CAP`` without agreement raises
    :class:`QuadratureError` naming its interval.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"need two (P,) interval ends, got {a.shape} and {b.shape}")
    if not (b >= a).all():
        i = np.argmin(b >= a)
        raise ValueError(f"need b >= a, got [{a[i]}, {b[i]}]")
    # The live rows, and their interval midpoints and half-widths as (r, 1).
    live = np.arange(a.size)
    mid, half = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    out, prev, order, last = None, None, 8, 0
    while live.size and order <= _NODE_CAP:
        nodes, weights = _leggauss(order)
        step = max(1, _CHUNK_NODES // order)
        parts = []
        for start in range(0, live.size, step):
            part = slice(start, start + step)
            vals = f(live[part], mid[part] + half[part] * nodes)
            scale = half[part].reshape((-1,) + (1,) * (vals.ndim - 2))
            parts.append(scale * (vals * weights).sum(-1))
        val = np.concatenate(parts)
        if out is None:
            out = np.empty((a.size,) + val.shape[1:], dtype=val.dtype)
        if prev is not None:
            # Each row against the largest entry of that row.
            err, size = (np.abs(e).reshape(len(val), -1).max(1) for e in (val - prev, val))
            done = err <= rel_tol * size
            out[live[done]] = val[done]
            live, mid, half, val = (e[~done] for e in (live, mid, half, val))
        prev, last = val, order
        order *= 2
    if live.size:
        raise QuadratureError(
            f"integrate_1d did not converge on [{a[live[0]]}, {b[live[0]]}]: "
            f"last order {last}, node cap {_NODE_CAP}"
        )
    return out if out is not None else np.empty(0)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Golden steps shrink a line search's bracket to this width, choosing its
# basin as a whole golden-section search would; the slope phase finishes.
_COARSE_WIDTH = 0.1


def line_max(
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


def lg_modes_of_order(order: int) -> Tuple[Tuple[int, int], ...]:
    """(p, l) pairs with 2p + |l| = order, sorted by ascending l."""
    return tuple(
        ((order - abs(l)) // 2, l) for l in range(-order, order + 1, 2)
    )


def lg_hg_unitary(order: int) -> np.ndarray:
    """Unitary expressing same-order LG modes in the HG basis.

    For total order N = ``order`` (= 2p + |l| = n + m), row i holds the
    coefficients of LG mode ``lg_modes_of_order(N)[i]`` over the HG modes
    (N - k, k), stored in column N - k, the x index:

        LG_{p,l} = sum_k U[i, N - k] * HG_{N-k, k}.

    The coefficient of HG_{N-k, k} in LG_{p,l} is (-1)^p i^k b(n, m, k)
    with n = p + max(-l, 0), m = p + max(l, 0) and

        b(n, m, k) = sqrt((N-k)! k! / (2^N n! m!)) [t^k] (1-t)^n (1+t)^m,

    which makes l = m - n count positive helicity (exp(+i l theta) with
    theta measured from +x toward +y).  The (-1)^p row phase pins the
    radial convention where L_p^{|l|} enters with a positive leading
    sign; the whole matrix is validated against direct 2-D overlap
    integrals of the sampled mode patterns.  Factorials and binomials are
    exact integers until each is rounded once to float.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    ks = np.arange(order + 1)
    fact = np.array([math.factorial(k) for k in ks], dtype=object)
    root_fact = np.sqrt((fact[::-1] * fact).astype(float))
    phase = np.array([1, 1j, -1, -1j])[ks % 4]
    mat = np.empty((order + 1, order + 1), dtype=complex)
    for row, (p, l) in enumerate(lg_modes_of_order(order)):
        n = p + max(-l, 0)
        m = p + max(l, 0)
        coeffs = np.convolve(
            np.array([(-1) ** j * math.comb(n, j) for j in range(n + 1)], dtype=object),
            np.array([math.comb(m, j) for j in range(m + 1)], dtype=object),
        ).astype(float)
        norm = (-1.0) ** p / math.sqrt(
            2 ** order * math.factorial(n) * math.factorial(m)
        )
        # HG_{N-k, k}: x index is N - k.
        mat[row, ::-1] = phase * (root_fact * coeffs * norm)
    return mat
