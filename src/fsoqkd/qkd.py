"""Asymptotic decoy-state BB84 secret-key rates with cross-talk noise.

Cross-talk power arriving in a mode's detection window acts exactly like
an extra dark-count contribution: a Poisson background with mean photon
number mu_c per pulse raises the no-click-from-signal yield floor to

    p = p_dc + 1 - exp(-mu_c).

The asymptotic decoy-state rate uses the standard single-photon bound
(infinite decoy states, so Y_1 and e_1 are known exactly):

    rate/pulse = sift * max(0, Q_1 [1 - H2(e_1)] - f_ec Q_mu H2(E_mu)).

All inputs are per-pulse quantities: callers holding powers in photons
per second divide them by the pulse rate first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QkdSystemParams",
    "binary_entropy",
    "rate_and_slopes",
    "rate_bound",
    "rate_per_pulse",
]


@dataclass(frozen=True)
class QkdSystemParams:
    """Detector and protocol parameters shared by every mode.

    Attributes
    ----------
    visibility : float
        Interference visibility V; misalignment error is (1 - V) / 2.
    dark_count : float
        Dark-count probability per pulse per detection window, p_dc.
    pulse_rate : float
        Source repetition rate nu, pulses per second.
    error_correction_factor : float
        Efficiency multiplier f_ec >= 1 on the error-correction leakage.
    sifting_factor : float
        Fraction of detected rounds kept after basis reconciliation.
    """

    visibility: float = 0.99
    dark_count: float = 1e-6
    pulse_rate: float = 1e10
    error_correction_factor: float = 1.0
    sifting_factor: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.visibility <= 1.0:
            raise ValueError(f"visibility must be in (0, 1], got {self.visibility}")
        if not 0.0 <= self.dark_count < 1.0:
            raise ValueError(f"dark count must be in [0, 1), got {self.dark_count}")
        if self.pulse_rate <= 0:
            raise ValueError(f"pulse rate must be > 0, got {self.pulse_rate}")
        if self.error_correction_factor < 1.0:
            raise ValueError(
                f"error correction factor must be >= 1, got {self.error_correction_factor}"
            )
        if not 0.0 < self.sifting_factor <= 1.0:
            raise ValueError(
                f"sifting factor must be in (0, 1], got {self.sifting_factor}"
            )


def binary_entropy(x):
    """Binary entropy H2(x) in bits, elementwise, with H2(0) = H2(1) = 0."""
    xa = np.asarray(x, dtype=float)
    if np.any((xa < 0) | (xa > 1)):
        raise ValueError("binary entropy argument outside [0, 1]")
    val = _entropy_and_slope(xa)[0]
    if np.isscalar(x) or getattr(x, "ndim", None) == 0:
        return float(val)
    return val


def _entropy_and_slope(x: np.ndarray):
    """H2(x) and H2'(x) = log2((1 - x) / x) of an array in [0, 1], sharing
    their logarithms; the 1e-300 floor keeps 0 log 0 = 0 and the slope
    finite."""
    log_x = np.log2(np.maximum(x, 1e-300))
    rest = 1.0 - x
    log_rest = np.log2(np.maximum(rest, 1e-300))
    return -x * log_x - rest * log_rest, log_rest - log_x


def rate_per_pulse(eta, mu, mu_c, params: QkdSystemParams):
    """Vectorized asymptotic decoy-state BB84 rate in bits per pulse.

    Parameters are the mode transmissivity, the signal mean photon number
    per pulse, and the cross-talk mean photon number per pulse: eta in
    [0, 1], mu and mu_c >= 0.  Arrays broadcast elementwise.
    """
    return _decoy_rate(eta, mu, mu_c, params, slopes=False)


def rate_and_slopes(eta, mu, mu_c, params: QkdSystemParams):
    """:func:`rate_per_pulse` and its partials in ``mu`` and ``mu_c``.

    Returns ``(rate, d rate/d mu, d rate/d mu_c)``; the rate is bit for bit
    :func:`rate_per_pulse`.  The partials are closed form, chained through
    the yields and error rates with H2'(x) = log2((1 - x) / x) under the
    same 1e-300 floor as H2, so they stay finite where an error rate is 0.
    Both are 0 where the rate is clipped to 0.
    """
    return _decoy_rate(eta, mu, mu_c, params, slopes=True)


def rate_bound(eta, params: QkdSystemParams, mu_min: float, mu_max: float):
    """Upper bound on :func:`rate_per_pulse` of transmissivity ``eta`` over
    every mu in [mu_min, mu_max] and every cross-talk mu_c >= 0:

        B(eta) = sift * g * Y_1 (1 - H2(e_1)),  Y_1 and e_1 at y0 = p_dc,

    with g = max mu exp(-mu) on [mu_min, mu_max] (1/e when 1 is inside).
    This is the decoy-state single-photon term (Lo, Ma & Chen, PRL 94,
    230504, 2005) without its error-correction leakage and cross-talk.

    Proof, for eta in [0, 1].  The rate is sift * max(0, raw), raw = mu
    exp(-mu) phi - leak, with phi = Y_1 (1 - H2(e_1)) and leak = f_ec Q_mu
    H2(E_mu) >= 0.  Cross-talk enters only through the background y0 =
    p_dc + 1 - exp(-mu_c) >= p_dc.  Write Y_1 = y0 (1 - eta) + eta and
    e_1 Y_1 = y0 / 2 + e_det eta; then 1/2 - e_1 = eta (V - y0) / (2 Y_1),
    so e_1 <= 1/2 exactly when y0 <= V.

    * On p_dc <= y0 <= V, phi is non-increasing in y0.  With u = 1 - eta,
      d phi/d y0 = u (1 - H2(e_1)) - H2'(e_1) (1/2 - e_1 u), linear in u
      for any fixed e_1 in [0, 1/2].  At u = 0 it is -H2'(e_1) / 2 <= 0.
      At u = 1 it is 1 - [H2(e_1) + H2'(e_1) (1/2 - e_1)] <= 0, because
      H2 is concave and its tangent at e_1 lies above H2(1/2) = 1.  So
      rate <= sift * g * phi(p_dc) = B.
    * On y0 > V the rate is 0.  1 - H2(x) is a series in (1 - 2x)^2 with
      nonnegative coefficients summing to 1, so 1 - H2(x) <= (1 - 2x)^2
      on [0, 1].  With the clip of e_1 at 1 only moving it toward 1/2, mu
      exp(-mu) phi is at most exp(-1) (y0 - V)^2 / Y_1.  That is below
      y0: Y_1 >= y0 when y0 <= 1, and Y_1 >= 1 with (y0 - V)^2 < y0^2 <
      2 y0 when 1 < y0 < 2.  The same inequality gives H2(E_mu) >= 1 -
      (V a / (y0 + a))^2, with a = 1 - exp(-eta mu) and Q_mu = y0 + a, so
      leak >= ((y0 + a)^2 - V^2 a^2) / (y0 + a) >= y0.  So raw < 0.
    * With eta = 0, e_1 = 1/2 (or Y_1 = 0), so phi = 0 and the rate is 0.

    The bound is finite on the whole :class:`QkdSystemParams` domain.  It
    shares the kernel's Y_1 and e_1 arithmetic, with y0 computed as the
    kernel computes it at mu_c = 0, and is itself clipped at 0.  Its g is
    raised by 4 eps relative: rounded mu exp(-mu) is not monotone, and one
    ulp below a mu_max under 1 it can round one ulp above g.
    """
    eta = np.asarray(eta, dtype=float)
    _, _, y1, e1 = _single_photon(eta, 1.0, params)
    mu = min(max(1.0, mu_min), mu_max)
    gain = mu * np.exp(-mu) * (1.0 + 4.0 * np.finfo(float).eps)
    h1 = _entropy_and_slope(e1)[0]
    return params.sifting_factor * np.maximum(gain * y1 * (1.0 - h1), 0.0)


# Divisor floor, the smallest positive double.  A yield is never negative
# and a zero yield has a zero numerator, so num / max(yield, _TINY) is 0
# there and the plain quotient elsewhere.
_TINY = np.finfo(float).smallest_subnormal


def _single_photon(eta: np.ndarray, no_cross, params: QkdSystemParams):
    """The background yield y0 = p_dc + 1 - no_cross under cross-talk
    no_cross = exp(-mu_c), the misalignment error e_det, and the
    single-photon yield Y_1 and error rate e_1.  With eta in [0, 1] and
    mu_c >= 0 every numerator is >= 0, so e_1 needs only its upper clip."""
    y0 = params.dark_count + 1.0 - no_cross
    e_det = 0.5 * (1.0 - params.visibility)
    y1 = y0 + eta - y0 * eta
    e1 = np.minimum((0.5 * y0 + e_det * eta) / np.maximum(y1, _TINY), 1.0)
    return y0, e_det, y1, e1


def _decoy_rate(eta, mu, mu_c, params: QkdSystemParams, slopes: bool):
    """The rate per pulse and, with ``slopes``, its partials in mu and mu_c."""
    eta = np.asarray(eta, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mu_c = np.asarray(mu_c, dtype=float)

    no_cross = np.exp(-mu_c)
    y0, e_det, y1, e1 = _single_photon(eta, no_cross, params)
    e0 = 0.5
    f_ec = params.error_correction_factor

    decay = np.exp(-eta * mu)
    q_mu = y0 + 1.0 - decay
    e_mu = np.minimum((e0 * y0 + e_det * (1.0 - decay)) / np.maximum(q_mu, _TINY), 1.0)
    poisson0 = np.exp(-mu)
    q1 = mu * poisson0 * y1
    (h1, slope1), (h_mu, slope_mu) = _entropy_and_slope(e1), _entropy_and_slope(e_mu)
    raw = q1 * (1.0 - h1) - f_ec * q_mu * h_mu
    rate = params.sifting_factor * np.maximum(raw, 0.0)
    if not slopes:
        return rate
    # Free what the slopes do not read: a batched call holds many arrays
    # of the full (points x modes) size at once.
    lit = raw > 0.0
    del y0, q_mu, q1, raw

    # dQ_mu/dmu = eta exp(-eta mu), dQ_mu/dmu_c = dY_0/dmu_c = exp(-mu_c),
    # dY_1/dmu_c = (1 - eta) exp(-mu_c); Q_mu dE_mu and Q_1 de_1 are
    # written without their divisions.
    d_mu = (1.0 - mu) * poisson0 * y1 * (1.0 - h1) - f_ec * eta * decay * (
        h_mu + slope_mu * (e_det - e_mu)
    )
    d_mu_c = mu * poisson0 * no_cross * (
        (1.0 - eta) * (1.0 - h1) - slope1 * (e0 - e1 * (1.0 - eta))
    ) - f_ec * no_cross * (h_mu + slope_mu * (e0 - e_mu))
    sift = params.sifting_factor
    return rate, sift * np.where(lit, d_mu, 0.0), sift * np.where(lit, d_mu_c, 0.0)
