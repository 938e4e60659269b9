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
    inner = np.clip(xa, 1e-300, 1.0)
    outer = np.clip(1.0 - xa, 1e-300, 1.0)
    val = -xa * np.log2(inner) - (1.0 - xa) * np.log2(outer)
    if np.isscalar(x) or getattr(x, "ndim", None) == 0:
        return float(val)
    return val


def rate_per_pulse(eta, mu, mu_c, params: QkdSystemParams):
    """Vectorized asymptotic decoy-state BB84 rate in bits per pulse.

    Parameters are the mode transmissivity, the signal mean photon number
    per pulse, and the cross-talk mean photon number per pulse.  Arrays
    broadcast elementwise.
    """
    eta = np.asarray(eta, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mu_c = np.asarray(mu_c, dtype=float)

    y0 = params.dark_count + 1.0 - np.exp(-mu_c)
    e_det = 0.5 * (1.0 - params.visibility)
    e0 = 0.5

    q_mu = y0 + 1.0 - np.exp(-eta * mu)
    with np.errstate(invalid="ignore", divide="ignore"):
        e_mu = np.where(
            q_mu > 0.0,
            (e0 * y0 + e_det * (1.0 - np.exp(-eta * mu))) / np.where(q_mu > 0, q_mu, 1.0),
            0.0,
        )
        y1 = y0 + eta - y0 * eta
        q1 = mu * np.exp(-mu) * y1
        e1 = np.where(
            y1 > 0.0, (e0 * y0 + e_det * eta) / np.where(y1 > 0, y1, 1.0), 0.0
        )
    raw = q1 * (1.0 - binary_entropy(np.clip(e1, 0.0, 1.0))) - (
        params.error_correction_factor * q_mu * binary_entropy(np.clip(e_mu, 0.0, 1.0))
    )
    return params.sifting_factor * np.maximum(raw, 0.0)
