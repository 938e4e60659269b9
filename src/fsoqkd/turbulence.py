"""Turbulent-channel mode couplings via the mutual coherence function.

The turbulent channel is modeled by multiplying the vacuum two-point
kernel product by exp(-D/2), where D is the two-plane wave structure
function.  Two structure-function models are supported:

* the Kolmogorov 5/3 law, whose path integral is evaluated on the
  package's Gauss-Legendre rule (closed form for the power in the bucket), and
* its square-law approximation D = (|dr'|^2 + dr'.dr + |dr|^2) / rho_0^2,
  which factorizes the four-dimensional coupling integrals into products
  of per-axis Hermite-Gauss second moments and is what every coupling
  matrix here is built from.  The flat-top per-axis factor is
  :func:`fsoqkd.vacuum.fb_axis` at every cn2 (its damping is 0 in vacuum).

With the square-law model every average transmissivity between LG modes
reduces to sums of products of two 4-D integrals, one per transverse
axis.  On one axis, with transmitter points x1, x2, receiver points y1, y2
and sigma the LG mode scale, the scaled variables
u = (x1, x2, y1, y2) / sigma turn the integrand into four orthonormal HG
samples psi_a(u1) psi_b(u2) psi_c(u3) psi_d(u4) times a complex Gaussian.
Together with the samples' own envelopes the exponent is -u.P u / 2 with
the complex symmetric 4 x 4 matrix

    P = 2 alpha sigma^2 I + (sigma^2 / rho_0^2) (w w^T + v v^T + (w v^T + v w^T) / 2)
        + i (k sigma^2 / L) (E_02 + E_20 - E_13 - E_31),

where alpha = 1/R^2 + 1/(2 sigma^2), w = (1, -1, 0, 0), v = (0, 0, 1, -1)
and E_ij is the matrix with a single one at (i, j).  The rho_0 term is
the square-law structure function of the differences x1 - x2 and y1 - y2;
the imaginary term is the cross-plane phase of the focused vacuum kernel.
The HG generating function

    sum_n psi_n(u) t^n / sqrt(n!) = pi^(-1/4) exp(-u^2/2 + sqrt(2) t u - t^2/2)

turns the integral into a Gaussian one, so

    sum_k M[k] t^k / sqrt(k!) = M[0, 0, 0, 0] exp(t.Q t / 2),  Q = 2 P^-1 - I,
    M[0, 0, 0, 0] = 4 pi sigma^2 / (lam L sqrt(det P)),

with sqrt(det P) the product of the principal roots of P's eigenvalues
(all have positive real parts).  Differentiating the generating function
gives the recurrence

    sqrt(k_i) M[k] = sum_j Q_ij sqrt(k_j - delta_ij) M[k - e_i - e_j],

which fills the whole moment tensor without quadrature; odd total orders
vanish exactly.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence, Tuple, Union

import numpy as np

from .channel import DerivedChannel, SoftGaussian
from .numerics import QuadratureError, integrate_1d, lg_hg_unitary
# Unused here; the benchmark tracer wraps fsoqkd.turbulence.hg_sample by name.
from .numerics import hg_sample  # noqa: F401
from .vacuum import (
    CouplingMatrix,
    FBPixel,
    fb_axis,
    fb_coupling_matrix,
    lg_mode_scale,
    lg_modes_up_to,
    lg_vacuum_eta,
)

__all__ = [
    "StructureFunctionKind",
    "structure_fn",
    "gaussian_pib_turb",
    "gaussian_pib_53",
    "hg_second_moments",
    "lg_turb_matrix",
    "fb_turb_eta",
    "fb_turb_matrix",
]


class StructureFunctionKind(enum.Enum):
    FIVE_THIRDS = "five-thirds"
    SQUARE_LAW = "square-law"


def structure_fn(
    kind: StructureFunctionKind,
    d_out: Tuple[float, float],
    d_in: Tuple[float, float],
    ch: DerivedChannel,
) -> float:
    """Two-plane wave structure function D(d_out, d_in).

    ``d_out`` is the receiver-plane point difference and ``d_in`` the
    transmitter-plane one (both 2-vectors in meters).  The 5/3-law form is

        D = 2.91 k^2 cn2 L * integral_0^1 |d_out xi + d_in (1 - xi)|^(5/3) dxi,

    and the square-law approximation replaces it with
    (|d_out|^2 + d_out . d_in + |d_in|^2) / rho_0^2.  Both are exactly
    0.0 in vacuum: the 5/3 law carries the factor cn2 = 0 and the square
    law divides by rho_0^2 = inf.
    """
    ox, oy = float(d_out[0]), float(d_out[1])
    ix, iy = float(d_in[0]), float(d_in[1])
    if kind is StructureFunctionKind.SQUARE_LAW:
        quad_form = (ox * ox + oy * oy) + (ox * ix + oy * iy) + (ix * ix + iy * iy)
        return quad_form / ch.coherence_length ** 2
    if kind is StructureFunctionKind.FIVE_THIRDS:
        # The path point is d_in + (d_out - d_in) xi; splitting at its closest
        # approach to the origin puts the kink of |.|^(5/3) on an interval end.
        dx, dy = ox - ix, oy - iy
        span = dx * dx + dy * dy
        xi0 = min(max(-(ix * dx + iy * dy) / span, 0.0), 1.0) if span > 0.0 else 0.0

        def integrand(rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
            vx = ix + dx * xi
            vy = iy + dy * xi
            return (vx * vx + vy * vy) ** (5.0 / 6.0)

        halves = integrate_1d(integrand, [0.0, xi0], [xi0, 1.0], rel_tol=1e-9)
        path = halves[0] + halves[1]
        return 2.91 * ch.wave_number ** 2 * ch.cn2 * ch.path_length * float(path)
    raise ValueError(f"unknown structure function kind: {kind!r}")


# --------------------------------------------------------------------------
# Gaussian-beam power in the bucket
# --------------------------------------------------------------------------


def gaussian_pib_turb(ch: DerivedChannel) -> float:
    """Average captured power of the focused fundamental Gaussian beam.

    Square-law closed form:

        <eta> = eta0_vac * T / (T + (R / rho_0)^2),
        T = 1 + 4 D_f + sqrt(1 + 4 D_f).

    In vacuum rho_0 = inf makes the ratio T / T = 1.0 exactly, so the
    result is the vacuum fundamental-mode transmissivity to the bit.
    """
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("Gaussian power-in-bucket requires soft Gaussian pupils")
    df = ch.fresnel_product
    eta0 = lg_vacuum_eta(1, df)
    tee = 1.0 + 4.0 * df + math.sqrt(1.0 + 4.0 * df)
    ratio2 = (ch.pupil.radius / ch.coherence_length) ** 2
    return eta0 * (tee / (tee + ratio2))


def gaussian_pib_53(
    ch: Union[DerivedChannel, Sequence[DerivedChannel]],
) -> Union[float, np.ndarray]:
    """Average captured power of the focused Gaussian under the 5/3 law.

    Because both receiver-plane field points of the power integral
    coincide, the 8-D coupling average collapses: the sum coordinates and
    the receiver coordinate integrate in closed form (they are Gaussian),
    leaving one radial integral over the transmitter-plane difference:

        <eta> = C * 2 pi * integral_0^inf r exp(-beta r^2) exp(-D(0,r)/2) dr.

    The structure function's path integral is closed form there,
    integral_0^1 (r (1 - xi))^(5/3) dxi = (3/8) r^(5/3), so
    D(0, r) = 2.91 (3/8) k^2 cn2 L r^(5/3), the spherical-wave structure
    function.  The substitution r = s^3 makes the radial integrand smooth.
    With the square-law model in place of the 5/3 law this reduction
    reproduces the closed form of :func:`gaussian_pib_turb` exactly.

    One channel gives a float.  A sequence of channels gives a (P,) array
    from one quadrature call, each entry the same bit for bit as its
    channel alone.
    """
    chans = [ch] if isinstance(ch, DerivedChannel) else list(ch)
    prefactor, beta, half_strength, s_max = np.array([_pib_53_terms(c) for c in chans]).T

    def integrand(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        # r dr = 3 s^5 ds, and r^(5/3) = s^5.
        s5 = s ** 5
        return 3.0 * s5 * np.exp(-beta[rows, None] * s5 * s - half_strength[rows, None] * s5)

    radial = integrate_1d(integrand, np.zeros(len(chans)), s_max, rel_tol=1e-12)
    eta = prefactor * 2.0 * math.pi * radial
    return float(eta[0]) if isinstance(ch, DerivedChannel) else eta


def _pib_53_terms(ch: DerivedChannel) -> Tuple[float, float, float, float]:
    """(C, beta, half the 5/3 strength, radial cutoff in s) of one channel
    for :func:`gaussian_pib_53`."""
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("Gaussian power-in-bucket requires soft Gaussian pupils")
    lam, big_l = ch.wavelength, ch.path_length
    r_pupil = ch.pupil.radius
    k = ch.wave_number
    sigma2 = lg_mode_scale(ch) ** 2
    beta = (
        1.0 / (2.0 * r_pupil ** 2)
        + 1.0 / (4.0 * sigma2)
        + k ** 2 * r_pupil ** 2 / (8.0 * big_l ** 2)
    )
    prefactor = (
        (1.0 / (lam * big_l)) ** 2
        * (1.0 / (math.pi * sigma2))
        * (math.pi * r_pupil ** 2 / 2.0)
        * (math.pi / (2.0 / r_pupil ** 2 + 1.0 / sigma2))
    )
    half_strength = 0.5 * 2.91 * 0.375 * k ** 2 * ch.cn2 * big_l
    return prefactor, beta, half_strength, (60.0 / beta) ** (1.0 / 6.0)


# --------------------------------------------------------------------------
# Hermite-Gauss second moments (square-law model, Gaussian pupils)
# --------------------------------------------------------------------------


def _gaussian_hermite_tensor(q: np.ndarray, shape: Tuple[int, ...], m0: complex) -> np.ndarray:
    """Coefficients M[k] of m0 * exp(t.Q t / 2) = sum_k M[k] t^k / sqrt(k!).

    Fills the slabs of the leading index with the recurrence

        sqrt(k_0) M[k] = sum_j Q_0j sqrt(k_j - delta_0j) M[k - e_0 - e_j],

    starting from the k_0 = 0 slab, which is the same problem over the
    remaining indices.
    """
    if not shape:
        return np.asarray(m0, dtype=complex)
    out = np.zeros(shape, dtype=complex)
    out[0] = _gaussian_hermite_tensor(q[1:, 1:], shape[1:], m0)
    for k in range(1, shape[0]):
        acc = np.zeros(shape[1:], dtype=complex)
        if k >= 2:
            acc += q[0, 0] * math.sqrt(k - 1) * out[k - 2]
        # Term j shifts the previous slab up by one along index j.
        for j, n in enumerate(shape[1:]):
            lead = (slice(None),) * j
            root = np.sqrt(np.arange(1, n)).reshape((-1,) + (1,) * (len(shape) - 2 - j))
            shifted = out[k - 1][lead + (slice(None, -1),)]
            acc[lead + (slice(1, None),)] += q[0, j + 1] * root * shifted
        out[k] = acc / math.sqrt(k)
    return out


def hg_second_moments(ch: DerivedChannel, shape: Tuple[int, int, int, int]) -> np.ndarray:
    """Per-axis HG second moments M[a, b, c, d] for all indices below ``shape``.

    M[a, b, c, d] = M(a_in, b_in; a_out, b_out) is the four-point average
    coupling one transverse axis contributes; the 2-D mode-to-mode average
    power coupling of HG modes is M_x * M_y with the respective index
    pairs.  In vacuum M is diagonal: M[a, b, a, b] = s_a s_b* with per-axis
    singular values |s_n| = base^{(2n+1)/4}.  The tensor is evaluated in
    closed form (module docstring); odd total orders are exactly zero and
    M[a, b, c, d] == conj(M[b, a, d, c]) holds exactly.
    """
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("HG second moments require soft Gaussian pupils")
    if len(shape) != 4 or min(shape) < 1:
        raise ValueError(f"moment shape must be four sizes >= 1, got {shape!r}")
    sigma2 = lg_mode_scale(ch) ** 2
    alpha = 1.0 / ch.pupil.radius ** 2 + 1.0 / (2.0 * sigma2)
    # Vacuum's infinite coherence length gives turb = 0.0 exactly.
    turb = sigma2 / ch.coherence_length ** 2
    w_in = np.array([1.0, -1.0, 0.0, 0.0])
    w_out = np.array([0.0, 0.0, 1.0, -1.0])
    p = (2.0 * alpha * sigma2) * np.eye(4, dtype=complex) + turb * (
        np.outer(w_in, w_in)
        + np.outer(w_out, w_out)
        + 0.5 * (np.outer(w_in, w_out) + np.outer(w_out, w_in))
    )
    phase = ch.wave_number * sigma2 / ch.path_length
    p[[0, 2], [2, 0]] += 1j * phase
    p[[1, 3], [3, 1]] -= 1j * phase
    q = 2.0 * np.linalg.inv(p) - np.eye(4)
    # Every eigenvalue of P has a positive real part, so the product of
    # principal roots is the branch the Gaussian integral takes.
    sqrt_det = np.prod(np.sqrt(np.linalg.eigvals(p)))
    m0 = 4.0 * math.pi * sigma2 / (ch.wavelength * ch.path_length * sqrt_det)
    # The symmetrization below swaps a <-> b and c <-> d, so fill a tensor
    # with equal sizes within each plane and slice it afterwards.
    n_in, n_out = max(shape[:2]), max(shape[2:])
    mom = _gaussian_hermite_tensor(q, (n_in, n_in, n_out, n_out), m0)
    # Conjugation symmetry M[a, b, c, d] = conj(M[b, a, d, c]), exact by construction.
    mom = 0.5 * (mom + mom.transpose(1, 0, 3, 2).conj())
    return mom[: shape[0], : shape[1], : shape[2], : shape[3]]


# Largest imaginary residue an assembled LG coupling entry may carry.
_IMAG_TOL = 1e-8


def lg_turb_matrix(q_max: int, ch: DerivedChannel) -> CouplingMatrix:
    """Average power coupling matrix of all LG modes with order <= q_max.

    Each LG mode is expanded over same-order HG modes with the basis
    change unitary; the average coupling between LG modes then assembles
    from per-axis second moments:

        <eta_{q -> q'}> = sum_{a b c d} U_a U_b* W_c* W_d
                          M(a, b; c, d) M(N-a, N-b; N'-c, N'-d),

    with N, N' the total orders and U, W the coefficient rows of the two
    modes.  Entries are clamped to [0, 1]; imaginary residues beyond
    ``_IMAG_TOL`` raise :class:`QuadratureError`.  At cn2 = 0 it is the
    vacuum matrix to ~1e-14 relative (off-diagonal entries ~1e-16).
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    modes = lg_modes_up_to(q_max)
    span = range(q_max)
    mom = hg_second_moments(ch, (q_max,) * 4)
    rows = [slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2) for n in span]
    # Row i of pair[n] is U_a U_b* of LG mode i of order n over the pair
    # index ab, so a block is pair[N] @ K[ab, cd] @ pair[N'].conj().T.
    pair = []
    for n in span:
        u = lg_hg_unitary(n)
        pair.append((u[:, :, None] * u.conj()[:, None, :]).reshape(n + 1, -1))

    eta = np.zeros((len(modes), len(modes)))
    worst_imag = 0.0
    for n_in in span:
        for n_out in span:
            # K[a, b, c, d] = M(a, b; c, d) M(N-a, N-b; N'-c, N'-d).
            k_tensor = (
                mom[: n_in + 1, : n_in + 1, : n_out + 1, : n_out + 1]
                * mom[n_in::-1, n_in::-1, n_out::-1, n_out::-1]
            )
            k_matrix = k_tensor.reshape((n_in + 1) ** 2, (n_out + 1) ** 2)
            block = pair[n_in] @ k_matrix @ pair[n_out].conj().T
            worst_imag = max(worst_imag, float(np.max(np.abs(block.imag))))
            eta[rows[n_in], rows[n_out]] = block.real

    if worst_imag > _IMAG_TOL:
        raise QuadratureError(
            f"LG coupling entries retain imaginary residue {worst_imag:.3e}"
        )
    return CouplingMatrix(modes=modes, eta=eta)


# --------------------------------------------------------------------------
# Focused-beam couplings under turbulence
# --------------------------------------------------------------------------


def fb_turb_eta(
    pixel_from: FBPixel,
    pixel_to: FBPixel,
    ch: Union[DerivedChannel, Sequence[DerivedChannel]],
) -> Union[float, np.ndarray]:
    """Average power coupling between focused-beam pixels, the product of
    their two :func:`fb_axis` factors: a float for one channel, a (P,)
    array from one quadrature call for a sequence of channels."""
    if pixel_from.grid != pixel_to.grid:
        raise ValueError("pixels belong to different grids")
    axis = fb_axis(pixel_from.grid, ch)
    dn, dm = abs(pixel_from.n - pixel_to.n), abs(pixel_from.m - pixel_to.m)
    eta = axis[..., dn] * axis[..., dm]
    return float(eta) if isinstance(ch, DerivedChannel) else eta


def fb_turb_matrix(n_grid: int, ch: DerivedChannel) -> CouplingMatrix:
    """Average coupling matrix over the N x N focused-beam set from its
    :func:`fb_axis` factors; at cn2 = 0 it is ``fb_vacuum_matrix``."""
    return fb_coupling_matrix(fb_axis(n_grid, ch))
