"""Turbulent-channel mode couplings via the mutual coherence function.

The turbulent channel is modeled by multiplying the vacuum two-point
kernel product by exp(-D/2), where D is the two-plane wave structure
function.  Two structure-function models are supported:

* the Kolmogorov 5/3 law, with its path integral evaluated by nested
  quadrature, and
* its square-law approximation D = (|dr'|^2 + dr'.dr + |dr|^2) / rho_0^2,
  which factorizes the four-dimensional coupling integrals into products
  of per-axis Hermite-Gauss second moments and is what every coupling
  matrix here is built from.

With the square-law model every average transmissivity between LG modes
reduces to sums of products of two 4-D integrals, one per transverse
axis.  Rotating each axis to sum/difference coordinates makes the
integrand a product of pairwise factors, so the tensor-product
Gauss-Legendre rule can be evaluated by matrix contractions instead of
enumerating the full 4-D grid; the summation is identical, only cheaper.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .channel import DerivedChannel, HardSquare, SoftGaussian
from .numerics import (
    QuadratureError,
    gauss_legendre,
    hg_sample,
    integrate_1d,
    lg_hg_unitary,
)
from .vacuum import (
    CouplingMatrix,
    FBPixel,
    fb_coupling_matrix,
    lg_mode_scale,
    lg_modes_up_to,
    lg_vacuum_eta,
)

__all__ = [
    "StructureFunctionKind",
    "QuadSpec",
    "structure_fn",
    "gaussian_pib_turb",
    "gaussian_pib_53",
    "hg_second_moment",
    "lg_turb_matrix",
    "fb_turb_eta",
    "fb_turb_matrix",
]


class StructureFunctionKind(enum.Enum):
    FIVE_THIRDS = "five-thirds"
    SQUARE_LAW = "square-law"


@dataclass(frozen=True)
class QuadSpec:
    """Convergence policy for the 4-D second-moment quadrature.

    The tensor Gauss-Legendre rule starts at ``base_order`` points per
    axis and is accepted once doubling the order moves the result by less
    than ``rel_tol * |value| + abs_floor``.  The additive floor matters
    for couplings that vanish by orthogonality, where only roundoff-level
    absolute agreement is attainable.
    """

    base_order: int = 48
    rel_tol: float = 1e-6
    abs_floor: float = 1e-13
    max_doublings: int = 3

    def __post_init__(self) -> None:
        if self.base_order < 4:
            raise ValueError(f"base order too small: {self.base_order}")
        if self.rel_tol <= 0 or self.abs_floor < 0:
            raise ValueError("tolerances must be positive")
        if self.max_doublings < 1:
            raise ValueError("need at least one doubling for the convergence check")


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
    (|d_out|^2 + d_out . d_in + |d_in|^2) / rho_0^2.
    """
    ox, oy = float(d_out[0]), float(d_out[1])
    ix, iy = float(d_in[0]), float(d_in[1])
    if ch.cn2 == 0.0:
        return 0.0
    if kind is StructureFunctionKind.SQUARE_LAW:
        quad_form = (ox * ox + oy * oy) + (ox * ix + oy * iy) + (ix * ix + iy * iy)
        return quad_form / ch.coherence_length ** 2
    if kind is StructureFunctionKind.FIVE_THIRDS:
        def integrand(xi: float) -> float:
            vx = ox * xi + ix * (1.0 - xi)
            vy = oy * xi + iy * (1.0 - xi)
            return (vx * vx + vy * vy) ** (5.0 / 6.0)

        path = integrate_1d(integrand, 0.0, 1.0, rel_tol=1e-9, abs_tol=1e-30)
        return 2.91 * ch.wave_number ** 2 * ch.cn2 * ch.path_length * path
    raise ValueError(f"unknown structure function kind: {kind!r}")


# --------------------------------------------------------------------------
# Gaussian-beam power in the bucket
# --------------------------------------------------------------------------


def gaussian_pib_turb(ch: DerivedChannel) -> float:
    """Average captured power of the focused fundamental Gaussian beam.

    Square-law closed form:

        <eta> = eta0_vac * T / (T + (R / rho_0)^2),
        T = 1 + 4 D_f + sqrt(1 + 4 D_f).

    Reduces to the vacuum fundamental-mode transmissivity as cn2 -> 0.
    """
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("Gaussian power-in-bucket requires soft Gaussian pupils")
    eta0 = lg_vacuum_eta(1, ch.fresnel_product)
    if ch.cn2 == 0.0:
        return eta0
    df = ch.fresnel_product
    tee = 1.0 + 4.0 * df + math.sqrt(1.0 + 4.0 * df)
    ratio2 = (ch.pupil.radius / ch.coherence_length) ** 2
    return eta0 * tee / (tee + ratio2)


def gaussian_pib_53(ch: DerivedChannel, quad: Optional[QuadSpec] = None) -> float:
    """Average captured power of the focused Gaussian under the 5/3 law.

    Because both receiver-plane field points of the power integral
    coincide, the 8-D coupling average collapses: the sum coordinates and
    the receiver coordinate integrate in closed form (they are Gaussian),
    leaving one radial integral over the transmitter-plane difference
    whose integrand carries exp(-D_{5/3}(0, r)/2) with the structure
    function's path integral evaluated by nested quadrature:

        <eta> = C * 2 pi * integral_0^inf r exp(-beta r^2) exp(-D(0,r)/2) dr.

    With the square-law model in place of the 5/3 law this reduction
    reproduces the closed form of :func:`gaussian_pib_turb` exactly.
    """
    if not isinstance(ch.pupil, SoftGaussian):
        raise ValueError("Gaussian power-in-bucket requires soft Gaussian pupils")
    rel = (quad or QuadSpec()).rel_tol * 1e-2
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

    def integrand(r: float) -> float:
        d_half = 0.5 * structure_fn(
            StructureFunctionKind.FIVE_THIRDS, (0.0, 0.0), (r, 0.0), ch
        )
        return r * math.exp(-beta * r * r - d_half)

    r_max = math.sqrt(60.0 / beta)
    radial = integrate_1d(integrand, 0.0, r_max, rel_tol=rel, abs_tol=1e-30)
    return prefactor * 2.0 * math.pi * radial


# --------------------------------------------------------------------------
# Hermite-Gauss second moments (square-law model, Gaussian pupils)
# --------------------------------------------------------------------------


class _MomentEngine:
    """Evaluates and caches per-axis HG second moments for one channel.

    In sum/difference coordinates (S, d) at the transmitter and (S', d')
    at the receiver the integrand factorizes as

        G1(S, d) G2(S', d') T(d, d') exp(-i k S d'/L) exp(-i k S' d/L) / (lam L),

    where G1 and G2 collect the Hermite polynomials and Gaussian
    envelopes of one plane and T is the square-law turbulence coupling
    exp(-(d^2 + d d' + d'^2) / (2 rho_0^2)).  The tensor Gauss-Legendre
    sum then contracts in O(order^3) operations.
    """

    def __init__(self, ch: DerivedChannel, quad: QuadSpec):
        if not isinstance(ch.pupil, SoftGaussian):
            raise ValueError("HG second moments require soft Gaussian pupils")
        self.ch = ch
        self.quad = quad
        self.sigma = lg_mode_scale(ch)
        radius = ch.pupil.radius
        self.alpha = 1.0 / radius ** 2 + 1.0 / (2.0 * self.sigma ** 2)
        self.k_over_l = ch.wave_number / ch.path_length
        rho0 = ch.coherence_length
        self.inv_rho2 = 0.0 if math.isinf(rho0) else 1.0 / rho0 ** 2
        self.prefactor = 1.0 / (ch.wavelength * ch.path_length)
        self._cache: Dict[Tuple[int, int, int, int], complex] = {}

    # -- geometry -----------------------------------------------------
    def _sum_halfwidth(self, n_max: int) -> float:
        gauss = 1.0 / (2.0 * math.sqrt(self.alpha))
        return gauss * (6.0 + math.sqrt(2.0 * n_max + 1.0))

    def _diff_halfwidth(self, n_max: int) -> float:
        gauss = 1.0 / math.sqrt(self.alpha + self.inv_rho2)
        return gauss * (6.0 + math.sqrt(2.0 * n_max + 1.0))

    def _plane_factor(
        self, idx_hi: int, idx_lo: int, s_nodes: np.ndarray, d_nodes: np.ndarray
    ) -> np.ndarray:
        """G(S, d) = c_a c_b H_a((S+d/2)/sig) H_b((S-d/2)/sig) e^{-alpha(2S^2+d^2/2)}.

        Written through orthonormal HG samples so high orders stay finite:
        with u± = (S ± d/2)/sigma, 2S^2 + d^2/2 = sigma^2 (u+^2 + u-^2), so
        the envelope splits into the samples' own Gaussians times the
        residual soft-pupil weight exp(-(alpha sigma^2 - 1/2)(u+^2 + u-^2)).
        """
        uplus = (s_nodes[:, None] + 0.5 * d_nodes[None, :]) / self.sigma
        uminus = (s_nodes[:, None] - 0.5 * d_nodes[None, :]) / self.sigma
        soft = self.alpha * self.sigma ** 2 - 0.5
        env = np.exp(-soft * (uplus * uplus + uminus * uminus))
        return hg_sample(idx_hi, uplus) * hg_sample(idx_lo, uminus) * env / self.sigma

    def _evaluate(self, a: int, b: int, c: int, d: int, order: int) -> complex:
        n_in = max(a, b)
        n_out = max(c, d)
        s_in, w_s_in = gauss_legendre(
            -self._sum_halfwidth(n_in), self._sum_halfwidth(n_in), order
        )
        d_in, w_d_in = gauss_legendre(
            -self._diff_halfwidth(n_in), self._diff_halfwidth(n_in), order
        )
        s_out, w_s_out = gauss_legendre(
            -self._sum_halfwidth(n_out), self._sum_halfwidth(n_out), order
        )
        d_out, w_d_out = gauss_legendre(
            -self._diff_halfwidth(n_out), self._diff_halfwidth(n_out), order
        )

        g_in = self._plane_factor(a, b, s_in, d_in)
        g_out = self._plane_factor(c, d, s_out, d_out)
        phase_in = np.exp(-1j * self.k_over_l * np.outer(s_in, d_out))
        phase_out = np.exp(-1j * self.k_over_l * np.outer(s_out, d_in))

        # A(d, d') = sum_S w_S G1(S, d) e^{-i k S d'/L}, and
        # B(d, d') = sum_S' w_S' G2(S', d') e^{-i k S' d/L}.
        a_fac = (g_in * w_s_in[:, None]).T @ phase_in
        b_fac = (phase_out * w_s_out[:, None]).T @ g_out

        turb = np.exp(
            -(
                d_in[:, None] ** 2
                + np.outer(d_in, d_out)
                + d_out[None, :] ** 2
            )
            * (0.5 * self.inv_rho2)
        )
        inner = turb * a_fac * b_fac
        return self.prefactor * complex(w_d_in @ inner @ w_d_out)

    def moment(self, a: int, b: int, c: int, d: int) -> complex:
        for idx in (a, b, c, d):
            if idx < 0:
                raise ValueError("HG indices must be >= 0")
        if (a + b + c + d) % 2:
            return 0.0 + 0.0j
        # Conjugation and transmit/receive-exchange symmetries of the kernel.
        variants = [
            ((a, b, c, d), False),
            ((b, a, d, c), True),
            ((c, d, a, b), False),
            ((d, c, b, a), True),
        ]
        key, conjugate = min(variants, key=lambda kv: kv[0])
        if key not in self._cache:
            self._cache[key] = self._converged(*key)
        val = self._cache[key]
        return val.conjugate() if conjugate else val

    def _converged(self, a: int, b: int, c: int, d: int) -> complex:
        # High-index HG samples oscillate with ~sqrt(2n+1) periods across
        # their support, so the starting order grows with the indices.
        order = self.quad.base_order + 3 * (max(a, b) + max(c, d))
        coarse = self._evaluate(a, b, c, d, order)
        for _ in range(self.quad.max_doublings):
            order *= 2
            fine = self._evaluate(a, b, c, d, order)
            if abs(fine - coarse) <= self.quad.rel_tol * abs(fine) + self.quad.abs_floor:
                return fine
            coarse = fine
        raise QuadratureError(
            f"second moment ({a},{b};{c},{d}) did not converge by order {order}"
        )


@functools.lru_cache(maxsize=8)
def _engine(ch: DerivedChannel, quad: QuadSpec) -> _MomentEngine:
    return _MomentEngine(ch, quad)


def hg_second_moment(
    a_in: int,
    b_in: int,
    a_out: int,
    b_out: int,
    ch: DerivedChannel,
    quad: Optional[QuadSpec] = None,
) -> complex:
    """Per-axis HG second moment under the square-law turbulence model.

    M(a_in, b_in; a_out, b_out) is the four-point average coupling one
    transverse axis contributes; the 2-D mode-to-mode average power
    coupling of HG modes is M_x * M_y with the respective index pairs.
    In vacuum M is diagonal: M(a, b; a, b) = s_a s_b* with per-axis
    singular values |s_n| = base^{(2n+1)/4}.
    """
    return _engine(ch, quad or QuadSpec()).moment(a_in, b_in, a_out, b_out)


def lg_turb_matrix(
    q_max: int,
    ch: DerivedChannel,
    quad: Optional[QuadSpec] = None,
    q_cap: int = 8,
    imag_tol: float = 1e-8,
) -> CouplingMatrix:
    """Average power coupling matrix of all LG modes with order <= q_max.

    Each LG mode is expanded over same-order HG modes with the basis
    change unitary; the average coupling between LG modes then assembles
    from per-axis second moments:

        <eta_{q -> q'}> = sum_{a b c d} U_a U_b* W_c* W_d
                          M(a, b; c, d) M(N-a, N-b; N'-c, N'-d),

    with N, N' the total orders and U, W the coefficient rows of the two
    modes.  Entries are clamped to [0, 1]; imaginary residues beyond
    ``imag_tol`` raise.  ``q_cap`` bounds the quadrature cost: the number
    of distinct 4-D integrals grows as the fourth power of the order.
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    if q_max > q_cap:
        raise ValueError(f"q_max {q_max} exceeds the configured cap {q_cap}")
    eng = _engine(ch, quad or QuadSpec())
    modes = lg_modes_up_to(q_max)
    span = range(q_max)
    # Every per-axis moment with indices below q_max, M(a, b; c, d) = mom[a, b, c, d].
    mom = np.reshape(
        [eng.moment(*abcd) for abcd in itertools.product(span, repeat=4)], (q_max,) * 4
    )
    rows = [slice(n * (n + 1) // 2, (n + 1) * (n + 2) // 2) for n in span]
    unitaries = [lg_hg_unitary(n).matrix for n in span]

    eta = np.zeros((len(modes), len(modes)))
    worst_imag = 0.0
    for n_in, u_in in enumerate(unitaries):
        for n_out, u_out in enumerate(unitaries):
            # K[a, b, c, d] = M(a, b; c, d) M(N-a, N-b; N'-c, N'-d).
            k_tensor = (
                mom[: n_in + 1, : n_in + 1, : n_out + 1, : n_out + 1]
                * mom[n_in::-1, n_in::-1, n_out::-1, n_out::-1]
            )
            block = np.einsum(
                "ia,ib,jc,jd,abcd->ij",
                u_in,
                u_in.conj(),
                u_out.conj(),
                u_out,
                k_tensor,
                optimize=True,
            )
            worst_imag = max(worst_imag, float(np.max(np.abs(block.imag))))
            eta[rows[n_in], rows[n_out]] = block.real

    if worst_imag > imag_tol:
        raise QuadratureError(
            f"LG coupling entries retain imaginary residue {worst_imag:.3e}"
        )
    provenance = "vacuum" if ch.cn2 == 0.0 else "square-law"
    return CouplingMatrix(modes=modes, eta=eta, provenance=provenance)


# --------------------------------------------------------------------------
# Focused-beam couplings under turbulence
# --------------------------------------------------------------------------


def _fb_axis_turb(d: int, n_grid: int, ch: DerivedChannel) -> float:
    """Per-axis average coupling factor for pixel-index difference d.

    I(d) = 2c * integral_0^1 (1 - xi) sinc(pi c xi) exp(-xi^2 s^2 / 2 rho_0^2)
           cos(2 pi c xi d) dxi,  c = sqrt(D_f) / N.

    Reduces to the vacuum factor when rho_0 is infinite.
    """
    pupil = ch.pupil
    assert isinstance(pupil, HardSquare)
    c = math.sqrt(ch.fresnel_product) / n_grid
    rho0 = ch.coherence_length
    damp = 0.0 if math.isinf(rho0) else (pupil.side / rho0) ** 2 / 2.0

    def integrand(xi: float) -> float:
        return (
            (1.0 - xi)
            * np.sinc(c * xi)
            * math.exp(-damp * xi * xi)
            * math.cos(2.0 * math.pi * c * xi * d)
        )

    return 2.0 * c * integrate_1d(integrand, 0.0, 1.0, rel_tol=1e-11, abs_tol=1e-16)


def fb_turb_eta(pixel_from: FBPixel, pixel_to: FBPixel, ch: DerivedChannel) -> float:
    """Average power coupling between focused-beam pixels under turbulence."""
    if not isinstance(ch.pupil, HardSquare):
        raise ValueError("focused-beam modes require hard square pupils")
    if pixel_from.grid != pixel_to.grid:
        raise ValueError("pixels belong to different grids")
    n_grid = pixel_from.grid
    return _fb_axis_turb(abs(pixel_from.n - pixel_to.n), n_grid, ch) * _fb_axis_turb(
        abs(pixel_from.m - pixel_to.m), n_grid, ch
    )


def fb_turb_matrix(n_grid: int, ch: DerivedChannel) -> CouplingMatrix:
    """Average coupling matrix over the N x N focused-beam set."""
    if not isinstance(ch.pupil, HardSquare):
        raise ValueError("focused-beam modes require hard square pupils")
    axis = np.array([_fb_axis_turb(d, n_grid, ch) for d in range(n_grid)])
    return fb_coupling_matrix(axis, "vacuum" if ch.cn2 == 0.0 else "square-law")
