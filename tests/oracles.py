"""Independent reference computations the tests compare the package against.

Everything here is deliberately written through a different route than the
library code: scipy special functions instead of the in-package recurrences,
direct grid sums instead of analytic coefficient formulas, FFT beam
propagation instead of the reduced per-axis overlap integrals, and a plain
4-D tensor-product cubature instead of the factorized moment contraction.
"""

import math

import numpy as np
import scipy.special


def lg_field(p: int, l: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Laguerre-Gauss mode sampled on a grid, unit scale, unit L2 norm.

    LG_{p,l}(r, theta) = sqrt(p! / (pi (p+|l|)!)) r^|l| L_p^{|l|}(r^2)
                         exp(-r^2/2) exp(i l theta),
    with theta measured from +x toward +y.
    """
    r2 = x * x + y * y
    theta = np.arctan2(y, x)
    al = abs(l)
    norm = math.sqrt(
        math.factorial(p) / (math.pi * math.factorial(p + al))
    )
    radial = scipy.special.eval_genlaguerre(p, al, r2)
    return (
        norm
        * np.sqrt(r2) ** al
        * radial
        * np.exp(-0.5 * r2)
        * np.exp(1j * l * theta)
    )


def hg_field(n: int, m: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hermite-Gauss mode sampled on a grid, unit scale, unit L2 norm."""

    def axis(k: int, u: np.ndarray) -> np.ndarray:
        norm = 1.0 / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
        return norm * scipy.special.eval_hermite(k, u) * np.exp(-0.5 * u * u)

    return axis(n, x) * axis(m, y)


def lg_hg_overlap_matrix(order: int, grid: int = 512, half: float = 8.0) -> np.ndarray:
    """Coefficients of each same-order LG mode over the HG modes by grid sums.

    Row i is LG mode (p, l) with l ascending; column n is HG_{n, order-n}.
    The equispaced sum converges spectrally for these smooth decaying
    fields, so ``grid`` = 512 on [-8, 8]^2 is far below 1e-6 error.
    """
    axis_pts = np.linspace(-half, half, grid)
    dx = axis_pts[1] - axis_pts[0]
    x, y = np.meshgrid(axis_pts, axis_pts, indexing="ij")
    hgs = np.stack([hg_field(n, order - n, x, y) for n in range(order + 1)])
    out = np.empty((order + 1, order + 1), dtype=complex)
    row = 0
    for l in range(-order, order + 1, 2):
        p = (order - abs(l)) // 2
        lg = lg_field(p, l, x, y)
        out[row] = np.sum(lg[None, :, :] * np.conj(hgs), axis=(1, 2)) * dx * dx
        row += 1
    return out


def tensor_gl_4d(f, box, order: int) -> complex:
    """Tensor-product Gauss-Legendre rule over a 4-D box, summed point by point.

    ``f`` takes four equal-shape arrays and evaluates elementwise; ``box``
    holds four (lo, hi) intervals.  The sum runs in slabs over the first
    axis so the working set stays at order^3 points.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    (x1, w1), (x2, w2), (x3, w3), (x4, w4) = (
        (lo + 0.5 * (hi - lo) * (nodes + 1.0), 0.5 * (hi - lo) * weights)
        for lo, hi in box
    )
    g2, g3, g4 = np.meshgrid(x2, x3, x4, indexing="ij")
    w234 = w2[:, None, None] * w3[None, :, None] * w4[None, None, :]
    total = 0.0 + 0.0j
    for x, w in zip(x1, w1):
        total += w * np.sum(np.asarray(f(np.full_like(g2, x), g2, g3, g4)) * w234)
    return complex(total)


def fb_axis_fft(
    d: int,
    n_grid: int,
    wavelength: float,
    path_length: float,
    side: float,
    window: float = 4.0,
    samples: int = 1 << 21,
) -> float:
    """Per-axis focused-beam capture fraction by direct Fresnel propagation.

    A one-dimensional flat-top field of width ``side`` carrying the
    quadratic focusing phase toward the axis is propagated with the
    single-FFT Fresnel method, and the arriving intensity is summed over
    the receiver bucket displaced by ``d`` pixel pitches.
    """
    k = 2.0 * math.pi / wavelength
    dx = window / samples
    x = (np.arange(samples) - samples // 2) * dx
    field = np.where(np.abs(x) <= side / 2.0, 1.0 / math.sqrt(side), 0.0).astype(
        complex
    )
    field *= np.exp(-1j * k * x * x / (2.0 * path_length))
    # Fresnel kernel: quadratic input chirp, FFT, output plane x' = lam L nu.
    spectrum = np.fft.fft(field * np.exp(1j * k * x * x / (2.0 * path_length)))
    spectrum = np.fft.fftshift(spectrum) * dx
    nu = np.fft.fftshift(np.fft.fftfreq(samples, d=dx))
    x_out = wavelength * path_length * nu
    intensity = np.abs(spectrum) ** 2 / (wavelength * path_length)
    pitch = side / n_grid
    lo = (d - 0.5) * pitch
    hi = (d + 0.5) * pitch
    dxo = x_out[1] - x_out[0]
    # Midpoint sum with exact fractional coverage of the edge cells.
    cover = np.minimum(hi, x_out + 0.5 * dxo) - np.maximum(lo, x_out - 0.5 * dxo)
    cover = np.clip(cover, 0.0, dxo)
    return float(np.sum(intensity * cover))


def decoy_rate_reference(
    eta: float,
    mu: float,
    mu_c: float,
    visibility: float,
    dark_count: float,
    f_ec: float,
    sift: float,
) -> float:
    """Scalar reimplementation of the asymptotic decoy-state BB84 rate."""

    def h2(p: float) -> float:
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)

    y0 = dark_count + 1.0 - math.exp(-mu_c)
    e_det = 0.5 * (1.0 - visibility)
    q_mu = y0 + 1.0 - math.exp(-eta * mu)
    e_mu = 0.0 if q_mu == 0.0 else (0.5 * y0 + e_det * (1.0 - math.exp(-eta * mu))) / q_mu
    y1 = y0 + eta - y0 * eta
    q1 = mu * math.exp(-mu) * y1
    e1 = 0.0 if y1 == 0.0 else (0.5 * y0 + e_det * eta) / y1
    raw = q1 * (1.0 - h2(min(e1, 1.0))) - f_ec * q_mu * h2(min(e_mu, 1.0))
    return sift * max(0.0, raw)
