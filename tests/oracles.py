"""Independent reference computations the tests compare the package against.

Everything here is deliberately written through a different route than the
library code: scipy special functions instead of the in-package recurrences,
direct grid sums instead of analytic coefficient formulas, FFT beam
propagation instead of the reduced per-axis overlap integrals, a plain
4-D tensor-product cubature instead of the factorized moment contraction,
a one-start-at-a-time coordinate ascent with a scalar line search
instead of the lockstep array search, and QUADPACK's adaptive
quadrature, one integral per value, instead of the vectorized
Gauss-Legendre rule and the closed-form 5/3 path integral.  The rate
kernel as first written is also kept here, to pin the package's leaner
one bit for bit.
"""

import math

import numpy as np
import scipy.integrate
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


def lg_hg_unitary_scalar(order: int) -> np.ndarray:
    """The closed-form LG-to-HG coefficients, one element at a time.

    Same formula and arithmetic order as ``fsoqkd.numerics.lg_hg_unitary``
    with Python integers throughout, so the two must agree bit for bit.
    """
    mat = np.zeros((order + 1, order + 1), dtype=complex)
    for row, l in enumerate(range(-order, order + 1, 2)):
        p = (order - abs(l)) // 2
        n, m = p + max(-l, 0), p + max(l, 0)
        norm = (-1.0) ** p / math.sqrt(2 ** order * math.factorial(n) * math.factorial(m))
        for k in range(order + 1):
            # [t^k] (1 - t)^n (1 + t)^m
            coeff = sum(
                (-1) ** j * math.comb(n, j) * math.comb(m, k - j)
                for j in range(max(0, k - m), min(n, k) + 1)
            )
            b = math.sqrt(math.factorial(order - k) * math.factorial(k)) * coeff * norm
            mat[row, order - k] = (1j) ** k * b
    return mat


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


def _quad(f, a: float, b: float, rel_tol: float, abs_tol: float) -> float:
    out = scipy.integrate.quad(
        f, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=200, full_output=True
    )
    if len(out) > 3:
        raise RuntimeError(f"QUADPACK failed on [{a}, {b}]: {out[3]}")
    return out[0]


def fb_axis_quadpack(d: int, n_grid: int, ch) -> float:
    """Per-axis focused-beam factor I(d), one adaptive integral per d.

    I(d) = 2c * integral_0^1 (1 - xi) sinc(c xi) exp(-xi^2 s^2 / 2 rho_0^2)
           cos(2 pi c xi d) dxi,  c = sqrt(D_f) / N.
    """
    c = math.sqrt(ch.fresnel_product) / n_grid
    rho0 = ch.coherence_length
    damp = 0.0 if math.isinf(rho0) else (ch.pupil.side / rho0) ** 2 / 2.0

    def integrand(xi: float) -> float:
        return (
            (1.0 - xi)
            * np.sinc(c * xi)
            * math.exp(-damp * xi * xi)
            * math.cos(2.0 * math.pi * c * xi * d)
        )

    return 2.0 * c * _quad(integrand, 0.0, 1.0, 1e-11, 1e-16)


def fb_axis_vacuum_overlap(d: int, n_grid: int, ch) -> float:
    """Vacuum per-axis factor as the far-field sinc^2 pattern over pixel d.

    I(d) = c * integral_{d-1/2}^{d+1/2} sinc^2(c xi) dxi,  c = sqrt(D_f) / N.
    """
    c = math.sqrt(ch.fresnel_product) / n_grid
    return c * _quad(lambda xi: np.sinc(c * xi) ** 2, d - 0.5, d + 0.5, 1e-11, 1e-16)


def gaussian_pib_53_nested(ch) -> float:
    """Focused-Gaussian power in the bucket under the 5/3 law, nested quadrature.

    The radial integral over the transmitter-plane separation r runs on
    QUADPACK with the structure function's path integral
    integral_0^1 |r (1 - xi)|^(5/3) dxi evaluated by QUADPACK at every node.
    """
    lam, big_l = ch.wavelength, ch.path_length
    r_pupil = ch.pupil.radius
    k = ch.wave_number
    r2 = r_pupil ** 2
    gamma2 = r2 / (1.0 + math.sqrt(1.0 + 4.0 * ch.fresnel_product))
    sigma2 = gamma2 * r2 / (2.0 * (r2 - gamma2))
    beta = 1.0 / (2.0 * r2) + 1.0 / (4.0 * sigma2) + k ** 2 * r2 / (8.0 * big_l ** 2)
    prefactor = (
        (1.0 / (lam * big_l)) ** 2
        * (1.0 / (math.pi * sigma2))
        * (math.pi * r2 / 2.0)
        * (math.pi / (2.0 / r2 + 1.0 / sigma2))
    )
    strength = 2.91 * k ** 2 * ch.cn2 * big_l

    def integrand(r: float) -> float:
        path = _quad(lambda xi: (r * (1.0 - xi)) ** (5.0 / 3.0), 0.0, 1.0, 1e-9, 1e-30)
        return r * math.exp(-beta * r * r - 0.5 * strength * path)

    radial = _quad(integrand, 0.0, math.sqrt(60.0 / beta), 1e-8, 1e-30)
    return prefactor * 2.0 * math.pi * radial


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



def decoy_rate_frozen(eta, mu, mu_c, params, slopes: bool):
    """The package's array rate kernel as first written, with its slopes:
    division guards by ``np.where``, error rates clipped by ``np.clip``,
    and H2 and H2' taking their own logarithms.  The leaner kernel must
    return the same bits on every valid input."""

    def entropy(x):
        return -x * np.log2(np.maximum(x, 1e-300)) - (1.0 - x) * np.log2(
            np.maximum(1.0 - x, 1e-300)
        )

    def entropy_slope(x):
        return np.log2(np.maximum(1.0 - x, 1e-300)) - np.log2(np.maximum(x, 1e-300))

    eta = np.asarray(eta, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mu_c = np.asarray(mu_c, dtype=float)

    no_cross = np.exp(-mu_c)
    y0 = params.dark_count + 1.0 - no_cross
    e_det = 0.5 * (1.0 - params.visibility)
    e0 = 0.5
    f_ec = params.error_correction_factor

    decay = np.exp(-eta * mu)
    q_mu = y0 + 1.0 - decay
    with np.errstate(invalid="ignore", divide="ignore"):
        e_mu = np.where(
            q_mu > 0.0,
            (e0 * y0 + e_det * (1.0 - decay)) / np.where(q_mu > 0, q_mu, 1.0),
            0.0,
        )
        y1 = y0 + eta - y0 * eta
        poisson0 = np.exp(-mu)
        q1 = mu * poisson0 * y1
        e1 = np.where(
            y1 > 0.0, (e0 * y0 + e_det * eta) / np.where(y1 > 0, y1, 1.0), 0.0
        )
    e1, e_mu = np.clip(e1, 0.0, 1.0), np.clip(e_mu, 0.0, 1.0)
    h1, h_mu = entropy(e1), entropy(e_mu)
    raw = q1 * (1.0 - h1) - f_ec * q_mu * h_mu
    rate = params.sifting_factor * np.maximum(raw, 0.0)
    if not slopes:
        return rate

    slope1, slope_mu = entropy_slope(e1), entropy_slope(e_mu)
    d_mu = (1.0 - mu) * poisson0 * y1 * (1.0 - h1) - f_ec * eta * decay * (
        h_mu + slope_mu * (e_det - e_mu)
    )
    d_mu_c = mu * poisson0 * no_cross * (
        (1.0 - eta) * (1.0 - h1) - slope1 * (e0 - e1 * (1.0 - eta))
    ) - f_ec * no_cross * (h_mu + slope_mu * (e0 - e_mu))
    lit = raw > 0.0
    sift = params.sifting_factor
    return rate, sift * np.where(lit, d_mu, 0.0), sift * np.where(lit, d_mu_c, 0.0)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_line_max(f, lo: float, hi: float, tol: float):
    """The package's line search on one scalar function, one probe at a time.

    ``f(x)`` returns ``(value, slope)``.  Golden-section steps shrink
    [lo, hi] to a bracket at most 0.1 (or ``tol``) wide.  Then the search
    stops at ``lo`` or ``hi`` if the slope there points out of the interval
    (a zero slope points toward the best point evaluated so far, the
    smallest of ties); otherwise a secant on the slope, through the last two
    probes, runs inside the bracket, bisecting when its step leaves the
    bracket or is more than half as long as the last step, and probing at
    least ``tol``/2 inside either end, until the bracket is <= ``tol``
    wide.  Returns the best evaluated point, the smallest of ties, and its
    value.
    """
    evaluated = []

    def value(x):
        fx = f(x)[0]
        evaluated.append((x, fx))
        return fx

    def best():
        top = max(fx for _, fx in evaluated)
        return min(x for x, fx in evaluated if fx == top), top

    def rising(x, g):
        return g > 0.0 or (g == 0.0 and best()[0] > x)

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = value(c), value(d)
    while b - a > max(tol, 0.1):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = value(d)
    if b - a > tol:
        (fa, ga), (fb, gb) = f(a), f(b)
        evaluated += [(a, fa), (b, fb)]
        if not ((a == lo and not rising(a, ga)) or (b == hi and rising(b, gb))):
            x0, g0, x1, g1 = a, ga, b, gb
            last = math.inf
            while b - a > tol:
                s = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else math.nan
                x = s if a < s < b and abs(s - x1) <= 0.5 * last else 0.5 * (a + b)
                x = min(max(x, a + 0.5 * tol), b - 0.5 * tol)
                fx, gx = f(x)
                evaluated.append((x, fx))
                if rising(x, gx):
                    a = x
                else:
                    b = x
                last = abs(x - x1)
                x0, g0, x1, g1 = x1, g1, x, gx
    return best()


def mode_space_total(matrix, mu, params) -> float:
    """Total key rate, bits/s, of the per-mode allocation ``mu``, with each
    mode's cross-talk summed in mode space by ``math.fsum`` over the other
    modes j != i; the per-mode rates are summed by ``math.fsum`` too."""
    from fsoqkd.qkd import rate_per_pulse

    eta = matrix.eta
    n = len(mu)
    cross = np.array(
        [math.fsum(mu[j] * eta[j, i] for j in range(n) if j != i) for i in range(n)]
    )
    return math.fsum(params.pulse_rate * rate_per_pulse(np.diag(eta), mu, cross, params))


def mode_space_slope(matrix, mu, members, params) -> float:
    """d total/d v, bits/s per photon, of the per-mode allocation ``mu`` as
    the shared value v of the modes ``members`` moves: ``pulse_rate`` times
    the sum over those modes of d rate/d mu plus the sum over every mode i
    of d rate/d cross_i times its coupling from them, each cross-talk and
    coupling summed in mode space by ``math.fsum``, and the terms too."""
    from fsoqkd.qkd import rate_and_slopes

    eta = matrix.eta
    n = len(mu)
    cross = np.array(
        [math.fsum(mu[j] * eta[j, i] for j in range(n) if j != i) for i in range(n)]
    )
    _, d_mu, d_cross = rate_and_slopes(np.diag(eta), mu, cross, params)
    terms = [d_mu[i] for i in members] + [
        d_cross[i] * math.fsum(eta[j, i] for j in members if j != i) for i in range(n)
    ]
    return params.pulse_rate * math.fsum(terms)


def scalar_coordinate_ascent(matrix, params, opts):
    """The power optimizer run one start after another with scalar searches.

    Same starts, sweep rule and tie rule as ``planner.optimize_allocation``
    (strict ``>`` keeps the earliest best start); the objective is the
    package's, on one allocation at a time: ``planner._totals`` for the
    corners, the starts and the returned total, each line search on
    ``planner._line``'s evaluator through the allocation it starts from,
    and each single-mode search on the total of its lead mode alone,
    ``pulse_rate`` times its rate without cross-talk.
    Returns ``(mu, total rate)``.
    """
    from fsoqkd.planner import _LINE_TOL, _class_space, _line, _totals, orbit_classes
    from fsoqkd.qkd import rate_and_slopes

    orbits = orbit_classes(matrix.modes)
    eta_diag = np.diag(matrix.eta)
    n = len(matrix.modes)
    problem = _class_space([(matrix, orbits)])
    leads = [orbit[0] for orbit in orbits]
    row = np.array([0])

    def total(mu):
        return float(_totals(problem, row, mu[leads][None], params)[0])

    single = np.empty(n)
    for orbit in orbits:
        eta = float(eta_diag[orbit[0]])
        single[list(orbit)], _ = scalar_line_max(
            lambda mu: tuple(
                params.pulse_rate * float(x) for x in rate_and_slopes(eta, mu, 0.0, params)[:2]
            ),
            opts.mu_min,
            opts.mu_max,
            _LINE_TOL,
        )
    best_corner, best_corner_val = None, -math.inf
    for orbit in orbits:
        corner = np.full(n, opts.mu_min)
        corner[list(orbit)] = single[orbit[0]]
        val = total(corner)
        if val > best_corner_val:
            best_corner, best_corner_val = corner, val
    starts = [np.full(n, 0.05), np.full(n, 0.5), single, best_corner]

    best_mu, best_val = None, -math.inf
    for start in starts:
        mu = np.clip(start, opts.mu_min, opts.mu_max)
        current = total(mu)
        for _ in range(opts.max_sweeps):
            before = current
            for k, orbit in enumerate(orbits):
                f = _line(problem, row, mu[leads][None], k, params)

                def line(v, f=f):
                    value, slope = f(row, np.array([[v]]), True)
                    return float(value[0, 0]), float(slope[0, 0])

                v_star, val = scalar_line_max(line, opts.mu_min, opts.mu_max, _LINE_TOL)
                if val >= current:
                    mu[list(orbit)] = v_star
                    current = val
            if current - before <= opts.rel_tol * max(abs(before), 1e-300):
                break
        if current > best_val:
            best_mu, best_val = mu, current
    return best_mu, total(best_mu)
