"""Hermite-Gauss samples, the Gauss-Legendre rule, and the LG-HG basis change."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from fsoqkd.numerics import (
    QuadratureError,
    _leggauss,
    hg_sample,
    integrate_1d,
    lg_hg_unitary,
    lg_modes_of_order,
)

import fsoqkd.numerics as numerics
import oracles


def test_hg_sample_matches_explicit_normalization():
    x = np.linspace(-6.0, 6.0, 61)
    for n in range(21):
        norm = 1.0 / math.sqrt(2.0 ** n * math.factorial(n) * math.sqrt(math.pi))
        expected = norm * scipy.special.eval_hermite(n, x) * np.exp(-0.5 * x * x)
        np.testing.assert_allclose(hg_sample(n, x), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("pair", [(0, 0), (5, 5), (40, 40), (80, 80), (0, 2), (5, 41), (40, 80)])
def test_hg_sample_orthonormality(pair):
    n, m = pair
    x = np.linspace(-25.0, 25.0, 20001)
    dx = x[1] - x[0]
    overlap = float(np.sum(hg_sample(n, x) * hg_sample(m, x)) * dx)
    assert overlap == pytest.approx(1.0 if n == m else 0.0, abs=1e-9)


def test_hg_sample_high_order_stays_finite():
    x = np.linspace(-40.0, 40.0, 2001)
    vals = hg_sample(300, x)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) > 0.1


def test_integrate_1d_known_values():
    got = integrate_1d(lambda rows, x: np.sin(x), [0.0, 0.0], [math.pi, math.pi / 2], 1e-10)
    np.testing.assert_allclose(got, [2.0, 1.0], rtol=1e-12, atol=0.0)
    got = integrate_1d(lambda rows, x: np.exp(-x * x), [-8.0], [8.0], 1e-10)
    assert got[0] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    # An integrand may return several values per row: (r, ..., n) -> (P, ...).
    got = integrate_1d(
        lambda rows, x: np.cos(np.arange(3)[:, None] * x[:, None, :]),
        [0.0],
        [math.pi / 2],
        1e-10,
    )
    assert got.shape == (1, 3)
    np.testing.assert_allclose(got[0], [math.pi / 2, 1.0, 0.0], rtol=0, atol=1e-14)
    # An integrable endpoint singularity defeats a fixed polynomial rule; it
    # must raise rather than return an unconverged value.
    with pytest.raises(QuadratureError, match=r"\[0\.0, 1\.0\].*last order 1024"):
        integrate_1d(lambda rows, x: 1.0 / np.sqrt(x), [0.0], [1.0], 1e-10)
    with pytest.raises(ValueError, match=r"need b >= a, got \[2\.0, 1\.0\]"):
        integrate_1d(lambda rows, x: x, [0.0, 2.0], [1.0, 1.0], 1e-10)


def test_integrate_1d_raises_on_budget_exhaustion():
    # About 800,000 oscillations: no order up to the node cap agrees.
    with pytest.raises(QuadratureError, match="last order 1024, node cap 1024"):
        integrate_1d(lambda rows, x: np.cos(5000.0 * x), [0.0], [1000.0], rel_tol=1e-10)


def test_integrate_1d_requires_a_tolerance():
    with pytest.raises(TypeError, match="rel_tol"):
        integrate_1d(lambda rows, x: x, [0.0], [1.0])


def test_integrate_1d_rows_meet_their_own_scale():
    # Row 1 is 1e-30 times an oscillation that needs order 32 or more; a
    # test against the batch's largest entry would accept its order-16 sum.
    scale = np.array([1.0, 1e-30])
    got = integrate_1d(
        lambda rows, x: scale[rows, None] * np.cos(40.0 * x), [0.0, 0.0], [1.0, 1.0], 1e-10
    )
    exact = scale * math.sin(40.0) / 40.0
    np.testing.assert_allclose(got, exact, rtol=1e-10, atol=0.0)


def _pib_like_rows(count):
    """Per-row parameters and integrand in the shape of the 5/3-law
    power-in-bucket: rows converge at different orders."""
    rng = np.random.default_rng(3)
    beta = 10.0 ** rng.uniform(-1.0, 1.0, count)
    strength = 10.0 ** rng.uniform(-3.0, 1.0, count)

    def f(rows, s):
        s5 = s ** 5
        return 3.0 * s5 * np.exp(-beta[rows, None] * s5 * s - strength[rows, None] * s5)

    return f, np.zeros(count), (60.0 / beta) ** (1.0 / 6.0)


@pytest.mark.parametrize("chunk", [8, 100, 8192])
def test_integrate_1d_row_is_the_same_alone_and_in_any_batch(monkeypatch, chunk):
    # Each row's sum is reduced on its own, so neither the batch nor the
    # chunking changes a bit of it.
    f, a, b = _pib_like_rows(240)
    alone = [
        integrate_1d(lambda rows, s: f(rows + i, s), a[i : i + 1], b[i : i + 1], 1e-10)[0]
        for i in range(240)
    ]
    monkeypatch.setattr(numerics, "_CHUNK_NODES", chunk)
    batch = integrate_1d(f, a, b, 1e-10)
    np.testing.assert_array_equal(batch, alone)
    odd = np.arange(1, 240, 2)
    part = integrate_1d(lambda rows, s: f(odd[rows], s), a[odd], b[odd], 1e-10)
    np.testing.assert_array_equal(part, batch[odd])


def test_integrate_1d_chunks_bound_each_integrand_call(monkeypatch):
    f, a, b = _pib_like_rows(240)
    shapes = []

    def recorded(rows, s):
        shapes.append(s.shape)
        return f(rows, s)

    monkeypatch.setattr(numerics, "_CHUNK_NODES", 1024)
    integrate_1d(recorded, a, b, 1e-10)
    # Full chunks of 1024 (row, node) pairs at every order the rows reach.
    assert all(r * n <= 1024 for r, n in shapes)
    assert {(1024 // n, n) for n in (8, 16, 32, 64, 128)} <= set(shapes)


def test_integrate_1d_names_the_row_that_does_not_converge():
    # Row 1 has an endpoint singularity; rows 0 and 2 converge and leave
    # the evaluation long before row 1 reaches the order cap.
    top = {}

    def f(rows, x):
        for row in rows.tolist():
            top[row] = x.shape[1]
        singular = 1.0 / np.sqrt(np.abs(x - 2.0))
        return np.where((rows == 1)[:, None], singular, np.exp(-x))

    with pytest.raises(QuadratureError, match=r"on \[2\.0, 3\.0\]: last order 1024"):
        integrate_1d(f, [0.0, 2.0, 5.0], [1.0, 3.0, 6.0], 1e-10)
    assert top[1] == 1024 and top[0] <= 32 and top[2] <= 32


EPS = np.finfo(float).eps


@pytest.mark.parametrize("order", [*range(1, 129), 256, 512, 1024])
def test_leggauss_matches_numpy_oracle(order):
    nodes, weights = _leggauss(order)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=4 * EPS)
    np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=128 * EPS)
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    np.testing.assert_array_equal(weights, weights[::-1])
    if order % 2:
        mid = nodes[order // 2]
        assert mid == 0.0 and math.copysign(1.0, mid) == 1.0
    # The rule is exact for every even monomial of degree < 2n.
    k = np.arange(0, 2 * order, 2)
    moments = (nodes[None, :] ** k[:, None]) @ weights
    np.testing.assert_allclose(moments, 2.0 / (k + 1), rtol=0, atol=64 * EPS)


def test_leggauss_top_order_working_set():
    # The Newton rule holds about two (n/2 x n/2) float arrays at a time.
    tracemalloc.start()
    try:
        _leggauss.__wrapped__(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_leggauss_cached_arrays_are_read_only():
    nodes, weights = _leggauss(16)
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        weights *= 2.0


def test_oracle_4d_cubature_gaussian_product():
    box = ((-7.0, 7.0),) * 4
    f = lambda a, b, c, d: np.exp(-(a * a + 2 * b * b + 3 * c * c + 0.5 * d * d))
    got = oracles.tensor_gl_4d(f, box, order=64)
    exact = math.pi ** 2 / math.sqrt(1.0 * 2.0 * 3.0 * 0.5)
    assert got.real == pytest.approx(exact, rel=1e-8)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_oracle_4d_cubature_complex_integrand():
    box = ((-1.0, 1.0),) * 4
    f = lambda a, b, c, d: np.exp(1j * (a + b + c + d))
    got = oracles.tensor_gl_4d(f, box, order=12)
    exact = (2.0 * math.sin(1.0)) ** 4
    assert got.real == pytest.approx(exact, rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_lg_modes_of_order():
    assert lg_modes_of_order(0) == ((0, 0),)
    assert lg_modes_of_order(1) == ((0, -1), (0, 1))
    assert lg_modes_of_order(2) == ((0, -2), (1, 0), (0, 2))


@pytest.mark.parametrize("order", range(11))
def test_lg_hg_unitary_is_unitary(order):
    u = lg_hg_unitary(order)
    eye = u @ u.conj().T
    np.testing.assert_allclose(eye, np.eye(order + 1), rtol=0, atol=1e-12)


def test_lg_hg_unitary_first_order_helicity():
    # LG with l = +1 is (HG_{1,0} + i HG_{0,1}) / sqrt(2).
    row = lg_hg_unitary(1)[lg_modes_of_order(1).index((0, 1))]
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(row, [1j * s, s], rtol=0, atol=1e-14)


@pytest.mark.parametrize("order", range(16))
def test_lg_hg_unitary_equals_scalar_formula(order):
    np.testing.assert_array_equal(lg_hg_unitary(order), oracles.lg_hg_unitary_scalar(order))


@pytest.mark.parametrize("order", range(7))
def test_lg_hg_unitary_matches_grid_overlaps(order):
    u = lg_hg_unitary(order)
    ref = oracles.lg_hg_overlap_matrix(order)
    np.testing.assert_allclose(u, ref, rtol=0, atol=1e-10)
