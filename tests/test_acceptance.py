"""End-to-end acceptance checks, one test and one report line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they complete.  The default full scan behind the
``full_scan`` fixture makes this the slow part of the suite: about 15 s
of the whole suite's 40 s on a 2-core x86 VM.
"""

import csv
import io
import math

import numpy as np
import pytest

from fsoqkd.channel import cn2_for_coherence_length
from fsoqkd.cli import cmd_rates, load_config
from fsoqkd.numerics import lg_hg_unitary
from fsoqkd.planner import fb_envelope, lg_envelope, optimize_allocation
from fsoqkd.qkd import QkdSystemParams, rate_per_pulse
from fsoqkd.turbulence import (
    fb_turb_eta,
    fb_turb_matrix,
    gaussian_pib_53,
    gaussian_pib_turb,
    lg_turb_matrix,
)
from fsoqkd.vacuum import (
    fb_pixel_grid,
    fb_vacuum_matrix,
    lg_vacuum_capacity,
    lg_vacuum_eta,
    lg_vacuum_matrix,
)

import oracles
from conftest import (
    RADIUS,
    WAVELENGTH,
    gauss_channel,
    gauss_channel_for_df,
    square_channel,
)


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ------------------------------------------------------------------
# Shared slow computations
# ------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_scan():
    """Default 20 lengths x 3 cn2 x 2 families rates scan, parsed."""
    text, clean = cmd_rates(load_config(None), jobs=1)
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows, clean


@pytest.fixture(scope="module")
def crossover_rates():
    """Family envelope rates at the three stated crossover points."""
    params = QkdSystemParams()
    out = {}
    for path_length, cn2 in ((10e3, 1e-13), (50e3, 1e-13), (1e3, 1e-15)):
        lg = lg_envelope(gauss_channel(path_length, cn2), params, q_max=8)
        fb = fb_envelope(square_channel(path_length, cn2), params, n_max=8)
        out[(path_length, cn2)] = (lg.total_rate_bps, fb.total_rate_bps)
    return out


# ------------------------------------------------------------------
# Criteria
# ------------------------------------------------------------------


def test_criterion_01_lg_vacuum_sum_rule():
    worst = 0.0
    for df in (0.01, 1.0, 100.0):
        ch = gauss_channel_for_df(df)
        x = lg_vacuum_eta(1, ch.fresnel_product)
        total, q = 0.0, 1
        while True:
            term = q * x ** q
            total += term
            if term < 1e-18 * df:
                break
            q += 1
        worst = max(worst, abs(total - df) / df)
    ok = worst <= 1e-10
    assert report(1, ok, f"sum_q q*eta_q = Df to {worst:.2e} rel over Df in {{0.01, 1, 100}}")


def test_criterion_02_basis_change_unitary_and_grid_oracle():
    worst_unitary = 0.0
    worst_overlap = 0.0
    for order in range(11):
        u = lg_hg_unitary(order)
        eye = u @ u.conj().T
        worst_unitary = max(worst_unitary, float(np.max(np.abs(eye - np.eye(order + 1)))))
        ref = oracles.lg_hg_overlap_matrix(order)
        worst_overlap = max(worst_overlap, float(np.max(np.abs(u - ref))))
    ok = worst_unitary <= 1e-10 and worst_overlap <= 1e-6
    assert report(
        2,
        ok,
        f"orders <= 10: unitarity residual {worst_unitary:.2e}, "
        f"512^2 grid-overlap residual {worst_overlap:.2e}",
    )


def test_criterion_03_vacuum_reduction_at_huge_coherence_length():
    cn2 = cn2_for_coherence_length(1e6, WAVELENGTH, 10e3)
    gauss_turb = gauss_channel(10e3, cn2)
    gauss_vac = gauss_channel(10e3, 0.0)
    square_turb = square_channel(10e3, cn2)
    square_vac = square_channel(10e3, 0.0)

    worst = 0.0
    lg_t = lg_turb_matrix(4, gauss_turb)
    lg_v = lg_vacuum_matrix(4, gauss_vac)
    worst = max(worst, float(np.max(np.abs(lg_t.eta - lg_v.eta))))
    for n_grid in range(1, 5):
        fb_t = fb_turb_matrix(n_grid, square_turb)
        fb_v = fb_vacuum_matrix(n_grid, square_vac)
        worst = max(worst, float(np.max(np.abs(fb_t.eta - fb_v.eta))))
    worst = max(worst, abs(gaussian_pib_turb(gauss_turb) - gaussian_pib_turb(gauss_vac)))
    ok = worst <= 1e-6
    assert report(
        3, ok, f"rho_0 = 1e6 m: worst |turbulent - vacuum| = {worst:.2e} (LG Q<=4, FB N<=4, PIB)"
    )


def test_criterion_04_far_field_asymptotics():
    gauss = gauss_channel(100e3, 1e-13)
    square = square_channel(100e3, 1e-13)
    rho0 = gauss.coherence_length
    side = square.config.pupil.side

    pib = gaussian_pib_turb(gauss)
    pib_ref = 2.0 * gauss.fresnel_product * rho0 ** 2 / RADIUS ** 2
    pixel = fb_pixel_grid(1)[0]
    fb = fb_turb_eta(pixel, pixel, square)
    fb_ref = 2.0 * math.pi * square.fresnel_product * rho0 ** 2 / side ** 2
    ratio = fb / pib

    dev_pib = abs(pib / pib_ref - 1.0)
    dev_fb = abs(fb / fb_ref - 1.0)
    dev_ratio = abs(ratio / 2.0 - 1.0)
    ok = dev_pib <= 0.05 and dev_fb <= 0.05 and dev_ratio <= 0.10
    assert report(
        4,
        ok,
        f"100 km, 1e-13: PIB off closed form by {dev_pib:.1%}, "
        f"FB by {dev_fb:.1%}, FB/PIB = {ratio:.3f} (want 2 +- 10%)",
    )


def test_criterion_05_far_field_scaling_laws():
    lengths = np.geomspace(50e3, 100e3, 8)
    pixel = fb_pixel_grid(1)[0]
    slopes = {}
    for label, cn2 in (("vacuum", 0.0), ("cn2=1e-13", 1e-13)):
        etas = [fb_turb_eta(pixel, pixel, square_channel(L, cn2)) for L in lengths]
        slopes[label] = float(np.polyfit(np.log(lengths), np.log(etas), 1)[0])
    ok = abs(slopes["vacuum"] + 2.0) <= 0.05 and abs(slopes["cn2=1e-13"] + 3.2) <= 0.10
    assert report(
        5,
        ok,
        f"log-log slope over [50, 100] km: vacuum {slopes['vacuum']:.3f} "
        f"(want -2 +- 0.05), turbulent {slopes['cn2=1e-13']:.3f} (want -3.2 +- 0.1)",
    )


def test_criterion_06_structure_function_ordering():
    failures = []
    worst_gap = 0.0
    for path_length in (10e3, 30e3, 100e3):
        vac = gaussian_pib_turb(gauss_channel(path_length, 0.0))
        for cn2 in (1e-15, 1e-14, 1e-13):
            ch = gauss_channel(path_length, cn2)
            sq = gaussian_pib_turb(ch)
            ft = gaussian_pib_53(ch)
            if not (sq <= ft * (1.0 + 1e-9) and ft <= vac * (1.0 + 1e-9)):
                failures.append((path_length, cn2, sq, ft, vac))
            worst_gap = max(worst_gap, (ft - sq) / ft if ft > 0 else 0.0)
    ok = not failures
    assert report(
        6,
        ok,
        f"square-law <= 5/3-law <= vacuum at all 9 points "
        f"(largest relative 5/3 vs square gap {worst_gap:.1%}); failures: {failures}",
    )


def test_criterion_07_vacuum_fb_envelope_grid_sizes():
    params = QkdSystemParams()
    near = fb_envelope(square_channel(1e3, 0.0), params, n_max=8)
    far = fb_envelope(square_channel(100e3, 0.0), params, n_max=8)
    ok = near.config == 8 and far.config == 1
    assert report(
        7,
        ok,
        f"vacuum optimal grid: N = {near.config} at 1 km (want 8), "
        f"N = {far.config} at 100 km (want 1)",
    )


def test_criterion_08_capacity_dominance(full_scan):
    rows, clean = full_scan
    capacities = {}
    violations = []
    worst_frac = 0.0
    for row in rows:
        if not row["rate_bps"]:
            violations.append((row["L_m"], row["cn2"], row["mode_set"], "no rate"))
            continue
        path_length = float(row["L_m"])
        if row["capacity_bps"]:
            capacity = float(row["capacity_bps"])
        else:
            if path_length not in capacities:
                capacities[path_length] = lg_vacuum_capacity(
                    gauss_channel(path_length, 0.0), QkdSystemParams().pulse_rate
                )
            capacity = capacities[path_length]
        rate = float(row["rate_bps"])
        if rate > capacity * (1.0 + 1e-12):
            violations.append((row["L_m"], row["cn2"], row["mode_set"], rate / capacity))
        if capacity > 0:
            worst_frac = max(worst_frac, rate / capacity)
    ok = clean and not violations
    assert report(
        8,
        ok,
        f"{len(rows)} scan rows; all rates <= lossy-channel capacity "
        f"(max rate/capacity = {worst_frac:.3f}); violations: {violations}",
    )


def test_criterion_09_turbulent_family_crossover(crossover_rates):
    lg_10, fb_10 = crossover_rates[(10e3, 1e-13)]
    lg_50, fb_50 = crossover_rates[(50e3, 1e-13)]
    lg_1, fb_1 = crossover_rates[(1e3, 1e-15)]
    strong_ok = fb_10 >= lg_10 and fb_50 >= lg_50
    weak_ok = lg_1 >= fb_1
    ok = strong_ok and weak_ok
    assert report(
        9,
        ok,
        f"1e-13: FB {fb_10:.3e} vs LG {lg_10:.3e} at 10 km, "
        f"FB {fb_50:.3e} vs LG {lg_50:.3e} at 50 km (want FB >= LG); "
        f"1e-15 at 1 km: LG {lg_1:.3e} vs FB {fb_1:.3e} (want LG >= FB, "
        f"unreachable under the Q <= 8 mode budget)",
    )


def test_criterion_10_optimizer_vs_brute_force_grid():
    params = QkdSystemParams()
    ch = square_channel(1e3, 0.0)
    matrix = fb_vacuum_matrix(2, ch)
    _, val = optimize_allocation(matrix, params)

    # All four pixels are grid-symmetric; the finest symmetry-respecting
    # brute force splits them into the two diagonal pairs and scans a
    # 200 x 200 grid of shared mean photon numbers.
    eta = matrix.eta
    grid = np.linspace(1e-6, 1.5, 200)
    ma, mb = np.meshgrid(grid, grid, indexing="ij")
    pair_a = (0, 3)
    pair_b = (1, 2)
    mu = np.zeros((200, 200, 4))
    for i in pair_a:
        mu[..., i] = ma
    for i in pair_b:
        mu[..., i] = mb
    total = np.zeros((200, 200))
    for i in range(4):
        cross = sum(mu[..., j] * eta[j, i] for j in range(4) if j != i)
        total += params.pulse_rate * rate_per_pulse(eta[i, i], mu[..., i], cross, params)
    brute = float(np.max(total))
    ok = val >= brute * (1.0 - 0.01)
    assert report(
        10,
        ok,
        f"2x2 FB vacuum at 1 km: ascent {val:.6e} vs 200x200 grid {brute:.6e} "
        f"(ratio {val / brute:.6f}, want within 1%)",
    )


def test_criterion_11_rates_determinism():
    cfg = load_config(None)
    cfg.path_lengths = (1e3, 10e3, 100e3)
    cfg.cn2_values = (1e-15,)
    cfg.n_max = 3
    cfg.q_max = 3
    first, _ = cmd_rates(cfg, jobs=1)
    second, _ = cmd_rates(cfg, jobs=1)
    ok = first.encode() == second.encode()
    assert report(
        11,
        ok,
        f"two cmd_rates runs over {len(first.splitlines()) - 1} rows byte-identical: {ok}",
    )
