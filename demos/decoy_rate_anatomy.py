"""Anatomy of the asymptotic decoy-state BB84 rate for a single mode.

Sweeps the signal intensity mu at fixed transmissivity to expose the usual
trade-off: too dim and the single-photon gain Q1 vanishes, too bright and
the multi-photon fraction hands everything to the eavesdropper.  Then shows
how cross-talk photons from neighbouring modes act as an extra dark count
that erodes the optimum, and where the rate sits against the repeaterless
capacity bound per pulse and against the cross-talk-free single-photon
bound B(eta) that the envelope search prunes configurations with.
"""

import argparse
import math

import numpy as np

from fsoqkd.qkd import QkdSystemParams, rate_bound, rate_per_pulse


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eta", type=float, default=0.1, help="mode power transmissivity")
    ap.add_argument("--points", type=int, default=400, help="mu grid resolution")
    args = ap.parse_args()

    params = QkdSystemParams()
    mu_grid = np.linspace(1e-4, 1.5, args.points)

    print(f"eta = {args.eta}, visibility {params.visibility}, dark count {params.dark_count:.0e}")
    print(f"\n{'mu':>8} {'rate [bits/pulse]':>18}")
    for mu in (0.01, 0.1, 0.3, 0.5, 0.8, 1.2):
        r = rate_per_pulse(args.eta, mu, 0.0, params)
        print(f"{mu:>8.2f} {float(r):>18.6e}")

    rates = rate_per_pulse(args.eta, mu_grid, 0.0, params)
    best = int(np.argmax(rates))
    capacity = -math.log2(1.0 - args.eta)
    print(f"\noptimum without cross-talk: mu* = {mu_grid[best]:.4f}, "
          f"rate {rates[best]:.6e} bits/pulse")
    print(f"ideal-device limit eta mu e^-mu / 2 at mu = 1 would give "
          f"{0.5 * args.eta * math.exp(-1.0):.6e}")
    print(f"repeaterless capacity bound -log2(1 - eta) = {capacity:.6e} bits/pulse")

    print(f"\n{'mu_c':>10} {'mu*':>8} {'rate at mu*':>14} {'loss vs clean':>14}")
    clean = float(rates[best])
    for mu_c in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        noisy = rate_per_pulse(args.eta, mu_grid, mu_c, params)
        i = int(np.argmax(noisy))
        frac = 1.0 - float(noisy[i]) / clean if clean > 0 else 0.0
        print(f"{mu_c:>10.0e} {mu_grid[i]:>8.4f} {float(noisy[i]):>14.6e} {frac:>14.2%}")

    # Distance flavour: rate collapse as eta drops toward the dark-count
    # floor, next to the bound B(eta) on every mu of the grid and every
    # cross-talk level.
    print(f"\n{'eta':>10} {'mu*':>8} {'rate [bits/pulse]':>18} {'bound B':>14} "
          f"{'B/rate':>8} {'rate/capacity':>14}")
    for eta in np.geomspace(1e-1, 1e-6, 6):
        r = rate_per_pulse(eta, mu_grid, 0.0, params)
        i = int(np.argmax(r))
        cap = -math.log2(1.0 - eta)
        ratio = float(r[i]) / cap if cap > 0 else 0.0
        mu_star = f"{mu_grid[i]:.4f}" if r[i] > 0 else "-"
        bound = float(rate_bound(eta, params, mu_grid[0], mu_grid[-1]))
        tight = f"{bound / float(r[i]):.3f}" if r[i] > 0 else "-"
        print(f"{eta:>10.1e} {mu_star:>8} {float(r[i]):>18.6e} {bound:>14.6e} "
              f"{tight:>8} {ratio:>14.3f}")

if __name__ == "__main__":
    main()
