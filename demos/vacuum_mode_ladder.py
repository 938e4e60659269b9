"""Vacuum transmissivities of the Laguerre-Gauss ladder and flat-top pixels.

In vacuum every Laguerre-Gauss mode of order q = 2p + |l| + 1 shares one
transmissivity x^q, where x depends only on the Fresnel number product.
The script prints the ladder, checks the power sum rule against the Fresnel
number product, and contrasts the Laguerre-Gauss capacity with the flat-top
pixel matrix at the same geometry, built by the turbulent builder at
cn2 = 0, which is how the package computes every vacuum matrix.
"""

import argparse

import numpy as np

from fsoqkd.channel import ChannelConfig, HardSquare, SoftGaussian, derive, matched_square_side
from fsoqkd.turbulence import fb_turb_matrix
from fsoqkd.vacuum import (
    fb_pixel_grid,
    lg_modes_up_to,
    lg_vacuum_capacity,
    lg_vacuum_eta,
    mode_label,
    qkd_capacity,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--path-length", type=float, default=10e3, help="meters")
    ap.add_argument("--q-max", type=int, default=8, help="highest composite order in the sum rule table")
    ap.add_argument("--pulse-rate", type=float, default=1e9, help="pulses per second")
    args = ap.parse_args()

    radius = 0.10
    gauss = derive(
        ChannelConfig(
            wavelength=1.55e-6,
            path_length=args.path_length,
            cn2=0.0,
            pupil=SoftGaussian(radius=radius),
        )
    )
    df = gauss.fresnel_product
    x = lg_vacuum_eta(1, df)
    print(f"path length {args.path_length / 1e3:.0f} km, Fresnel number product {df:.6f}, x = {x:.6f}")

    all_modes = lg_modes_up_to(args.q_max)
    print(f"\n{'q':>3} {'modes':>6} {'eta = x^q':>12} {'running power sum':>18}")
    running = 0.0
    for q in range(1, args.q_max + 1):
        modes = [m for m in all_modes if m.order == q]
        eta = lg_vacuum_eta(q, df)
        running += q * eta
        names = ", ".join(mode_label(m) for m in modes[:3])
        if len(modes) > 3:
            names += ", ..."
        print(f"{q:>3} {len(modes):>6} {eta:>12.6e} {running:>18.6f}   [{names}]")
    print(f"the weighted sum sum_q q x^q converges to Df = {df:.6f}")

    print(f"\nLaguerre-Gauss multiplexed capacity at {args.pulse_rate:.0e} pulses/s: "
          f"{lg_vacuum_capacity(gauss, args.pulse_rate):.4e} bits/s")
    print(f"single Gaussian mode alone: {qkd_capacity([x], args.pulse_rate):.4e} bits/s")

    side = matched_square_side(radius)
    square = derive(
        ChannelConfig(
            wavelength=1.55e-6,
            path_length=args.path_length,
            cn2=0.0,
            pupil=HardSquare(side=side),
        )
    )
    for n_grid in (1, 2):
        pixels = fb_pixel_grid(n_grid)
        mat = fb_turb_matrix(n_grid, square)
        print(f"\nflat-top pixel matrix, {n_grid}x{n_grid} grid, side {side:.4f} m:")
        labels = [mode_label(p) for p in pixels]
        width = max(len(s) for s in labels)
        print(" " * (width + 1) + " ".join(f"{s:>12}" for s in labels))
        for i, row_label in enumerate(labels):
            cells = " ".join(f"{mat.eta[i, j]:>12.4e}" for j in range(len(pixels)))
            print(f"{row_label:>{width}} {cells}")
        diag = np.diag(mat.eta)
        cross = mat.eta.sum(axis=1) - diag
        print(f"diagonal captures {diag.min():.4f}..{diag.max():.4f}, "
              f"worst in-grid cross-talk sum {cross.max():.4e}")


if __name__ == "__main__":
    main()
