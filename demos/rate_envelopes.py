"""Decoy-state key-rate envelopes versus distance for both mode families.

For each path length the script optimizes the signal intensities of the best
Laguerre-Gauss configuration (orders up to q_max) and the best flat-top pixel
grid (1x1 up to n_max x n_max), then prints the achieved rates next to the
multiplexed repeaterless capacity bound.  Vacuum and one finite turbulence
strength are tabulated side by side.
"""

import argparse

import numpy as np

from fsoqkd.channel import ChannelConfig, HardSquare, SoftGaussian, derive, matched_square_side
from fsoqkd.planner import fb_envelope, lg_envelope
from fsoqkd.qkd import QkdSystemParams
from fsoqkd.vacuum import lg_vacuum_capacity


def channel(path_length, cn2, pupil, wavelength=1.55e-6):
    return derive(
        ChannelConfig(
            wavelength=wavelength,
            path_length=path_length,
            cn2=cn2,
            pupil=pupil,
        )
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cn2", type=float, default=1e-13, help="index structure constant, m^(-2/3)")
    ap.add_argument("--q-max", type=int, default=6, help="highest LG order searched")
    ap.add_argument("--n-max", type=int, default=6, help="largest pixel grid searched")
    ap.add_argument("--points", type=int, default=5, help="number of path lengths")
    ap.add_argument("--min-km", type=float, default=1.0)
    ap.add_argument("--max-km", type=float, default=100.0)
    args = ap.parse_args()

    radius = 0.10
    side = matched_square_side(radius)
    params = QkdSystemParams()
    lengths = np.geomspace(args.min_km * 1e3, args.max_km * 1e3, args.points)

    print(f"pulse rate {params.pulse_rate:.0e} /s, dark count {params.dark_count:.0e}, "
          f"visibility {params.visibility}, turbulent columns at Cn2 {args.cn2:.0e}")
    print(f"{'L [km]':>8} {'capacity':>12}"
          f" {'lg vacuum':>12} {'cfg':>4} {'fb vacuum':>12} {'cfg':>4}"
          f" {'lg turb':>12} {'cfg':>4} {'fb turb':>12} {'cfg':>4}")
    for path_length in lengths:
        vac = channel(path_length, 0.0, SoftGaussian(radius=radius))
        row = f"{path_length / 1e3:>8.1f} {lg_vacuum_capacity(vac, params.pulse_rate):>12.4e}"
        for cn2 in (0.0, args.cn2):
            lg = lg_envelope(
                channel(path_length, cn2, SoftGaussian(radius=radius)),
                params,
                q_max=args.q_max,
            )
            fb = fb_envelope(
                channel(path_length, cn2, HardSquare(side=side)),
                params,
                n_max=args.n_max,
            )
            lg_cfg = "-" if lg.config is None else str(lg.config)
            row += f" {lg.total_rate_bps:>12.4e} {lg_cfg:>4} {fb.total_rate_bps:>12.4e} {fb.config:>4}"
        print(row)
    print("\nlg cfg is the highest order kept (- marks the single-beam fallback);"
          "\nfb cfg is the pixel grid size N of the best N x N layout.")


if __name__ == "__main__":
    main()
