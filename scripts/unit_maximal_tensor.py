#!/usr/bin/env python3
"""Unit-scale maximal exponent fit over a wide |k| range.

Uses the tensor-factorized exact evaluation (1D transport factor times 3D
transverse factor), which reaches modulations far beyond what a full 4D
lattice can resolve.  Writes the raw points to CSV and prints the fit; exits
with status 1 when fewer than two |k| fit the box.
"""

import argparse
import csv
import sys

import numpy as np

from dlab.estimates import fit_loglog, packet_wraps, unit_maximal_tensor_ratio
from dlab.grid import SpectralGrid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=float, nargs="+", default=[10, 14, 20, 28, 40, 56])
    ap.add_argument("--T", type=float, default=1.5)
    ap.add_argument("--m1", type=int, default=4096)
    ap.add_argument("--dxi1", type=float, default=0.05)
    ap.add_argument("--csv", default="unit_maximal_points.csv")
    args = ap.parse_args()

    g1 = SpectralGrid(args.m1, 2 * np.pi / args.dxi1, d=1)
    g3 = SpectralGrid(m=16, L=2 * np.pi / 0.5, d=3)
    print(f"1D box {g1.L:.1f} (xi_max {g1.m * g1.dxi / 2:.0f}), window T={args.T}")
    points = []
    for k in args.k:
        if packet_wraps(k, args.T, g1):
            print(f"|k|={k}: sweep {2 * k * args.T:.0f} would wrap the box; skipping")
            continue
        ratio = unit_maximal_tensor_ratio(k, g1, g3, args.T)
        points.append((k, ratio))
        print(f"|k|={k:5.1f}: ratio {ratio:.5f}")
    if len(points) < 2:
        sys.exit(f"{len(points)} of {len(args.k)} |k| fit the box; a slope needs at least two")
    slope, _ = fit_loglog([p[0] for p in points], [p[1] for p in points])
    print(f"fitted slope: {slope:.4f} (statement: 1/2)")
    with open(args.csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["abs_k", "ratio"])
        w.writerows(points)
    print(f"raw points -> {args.csv}")


if __name__ == "__main__":
    main()
