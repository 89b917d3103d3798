#!/usr/bin/env python3
"""Single short-time perturbation experiment.

Evolves u from data u0 under plain cubic NLS and v from data u0 + (eta bump)
under the forced equation with a small free forcing F, then checks the
difference bound

    ||v - u||_{Linf Hdot1} + ||v - u||_{X(I)}  <=  C0 (||v0 - u0||_{Hdot1} + eta_F)

recording C0 (the long-time iteration itself is out of scope; this is the
bookkeeping check of its short-time ingredient).
"""

import argparse

import numpy as np

from dlab.grid import Field, PHYSICAL, SpectralGrid, Trajectory, sobolev_norm
from dlab.norms import EpsilonPolicy, linf_h1, x_norm
from dlab.propagate import free_trajectory
from dlab.solver import NLSRunConfig, splitstep_forced, splitstep_nls


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eta", type=float, default=1e-3, help="data perturbation size")
    ap.add_argument("--eta-f", type=float, default=1e-3, help="forcing size")
    ap.add_argument("--T", type=float, default=0.25)
    ap.add_argument("--dt", type=float, default=0.0125)
    ap.add_argument("--m", type=int, default=16)
    ap.add_argument("--L", type=float, default=8.0)
    args = ap.parse_args()

    g = SpectralGrid(m=args.m, L=args.L)
    bump = np.exp(-g.x_squared / 2.0).astype(complex)
    u0 = Field.physical(g, 0.3 * bump)
    pert = np.exp(-g.x_squared / 1.5) * np.exp(1j * g.axis_coord(2))
    pert_field = Field.physical(g, pert)
    pert_scale = args.eta / sobolev_norm(pert_field, 1.0, homogeneous=True)
    v0 = Field.physical(g, u0.values + pert_scale * pert)

    cfg = NLSRunConfig(mu=+1, dt=args.dt, T=args.T, dealias=False)
    F0 = Field.physical(g, args.eta_f * bump * np.exp(1j * g.axis_coord(1)))
    F = free_trajectory(F0, 0.0, cfg.dt, cfg.n_steps + 1).map_frames(
        lambda fr: fr.in_domain(PHYSICAL)
    )

    u = splitstep_nls(u0, cfg)
    v = splitstep_forced(v0, F, cfg)

    diff = Trajectory.from_values(g, 0.0, cfg.dt, PHYSICAL, v.values - u.values)
    h1 = linf_h1(diff)
    x_val = x_norm(diff, pol=EpsilonPolicy())
    data_gap = sobolev_norm(
        Field.physical(g, v0.values - u0.values), 1.0, homogeneous=True
    )
    lhs = h1 + x_val
    rhs = data_gap + args.eta_f
    print(f"||v-u||_(Linf Hdot1)      = {h1:.4e}")
    print(f"||v-u||_(discrete X)      = {x_val:.4e}")
    print(f"data gap + forcing size   = {rhs:.4e}")
    print(f"recorded C0               = {lhs / rhs:.3f}")


if __name__ == "__main__":
    main()
