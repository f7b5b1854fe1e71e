#!/usr/bin/env python3
"""Refinement ladder for the Crank-Nicolson beta solver vs the exact solution.

Doubles N and halves dt a few times and prints the max-norm error plus the
observed convergence order at each rung.
"""

import argparse

import numpy as np

from legendreflow.curves import uniform_grid
from legendreflow.fd import FDGrid, solve_beta_fd
from legendreflow.spectral import SpectralBeta, evolve_beta


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1)
    parser.add_argument("--mode", type=int, default=2)
    parser.add_argument("--T", type=float, default=0.25)
    parser.add_argument("--base-N", type=int, default=128)
    parser.add_argument("--base-dt", type=float, default=2e-3)
    parser.add_argument("--rungs", type=int, default=4)
    args = parser.parse_args()

    s = SpectralBeta.from_modes(args.n, modes={args.mode: (1.0, 0.0)})
    prev = None
    for j in range(args.rungs):
        num = args.base_N * 2**j
        dt = args.base_dt / 2**j
        u = uniform_grid(num)
        grid = FDGrid(num_points=num, dt=dt, scheme="crank_nicolson")
        approx = solve_beta_fd(evolve_beta(s, 0.0, u), args.n, args.T, grid)
        err = float(np.max(np.abs(approx - evolve_beta(s, args.T, u))))
        order = "" if prev is None else f"   order {np.log2(prev / err):.3f}"
        print(f"N = {num:5d}  dt = {dt:.2e}  error = {err:.6e}{order}")
        prev = err


if __name__ == "__main__":
    main()
