#!/usr/bin/env python
"""Quickstart: build a B-spline orbital table and evaluate it every way.

Covers the core public API in ~60 lines:

1. sample synthetic periodic orbitals on a grid,
2. solve for the tricubic B-spline coefficient table,
3. evaluate V / VGL / VGH through all four engine layouts,
4. check they agree and time them against each other.

Run:  python examples/quickstart.py
"""

import time

import numpy as np

from repro.core import (
    BsplineAoS,
    BsplineAoSoA,
    BsplineFused,
    BsplineSoA,
    Grid3D,
    Kind,
    solve_coefficients_3d,
)
from repro.lattice import Cell, PlaneWaveOrbitalSet


def main():
    # 1. A cubic cell with 64 synthetic orbitals sampled on a 20^3 grid.
    cell = Cell.cubic(8.0)
    orbitals = PlaneWaveOrbitalSet(cell, n_orbitals=64)
    nx = ny = nz = 20
    samples = orbitals.values_on_grid(nx, ny, nz)
    print(f"orbital samples: {samples.shape}  ({samples.nbytes / 1e6:.1f} MB)")

    # 2. The read-only coefficient table P[nx][ny][nz][N] (paper Fig. 5).
    P = solve_coefficients_3d(samples, dtype=np.float32)
    grid = Grid3D(nx, ny, nz)  # fractional coordinates: unit box

    # 3. One engine per data layout of the paper.
    engines = {
        "AoS   (baseline)": BsplineAoS(grid, P),
        "SoA   (Opt A)": BsplineSoA(grid, P),
        "AoSoA (Opt B, Nb=16)": BsplineAoSoA(grid, P, tile_size=16),
        "fused (Python-fast)": BsplineFused(grid, P),
    }

    rng = np.random.default_rng(7)
    positions = grid.random_positions(32, rng)

    # 4. Evaluate VGH everywhere; compare against the AoS answer and time.
    reference = None
    print(f"\n{'engine':24s} {'ms/32 evals':>12s} {'max|dv| vs AoS':>16s}")
    for name, eng in engines.items():
        out = eng.new_output(Kind.VGH)
        t0 = time.perf_counter()
        for x, y, z in positions:
            eng.vgh(x, y, z, out)
        ms = (time.perf_counter() - t0) * 1e3
        values = out.as_canonical()["v"]
        if reference is None:
            reference = values
            err = 0.0
        else:
            err = float(np.abs(values - reference).max())
        print(f"{name:24s} {ms:12.2f} {err:16.2e}")

    print("\nAll layouts compute identical orbitals; only memory moves.")


if __name__ == "__main__":
    main()
