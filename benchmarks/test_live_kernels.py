"""Live microbenchmarks of the actual NumPy kernels on this host.

Not a paper artifact — the measurement substrate behind every live
bench: per-kernel, per-engine timings through pytest-benchmark so
regressions in the Python kernels are caught numerically.
"""

import numpy as np
import pytest

from repro.core import (
    BsplineAoS,
    BsplineAoSoA,
    BsplineFused,
    BsplineSoA,
    Grid3D,
    Kind,
)

N_SPLINES = 128
GRID = (16, 16, 16)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(99)
    grid = Grid3D(*GRID)
    P = rng.standard_normal((*GRID, N_SPLINES)).astype(np.float32)
    positions = grid.random_positions(8, rng)
    return grid, P, positions


ENGINES = {
    "aos": BsplineAoS,
    "soa": BsplineSoA,
    "fused": BsplineFused,
}


@pytest.mark.parametrize("engine", ["aos", "soa", "fused"])
@pytest.mark.parametrize("kernel", ["v", "vgl", "vgh"])
def test_kernel_eval(benchmark, setup, engine, kernel):
    grid, P, positions = setup
    eng = ENGINES[engine](grid, P)
    out = eng.new_output(Kind(kernel))
    kern = getattr(eng, kernel)

    def run():
        for x, y, z in positions:
            kern(x, y, z, out)

    benchmark(run)
    # Sanity: outputs are finite.
    assert np.isfinite(out.v).all()


@pytest.mark.parametrize("tile_size", [16, 64, 128])
def test_tiled_vgh(benchmark, setup, tile_size):
    grid, P, positions = setup
    eng = BsplineAoSoA(grid, P, tile_size)
    out = eng.new_output(Kind.VGH)

    def run():
        for x, y, z in positions:
            eng.vgh(x, y, z, out)

    benchmark(run)
    assert np.isfinite(out.as_canonical()["v"]).all()


def test_coefficient_solve(benchmark):
    rng = np.random.default_rng(7)
    samples = rng.standard_normal((16, 16, 16, 64))
    from repro.core import solve_coefficients_3d

    benchmark(lambda: solve_coefficients_3d(samples))
