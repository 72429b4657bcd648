"""Cross-validation against SciPy's independent B-spline implementation.

``scipy.ndimage.map_coordinates(order=3, mode='grid-wrap',
prefilter=False)`` evaluates exactly the periodic uniform cubic B-spline
sum of paper Eq. (6), and ``scipy.ndimage.spline_filter`` solves exactly
our periodic interpolation problem.  Neither shares a line of code with
this package, so agreement here rules out any convention-level bug that
our internal oracle (written by the same authors as the kernels) could
share with them.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.core import (
    BsplineSoA,
    Grid3D,
    Kind,
    solve_coefficients_1d,
    solve_coefficients_3d,
)
from repro.core.refimpl import reference_v


def scipy_eval(P_single, grid, positions):
    """Evaluate one orbital's spline via scipy at Cartesian positions."""
    coords = np.array(
        [
            [x * grid.inv_deltas[0] for x, y, z in positions],
            [y * grid.inv_deltas[1] for x, y, z in positions],
            [z * grid.inv_deltas[2] for x, y, z in positions],
        ]
    )
    return ndimage.map_coordinates(
        P_single, coords, order=3, mode="grid-wrap", prefilter=False
    )


class TestKernelVsScipy:
    def test_reference_matches_map_coordinates(self, small_grid, small_table, rng):
        positions = small_grid.random_positions(10, rng)
        for n in (0, 7, 23):
            ours = np.array(
                [reference_v(small_grid, small_table, *p)[n] for p in positions]
            )
            theirs = scipy_eval(small_table[..., n], small_grid, positions)
            np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_soa_engine_matches_map_coordinates(self, small_grid, small_table, rng):
        eng = BsplineSoA(small_grid, small_table)
        out = eng.new_output(Kind.V)
        positions = small_grid.random_positions(6, rng)
        theirs = scipy_eval(small_table[..., 3], small_grid, positions)
        ours = []
        for p in positions:
            eng.v(*p, out)
            ours.append(out.v[3])
        np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_boundary_wrap_agrees(self, small_grid, small_table):
        # The periodic-wrap code path, specifically.
        positions = np.array([[0.005, 0.005, 0.005], [1.995, 1.495, 2.495]])
        theirs = scipy_eval(small_table[..., 0], small_grid, positions)
        ours = [reference_v(small_grid, small_table, *p)[0] for p in positions]
        np.testing.assert_allclose(ours, theirs, atol=1e-10)


class TestSolveVsScipy:
    def test_1d_solve_matches_spline_filter(self, rng):
        f = rng.standard_normal(24)
        ours = solve_coefficients_1d(f)
        theirs = ndimage.spline_filter1d(f, order=3, mode="grid-wrap")
        np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_3d_solve_matches_spline_filter(self, rng):
        f = rng.standard_normal((8, 10, 12))
        ours = solve_coefficients_3d(f[..., np.newaxis], dtype=np.float64)[..., 0]
        theirs = ndimage.spline_filter(f, order=3, mode="grid-wrap")
        np.testing.assert_allclose(ours, theirs, atol=1e-9)

    def test_end_to_end_interpolation_matches(self, rng):
        # Full pipeline both ways: samples -> coefficients -> off-grid value.
        f = rng.standard_normal((10, 10, 10))
        grid = Grid3D(10, 10, 10)
        P = solve_coefficients_3d(f[..., np.newaxis], dtype=np.float64)
        pos = grid.random_positions(5, rng)
        ours = [reference_v(grid, P, *p)[0] for p in pos]
        coords = pos.T * 10.0  # unit box: grid units = 10 * fraction
        theirs = ndimage.map_coordinates(
            f, coords, order=3, mode="grid-wrap", prefilter=True
        )
        np.testing.assert_allclose(ours, theirs, atol=1e-9)
