"""Edge cases: thread/tile mismatches, degenerate tilings, boundary positions."""

import numpy as np
import pytest

from repro.core import (
    BsplineAoSoA,
    BsplineSoA,
    Kind,
    NestedEvaluator,
    refimpl,
)
from repro.core.partition import partition


class TestPartitionTilesOversubscribed:
    def test_more_threads_than_tiles(self):
        ranges = partition(n_items=3, n_parts=8)
        assert len(ranges) == 8
        # The first three threads get one tile each; the rest idle.
        assert [len(r) for r in ranges] == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_coverage_is_exact_and_ordered(self):
        for n_tiles in (1, 3, 7):
            for n_threads in (1, 2, 5, 16):
                ranges = partition(n_tiles, n_threads)
                flat = [t for r in ranges for t in r]
                assert flat == list(range(n_tiles)), (n_tiles, n_threads)

    def test_single_tile_many_threads(self):
        ranges = partition(1, 4)
        assert [len(r) for r in ranges] == [1, 0, 0, 0]

    def test_nested_evaluator_with_idle_threads(self, small_grid, small_table):
        # 24 splines / 12 per tile = 2 tiles, but 6 threads: 4 idle workers
        # must not corrupt results or deadlock.
        eng = BsplineAoSoA(small_grid, small_table, tile_size=12)
        positions = [(0.3, 0.4, 0.5)]
        with NestedEvaluator(eng, n_threads=6) as nested:
            out = eng.new_output(Kind.VGH)
            nested.evaluate(Kind.VGH, positions, out)
        ref = eng.new_output(Kind.VGH)
        eng.vgh(*positions[0], ref)
        got, want = out.as_canonical(), ref.as_canonical()
        for key in ("v", "g", "l", "h"):
            np.testing.assert_array_equal(got[key], want[key])


class TestSingleTileAoSoA:
    def test_one_tile_layout(self, small_grid, small_table):
        eng = BsplineAoSoA(small_grid, small_table, tile_size=24)
        assert eng.n_tiles == 1
        out = eng.new_output(Kind.VGH)
        assert out.n_tiles == 1
        assert out.tiles[0].n_splines == 24

    @pytest.mark.parametrize("kind", ["v", "vgl", "vgh"])
    def test_one_tile_matches_soa_bitwise(self, small_grid, small_table, kind):
        # With Nb == N the tiled engine is exactly one SoA engine; the
        # outputs must match bit-for-bit, not just to tolerance.
        tiled = BsplineAoSoA(small_grid, small_table, tile_size=24)
        soa = BsplineSoA(small_grid, small_table)
        t_out = tiled.new_output(Kind(kind))
        s_out = soa.new_output(Kind(kind))
        for xyz in [(0.1, 0.2, 0.3), (-4.0, 7.7, 0.0), (1.999, 1.499, 2.499)]:
            getattr(tiled, kind)(*xyz, t_out)
            getattr(soa, kind)(*xyz, s_out)
            got, want = t_out.as_canonical(), s_out.as_canonical()
            for key in got:
                np.testing.assert_array_equal(got[key], want[key], err_msg=key)


class TestBoundaryPositions:
    """Positions exactly on grid planes — where locate()'s wrap can bite."""

    def boundary_positions(self, grid):
        lx, ly, lz = (
            grid.nx * grid.deltas[0],
            grid.ny * grid.deltas[1],
            grid.nz * grid.deltas[2],
        )
        return [
            (0.0, 0.0, 0.0),  # the origin corner
            (lx, ly, lz),  # the far corner (wraps to the origin)
            (3 * grid.deltas[0], 2 * grid.deltas[1], 5 * grid.deltas[2]),
            (-1e-16, -1e-16, -1e-16),  # the % rounding trap
            (lx / 2, 0.0, lz),  # mixed: interior, plane, wrap
        ]

    def test_locate_stays_in_range(self, small_grid):
        for x, y, z in self.boundary_positions(small_grid):
            i0, j0, k0, tx, ty, tz = small_grid.locate(x, y, z)
            assert 0 <= i0 < small_grid.nx
            assert 0 <= j0 < small_grid.ny
            assert 0 <= k0 < small_grid.nz
            assert 0.0 <= tx < 1.0 and 0.0 <= ty < 1.0 and 0.0 <= tz < 1.0

    @pytest.mark.parametrize("kind", ["v", "vgl", "vgh"])
    def test_engines_match_reference_on_boundaries(
        self, small_grid, small_table, kind
    ):
        eng = BsplineSoA(small_grid, small_table)
        for x, y, z in self.boundary_positions(small_grid):
            out = eng.new_output(Kind(kind))
            getattr(eng, kind)(x, y, z, out)
            got = out.as_canonical()
            if kind == "v":
                ref = {"v": refimpl.reference_v(small_grid, small_table, x, y, z)}
            elif kind == "vgl":
                v, g, lap = refimpl.reference_vgl(small_grid, small_table, x, y, z)
                ref = {"v": v, "g": g, "l": lap}
            else:
                v, g, h = refimpl.reference_vgh(small_grid, small_table, x, y, z)
                ref = {"v": v, "g": g, "h": h}
            for key, want in ref.items():
                np.testing.assert_allclose(
                    got[key],
                    want,
                    rtol=1e-9,
                    atol=1e-11,
                    err_msg=f"{key} at ({x}, {y}, {z})",
                )

    def test_periodic_seam_is_continuous(self, small_grid, small_table):
        # phi(L - eps) -> phi(0) as eps -> 0: no jump across the wrap.
        eng = BsplineSoA(small_grid, small_table)
        lx = small_grid.nx * small_grid.deltas[0]
        out_a, out_b = eng.new_output(Kind.V), eng.new_output(Kind.V)
        eng.v(lx - 1e-9, 0.4, 0.6, out_a)
        eng.v(0.0, 0.4, 0.6, out_b)
        np.testing.assert_allclose(out_a.v, out_b.v, rtol=1e-6, atol=1e-8)
