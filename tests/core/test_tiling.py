"""Unit tests for tiling arithmetic, candidates and autotuning."""

import numpy as np
import pytest

from repro.core import (
    Grid3D,
    autotune_tile_size,
    candidate_tile_sizes,
    input_working_set_bytes,
    output_working_set_bytes,
    split_table,
)


class TestSplitTable:
    def test_tiles_are_contiguous_copies(self, small_table):
        tiles = split_table(small_table, 8)
        assert len(tiles) == 3
        for t in tiles:
            assert t.shape == (12, 10, 14, 8)
            assert t.flags["C_CONTIGUOUS"]
            assert t.base is None or t.base is not small_table

    def test_content_preserved(self, small_table):
        tiles = split_table(small_table, 6)
        rebuilt = np.concatenate(tiles, axis=3)
        np.testing.assert_array_equal(rebuilt, small_table)

    def test_rejects_nondivisor(self, small_table):
        with pytest.raises(ValueError, match="divide"):
            split_table(small_table, 5)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            split_table(np.zeros((4, 4, 4)), 2)


class TestWorkingSets:
    def test_input_ws_matches_paper_formula(self):
        # Paper Sec. V-B: input working set = 4 * Ng * Nb bytes (SP).
        ng = 48 * 48 * 48
        assert input_working_set_bytes(ng, 64) == 4 * ng * 64

    def test_input_ws_scales_with_threads(self):
        assert input_working_set_bytes(1000, 64, 4, 4) == 4 * input_working_set_bytes(
            1000, 64, 4, 1
        )

    def test_output_ws_vgh_soa_is_40NwNb(self):
        # Paper: "full SP output working set size in bytes for VGH is 40N Nw".
        assert output_working_set_bytes("vgh", "soa", 256, 512) == 40 * 256 * 512

    def test_output_ws_vgh_aos_is_52NwNb(self):
        # 13 streams x 4 bytes for the AoS baseline.
        assert output_working_set_bytes("vgh", "aos", 10, 8) == 52 * 10 * 8

    def test_output_ws_strong_scaling_invariant(self):
        # Nw/nth walkers x nth threads keeps the output set constant
        # (paper Sec. V-C).
        base = output_working_set_bytes("vgh", "soa", 256, 512, nth=1)
        scaled = output_working_set_bytes("vgh", "soa", 256 // 8, 512, nth=8)
        assert base == scaled

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            output_working_set_bytes("vg", "soa", 1, 1)


class TestCandidates:
    def test_paper_sweep(self):
        # "Starting at Nb = 16 ... in the multiple of two till Nb = N".
        assert candidate_tile_sizes(2048) == [16, 32, 64, 128, 256, 512, 1024, 2048]

    def test_only_divisors(self):
        assert candidate_tile_sizes(96) == [16, 32]
        assert all(96 % nb == 0 for nb in candidate_tile_sizes(96))

    def test_small_n_falls_back_to_n(self):
        assert candidate_tile_sizes(8) == [8]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            candidate_tile_sizes(0)


class TestAutotune:
    def test_autotune_returns_valid_candidate(self, rng):
        grid = Grid3D(8, 8, 8)
        P = rng.standard_normal((8, 8, 8, 16)).astype(np.float32)
        best, timings = autotune_tile_size(
            grid, P, "vgh", candidates=[4, 8, 16], n_samples=2, repeats=1
        )
        assert best in (4, 8, 16)
        assert set(timings) == {4, 8, 16}
        assert all(t > 0 for t in timings.values())
