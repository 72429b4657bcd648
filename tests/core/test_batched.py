"""Tests for the batched multi-position engine."""

import numpy as np
import pytest

from repro.core import BsplineBatched, BsplineFused, Grid3D
from repro.core.basis import bspline_weights_batch
from repro.core.batched import BatchedOutput
from repro.core.kinds import Kind


@pytest.fixture
def batched(small_grid, small_table):
    return BsplineBatched(small_grid, small_table)


@pytest.fixture
def fused(small_grid, small_table):
    return BsplineFused(small_grid, small_table)


@pytest.fixture
def positions(small_grid, rng):
    # Include wrap-prone points alongside random ones.
    pos = small_grid.random_positions(6, rng)
    pos[0] = (0.01, 0.01, 0.01)
    pos[1] = (1.99, 1.49, 2.49)
    return pos


class TestAgreementWithPerPosition:
    def test_v(self, batched, fused, positions):
        out = batched.new_output(Kind.VGH, n=len(positions))
        batched.v_batch(positions, out)
        single = fused.new_output(Kind.V)
        for s, (x, y, z) in enumerate(positions):
            fused.v(x, y, z, single)
            np.testing.assert_allclose(out.v[s], single.v, atol=1e-10)

    def test_vgl(self, batched, fused, positions):
        out = batched.new_output(Kind.VGH, n=len(positions))
        batched.vgl_batch(positions, out)
        single = fused.new_output(Kind.VGL)
        for s, (x, y, z) in enumerate(positions):
            fused.vgl(x, y, z, single)
            np.testing.assert_allclose(out.v[s], single.v, atol=1e-10)
            np.testing.assert_allclose(out.g[s], single.g, atol=1e-10)
            np.testing.assert_allclose(out.l[s], single.l, atol=1e-9)

    def test_vgh(self, batched, fused, positions):
        out = batched.new_output(Kind.VGH, n=len(positions))
        batched.vgh_batch(positions, out)
        single = fused.new_output(Kind.VGH)
        for s, (x, y, z) in enumerate(positions):
            fused.vgh(x, y, z, single)
            np.testing.assert_allclose(out.h[s], single.h, atol=1e-9)

    def test_vgh_fills_laplacian(self, batched, positions):
        out = batched.new_output(Kind.VGH, n=len(positions))
        batched.vgh_batch(positions, out)
        np.testing.assert_allclose(
            out.l, out.h[:, 0] + out.h[:, 3] + out.h[:, 5], atol=1e-9
        )


class TestStreamValidity:
    """Reusing one output across kernels must never serve stale numbers.

    Regression for the headline bug: ``vgh_batch`` followed by
    ``v_batch`` on the same buffer used to leave the old gradients /
    Hessians readable as if current.
    """

    def test_fresh_output_starts_with_nothing_valid(self, batched):
        assert batched.new_output(Kind.VGH, n=3).valid == frozenset()

    def test_each_kernel_declares_its_streams(self, batched, positions):
        out = batched.new_output(Kind.VGH, n=len(positions))
        batched.v_batch(positions, out)
        assert out.valid == {"v"}
        batched.vgl_batch(positions, out)
        assert out.valid == {"v", "g", "l"}
        batched.vgh_batch(positions, out)
        assert out.valid == {"v", "g", "l", "h"}

    def test_reuse_poisons_stale_streams(self, batched, positions, rng):
        # vgh -> vgl: h goes stale; vgl -> v: g and l go stale too.
        out = batched.new_output(Kind.VGH, n=len(positions))
        batched.vgh_batch(positions, out)
        moved = positions + 0.05
        batched.vgl_batch(moved, out)
        assert out.valid == {"v", "g", "l"}
        assert np.isnan(out.h).all(), "stale Hessian must be poisoned"
        assert np.isfinite(out.v).all() and np.isfinite(out.g).all()
        batched.v_batch(positions, out)
        assert out.valid == {"v"}
        assert np.isnan(out.g).all() and np.isnan(out.l).all()
        assert np.isfinite(out.v).all()

    def test_refreshed_streams_match_a_fresh_buffer(self, batched, positions):
        # The poison/refresh cycle must not perturb the live streams.
        reused = batched.new_output(Kind.VGH, n=len(positions))
        batched.vgh_batch(positions, reused)
        batched.v_batch(positions + 0.05, reused)
        batched.vgl_batch(positions, reused)
        fresh = batched.new_output(Kind.VGH, n=len(positions))
        batched.vgl_batch(positions, fresh)
        np.testing.assert_array_equal(reused.v, fresh.v)
        np.testing.assert_array_equal(reused.g, fresh.g)
        np.testing.assert_array_equal(reused.l, fresh.l)


class TestChunking:
    """``max_batch_bytes`` streams the batch through bounded temporaries
    with bitwise-identical results."""

    @pytest.mark.parametrize("kind", ["v", "vgl", "vgh"])
    @pytest.mark.parametrize("chunk_positions", [1, 2, 4])
    def test_chunked_matches_unchunked_bitwise(
        self, small_grid, small_table, positions, kind, chunk_positions
    ):
        full = BsplineBatched(small_grid, small_table)
        per_position = 64 * full.n_splines * small_table.dtype.itemsize
        chunked = BsplineBatched(
            small_grid, small_table,
            max_batch_bytes=chunk_positions * per_position,
        )
        assert chunked._chunk == chunk_positions
        a, b = full.new_output(Kind.VGH, n=len(positions)), chunked.new_output(Kind.VGH, n=len(positions))
        getattr(full, f"{kind}_batch")(positions, a)
        getattr(chunked, f"{kind}_batch")(positions, b)
        np.testing.assert_array_equal(a.v, b.v)
        if kind != "v":
            np.testing.assert_array_equal(a.g, b.g)
            np.testing.assert_array_equal(a.l, b.l)
        if kind == "vgh":
            np.testing.assert_array_equal(a.h, b.h)

    def test_singleton_matches_batch_bitwise(self, batched, positions):
        # The sharding contract in repro.parallel rests on this: a
        # position's bits cannot depend on its batch-mates.
        full = batched.new_output(Kind.VGH, n=len(positions))
        batched.vgh_batch(positions, full)
        for s in range(len(positions)):
            one = batched.new_output(Kind.VGH, n=1)
            batched.vgh_batch(positions[s : s + 1], one)
            np.testing.assert_array_equal(one.v[0], full.v[s])
            np.testing.assert_array_equal(one.h[:, :], full.h[s : s + 1])

    def test_tiny_cap_clamps_to_one_position(self, small_grid, small_table):
        engine = BsplineBatched(small_grid, small_table, max_batch_bytes=1)
        assert engine._chunk == 1

    def test_rejects_nonpositive_cap(self, small_grid, small_table):
        with pytest.raises(ValueError, match="max_batch_bytes"):
            BsplineBatched(small_grid, small_table, max_batch_bytes=0)


class TestValidation:
    def test_output_shapes(self, batched):
        out = batched.new_output(Kind.VGH, n=5)
        assert out.v.shape == (5, 24)
        assert out.g.shape == (5, 3, 24)
        assert out.h.shape == (5, 6, 24)

    def test_rejects_bad_positions(self, batched):
        out = batched.new_output(Kind.VGH, n=2)
        with pytest.raises(ValueError, match=r"\(ns, 3\)"):
            batched.v_batch(np.zeros((2, 2)), out)

    def test_rejects_zero_batch(self, batched):
        with pytest.raises(ValueError):
            batched.new_output(Kind.VGH, n=0)

    def test_rejects_mismatched_grid(self, small_table):
        with pytest.raises(ValueError, match="does not match"):
            BsplineBatched(Grid3D(8, 8, 8), small_table)

    def test_f32_dtype_propagates(self, small_grid, small_table_f32):
        b = BsplineBatched(small_grid, small_table_f32)
        out = b.new_output(Kind.VGH, n=3)
        assert out.v.dtype == np.float32

    def test_direct_output_defaults_to_float64(self):
        # Regression: the default used to be float32, silently
        # downcasting double-precision tables on directly-built outputs.
        out = BatchedOutput(2, 8)
        for stream in (out.v, out.g, out.l, out.h):
            assert stream.dtype == np.float64

    def test_f64_engine_results_stay_f64(self, batched, positions):
        out = batched.new_output(Kind.VGH, n=len(positions))
        batched.vgh_batch(positions, out)
        assert out.v.dtype == np.float64
        assert out.h.dtype == np.float64

    def test_batch_of_one(self, batched, fused):
        out = batched.new_output(Kind.VGH, n=1)
        batched.vgh_batch(np.array([[0.5, 0.5, 0.5]]), out)
        single = fused.new_output(Kind.VGH)
        fused.vgh(0.5, 0.5, 0.5, single)
        np.testing.assert_allclose(out.v[0], single.v, atol=1e-10)


class _FillCounter(np.ndarray):
    """ndarray that counts ``.fill`` calls (poison-once contract probe)."""

    def fill(self, value):
        self.fill_calls = getattr(self, "fill_calls", 0) + 1
        super().fill(value)


class TestTiling:
    """Spline-axis tiling must be invisible in the bits."""

    @pytest.mark.parametrize("tile", [2, 5, 8, 16, 24, 100])
    def test_tiled_matches_untiled_bitwise(
        self, small_grid, small_table, positions, tile
    ):
        plain = BsplineBatched(small_grid, small_table)
        tiled = BsplineBatched(small_grid, small_table, tile_size=tile)
        a = plain.new_output(Kind.VGH, n=len(positions))
        b = tiled.new_output(Kind.VGH, n=len(positions))
        plain.vgh_batch(positions, a)
        tiled.vgh_batch(positions, b)
        for stream in ("v", "g", "l", "h"):
            np.testing.assert_array_equal(
                getattr(b, stream), getattr(a, stream)
            )

    def test_width_one_tiles_are_never_emitted(self, small_grid, small_table):
        # einsum's length-1-axis inner loop sums in a different order, so
        # the iterator widens tile=1 and absorbs trailing orphan columns.
        eng = BsplineBatched(small_grid, small_table, tile_size=1)
        widths = [
            len(range(*ts.indices(eng.n_splines))) for ts in eng._tiles()
        ]
        assert all(w >= 2 for w in widths)
        assert sum(widths) == eng.n_splines

        odd = BsplineBatched(
            small_grid, small_table[..., :21], tile_size=5
        )  # 21 = 4*5 + 1: naive slicing would leave a width-1 orphan
        widths = [
            len(range(*ts.indices(odd.n_splines))) for ts in odd._tiles()
        ]
        assert widths == [5, 5, 5, 6]

    def test_plan_is_exposed(self, small_grid, small_table):
        eng = BsplineBatched(small_grid, small_table)
        assert eng.plan.n_splines == small_table.shape[3]
        assert eng.plan.source in ("auto", "override")


class TestPaddedConstructor:
    def test_accepts_prepadded_table(self, small_grid, small_table, positions):
        from repro.core import pad_table_3d

        raw = BsplineBatched(small_grid, small_table)
        pre = BsplineBatched(small_grid, pad_table_3d(small_table))
        np.testing.assert_array_equal(pre.P, small_table)
        a = raw.new_output(Kind.VGH, n=len(positions))
        b = pre.new_output(Kind.VGH, n=len(positions))
        raw.vgh_batch(positions, a)
        pre.vgh_batch(positions, b)
        for stream in ("v", "g", "l", "h"):
            np.testing.assert_array_equal(
                getattr(b, stream), getattr(a, stream)
            )

    def test_prepadded_table_is_adopted_without_copy(
        self, small_grid, small_table
    ):
        from repro.core import pad_table_3d

        padded = pad_table_3d(small_table)
        eng = BsplineBatched(small_grid, padded)
        assert eng.P.base is not None
        assert eng.P.base.base is padded or eng.P.base is padded

    def test_rejects_wrong_padded_shape(self, small_grid, small_table):
        bad = np.zeros(
            (small_table.shape[0] + 1,) + small_table.shape[1:],
            dtype=small_table.dtype,
        )
        with pytest.raises(ValueError, match="does not match"):
            BsplineBatched(small_grid, bad)


class TestChunkedPoisoning:
    def test_chunked_vgl_after_vgh_poisons_h_exactly_once(
        self, small_grid, small_table, positions
    ):
        eng = BsplineBatched(small_grid, small_table, chunk_size=2)
        out = eng.new_output(Kind.VGH, n=len(positions))
        eng.vgh_batch(positions, out)
        assert "h" in out.valid

        out.h = out.h.view(_FillCounter)
        eng.vgl_batch(positions, out)
        assert out.h.fill_calls == 1  # once per call, not once per chunk
        assert "h" not in out.valid
        assert np.isnan(np.asarray(out.h)).all()

    def test_fresh_output_is_never_filled(
        self, small_grid, small_table, positions
    ):
        eng = BsplineBatched(small_grid, small_table, chunk_size=2)
        out = eng.new_output(Kind.VGL, n=len(positions))
        out.h = out.h.view(_FillCounter)
        eng.vgl_batch(positions, out)
        assert getattr(out.h, "fill_calls", 0) == 0


class TestEvaluateDispatch:
    def test_kernel_methods_resolved_once(self, batched):
        assert set(batched._kernels) == {Kind.V, Kind.VGL, Kind.VGH}
        assert batched._kernels[Kind.VGH].__func__ is (
            BsplineBatched.vgh_batch
        )

    def test_scratch_position_buffer_is_reused(self, batched):
        buf = batched._pos1
        out = batched.new_output(Kind.V)
        batched.evaluate(Kind.V, (0.25, 0.5, 0.75), out)
        assert batched._pos1 is buf

    def test_evaluate_matches_batch_of_one_bitwise(self, batched, positions):
        single = batched.new_output(Kind.VGH)
        batch = batched.new_output(Kind.VGH, n=1)
        batched.evaluate(Kind.VGH, positions[0], single)
        batched.vgh_batch(positions[:1], batch)
        for stream in ("v", "g", "l", "h"):
            np.testing.assert_array_equal(
                getattr(single, stream), getattr(batch, stream)
            )


class TestLocateWeights:
    """The fused weight block equals the per-axis, per-order formula."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_axis_reference(self, small_grid, dtype):
        rng = np.random.default_rng(12)
        table = rng.standard_normal(small_grid.shape + (5,)).astype(dtype)
        engine = BsplineBatched(small_grid, table)
        positions = rng.random((13, 3)) * 3.0 - 1.0
        positions[0] = 0.0
        base, weights = engine._locate_weights(positions)
        _, frac = small_grid.locate_batch(positions)
        for axis, triple in enumerate(weights):
            inv = small_grid.inv_deltas[axis]
            scale = (None, engine.dtype.type(inv), engine.dtype.type(inv * inv))
            for order, got in enumerate(triple):
                want = bspline_weights_batch(frac[:, axis], order).astype(dtype)
                if scale[order] is not None:
                    want = want * scale[order]
                assert got.dtype == dtype and got.shape == (13, 4)
                assert got.flags.c_contiguous
                np.testing.assert_array_equal(
                    got.view(np.uint8), want.view(np.uint8)
                )
