"""Unit tests for nested threading over tiles (Opt C)."""

import numpy as np
import pytest

from repro.core import BsplineAoSoA, BsplineSoA, Kind, NestedEvaluator
from repro.core.partition import partition


class TestPartition:
    def test_even_partition(self):
        ranges = partition(8, 4)
        assert [list(r) for r in ranges] == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_uneven_partition_spreads_remainder(self):
        ranges = partition(7, 3)
        sizes = [len(r) for r in ranges]
        assert sizes == [3, 2, 2]
        assert sorted(i for r in ranges for i in r) == list(range(7))

    def test_more_threads_than_tiles_gives_empty_ranges(self):
        ranges = partition(2, 5)
        assert [len(r) for r in ranges] == [1, 1, 0, 0, 0]

    def test_single_thread_owns_everything(self):
        (r,) = partition(10, 1)
        assert list(r) == list(range(10))

    def test_covers_exactly_once(self):
        for m, t in [(13, 4), (16, 16), (5, 7), (100, 9)]:
            ranges = partition(m, t)
            covered = sorted(i for r in ranges for i in r)
            assert covered == list(range(m))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            partition(0, 2)
        with pytest.raises(ValueError):
            partition(4, 0)


class TestNestedEvaluator:
    @pytest.fixture
    def tiled(self, small_grid, small_table):
        return BsplineAoSoA(small_grid, small_table, tile_size=4)

    @pytest.mark.parametrize("nth", [1, 2, 3, 6])
    @pytest.mark.parametrize("kind", ["v", "vgl", "vgh"])
    def test_nested_matches_sequential(self, tiled, nth, kind, small_grid, rng):
        positions = small_grid.random_positions(3, rng)
        seq_out = tiled.new_output(Kind(kind))
        tiled.eval_tiles(Kind(kind), range(tiled.n_tiles), positions, seq_out)
        with NestedEvaluator(tiled, nth) as nested:
            par_out = tiled.new_output(Kind(kind))
            nested.evaluate(Kind(kind), positions, par_out)
        a, b = seq_out.as_canonical(), par_out.as_canonical()
        for field in ("v", "g", "l", "h"):
            np.testing.assert_array_equal(a[field], b[field])

    def test_convenience_wrappers(self, tiled, small_grid, rng):
        positions = small_grid.random_positions(2, rng)
        with NestedEvaluator(tiled, 2) as nested:
            out = tiled.new_output(Kind.VGH)
            nested.evaluate_v(positions, out)
            nested.evaluate_vgl(positions, out)
            nested.evaluate_vgh(positions, out)

    def test_rejects_unknown_kind(self, tiled, small_grid, rng):
        with NestedEvaluator(tiled, 2) as nested:
            with pytest.raises(TypeError, match="Kind member"):
                nested.evaluate("bad", small_grid.random_positions(1, rng),
                                tiled.new_output(Kind.V))

    def test_rejects_nonpositive_threads(self, tiled):
        with pytest.raises(ValueError):
            NestedEvaluator(tiled, 0)

    def test_worker_exception_propagates(self, tiled, small_grid, rng):
        with NestedEvaluator(tiled, 2) as nested:
            wrong = BsplineAoSoA(
                tiled.grid, np.zeros((12, 10, 14, 24), dtype=np.float64), 12
            ).new_output(Kind.V)
            with pytest.raises(ValueError, match="blocking"):
                nested.evaluate(Kind.V, small_grid.random_positions(1, rng), wrong)

    def test_partition_is_static_and_contiguous(self, tiled):
        with NestedEvaluator(tiled, 3) as nested:
            assert len(nested.partition) == 3
            flattened = [i for r in nested.partition for i in r]
            assert flattened == sorted(flattened)

    def test_worker_exception_leaves_evaluator_usable(
        self, tiled, small_grid, rng
    ):
        # A failed evaluation must not wedge the pool: the next call with
        # a correct output buffer succeeds.
        positions = small_grid.random_positions(2, rng)
        with NestedEvaluator(tiled, 2) as nested:
            wrong = BsplineAoSoA(
                tiled.grid, np.zeros((12, 10, 14, 24), dtype=np.float64), 12
            ).new_output(Kind.V)
            with pytest.raises(ValueError):
                nested.evaluate(Kind.V, positions, wrong)
            good = tiled.new_output(Kind.V)
            nested.evaluate(Kind.V, positions, good)
            assert np.isfinite(good.tiles[0].v).all()

    def test_evaluate_after_close_raises_clear_error(
        self, tiled, small_grid, rng
    ):
        nested = NestedEvaluator(tiled, 2)
        assert not nested.closed
        nested.close()
        assert nested.closed
        with pytest.raises(RuntimeError, match="closed; create a new evaluator"):
            nested.evaluate(
                Kind.V, small_grid.random_positions(1, rng), tiled.new_output(Kind.V)
            )

    def test_close_is_idempotent(self, tiled):
        nested = NestedEvaluator(tiled, 2)
        nested.close()
        nested.close()  # second close must not raise
        assert nested.closed

    def test_context_manager_closes(self, tiled):
        with NestedEvaluator(tiled, 2) as nested:
            pass
        assert nested.closed
