"""The shared Opt C partition: one split, three consumers.

The thread-side nested evaluator, the process-side orbital shard
planner, and the tuner's candidate generator all block the spline axis
through :mod:`repro.core.partition`; these tests pin the split's
contract (exact cover, <=1 imbalance, deterministic) and the planner's
extra bitwise rule (no width-1 block).
"""

import pytest

from repro.core.partition import partition, plan_orbital_blocks


class TestPartition:
    @pytest.mark.parametrize("n_items", [1, 2, 5, 7, 48, 101])
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 4, 8])
    def test_exact_cover_in_order(self, n_items, n_parts):
        parts = partition(n_items, n_parts)
        assert len(parts) == n_parts
        flat = [i for rng in parts for i in rng]
        assert flat == list(range(n_items))

    @pytest.mark.parametrize(
        "n_items,n_parts", [(5, 2), (7, 3), (48, 5), (10, 4)]
    )
    def test_imbalance_bounded_at_one(self, n_items, n_parts):
        sizes = [len(rng) for rng in partition(n_items, n_parts)]
        assert max(sizes) - min(sizes) <= 1
        # Extras land on the leading parts, so sizes never increase.
        assert sizes == sorted(sizes, reverse=True)

    def test_parts_beyond_items_idle(self):
        parts = partition(2, 5)
        assert [len(rng) for rng in parts] == [1, 1, 0, 0, 0]

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            partition(bad, 2)
        with pytest.raises(ValueError):
            partition(4, bad)


class TestPlanOrbitalBlocks:
    @pytest.mark.parametrize("n_splines", [4, 7, 16, 33, 48])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 8])
    def test_blocks_cover_axis_exactly(self, n_splines, n_shards):
        blocks = plan_orbital_blocks(n_splines, n_shards)
        assert blocks[0].start == 0
        assert blocks[-1].stop == n_splines
        for a, b in zip(blocks, blocks[1:]):
            assert a.stop == b.start

    @pytest.mark.parametrize("n_splines", [2, 3, 5, 7, 16, 33])
    @pytest.mark.parametrize("n_shards", [2, 3, 4, 16, 64])
    def test_no_block_narrower_than_two(self, n_splines, n_shards):
        # The bitwise contract: a width-1 block would hit NumPy einsum's
        # length-1 contraction dispatch and drift by an ulp.
        blocks = plan_orbital_blocks(n_splines, n_shards)
        assert all(b.stop - b.start >= 2 for b in blocks)
        assert len(blocks) <= max(1, n_splines // 2)

    def test_uneven_widths_differ_by_at_most_one(self):
        blocks = plan_orbital_blocks(7, 3)
        widths = [b.stop - b.start for b in blocks]
        assert sum(widths) == 7
        assert max(widths) - min(widths) <= 1

    def test_single_column_table_yields_one_block(self):
        assert plan_orbital_blocks(1, 4) == [slice(0, 1)]

    def test_matches_partition(self):
        # The planner is the shared partition with the width rule on top:
        # same boundaries whenever no clamping is needed.
        blocks = plan_orbital_blocks(48, 4)
        ranges = partition(48, 4)
        assert [(b.start, b.stop) for b in blocks] == [
            (r.start, r.stop) for r in ranges
        ]

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            plan_orbital_blocks(bad, 2)
        with pytest.raises(ValueError):
            plan_orbital_blocks(8, bad)
