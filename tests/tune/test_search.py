"""The measured search engine: every candidate gated, winners persisted.

The non-negotiable here is the conformance gate — a candidate config can
only win by being *fast*, never by being *wrong* — so the tests drive
the gate with a poisoned engine and check it actually rejects, then
check the warm-path economics (second search = zero measurements).
"""

import numpy as np
import pytest

from repro.core.grid import Grid3D
from repro.tune.db import TIER_EXACT, TuneDB, TuneShape
from repro.tune.planner import plan_tiles
from repro.tune.search import (
    autotune_shape,
    autotune_table,
    candidate_configs,
)

SHAPE = TuneShape(16, 8, "float64", "vgh")


def _table_and_grid(shape=SHAPE, grid_shape=(8, 8, 8)):
    nx, ny, nz = grid_shape
    rng = np.random.default_rng(7)
    table = rng.standard_normal((nx, ny, nz, shape.n_splines)).astype(shape.dtype)
    return Grid3D(nx, ny, nz, (1.0, 1.0, 1.0)), table


class TestCandidates:
    def test_heuristic_is_first(self):
        itemsize = np.dtype("float64").itemsize
        cands = candidate_configs(SHAPE, itemsize, 8)
        plan = plan_tiles(SHAPE.n_splines, itemsize)
        assert cands[0] == (plan.chunk, plan.tile)

    def test_bounded_and_unique(self):
        cands = candidate_configs(
            TuneShape(512, 512, "float64"), 8, max_candidates=6
        )
        assert 1 <= len(cands) <= 6
        assert len(set(cands)) == len(cands)

    def test_tiles_never_exceed_n_splines(self):
        for n in (4, 16, 64):
            for chunk, tile in candidate_configs(TuneShape(n, 32, "float64"), 8, 16):
                assert 1 <= tile <= n
                assert chunk >= 1


class TestAutotuneTable:
    def test_cold_search_measures_and_wins(self, tmp_path):
        grid, table = _table_and_grid()
        db = TuneDB(path=tmp_path / "db.json")
        out = autotune_table(grid, table, SHAPE, db=db, repeats=1, max_candidates=4)
        assert not out.from_db
        assert out.measured >= 1
        assert out.config.tier == TIER_EXACT
        assert out.config.candidates == out.measured
        assert out.config.speedup >= 1.0  # heuristic is in the pool, so >= baseline

    def test_winner_is_persisted(self, tmp_path):
        grid, table = _table_and_grid()
        db = TuneDB(path=tmp_path / "db.json")
        out = autotune_table(grid, table, SHAPE, db=db, repeats=1, max_candidates=4)
        stored = TuneDB(path=tmp_path / "db.json").get(SHAPE)
        assert (stored.chunk, stored.tile) == (out.config.chunk, out.config.tile)

    def test_warm_hit_measures_nothing(self, tmp_path):
        grid, table = _table_and_grid()
        db = TuneDB(path=tmp_path / "db.json")
        autotune_table(grid, table, SHAPE, db=db, repeats=1, max_candidates=4)
        warm = autotune_table(grid, table, SHAPE, db=db, repeats=1, max_candidates=4)
        assert warm.from_db
        assert warm.measured == 0

    def test_force_remeasures(self, tmp_path):
        grid, table = _table_and_grid()
        db = TuneDB(path=tmp_path / "db.json")
        autotune_table(grid, table, SHAPE, db=db, repeats=1, max_candidates=4)
        forced = autotune_table(
            grid, table, SHAPE, db=db, repeats=1, max_candidates=4, force=True
        )
        assert not forced.from_db
        assert forced.measured >= 1

    def test_persist_false_leaves_db_untouched(self, tmp_path):
        grid, table = _table_and_grid()
        db = TuneDB(path=tmp_path / "db.json")
        autotune_table(
            grid, table, SHAPE, db=db, repeats=1, max_candidates=4, persist=False
        )
        assert db.get(SHAPE) is None

    def test_auto_measures_the_default_backend_only(self, monkeypatch, tmp_path):
        """backend="auto" searches the grid once, on the backend None
        resolves to with ``REPRO_BACKEND`` unset: no backend axis."""
        from repro.backends import ENV_VAR, resolve_backend

        monkeypatch.delenv(ENV_VAR, raising=False)
        grid, table = _table_and_grid()
        kwargs = dict(repeats=1, max_candidates=4, persist=False)
        solo = autotune_table(
            grid, table, SHAPE, db=TuneDB(path=tmp_path / "a.json"), **kwargs
        )
        auto = autotune_table(
            grid, table, SHAPE, db=TuneDB(path=tmp_path / "b.json"),
            backend="auto", **kwargs,
        )
        assert auto.measured == solo.measured
        assert auto.config.backend == solo.config.backend
        assert auto.config.backend == resolve_backend(None).name
        assert auto.config.tier == TIER_EXACT

    def test_gate_rejects_wrong_kernels(self, tmp_path, monkeypatch):
        """Poison the engine under test; the oracle must veto every
        candidate rather than crown a fast-but-wrong winner."""
        import repro.core.batched as batched

        real_eval = batched.BsplineBatched.evaluate_batch

        def poisoned(self, kind, positions, out):
            real_eval(self, kind, positions, out)
            out.v += 1.0e-3

        monkeypatch.setattr(batched.BsplineBatched, "evaluate_batch", poisoned)
        grid, table = _table_and_grid()
        db = TuneDB(path=tmp_path / "db.json")
        with pytest.raises(RuntimeError, match="conformance"):
            autotune_table(grid, table, SHAPE, db=db, repeats=1, max_candidates=2)
        assert db.get(SHAPE) is None  # nothing wrong ever lands in the DB


class TestAutotuneShape:
    def test_synthetic_path_round_trips(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        out = autotune_shape(SHAPE, db=db, repeats=1, max_candidates=3)
        assert not out.from_db
        assert db.get(SHAPE) is not None
        warm = autotune_shape(SHAPE, db=db, repeats=1, max_candidates=3)
        assert warm.from_db and warm.measured == 0

    def test_deterministic_winner_for_same_shape(self, tmp_path):
        """Same shape, two independent DBs: the winner may legitimately
        differ by timing noise, but both must be valid gated configs."""
        for name in ("a", "b"):
            db = TuneDB(path=tmp_path / f"{name}.json")
            out = autotune_shape(SHAPE, db=db, repeats=1, max_candidates=3)
            assert out.config.tier == TIER_EXACT
            assert 1 <= out.config.tile <= SHAPE.n_splines
