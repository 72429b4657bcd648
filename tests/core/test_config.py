"""The PR9 unified configuration API: one RunConfig, one resolution order.

Every test here pins one rung of the documented order — explicit kwarg >
``REPRO_*`` env var > tuned-DB entry > cache heuristic — including the
provenance labels that ``python -m repro tune show`` and the benches
print, and the parent-side resolution contract the parallel drivers
rely on.
"""

import pickle

import numpy as np
import pytest

from repro.config import (
    TUNE_LOOKUP,
    TUNE_OFF,
    TUNE_SEARCH,
    RunConfig,
    deprecated_kwargs,
    load_run_config,
)
from repro.tune.db import TIER_ALLCLOSE, TuneDB, TunedConfig, TuneShape
from repro.tune.planner import plan_tiles


class TestConstruction:
    def test_plain_construction_reads_no_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "99")
        cfg = RunConfig()
        assert cfg.chunk_size is None
        assert cfg.source_of("chunk_size") == "default"

    def test_tune_normalization(self):
        assert RunConfig(tune=None).tune == TUNE_LOOKUP
        assert RunConfig(tune=False).tune == TUNE_OFF
        assert RunConfig(tune=True).tune == TUNE_LOOKUP
        assert RunConfig(tune="OFF").tune == TUNE_OFF
        assert RunConfig(tune="search").tune == TUNE_SEARCH
        assert RunConfig(tune="1").tune == TUNE_LOOKUP
        with pytest.raises(ValueError, match="tune"):
            RunConfig(tune="sometimes")

    @pytest.mark.parametrize(
        "field", ["chunk_size", "tile_size", "processes"]
    )
    def test_positive_int_validation(self, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: 0})

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(TypeError, match="unknown"):
            RunConfig().replace(chunck_size=8)

    def test_from_env_rejects_unknown_field(self):
        with pytest.raises(TypeError, match="unknown"):
            RunConfig.from_env(chunck_size=8)


class TestRungOrder:
    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "64")
        cfg = RunConfig.from_env(chunk_size=32)
        assert cfg.chunk_size == 32
        assert cfg.source_of("chunk_size") == "kwarg"

    def test_env_rung(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "64")
        monkeypatch.setenv("REPRO_TILE_SIZE", "16")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_PROCESSES", "3")
        monkeypatch.setenv("REPRO_TUNE", "off")
        cfg = RunConfig.from_env()
        assert (cfg.chunk_size, cfg.tile_size) == (64, 16)
        assert cfg.backend == "numpy"
        assert (cfg.processes, cfg.tune) == (3, TUNE_OFF)
        assert all(
            cfg.source_of(f) == "env"
            for f in ("chunk_size", "tile_size", "backend")
        )

    def test_env_parse_error_is_loud(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "many")
        with pytest.raises(ValueError, match="REPRO_CHUNK_SIZE"):
            RunConfig.from_env()

    def test_tuned_rung(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(TuneShape(32, 8, "float64", "vgh"), TunedConfig(chunk=8, tile=4))
        cfg = RunConfig().resolved_for(32, batch=8, dtype=np.float64, db=db)
        assert (cfg.chunk_size, cfg.tile_size) == (8, 4)
        assert cfg.source_of("chunk_size") == "tuned"
        assert cfg.source_of("tile_size") == "tuned"

    def test_tuned_tile_clamped_to_n_splines(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(TuneShape(4, 8, "float64", "vgh"), TunedConfig(chunk=8, tile=64))
        cfg = RunConfig().resolved_for(4, batch=8, dtype=np.float64, db=db)
        assert cfg.tile_size == 4

    def test_heuristic_rung(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")  # empty
        cfg = RunConfig().resolved_for(32, batch=8, dtype=np.float64, db=db)
        plan = plan_tiles(32, np.dtype(np.float64).itemsize)
        assert (cfg.chunk_size, cfg.tile_size) == (plan.chunk, plan.tile)
        assert cfg.source_of("chunk_size") == "heuristic"
        assert cfg.is_resolved

    def test_tune_off_skips_db(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(TuneShape(32, 8, "float64", "vgh"), TunedConfig(chunk=8, tile=4))
        cfg = RunConfig(tune="off").resolved_for(32, batch=8, dtype=np.float64, db=db)
        assert cfg.source_of("chunk_size") == "heuristic"

    def test_explicit_fields_pass_through_resolution(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(TuneShape(32, 8, "float64", "vgh"), TunedConfig(chunk=8, tile=4))
        cfg = RunConfig.from_env(chunk_size=128).resolved_for(
            32, batch=8, dtype=np.float64, db=db
        )
        assert cfg.chunk_size == 128  # rung 1 survives
        assert cfg.source_of("chunk_size") == "kwarg"
        assert cfg.tile_size == 4  # the unset field still resolves
        assert cfg.source_of("tile_size") == "tuned"

    def test_search_rung_measures_and_persists(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        cfg = RunConfig(tune="search").resolved_for(
            8, batch=8, dtype=np.float64, db=db
        )
        assert cfg.is_resolved
        assert cfg.source_of("chunk_size") == "tuned"
        # The winner is now in the DB: a lookup-mode config gets it too.
        warm = RunConfig().resolved_for(8, batch=8, dtype=np.float64, db=db)
        assert (warm.chunk_size, warm.tile_size) == (cfg.chunk_size, cfg.tile_size)

    def test_allclose_entry_invisible_to_exact_path(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(
            TuneShape(32, 8, "float64", "vgh"),
            TunedConfig(chunk=8, tile=4, tier=TIER_ALLCLOSE, rtol=1e-6, atol=1e-9),
        )
        # backend=None resolves to the bit-exact numpy path: the
        # allclose winner must not be served.
        cfg = RunConfig().resolved_for(32, batch=8, dtype=np.float64, db=db)
        assert cfg.source_of("chunk_size") == "heuristic"
        # An allclose-tier backend spec accepts it.
        cfg = RunConfig(backend="auto").resolved_for(
            32, batch=8, dtype=np.float64, db=db
        )
        assert cfg.source_of("chunk_size") == "tuned"

    def test_auto_backend_adopts_tuned_winner(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(
            TuneShape(32, 8, "float64", "vgh"),
            TunedConfig(chunk=8, tile=4, backend="numpy"),
        )
        # "auto" delegates the backend axis: the resolved config carries
        # the winner's concrete backend so workers never re-resolve.
        cfg = RunConfig(backend="auto").resolved_for(
            32, batch=8, dtype=np.float64, db=db
        )
        assert cfg.backend == "numpy"
        assert cfg.source_of("backend") == "tuned"
        # backend=None keeps meaning "engine default" — never overridden.
        cfg = RunConfig().resolved_for(32, batch=8, dtype=np.float64, db=db)
        assert cfg.backend is None
        assert cfg.source_of("backend") == "default"


class TestSerialization:
    def test_dict_round_trip(self):
        cfg = RunConfig.from_env(chunk_size=8, tile_size=4, tune="search")
        clone = RunConfig.from_dict(cfg.as_dict())
        assert clone == cfg

    def test_pickle_round_trip(self):
        cfg = RunConfig.from_env(chunk_size=8, backend="numpy")
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_load_run_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"chunk_size": 8, "tile_size": 4, "future_knob": 1}')
        cfg = load_run_config(path)
        assert (cfg.chunk_size, cfg.tile_size) == (8, 4)
        assert cfg.source_of("chunk_size") == "kwarg"  # a file is rung 1
        assert cfg.source_of("backend") == "default"

    def test_load_run_config_ignores_legacy_step_mode(self, tmp_path):
        # Configs saved before the per-walker schedule and the delay knob
        # were removed carry the retired "step_mode" and "delay" keys;
        # they must still load.
        path = tmp_path / "run.json"
        path.write_text('{"chunk_size": 8, "step_mode": "walker", "delay": 4}')
        cfg = load_run_config(path)
        assert cfg.chunk_size == 8
        assert "step_mode" not in cfg.as_dict()
        assert "delay" not in cfg.as_dict()

    def test_load_run_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_run_config(path)


class TestDeprecatedKwargs:
    def test_warns_once_per_call_listing_all_kwargs(self):
        with pytest.warns(DeprecationWarning, match="chunk_size, tile_size") as rec:
            deprecated_kwargs("Api", chunk_size=True, tile_size=True, backend=False)
        assert len(rec) == 1

    def test_silent_when_nothing_used(self, recwarn):
        deprecated_kwargs("Api", chunk_size=False)
        assert not recwarn.list
