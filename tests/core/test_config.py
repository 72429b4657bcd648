"""The PR9 unified configuration API: one RunConfig, one resolution order.

Every test here pins one rung of the documented order — explicit kwarg >
``REPRO_*`` env var > tuned-DB entry > cache heuristic — including the
provenance labels that ``python -m repro tune show`` and the benches
print, and the parent-side resolution contract the parallel drivers
rely on.
"""

import importlib
import json
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.config import (
    TUNE_LOOKUP,
    TUNE_OFF,
    TUNE_SEARCH,
    RunConfig,
    load_run_config,
)
from repro.tune.db import TuneDB, TunedConfig, TuneShape
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

    @pytest.mark.parametrize("field", ["chunk_size", "tile_size"])
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
        monkeypatch.setenv("REPRO_TUNE", "off")
        cfg = RunConfig.from_env()
        assert (cfg.chunk_size, cfg.tile_size) == (64, 16)
        assert cfg.backend == "numpy"
        assert cfg.tune == TUNE_OFF
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
        """Every backend is exact tier, so an allclose winner an older
        search stored is served to none of them."""
        db = TuneDB(path=tmp_path / "db.json")
        db.put(
            TuneShape(32, 8, "float64", "vgh"),
            TunedConfig(chunk=8, tile=4, tier="allclose"),
        )
        for backend in (None, "auto", "cc", "numpy"):
            cfg = RunConfig(backend=backend).resolved_for(
                32, batch=8, dtype=np.float64, db=db
            )
            assert cfg.source_of("chunk_size") == "heuristic"

    def test_auto_backend_never_adopts_a_tuned_winner(self, tmp_path):
        db = TuneDB(path=tmp_path / "db.json")
        db.put(
            TuneShape(32, 8, "float64", "vgh"),
            TunedConfig(chunk=8, tile=4, backend="numpy"),
        )
        # The winner's blocking is served; the backend stays as asked:
        # "auto" resolves as the default does, never to a DB entry.
        for backend in ("auto", None):
            cfg = RunConfig(backend=backend).resolved_for(
                32, batch=8, dtype=np.float64, db=db
            )
            assert (cfg.chunk_size, cfg.tile_size) == (8, 4)
            assert cfg.backend == backend
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
        # Configs saved before the per-walker schedule, the delay knob
        # and the process-level orbital split were removed carry the
        # retired "step_mode", "delay", "processes" and "orbital_shards"
        # keys; they must still load.
        retired = {"step_mode": "walker", "delay": 4, "processes": 2,
                   "orbital_shards": 2}
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"chunk_size": 8, **retired}))
        cfg = load_run_config(path)
        assert cfg.chunk_size == 8
        assert not set(retired) & set(cfg.as_dict())

    def test_load_run_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="object"):
            load_run_config(path)


def _knob_surfaces():
    """Every surface that lost its per-call knob kwargs: name ->
    (build(ensemble, **kwargs), deleted kwarg names)."""
    from repro.core import BsplineBatched, Grid3D
    from repro.fleet import FleetConfig
    from repro.lattice import Cell, PlaneWaveOrbitalSet
    from repro.miniqmc.app import build_app
    from repro.miniqmc.config import MiniQmcConfig
    from repro.parallel import (
        CrowdSpec,
        run_crowd_parallel,
        run_dmc_sharded,
        run_vmc_population,
    )
    from repro.qmc.batched_step import CrowdState
    from repro.qmc.dmc import build_dmc_ensemble
    from repro.qmc.rng import WalkerRngPool
    from repro.qmc.slater import SlaterDet, SplineOrbitalSet
    from repro.serve.server import ServeConfig

    knobs = ("tile_size", "chunk_size", "backend")
    split = ("split", "orbital_shards")
    spec = CrowdSpec(n_walkers=2, n_orbitals=2)

    def spos(ens):
        return ens[0].wf.slater.spos

    def from_functions(ens, **kw):
        cell = Cell.cubic(6.0)
        return SplineOrbitalSet.from_orbital_functions(
            cell, PlaneWaveOrbitalSet(cell, 2), (8, 8, 8), **kw
        )

    return {
        "SplineOrbitalSet": (
            lambda ens, **kw: SplineOrbitalSet(
                spos(ens).cell, spos(ens).grid, spos(ens).engine, **kw
            ),
            knobs,
        ),
        "SplineOrbitalSet.from_orbital_functions": (from_functions, knobs),
        "build_dmc_ensemble": (
            lambda ens, **kw: build_dmc_ensemble(
                WalkerRngPool(11), 1, n_orbitals=2, grid_shape=(8, 8, 8), **kw
            ),
            knobs,
        ),
        "build_app": (
            lambda ens, **kw: build_app(
                n_orbitals=2, grid_shape=(8, 8, 8), profile=False, **kw
            ),
            knobs,
        ),
        "CrowdSpec": (
            lambda ens, **kw: CrowdSpec(n_walkers=2, n_orbitals=2, **kw),
            knobs,
        ),
        "MiniQmcConfig": (
            lambda ens, **kw: MiniQmcConfig(8, (8, 8, 8), **kw),
            ("chunk_size", "backend"),
        ),
        "CrowdState": (
            lambda ens, **kw: CrowdState(
                [w.wf for w in ens], [w.rng for w in ens], **kw
            ),
            ("tile_size", "chunk_size", "config"),
        ),
        "SlaterDet": (
            lambda ens, **kw: SlaterDet(spos(ens), ens[0].wf.electrons, **kw),
            ("delay",),
        ),
        "run_crowd_parallel": (
            lambda ens, **kw: run_crowd_parallel(spec, 2, 1, 0.1, **kw),
            split,
        ),
        "run_vmc_population": (
            lambda ens, **kw: run_vmc_population(spec, 2, **kw),
            split + ("processes",),
        ),
        "run_dmc_sharded": (
            lambda ens, **kw: run_dmc_sharded(spec, 2, **kw),
            split,
        ),
        "RunConfig": (
            lambda ens, **kw: RunConfig(**kw),
            ("processes", "orbital_shards"),
        ),
        "TunedConfig": (
            lambda ens, **kw: TunedConfig(chunk=8, tile=4, **kw),
            ("processes", "orbital_shards"),
        ),
        "ServeConfig": (lambda ens, **kw: ServeConfig(**kw), ("orbital_shards",)),
        "FleetConfig": (
            lambda ens, **kw: FleetConfig(**kw),
            ("rebalance", "rebalance_threshold"),
        ),
        "BsplineBatched": (
            lambda ens, **kw: BsplineBatched(
                Grid3D(4, 4, 4, (1.0, 1.0, 1.0)), np.zeros((4, 4, 4, 4)), **kw
            ),
            ("spline_range",),
        ),
    }


_KNOB_VALUES = {
    "tile_size": 2,
    "chunk_size": 4,
    "backend": "numpy",
    "config": RunConfig(chunk_size=4),
    "delay": 2,
    "split": "walkers",
    "orbital_shards": 1,
    "processes": 1,
    "spline_range": (0, 2),
    "rebalance": True,
    "rebalance_threshold": 0.25,
}

_DELETED_KWARGS = [
    (surface, kwarg)
    for surface, (_, kwargs) in _knob_surfaces().items()
    for kwarg in kwargs
]


class TestOneKnobSpelling:
    """``config=RunConfig(...)`` is the only way to set chunk, tile and
    backend above the ``BsplineBatched`` primitive; the per-call kwargs
    are gone, and so are ``SlaterDet``'s delayed-update knob, every knob
    of the process-level orbital split and the fleet's rebalancer knobs
    (``repro.parallel.sharding`` alone places walkers)."""

    @pytest.fixture(scope="class")
    def ensemble(self):
        from repro.qmc.dmc import build_dmc_ensemble
        from repro.qmc.rng import WalkerRngPool

        return build_dmc_ensemble(
            WalkerRngPool(11), 2, n_orbitals=2, grid_shape=(8, 8, 8)
        )

    @pytest.mark.parametrize("surface, kwarg", _DELETED_KWARGS)
    def test_deleted_kwarg_raises_type_error(self, surface, kwarg, ensemble):
        build, _ = _knob_surfaces()[surface]
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{kwarg}'"):
            build(ensemble, **{kwarg: _KNOB_VALUES[kwarg]})

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.fleet", "plan_rebalance"),
            ("repro.fleet.rebalance", None),
            ("repro.miniqmc", "WalkerEnsemble"),
            ("repro.miniqmc.ensemble", None),
        ],
    )
    def test_deleted_names_do_not_import(self, module, name):
        with pytest.raises(ImportError):
            if name is None:
                importlib.import_module(module)
            else:
                exec(f"from {module} import {name}", {})

    def test_miniqmc_tile_size_is_not_deprecated(self, recwarn):
        # tile_size is the physical AoSoA block width (the paper's Nb),
        # not a tuning knob — it stays a first-class field.
        from repro.miniqmc.config import MiniQmcConfig

        MiniQmcConfig(8, (8, 8, 8), tile_size=8)
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]

    def test_supported_spellings_stay_silent(self):
        code = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as rec:\n"
            "    warnings.simplefilter('always')\n"
            "    from repro.tune import plan_tiles\n"
            "    from repro.core import plan_tiles as core_plan\n"
            "assert not [w for w in rec\n"
            "            if issubclass(w.category, DeprecationWarning)], rec\n"
            "assert plan_tiles is core_plan\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
