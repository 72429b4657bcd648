"""Workers inherit the parent's *resolved* config, never their own env.

The PR9 contract for sharded runs: the parent resolves the RunConfig
once (tuned DB or heuristic, concretized to ints) before sharding, and
every worker's batched engine runs the parent's exact plan — even if the
worker's own environment or tuning DB says otherwise.  The observable is
``_CrowdShard.plan()``: the chunk/tile/backend the engine actually built
with, plus the config dict it inherited.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core.coeffs import pad_table_3d
from repro.parallel.crowd import CrowdSpec, _CrowdShard, solve_spec_table
from repro.parallel.pool import ProcessCrowdPool
from repro.parallel.shared_table import SharedTable
from repro.tune.db import TuneDB, TunedConfig, TuneShape

pytestmark = pytest.mark.usefixtures("shm_sentinel")

SPEC_KW = dict(n_walkers=4, n_orbitals=2, grid_shape=(8, 8, 8), seed=3)


def _worker_plans(spec, n_workers=2):
    """Spawn a crowd pool over the spec and gather every shard's plan."""
    table = solve_spec_table(spec)
    shared = SharedTable.create(pad_table_3d(table))
    try:
        table_spec = dict(shared.spec, n_workers=n_workers)
        with ProcessCrowdPool(n_workers, _CrowdShard.attach, (spec, table_spec)) as pool:
            return pool.broadcast("plan")
    finally:
        shared.close()
        shared.unlink()


class TestInheritance:
    def test_workers_run_the_parents_resolved_plan(self):
        spec = CrowdSpec(**SPEC_KW, config=RunConfig.from_env()).resolved()
        cfg = spec.config
        assert cfg.is_resolved  # parent-side resolution happened
        for plan in _worker_plans(spec):
            assert plan["chunk"] == cfg.chunk_size
            assert plan["tile"] == cfg.tile_size
            assert plan["config"] == cfg.as_dict()

    def test_worker_env_cannot_override_shipped_config(self, monkeypatch):
        """Env set *after* parent-side resolution is inherited by the
        spawned workers — and must be ignored, because the shipped
        config already carries concrete values (rung 1 beats rung 2)."""
        spec = CrowdSpec(
            **SPEC_KW, config=RunConfig.from_env(chunk_size=3, tile_size=2)
        ).resolved()
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "7")
        monkeypatch.setenv("REPRO_TILE_SIZE", "1")
        for plan in _worker_plans(spec):
            assert plan["chunk"] == 3
            assert plan["tile"] == 2

    def test_tuned_winner_reaches_every_worker(self, monkeypatch, tmp_path):
        """End-to-end rung 3: a DB winner resolved parent-side shows up
        bit-identically in each worker's engine plan."""
        db_path = tmp_path / "db.json"
        monkeypatch.setenv("REPRO_TUNE_DB", str(db_path))
        TuneDB(path=db_path).put(
            TuneShape(2, 4, "float64", "vgh"), TunedConfig(chunk=3, tile=2)
        )
        spec = CrowdSpec(**SPEC_KW, config=RunConfig.from_env()).resolved()
        assert (spec.config.chunk_size, spec.config.tile_size) == (3, 2)
        assert spec.config.source_of("chunk_size") == "tuned"
        # Point workers at an empty DB: they must not need (or touch) it.
        monkeypatch.setenv("REPRO_TUNE_DB", str(tmp_path / "other.json"))
        plans = _worker_plans(spec)
        assert all(p["chunk"] == 3 and p["tile"] == 2 for p in plans)
        assert not (tmp_path / "other.json").exists()

    def test_all_workers_identical(self):
        spec = CrowdSpec(**SPEC_KW, config=RunConfig.from_env()).resolved()
        plans = _worker_plans(spec, n_workers=3)
        # n_walkers=4 over 3 workers: every populated shard, same plan.
        populated = [p for p in plans if p]
        assert len(populated) == 3
        assert all(p == populated[0] for p in populated[1:])

    def test_resolved_keeps_explicit_config(self):
        spec = CrowdSpec(**SPEC_KW, config=RunConfig(chunk_size=3, tile_size=2))
        resolved = spec.resolved()
        assert (resolved.config.chunk_size, resolved.config.tile_size) == (3, 2)
        # The resolved spec round-trips through pickle (what actually
        # happens on dispatch to a spawned worker).
        import pickle

        clone = pickle.loads(pickle.dumps(resolved))
        assert clone.config == resolved.config


class TestTraceInvariance:
    def test_vmc_trace_identical_under_any_config(self):
        """Blocking is an execution detail: two different resolved
        configs must produce bitwise-identical VMC populations."""
        from repro.parallel.vmc import run_vmc_population

        def run(config):
            spec = CrowdSpec(**SPEC_KW, config=config)
            return run_vmc_population(
                spec, n_steps=2, n_warmup=1, processes=False
            )

        a = run(RunConfig.from_env(chunk_size=2, tile_size=1))
        b = run(RunConfig.from_env(chunk_size=64, tile_size=2))
        np.testing.assert_array_equal(a.energies, b.energies)
        assert a.acceptance == b.acceptance


def _crowd(spec):
    from repro.parallel.crowd import run_crowd_parallel

    run_crowd_parallel(spec, n_workers=2, n_sweeps=1, tau=0.3)


def _vmc(spec):
    from repro.parallel.vmc import run_vmc_population

    run_vmc_population(spec, n_workers=2, n_steps=1, n_warmup=0)


def _dmc(spec):
    from repro.parallel.dmc import run_dmc_sharded

    run_dmc_sharded(spec, n_workers=2, n_generations=1)


def _dmc_fleet(spec):
    from repro.fleet import FleetConfig
    from repro.parallel.dmc import run_dmc_sharded

    run_dmc_sharded(spec, n_workers=2, n_generations=1, fleet=FleetConfig())


class TestDriversShipResolvedSpec:
    """Every process driver resolves the spec parent-side before shipping
    it (the promise on :attr:`CrowdSpec.config`), so no worker consults
    its own env or tuning DB for the blocking decision."""

    @pytest.mark.parametrize(
        "drive",
        [_crowd, _vmc, _dmc, _dmc_fleet],
        ids=["crowd", "vmc", "dmc", "dmc-fleet"],
    )
    def test_worker_initializer_gets_a_resolved_spec(self, monkeypatch, drive):
        shipped = []
        original = ProcessCrowdPool.__init__

        def spy(self, n_workers, initializer, init_args=(), *args, **kwargs):
            shipped.extend(a for a in init_args if isinstance(a, CrowdSpec))
            original(self, n_workers, initializer, init_args, *args, **kwargs)

        monkeypatch.setattr(ProcessCrowdPool, "__init__", spy)
        drive(CrowdSpec(**SPEC_KW))
        assert shipped, "the driver started no worker over a CrowdSpec"
        for spec in shipped:
            assert spec.config is not None and spec.config.is_resolved
