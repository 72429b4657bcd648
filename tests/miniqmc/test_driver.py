"""Tests for the miniQMC kernel drivers (paper Figs. 3/6 ports)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import RunConfig
from repro.miniqmc import (
    MiniQmcConfig,
    live_kernel_config,
    paper_coral,
    paper_sweep_sizes,
    random_coefficients,
    run_kernel_driver,
    run_tiled_driver,
)


@pytest.fixture(scope="module")
def cfg():
    return live_kernel_config(n_splines=32, grid=(10, 10, 10), n_samples=4)


@pytest.fixture(scope="module")
def table(cfg):
    return random_coefficients(cfg)


class TestConfig:
    def test_paper_sweep(self):
        assert paper_sweep_sizes() == (128, 256, 512, 1024, 2048, 4096)

    def test_coral_matches_paper(self):
        c = paper_coral()
        assert c.n_splines == 128
        assert c.grid_shape == (48, 48, 60)
        assert c.n_samples == 512
        assert c.n_walkers == 36

    def test_table_bytes(self):
        c = MiniQmcConfig(n_splines=4096, grid_shape=(48, 48, 48))
        assert c.table_bytes == 48**3 * 4096 * 4  # ~1.8 GB, the paper scale

    def test_random_coefficients_shape_dtype(self, cfg, table):
        assert table.shape == (10, 10, 10, 32)
        assert table.dtype == np.float32

    def test_random_coefficients_deterministic(self, cfg):
        np.testing.assert_array_equal(
            random_coefficients(cfg), random_coefficients(cfg)
        )


class TestKernelDriver:
    @pytest.mark.parametrize("engine", ["aos", "soa", "fused"])
    def test_runs_and_reports(self, cfg, table, engine):
        res = run_kernel_driver(cfg, engine, coefficients=table)
        assert set(res.seconds) == {"v", "vgl", "vgh"}
        for kern in ("v", "vgl", "vgh"):
            assert res.seconds[kern] > 0
            assert res.throughputs[kern] > 0
            assert res.evals[kern] == cfg.n_samples * cfg.n_iters

    def test_kernel_subset(self, cfg, table):
        res = run_kernel_driver(cfg, "soa", kernels=("vgh",), coefficients=table)
        assert set(res.seconds) == {"vgh"}

    def test_rejects_unknown_engine(self, cfg):
        with pytest.raises(ValueError):
            run_kernel_driver(cfg, "cuda")

    def test_walkers_scale_evals(self, table):
        c = live_kernel_config(n_splines=32, grid=(10, 10, 10), n_samples=2)
        c = replace(c, n_walkers=3)
        res = run_kernel_driver(c, "fused", kernels=("v",), coefficients=table)
        assert res.evals["v"] == 6


class TestTiledDriver:
    def test_requires_tile_size(self, cfg, table):
        with pytest.raises(ValueError, match="tile_size"):
            run_tiled_driver(cfg, coefficients=table)

    def test_runs_tiled(self, cfg, table):
        tc = replace(cfg, tile_size=8)
        res = run_tiled_driver(tc, kernels=("vgh",), coefficients=table)
        assert res.engine == "aosoa8"
        assert res.throughputs["vgh"] > 0

    def test_runs_nested(self, cfg, table):
        tc = replace(cfg, tile_size=8)
        res = run_tiled_driver(tc, n_threads=2, kernels=("v",), coefficients=table)
        assert res.throughputs["v"] > 0

    def test_tiled_outputs_match_flat(self, cfg, table):
        # Not just timing: the driver's engines agree numerically.
        from repro.core import BsplineAoSoA, BsplineSoA, Grid3D, Kind

        grid = Grid3D(10, 10, 10)
        flat = BsplineSoA(grid, table)
        tiled = BsplineAoSoA(grid, table, 8)
        of, ot = flat.new_output(Kind.VGH), tiled.new_output(Kind.VGH)
        flat.vgh(0.31, 0.62, 0.13, of)
        tiled.vgh(0.31, 0.62, 0.13, ot)
        np.testing.assert_allclose(
            of.as_canonical()["v"], ot.as_canonical()["v"], atol=1e-6
        )


class TestProcessSharding:
    """``processes=K`` shards walkers over worker processes; the work
    done (eval counts) must not depend on K, and sequential-only
    features must refuse to combine with it."""

    @pytest.mark.parametrize("n_processes", [1, 2])
    def test_kernel_driver_eval_counts_match_sequential(
        self, cfg, table, n_processes
    ):
        c = replace(cfg, n_walkers=3)
        seq = run_kernel_driver(c, "soa", kernels=("vgh",), coefficients=table)
        par = run_kernel_driver(
            c, "soa", kernels=("vgh",), coefficients=table, processes=n_processes
        )
        assert par.evals == seq.evals
        assert par.seconds["vgh"] > 0
        assert par.throughputs["vgh"] > 0

    def test_tiled_driver_accepts_processes(self, cfg, table):
        tc = replace(cfg, tile_size=8, n_walkers=2)
        par = run_tiled_driver(tc, kernels=("v",), coefficients=table, processes=2)
        assert par.engine == "aosoa8"
        assert par.evals["v"] == tc.n_walkers * tc.n_iters * tc.n_samples

    def test_processes_excludes_checkpointing(self, cfg, table, tmp_path):
        with pytest.raises(ValueError, match="sequential-mode"):
            run_kernel_driver(
                cfg,
                "soa",
                coefficients=table,
                processes=2,
                checkpoint_every=1,
                checkpoint_path=tmp_path,
            )

    def test_processes_excludes_nested_threads(self, cfg, table):
        tc = replace(cfg, tile_size=8)
        with pytest.raises(ValueError, match="worker processes"):
            run_tiled_driver(tc, n_threads=2, coefficients=table, processes=2)


class TestBatchedEngine:
    """``engine="batched"`` runs the padded/tiled batch kernels."""

    def test_runs_and_reports(self, cfg, table):
        res = run_kernel_driver(cfg, "batched", coefficients=table)
        assert res.engine == "batched"
        assert set(res.seconds) == {"v", "vgl", "vgh"}
        for kern in ("v", "vgl", "vgh"):
            assert res.evals[kern] == cfg.n_walkers * cfg.n_iters * cfg.n_samples
            assert res.throughputs[kern] > 0

    def test_chunk_and_tile_knobs(self, cfg, table):
        c = replace(cfg, tile_size=8, config=RunConfig(chunk_size=2))
        res = run_kernel_driver(c, "batched", kernels=("vgh",), coefficients=table)
        assert res.evals["vgh"] == c.n_walkers * c.n_iters * c.n_samples

    @pytest.mark.parametrize("n_processes", [1, 2])
    def test_sharded_eval_counts_match_sequential(self, cfg, table, n_processes):
        c = replace(cfg, n_walkers=3)
        seq = run_kernel_driver(c, "batched", kernels=("vgh",), coefficients=table)
        par = run_kernel_driver(
            c,
            "batched",
            kernels=("vgh",),
            coefficients=table,
            processes=n_processes,
        )
        assert par.evals == seq.evals
        assert par.seconds["vgh"] > 0

    def test_fingerprint_includes_chunk_size(self, cfg):
        from repro.miniqmc.driver import _driver_fingerprint

        a = _driver_fingerprint(replace(cfg, config=None), "batched", ("v",))
        b = _driver_fingerprint(
            replace(cfg, config=RunConfig(chunk_size=2)), "batched", ("v",)
        )
        assert a != b

    def test_fingerprint_names_a_backend_instance(self, cfg):
        # Checkpoint manifests are JSON: an instance is recorded by name.
        from repro.backends import get_backend
        from repro.miniqmc.driver import _driver_fingerprint

        run = replace(cfg, config=RunConfig(backend=get_backend("numpy")))
        assert _driver_fingerprint(run, "batched", ("v",))["backend"] == "numpy"
