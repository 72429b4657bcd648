"""End-to-end observability: drivers, QMC, checkpoints, and both CLIs.

These are the acceptance tests for the ISSUE: an observed run must
produce a valid Chrome-trace JSON and a metrics dump carrying per-kernel
eval counts and latency histograms.
"""

import json
import multiprocessing as mp

import numpy as np
import pytest

from repro.miniqmc.config import MiniQmcConfig
from repro.miniqmc.driver import run_kernel_driver, run_tiled_driver
from repro.obs import OBS
from repro.qmc.dmc import build_dmc_ensemble, run_dmc
from repro.qmc.rng import WalkerRngPool


def tiny_config(**overrides):
    defaults = dict(
        n_splines=16,
        grid_shape=(8, 8, 8),
        n_samples=4,
        n_iters=1,
        n_walkers=2,
        seed=7,
    )
    defaults.update(overrides)
    return MiniQmcConfig(**defaults)


class TestKernelDriver:
    def test_eval_counts_and_latency_histograms(self, obs):
        config = tiny_config()
        run_kernel_driver(config, engine="soa", kernels=("v", "vgh"))
        expected = config.n_walkers * config.n_iters * config.n_samples
        for kern in ("v", "vgh"):
            c = obs.registry.counter(
                "kernel_evals_total", engine="soa", kernel=kern
            )
            assert c.value == expected
            h = obs.registry.histogram(
                "kernel_batch_seconds", engine="soa", kernel=kern
            )
            assert h.count == config.n_walkers
            assert h.sum > 0
            snap = h.snapshot()
            assert snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["max"]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_workers_record_under_either_start_method(
        self, obs, monkeypatch, start_method
    ):
        """A spawned worker does not inherit the parent's recording flag;
        the pool passes it, so both start methods merge every count."""
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} is not available here")
        monkeypatch.setenv("REPRO_START_METHOD", start_method)
        config = tiny_config()
        run_kernel_driver(config, engine="soa", kernels=("vgh",), processes=2)
        c = obs.registry.counter("kernel_evals_total", engine="soa", kernel="vgh")
        assert c.value == config.n_walkers * config.n_iters * config.n_samples

    def test_bytes_moved_recorded(self, obs):
        config = tiny_config()
        run_kernel_driver(config, engine="aos", kernels=("vgh",))
        evals = config.n_walkers * config.n_iters * config.n_samples
        b = obs.registry.counter("kernel_bytes_total", engine="aos", kernel="vgh")
        # AoS VGH: (64 stencil + 13 output streams) * N * itemsize per eval.
        assert b.value == evals * 77 * config.n_splines * np.dtype(config.dtype).itemsize

    def test_trace_has_per_walker_kernel_events(self, obs, tmp_path):
        run_kernel_driver(tiny_config(), engine="soa", kernels=("vgl",))
        path = tmp_path / "trace.json"
        obs.write(trace_out=path)
        doc = json.loads(path.read_text())
        kernel_events = [
            e for e in doc["traceEvents"] if e["name"] == "kernel:vgl"
        ]
        assert len(kernel_events) == 2  # one per walker
        for ev in kernel_events:
            assert ev["ph"] == "X"
            assert ev["dur"] > 0
            assert ev["args"]["engine"] == "soa"


class TestTiledDriver:
    def test_occupancy_gauges_and_counts(self, obs):
        config = tiny_config(tile_size=8)  # 16 splines -> 2 tiles
        run_tiled_driver(config, n_threads=2, kernels=("v",))
        assert obs.registry.gauge("driver_tiles").value == 2
        assert obs.registry.gauge("driver_threads").value == 2
        assert obs.registry.gauge("driver_tile_occupancy").value == 1.0
        expected = config.n_walkers * config.n_iters * config.n_samples
        c = obs.registry.counter("kernel_evals_total", engine="aosoa8", kernel="v")
        assert c.value == expected
        # Nested evaluation counts per-tile work units too: 2 tiles/position.
        tiles = obs.registry.counter("tile_evals_total", engine="aosoa", kernel="v")
        assert tiles.value == expected * 2

    def test_single_thread_counts_logical_calls_once(self, obs):
        config = tiny_config(tile_size=8)
        run_tiled_driver(config, n_threads=1, kernels=("vgh",))
        expected = config.n_walkers * config.n_iters * config.n_samples
        calls = obs.registry.counter(
            "kernel_calls_total", engine="aosoa", kernel="vgh"
        )
        assert calls.value == expected


class TestQmcAndResilience:
    def test_dmc_records_generations_and_checkpoints(self, obs, tmp_path):
        pool = WalkerRngPool(11)
        walkers = build_dmc_ensemble(pool, 2, n_orbitals=2, grid_shape=(8, 8, 8))
        ckpt = tmp_path / "ckpt"
        res = run_dmc(
            walkers,
            pool,
            n_generations=3,
            checkpoint_every=2,
            checkpoint_path=ckpt,
        )
        assert obs.registry.counter("dmc_generations_total").value == 3
        assert obs.registry.histogram("dmc_generation_seconds").count == 3
        assert obs.registry.gauge("dmc_population").value >= 1
        assert obs.registry.counter("checkpoints_saved_total", kind="dmc").value >= 1
        names = {e["name"] for e in obs.tracer.events}
        assert "dmc:generation" in names
        assert "checkpoint:save" in names
        # One crowd measurement at the start and one per generation, each
        # over the population the generation started with.
        measures = [e for e in obs.tracer.events if e["name"] == "qmc:measure"]
        assert len(measures) == 4
        started = [2, 2, *res.population_trace[:-1]]
        assert [e["args"]["walkers"] for e in measures] == started
        assert obs.registry.counter("qmc_measured_walkers_total").value == sum(started)


class TestCliFlags:
    def test_dmc_cli_writes_metrics_and_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "dmc",
                "--walkers", "2",
                "--generations", "2",
                "--n-orbitals", "2",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        assert not OBS.enabled  # the CLI turns it back off
        m = json.loads(metrics.read_text())
        counters = {c["name"] for c in m["counters"]}
        assert "dmc_generations_total" in counters
        assert any(h["name"] == "dmc_generation_seconds" for h in m["histograms"])
        doc = json.loads(trace.read_text())
        assert any(e["name"] == "dmc:generation" for e in doc["traceEvents"])
        out = capsys.readouterr().out
        assert "-- histograms --" in out  # the summary table printed

    def test_miniqmc_app_cli_writes_metrics_and_trace(self, tmp_path, capsys):
        from repro.miniqmc.app import main

        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "--n-orbitals", "2",
                "--sweeps", "2",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        assert not OBS.enabled
        m = json.loads(metrics.read_text())
        assert any(
            c["name"] == "miniqmc_sweeps_total" and c["value"] == 2
            for c in m["counters"]
        )
        assert any(h["name"] == "section_seconds" for h in m["histograms"])
        doc = json.loads(trace.read_text())
        sweeps = [e for e in doc["traceEvents"] if e["name"] == "miniqmc:sweep"]
        assert len(sweeps) == 2
        assert "-- counters / gauges --" in capsys.readouterr().out

    def test_cli_without_flags_leaves_obs_untouched(self, capsys):
        from repro.miniqmc.app import main

        OBS.reset()
        rc = main(["--n-orbitals", "2", "--sweeps", "1"])
        assert rc == 0
        assert not OBS.enabled
        assert len(OBS.registry) == 0
