"""Checkpoint/restore: RNG round-trips, validation, and bit-for-bit resume.

The acceptance test of the resilience layer lives here: a DMC run killed
mid-generation and resumed from its checkpoint must reproduce the
uninterrupted run's energy/population traces *bit-for-bit* (same
``checkpoint_every`` cadence on both sides — see the note in
:mod:`repro.qmc.dmc`).
"""

import json
import os

import numpy as np
import pytest

from repro.miniqmc.app import build_app, run_profiled
from repro.miniqmc.config import MiniQmcConfig
from repro.miniqmc.driver import run_kernel_driver, run_tiled_driver
from repro.qmc.dmc import build_dmc_ensemble, run_dmc
from repro.qmc.rng import WalkerRngPool
from repro.qmc.vmc import run_vmc
from repro.resilience import (
    CHECKPOINT_VERSION,
    CheckpointError,
    FaultInjector,
    SimulatedFault,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from repro.resilience.checkpoint import set_rng_state
from tests.qmc.test_wavefunction import build_wf


class TestRngState:
    def test_restore_reproduces_stream(self):
        rng = np.random.default_rng(123)
        rng.random(17)  # advance past the seed point
        state = rng_state(rng)
        expected = rng.random(32)
        np.testing.assert_array_equal(restore_rng(state).random(32), expected)

    def test_state_is_json_safe(self):
        rng = np.random.default_rng(7)
        rng.standard_normal(5)
        state = json.loads(json.dumps(rng_state(rng)))
        np.testing.assert_array_equal(
            restore_rng(state).random(8), rng.random(8)
        )

    def test_set_rng_state_in_place(self):
        a = np.random.default_rng(1)
        b = np.random.default_rng(2)
        set_rng_state(b, rng_state(a))
        np.testing.assert_array_equal(a.random(6), b.random(6))

    def test_set_rng_state_rejects_bitgen_mismatch(self):
        rng = np.random.default_rng(0)
        state = dict(rng_state(rng), bit_generator="MT19937")
        with pytest.raises(CheckpointError, match="bit generator"):
            set_rng_state(rng, state)

    def test_restore_rejects_unknown_bitgen(self):
        state = dict(rng_state(np.random.default_rng(0)))
        state["bit_generator"] = "NoSuchGenerator"
        with pytest.raises(CheckpointError, match="unknown bit generator"):
            restore_rng(state)


class TestWalkerRngPool:
    def test_from_state_continues_identically(self):
        pool = WalkerRngPool(42)
        for _ in range(5):
            pool.next_rng()
        twin = WalkerRngPool.from_state(pool.state)
        np.testing.assert_array_equal(
            pool.next_rng().random(16), twin.next_rng().random(16)
        )
        assert twin.issued == 6

    def test_state_round_trips_through_json(self):
        pool = WalkerRngPool(9)
        pool.batch(3)
        twin = WalkerRngPool.from_state(json.loads(json.dumps(pool.state)))
        np.testing.assert_array_equal(
            pool.next_rng().random(4), twin.next_rng().random(4)
        )


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        ck = tmp_path / "ck"
        save_checkpoint(
            ck,
            {"kind": "test", "step": 3},
            {"x": np.arange(6.0).reshape(2, 3)},
        )
        ckpt = load_checkpoint(ck, expect_kind="test")
        assert ckpt.kind == "test"
        assert ckpt.manifest["step"] == 3
        assert ckpt.manifest["version"] == CHECKPOINT_VERSION
        np.testing.assert_array_equal(ckpt.arrays["x"], np.arange(6.0).reshape(2, 3))

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nowhere")

    def test_future_version_refused(self, tmp_path):
        ck = tmp_path / "ck"
        save_checkpoint(ck, {"kind": "test"})
        manifest = json.loads((ck / "manifest.json").read_text())
        manifest["version"] = CHECKPOINT_VERSION + 1
        (ck / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(ck)

    def test_kind_mismatch_refused(self, tmp_path):
        ck = tmp_path / "ck"
        save_checkpoint(ck, {"kind": "vmc"})
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(ck, expect_kind="dmc")

    def test_overwrite_is_atomic(self, tmp_path):
        ck = tmp_path / "ck"
        save_checkpoint(ck, {"kind": "test", "step": 1})
        save_checkpoint(ck, {"kind": "test", "step": 2})
        assert load_checkpoint(ck).manifest["step"] == 2
        # The staging directory never survives a completed save.
        assert [p for p in os.listdir(tmp_path) if "tmp" in p] == []


def _dmc_run(seed, n_walkers, ck_path, n_generations=6, on_generation=None,
             tau=0.02):
    pool = WalkerRngPool(seed)
    walkers = build_dmc_ensemble(pool, n_walkers)
    return run_dmc(
        walkers,
        pool,
        n_generations=n_generations,
        tau=tau,
        checkpoint_every=2,
        checkpoint_path=ck_path,
        on_generation=on_generation,
    )


class TestDmcResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        # Uninterrupted reference (same checkpoint cadence).
        ref = _dmc_run(7, 3, tmp_path / "ref")
        # Killed mid-run: the injected kill fires after the checkpoint at
        # generation 3, exactly like a SIGKILL between generations.
        inj = FaultInjector(1)
        with pytest.raises(SimulatedFault):
            _dmc_run(7, 3, tmp_path / "ck", on_generation=inj.kill_at_generation(3))
        assert ("kill", {"generation": 3}) in inj.log
        # Resume on a freshly rebuilt ensemble.
        pool = WalkerRngPool(7)
        walkers = build_dmc_ensemble(pool, 3)
        res = run_dmc(
            walkers,
            pool,
            n_generations=6,
            tau=0.02,
            checkpoint_every=2,
            checkpoint_path=tmp_path / "ck",
            resume=tmp_path / "ck",
        )
        np.testing.assert_array_equal(ref.energy_trace, res.energy_trace)
        np.testing.assert_array_equal(ref.population_trace, res.population_trace)
        np.testing.assert_array_equal(ref.e_trial_trace, res.e_trial_trace)

    def test_resume_after_branching_is_bit_identical(self, tmp_path):
        # seed 1 / tau 0.1 drops and clones walkers within a few
        # generations, so the ensemble at the kill point no longer matches
        # the freshly built templates walker-for-walker.  This is the case
        # a branching-free run cannot cover: restored walkers must rebuild
        # *all* derived state (including ion-sourced distance tables) from
        # the checkpointed positions, not inherit it from the templates.
        ref = _dmc_run(1, 3, tmp_path / "ref", n_generations=10, tau=0.1)
        assert (ref.population_trace != 3).any(), "config must branch"
        inj = FaultInjector(1)
        with pytest.raises(SimulatedFault):
            _dmc_run(1, 3, tmp_path / "ck", n_generations=10, tau=0.1,
                     on_generation=inj.kill_at_generation(7))
        pool = WalkerRngPool(1)
        walkers = build_dmc_ensemble(pool, 3)
        res = run_dmc(
            walkers,
            pool,
            n_generations=10,
            tau=0.1,
            checkpoint_every=2,
            checkpoint_path=tmp_path / "ck",
            resume=tmp_path / "ck",
        )
        np.testing.assert_array_equal(ref.energy_trace, res.energy_trace)
        np.testing.assert_array_equal(ref.population_trace, res.population_trace)
        np.testing.assert_array_equal(ref.e_trial_trace, res.e_trial_trace)

    def test_resume_rejects_parameter_mismatch(self, tmp_path):
        inj = FaultInjector(1)
        with pytest.raises(SimulatedFault):
            _dmc_run(7, 2, tmp_path / "ck", on_generation=inj.kill_at_generation(1))
        pool = WalkerRngPool(7)
        walkers = build_dmc_ensemble(pool, 2)
        with pytest.raises(CheckpointError, match="tau"):
            run_dmc(walkers, pool, n_generations=4, tau=0.05, resume=tmp_path / "ck")

    def test_resume_rejects_wrong_kind(self, tmp_path):
        save_checkpoint(tmp_path / "ck", {"kind": "vmc"})
        pool = WalkerRngPool(7)
        walkers = build_dmc_ensemble(pool, 1)
        with pytest.raises(CheckpointError, match="kind"):
            run_dmc(walkers, pool, n_generations=2, resume=tmp_path / "ck")

    def test_checkpoint_every_needs_path(self):
        pool = WalkerRngPool(7)
        walkers = build_dmc_ensemble(pool, 1)
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_dmc(walkers, pool, n_generations=1, checkpoint_every=1)
        with pytest.raises(ValueError, match="positive"):
            run_dmc(walkers, pool, n_generations=1, checkpoint_every=0,
                    checkpoint_path="x")


_DATA = os.path.join(os.path.dirname(__file__), "data")


class TestCheckpointFixtures:
    """Checkpoints written by an earlier build still resume bit-for-bit.

    ``data/dmc_gen2`` (``run_dmc``) and ``data/dmc_sharded_gen2``
    (``run_dmc_sharded``) were taken after generation 2 of a 4-generation
    run whose uninterrupted traces are in ``data/dmc_traces.json``; the
    seed branches before the checkpoint, so both hold a clone.  The
    round-trip tests above write and read with the same code and so
    cannot see format drift; these can.
    """

    @staticmethod
    def _load():
        with open(os.path.join(_DATA, "dmc_traces.json")) as fh:
            return json.load(fh)

    @staticmethod
    def _live_ensemble(system):
        pool = WalkerRngPool(system["seed"])
        walkers = build_dmc_ensemble(
            pool,
            system["n_walkers"],
            n_orbitals=system["n_orbitals"],
            grid_shape=tuple(system["grid_shape"]),
        )
        return pool, walkers

    @staticmethod
    def _spec(system):
        from repro.parallel import CrowdSpec

        return CrowdSpec(
            n_walkers=system["n_walkers"],
            n_orbitals=system["n_orbitals"],
            grid_shape=tuple(system["grid_shape"]),
            seed=system["seed"],
        )

    @staticmethod
    def _assert_traces(res, want):
        np.testing.assert_array_equal(res.energy_trace, want["energy_trace"])
        np.testing.assert_array_equal(
            res.population_trace, want["population_trace"]
        )
        np.testing.assert_array_equal(res.e_trial_trace, want["e_trial_trace"])

    @staticmethod
    def _assert_same_checkpoint(path, fixture):
        got, want = load_checkpoint(path), load_checkpoint(fixture)
        assert got.manifest == want.manifest
        assert list(got.arrays) == list(want.arrays)
        for name, arr in want.arrays.items():
            np.testing.assert_array_equal(got.arrays[name], arr)
            assert got.arrays[name].dtype == arr.dtype

    def test_live_fixture_resumes(self):
        data = self._load()
        system = data["system"]
        pool, walkers = self._live_ensemble(system)
        res = run_dmc(
            walkers,
            pool,
            n_generations=system["n_generations"],
            tau=system["tau"],
            resume=os.path.join(_DATA, "dmc_gen2"),
        )
        self._assert_traces(res, data["dmc"])

    def test_live_checkpoint_matches_fixture(self, tmp_path):
        system = self._load()["system"]
        pool, walkers = self._live_ensemble(system)
        run_dmc(
            walkers,
            pool,
            n_generations=2,
            tau=system["tau"],
            checkpoint_every=system["checkpoint_every"],
            checkpoint_path=tmp_path / "ck",
        )
        self._assert_same_checkpoint(
            tmp_path / "ck", os.path.join(_DATA, "dmc_gen2")
        )

    def test_sharded_fixture_resumes(self):
        from repro.parallel import run_dmc_sharded

        data = self._load()
        system = data["system"]
        res = run_dmc_sharded(
            self._spec(system),
            n_workers=1,
            n_generations=system["n_generations"],
            tau=system["tau"],
            resume=os.path.join(_DATA, "dmc_sharded_gen2"),
        )
        self._assert_traces(res, data["dmc-sharded"])

    def test_sharded_checkpoint_matches_fixture(self, tmp_path):
        from repro.parallel import run_dmc_sharded

        system = self._load()["system"]
        run_dmc_sharded(
            self._spec(system),
            n_workers=1,
            n_generations=2,
            tau=system["tau"],
            checkpoint_every=system["checkpoint_every"],
            checkpoint_path=tmp_path / "ck",
        )
        self._assert_same_checkpoint(
            tmp_path / "ck", os.path.join(_DATA, "dmc_sharded_gen2")
        )


class TestVmcResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        def fresh():
            rng = np.random.default_rng(11)
            return build_wf(rng), rng

        wf, rng = fresh()
        ref = run_vmc(wf, rng, n_steps=8, n_warmup=2, tau=0.2,
                      checkpoint_every=3, checkpoint_path=tmp_path / "ref")
        wf, rng = fresh()
        run_vmc(wf, rng, n_steps=8, n_warmup=2, tau=0.2,
                checkpoint_every=3, checkpoint_path=tmp_path / "ck")
        wf, rng = fresh()
        res = run_vmc(wf, rng, n_steps=8, n_warmup=2, tau=0.2,
                      checkpoint_every=3, checkpoint_path=tmp_path / "ck",
                      resume=tmp_path / "ck")
        np.testing.assert_array_equal(ref.energies, res.energies)

    def test_resume_rejects_parameter_mismatch(self, tmp_path):
        rng = np.random.default_rng(11)
        wf = build_wf(rng)
        run_vmc(wf, rng, n_steps=4, n_warmup=0, tau=0.2,
                checkpoint_every=2, checkpoint_path=tmp_path / "ck")
        with pytest.raises(CheckpointError, match="tau"):
            run_vmc(wf, rng, n_steps=4, n_warmup=0, tau=0.3,
                    resume=tmp_path / "ck")


class TestDriverResume:
    CFG = dict(n_splines=24, grid_shape=(12, 12, 12), n_samples=3,
               n_iters=1, n_walkers=4, tile_size=8, seed=3)

    def test_kernel_driver_resume_completes_counts(self, tmp_path):
        cfg = MiniQmcConfig(**self.CFG)
        ref = run_kernel_driver(cfg, "soa")
        run_kernel_driver(cfg, "soa", checkpoint_every=2,
                          checkpoint_path=tmp_path / "ck")
        res = run_kernel_driver(cfg, "soa", resume=tmp_path / "ck")
        assert res.evals == ref.evals
        assert set(res.throughputs) == set(ref.throughputs)

    def test_tiled_driver_resume_completes_counts(self, tmp_path):
        cfg = MiniQmcConfig(**self.CFG)
        run_tiled_driver(cfg, checkpoint_every=2,
                         checkpoint_path=tmp_path / "ck")
        res = run_tiled_driver(cfg, resume=tmp_path / "ck")
        assert res.evals == {"v": 12, "vgl": 12, "vgh": 12}

    def test_fingerprint_mismatch_refused(self, tmp_path):
        cfg = MiniQmcConfig(**self.CFG)
        run_kernel_driver(cfg, "soa", checkpoint_every=2,
                          checkpoint_path=tmp_path / "ck")
        other = MiniQmcConfig(**{**self.CFG, "n_samples": 5})
        with pytest.raises(CheckpointError, match="does not match"):
            run_kernel_driver(other, "soa", resume=tmp_path / "ck")
        with pytest.raises(CheckpointError, match="does not match"):
            run_kernel_driver(cfg, "fused", resume=tmp_path / "ck")


class TestAppResume:
    def test_resume_continues_trajectory(self, tmp_path):
        def fresh():
            return build_app(n_orbitals=4, grid_shape=(10, 10, 10), seed=5)

        app = fresh()
        run_profiled(app, n_sweeps=6, checkpoint_every=2,
                     checkpoint_path=tmp_path / "ref")
        ref_pos = app.wf.electrons.positions

        app = fresh()
        run_profiled(app, n_sweeps=4, checkpoint_every=2,
                     checkpoint_path=tmp_path / "ck")
        app = fresh()
        run_profiled(app, n_sweeps=6, checkpoint_every=2,
                     checkpoint_path=tmp_path / "ck", resume=tmp_path / "ck")
        np.testing.assert_array_equal(app.wf.electrons.positions, ref_pos)

    def test_resume_rejects_parameter_mismatch(self, tmp_path):
        app = build_app(n_orbitals=4, grid_shape=(10, 10, 10), seed=5)
        run_profiled(app, n_sweeps=2, checkpoint_every=2,
                     checkpoint_path=tmp_path / "ck")
        with pytest.raises(CheckpointError, match="do not match"):
            run_profiled(app, n_sweeps=4, tau=0.5, resume=tmp_path / "ck")


class TestCli:
    def test_dmc_subcommand_runs(self, capsys):
        from repro.__main__ import main

        assert main(["dmc", "--walkers", "1", "--generations", "2"]) == 0
        out = capsys.readouterr().out
        assert "generations: 2" in out

    def test_dmc_resume_auto_without_processes(self, tmp_path, capsys):
        """``--resume auto`` on the live path: the first run finds no
        checkpoint and starts fresh, the second continues from the one
        the first left behind and prints what an uninterrupted run at
        the same cadence prints."""
        from repro.__main__ import main

        base = ["dmc", "--walkers", "3", "--n-orbitals", "2",
                "--checkpoint-every", "2"]
        ref_args = base + ["--generations", "4",
                           "--checkpoint-path", str(tmp_path / "ref")]
        assert main(ref_args) == 0
        ref = capsys.readouterr().out
        auto = base + ["--checkpoint-path", str(tmp_path / "ck"),
                       "--resume", "auto"]
        assert main(auto + ["--generations", "2"]) == 0
        assert "generations: 2" in capsys.readouterr().out
        assert main(auto + ["--generations", "4"]) == 0
        assert capsys.readouterr().out == ref

    def test_dmc_checkpoint_flags_validated(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["dmc", "--checkpoint-every", "2"])
        assert "--checkpoint-path" in capsys.readouterr().err

    def test_app_cli_resume(self, tmp_path, capsys):
        from repro.miniqmc.app import main

        ck = str(tmp_path / "ck")
        args = ["--n-orbitals", "4", "--sweeps", "4",
                "--checkpoint-every", "2", "--checkpoint-path", ck]
        assert main(args) == 0
        assert main(args + ["--resume", ck]) == 0
        assert "ran 4 sweeps" in capsys.readouterr().out
