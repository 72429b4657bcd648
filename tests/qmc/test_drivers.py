"""Tests for drift-diffusion, VMC and DMC drivers, and RNG streams."""

import gc
import weakref

import numpy as np
import pytest

from repro.qmc import (
    DmcWalker,
    LocalEnergy,
    WalkerRngPool,
    limited_drift,
    log_greens_ratio,
    run_dmc,
    run_vmc,
    sweep,
)
from repro.qmc.dmc import build_dmc_ensemble
from tests.qmc.test_wavefunction import build_wf


class TestRngPool:
    def test_streams_differ(self):
        pool = WalkerRngPool(1)
        a, b = pool.batch(2)
        assert not np.allclose(a.random(10), b.random(10))

    def test_reproducible(self):
        x = WalkerRngPool(42).next_rng().random(5)
        y = WalkerRngPool(42).next_rng().random(5)
        np.testing.assert_array_equal(x, y)

    def test_issued_count(self):
        pool = WalkerRngPool(0)
        pool.next_rng()
        pool.batch(3)
        assert pool.issued == 4

    def test_batch_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WalkerRngPool(0).batch(0)


class TestDrift:
    def test_small_gradient_unchanged(self):
        g = np.array([0.01, 0.0, 0.0])
        np.testing.assert_allclose(limited_drift(g, 0.01), g, rtol=1e-3)

    def test_large_gradient_limited(self):
        g = np.array([1e6, 0.0, 0.0])
        v = limited_drift(g, 0.05)
        assert np.linalg.norm(v) < np.linalg.norm(g)
        # The limited drift step tau*v is bounded by ~sqrt(2 tau).
        assert 0.05 * np.linalg.norm(v) < np.sqrt(2 * 0.05) * 1.1

    def test_zero_gradient(self):
        np.testing.assert_array_equal(limited_drift(np.zeros(3), 0.1), np.zeros(3))

    def test_greens_ratio_symmetric_kernel_is_zero(self):
        r1, r2 = np.zeros(3), np.ones(3)
        assert np.isclose(
            log_greens_ratio(r1, r2, np.zeros(3), np.zeros(3), 0.1), 0.0
        )

    def test_greens_ratio_antisymmetry(self, rng):
        r1, r2 = rng.standard_normal((2, 3))
        d1, d2 = rng.standard_normal((2, 3))
        fwd = log_greens_ratio(r1, r2, d1, d2, 0.07)
        rev = log_greens_ratio(r2, r1, d2, d1, 0.07)
        assert np.isclose(fwd, -rev)


class TestSweep:
    def test_acceptance_counts(self, rng):
        wf = build_wf(rng)
        acc, att = sweep(wf, 0.1, rng)
        assert att == len(wf.electrons)
        assert 0 <= acc <= att

    def test_small_tau_high_acceptance(self, rng):
        wf = build_wf(rng)
        acc = att = 0
        for _ in range(5):
            a, t = sweep(wf, 0.005, rng)
            acc += a
            att += t
        assert acc / att > 0.9

    def test_state_consistent_after_sweeps(self, rng):
        wf = build_wf(rng)
        for _ in range(5):
            sweep(wf, 0.2, rng)
        lv = wf.log_value
        wf.recompute()
        assert np.isclose(wf.log_value, lv, atol=1e-6)

    def test_no_drift_mode(self, rng):
        wf = build_wf(rng)
        acc, att = sweep(wf, 0.05, rng, use_drift=False)
        assert att == len(wf.electrons)


class TestVmc:
    def test_result_fields(self, rng):
        wf = build_wf(rng)
        res = run_vmc(wf, rng, n_steps=6, n_warmup=2, tau=0.2)
        assert len(res.energies) == 6
        assert 0.0 < res.acceptance <= 1.0
        assert np.isfinite(res.energy_mean)
        assert res.energy_error >= 0.0

    def test_measure_false_skips_energies(self, rng):
        wf = build_wf(rng)
        res = run_vmc(wf, rng, n_steps=3, n_warmup=0, measure=False)
        assert len(res.energies) == 0

    def test_energies_are_stable(self, rng):
        # Local energies of a smooth trial function on a smooth system
        # should have bounded spread — a blown-up Sherman-Morrison or a
        # broken estimator shows up as wild outliers here.
        wf = build_wf(rng)
        res = run_vmc(wf, rng, n_steps=10, n_warmup=3, tau=0.2)
        med = np.median(res.energies)
        assert np.all(np.abs(res.energies - med) < 50.0 * max(1.0, abs(med)))


class TestDmc:
    def test_population_and_traces(self, rng):
        pool = WalkerRngPool(3)
        walkers = [
            DmcWalker(wf=build_wf(pool.next_rng()), rng=pool.next_rng())
            for _ in range(4)
        ]
        res = run_dmc(walkers, pool, n_generations=5, tau=0.02)
        assert len(res.energy_trace) == 5
        assert len(res.population_trace) == 5
        assert (res.population_trace >= 1).all()
        assert (res.population_trace <= 16).all()  # capped at 4x target
        assert 0.0 < res.acceptance <= 1.0

    def test_population_control_steers_back(self, rng):
        pool = WalkerRngPool(4)
        walkers = [
            DmcWalker(wf=build_wf(pool.next_rng()), rng=pool.next_rng())
            for _ in range(3)
        ]
        res = run_dmc(walkers, pool, n_generations=8, tau=0.02, feedback=1.0)
        # With feedback the final population stays within 3x of target.
        assert 1 <= res.population_trace[-1] <= 9

    def test_clone_independent_stream(self, rng):
        pool = WalkerRngPool(5)
        w = DmcWalker(wf=build_wf(pool.next_rng()), rng=pool.next_rng())
        c = w.clone(pool.next_rng())
        assert c.wf is not w.wf
        assert not np.allclose(c.rng.random(5), w.rng.random(5))
        np.testing.assert_array_equal(
            c.wf.electrons.positions, w.wf.electrons.positions
        )

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            run_dmc([], WalkerRngPool(0))

    def test_energy_mean_uses_second_half(self):
        from repro.qmc.dmc import DmcResult

        res = DmcResult(
            energy_trace=np.array([10.0, 10.0, 2.0, 2.0]),
            population_trace=np.ones(4),
            e_trial_trace=np.zeros(4),
            acceptance=1.0,
        )
        assert res.energy_mean == 2.0


class TestDmcCrowdMeasurement:
    """run_dmc measures each crowd in one batched pass and hands the
    measured orbitals to the next sweep; neither may move a bit."""

    # Seed 4 at tau 0.1 drops an initial walker in generation 0 and
    # clones within the first generations.
    SEED, TAU, GENERATIONS = 4, 0.1, 7

    @pytest.fixture
    def count_clones(self, monkeypatch):
        clones = []
        original = DmcWalker.clone

        def clone(self, rng):
            clones.append(1)
            return original(self, rng)

        monkeypatch.setattr(DmcWalker, "clone", clone)
        return clones

    def _run(self, tmp_path, name, **kwargs):
        pool = WalkerRngPool(self.SEED)
        walkers = build_dmc_ensemble(pool, 4, n_orbitals=2, grid_shape=(8, 8, 8))
        return run_dmc(
            walkers, pool, n_generations=self.GENERATIONS, tau=self.TAU,
            checkpoint_every=3, checkpoint_path=tmp_path / name, **kwargs,
        )

    def test_default_estimator_matches_per_walker_factory(
        self, tmp_path, count_clones
    ):
        crowd = self._run(tmp_path, "crowd")
        assert count_clones, "the run must exercise branching clones"
        per_walker = self._run(
            tmp_path, "per_walker",
            estimator_factory=lambda w: LocalEnergy(w.wf, 4.0),
        )
        np.testing.assert_array_equal(crowd.energy_trace, per_walker.energy_trace)
        np.testing.assert_array_equal(
            crowd.population_trace, per_walker.population_trace
        )
        np.testing.assert_array_equal(crowd.e_trial_trace, per_walker.e_trial_trace)
        assert crowd.acceptance == per_walker.acceptance

    def test_handed_over_cache_equals_fresh_vgl(self, tmp_path, count_clones):
        checked = []

        def on_generation(gen, walkers):
            for w in walkers:
                g, lap = w.committed_vgl
                spos = w.wf.slater.spos
                _, g_ref, lap_ref = spos.vgl_batch(w.wf.electrons.positions)
                np.testing.assert_array_equal(g, g_ref)
                np.testing.assert_array_equal(lap, lap_ref)
                checked.append(gen)

        self._run(tmp_path, "cache", on_generation=on_generation)
        assert count_clones
        assert len(set(checked)) == self.GENERATIONS

    def test_a_later_run_ignores_an_earlier_runs_cache(self):
        traces = []
        for clear in (False, True):
            pool = WalkerRngPool(self.SEED)
            walkers = build_dmc_ensemble(pool, 4, n_orbitals=2, grid_shape=(8, 8, 8))
            run_dmc(walkers, pool, n_generations=1, tau=self.TAU)
            for w in walkers:  # moved outside the driver
                sweep(w.wf, self.TAU, w.rng)
                if clear:
                    w.committed_vgl = None
            res = run_dmc(walkers, pool, n_generations=2, tau=self.TAU)
            traces.append(res.energy_trace)
        np.testing.assert_array_equal(*traces)

    def test_branching_releases_dropped_initial_walkers(self):
        pool = WalkerRngPool(self.SEED)
        walkers = build_dmc_ensemble(pool, 4, n_orbitals=2, grid_shape=(8, 8, 8))
        initial = [weakref.ref(w) for w in walkers]
        leaked, released = [], []

        def on_generation(gen, current):
            live = {id(w) for w in current}
            gc.collect()
            for ref in initial:
                w = ref()
                if w is None:
                    released.append(gen)
                elif id(w) not in live:
                    leaked.append(gen)
                del w

        run_dmc(walkers, pool, n_generations=3, tau=self.TAU,
                on_generation=on_generation)
        assert not leaked, f"dropped initial walkers still alive at {leaked}"
        assert released, "the run must drop an initial walker"


class TestVmcMaintenance:
    def test_recompute_every_controls_drift(self, rng):
        # With frequent recomputes the inverse drift stays at solver
        # precision throughout the run.
        wf = build_wf(rng)
        run_vmc(wf, rng, n_steps=6, n_warmup=0, tau=0.25, recompute_every=2)
        assert max(d.update_error for d in wf.slater.dets) < 1e-8

    def test_energy_trace_is_finite(self, rng):
        wf = build_wf(rng)
        res = run_vmc(wf, rng, n_steps=5, n_warmup=1, tau=0.2)
        assert np.isfinite(res.energies).all()

    def test_empty_energy_result_statistics(self):
        from repro.qmc.vmc import VmcResult

        res = VmcResult(energies=np.array([]), acceptance=0.5)
        assert res.energy_mean == 0.0
        assert res.energy_error == 0.0
