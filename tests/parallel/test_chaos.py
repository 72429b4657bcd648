"""Chaos suite: injected process faults must not perturb a single bit.

The acceptance contract of the fleet layer (see ``repro.fleet``): a DMC
run whose worker is SIGKILL'd or hung mid-generation — under ``fork``
*and* ``spawn``, at multiple worker counts — produces traces
``assert_array_equal``-identical to the unfaulted sequential run, and
the supervision outcome (restarts, MTTR) is reported on the result.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.fleet import FleetConfig
from repro.parallel import (
    CrowdSpec,
    run_crowd_parallel,
    run_crowd_sequential,
    run_dmc_sharded,
    run_vmc_population,
)
from repro.resilience.faults import FaultInjector

GENS, TAU_DMC = 4, 0.04
N_STEPS, N_WARMUP, TAU_VMC = 4, 2, 0.3
N_SWEEPS = 2

START_METHODS = [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()]


@pytest.fixture(scope="module")
def dmc_spec():
    return CrowdSpec(n_walkers=3, n_orbitals=2, seed=23)


@pytest.fixture(scope="module")
def dmc_reference(dmc_spec):
    """The unfaulted, unsupervised sequential run (one worker, no fleet)."""
    return run_dmc_sharded(dmc_spec, n_workers=1, n_generations=GENS, tau=TAU_DMC)


def _assert_traces_equal(a, b):
    np.testing.assert_array_equal(a.energy_trace, b.energy_trace)
    np.testing.assert_array_equal(a.population_trace, b.population_trace)
    np.testing.assert_array_equal(a.e_trial_trace, b.e_trial_trace)
    assert a.acceptance == b.acceptance


class TestDmcChaos:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_sigkill_mid_run_is_bit_identical(
        self, dmc_spec, dmc_reference, n_workers, start_method, shm_sentinel
    ):
        injector = FaultInjector(seed=11)
        injector.sigkill_worker(worker=1, generation=1)
        faulted = run_dmc_sharded(
            dmc_spec,
            n_workers=n_workers,
            n_generations=GENS,
            tau=TAU_DMC,
            start_method=start_method,
            fleet=FleetConfig(),
            injector=injector,
        )
        _assert_traces_equal(faulted, dmc_reference)
        assert faulted.fleet is not None
        assert faulted.fleet["restarts"] >= 1
        assert len(faulted.fleet["mttr_seconds"]) >= 1

    def test_hang_is_detected_and_replayed(
        self, dmc_spec, dmc_reference, shm_sentinel
    ):
        injector = FaultInjector(seed=11)
        injector.hang_worker(worker=0, generation=2, seconds=30.0)
        faulted = run_dmc_sharded(
            dmc_spec,
            n_workers=2,
            n_generations=GENS,
            tau=TAU_DMC,
            fleet=FleetConfig(worker_timeout=1.5),
            injector=injector,
        )
        _assert_traces_equal(faulted, dmc_reference)
        assert faulted.fleet["restarts"] >= 1
        hangs = [
            e
            for e in faulted.fleet["events"]
            if e["kind"] == "restart" and e["reason"] == "hang"
        ]
        assert hangs

    def test_supervision_without_faults_changes_nothing(
        self, dmc_spec, dmc_reference, shm_sentinel
    ):
        supervised = run_dmc_sharded(
            dmc_spec,
            n_workers=2,
            n_generations=GENS,
            tau=TAU_DMC,
            fleet=FleetConfig(),
        )
        _assert_traces_equal(supervised, dmc_reference)
        assert supervised.fleet["restarts"] == 0

    def test_elastic_growth_keeps_traces(
        self, dmc_spec, dmc_reference, shm_sentinel
    ):
        # A microscopic latency budget makes every generation "too slow",
        # so the fleet grows one worker per generation up to the cap.
        grown = run_dmc_sharded(
            dmc_spec,
            n_workers=1,
            n_generations=GENS,
            tau=TAU_DMC,
            fleet=FleetConfig(elastic=True, latency_budget=1e-9, max_workers=3),
        )
        _assert_traces_equal(grown, dmc_reference)
        assert grown.fleet["scale_events"] >= 1
        assert grown.fleet["final_workers"] == 3

    def test_elastic_shrink_keeps_traces(
        self, dmc_spec, dmc_reference, shm_sentinel
    ):
        # A huge budget means ample slack: the fleet drains to min_workers.
        shrunk = run_dmc_sharded(
            dmc_spec,
            n_workers=3,
            n_generations=GENS,
            tau=TAU_DMC,
            fleet=FleetConfig(elastic=True, latency_budget=1e9, max_workers=3),
        )
        _assert_traces_equal(shrunk, dmc_reference)
        assert shrunk.fleet["final_workers"] == 1

    def test_injector_requires_fleet(self, dmc_spec):
        injector = FaultInjector(seed=11)
        injector.sigkill_worker(worker=0, generation=0)
        with pytest.raises(ValueError, match="fleet"):
            run_dmc_sharded(
                dmc_spec, n_workers=2, n_generations=1, injector=injector
            )


class TestStatefulChaos:
    """VMC and crowd shards are stateful: recovery means journal replay."""

    def test_vmc_survives_sigkill(self, spec, table, shm_sentinel):
        reference = run_vmc_population(
            spec,
            n_steps=N_STEPS,
            n_warmup=N_WARMUP,
            tau=TAU_VMC,
            table=table,
            n_workers=0,
        )
        injector = FaultInjector(seed=11)
        injector.sigkill_worker(worker=0, generation=0)
        faulted = run_vmc_population(
            spec,
            n_workers=2,
            n_steps=N_STEPS,
            n_warmup=N_WARMUP,
            tau=TAU_VMC,
            table=table,
            fleet=FleetConfig(),
            injector=injector,
        )
        np.testing.assert_array_equal(faulted.energies, reference.energies)
        assert faulted.acceptance == reference.acceptance

    def test_crowd_survives_sigkill(self, spec, table, shm_sentinel):
        reference = run_crowd_sequential(
            spec, n_sweeps=N_SWEEPS, tau=TAU_VMC, table=table
        )
        injector = FaultInjector(seed=11)
        injector.sigkill_worker(worker=1, generation=0)
        faulted = run_crowd_parallel(
            spec,
            n_workers=2,
            n_sweeps=N_SWEEPS,
            tau=TAU_VMC,
            table=table,
            fleet=FleetConfig(),
            injector=injector,
        )
        np.testing.assert_array_equal(faulted.positions, reference.positions)
        np.testing.assert_array_equal(faulted.log_values, reference.log_values)

    def test_vmc_injector_requires_fleet(self, spec, table):
        injector = FaultInjector(seed=11)
        injector.sigkill_worker(worker=0, generation=0)
        with pytest.raises(ValueError, match="fleet"):
            run_vmc_population(
                spec, n_workers=2, table=table, injector=injector
            )
        with pytest.raises(ValueError, match="fleet"):
            run_crowd_parallel(
                spec,
                n_workers=2,
                n_sweeps=1,
                tau=TAU_VMC,
                table=table,
                injector=injector,
            )


# -- hung-initializer recovery (regression: the init handshake must honor
# -- its deadline; pre-fix, restart_worker/add_worker passed timeout=None
# -- and a replacement that hung during init wedged recovery forever) ----


def _hang_on_flag_init(worker_id: int, flag_dir: str):
    """Initializer that hangs when its worker's flag file exists.

    The first spawn of each worker finds no flag and comes up normally;
    arming the fault is just touching ``hang-<worker_id>`` — so the
    *replacement* (or a grown worker) is the one that hangs, exercising
    the initializer leg of the recovery path.
    """
    import os
    import time

    if os.path.exists(os.path.join(flag_dir, f"hang-{worker_id}")):
        time.sleep(60.0)

    class _Idle:
        def whoami(self):
            return worker_id

    return _Idle()


class TestHungInitializerRecovery:
    def test_restart_worker_honors_its_deadline(self, tmp_path):
        from repro.parallel import ProcessCrowdPool, WorkerTimeout

        with ProcessCrowdPool(2, _hang_on_flag_init, (str(tmp_path),)) as pool:
            assert pool.broadcast("whoami") == [0, 1]
            (tmp_path / "hang-0").touch()
            t0 = time.monotonic()
            with pytest.raises(WorkerTimeout, match="initializer"):
                pool.restart_worker(0, timeout=0.5)
            elapsed = time.monotonic() - t0
            assert elapsed < 10.0, (
                f"restart_worker ignored its deadline ({elapsed:.1f}s)"
            )
            # The stuck replacement was killed, not left hanging around.
            assert not pool.alive(0)
            # The rest of the pool still serves.
            pool.start_call(1, "whoami")
            assert pool.finish_call(1, timeout=5.0) == 1
            # Disarm and recover the slot for real.
            (tmp_path / "hang-0").unlink()
            pool.restart_worker(0, timeout=10.0)
            assert pool.broadcast("whoami") == [0, 1]

    def test_add_worker_honors_its_deadline(self, tmp_path):
        from repro.parallel import ProcessCrowdPool, WorkerTimeout

        with ProcessCrowdPool(1, _hang_on_flag_init, (str(tmp_path),)) as pool:
            (tmp_path / "hang-1").touch()
            t0 = time.monotonic()
            with pytest.raises(WorkerTimeout, match="initializer"):
                pool.add_worker(timeout=0.5)
            assert time.monotonic() - t0 < 10.0
            # The failed growth left the pool at its previous size, with
            # no zombie replacement process behind it.
            assert len(pool) == 1
            assert len(pool._procs) == 1
            assert pool.broadcast("whoami") == [0]
            (tmp_path / "hang-1").unlink()
            assert pool.add_worker(timeout=10.0) == 1
            assert pool.broadcast("whoami") == [0, 1]
