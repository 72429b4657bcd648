"""Sharded VMC/DMC population drivers: worker-count invariance and resume."""

import numpy as np
import pytest

from repro.parallel import CrowdSpec, run_dmc_sharded, run_vmc_population
from repro.resilience.checkpoint import CheckpointError

N_STEPS, N_WARMUP, TAU_VMC = 4, 2, 0.3
GENS, TAU_DMC = 4, 0.04


@pytest.fixture(scope="module")
def vmc_reference(spec, table):
    """The in-process (no pool) walker loop — what workers must reproduce."""
    return run_vmc_population(
        spec,
        n_steps=N_STEPS,
        n_warmup=N_WARMUP,
        tau=TAU_VMC,
        table=table,
        processes=False,
    )


class TestVmcPopulation:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_matches_in_process_reference(
        self, spec, table, vmc_reference, n_workers, shm_sentinel
    ):
        par = run_vmc_population(
            spec,
            n_workers=n_workers,
            n_steps=N_STEPS,
            n_warmup=N_WARMUP,
            tau=TAU_VMC,
            table=table,
        )
        np.testing.assert_array_equal(par.energies, vmc_reference.energies)
        assert par.acceptance == vmc_reference.acceptance
        assert par.n_workers == n_workers

    def test_result_statistics(self, spec, vmc_reference):
        assert vmc_reference.energies.shape == (spec.n_walkers, N_STEPS)
        assert np.all(np.isfinite(vmc_reference.energies))
        assert np.isclose(
            vmc_reference.energy_mean, np.mean(vmc_reference.energies)
        )
        assert vmc_reference.energy_error > 0


@pytest.fixture(scope="module")
def dmc_spec():
    return CrowdSpec(n_walkers=3, n_orbitals=2, seed=23)


@pytest.fixture(scope="module")
def dmc_reference(dmc_spec):
    return run_dmc_sharded(dmc_spec, n_workers=1, n_generations=GENS, tau=TAU_DMC)


def _assert_traces_equal(a, b):
    np.testing.assert_array_equal(a.energy_trace, b.energy_trace)
    np.testing.assert_array_equal(a.population_trace, b.population_trace)
    np.testing.assert_array_equal(a.e_trial_trace, b.e_trial_trace)
    assert a.acceptance == b.acceptance


class TestDmcSharded:
    def test_worker_count_invariance(self, dmc_spec, dmc_reference, shm_sentinel):
        par = run_dmc_sharded(
            dmc_spec, n_workers=2, n_generations=GENS, tau=TAU_DMC
        )
        _assert_traces_equal(par, dmc_reference)

    def test_checkpoint_resume_across_worker_counts(
        self, dmc_spec, dmc_reference, tmp_path, shm_sentinel
    ):
        # Checkpoint a 2-worker run halfway, resume it with 1 worker:
        # the stitched trace must equal the uninterrupted reference.
        ckpt = tmp_path / "dmc"
        run_dmc_sharded(
            dmc_spec,
            n_workers=2,
            n_generations=GENS // 2,
            tau=TAU_DMC,
            checkpoint_every=GENS // 2,
            checkpoint_path=ckpt,
        )
        resumed = run_dmc_sharded(
            dmc_spec, n_workers=1, n_generations=GENS, tau=TAU_DMC, resume=ckpt
        )
        _assert_traces_equal(resumed, dmc_reference)

    def test_resume_rejects_parameter_mismatch(
        self, dmc_spec, tmp_path, shm_sentinel
    ):
        ckpt = tmp_path / "dmc"
        run_dmc_sharded(
            dmc_spec,
            n_workers=1,
            n_generations=2,
            tau=TAU_DMC,
            checkpoint_every=2,
            checkpoint_path=ckpt,
        )
        with pytest.raises(CheckpointError, match="mismatch"):
            run_dmc_sharded(
                dmc_spec,
                n_workers=1,
                n_generations=GENS,
                tau=TAU_DMC * 2,
                resume=ckpt,
            )

    def test_argument_validation(self, dmc_spec):
        with pytest.raises(ValueError, match="n_generations"):
            run_dmc_sharded(dmc_spec, n_generations=0)
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_dmc_sharded(dmc_spec, n_generations=1, checkpoint_every=1)
