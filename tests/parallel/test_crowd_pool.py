"""Crowd over processes vs the sequential crowd: bit-identical, any K."""

from dataclasses import replace

import numpy as np
import pytest

from repro.parallel import (
    CrowdSpec,
    build_walker_range,
    run_crowd_parallel,
    run_crowd_sequential,
)
from repro.qmc.drift_diffusion import sweep

N_SWEEPS = 2
TAU = 0.35


@pytest.fixture(scope="module")
def reference(spec, table):
    return run_crowd_sequential(spec, n_sweeps=N_SWEEPS, tau=TAU, table=table)


class TestBitIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_parallel_matches_sequential(
        self, spec, table, reference, n_workers, shm_sentinel
    ):
        par = run_crowd_parallel(
            spec, n_workers=n_workers, n_sweeps=N_SWEEPS, tau=TAU, table=table
        )
        np.testing.assert_array_equal(par.positions, reference.positions)
        np.testing.assert_array_equal(par.log_values, reference.log_values)
        assert par.accepted == reference.accepted
        assert par.attempted == reference.attempted
        assert par.n_workers == n_workers

    def test_soa_engine_also_bit_identical(self, spec, table, shm_sentinel):
        soa = replace(spec, engine="soa")
        seq = run_crowd_sequential(soa, n_sweeps=1, tau=TAU, table=table)
        par = run_crowd_parallel(soa, n_workers=2, n_sweeps=1, tau=TAU, table=table)
        np.testing.assert_array_equal(par.positions, seq.positions)
        np.testing.assert_array_equal(par.log_values, seq.log_values)

    def test_more_workers_than_walkers(self, spec, table, shm_sentinel):
        # Idle workers (empty shards) must not perturb the merged result.
        small = replace(spec, n_walkers=2)
        seq = run_crowd_sequential(small, n_sweeps=1, tau=TAU, table=table)
        par = run_crowd_parallel(small, n_workers=4, n_sweeps=1, tau=TAU, table=table)
        np.testing.assert_array_equal(par.positions, seq.positions)
        np.testing.assert_array_equal(par.log_values, seq.log_values)
        assert par.attempted == seq.attempted


class TestResultShape:
    def test_result_accounting(self, spec, reference):
        n_el = 2 * spec.n_orbitals
        assert reference.positions.shape == (spec.n_walkers, n_el, 3)
        assert reference.attempted == spec.n_walkers * n_el * N_SWEEPS
        assert 0.0 < reference.acceptance <= 1.0
        assert reference.walkers_per_second > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_walkers"):
            CrowdSpec(n_walkers=0)
        with pytest.raises(ValueError, match="engine"):
            CrowdSpec(n_walkers=1, engine="cuda")

    def test_crowd_metrics_reach_parent(self, spec, table, obs, shm_sentinel):
        run_crowd_parallel(spec, n_workers=2, n_sweeps=1, tau=TAU, table=table)
        assert obs.registry.counter("crowd_sweeps_total").value == 2  # 1 per shard
        n_el = 2 * spec.n_orbitals
        assert (
            obs.registry.counter("crowd_moves_total").value
            == spec.n_walkers * n_el
        )
        assert obs.registry.gauge("crowd_pool_workers").value == 2


class TestStepModeParity:
    """The batched crowd replays the per-walker sweep oracle."""

    def test_sequential_walker_mode_matches_batched(
        self, spec, table, reference
    ):
        resolved = spec.resolved(table.dtype)
        wfs, rngs = build_walker_range(resolved, table, 0, spec.n_walkers)
        accepted = attempted = 0
        for wf, rng in zip(wfs, rngs):
            for _ in range(N_SWEEPS):
                acc, att = sweep(wf, TAU, rng)
                accepted += acc
                attempted += att
        np.testing.assert_array_equal(
            np.stack([wf.electrons.positions for wf in wfs]), reference.positions
        )
        np.testing.assert_array_equal(
            [wf.log_value for wf in wfs], reference.log_values
        )
        assert accepted == reference.accepted
        assert attempted == reference.attempted
