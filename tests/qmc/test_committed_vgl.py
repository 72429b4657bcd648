"""The crowd's resident drift cache: evaluated once, kept current by moves.

``CrowdState.committed_vgl()`` holds the orbital ``(g, lap)`` of every
committed electron position.  Only a crowd's first sweep (or first
measurement) evaluates it; each accepted move writes its trial rows into
it.  These tests pin both halves: the block stays ``assert_array_equal``
to a fresh evaluation, and the drivers make no kernel call to measure.
"""

import numpy as np
import pytest

from repro.parallel import CrowdSpec, run_vmc_population
from repro.parallel.crowd import build_walker_range, solve_spec_table
from repro.parallel.dmc import _DmcShard
from repro.qmc import SplineOrbitalSet, WalkerRngPool, run_vmc
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.dmc import build_dmc_ensemble, run_dmc
from repro.qmc.estimators import CrowdLocalEnergy
from repro.resilience.checkpoint import rng_state
from tests.qmc.test_batched_step import build_population

CELLS = [
    pytest.param({}, id="orthorhombic"),
    pytest.param({"graphite": True, "n_orb": 4}, id="graphite"),
]


def assert_block_is_fresh(state: CrowdState) -> None:
    g, lap = state.committed_vgl()
    _, g_ref, lap_ref = state.spos.vgl_batch(state.positions.reshape(-1, 3))
    np.testing.assert_array_equal(g, g_ref.reshape(g.shape))
    np.testing.assert_array_equal(lap, lap_ref.reshape(lap.shape))


@pytest.fixture
def vgl_calls(monkeypatch):
    """Counts every ``SplineOrbitalSet.vgl_batch`` call, by batch size."""
    sizes: list[int] = []
    original = SplineOrbitalSet.vgl_batch

    def counted(self, cart_positions):
        sizes.append(len(np.atleast_2d(cart_positions)))
        return original(self, cart_positions)

    monkeypatch.setattr(SplineOrbitalSet, "vgl_batch", counted)
    return sizes


class TestResidentBlock:
    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("use_drift", [True, False], ids=["drift", "no-drift"])
    def test_block_equals_fresh_vgl_after_sweeps(self, cell, use_drift):
        wfs, rngs = build_population(3, **cell)
        state = CrowdState(wfs, rngs)
        # Resident before the first sweep, so drift-free sweeps keep it too.
        state.committed_vgl()
        for k in range(3):
            batched_sweep(state, 0.3, use_drift=use_drift)
            assert state.accepts.any(), "the sweep must commit moves"
            if k == 1:
                for wf in wfs:  # as run_vmc does between sweeps
                    wf.recompute()
            assert_block_is_fresh(state)

    def test_one_call_per_electron_after_the_first_sweep(self):
        wfs, rngs = build_population(3)
        state = CrowdState(wfs, rngs)
        batched_sweep(state, 0.3)
        assert state.n_batched_calls == state.n_electrons + 1
        for _ in range(3):
            calls = state.n_batched_calls
            batched_sweep(state, 0.3)
            assert state.n_batched_calls - calls == state.n_electrons
            CrowdLocalEnergy(state).total()
            assert state.n_batched_calls - calls == state.n_electrons


class TestDriversMeasureWithoutAKernelCall:
    """Every call beyond the first block is one electron index's trials."""

    def test_run_vmc(self, vgl_calls):
        wfs, rngs = build_population(1)
        ne = len(wfs[0].electrons)
        run_vmc(wfs[0], rngs[0], n_steps=3, n_warmup=1, recompute_every=2)
        assert vgl_calls == [ne] + [1] * (4 * ne)

    def test_run_vmc_population(self, vgl_calls):
        spec = CrowdSpec(n_walkers=3, n_orbitals=2, grid_shape=(8, 8, 8))
        run_vmc_population(spec, n_steps=2, n_warmup=1, processes=False)
        ne = 2 * spec.n_orbitals
        assert vgl_calls == [3 * ne] + [3] * (3 * ne)

    def test_run_dmc(self, vgl_calls):
        pool = WalkerRngPool(5)
        walkers = build_dmc_ensemble(pool, 4, n_orbitals=2, grid_shape=(8, 8, 8))
        ne = len(walkers[0].wf.electrons)
        result = run_dmc(walkers, pool, n_generations=3, tau=0.05)
        # The initial measurement evaluates the block; each generation's
        # sweep then makes only its trial calls, one per electron index
        # over the population it started with.
        swept = [4, *result.population_trace[:-1]]
        assert vgl_calls[0] == 4 * ne
        assert vgl_calls[1:] == [int(n) for n in swept for _ in range(ne)]

    def test_dmc_shard_propagate(self, vgl_calls):
        spec = CrowdSpec(n_walkers=3, n_orbitals=2, grid_shape=(8, 8, 8))
        table = solve_spec_table(spec)
        wfs, rngs = build_walker_range(spec, table, 0, 3)
        tasks = [
            {
                "positions": wf.electrons.positions.copy(),
                "ion_positions": wf.ions.positions.copy(),
                "rng_state": rng_state(rng),
            }
            for wf, rng in zip(wfs, rngs)
        ]
        shard = _DmcShard(spec, table)
        vgl_calls.clear()
        shard.propagate(tasks, 0.05, 4.0)
        ne = 2 * spec.n_orbitals
        assert vgl_calls == [3 * ne] + [3] * ne
