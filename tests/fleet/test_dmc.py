"""Supervised DMC shards walkers like the bare pool: contiguously.

Which worker runs a walker is decided by
``repro.parallel.sharding.shard_slices`` alone, for every generation and
every live worker count — an elastic grow or shrink included.  The spy
records what ``FleetSupervisor.call`` hands each worker and checks it
against the contiguous split of the walker order a one-worker bare pool
sees for the same run.
"""

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetSupervisor
from repro.parallel import (
    CrowdSpec,
    ProcessCrowdPool,
    run_dmc_sharded,
    shard_slices,
)

GENS, TAU = 4, 0.04


@pytest.fixture(scope="module")
def spec():
    return CrowdSpec(n_walkers=5, n_orbitals=2, seed=23)


def _spy(calls, original):
    """Wrap a ``call(method, per_worker_args)``: record each worker's
    task positions, then make the call."""

    def call(self, method, per_worker_args, **kwargs):
        shards = [[t["positions"].copy() for t in a[0]] for a in per_worker_args]
        calls.append((method, shards))
        return original(self, method, per_worker_args, **kwargs)

    return call


@pytest.fixture(scope="module")
def walker_order(spec):
    """Per call of a one-worker bare-pool run: the method and every
    task's positions, in walker order."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ProcessCrowdPool, "call", _spy(calls, ProcessCrowdPool.call))
        run_dmc_sharded(spec, n_workers=1, n_generations=GENS, tau=TAU)
    return [(method, shards[0]) for method, shards in calls]


@pytest.mark.parametrize(
    "n_workers, latency_budget, final_workers",
    [(1, 1e-9, 3), (3, 1e9, 1)],
    ids=["grow", "shrink"],
)
def test_elastic_fleet_hands_out_contiguous_shards(
    spec,
    walker_order,
    monkeypatch,
    shm_sentinel,
    n_workers,
    latency_budget,
    final_workers,
):
    calls = []
    monkeypatch.setattr(FleetSupervisor, "call", _spy(calls, FleetSupervisor.call))
    result = run_dmc_sharded(
        spec,
        n_workers=n_workers,
        n_generations=GENS,
        tau=TAU,
        fleet=FleetConfig(
            elastic=True, latency_budget=latency_budget, max_workers=3
        ),
    )
    assert len(calls) == len(walker_order)
    for (method, shards), (ref_method, ordered) in zip(calls, walker_order):
        assert method == ref_method
        slices = shard_slices(len(ordered), len(shards))
        assert [len(s) for s in shards] == [sl.stop - sl.start for sl in slices]
        handed_out = [pos for shard in shards for pos in shard]
        for got, want in zip(handed_out, ordered, strict=True):
            np.testing.assert_array_equal(got, want)
    # The pool really resized mid-run, through every size in between.
    assert {len(shards) for _, shards in calls} == {1, 2, 3}
    assert result.fleet["final_workers"] == final_workers
    assert "rebalances" not in result.fleet
