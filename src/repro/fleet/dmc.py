"""Supervised, elastic, rebalancing DMC — the executor behind
``repro.parallel.run_dmc_sharded(fleet=...)``.

Same physics, same loop (:mod:`repro.qmc.dmc`'s generation loop),
different executor: walkers carry a sticky ``home`` shard assignment,
the :mod:`repro.fleet.rebalance` planner migrates them when branching
skews the shards, the :class:`~repro.fleet.supervisor.FleetSupervisor`
restarts crashed or hung workers mid-generation, and — because the
parent's walker arrays are the authoritative state and every result is
gathered back in *global walker order* — all of it is invisible in the
traces.  The chaos tests pin this down: SIGKILL a worker mid-run and
the energy/population traces still match the unfaulted sequential run
bit for bit.

Why recovery is free of replay ambiguity: workers are stateless between
generations (the parent re-ships full task dicts each time), so
restarting a worker and re-issuing its scatter *is* the recovery —
there is no partial state to reconcile, no generation to roll back.
The on-disk checkpoint (same ``dmc-sharded`` kind, same contract)
remains the recovery path for parent death.
"""

from __future__ import annotations

from repro.fleet.rebalance import plan_rebalance, shard_imbalance
from repro.fleet.supervisor import FleetSupervisor
from repro.obs import OBS
from repro.parallel.dmc import _ShardedExecutor, _WalkerState
from repro.resilience.faults import FaultInjector


class _FleetExecutor(_ShardedExecutor):
    """Sticky-home sharding under a supervisor.

    Unlike the base executor's contiguous split, walkers keep their
    ``home`` shard between generations (clones inherit the parent's
    home) and move only when the rebalance planner says so — resident
    walkers stay put, which is what makes migration a measurable,
    bounded event rather than an every-generation reshuffle.
    """

    def __init__(
        self,
        supervisor: FleetSupervisor,
        ion_charge: float,
        injector: FaultInjector | None,
    ):
        super().__init__(supervisor, ion_charge)
        self._injector = injector

    def _shard_indices(self, walkers: list[_WalkerState]) -> list[list[int]]:
        """Assign every walker a live home; plan migrations; bucket indices."""
        sup = self._workers
        n = sup.n_workers
        threshold = (
            sup.config.rebalance_threshold if sup.config.rebalance else None
        )
        plan = plan_rebalance([w.home for w in walkers], n, threshold=threshold)
        for mv in plan.moves:
            walkers[mv.walker].home = mv.dst
        migrations = plan.migrations
        if migrations:
            moved_bytes = sum(
                walkers[m.walker].positions.nbytes
                + walkers[m.walker].ion_positions.nbytes
                for m in migrations
            )
            sup.events.append(
                {
                    "kind": "rebalance",
                    "walkers": len(migrations),
                    "bytes": moved_bytes,
                    "sizes_before": list(plan.sizes_before),
                    "sizes_after": list(plan.sizes_after),
                }
            )
            if OBS.enabled:
                OBS.count("fleet_rebalances_total")
                OBS.count("fleet_migrated_walkers_total", len(migrations))
                OBS.count("fleet_migrated_bytes_total", moved_bytes)
        if OBS.enabled:
            OBS.gauge("fleet_shard_imbalance", shard_imbalance(plan.sizes_after))
        buckets: list[list[int]] = [[] for _ in range(n)]
        for i, w in enumerate(walkers):
            buckets[w.home].append(i)
        return buckets

    def _map(self, walkers: list[_WalkerState], method: str, *args) -> list:
        """Shard by home, run supervised, gather in global walker order."""
        buckets = self._shard_indices(walkers)
        per_worker = [
            ([walkers[i].task() for i in bucket], *args) for bucket in buckets
        ]
        shards = self._workers.call(method, per_worker)
        merged: list = [None] * len(walkers)
        for bucket, shard in zip(buckets, shards):
            for i, result in zip(bucket, shard):
                merged[i] = result
        return merged

    def propagate(
        self, walkers: list[_WalkerState], gen: int, tau: float
    ) -> tuple[int, int]:
        # A fault scheduled for generation g fires on that generation's
        # propagate, never on the initial measurement pass.
        self._workers.arm_injector(self._injector, generation=gen)
        return super().propagate(walkers, gen, tau)

    def generation_end(
        self, gen: int, walkers: list[_WalkerState], seconds: float
    ) -> None:
        # Catch workers that died *between* calls (idle crashes) before
        # a later generation dispatches into a closed pipe.  Every
        # scatter/gather already probes liveness, so the sweep runs on a
        # cadence rather than every generation.
        sup = self._workers
        every = sup.config.heartbeat_every
        if every and (gen + 1) % every == 0:
            sup.heartbeat()
        sup.autoscale(seconds)

    def summary(self) -> dict:
        return self._workers.fleet_summary()
