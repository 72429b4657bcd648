"""Supervised, elastic, rebalancing DMC — the self-healing twin of
:func:`repro.parallel.run_dmc_sharded`.

Same physics, same loop (:func:`repro.parallel.dmc._run_dmc_loop`),
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

from repro.core.coeffs import pad_table_3d
from repro.fleet.rebalance import plan_rebalance, shard_imbalance
from repro.fleet.supervisor import FleetConfig, FleetSupervisor
from repro.obs import OBS
from repro.parallel.crowd import CrowdSpec, solve_spec_table
from repro.parallel.dmc import _init_dmc_shard, _run_dmc_loop, _WalkerState
from repro.parallel.shared_table import SharedTable
from repro.qmc.dmc import DmcResult
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import GuardConfig

__all__ = ["run_dmc_supervised"]


class _FleetExecutor:
    """Sticky-home sharding under a supervisor.

    Unlike the contiguous ``_PoolExecutor`` split, walkers keep their
    ``home`` shard between generations (clones inherit the parent's
    home) and move only when the rebalance planner says so — resident
    walkers stay put, which is what makes migration a measurable,
    bounded event rather than an every-generation reshuffle.
    """

    def __init__(
        self, supervisor: FleetSupervisor, injector: FaultInjector | None
    ):
        self._sup = supervisor
        self._injector = injector
        self._armed: set[int] = set()  # indices into injector.process_faults

    # -- scheduling ----------------------------------------------------------

    def _shard_indices(self, states: list[_WalkerState]) -> list[list[int]]:
        """Assign every walker a live home; plan migrations; bucket indices."""
        n = self._sup.n_workers
        config = self._sup.config
        threshold = config.rebalance_threshold if config.rebalance else None
        plan = plan_rebalance([s.home for s in states], n, threshold=threshold)
        for mv in plan.moves:
            states[mv.walker].home = mv.dst
        migrations = plan.migrations
        if migrations:
            moved_bytes = sum(
                states[m.walker].positions.nbytes
                + states[m.walker].ion_positions.nbytes
                for m in migrations
            )
            self._sup.events.append(
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
        for i, s in enumerate(states):
            buckets[s.home].append(i)
        return buckets

    def _scatter(self, states: list[_WalkerState], method: str, *args) -> list:
        """Shard by home, run supervised, gather in global walker order."""
        buckets = self._shard_indices(states)
        per_worker = [
            ([states[i].task() for i in bucket], *args) for bucket in buckets
        ]
        shards = self._sup.call(method, per_worker)
        merged: list = [None] * len(states)
        for bucket, shard in zip(buckets, shards):
            for i, result in zip(bucket, shard):
                merged[i] = result
        return merged

    def _arm_faults(self, gen: int) -> None:
        if self._injector is None:
            return
        for idx, fault in enumerate(self._injector.process_faults):
            if idx in self._armed or fault.generation != gen:
                continue
            self._armed.add(idx)
            if fault.worker >= self._sup.n_workers:
                self._sup.events.append(
                    {
                        "kind": "fault_skipped",
                        "worker": fault.worker,
                        "fault": fault.kind,
                        "note": f"only {self._sup.n_workers} workers live",
                    }
                )
                continue
            self._sup.arm_fault(fault.worker, fault.kind, fault.seconds)

    # -- executor protocol ---------------------------------------------------

    def measure(self, states: list[_WalkerState], ion_charge: float) -> list[float]:
        # No fault arming here: a fault at generation g fires on that
        # generation's propagate, not the initial measurement pass.
        return self._scatter(states, "measure", ion_charge)

    def propagate(
        self, states: list[_WalkerState], gen: int, tau: float, ion_charge: float
    ) -> list[dict]:
        self._arm_faults(gen)
        return self._scatter(states, "propagate", tau, ion_charge)

    def generation_end(
        self, gen: int, states: list[_WalkerState], seconds: float
    ) -> None:
        # Catch workers that died *between* calls (idle crashes) before
        # a later generation dispatches into a closed pipe.  Every
        # scatter/gather already probes liveness, so the sweep runs on a
        # cadence rather than every generation.
        every = self._sup.config.heartbeat_every
        if every and (gen + 1) % every == 0:
            self._sup.heartbeat()
        self._sup.autoscale(seconds)

    def finish(self) -> None:
        self._sup.merge_metrics()

    def summary(self) -> dict:
        return self._sup.fleet_summary()


def run_dmc_supervised(
    spec: CrowdSpec,
    n_workers: int = 1,
    n_generations: int = 20,
    tau: float = 0.05,
    target_population: int | None = None,
    feedback: float = 1.0,
    max_population_factor: int = 4,
    ion_charge: float = 4.0,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
    guard: GuardConfig | None = None,
    start_method: str | None = None,
    fleet: FleetConfig | None = None,
    injector: FaultInjector | None = None,
) -> DmcResult:
    """Sharded DMC under a :class:`~repro.fleet.supervisor.FleetSupervisor`.

    Accepts everything :func:`repro.parallel.run_dmc_sharded` does plus
    the supervision policy (``fleet``) and an optional chaos
    ``injector`` whose scheduled process faults are armed at their
    target generations.  Traces are bit-identical to the unsupervised
    (and the sequential) run — across worker crashes, hangs, elastic
    resizes and rebalances — and checkpoints interoperate both ways
    (same ``dmc-sharded`` contract).

    The supervision outcome lands on ``result.fleet`` (restart /
    rebalance / scale counts, MTTR samples, final worker count) and, when
    observability is on, in the OBS registry.
    """
    fleet = fleet or FleetConfig()
    table = solve_spec_table(spec)
    shared = SharedTable.create(pad_table_3d(table))
    table_spec = dict(shared.spec, n_workers=n_workers)
    try:
        with FleetSupervisor(
            n_workers,
            _init_dmc_shard,
            (spec, table_spec),
            config=fleet,
            stateful=False,
            start_method=start_method,
        ) as supervisor:
            return _run_dmc_loop(
                _FleetExecutor(supervisor, injector),
                spec,
                n_generations=n_generations,
                tau=tau,
                target_population=target_population,
                feedback=feedback,
                max_population_factor=max_population_factor,
                ion_charge=ion_charge,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                resume=resume,
                guard=guard,
            )
    finally:
        shared.close()
        shared.unlink()
