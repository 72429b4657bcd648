"""Supervised, elastic DMC — the executor behind
``repro.parallel.run_dmc_sharded(fleet=...)``.

Same physics, same loop (:mod:`repro.qmc.dmc`'s generation loop), same
contiguous walker split as the bare pool: the only differences are that
the :class:`~repro.fleet.supervisor.FleetSupervisor` restarts crashed or
hung workers mid-generation, arms scheduled process faults, and may
resize the pool between generations.  Because the parent's walker
arrays are the authoritative state and every result is gathered back in
*global walker order*, none of it shows in the traces.  The chaos tests
pin this down: SIGKILL a worker mid-run and the energy/population traces
still match the unfaulted sequential run bit for bit.

Why recovery is free of replay ambiguity: workers are stateless between
generations (the parent re-ships full task dicts each time), so
restarting a worker and re-issuing its scatter *is* the recovery —
there is no partial state to reconcile, no generation to roll back.
The on-disk checkpoint (same ``dmc-sharded`` kind, same contract)
remains the recovery path for parent death.
"""

from __future__ import annotations

from repro.fleet.supervisor import FleetSupervisor
from repro.parallel.dmc import _ShardedExecutor, _WalkerState
from repro.resilience.faults import FaultInjector


class _FleetExecutor(_ShardedExecutor):
    """The contiguous split under a supervisor: fault arming before each
    propagation, heartbeats and autoscaling after each generation."""

    def __init__(
        self,
        supervisor: FleetSupervisor,
        ion_charge: float,
        injector: FaultInjector | None,
    ):
        super().__init__(supervisor, ion_charge)
        self._injector = injector

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
