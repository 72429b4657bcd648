"""Elastic, self-healing fleet execution over the process pool.

:mod:`repro.parallel` makes a population run *fast* on a healthy set of
workers; this package makes long runs survive the workers not staying
healthy — the orchestration layer kernel libraries in the QMCPACK
lineage deliberately leave to the driver:

* :class:`~repro.fleet.supervisor.FleetSupervisor` — heartbeats and
  per-call deadlines detect crashed (SIGKILL, OOM) and hung workers;
  the failed slot is restarted, its state rebuilt deterministically,
  and the in-flight work replayed **bit-identically**;
* :class:`~repro.fleet.supervisor.FleetConfig` — the policy knobs:
  deadlines, restart budgets, elastic min/max bounds, latency and RSS
  budgets;
* :mod:`~repro.fleet.dmc` — the supervised executor of
  :func:`repro.parallel.run_dmc_sharded`, reached through its
  ``fleet=`` parameter (and the CLIs' ``--elastic`` /
  ``--worker-timeout`` flags).

Which worker runs a walker is not the fleet's decision:
:mod:`repro.parallel.sharding` splits the walkers contiguously over
whatever workers are live, every generation, supervised or not.

Everything observable lands in the OBS registry: restarts, recovery
latency (MTTR), scale events, the live worker count.
"""

from repro.fleet.supervisor import FleetConfig, FleetSupervisor

__all__ = ["FleetConfig", "FleetSupervisor"]
