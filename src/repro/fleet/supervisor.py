"""FleetSupervisor — self-healing, elastic wrapper over ProcessCrowdPool.

The pool (:class:`~repro.parallel.pool.ProcessCrowdPool`) provides the
mechanisms — detect a dead worker, restart a slot, grow/shrink, arm a
chaos fault; this module provides the *policy* that turns them into a
run that survives real failures:

* **health tracking** — every scatter/gather runs against a per-call
  deadline (``worker_timeout``), and :meth:`FleetSupervisor.heartbeat`
  pings idle workers; a SIGKILL'd worker surfaces as
  :class:`~repro.parallel.pool.WorkerError`, a hung one as
  :class:`~repro.parallel.pool.WorkerTimeout`;
* **recovery** — the failed slot is restarted (the initializer rebuilds
  its state deterministically), a stateful worker's call journal is
  replayed, and the in-flight call is re-issued.  Because walker tasks
  are pure functions of parent-held state, the recovered run is
  **bit-identical** to an unfaulted one;
* **elastic scaling** — :meth:`FleetSupervisor.autoscale` grows the pool
  when a generation blows its latency budget and shrinks it when the
  fleet's resident memory exceeds its RSS budget (or latency shows
  ample slack);
* **observability** — restarts, scale events and recovery latency
  (MTTR) land in the OBS registry (``fleet_restarts_total``,
  ``fleet_scale_events_total``, ``fleet_recovery_seconds``, the
  ``fleet_workers`` gauge) and in the supervisor's ``events`` audit
  list.

Recovery is bounded: more than ``max_restarts`` restarts of the same
slot re-raises the underlying :class:`WorkerError` — a worker that dies
deterministically on its own shard is a bug, not bad luck, and retrying
forever would hide it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.obs import OBS
from repro.parallel.pool import ProcessCrowdPool, WorkerError, WorkerTimeout

__all__ = ["FleetConfig", "FleetSupervisor"]


@dataclass(frozen=True)
class FleetConfig:
    """Supervision and elasticity policy for one fleet.

    Parameters
    ----------
    worker_timeout:
        Reply deadline (seconds) per dispatched call; ``None`` disables
        hang detection (crashes are still detected via the closed pipe).
    heartbeat_timeout:
        Deadline for :meth:`FleetSupervisor.heartbeat` pings.
    heartbeat_every:
        Generations between proactive heartbeat sweeps in the DMC loop
        (``0`` disables them).  Every scatter/gather already probes
        liveness, so per-generation pings are pure overhead; the sweep
        is a backstop for workers that die *between* calls.
    max_restarts:
        Restart budget *per worker slot* before the supervisor gives up
        and re-raises.
    elastic:
        Allow :meth:`FleetSupervisor.autoscale` to resize the pool
        between generations.
    min_workers / max_workers:
        Elastic bounds; ``max_workers=None`` caps at the host's CPU
        count (never below the starting size).
    latency_budget:
        Target seconds per generation: above it the fleet grows, below
        half of it the fleet shrinks.  ``None`` disables latency-driven
        scaling.
    rss_budget_mb:
        Fleet-wide resident-memory budget; exceeding it forces a shrink
        regardless of latency.  ``None`` disables the check.
    start_method:
        Multiprocessing start method override for the supervised pool.
    """

    worker_timeout: float | None = None
    heartbeat_timeout: float = 10.0
    heartbeat_every: int = 10
    max_restarts: int = 5
    elastic: bool = False
    min_workers: int = 1
    max_workers: int | None = None
    latency_budget: float | None = None
    rss_budget_mb: float | None = None
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.worker_timeout is not None and self.worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be positive, got {self.worker_timeout}"
            )
        if self.heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {self.heartbeat_timeout}"
            )
        if self.heartbeat_every < 0:
            raise ValueError(
                f"heartbeat_every must be >= 0, got {self.heartbeat_every}"
            )
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers is not None and self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) < min_workers "
                f"({self.min_workers})"
            )
        if self.latency_budget is not None and self.latency_budget <= 0:
            raise ValueError(
                f"latency_budget must be positive, got {self.latency_budget}"
            )
        if self.rss_budget_mb is not None and self.rss_budget_mb <= 0:
            raise ValueError(
                f"rss_budget_mb must be positive, got {self.rss_budget_mb}"
            )


def _proc_rss_mb(pid: int) -> float:
    """Resident set size of one process in MiB (0.0 where unsupported)."""
    try:
        with open(f"/proc/{pid}/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)
    except (OSError, ValueError, IndexError):
        return 0.0


class FleetSupervisor:
    """A supervised, optionally elastic pool of crowd workers.

    Parameters
    ----------
    n_workers:
        Starting pool size.
    initializer / init_args / start_method:
        Forwarded to :class:`~repro.parallel.pool.ProcessCrowdPool`; the
        initializer must rebuild a worker's state deterministically from
        its worker id (all shard initializers in this repo do).
    config:
        The :class:`FleetConfig` policy (defaults apply when ``None``).
    stateful:
        ``True`` when worker state *evolves* across calls (the VMC/crowd
        shards hold their walkers worker-side).  Successful calls are
        then journaled per worker and replayed after a restart, and
        elastic scaling is refused (the shard structure is fixed at
        init).  The sharded-DMC executor runs stateless
        (``False``): the parent re-ships every task each generation, so
        a restarted worker needs no replay and the pool may resize
        freely.
    """

    def __init__(
        self,
        n_workers: int,
        initializer,
        init_args: tuple = (),
        config: FleetConfig | None = None,
        stateful: bool = False,
        start_method: str | None = None,
    ):
        self.config = config or FleetConfig()
        self.stateful = bool(stateful)
        if self.config.elastic and self.stateful:
            raise ValueError(
                "elastic scaling requires stateless workers (sharded DMC); "
                "stateful shards are fixed at init"
            )
        self._max_workers = self.config.max_workers or max(
            n_workers, os.cpu_count() or 1
        )
        self.pool = ProcessCrowdPool(
            n_workers,
            initializer,
            init_args,
            start_method=start_method or self.config.start_method,
        )
        #: Per-slot restart counts (index = worker id).
        self.restarts: list[int] = [0] * n_workers
        #: Detection-to-recovered latency of every recovery, in seconds.
        self.mttr_seconds: list[float] = []
        #: Audit trail: restarts, scale events, armed and skipped faults.
        self.events: list[dict] = []
        self._journal: list[list[tuple]] = [[] for _ in range(n_workers)]
        if OBS.enabled:
            OBS.gauge("fleet_workers", self.pool.n_workers)

    # -- basic shape ---------------------------------------------------------

    def __len__(self) -> int:
        return self.pool.n_workers

    @property
    def n_workers(self) -> int:
        return self.pool.n_workers

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts)

    @property
    def scale_events(self) -> int:
        return sum(1 for e in self.events if e["kind"] == "scale")

    # -- supervised scatter / gather -----------------------------------------

    def call(self, method: str, per_worker_args: list[tuple], **kwargs) -> list:
        """Scatter/gather like the pool, but survive worker failures.

        A worker that crashed before the send, died mid-call, or missed
        its ``worker_timeout`` deadline is restarted (journal replayed if
        stateful) and its call re-issued; results still come back in
        worker order.  Raises the final :class:`WorkerError` once a slot
        exhausts ``max_restarts``.
        """
        if len(per_worker_args) != self.n_workers:
            raise ValueError(
                f"need {self.n_workers} argument tuples, got {len(per_worker_args)}"
            )
        args_list = [tuple(a) for a in per_worker_args]
        for w, args in enumerate(args_list):
            self._issue(w, method, args, kwargs)
        results = []
        for w, args in enumerate(args_list):
            results.append(self._gather(w, method, args, kwargs))
        if self.stateful:
            for w, args in enumerate(args_list):
                self._journal[w].append((method, args, dict(kwargs)))
        return results

    def broadcast(self, method: str, *args, **kwargs) -> list:
        """Run ``state.method(*args, **kwargs)`` on every worker, supervised."""
        return self.call(method, [args] * self.n_workers, **kwargs)

    def _issue(self, worker: int, method: str, args: tuple, kwargs: dict) -> None:
        try:
            self.pool.start_call(worker, method, args, kwargs)
        except WorkerError as err:
            self._recover(worker, err, reason="crash")
            self.pool.start_call(worker, method, args, kwargs)

    def _gather(self, worker: int, method: str, args: tuple, kwargs: dict):
        while True:
            try:
                return self.pool.finish_call(
                    worker, timeout=self.config.worker_timeout, method=method
                )
            except WorkerTimeout as err:
                self._recover(worker, err, reason="hang")
            except WorkerError as err:
                self._recover(worker, err, reason="crash")
            self.pool.start_call(worker, method, args, kwargs)

    # -- recovery ------------------------------------------------------------

    def _recover(self, worker: int, err: WorkerError, reason: str) -> None:
        """Restart a failed slot and replay its journal; record MTTR.

        Raises the latest failure once the slot's restart budget is
        spent (replay failures count against the same budget).
        """
        t0 = time.perf_counter()
        attempt_reason = reason
        while True:
            self.restarts[worker] += 1
            if self.restarts[worker] > self.config.max_restarts:
                raise WorkerError(
                    f"worker {worker} exceeded max_restarts="
                    f"{self.config.max_restarts} (last failure: {err})",
                    worker_id=worker,
                    method=getattr(err, "method", None),
                ) from err
            if OBS.enabled:
                OBS.count("fleet_restarts_total", reason=attempt_reason)
                OBS.event(
                    "fleet:restart", cat="fleet", worker=worker, reason=attempt_reason
                )
            try:
                self.pool.restart_worker(worker)
                for method, args, kwargs in self._journal[worker]:
                    self.pool.start_call(worker, method, args, kwargs)
                    self.pool.finish_call(
                        worker, timeout=self.config.worker_timeout, method=method
                    )
                break
            except WorkerError as replay_err:
                err = replay_err
                attempt_reason = "replay"
        dt = time.perf_counter() - t0
        self.mttr_seconds.append(dt)
        self.events.append(
            {"kind": "restart", "worker": worker, "reason": reason, "seconds": dt}
        )
        if OBS.enabled:
            OBS.observe("fleet_recovery_seconds", dt)

    def heartbeat(self) -> list[bool]:
        """Ping every worker; restart the ones that died or stalled.

        Returns one flag per worker: ``True`` for a healthy pong,
        ``False`` for a worker that needed recovery (it is healthy again
        when this returns, or the restart budget ran out and raised).
        """
        healthy = []
        for w in range(self.n_workers):
            try:
                self.pool.ping(w, timeout=self.config.heartbeat_timeout)
                healthy.append(True)
            except WorkerTimeout as err:
                self._recover(w, err, reason="heartbeat")
                healthy.append(False)
            except WorkerError as err:
                self._recover(w, err, reason="heartbeat")
                healthy.append(False)
        if OBS.enabled:
            OBS.count("fleet_heartbeats_total", amount=len(healthy))
        return healthy

    # -- elasticity ----------------------------------------------------------

    def scale_to(self, n_workers: int, reason: str = "manual") -> int:
        """Resize the pool toward ``n_workers`` (clamped to the bounds).

        Returns the actual new size.  Refused for stateful fleets — a
        VMC shard's walkers live worker-side and cannot be re-sharded.
        """
        if self.stateful:
            raise ValueError("cannot scale a stateful fleet (fixed shards)")
        n_workers = max(self.config.min_workers, min(n_workers, self._max_workers))
        before = self.n_workers
        while self.n_workers < n_workers:
            self.pool.add_worker()
            self.restarts.append(0)
            self._journal.append([])
            if OBS.enabled:
                OBS.count("fleet_scale_events_total", direction="grow")
        while self.n_workers > n_workers:
            self.pool.remove_worker()
            self.restarts.pop()
            self._journal.pop()
            if OBS.enabled:
                OBS.count("fleet_scale_events_total", direction="shrink")
        if self.n_workers != before:
            self.events.append(
                {
                    "kind": "scale",
                    "from": before,
                    "to": self.n_workers,
                    "reason": reason,
                }
            )
            if OBS.enabled:
                OBS.gauge("fleet_workers", self.n_workers)
                OBS.event(
                    "fleet:scale",
                    cat="fleet",
                    n_from=before,
                    n_to=self.n_workers,
                    reason=reason,
                )
        return self.n_workers

    def rss_mb(self) -> float:
        """Total resident memory of the worker fleet, in MiB."""
        return sum(_proc_rss_mb(pid) for pid in self.pool.pids if pid)

    def autoscale(self, last_generation_seconds: float) -> int:
        """Apply the elastic policy after one generation; returns the size.

        Memory pressure wins over latency: an RSS budget breach shrinks
        even when the run is slow.  Otherwise a generation over the
        latency budget grows by one, and one under half the budget
        shrinks by one (hysteresis against flapping).
        """
        if not self.config.elastic:
            return self.n_workers
        n = self.n_workers
        if (
            self.config.rss_budget_mb is not None
            and self.rss_mb() > self.config.rss_budget_mb
            and n > self.config.min_workers
        ):
            return self.scale_to(n - 1, reason="rss_budget")
        if self.config.latency_budget is not None:
            if last_generation_seconds > self.config.latency_budget:
                return self.scale_to(n + 1, reason="latency_budget")
            if (
                last_generation_seconds < 0.5 * self.config.latency_budget
                and n > self.config.min_workers
            ):
                return self.scale_to(n - 1, reason="latency_slack")
        return self.n_workers

    # -- chaos & observability -----------------------------------------------

    def arm_fault(self, worker: int, kind: str, seconds: float = 0.0) -> None:
        """Arm a process-level fault on one worker (testing hook)."""
        self.pool.arm_chaos(worker, kind, seconds)
        self.events.append({"kind": "fault_armed", "worker": worker, "fault": kind})
        if OBS.enabled:
            OBS.count("fleet_faults_armed_total", kind=kind)

    def arm_injector(self, injector, generation: int = 0) -> int:
        """Arm a :class:`~repro.resilience.faults.FaultInjector`'s process
        faults scheduled for ``generation``; returns how many were armed.

        Single-broadcast drivers (population VMC, crowd propagation)
        treat the whole run as generation 0.  Faults aimed at workers
        beyond the live pool are skipped (and recorded in ``events``).
        """
        if injector is None:
            return 0
        armed = 0
        for fault in getattr(injector, "process_faults", ()):
            if fault.generation != generation:
                continue
            if fault.worker >= self.n_workers:
                self.events.append(
                    {
                        "kind": "fault_skipped",
                        "worker": fault.worker,
                        "fault": fault.kind,
                        "note": f"only {self.n_workers} workers live",
                    }
                )
                continue
            self.arm_fault(fault.worker, fault.kind, fault.seconds)
            armed += 1
        return armed

    def merge_metrics(self) -> None:
        """Merge worker registries into the parent's, skipping dead workers.

        Unlike the bare pool's :meth:`~ProcessCrowdPool.merge_metrics`,
        a worker that dies during the pull is skipped (its since-restart
        metrics are lost; supervision metrics live parent-side), so a
        final merge never fails a run that already survived its faults.
        """
        if not OBS.enabled:
            return
        for w in range(self.n_workers):
            try:
                state = self.pool.metrics_state(
                    w, timeout=self.config.heartbeat_timeout
                )
            except WorkerError:
                continue
            OBS.registry.merge_state(state)
        OBS.gauge("crowd_pool_workers", self.n_workers)
        OBS.gauge("fleet_workers", self.n_workers)

    def fleet_summary(self) -> dict:
        """The run's supervision outcome, for results and CLI reporting."""
        return {
            "restarts": self.total_restarts,
            "scale_events": self.scale_events,
            "mttr_seconds": list(self.mttr_seconds),
            "final_workers": self.n_workers,
            "events": list(self.events),
        }

    # -- lifetime ------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        self.pool.close(timeout=timeout)

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
