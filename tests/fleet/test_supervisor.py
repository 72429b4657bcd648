"""FleetSupervisor: recovery, journal replay, elasticity, observability.

The worker state here is a tiny counter object — the supervision
contracts (restart, replay, scale) are independent of what the workers
compute, and spawning real shards would only slow the suite down.
"""

import os
import signal
import time

import pytest

from repro.fleet import FleetConfig, FleetSupervisor
from repro.parallel import WorkerError
from repro.resilience.faults import FaultInjector


class _Counter:
    """Minimal stateful worker: deterministic init, mutable value."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.value = 0

    def whoami(self) -> int:
        return self.worker_id

    def add(self, n: int) -> int:
        self.value += n
        return self.value

    def get(self) -> int:
        return self.value


def _init_counter(worker_id: int) -> _Counter:
    return _Counter(worker_id)


class TestConfig:
    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError, match="worker_timeout"):
            FleetConfig(worker_timeout=0)
        with pytest.raises(ValueError, match="max_restarts"):
            FleetConfig(max_restarts=-1)
        with pytest.raises(ValueError, match="min_workers"):
            FleetConfig(min_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            FleetConfig(min_workers=3, max_workers=2)
        with pytest.raises(ValueError, match="latency_budget"):
            FleetConfig(latency_budget=-1.0)
        with pytest.raises(ValueError, match="heartbeat_every"):
            FleetConfig(heartbeat_every=-1)

    def test_elastic_requires_stateless(self):
        with pytest.raises(ValueError, match="stateless"):
            FleetSupervisor(
                1, _init_counter, config=FleetConfig(elastic=True), stateful=True
            )


class TestSupervisedCalls:
    def test_broadcast_gathers_in_worker_order(self):
        with FleetSupervisor(3, _init_counter) as sup:
            assert len(sup) == 3
            assert sup.broadcast("whoami") == [0, 1, 2]

    def test_sigkill_recovery_is_transparent(self):
        with FleetSupervisor(2, _init_counter) as sup:
            sup.arm_fault(1, "sigkill")
            assert sup.broadcast("whoami") == [0, 1]
            assert sup.restarts == [0, 1]
            assert len(sup.mttr_seconds) == 1
            restart = next(e for e in sup.events if e["kind"] == "restart")
            assert restart["worker"] == 1
            assert restart["reason"] == "crash"

    def test_hang_recovery_via_deadline(self):
        cfg = FleetConfig(worker_timeout=1.0)
        with FleetSupervisor(2, _init_counter, config=cfg) as sup:
            sup.arm_fault(0, "hang", seconds=30.0)
            assert sup.broadcast("whoami") == [0, 1]
            assert sup.restarts == [1, 0]
            restart = next(e for e in sup.events if e["kind"] == "restart")
            assert restart["reason"] == "hang"

    def test_stateful_journal_replays_after_crash(self):
        with FleetSupervisor(2, _init_counter, stateful=True) as sup:
            assert sup.broadcast("add", 5) == [5, 5]
            sup.arm_fault(0, "sigkill")
            # Worker 0 dies on this call; the restarted process replays
            # add(5) from the journal before the call is re-issued.
            assert sup.broadcast("add", 2) == [7, 7]
            assert sup.broadcast("get") == [7, 7]
            assert sup.restarts == [1, 0]

    def test_restart_budget_is_bounded(self):
        cfg = FleetConfig(max_restarts=0)
        with FleetSupervisor(1, _init_counter, config=cfg) as sup:
            sup.arm_fault(0, "sigkill")
            with pytest.raises(WorkerError, match="max_restarts"):
                sup.broadcast("whoami")

    def test_heartbeat_restarts_externally_killed_worker(self):
        with FleetSupervisor(2, _init_counter) as sup:
            os.kill(sup.pool.pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while sup.pool.alive(0) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert sup.heartbeat() == [False, True]
            # The slot is healthy again after recovery.
            assert sup.broadcast("whoami") == [0, 1]
            assert sup.restarts == [1, 0]


class TestElasticity:
    def test_scale_to_grows_and_shrinks(self):
        cfg = FleetConfig(elastic=True, max_workers=3)
        with FleetSupervisor(1, _init_counter, config=cfg) as sup:
            assert sup.scale_to(3) == 3
            assert sup.broadcast("whoami") == [0, 1, 2]
            assert sup.scale_to(1) == 1
            assert sup.broadcast("whoami") == [0]
            assert sup.scale_events == 2
            assert len(sup.restarts) == 1

    def test_scale_clamps_to_bounds(self):
        cfg = FleetConfig(elastic=True, min_workers=1, max_workers=2)
        with FleetSupervisor(1, _init_counter, config=cfg) as sup:
            assert sup.scale_to(99) == 2
            assert sup.scale_to(0) == 1

    def test_stateful_fleet_refuses_to_scale(self):
        with FleetSupervisor(1, _init_counter, stateful=True) as sup:
            with pytest.raises(ValueError, match="stateful"):
                sup.scale_to(2)

    def test_autoscale_follows_latency_budget(self):
        cfg = FleetConfig(elastic=True, latency_budget=1.0, max_workers=2)
        with FleetSupervisor(1, _init_counter, config=cfg) as sup:
            assert sup.autoscale(2.0) == 2  # over budget: grow
            assert sup.autoscale(0.9) == 2  # inside hysteresis band: hold
            assert sup.autoscale(0.1) == 1  # ample slack: shrink

    def test_autoscale_is_a_no_op_when_not_elastic(self):
        with FleetSupervisor(1, _init_counter) as sup:
            assert sup.autoscale(1e9) == 1
            assert sup.scale_events == 0

    def test_rss_budget_forces_shrink(self):
        # Any live Python worker dwarfs a 0.001 MiB budget.
        cfg = FleetConfig(
            elastic=True, rss_budget_mb=0.001, latency_budget=1e-6, max_workers=2
        )
        with FleetSupervisor(2, _init_counter, config=cfg) as sup:
            assert sup.rss_mb() > 0.001
            # Latency says grow, memory says shrink: memory wins.
            assert sup.autoscale(1e9) == 1

    def test_rss_is_measured(self):
        with FleetSupervisor(1, _init_counter) as sup:
            assert sup.rss_mb() > 0.0


class TestInjectorAndObservability:
    def test_arm_injector_matches_generation_and_pool(self):
        inj = FaultInjector(seed=7)
        inj.sigkill_worker(worker=0, generation=0)
        inj.sigkill_worker(worker=1, generation=3)  # wrong generation
        inj.sigkill_worker(worker=9, generation=0)  # beyond the pool
        with FleetSupervisor(2, _init_counter) as sup:
            assert sup.arm_injector(inj, generation=0) == 1
            skipped = [e for e in sup.events if e["kind"] == "fault_skipped"]
            assert [e["worker"] for e in skipped] == [9]
            assert sup.broadcast("whoami") == [0, 1]
            assert sup.restarts == [1, 0]

    def test_arm_injector_none_is_a_no_op(self):
        with FleetSupervisor(1, _init_counter) as sup:
            assert sup.arm_injector(None) == 0

    def test_supervision_metrics_land_in_obs(self, obs):
        cfg = FleetConfig(elastic=True, max_workers=2)
        with FleetSupervisor(1, _init_counter, config=cfg) as sup:
            sup.arm_fault(0, "sigkill")
            sup.broadcast("whoami")
            sup.scale_to(2)
            sup.heartbeat()
            sup.merge_metrics()
        reg = obs.registry
        assert reg.counter("fleet_restarts_total", reason="crash").value == 1
        assert reg.counter("fleet_faults_armed_total", kind="sigkill").value == 1
        assert reg.counter("fleet_scale_events_total", direction="grow").value == 1
        assert reg.counter("worker_failures_total", worker="0").value == 1
        assert reg.histogram("fleet_recovery_seconds").count == 1
        assert reg.gauge("fleet_workers").value == 2

    def test_fleet_summary_shape(self):
        with FleetSupervisor(1, _init_counter) as sup:
            sup.arm_fault(0, "sigkill")
            sup.broadcast("whoami")
            summary = sup.fleet_summary()
        assert summary["restarts"] == 1
        assert summary["scale_events"] == 0
        assert "rebalances" not in summary
        assert summary["final_workers"] == 1
        assert len(summary["mttr_seconds"]) == 1
        assert any(e["kind"] == "restart" for e in summary["events"])
