"""Sharded DMC: propagation in worker processes, branching in the parent.

The DMC generation loop splits naturally at the paper's three stages:
drift-diffusion and measurement touch only per-walker state (workers),
while branching and population control are global decisions (parent).
This driver keeps the *authoritative* population in the parent as plain
arrays — positions, the walker's RNG, last local energy — and ships each
generation's shard to persistent workers that hold the heavy
wavefunction machinery (shared coefficient table, Slater-Jastrow
templates) and never pickle it back.

Workers rebuild derived state with ``recompute()`` before every sweep,
so a walker's trajectory is a pure function of its (positions, ions,
rng-state) triple.  Two consequences the tests pin down:

* **worker-count invariance** — the run is bit-identical for any
  ``n_workers`` (sharding is contiguous, gathering ordered, branching
  draws come from per-walker streams and a parent-side clone pool);
* **cadence-free resume** — unlike :func:`repro.qmc.dmc.run_dmc` (whose
  checkpoints recompute mid-run state), checkpoint/resume here is
  bit-identical to the uninterrupted run at *any* ``checkpoint_every``,
  and a resumed run may even use a different worker count.

A third consequence powers :mod:`repro.fleet`: because the parent's
walker arrays *are* the in-memory checkpoint, a worker that crashes or
hangs mid-generation loses nothing — restart it, re-ship its tasks,
and the generation replays bit-identically.

The generation loop is :mod:`repro.qmc.dmc`'s own, run over a
:class:`_ShardedExecutor` that ships walkers as tasks, split
contiguously (:func:`~repro.parallel.sharding.shard_slices`) over the
live workers every generation.  The supervised, elastic executor in
:mod:`repro.fleet.dmc` keeps that split and adds fault recovery and
resizing.  Both start through :func:`repro.parallel.crowd._launch` and
produce the same traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.lattice.cell import Cell
from repro.obs import OBS
from repro.parallel.crowd import CrowdSpec, _launch, _Shard, build_walker_range
from repro.parallel.sharding import shard_slices, walker_rng
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.dmc import DmcResult, _check_run_args, _run_generations
from repro.qmc.estimators import CrowdLocalEnergy
from repro.qmc.particleset import ParticleSet
from repro.qmc.rng import WalkerRngPool
from repro.resilience.checkpoint import restore_rng, rng_state
from repro.resilience.guards import GuardConfig

__all__ = ["run_dmc_sharded"]


@dataclass
class _WalkerState:
    """The parent's authoritative view of one walker: arrays, no objects.

    The physics is a function of the :meth:`task` triple only, which is
    what keeps traces identical across worker counts and restarts.
    """

    positions: np.ndarray
    ion_positions: np.ndarray
    rng: np.random.Generator
    e_local: float = 0.0

    def clone(self, rng: np.random.Generator) -> "_WalkerState":
        """Branching copy: same configuration, fresh stream (pool-drawn)."""
        return _WalkerState(
            positions=self.positions.copy(),
            ion_positions=self.ion_positions.copy(),
            rng=rng,
            e_local=self.e_local,
        )

    def task(self) -> dict:
        return {
            "positions": self.positions,
            "ion_positions": self.ion_positions,
            "rng_state": rng_state(self.rng),
        }


class _DmcShard(_Shard):
    """Shard state: reusable wavefunction templates over the table.

    Templates are grown on demand (branching can push a shard past its
    initial size); each task loads its positions into template ``i``,
    recomputes, and propagates — the template never carries state between
    generations, so the shard holds no walker range of its own and a
    restarted worker needs no replay.
    """

    stateful = False

    def __init__(
        self,
        spec: CrowdSpec,
        table: np.ndarray,
        worker_id: int = 0,
        n_workers: int = 1,
    ):
        self._spec = spec
        self._table = table
        # Template 0 doubles as the structural prototype; templates use a
        # fixed arbitrary configuration stream (walker 0's) — every task
        # overwrites positions before any physics runs.
        self._wfs, _ = build_walker_range(spec, table, 0, 1)
        # Every template shares template 0's orbital set so the shard's
        # tasks form ONE crowd for the batched step (walkers only batch
        # together when they share the orbital-set object).
        self.spos = self._wfs[0].slater.spos

    def _template(self, i: int):
        while len(self._wfs) <= i:
            wfs, _ = build_walker_range(
                self._spec, self._table, 0, 1, spos=self.spos
            )
            self._wfs.append(wfs[0])
        return self._wfs[i]

    def _load(self, i: int, task: dict):
        wf = self._template(i)
        wf.electrons.load_positions(task["positions"], wrap=False)
        wf.ions.load_positions(task["ion_positions"], wrap=False)
        wf.recompute()
        return wf

    def _crowd(self, tasks: list[dict]) -> CrowdState:
        """Every task loaded into its template, as one crowd."""
        wfs = [self._load(i, t) for i, t in enumerate(tasks)]
        return CrowdState(wfs, [restore_rng(t["rng_state"]) for t in tasks])

    def measure(self, tasks: list[dict], ion_charge: float) -> list[float]:
        """Local energy of each task's configuration (no RNG consumed),
        measured in one batched pass."""
        if not tasks:
            return []
        return CrowdLocalEnergy(self._crowd(tasks), ion_charge).total().tolist()

    def propagate(
        self, tasks: list[dict], tau: float, ion_charge: float
    ) -> list[dict]:
        """One drift-diffusion sweep + measurement per task.

        Loads every task into its template and advances the whole shard
        through the batched population kernels (one crowd — all
        templates share one orbital set), then measures the crowd in one
        batched pass; measurement consumes no RNG, so each task's result
        is bitwise independent of which shard carried it.  Templates
        reload every call, so the crowd's first sweep evaluates its drift
        cache; the sweep keeps it current and the measurement reads it.
        """
        if not tasks:
            return []
        t0 = time.perf_counter()
        state = self._crowd(tasks)
        batched_sweep(state, tau)
        energies = CrowdLocalEnergy(state, ion_charge).total()
        out = [
            {
                "positions": wf.electrons.positions.copy(),
                "rng_state": rng_state(state.rngs[i]),
                "e_local": float(energies[i]),
                "accepted": int(state.accepts[i]),
                "attempted": state.n_electrons,
            }
            for i, wf in enumerate(state.wfs)
        ]
        if OBS.enabled:
            OBS.count("dmc_shard_walkers_propagated_total", len(tasks))
            OBS.observe("dmc_shard_propagate_seconds", time.perf_counter() - t0)
        return out

    def close(self) -> None:
        self._wfs = self._table = self.spos = None
        super().close()


class _ShardedExecutor:
    """Walkers as parent-side arrays; measurement and propagation ship
    as tasks to ``workers`` (anything with the pool's ``n_workers`` /
    ``call`` / ``merge_metrics`` surface), split contiguously over the
    workers live at each call.  Energies come back with each propagation
    (and from one ``measure`` pass at the start), and the loop reads
    them by index.
    """

    kind = "dmc-sharded"

    def __init__(self, workers, ion_charge: float):
        self._workers = workers
        self._ion_charge = ion_charge
        self._energies: list[float] | None = None

    def _map(self, walkers: list[_WalkerState], method: str, *args) -> list:
        """Run ``method`` over contiguous shards; results in walker order."""
        slices = shard_slices(len(walkers), self._workers.n_workers)
        shards = self._workers.call(
            method, [([w.task() for w in walkers[sl]], *args) for sl in slices]
        )
        return [result for shard in shards for result in shard]

    def energy(self, walkers: list[_WalkerState], i: int) -> float:
        if self._energies is None:
            self._energies = self._map(walkers, "measure", self._ion_charge)
        return self._energies[i]

    def remeasure(self, walkers: list[_WalkerState], i: int) -> None:
        # Workers recompute derived state before every sweep, so there is
        # nothing further to rebuild: "recompute" behaves like "drop".
        return None

    def propagate(
        self, walkers: list[_WalkerState], gen: int, tau: float
    ) -> tuple[int, int]:
        results = self._map(walkers, "propagate", tau, self._ion_charge)
        for w, r in zip(walkers, results):
            w.positions = r["positions"]
            w.rng = restore_rng(r["rng_state"])
        self._energies = [r["e_local"] for r in results]
        return (
            sum(r["accepted"] for r in results),
            sum(r["attempted"] for r in results),
        )

    def snapshot(
        self, walkers: list[_WalkerState]
    ) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.stack([w.positions for w in walkers]),
            np.stack([w.ion_positions for w in walkers]),
        )

    def restore(
        self, walkers, positions, ion_positions, rngs, e_locals
    ) -> list[_WalkerState]:
        return [
            _WalkerState(
                positions=pos.copy(),
                ion_positions=ions.copy(),
                rng=rng,
                e_local=float(e),
            )
            for pos, ions, rng, e in zip(positions, ion_positions, rngs, e_locals)
        ]

    def generation_end(
        self, gen: int, walkers: list[_WalkerState], seconds: float
    ) -> None:
        pass

    def finish(self) -> None:
        self._workers.merge_metrics()

    def summary(self) -> dict | None:
        return None


def _initial_population(spec: CrowdSpec) -> list[_WalkerState]:
    """Deterministic starting population from per-walker streams.

    Uses the same streams as :func:`repro.parallel.crowd.build_walker_range`
    (stream 0 configuration, stream 1 moves) but builds only the arrays —
    the parent never instantiates wavefunctions.
    """
    cell = Cell.cubic(spec.box)
    states = []
    for w in range(spec.n_walkers):
        conf_rng = walker_rng(spec.seed, w, stream=0)
        ion_positions = cell.frac_to_cart(conf_rng.random((2, 3)))
        electrons = ParticleSet.random("e", cell, 2 * spec.n_orbitals, conf_rng)
        states.append(
            _WalkerState(
                positions=electrons.positions.copy(),
                ion_positions=ion_positions,
                rng=walker_rng(spec.seed, w, stream=1),
            )
        )
    return states


def run_dmc_sharded(
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
    fleet=None,
    injector=None,
) -> DmcResult:
    """Run DMC with propagation sharded over ``n_workers`` processes.

    Parameters mirror :func:`repro.qmc.dmc.run_dmc` where they overlap;
    the ensemble itself is described by ``spec`` (the parent builds the
    initial population deterministically from per-walker streams).
    The worker count is deliberately not part of the checkpoint
    contract.  ``resume="auto"`` resumes from ``checkpoint_path`` if a
    checkpoint exists there, else starts fresh.

    Passing a :class:`repro.fleet.FleetConfig` as ``fleet`` runs the
    same loop under a :class:`~repro.fleet.supervisor.FleetSupervisor`
    (see :mod:`repro.fleet.dmc`): crash/hang recovery and optional
    elastic scaling — still bit-identical, with the outcome on
    ``DmcResult.fleet``.  ``injector`` (a
    :class:`~repro.resilience.faults.FaultInjector` carrying process
    faults, armed at their target generations) requires ``fleet``.

    Guard policy note: workers recompute derived state before every
    sweep, so the ``"recompute"`` non-finite-energy policy has nothing
    further to rebuild — it behaves like ``"drop"`` here.  ``"raise"``
    and ``"ignore"`` behave as in ``run_dmc``.

    The run arguments are checked before any table is solved or worker
    started.  Returns the same :class:`~repro.qmc.dmc.DmcResult` shape
    as the sequential driver.
    """
    resume = _check_run_args(
        n_generations, checkpoint_every, checkpoint_path, resume
    )
    params = {
        "tau": tau,
        "target_population": target_population or spec.n_walkers,
        "feedback": feedback,
        "max_population_factor": max_population_factor,
        "ion_charge": ion_charge,
        # The physical system is part of the contract; the worker count
        # deliberately is not (resume with any n_workers).
        "spec": {
            "n_walkers": spec.n_walkers,
            "n_orbitals": spec.n_orbitals,
            "box": spec.box,
            "grid_shape": list(spec.grid_shape),
            "engine": spec.engine,
            "seed": spec.seed,
        },
    }
    with _launch(
        spec,
        n_workers,
        _DmcShard,
        start_method=start_method,
        fleet=fleet,
        injector=injector,
    ) as workers:
        if fleet is not None:
            from repro.fleet.dmc import _FleetExecutor

            executor = _FleetExecutor(workers, ion_charge, injector)
        else:
            executor = _ShardedExecutor(workers, ion_charge)
        return _run_generations(
            executor,
            _initial_population(spec),
            WalkerRngPool(spec.seed),
            params,
            n_generations,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume=resume,
            guard=guard,
        )
