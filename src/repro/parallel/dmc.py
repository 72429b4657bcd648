"""Sharded DMC: propagation in worker processes, branching in the parent.

The DMC generation loop splits naturally at the paper's three stages:
drift-diffusion and measurement touch only per-walker state (workers),
while branching and population control are global decisions (parent).
This driver keeps the *authoritative* population in the parent as plain
arrays — positions, exact RNG bit-generator states, last local energy —
and ships each generation's shard to persistent workers that hold the
heavy wavefunction machinery (shared coefficient table, Slater-Jastrow
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
and the generation replays bit-identically.  The generation loop is
therefore factored over an **executor** protocol: the plain
:class:`_PoolExecutor` here (contiguous shards, bare pool) and the
supervised, elastic, rebalancing executor in :mod:`repro.fleet.dmc`
run the *same* loop and produce the same traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.coeffs import pad_table_3d
from repro.lattice.cell import Cell
from repro.obs import OBS
from repro.parallel.crowd import CrowdSpec, build_walker_range, solve_spec_table
from repro.parallel.pool import ProcessCrowdPool
from repro.parallel.sharding import shard_slices, walker_rng
from repro.parallel.shared_table import SharedTable
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.dmc import DmcResult
from repro.qmc.estimators import LocalEnergy
from repro.qmc.particleset import ParticleSet
from repro.qmc.rng import WalkerRngPool
from repro.resilience.checkpoint import (
    CheckpointError,
    has_checkpoint,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from repro.resilience.guards import GuardConfig, GuardViolation, PopulationGuard

__all__ = ["run_dmc_sharded"]

_CHECKPOINT_KIND = "dmc-sharded"


@dataclass
class _WalkerState:
    """The parent's authoritative view of one walker: arrays, no objects.

    ``home`` is the walker's current shard assignment — pure scheduling
    state used by the fleet executor's rebalancer.  It is deliberately
    excluded from :meth:`task` and from checkpoints: the physics is a
    function of the task triple only, which is what keeps traces
    identical across worker counts, rebalances and restarts.
    """

    positions: np.ndarray
    ion_positions: np.ndarray
    rng_state: dict
    e_local: float = 0.0
    home: int = -1

    def clone(self, rng: np.random.Generator) -> "_WalkerState":
        """Branching copy: same configuration, fresh stream (pool-drawn)."""
        return _WalkerState(
            positions=self.positions.copy(),
            ion_positions=self.ion_positions.copy(),
            rng_state=rng_state(rng),
            e_local=self.e_local,
            home=self.home,
        )

    def task(self) -> dict:
        return {
            "positions": self.positions,
            "ion_positions": self.ion_positions,
            "rng_state": self.rng_state,
        }


class _DmcShard:
    """Worker-process state: attached table + reusable wavefunction templates.

    Templates are grown on demand (branching can push a shard past its
    initial size); each task loads its positions into template ``i``,
    recomputes, and propagates — the template never carries state between
    generations.
    """

    def __init__(self, worker_id: int, spec: CrowdSpec, table_spec: dict):
        self._spec = spec
        self._table = SharedTable.attach(table_spec)
        # Template 0 doubles as the structural prototype; templates use a
        # fixed arbitrary configuration stream (walker 0's) — every task
        # overwrites positions before any physics runs.
        self._wfs, _ = build_walker_range(spec, self._table.array, 0, 1)
        # Every template shares template 0's orbital set so the shard's
        # tasks form ONE crowd for the batched step (walkers only batch
        # together when they share the orbital-set object).
        self._spos = self._wfs[0].slater.spos

    def _template(self, i: int):
        while len(self._wfs) <= i:
            wfs, _ = build_walker_range(
                self._spec, self._table.array, 0, 1, spos=self._spos
            )
            self._wfs.append(wfs[0])
        return self._wfs[i]

    def _load(self, i: int, task: dict):
        wf = self._template(i)
        wf.electrons.load_positions(task["positions"], wrap=False)
        wf.ions.load_positions(task["ion_positions"], wrap=False)
        wf.recompute()
        return wf

    def measure(self, tasks: list[dict], ion_charge: float) -> list[float]:
        """Local energy of each task's configuration (no RNG consumed)."""
        return [
            float(LocalEnergy(self._load(i, t), ion_charge).total())
            for i, t in enumerate(tasks)
        ]

    def propagate(
        self, tasks: list[dict], tau: float, ion_charge: float
    ) -> list[dict]:
        """One drift-diffusion sweep + measurement per task.

        Loads every task into its template and advances the whole shard
        through the batched population kernels (one crowd — all
        templates share one orbital set), then measures in task order;
        measurement consumes no RNG, so each task's result is bitwise
        independent of which shard carried it.
        """
        if not tasks:
            return []
        t0 = time.perf_counter()
        wfs = [self._load(i, t) for i, t in enumerate(tasks)]
        rngs = [restore_rng(t["rng_state"]) for t in tasks]
        state = CrowdState(wfs, rngs)
        batched_sweep(state, tau)
        out = [
            {
                "positions": wf.electrons.positions.copy(),
                "rng_state": rng_state(rngs[i]),
                "e_local": float(LocalEnergy(wf, ion_charge).total()),
                "accepted": int(state.accepts[i]),
                "attempted": state.n_electrons,
            }
            for i, wf in enumerate(wfs)
        ]
        if OBS.enabled:
            OBS.count("dmc_shard_walkers_propagated_total", len(tasks))
            OBS.observe("dmc_shard_propagate_seconds", time.perf_counter() - t0)
        return out

    def close(self) -> None:
        self._wfs = None
        try:
            self._table.close()
        except BufferError:
            pass


def _init_dmc_shard(worker_id: int, spec: CrowdSpec, table_spec: dict):
    return _DmcShard(worker_id, spec, table_spec)


class _LocalDmcShard(_DmcShard):
    """A :class:`_DmcShard` living in the parent over a plain table.

    The orbital-split executor holds the whole population here; the
    heavy kernels underneath are fanned across processes by the
    injected :class:`~repro.parallel.orbital.OrbitalEvaluator`, so this
    shard never needs a shared-memory attachment of its own.
    """

    def __init__(self, spec: CrowdSpec, table: np.ndarray):
        self._spec = spec
        self._array = table
        self._wfs, _ = build_walker_range(spec, table, 0, 1)
        self._spos = self._wfs[0].slater.spos

    def _template(self, i: int):
        while len(self._wfs) <= i:
            wfs, _ = build_walker_range(
                self._spec, self._array, 0, 1, spos=self._spos
            )
            self._wfs.append(wfs[0])
        return self._wfs[i]

    def close(self) -> None:
        self._wfs = None


class _OrbitalExecutor:
    """Opt C executor: population in the parent, kernels fanned.

    Trace-affecting work is identical to the pool executors — the same
    ``measure``/``propagate`` physics over the same task triples, just
    computed through orbital-block fan-out (bit-gated, so bit-identical
    to any walker sharding).  ``summary()`` surfaces the split and, when
    supervised, the fleet recovery counters.
    """

    def __init__(self, shard: _LocalDmcShard, fanned, n_workers: int):
        self._shard = shard
        self._fanned = fanned
        self._n_workers = n_workers

    def measure(self, states: list[_WalkerState], ion_charge: float) -> list[float]:
        return self._shard.measure([s.task() for s in states], ion_charge)

    def propagate(
        self, states: list[_WalkerState], gen: int, tau: float, ion_charge: float
    ) -> list[dict]:
        return self._shard.propagate([s.task() for s in states], tau, ion_charge)

    def generation_end(
        self, gen: int, states: list[_WalkerState], seconds: float
    ) -> None:
        pass

    def finish(self) -> None:
        self._shard.close()

    def summary(self) -> dict | None:
        out = {
            "split": "orbitals",
            "orbital_shards": self._fanned.n_blocks,
            "n_workers": self._n_workers,
        }
        fleet = self._fanned.fleet
        if fleet is not None:
            out.update(fleet)
        return out


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
                rng_state=rng_state(walker_rng(spec.seed, w, stream=1)),
            )
        )
    return states


def _scatter(pool: ProcessCrowdPool, states: list[_WalkerState], method: str, *args):
    """Shard ``states`` contiguously, run ``method`` on each shard, and
    gather results back in walker order."""
    slices = shard_slices(len(states), pool.n_workers)
    per_worker = [([s.task() for s in states[sl.start : sl.stop]], *args) for sl in slices]
    shards = pool.call(method, per_worker)
    merged = []
    for shard in shards:
        merged.extend(shard)
    return merged


class _PoolExecutor:
    """The plain executor: contiguous shards over an unsupervised pool."""

    def __init__(self, pool: ProcessCrowdPool):
        self._pool = pool

    def measure(self, states: list[_WalkerState], ion_charge: float) -> list[float]:
        return _scatter(self._pool, states, "measure", ion_charge)

    def propagate(
        self, states: list[_WalkerState], gen: int, tau: float, ion_charge: float
    ) -> list[dict]:
        return _scatter(self._pool, states, "propagate", tau, ion_charge)

    def generation_end(
        self, gen: int, states: list[_WalkerState], seconds: float
    ) -> None:
        pass

    def finish(self) -> None:
        self._pool.merge_metrics()

    def summary(self) -> dict | None:
        return None


def _run_dmc_loop(
    executor,
    spec: CrowdSpec,
    *,
    n_generations: int,
    tau: float,
    target_population: int | None,
    feedback: float,
    max_population_factor: int,
    ion_charge: float,
    checkpoint_every: int | None,
    checkpoint_path,
    resume,
    guard: GuardConfig | None,
) -> DmcResult:
    """The shared DMC generation loop, parameterized by an executor.

    The executor provides ``measure(states, ion_charge)``,
    ``propagate(states, gen, tau, ion_charge)`` (results in global
    walker order), ``generation_end(gen, states, seconds)`` (scheduling
    hook — heartbeats, autoscaling), ``finish()`` and ``summary()``.
    Everything trace-affecting lives *here*, which is why the plain and
    the supervised executors are bit-identical by construction.

    ``resume="auto"`` resumes from ``checkpoint_path`` when a complete
    checkpoint exists there and starts fresh otherwise — the idiom for
    restart-in-a-loop deployments.
    """
    if n_generations <= 0:
        raise ValueError(f"n_generations must be positive, got {n_generations}")
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
    if isinstance(resume, str) and resume == "auto":
        if checkpoint_path is None:
            raise ValueError("resume='auto' requires checkpoint_path")
        resume = checkpoint_path if has_checkpoint(checkpoint_path) else None
    target = target_population or spec.n_walkers
    params = {
        "tau": tau,
        "target_population": target,
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
    energy_policy = guard.on_nonfinite_energy if guard is not None else "ignore"
    pop_guard = PopulationGuard(target, max_population_factor)
    clone_pool = WalkerRngPool(spec.seed)
    dropped = 0

    def keep(e_local: float) -> bool:
        """Apply the non-finite-energy policy; True keeps the walker."""
        nonlocal dropped
        if np.isfinite(e_local) or energy_policy == "ignore":
            return True
        OBS.count("guard_trips_total", kind="nonfinite_energy", driver="dmc-sharded")
        OBS.event("guard:nonfinite_energy", cat="guard", driver="dmc-sharded")
        if energy_policy == "raise":
            raise GuardViolation(
                f"non-finite local energy {e_local!r} "
                f"(policy 'raise'; use 'drop' to continue)"
            )
        dropped += 1  # "drop" and "recompute" (see run_dmc_sharded docstring)
        return False

    if resume is not None:
        ckpt = load_checkpoint(resume, expect_kind=_CHECKPOINT_KIND)
        saved = ckpt.manifest["params"]
        for key in params:
            if saved.get(key) != params[key]:
                raise CheckpointError(
                    f"checkpoint parameter mismatch for {key!r}: "
                    f"saved {saved.get(key)!r}, requested {params[key]!r}"
                )
        n_saved = int(ckpt.manifest["n_walkers"])
        states = [
            _WalkerState(
                positions=ckpt.arrays["positions"][i].copy(),
                ion_positions=ckpt.arrays["ion_positions"][i].copy(),
                rng_state=ckpt.manifest["walker_rng_states"][i],
                e_local=float(ckpt.arrays["e_local"][i]),
            )
            for i in range(n_saved)
        ]
        clone_pool = WalkerRngPool.from_state(ckpt.manifest["pool_state"])
        start_gen = int(ckpt.manifest["generation"])
        e_trial = float(ckpt.arrays["e_trial"])
        accepted = int(ckpt.manifest["accepted"])
        attempted = int(ckpt.manifest["attempted"])
        energy_trace = list(ckpt.arrays["energy_trace"])
        pop_trace = [int(p) for p in ckpt.arrays["population_trace"]]
        et_trace = list(ckpt.arrays["e_trial_trace"])
    else:
        states = _initial_population(spec)
        energies = executor.measure(states, ion_charge)
        healthy = []
        for s, e in zip(states, energies):
            s.e_local = e
            if keep(e):
                healthy.append(s)
        if not healthy:
            raise GuardViolation("no walker with finite local energy at start")
        states = healthy
        e_trial = float(np.mean([s.e_local for s in states]))
        start_gen = 0
        accepted = attempted = 0
        energy_trace, pop_trace, et_trace = [], [], []

    for gen in range(start_gen, n_generations):
        t_gen = time.perf_counter()
        results = executor.propagate(states, gen, tau, ion_charge)
        weights: list[float | None] = []
        for s, r in zip(states, results):
            e_old = s.e_local
            s.positions = r["positions"]
            s.rng_state = r["rng_state"]
            s.e_local = r["e_local"]
            accepted += r["accepted"]
            attempted += r["attempted"]
            if not keep(s.e_local):
                weights.append(None)
                continue
            weights.append(
                float(np.exp(-tau * (0.5 * (s.e_local + e_old) - e_trial)))
            )
        new_states: list[_WalkerState] = []
        cap = pop_guard.cap
        for s, wt in zip(states, weights):
            if wt is None:
                continue
            # The branching uniform comes from the walker's own
            # stream (as in run_dmc), restored parent-side.
            rng = restore_rng(s.rng_state)
            n_copies = int(wt + rng.random())
            s.rng_state = rng_state(rng)
            for c in range(n_copies):
                if len(new_states) >= cap:
                    break
                if c == 0:
                    new_states.append(s)
                else:
                    new_states.append(s.clone(clone_pool.next_rng()))
                    OBS.count("dmc_branch_clones_total")
        states = pop_guard.enforce(new_states, states, clone_pool)
        e_est = float(np.mean([s.e_local for s in states]))
        e_trial = e_est - feedback * np.log(len(states) / target)
        energy_trace.append(e_est)
        pop_trace.append(len(states))
        et_trace.append(e_trial)
        dt = time.perf_counter() - t_gen
        if OBS.enabled:
            OBS.count("dmc_generations_total")
            OBS.observe("dmc_generation_seconds", dt)
            OBS.gauge("dmc_population", len(states))
            OBS.gauge("dmc_e_trial", e_trial)
            OBS.complete(
                "dmc:generation",
                t_gen,
                dt,
                cat="qmc",
                generation=gen,
                population=len(states),
            )
        if checkpoint_every is not None and (gen + 1) % checkpoint_every == 0:
            save_checkpoint(
                checkpoint_path,
                {
                    "kind": _CHECKPOINT_KIND,
                    "generation": gen + 1,
                    "accepted": accepted,
                    "attempted": attempted,
                    "n_walkers": len(states),
                    "pool_state": clone_pool.state,
                    "walker_rng_states": [s.rng_state for s in states],
                    "params": params,
                },
                {
                    "positions": np.stack([s.positions for s in states]),
                    "ion_positions": np.stack(
                        [s.ion_positions for s in states]
                    ),
                    "e_local": np.asarray(
                        [s.e_local for s in states], dtype=np.float64
                    ),
                    "e_trial": np.asarray(e_trial, dtype=np.float64),
                    "energy_trace": np.asarray(energy_trace, dtype=np.float64),
                    "population_trace": np.asarray(pop_trace, dtype=np.int64),
                    "e_trial_trace": np.asarray(et_trace, dtype=np.float64),
                },
            )
        # Scheduling hook (heartbeats, rebalance accounting, autoscale)
        # runs after all trace-affecting work for the generation.
        executor.generation_end(gen, states, dt)
    executor.finish()
    return DmcResult(
        energy_trace=np.asarray(energy_trace),
        population_trace=np.asarray(pop_trace),
        e_trial_trace=np.asarray(et_trace),
        acceptance=accepted / max(attempted, 1),
        rescues=pop_guard.rescues,
        truncations=pop_guard.truncations,
        dropped_walkers=dropped,
        fleet=executor.summary(),
    )


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
    split: str = "walkers",
    orbital_shards: int | None = None,
) -> DmcResult:
    """Run DMC with propagation sharded over ``n_workers`` processes.

    ``split`` selects the sharded axis (see
    :func:`~repro.parallel.crowd.run_crowd_parallel`): under
    ``"orbitals"`` the authoritative population *and* the propagation
    loop stay in the parent, and each generation's batched kernel calls
    are fanned across the pool along the spline axis — bit-identical to
    the walker split (``DmcResult.fleet`` then reports the split and,
    when supervised, the recovery counters; orbital shards are
    stateless replicas, so there is no walker rebalancing to report).

    Parameters mirror :func:`repro.qmc.dmc.run_dmc` where they overlap;
    the ensemble itself is described by ``spec`` (the parent builds the
    initial population deterministically from per-walker streams).
    The worker count is deliberately not part of the checkpoint
    contract.  ``resume="auto"`` resumes from ``checkpoint_path`` if a
    checkpoint exists there, else starts fresh.

    Passing a :class:`repro.fleet.FleetConfig` as ``fleet`` delegates to
    :func:`repro.fleet.run_dmc_supervised`: the same loop under a
    supervisor with crash/hang recovery, optional elastic scaling and
    shard rebalancing — still bit-identical.  ``injector`` (a
    :class:`~repro.resilience.faults.FaultInjector` carrying process
    faults) requires ``fleet``.

    Guard policy note: workers recompute derived state before every
    sweep, so the ``"recompute"`` non-finite-energy policy has nothing
    further to rebuild — it behaves like ``"drop"`` here.  ``"raise"``
    and ``"ignore"`` behave as in ``run_dmc``.

    Returns the same :class:`~repro.qmc.dmc.DmcResult` shape as the
    sequential driver.
    """
    if split != "walkers" or orbital_shards is not None:
        from repro.parallel.orbital import OrbitalEvaluator, resolve_split

        mode, shards = resolve_split(
            spec.n_walkers,
            n_workers,
            spec.n_orbitals,
            split=split,
            orbital_shards=orbital_shards,
            config=spec.run_config(),
        )
        if mode == "orbitals":
            if injector is not None:
                raise ValueError(
                    "fault injectors target walker shards; orbital replicas "
                    "take faults via OrbitalEvaluator.arm_fault instead"
                )
            table = solve_spec_table(spec)
            spec = spec.resolved(table.dtype)
            shard = _LocalDmcShard(spec, table)
            fanned = OrbitalEvaluator(
                shard._spos.grid,
                shard._spos.engine.P,
                config=spec.config,
                processes=n_workers,
                orbital_shards=shards,
                supervise=fleet is not None,
                fleet_config=fleet,
                start_method=start_method,
            )
            shard._spos._batched = fanned
            try:
                return _run_dmc_loop(
                    _OrbitalExecutor(shard, fanned, n_workers),
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
                fanned.close()
    if fleet is not None:
        from repro.fleet.dmc import run_dmc_supervised

        return run_dmc_supervised(
            spec,
            n_workers=n_workers,
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
            start_method=start_method,
            fleet=fleet,
            injector=injector,
        )
    if injector is not None:
        raise ValueError(
            "injector requires fleet supervision (pass fleet=FleetConfig(...))"
        )
    table = solve_spec_table(spec)
    # Pad in the parent so every worker attaches the ghost halo
    # zero-copy (build_walker_range detects the padded shape).
    shared = SharedTable.create(pad_table_3d(table))
    table_spec = dict(shared.spec, n_workers=n_workers)
    try:
        with ProcessCrowdPool(
            n_workers,
            _init_dmc_shard,
            (spec, table_spec),
            start_method=start_method,
        ) as pool:
            return _run_dmc_loop(
                _PoolExecutor(pool),
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
