"""Diffusion Monte Carlo driver with drift-diffusion, measurement, branching.

Paper Sec. III describes the three stages per generation this module
implements: "(i) a drift-diffusion process ... (ii) a measurement stage
... (iii) a branching process" over an ensemble of walkers, each carrying
its own configuration ``R`` and private random stream.

Branching uses the standard integer-copies scheme: a walker with weight
``w = exp(-tau * ((E_L + E_L_old)/2 - E_T))`` produces
``floor(w + u)`` copies (``u`` uniform), and the trial energy ``E_T`` is
steered with a population-control feedback term so the ensemble stays
near its target size.  Each clone receives a *fresh* random stream from
the pool (never a copy of the parent's), keeping streams independent.

Fault tolerance (:mod:`repro.resilience`): the driver can write periodic
checkpoints (walker positions, exact RNG bit-generator states, traces)
and resume from one such that the continued run reproduces the
uninterrupted energy/population traces **bit-for-bit**; a
:class:`~repro.resilience.guards.GuardConfig` turns NaN/Inf local
energies into a policy (raise / recompute / drop-and-rebranch) instead
of silent trace poison; and population collapse or explosion is rescued
toward the target by a
:class:`~repro.resilience.guards.PopulationGuard`.

The generation loop itself (:func:`_run_generations`) is shared with
:func:`repro.parallel.run_dmc_sharded`: it is generic over an
*executor* that owns the walker representation — live wavefunctions
here, parent-side arrays shipped to worker processes there — so
branching, population control, guards and checkpoints are written once.

Bit-for-bit note: taking a checkpoint calls ``recompute()`` on every
walker (so the in-memory derived state equals what a restore rebuilds
from positions).  Runs compared for reproducibility must therefore share
the same ``checkpoint_every`` cadence — which is exactly how a
production restart compares against its own uninterrupted twin.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import OBS
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.estimators import CrowdLocalEnergy, LocalEnergy
from repro.qmc.rng import WalkerRngPool
from repro.qmc.wavefunction import SlaterJastrow
from repro.resilience.checkpoint import (
    CheckpointError,
    has_checkpoint,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from repro.resilience.guards import GuardConfig, GuardViolation, PopulationGuard

__all__ = ["DmcWalker", "DmcResult", "run_dmc", "build_dmc_ensemble"]


@dataclass
class DmcWalker:
    """One DMC walker: wavefunction state + stream + bookkeeping.

    ``committed_vgl`` is the walker's own copy of its crowd's resident
    orbital block ``(g (ne, 3, N), lap (ne, N))`` at its current
    positions: the block the last sweep kept current and the crowd
    measurement read, and the next generation's drift cache.
    :func:`run_dmc` sets it after measuring and the next generation's
    crowd takes it over; a run never takes one it did not set itself.
    """

    wf: SlaterJastrow
    rng: np.random.Generator
    e_local: float = 0.0
    committed_vgl: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def clone(self, rng: np.random.Generator) -> "DmcWalker":
        """A branching copy: same configuration, fresh random stream.

        The clone gets its own mutable state (particles, tables,
        determinant inverses: the deep copy turns views of a crowd's
        rows into independent arrays) but *shares* the parent's orbital
        set —
        the read-only coefficient table every walker in the ensemble
        reads.  Sharing keeps branching O(walker state) instead of
        O(spline table) and keeps the whole ensemble in one crowd for
        the batched population step.  It also shares the (read-only)
        ``committed_vgl``: same positions, same orbitals.
        """
        spos = self.wf.slater.spos
        wf_new = copy.deepcopy(self.wf, {id(spos): spos})
        return DmcWalker(
            wf=wf_new,
            rng=rng,
            e_local=self.e_local,
            committed_vgl=self.committed_vgl,
        )


@dataclass
class DmcResult:
    """Outcome of a DMC run.

    Attributes
    ----------
    energy_trace:
        Population-averaged local energy per generation.
    population_trace:
        Walker count per generation.
    e_trial_trace:
        The steered trial energy per generation.
    acceptance:
        Overall move acceptance.
    rescues, truncations:
        Population-guard interventions (collapse rescues / explosion
        truncations) over the run — nonzero means the run needed help.
    dropped_walkers:
        Walkers discarded by the non-finite-energy ``"drop"`` policy.
    fleet:
        Execution report of :func:`repro.parallel.run_dmc_sharded`: the
        supervision outcome under ``fleet=`` (restart and scale counts,
        MTTR samples, final worker count, event list); ``None``
        otherwise.
    """

    energy_trace: np.ndarray
    population_trace: np.ndarray
    e_trial_trace: np.ndarray
    acceptance: float
    rescues: int = field(default=0)
    truncations: int = field(default=0)
    dropped_walkers: int = field(default=0)
    fleet: dict | None = field(default=None)

    @property
    def energy_mean(self) -> float:
        """Mean of the second half of the energy trace (post-equilibration)."""
        half = len(self.energy_trace) // 2
        return float(np.mean(self.energy_trace[half:]))


def _crowd_groups(walkers: list[DmcWalker]) -> list[list[int]]:
    """Partition an ensemble into crowds that can step batched together.

    Walkers sharing one orbital-set object, electron count, Jastrow
    structure, table layout and ion count form one lock-step group; each
    group lists its walkers' indices in ensemble order (streams are
    private, so cross-group order is free).  Branching clones share their
    parent's orbital set, so a standard ensemble stays a single crowd for
    its whole life.
    """
    groups: dict[tuple, list[int]] = {}
    for i, w in enumerate(walkers):
        wf = w.wf
        key = (
            id(wf.slater.spos),
            len(wf.electrons),
            wf.j1 is not None,
            wf.j2 is not None,
            wf.ee_table.layout,
            len(wf.ions),
        )
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _take_committed_vgl(group: list[DmcWalker]):
    """The group's ``committed_vgl`` copies stacked for its crowd, or
    ``None`` unless every walker carries one.  The walkers' copies are
    cleared either way: the crowd moves next."""
    cached = [w.committed_vgl for w in group]
    for w in group:
        w.committed_vgl = None
    if any(c is None for c in cached):
        return None
    return (
        np.stack([g for g, _ in cached]),
        np.stack([lap for _, lap in cached]),
    )


class _LiveExecutor:
    """:func:`run_dmc`'s executor: live wavefunctions in this process.

    Walkers keep their derived state between generations; only a
    checkpoint (:meth:`snapshot`) or a ``"recompute"`` guard trip
    rebuilds it.  Each generation's crowds adopt their walkers: a crowd
    copies its walkers' state into its stacked rows and rebinds their
    arrays to views of them, and the previous generation's rows are
    freed once no walker views them.  By default each crowd is measured
    in one batched pass (:class:`~repro.qmc.estimators.CrowdLocalEnergy`)
    right after its sweep — the initial measurement on the loop's first
    ask — and every walker keeps a copy of its row of the crowd's
    resident ``committed_vgl``, which branching hands to clones and the
    next generation's crowd takes over, so after the initial
    measurement no crowd evaluates the block again.  With an ``estimator_factory`` each
    walker is measured alone, when the loop asks, in walker order.
    """

    kind = "dmc"

    def __init__(self, ion_charge: float, estimator_factory=None):
        self._ion_charge = ion_charge
        self._factory = estimator_factory
        self._energies: list[float] | None = None

    def _crowds(self, walkers: list[DmcWalker], handover: bool):
        """``(indices, CrowdState)`` per lock-step group.  With ``handover``
        a group whose every walker carries a ``committed_vgl`` starts
        from it."""
        for idx in _crowd_groups(walkers):
            group = [walkers[i] for i in idx]
            vgl = _take_committed_vgl(group) if handover else None
            state = CrowdState(
                [w.wf for w in group], [w.rng for w in group], committed_vgl=vgl
            )
            yield idx, state

    def _measure(self, walkers: list[DmcWalker], idx: list[int], state) -> None:
        energies = CrowdLocalEnergy(state, self._ion_charge).total()
        g, lap = state.committed_vgl()
        for w, i in enumerate(idx):
            self._energies[i] = float(energies[w])
            # Copies, not views: a view would pin the crowd's whole block.
            walkers[i].committed_vgl = (g[w].copy(), lap[w].copy())

    def energy(self, walkers: list[DmcWalker], i: int) -> float:
        if self._factory is not None:
            return self._factory(walkers[i]).total()
        if self._energies is None:
            # The initial measurement.  It trusts no committed_vgl the
            # walkers bring: they may have moved since it was measured.
            self._energies = [0.0] * len(walkers)
            for idx, state in self._crowds(walkers, handover=False):
                self._measure(walkers, idx, state)
        return self._energies[i]

    def remeasure(self, walkers: list[DmcWalker], i: int) -> float:
        # Rebuild derived state (a drifted inverse is the usual culprit)
        # and re-measure once, alone, through a fresh estimator.
        wf = walkers[i].wf
        wf.recompute()
        if self._factory is not None:
            return self._factory(walkers[i]).total()
        return LocalEnergy(wf, self._ion_charge).total()

    def propagate(
        self, walkers: list[DmcWalker], gen: int, tau: float
    ) -> tuple[int, int]:
        # Each shared-orbital-set group advances in lock step; since every
        # walker consumes only its private stream, the result is
        # bit-identical to sweeping walkers one at a time.
        accepted = attempted = 0
        measured = self._factory is None
        if measured:
            self._energies = [0.0] * len(walkers)
        # Only this run's own measurements leave a committed_vgl to take.
        for idx, state in self._crowds(walkers, handover=measured):
            acc, att = batched_sweep(state, tau)
            accepted += acc
            attempted += att
            if measured:
                self._measure(walkers, idx, state)
        return accepted, attempted

    def snapshot(self, walkers: list[DmcWalker]) -> tuple[np.ndarray, np.ndarray]:
        # Recompute first so the continuing run and a future restore share
        # identical derived state (the bit-for-bit contract).
        for w in walkers:
            w.wf.recompute()
        return (
            np.stack([w.wf.electrons.positions for w in walkers]),
            # Branching clones inherit their parent's ion configuration,
            # so a restore cannot assume template walker i still matches
            # saved walker i: ion positions are part of the snapshot.
            np.stack([w.wf.ions.positions for w in walkers]),
        )

    def restore(
        self, templates: list[DmcWalker], positions, ion_positions, rngs, e_locals
    ) -> list[DmcWalker]:
        """Load the saved configurations into the templates' wavefunctions
        (table, cell, Jastrows); extra walkers copy template 0's."""
        restored = []
        for i, (pos, ions, rng, e) in enumerate(
            zip(positions, ion_positions, rngs, e_locals)
        ):
            if i < len(templates):
                wf = templates[i].wf
            else:
                # Extra walkers share the template's orbital set
                # (read-only), like branching clones do.
                spos = templates[0].wf.slater.spos
                wf = copy.deepcopy(templates[0].wf, {id(spos): spos})
            try:
                wf.electrons.load_positions(pos, wrap=False)
                wf.ions.load_positions(ions, wrap=False)
            except ValueError as exc:
                raise CheckpointError(
                    f"template walker {i} does not match checkpoint shape: {exc}"
                ) from exc
            wf.recompute()
            restored.append(DmcWalker(wf=wf, rng=rng, e_local=float(e)))
        return restored

    def generation_end(self, gen: int, walkers: list, seconds: float) -> None:
        pass

    def finish(self) -> None:
        pass

    def summary(self) -> None:
        return None


def _branch(walkers: list, weights: list, cap: int, pool: WalkerRngPool) -> list:
    """Integer copies ``floor(w + u)`` of each kept walker, up to ``cap``.

    ``u`` comes from the walker's own stream; the first copy is the
    walker itself, the others are clones with fresh streams from
    ``pool``.  A weight of ``None`` (a dropped walker) makes no copies.
    """
    new_walkers: list = []
    for w, wt in zip(walkers, weights):
        if wt is None:
            continue
        n_copies = int(wt + w.rng.random())
        for c in range(n_copies):
            if len(new_walkers) >= cap:
                break
            if c == 0:
                new_walkers.append(w)
            else:
                new_walkers.append(w.clone(pool.next_rng()))
                OBS.count("dmc_branch_clones_total")
    return new_walkers


def _check_run_args(
    n_generations: int, checkpoint_every: int | None, checkpoint_path, resume
):
    """Validate the generation loop's run arguments; returns ``resume``
    with ``"auto"`` resolved (to ``checkpoint_path`` when a complete
    checkpoint exists there, else ``None``).

    :func:`_run_generations` calls this, and so does every driver that
    must reject bad input before it pays for a table or a pool.
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
    return resume


def _run_generations(
    executor,
    walkers: list,
    pool: WalkerRngPool,
    params: dict,
    n_generations: int,
    *,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
    guard: GuardConfig | None = None,
    on_generation=None,
) -> DmcResult:
    """The DMC generation loop, over any walker representation.

    Everything that shapes the traces happens here: the initial
    measurement and its non-finite-energy guard, branching weights and
    ``floor(w + u)`` copies (``u`` from the walker's own stream, clones
    from ``pool``), population control, trial-energy feedback,
    checkpoint write and resume.  ``walkers`` is the live ensemble,
    mutated in place; a walker is anything with ``rng``, ``e_local`` and
    ``clone(rng)``.  ``params`` holds the physics a checkpoint must
    match (``tau``, ``target_population``, ``feedback``,
    ``max_population_factor``, ``ion_charge``, plus whatever else the
    caller pins).

    The ``executor`` owns the representation and supplies the rest:
    ``kind`` (the checkpoint kind), ``energy(walkers, i)``,
    ``remeasure(walkers, i)`` for the ``"recompute"`` policy (``None``
    when there is nothing to rebuild: the walker is then dropped),
    ``propagate(walkers, gen, tau) -> (accepted, attempted)``,
    ``snapshot(walkers) -> (positions, ion_positions)``,
    ``restore(walkers, positions, ion_positions, rngs, e_locals)`` and
    the scheduling hooks ``generation_end(gen, walkers, seconds)``,
    ``finish()`` and ``summary()`` (which becomes ``DmcResult.fleet``).

    ``resume="auto"`` resumes from ``checkpoint_path`` when a complete
    checkpoint exists there and starts fresh otherwise.
    """
    resume = _check_run_args(
        n_generations, checkpoint_every, checkpoint_path, resume
    )
    tau = params["tau"]
    target = params["target_population"]
    feedback = params["feedback"]
    pop_guard = PopulationGuard(target, params["max_population_factor"])
    energy_policy = guard.on_nonfinite_energy if guard is not None else "ignore"
    dropped = 0

    def measure(i: int) -> bool:
        """Measure walker ``i``; returns False if it must be dropped."""
        nonlocal dropped
        w = walkers[i]
        w.e_local = executor.energy(walkers, i)
        if np.isfinite(w.e_local) or energy_policy == "ignore":
            return True
        OBS.count("guard_trips_total", kind="nonfinite_energy", driver=executor.kind)
        OBS.event("guard:nonfinite_energy", cat="guard", driver=executor.kind)
        if energy_policy == "recompute":
            e_local = executor.remeasure(walkers, i)
            if e_local is not None:
                w.e_local = e_local
                if np.isfinite(e_local):
                    return True
        if energy_policy == "raise":
            raise GuardViolation(
                f"non-finite local energy {w.e_local!r} "
                f"(policy 'raise'; use 'drop' or 'recompute' to continue)"
            )
        dropped += 1
        return False

    if resume is not None:
        ckpt = load_checkpoint(resume, expect_kind=executor.kind)
        saved = ckpt.manifest["params"]
        for key in params:
            if saved.get(key) != params[key]:
                raise CheckpointError(
                    f"checkpoint parameter mismatch for {key!r}: "
                    f"saved {saved.get(key)!r}, requested {params[key]!r}"
                )
        walkers[:] = executor.restore(
            walkers,
            ckpt.arrays["positions"],
            ckpt.arrays["ion_positions"],
            [restore_rng(s) for s in ckpt.manifest["walker_rng_states"]],
            ckpt.arrays["e_local"],
        )
        pool = WalkerRngPool.from_state(ckpt.manifest["pool_state"])
        start_gen = int(ckpt.manifest["generation"])
        e_trial = float(ckpt.arrays["e_trial"])
        accepted = int(ckpt.manifest["accepted"])
        attempted = int(ckpt.manifest["attempted"])
        energy_trace = list(ckpt.arrays["energy_trace"])
        pop_trace = [int(p) for p in ckpt.arrays["population_trace"]]
        et_trace = list(ckpt.arrays["e_trial_trace"])
    else:
        start_gen = accepted = attempted = 0
        energy_trace, pop_trace, et_trace = [], [], []
        # Keep flags, not walkers: a list of the initial walkers bound
        # here would pin every one branching later drops for the whole run.
        keep = [measure(i) for i in range(len(walkers))]
        if not any(keep):
            raise GuardViolation("no walker with finite local energy at start")
        walkers[:] = [w for w, k in zip(walkers, keep) if k]
        e_trial = float(np.mean([w.e_local for w in walkers]))

    for gen in range(start_gen, n_generations):
        t_gen = time.perf_counter()
        # (i) drift-diffusion propagation.
        acc, att = executor.propagate(walkers, gen, tau)
        accepted += acc
        attempted += att
        # (ii) measurement, in walker order; the branching weight comes
        # from the symmetrized local energy (None: dropped, no copies).
        weights: list[float | None] = []
        for i in range(len(walkers)):
            e_old = walkers[i].e_local
            keep = measure(i)
            weights.append(
                np.exp(-tau * (0.5 * (walkers[i].e_local + e_old) - e_trial))
                if keep
                else None
            )
        # (iii) branching: integer copies floor(w + u).
        walkers[:] = pop_guard.enforce(
            _branch(walkers, weights, pop_guard.cap, pool), walkers, pool
        )
        e_est = float(np.mean([w.e_local for w in walkers]))
        # Population-control feedback on the trial energy.
        e_trial = e_est - feedback * np.log(len(walkers) / target)
        energy_trace.append(e_est)
        pop_trace.append(len(walkers))
        et_trace.append(e_trial)
        dt = time.perf_counter() - t_gen
        if OBS.enabled:
            OBS.count("dmc_generations_total")
            OBS.observe("dmc_generation_seconds", dt)
            OBS.gauge("dmc_population", len(walkers))
            OBS.gauge("dmc_e_trial", e_trial)
            OBS.complete(
                "dmc:generation",
                t_gen,
                dt,
                cat="qmc",
                generation=gen,
                population=len(walkers),
            )
        if checkpoint_every is not None and (gen + 1) % checkpoint_every == 0:
            positions, ion_positions = executor.snapshot(walkers)
            save_checkpoint(
                checkpoint_path,
                {
                    "kind": executor.kind,
                    "generation": gen + 1,
                    "accepted": accepted,
                    "attempted": attempted,
                    "n_walkers": len(walkers),
                    "pool_state": pool.state,
                    "walker_rng_states": [rng_state(w.rng) for w in walkers],
                    "params": params,
                },
                {
                    "positions": positions,
                    "ion_positions": ion_positions,
                    "e_local": np.asarray(
                        [w.e_local for w in walkers], dtype=np.float64
                    ),
                    "e_trial": np.asarray(e_trial, dtype=np.float64),
                    "energy_trace": np.asarray(energy_trace, dtype=np.float64),
                    "population_trace": np.asarray(pop_trace, dtype=np.int64),
                    "e_trial_trace": np.asarray(et_trace, dtype=np.float64),
                },
            )
        # Scheduling (heartbeats, autoscale) runs after all
        # trace-affecting work for the generation.
        executor.generation_end(gen, walkers, dt)
        if on_generation is not None:
            on_generation(gen, walkers)
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


def run_dmc(
    walkers: list[DmcWalker],
    pool: WalkerRngPool,
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
    estimator_factory=None,
    on_generation=None,
) -> DmcResult:
    """Propagate a DMC ensemble; returns traces for analysis.

    Each generation propagates through the batched population step:
    walkers are grouped by shared orbital set and advanced in lock step
    with one kernel call per electron move (:mod:`repro.qmc.batched_step`),
    then each group is measured in one batched pass whose orbital block
    the next sweep reuses as its drift cache.

    Parameters
    ----------
    walkers:
        The initial (ideally VMC-equilibrated) ensemble; mutated in place
        and re-populated by branching.  When resuming, these serve as
        structural templates whose positions/streams are overwritten from
        the checkpoint.
    pool:
        Stream factory for branching clones (replaced by the restored
        pool when resuming).
    n_generations:
        Total DMC generations for the run (including any completed before
        a resume point).
    tau:
        Imaginary time step.
    target_population:
        Population-control target; defaults to the initial count.
    feedback:
        E_T feedback strength kappa in
        ``E_T = E_est - kappa/tau * log(pop / target)`` (classic form,
        scaled mildly here to avoid over-steering small test populations).
    max_population_factor:
        Hard cap on population explosion (run aborts into a truncation
        instead of eating all memory if the trial energy misbehaves).
    ion_charge:
        Valence charge for the local-energy estimator.
    checkpoint_every:
        Write a checkpoint to ``checkpoint_path`` every this many
        generations (and recompute walker state at each save — see the
        module docstring's bit-for-bit note).
    checkpoint_path:
        Checkpoint directory (required with ``checkpoint_every``);
        overwritten atomically at each save.
    resume:
        Path of a checkpoint to continue from; physics parameters must
        match the checkpointed run.  ``"auto"`` resumes from
        ``checkpoint_path`` when a checkpoint exists there and starts
        fresh otherwise.
    guard:
        Non-finite-energy policy
        (:class:`~repro.resilience.guards.GuardConfig`); ``None`` keeps
        the legacy pass-through behavior.
    estimator_factory:
        ``factory(walker) -> estimator`` with a ``total()`` method,
        called once per walker measurement, in walker order.  The
        fault-injection tests use this seam to poison measurements.
        ``None`` (default) measures each crowd in one batched pass
        (:class:`~repro.qmc.estimators.CrowdLocalEnergy`), bitwise equal
        to ``LocalEnergy(w.wf, ion_charge)`` per walker.
    on_generation:
        ``hook(gen, walkers)`` called after each completed generation
        (after any checkpoint write); exceptions propagate, which is how
        the resilience tests simulate a mid-run kill.
    """
    if not walkers:
        raise ValueError("need at least one walker")
    params = {
        "tau": tau,
        "target_population": target_population or len(walkers),
        "feedback": feedback,
        "max_population_factor": max_population_factor,
        "ion_charge": ion_charge,
    }
    return _run_generations(
        _LiveExecutor(ion_charge, estimator_factory),
        walkers,
        pool,
        params,
        n_generations,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume=resume,
        guard=guard,
        on_generation=on_generation,
    )


def build_dmc_ensemble(
    pool: WalkerRngPool,
    n_walkers: int,
    n_orbitals: int = 4,
    box: float = 6.0,
    grid_shape: tuple[int, int, int] = (12, 12, 12),
    engine: str = "fused",
    config=None,
) -> list[DmcWalker]:
    """A small, fully deterministic DMC ensemble (CLI and test harnesses).

    Each walker gets a plane-wave-seeded Slater-Jastrow wavefunction on a
    cubic cell and a private stream from ``pool``.  Two calls with pools
    in the same state build bit-identical ensembles — the property the
    checkpoint/resume CLI relies on to reconstruct walker *structure*
    before loading checkpointed positions into it.  ``config`` (a
    :class:`repro.config.RunConfig`) carries the batched-kernel knobs:
    blocking never changes a trajectory bit, while an allclose-tier
    backend shifts it within its declared tolerance.
    """
    from repro.lattice.cell import Cell
    from repro.lattice.orbitals import PlaneWaveOrbitalSet
    from repro.lattice.pbc import wigner_seitz_radius
    from repro.qmc.jastrow import make_polynomial_radial
    from repro.qmc.particleset import ParticleSet
    from repro.qmc.slater import SplineOrbitalSet

    cell = Cell.cubic(box)
    orbitals = PlaneWaveOrbitalSet(cell, n_orbitals)
    spos = SplineOrbitalSet.from_orbital_functions(
        cell,
        orbitals,
        grid_shape,
        engine=engine,
        dtype=np.float64,
        config=config,
    )
    rcut = 0.9 * wigner_seitz_radius(cell)
    walkers = []
    for _ in range(n_walkers):
        wrng = pool.next_rng()
        ions = ParticleSet("ion", cell, cell.frac_to_cart(wrng.random((2, 3))))
        electrons = ParticleSet.random("e", cell, 2 * n_orbitals, wrng)
        wf = SlaterJastrow(
            electrons,
            ions,
            spos,
            make_polynomial_radial(0.4, rcut),
            make_polynomial_radial(0.6, rcut),
        )
        walkers.append(DmcWalker(wf=wf, rng=pool.next_rng()))
    return walkers
