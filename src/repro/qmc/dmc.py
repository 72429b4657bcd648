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
from repro.qmc.estimators import LocalEnergy
from repro.qmc.rng import WalkerRngPool
from repro.qmc.wavefunction import SlaterJastrow
from repro.resilience.checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from repro.resilience.guards import GuardConfig, GuardViolation, PopulationGuard

__all__ = ["DmcWalker", "DmcResult", "run_dmc", "build_dmc_ensemble"]


@dataclass
class DmcWalker:
    """One DMC walker: wavefunction state + stream + bookkeeping."""

    wf: SlaterJastrow
    rng: np.random.Generator
    e_local: float = 0.0

    def clone(self, rng: np.random.Generator) -> "DmcWalker":
        """A branching copy: same configuration, fresh random stream.

        The clone gets its own mutable state (particles, tables,
        determinant inverses) but *shares* the parent's orbital set —
        the read-only coefficient table every walker in the ensemble
        reads.  Sharing keeps branching O(walker state) instead of
        O(spline table) and keeps the whole ensemble in one crowd for
        the batched population step.
        """
        spos = self.wf.slater.spos
        wf_new = copy.deepcopy(self.wf, {id(spos): spos})
        return DmcWalker(wf=wf_new, rng=rng, e_local=self.e_local)


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
        Supervision outcome when the run was driven by
        :func:`repro.fleet.run_dmc_supervised` (restart/rebalance/scale
        counts, MTTR samples, final worker count); ``None`` otherwise.
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


def _save_dmc_checkpoint(
    path,
    walkers: list[DmcWalker],
    pool: WalkerRngPool,
    generation: int,
    e_trial: float,
    accepted: int,
    attempted: int,
    traces: tuple[list, list, list],
    params: dict,
) -> None:
    """Snapshot the full ensemble state after ``generation`` generations.

    Every walker is ``recompute()``d first so the continuing in-memory
    run and a future restore share identical derived state (the
    bit-for-bit contract).
    """
    for w in walkers:
        w.wf.recompute()
    energy_trace, pop_trace, et_trace = traces
    manifest = {
        "kind": "dmc",
        "generation": generation,
        "accepted": accepted,
        "attempted": attempted,
        "n_walkers": len(walkers),
        "pool_state": pool.state,
        "walker_rng_states": [rng_state(w.rng) for w in walkers],
        "params": params,
    }
    arrays = {
        "positions": np.stack([w.wf.electrons.positions for w in walkers]),
        # Branching clones inherit their parent's ion configuration, so a
        # restore cannot assume template walker i still matches saved
        # walker i — ion positions are part of the snapshot.
        "ion_positions": np.stack([w.wf.ions.positions for w in walkers]),
        "e_local": np.asarray([w.e_local for w in walkers], dtype=np.float64),
        "e_trial": np.asarray(e_trial, dtype=np.float64),
        "energy_trace": np.asarray(energy_trace, dtype=np.float64),
        "population_trace": np.asarray(pop_trace, dtype=np.int64),
        "e_trial_trace": np.asarray(et_trace, dtype=np.float64),
    }
    save_checkpoint(path, manifest, arrays)


def _resume_dmc(
    resume, walkers: list[DmcWalker], params: dict
) -> tuple[list[DmcWalker], WalkerRngPool, int, float, int, int, tuple[list, list, list]]:
    """Rebuild ensemble state from a checkpoint, reusing ``walkers`` as
    templates for wavefunction structure (table, cell, Jastrows)."""
    ckpt = load_checkpoint(resume, expect_kind="dmc")
    saved = ckpt.manifest["params"]
    for key in ("tau", "target_population", "feedback", "max_population_factor", "ion_charge"):
        if saved.get(key) != params.get(key):
            raise CheckpointError(
                f"checkpoint parameter mismatch for {key!r}: "
                f"saved {saved.get(key)!r}, requested {params.get(key)!r}"
            )
    if not walkers:
        raise ValueError("resume needs at least one template walker")
    positions = ckpt.arrays["positions"]
    ion_positions = ckpt.arrays["ion_positions"]
    e_locals = ckpt.arrays["e_local"]
    states = ckpt.manifest["walker_rng_states"]
    n_saved = int(ckpt.manifest["n_walkers"])
    restored: list[DmcWalker] = []
    for i in range(n_saved):
        if i < len(walkers):
            wf = walkers[i].wf
        else:
            # Extra walkers share the template's orbital set (read-only),
            # like branching clones do.
            spos0 = walkers[0].wf.slater.spos
            wf = copy.deepcopy(walkers[0].wf, {id(spos0): spos0})
        try:
            wf.electrons.load_positions(positions[i], wrap=False)
            wf.ions.load_positions(ion_positions[i], wrap=False)
        except ValueError as exc:
            raise CheckpointError(
                f"template walker {i} does not match checkpoint shape: {exc}"
            ) from exc
        wf.recompute()
        restored.append(
            DmcWalker(wf=wf, rng=restore_rng(states[i]), e_local=float(e_locals[i]))
        )
    pool = WalkerRngPool.from_state(ckpt.manifest["pool_state"])
    traces = (
        list(ckpt.arrays["energy_trace"]),
        [int(p) for p in ckpt.arrays["population_trace"]],
        list(ckpt.arrays["e_trial_trace"]),
    )
    return (
        restored,
        pool,
        int(ckpt.manifest["generation"]),
        float(ckpt.arrays["e_trial"]),
        int(ckpt.manifest["accepted"]),
        int(ckpt.manifest["attempted"]),
        traces,
    )


def _crowd_groups(walkers: list[DmcWalker]) -> list[list[DmcWalker]]:
    """Partition an ensemble into crowds that can step batched together.

    Walkers sharing one orbital-set object, electron count and Jastrow
    structure form one lock-step group; walker order is preserved inside
    each group (streams are private, so cross-group order is free).
    Branching clones share their parent's orbital set, so a standard
    ensemble stays a single crowd for its whole life.
    """
    groups: dict[tuple, list[DmcWalker]] = {}
    for w in walkers:
        wf = w.wf
        key = (
            id(wf.slater.spos),
            len(wf.electrons),
            wf.j1 is not None,
            wf.j2 is not None,
        )
        groups.setdefault(key, []).append(w)
    return list(groups.values())


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
    with one kernel call per electron move (:mod:`repro.qmc.batched_step`).

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
        match the checkpointed run.
    guard:
        Non-finite-energy policy
        (:class:`~repro.resilience.guards.GuardConfig`); ``None`` keeps
        the legacy pass-through behavior.
    estimator_factory:
        ``factory(walker) -> estimator`` with a ``total()`` method;
        defaults to :class:`~repro.qmc.estimators.LocalEnergy`.  The
        fault-injection tests use this seam to poison measurements.
    on_generation:
        ``hook(gen, walkers)`` called after each completed generation
        (after any checkpoint write); exceptions propagate, which is how
        the resilience tests simulate a mid-run kill.
    """
    if not walkers:
        raise ValueError("need at least one walker")
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
    target = target_population or len(walkers)
    params = {
        "tau": tau,
        "target_population": target,
        "feedback": feedback,
        "max_population_factor": max_population_factor,
        "ion_charge": ion_charge,
    }
    pop_guard = PopulationGuard(target, max_population_factor)
    energy_policy = guard.on_nonfinite_energy if guard is not None else "ignore"
    dropped = 0
    estimators: dict[int, object] = {}
    factory = estimator_factory or (lambda w: LocalEnergy(w.wf, ion_charge))

    def e_local(w: DmcWalker) -> float:
        est = estimators.get(id(w))
        if est is None:
            est = factory(w)
            estimators[id(w)] = est
        return est.total()

    def measure(w: DmcWalker) -> bool:
        """Measure ``w``; returns False if the walker must be dropped."""
        nonlocal dropped
        w.e_local = e_local(w)
        if np.isfinite(w.e_local) or energy_policy == "ignore":
            return True
        OBS.count(
            "guard_trips_total", kind="nonfinite_energy", driver="dmc"
        )
        OBS.event("guard:nonfinite_energy", cat="guard", driver="dmc")
        if energy_policy == "recompute":
            # Rebuild derived state (a drifted inverse is the usual
            # culprit) and re-measure once through a fresh estimator.
            w.wf.recompute()
            estimators.pop(id(w), None)
            w.e_local = e_local(w)
            if np.isfinite(w.e_local):
                return True
        if energy_policy == "raise":
            raise GuardViolation(
                f"non-finite local energy {w.e_local!r} "
                f"(policy 'raise'; use 'drop' or 'recompute' to continue)"
            )
        dropped += 1
        return False

    if resume is not None:
        (walkers_r, pool, start_gen, e_trial, accepted, attempted, traces) = (
            _resume_dmc(resume, walkers, params)
        )
        walkers[:] = walkers_r
        energy_trace, pop_trace, et_trace = traces
    else:
        start_gen = 0
        accepted = attempted = 0
        energy_trace, pop_trace, et_trace = [], [], []
        healthy = [w for w in walkers if measure(w)]
        if not healthy:
            raise GuardViolation("no walker with finite local energy at start")
        walkers[:] = healthy
        e_trial = float(np.mean([w.e_local for w in walkers]))

    for gen in range(start_gen, n_generations):
        t_gen = time.perf_counter() if OBS.enabled else 0.0
        # (i) drift-diffusion propagation: each shared-orbital-set group
        # advances in lock step; since every walker consumes only its
        # private stream, the result is bit-identical to sweeping
        # walkers one at a time.
        for group in _crowd_groups(walkers):
            state = CrowdState([w.wf for w in group], [w.rng for w in group])
            acc, att = batched_sweep(state, tau)
            accepted += acc
            attempted += att
        # (ii) measurement, in walker order.
        weights: list[float | None] = []
        for w in walkers:
            e_old = w.e_local
            if not measure(w):
                weights.append(None)  # dropped: no branching copies at all
                continue
            # Branching weight from the symmetrized local energy.
            weights.append(np.exp(-tau * (0.5 * (w.e_local + e_old) - e_trial)))
        # (iii) branching: integer copies floor(w + u).
        new_walkers: list[DmcWalker] = []
        cap = pop_guard.cap
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
        walkers[:] = pop_guard.enforce(new_walkers, walkers, pool)
        estimators.clear()
        e_est = float(np.mean([w.e_local for w in walkers]))
        # Population-control feedback on the trial energy.
        e_trial = e_est - feedback * np.log(len(walkers) / target)
        energy_trace.append(e_est)
        pop_trace.append(len(walkers))
        et_trace.append(e_trial)
        if OBS.enabled:
            dt = time.perf_counter() - t_gen
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
            _save_dmc_checkpoint(
                checkpoint_path,
                walkers,
                pool,
                gen + 1,
                e_trial,
                accepted,
                attempted,
                (energy_trace, pop_trace, et_trace),
                params,
            )
        if on_generation is not None:
            on_generation(gen, walkers)
    return DmcResult(
        energy_trace=np.asarray(energy_trace),
        population_trace=np.asarray(pop_trace),
        e_trial_trace=np.asarray(et_trace),
        acceptance=accepted / max(attempted, 1),
        rescues=pop_guard.rescues,
        truncations=pop_guard.truncations,
        dropped_walkers=dropped,
    )


def build_dmc_ensemble(
    pool: WalkerRngPool,
    n_walkers: int,
    n_orbitals: int = 4,
    box: float = 6.0,
    grid_shape: tuple[int, int, int] = (12, 12, 12),
    engine: str = "fused",
    tile_size: int | None = None,
    chunk_size: int | None = None,
    backend: str | None = None,
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
    backend shifts it within its declared tolerance.  The
    ``tile_size``/``chunk_size``/``backend`` kwargs are the deprecated
    pre-config spellings, honoured (with a warning) for one release.
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
        tile_size=tile_size,
        chunk_size=chunk_size,
        backend=backend,
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
