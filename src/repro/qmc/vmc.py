"""Variational Monte Carlo driver.

VMC samples ``|Psi_T|^2`` with the drift-diffusion kernel and averages
the local energy.  In this reproduction it serves two roles: a
correctness harness (detailed balance + estimator sanity on toy systems)
and the equilibration stage that hands thermalized walkers to DMC.

Like the DMC driver, ``run_vmc`` supports periodic checkpoints and
bit-for-bit resume (positions + exact RNG state + partial energy trace),
and a :class:`~repro.resilience.guards.GuardConfig` policy for
non-finite local energies.  Taking a checkpoint calls
``wf.recompute()``, so reproducibility comparisons must share the same
``checkpoint_every`` cadence (see :mod:`repro.qmc.dmc`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import OBS
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.estimators import CrowdLocalEnergy, LocalEnergy
from repro.qmc.wavefunction import SlaterJastrow
from repro.resilience.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    set_rng_state,
    rng_state,
)
from repro.resilience.guards import GuardConfig, GuardViolation

__all__ = ["VmcResult", "run_vmc"]


@dataclass
class VmcResult:
    """Outcome of a VMC run.

    Attributes
    ----------
    energies:
        Per-step local energies after warm-up.
    acceptance:
        Overall move acceptance ratio.
    energy_mean, energy_error:
        Mean local energy and its naive standard error (no blocking; the
        tests use generous tolerances instead).
    """

    energies: np.ndarray
    acceptance: float
    energy_mean: float = field(init=False)
    energy_error: float = field(init=False)

    def __post_init__(self) -> None:
        self.energy_mean = float(np.mean(self.energies)) if len(self.energies) else 0.0
        self.energy_error = (
            float(np.std(self.energies) / np.sqrt(len(self.energies)))
            if len(self.energies) > 1
            else 0.0
        )


def run_vmc(
    wf: SlaterJastrow,
    rng: np.random.Generator,
    n_steps: int = 50,
    n_warmup: int = 10,
    tau: float = 0.3,
    ion_charge: float = 4.0,
    recompute_every: int = 20,
    measure: bool = True,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
    guard: GuardConfig | None = None,
) -> VmcResult:
    """Run VMC on one walker and return its energy trace.

    The walker advances through the batched population-step kernels
    (:mod:`repro.qmc.batched_step`) as a crowd of one, and is measured by
    the crowd estimator (:class:`~repro.qmc.estimators.CrowdLocalEnergy`),
    which reads the orbital block the sweeps keep resident: after the
    first sweep, measuring makes no kernel call.

    Parameters
    ----------
    wf:
        The walker's wavefunction; mutated in place (the walker moves).
        When resuming, its positions are overwritten from the checkpoint.
    rng:
        The walker's private stream; restored in place on resume.
    n_steps:
        Measured generations (one sweep over all electrons each).
    n_warmup:
        Discarded equilibration sweeps.
    tau:
        Drift-diffusion time step.
    ion_charge:
        Valence charge for the potential estimator.
    recompute_every:
        Sweeps between full recomputations (rounding-drift control).
    measure:
        False skips the energy estimator (pure-propagation benchmarks).
    checkpoint_every:
        Write a checkpoint to ``checkpoint_path`` every this many sweeps.
    checkpoint_path:
        Checkpoint directory (required with ``checkpoint_every``).
    resume:
        Checkpoint to continue from; run parameters must match.
    guard:
        Non-finite-energy policy: ``"raise"`` fails loudly,
        ``"recompute"`` rebuilds derived state and re-measures once
        (keeping the bad sample only if still bad under ``"ignore"``
        semantics), ``"drop"`` skips the sample.
    """
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
    params = {
        "n_warmup": n_warmup,
        "tau": tau,
        "ion_charge": ion_charge,
        "recompute_every": recompute_every,
        "measure": measure,
    }
    energy_policy = guard.on_nonfinite_energy if guard is not None else "ignore"

    def measure_energy() -> float | None:
        e = float(estimator.total()[0])
        if np.isfinite(e) or energy_policy == "ignore":
            return e
        OBS.count(
            "guard_trips_total", kind="nonfinite_energy", driver="vmc"
        )
        OBS.event("guard:nonfinite_energy", cat="guard", driver="vmc")
        if energy_policy == "recompute":
            wf.recompute()
            e = LocalEnergy(wf, ion_charge).total()
            if np.isfinite(e):
                return e
        if energy_policy == "raise":
            raise GuardViolation(
                f"non-finite local energy {e!r} in VMC "
                f"(policy 'raise'; use 'drop' or 'recompute' to continue)"
            )
        return None  # drop the sample

    if resume is not None:
        ckpt = load_checkpoint(resume, expect_kind="vmc")
        saved = ckpt.manifest["params"]
        for key in params:
            if saved.get(key) != params[key]:
                raise CheckpointError(
                    f"checkpoint parameter mismatch for {key!r}: "
                    f"saved {saved.get(key)!r}, requested {params[key]!r}"
                )
        try:
            wf.electrons.load_positions(ckpt.arrays["positions"], wrap=False)
            wf.ions.load_positions(ckpt.arrays["ion_positions"], wrap=False)
        except ValueError as exc:
            raise CheckpointError(
                f"wavefunction does not match checkpoint shape: {exc}"
            ) from exc
        wf.recompute()
        set_rng_state(rng, ckpt.manifest["rng_state"])
        start_step = int(ckpt.manifest["step"])
        energies = list(ckpt.arrays["energies"])
        accepted = int(ckpt.manifest["accepted"])
        attempted = int(ckpt.manifest["attempted"])
    else:
        start_step = 0
        energies = []
        accepted = attempted = 0

    # Built after any resume: the crowd adopts the restored configuration,
    # and the walker's recomputes below write into the crowd's rows.
    crowd = CrowdState([wf], [rng])
    estimator = CrowdLocalEnergy(crowd, ion_charge) if measure else None

    for step in range(start_step, n_warmup + n_steps):
        t_step = time.perf_counter() if OBS.enabled else 0.0
        acc, att = batched_sweep(crowd, tau)
        if OBS.enabled:
            dt = time.perf_counter() - t_step
            OBS.count("vmc_steps_total")
            OBS.observe("vmc_step_seconds", dt)
            OBS.complete("vmc:sweep", t_step, dt, cat="qmc", step=step)
        accepted += acc
        attempted += att
        if (step + 1) % recompute_every == 0:
            wf.recompute()
        if step >= n_warmup and estimator is not None:
            e = measure_energy()
            if e is not None:
                energies.append(e)
        if checkpoint_every is not None and (step + 1) % checkpoint_every == 0:
            wf.recompute()
            save_checkpoint(
                checkpoint_path,
                {
                    "kind": "vmc",
                    "step": step + 1,
                    "accepted": accepted,
                    "attempted": attempted,
                    "rng_state": rng_state(rng),
                    "params": params,
                },
                {
                    "positions": wf.electrons.positions,
                    "ion_positions": wf.ions.positions,
                    "energies": np.asarray(energies, dtype=np.float64),
                },
            )
    return VmcResult(
        energies=np.asarray(energies),
        acceptance=accepted / max(attempted, 1),
    )
