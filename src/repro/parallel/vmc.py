"""VMC over a walker population, sharded across worker processes.

Each walker's VMC trajectory is fully independent (its wavefunction and
its private stream), so population-level VMC is embarrassingly parallel:
shard the walkers, advance each worker's range in lock step through the
batched population step, gather per-walker energy traces in walker
order.  With the per-walker streams of :mod:`repro.parallel.sharding`,
the merged result is bit-identical to the sequential loop for any worker
count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.coeffs import pad_table_3d
from repro.obs import OBS
from repro.parallel.crowd import CrowdSpec, build_walker_range, solve_spec_table
from repro.parallel.pool import ProcessCrowdPool
from repro.parallel.sharding import shard_slices
from repro.parallel.shared_table import SharedTable
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.estimators import LocalEnergy

__all__ = ["VmcPopulationResult", "run_vmc_population"]

# run_vmc's default recompute cadence; recompute timing is part of the
# trajectory.
_RECOMPUTE_EVERY = 20


@dataclass
class VmcPopulationResult:
    """Merged population VMC outcome, in walker order.

    ``energies`` is ``(n_walkers, n_steps)`` — one post-warm-up local
    energy trace per walker.
    """

    energies: np.ndarray
    acceptance: float
    seconds: float
    n_workers: int
    energy_mean: float = field(init=False)
    energy_error: float = field(init=False)

    def __post_init__(self) -> None:
        flat = np.asarray(self.energies).ravel()
        self.energy_mean = float(np.mean(flat)) if flat.size else 0.0
        self.energy_error = (
            float(np.std(flat) / np.sqrt(flat.size)) if flat.size > 1 else 0.0
        )


def _run_walker_range(wfs, rngs, n_steps, n_warmup, tau, ion_charge) -> dict:
    """Run VMC over already-built walkers; shared by the in-process path
    and the worker shards.

    The whole range advances in lock step through the batched population
    kernels — each electron move across every walker of the shard is one
    orbital call.  Walkers only consume their private streams and
    measurement draws none, so every trace is independent of how the
    population is sharded.
    """
    if not wfs:
        return {"energies": np.empty((0, n_steps)), "accepted": 0, "attempted": 0}
    state = CrowdState(wfs, rngs)
    estimators = [LocalEnergy(wf, ion_charge) for wf in wfs]
    traces: list[list[float]] = [[] for _ in wfs]
    accepted = attempted = 0
    for step in range(n_warmup + n_steps):
        acc, att = batched_sweep(state, tau)
        accepted += acc
        attempted += att
        if (step + 1) % _RECOMPUTE_EVERY == 0:
            for wf in wfs:
                wf.recompute()
        if step >= n_warmup:
            for trace, est in zip(traces, estimators):
                trace.append(est.total())
    return {
        "energies": np.asarray(traces, dtype=np.float64),
        "accepted": accepted,
        "attempted": attempted,
    }


class _VmcShard:
    """Worker-process state: attached table + this shard's walkers."""

    def __init__(self, worker_id: int, spec: CrowdSpec, table_spec: dict):
        self._table = SharedTable.attach(table_spec)
        shard = shard_slices(spec.n_walkers, table_spec["n_workers"])[worker_id]
        self.wfs, self.rngs = build_walker_range(
            spec, self._table.array, shard.start, shard.stop
        )

    def run(self, n_steps, n_warmup, tau, ion_charge) -> dict:
        t0 = time.perf_counter()
        out = _run_walker_range(
            self.wfs, self.rngs, n_steps, n_warmup, tau, ion_charge
        )
        if OBS.enabled and self.wfs:
            OBS.count("vmc_shard_walkers_total", len(self.wfs))
            OBS.observe("vmc_shard_seconds", time.perf_counter() - t0)
        return out

    def close(self) -> None:
        self.wfs = self.rngs = None
        try:
            self._table.close()
        except BufferError:
            pass


def _init_vmc_shard(worker_id: int, spec: CrowdSpec, table_spec: dict):
    return _VmcShard(worker_id, spec, table_spec)


def run_vmc_population(
    spec: CrowdSpec,
    n_workers: int = 1,
    n_steps: int = 50,
    n_warmup: int = 10,
    tau: float = 0.3,
    ion_charge: float = 4.0,
    table: np.ndarray | None = None,
    processes: bool = True,
    start_method: str | None = None,
    fleet=None,
    injector=None,
    split: str = "walkers",
    orbital_shards: int | None = None,
) -> VmcPopulationResult:
    """Run VMC over ``spec.n_walkers`` walkers, sharded over processes.

    ``processes=False`` (or ``n_workers == 0``) runs the same walker loop
    in the calling process — the bit-identity reference the tests compare
    1/2/4-worker runs against.  Every shard steps its walkers in lock
    step through the batched population kernels, bit-identically for any
    worker count.

    ``split`` selects the sharded axis (see
    :func:`~repro.parallel.crowd.run_crowd_parallel`): ``"orbitals"``
    keeps the population in the parent and fans every orbital kernel
    call across the pool along the spline axis — bit-identical to both
    the sequential reference and the walker split.

    Passing a :class:`repro.fleet.FleetConfig` as ``fleet`` runs the
    shards under a :class:`~repro.fleet.supervisor.FleetSupervisor`: a
    worker that crashes or hangs is restarted and its (deterministic)
    shard re-run, so the merged energies still match the sequential
    reference bit for bit.  VMC shards are stateful, so supervision here
    means crash recovery — elastic resizing is a DMC-only feature;
    orbital shards are stateless replicas, supervised by restart +
    re-issue.  ``injector`` (process faults, fired at the run's single
    broadcast) requires ``fleet`` and the walker split.
    """
    if injector is not None and fleet is None:
        raise ValueError(
            "injector requires fleet supervision (pass fleet=FleetConfig(...))"
        )
    if table is None:
        table = solve_spec_table(spec)
    if (split != "walkers" or orbital_shards is not None) and processes and n_workers:
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
            spec = spec.resolved(table.dtype)
            t0 = time.perf_counter()
            wfs, rngs = build_walker_range(spec, table, 0, spec.n_walkers)
            spos = wfs[0].slater.spos
            fanned = OrbitalEvaluator(
                spos.grid,
                spos._padded_table
                if spos._padded_table is not None
                else spos.engine.P,
                config=spec.config,
                processes=n_workers,
                orbital_shards=shards,
                supervise=fleet is not None,
                fleet_config=fleet,
                start_method=start_method,
            )
            spos._batched = fanned
            try:
                shard = _run_walker_range(
                    wfs, rngs, n_steps, n_warmup, tau, ion_charge
                )
            finally:
                fanned.close()
            return VmcPopulationResult(
                energies=shard["energies"],
                acceptance=shard["accepted"] / max(shard["attempted"], 1),
                seconds=time.perf_counter() - t0,
                n_workers=n_workers,
            )
    t0 = time.perf_counter()
    if not processes or n_workers == 0:
        wfs, rngs = build_walker_range(spec, table, 0, spec.n_walkers)
        shards = [
            _run_walker_range(wfs, rngs, n_steps, n_warmup, tau, ion_charge)
        ]
        n_workers = 0
    else:
        # Pad in the parent so every worker attaches the ghost halo
        # zero-copy (build_walker_range detects the padded shape).
        shared = SharedTable.create(pad_table_3d(table))
        table_spec = dict(shared.spec, n_workers=n_workers)
        try:
            if fleet is not None:
                from repro.fleet import FleetSupervisor

                with FleetSupervisor(
                    n_workers,
                    _init_vmc_shard,
                    (spec, table_spec),
                    config=fleet,
                    stateful=True,
                    start_method=start_method,
                ) as supervisor:
                    supervisor.arm_injector(injector)
                    shards = supervisor.broadcast(
                        "run", n_steps, n_warmup, tau, ion_charge
                    )
                    supervisor.merge_metrics()
            else:
                with ProcessCrowdPool(
                    n_workers,
                    _init_vmc_shard,
                    (spec, table_spec),
                    start_method=start_method,
                ) as pool:
                    shards = pool.broadcast(
                        "run", n_steps, n_warmup, tau, ion_charge
                    )
                    pool.merge_metrics()
        finally:
            shared.close()
            shared.unlink()
    seconds = time.perf_counter() - t0
    energies = np.concatenate(
        [s["energies"] for s in shards if len(s["energies"])]
    )
    accepted = sum(s["accepted"] for s in shards)
    attempted = sum(s["attempted"] for s in shards)
    return VmcPopulationResult(
        energies=energies,
        acceptance=accepted / max(attempted, 1),
        seconds=seconds,
        n_workers=n_workers,
    )
