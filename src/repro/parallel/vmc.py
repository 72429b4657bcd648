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

from dataclasses import dataclass, field

import numpy as np

from repro.parallel.crowd import CrowdSpec, _run_crowd

__all__ = ["VmcPopulationResult", "run_vmc_population"]


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
    if not processes:
        n_workers = 0
    shards, seconds = _run_crowd(
        spec,
        n_workers or None,
        "vmc",
        n_steps,
        n_warmup,
        tau,
        ion_charge,
        table=table,
        split=split,
        orbital_shards=orbital_shards,
        start_method=start_method,
        fleet=fleet,
        injector=injector,
    )
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
