"""Process-parallel crowd execution over one shared coefficient table.

The batched population step (:mod:`repro.qmc.batched_step`) already
turns per-electron orbital evaluations across walkers into batched
kernel calls; this module distributes the *walkers* over worker
processes.  Each worker attaches the
:class:`~repro.parallel.shared_table.SharedTable` zero-copy, builds its
contiguous walker shard from deterministic per-walker seeds
(:mod:`repro.parallel.sharding`), and advances it as a sub-crowd.
Because every walker's streams depend only on its global index, and the
batched kernels evaluate each position independently,

    ``run_crowd_parallel(spec, n_workers=K)``

is **bit-identical** to the sequential one-process crowd for every
``K`` — the regression the tests pin down at 1, 2 and 4 workers.

Every population driver — the crowd runs here,
:func:`~repro.parallel.vmc.run_vmc_population` and
:func:`~repro.parallel.dmc.run_dmc_sharded` — starts its processes
through one launcher, :func:`_launch`: it resolves the spec's config
parent-side, then builds one in-process shard or starts a pool or
supervisor of shards over one shared padded table.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.core.coeffs import pad_table_3d, solve_coefficients_3d
from repro.core.grid import Grid3D
from repro.core.layout_fused import BsplineFused
from repro.core.layout_soa import BsplineSoA
from repro.core.layout_aos import BsplineAoS
from repro.lattice.cell import Cell
from repro.lattice.orbitals import PlaneWaveOrbitalSet
from repro.lattice.pbc import wigner_seitz_radius
from repro.obs import OBS
from repro.parallel.pool import ProcessCrowdPool
from repro.parallel.sharding import shard_slices, walker_rng
from repro.parallel.shared_table import SharedTable
from repro.qmc.batched_step import CrowdState, batched_sweep
from repro.qmc.estimators import CrowdLocalEnergy
from repro.qmc.jastrow import make_polynomial_radial
from repro.qmc.particleset import ParticleSet
from repro.qmc.slater import SplineOrbitalSet
from repro.qmc.wavefunction import SlaterJastrow

__all__ = [
    "CrowdSpec",
    "CrowdRunResult",
    "solve_spec_table",
    "build_walker_range",
    "run_crowd_sequential",
    "run_crowd_parallel",
]

_ENGINES = {"aos": BsplineAoS, "soa": BsplineSoA, "fused": BsplineFused}

# run_vmc's default recompute cadence; recompute timing is part of the
# trajectory.
_RECOMPUTE_EVERY = 20


@dataclass(frozen=True)
class CrowdSpec:
    """A picklable description of a walker population.

    Everything a worker needs to rebuild its shard deterministically:
    walker ``w``'s configuration comes from stream ``(seed, w, 0)`` and
    its move stream from ``(seed, w, 1)`` — independent of sharding.
    """

    n_walkers: int
    n_orbitals: int = 4
    box: float = 6.0
    grid_shape: tuple[int, int, int] = (12, 12, 12)
    engine: str = "fused"
    seed: int = 2017
    #: The execution configuration (:class:`repro.config.RunConfig`).
    #: ``None`` builds one from the environment at use time.  The run
    #: entry points resolve it **parent-side** (tuned-DB winner or
    #: heuristic, concretized to ints) before sharding, so every worker
    #: inherits the parent's blocking decision bit-identically
    #: regardless of its own env or tuning DB.  A backend *name* is
    #: still resolved worker-side with the fallback policy: a worker
    #: that cannot serve it degrades to NumPy with a warning and a
    #: ``backend_fallback_total`` count (see :func:`build_walker_range`).
    config: "RunConfig | None" = None

    def __post_init__(self) -> None:
        if self.n_walkers <= 0:
            raise ValueError(f"n_walkers must be positive, got {self.n_walkers}")
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        backend = self.config.backend if self.config is not None else None
        if backend is not None and not isinstance(backend, str):
            raise ValueError(
                "CrowdSpec backends must be registered backend names "
                f"(specs must stay picklable), got {backend!r}"
            )

    def run_config(self) -> "RunConfig":
        """The effective config: :attr:`config`, or the environment's.

        When :attr:`config` is None the environment is consulted (rung 2)
        — in whichever process calls this, which is why the run entry
        points resolve parent-side and ship the result.
        """
        from repro.config import RunConfig

        return self.config if self.config is not None else RunConfig.from_env()

    def resolved(self, dtype=np.float64) -> "CrowdSpec":
        """A copy whose config is fully resolved (concrete chunk/tile).

        The parent calls this once before sharding, so a worker
        unpickling the returned spec reconstructs the parent's exact
        plan without touching its own env or tuning DB.
        """
        cfg = self.run_config()
        if not cfg.is_resolved:
            cfg = cfg.resolved_for(
                self.n_orbitals, batch=self.n_walkers, dtype=dtype
            )
        return dataclasses.replace(self, config=cfg)


def solve_spec_table(spec: CrowdSpec) -> np.ndarray:
    """Solve the spec's plane-wave coefficient table once (float64).

    The parent does this exactly once; workers receive the bytes through
    shared memory, never by re-solving.
    """
    cell = Cell.cubic(spec.box)
    orbitals = PlaneWaveOrbitalSet(cell, spec.n_orbitals)
    nx, ny, nz = spec.grid_shape
    samples = orbitals.values_on_grid(nx, ny, nz)
    return solve_coefficients_3d(samples, dtype=np.float64)


def build_walker_range(
    spec: CrowdSpec,
    table: np.ndarray,
    lo: int,
    hi: int,
    spos: SplineOrbitalSet | None = None,
) -> tuple[list[SlaterJastrow], list[np.random.Generator]]:
    """Walkers ``lo .. hi-1`` of the population, over ``table``.

    All walkers of the range share one :class:`SplineOrbitalSet` (the
    crowd contract); ``table`` may be a private array or a
    :class:`SharedTable` view — the engine never copies it.  A
    ghost-padded ``(nx+3, ny+3, nz+3, N)`` table (what
    :func:`run_crowd_parallel` shares, so workers attach the halo
    zero-copy) is detected by shape: the single-position engine gets the
    central view, the batched engine adopts the padded table directly.
    Pass an existing ``spos`` to extend a crowd across *calls* too
    (walkers only batch together when they share the orbital-set object,
    so callers that grow their population incrementally — e.g. the
    sharded DMC templates — must reuse one).

    The spec's ``backend`` is resolved *here*, in whichever process the
    shard lives in, with the fleet-worker fallback policy: a worker
    that cannot serve the requested backend (no C compiler on a
    heterogeneous node) degrades to the exact-tier NumPy path with a
    warning and a ``backend_fallback_total`` count instead of killing
    the run.  The config keeps the name of the backend that serves, so
    it stays the parent's config wherever no fallback happened.  Strict
    validation is the parent's job (the CLIs call
    :func:`repro.backends.resolve_backend` without fallback first).
    """
    cell = Cell.cubic(spec.box)
    if spos is None:
        cfg = spec.run_config()
        if cfg.backend is not None and not hasattr(cfg.backend, "capability"):
            from repro.backends import resolve_backend

            cfg = dataclasses.replace(
                cfg, backend=resolve_backend(cfg.backend, fallback=True).name
            )
        nx, ny, nz = spec.grid_shape
        grid = Grid3D(nx, ny, nz, (1.0, 1.0, 1.0))
        padded = None
        if table.shape[:3] == grid.padded_shape:
            padded = table
            table = table[1 : nx + 1, 1 : ny + 1, 1 : nz + 1]
        engine = _ENGINES[spec.engine](grid, table)
        spos = SplineOrbitalSet(cell, grid, engine, padded_table=padded, config=cfg)
    rcut = 0.9 * wigner_seitz_radius(cell)
    j1 = make_polynomial_radial(0.4, rcut)
    j2 = make_polynomial_radial(0.6, rcut)
    wfs, rngs = [], []
    for w in range(lo, hi):
        conf_rng = walker_rng(spec.seed, w, stream=0)
        ions = ParticleSet("ion", cell, cell.frac_to_cart(conf_rng.random((2, 3))))
        electrons = ParticleSet.random("e", cell, 2 * spec.n_orbitals, conf_rng)
        wfs.append(SlaterJastrow(electrons, ions, spos, j1, j2))
        rngs.append(walker_rng(spec.seed, w, stream=1))
    return wfs, rngs


@dataclass
class CrowdRunResult:
    """Merged outcome of a (parallel) crowd run, in walker order.

    ``positions`` is ``(n_walkers, n_electrons, 3)``; ``log_values`` the
    per-walker ``log |Psi|`` after the last sweep — together they pin a
    trajectory bit-for-bit.  ``seconds`` is parent wall time of the
    propagation itself, process start-up and teardown excluded (the
    number speedups are computed from).
    """

    positions: np.ndarray
    log_values: np.ndarray
    accepted: int
    attempted: int
    seconds: float
    n_workers: int

    @property
    def acceptance(self) -> float:
        """Overall move acceptance."""
        return self.accepted / max(self.attempted, 1)

    @property
    def walkers_per_second(self) -> float:
        """Walker-sweeps per wall second (the bench's rate metric)."""
        if self.seconds <= 0 or len(self.positions) == 0:
            return 0.0
        n_el = self.positions.shape[1] or 1
        sweeps = self.attempted / (len(self.positions) * n_el)
        return len(self.positions) * sweeps / self.seconds


class _Shard:
    """Shard state over one coefficient table: the crowd and DMC shards' base.

    In-process shards are built over a plain array; in a pool worker the
    initializer is :meth:`attach`, which maps the parent's shared segment
    and detaches it again at :meth:`close`.
    """

    #: Whether the state evolves across calls; the fleet supervisor then
    #: journals calls and replays them into a restarted worker.
    stateful = True
    _segment: SharedTable | None = None

    @classmethod
    def attach(cls, worker_id: int, spec: CrowdSpec, table_spec: dict):
        """Pool initializer: worker ``worker_id``'s shard over the shared table."""
        segment = SharedTable.attach(table_spec)
        shard = cls(spec, segment.array, worker_id, table_spec["n_workers"])
        shard._segment = segment
        return shard

    def close(self) -> None:
        """Detach the shared segment (subclasses drop their views first)."""
        if self._segment is not None:
            try:
                self._segment.close()
            except BufferError:
                # Lingering views die with the worker process anyway; the
                # segment itself is unlinked by the owner, not here.
                pass


class _CrowdShard(_Shard):
    """One contiguous walker range advanced as a sub-crowd."""

    def __init__(
        self,
        spec: CrowdSpec,
        table: np.ndarray,
        worker_id: int = 0,
        n_workers: int = 1,
    ):
        shard = shard_slices(spec.n_walkers, n_workers)[worker_id]
        wfs, rngs = build_walker_range(spec, table, shard.start, shard.stop)
        self.crowd = CrowdState(wfs, rngs) if wfs else None
        self.spos = wfs[0].slater.spos if wfs else None

    def plan(self) -> dict:
        """The shard's resolved execution plan (for inheritance tests).

        Reports the chunk/tile/backend the worker's batched engine
        actually runs with, plus the inherited config — the observable
        that must match the parent's resolved spec bit for bit.
        """
        if self.crowd is None:
            return {}
        eng = self.spos._get_batched()
        return {
            "chunk": eng.plan.chunk,
            "tile": eng.plan.tile,
            "backend": eng.backend.name,
            "config": self.spos.config.as_dict(),
        }

    def run(self, n_sweeps: int, tau: float) -> dict:
        """Advance the shard ``n_sweeps`` lock-step sweeps."""
        if self.crowd is None:
            return {
                "positions": None,
                "log_values": None,
                "accepted": 0,
                "attempted": 0,
            }
        t0 = time.perf_counter()
        accepted = attempted = 0
        for _ in range(n_sweeps):
            acc, att = batched_sweep(self.crowd, tau)
            accepted += acc
            attempted += att
        dt = time.perf_counter() - t0
        if OBS.enabled:
            OBS.count("crowd_sweeps_total", n_sweeps)
            OBS.count("crowd_moves_total", attempted)
            OBS.observe("crowd_shard_seconds", dt)
            OBS.gauge("crowd_shard_walkers", len(self.crowd))
        return {
            "positions": np.stack(
                [wf.electrons.positions for wf in self.crowd.wfs]
            ),
            "log_values": np.asarray(
                [wf.log_value for wf in self.crowd.wfs], dtype=np.float64
            ),
            "accepted": accepted,
            "attempted": attempted,
        }

    def vmc(
        self, n_steps: int, n_warmup: int, tau: float, ion_charge: float
    ) -> dict:
        """VMC over the shard: one local-energy trace per walker.

        The range advances in lock step through the batched population
        kernels and is measured in one batched pass per step, from the
        orbital block the sweeps keep resident (no kernel call); walkers
        only consume their private streams and measurement draws none,
        so every trace is independent of how the population is sharded.
        """
        if self.crowd is None:
            return {
                "energies": np.empty((0, n_steps)),
                "accepted": 0,
                "attempted": 0,
            }
        t0 = time.perf_counter()
        wfs = self.crowd.wfs
        estimator = CrowdLocalEnergy(self.crowd, ion_charge)
        traces: list[list[float]] = [[] for _ in wfs]
        accepted = attempted = 0
        for step in range(n_warmup + n_steps):
            acc, att = batched_sweep(self.crowd, tau)
            accepted += acc
            attempted += att
            if (step + 1) % _RECOMPUTE_EVERY == 0:
                for wf in wfs:
                    wf.recompute()
            if step >= n_warmup:
                for trace, e in zip(traces, estimator.total()):
                    trace.append(e)
        if OBS.enabled:
            OBS.count("vmc_shard_walkers_total", len(wfs))
            OBS.observe("vmc_shard_seconds", time.perf_counter() - t0)
        return {
            "energies": np.asarray(traces, dtype=np.float64),
            "accepted": accepted,
            "attempted": attempted,
        }

    def close(self) -> None:
        """Drop table views, then detach the shared segment."""
        self.crowd = self.spos = None
        super().close()


class _InProcess:
    """One in-process shard behind the pool's ``call``/``broadcast`` surface."""

    n_workers = 1

    def __init__(self, shard: _Shard):
        self.shard = shard

    def call(self, method: str, per_worker_args: list[tuple]) -> list:
        (args,) = per_worker_args
        return [getattr(self.shard, method)(*args)]

    def broadcast(self, method: str, *args) -> list:
        return self.call(method, [args])

    def merge_metrics(self) -> None:
        pass


@contextmanager
def _launch(
    spec: CrowdSpec,
    n_workers: int | None,
    shard_cls: type[_Shard] = _CrowdShard,
    *,
    table: np.ndarray | None = None,
    start_method: str | None = None,
    fleet=None,
    injector=None,
):
    """The one process launcher behind every population driver.

    Resolves the spec's config (parent-side, so every worker inherits
    the parent's blocking decision regardless of its own env or tuning
    DB), then yields something with the pool's
    ``n_workers``/``call``/``broadcast``/``merge_metrics`` surface:

    * ``n_workers=None`` — one in-process ``shard_cls`` holding every
      walker (the sequential reference);
    * otherwise a :class:`~repro.parallel.pool.ProcessCrowdPool` — or,
      with ``fleet``, a :class:`~repro.fleet.supervisor.FleetSupervisor`
      — of ``n_workers`` shards over one ghost-padded
      :class:`~repro.parallel.shared_table.SharedTable`.

    Every process and segment is torn down on exit.  ``injector``
    requires ``fleet``; arming it is the caller's business (crowd runs
    fire at their single broadcast, DMC at each fault's generation).
    """
    if injector is not None and fleet is None:
        raise ValueError(
            "injector requires fleet supervision (pass fleet=FleetConfig(...))"
        )
    if table is None:
        table = solve_spec_table(spec)
    spec = spec.resolved(table.dtype)
    if n_workers is None:
        shard = shard_cls(spec, table)
        try:
            yield _InProcess(shard)
        finally:
            shard.close()
        return
    # Pad once in the parent: workers then attach the ghost halo
    # zero-copy instead of each paying the pad copy themselves.
    shared = SharedTable.create(pad_table_3d(table))
    table_spec = dict(shared.spec, n_workers=n_workers)
    try:
        if fleet is not None:
            from repro.fleet import FleetSupervisor

            workers = FleetSupervisor(
                n_workers,
                shard_cls.attach,
                (spec, table_spec),
                config=fleet,
                stateful=shard_cls.stateful,
                start_method=start_method,
            )
        else:
            workers = ProcessCrowdPool(
                n_workers,
                shard_cls.attach,
                (spec, table_spec),
                start_method=start_method,
            )
        with workers:
            yield workers
    finally:
        shared.close()
        shared.unlink()


def _run_crowd(
    spec: CrowdSpec,
    n_workers: int | None,
    method: str,
    *args,
    injector=None,
    **launch_kw,
) -> tuple[list, float]:
    """``_CrowdShard.<method>(*args)`` over the whole population.

    Returns the per-shard results in walker order and the wall seconds
    of the run itself (setup and teardown excluded).
    """
    with _launch(spec, n_workers, injector=injector, **launch_kw) as workers:
        if injector is not None and n_workers is not None:
            # One broadcast is the whole run: it counts as generation 0.
            workers.arm_injector(injector)
        t0 = time.perf_counter()
        shards = workers.broadcast(method, *args)
        seconds = time.perf_counter() - t0
        workers.merge_metrics()
    return shards, seconds


def _crowd_result(shards: list, seconds: float, n_workers: int) -> CrowdRunResult:
    filled = [s for s in shards if s["positions"] is not None]
    return CrowdRunResult(
        positions=np.concatenate([s["positions"] for s in filled]),
        log_values=np.concatenate([s["log_values"] for s in filled]),
        accepted=sum(s["accepted"] for s in shards),
        attempted=sum(s["attempted"] for s in shards),
        seconds=seconds,
        n_workers=n_workers,
    )


def run_crowd_sequential(
    spec: CrowdSpec,
    n_sweeps: int,
    tau: float,
    table: np.ndarray | None = None,
) -> CrowdRunResult:
    """The single-process reference: one crowd holding every walker."""
    shards, seconds = _run_crowd(spec, None, "run", n_sweeps, tau, table=table)
    return _crowd_result(shards, seconds, n_workers=1)


def run_crowd_parallel(
    spec: CrowdSpec,
    n_workers: int,
    n_sweeps: int,
    tau: float,
    table: np.ndarray | None = None,
    start_method: str | None = None,
    fleet=None,
    injector=None,
) -> CrowdRunResult:
    """Shard the population over ``n_workers`` processes and advance it.

    The coefficient table is placed in shared memory once and attached
    zero-copy by every worker; walkers are sharded contiguously and
    gathered back in order, so the result is bit-identical to
    :func:`run_crowd_sequential` for any ``n_workers``.  All segments
    and workers are torn down before returning (no ``/dev/shm`` leaks).

    Passing a :class:`repro.fleet.FleetConfig` as ``fleet`` supervises
    the shards: a crashed or hung worker is restarted and its
    (deterministic) shard re-run, preserving bit-identity.  Crowd
    shards are stateful, so supervision covers recovery only — elastic
    resizing is a DMC feature.  ``injector`` requires ``fleet``.
    """
    shards, seconds = _run_crowd(
        spec,
        n_workers,
        "run",
        n_sweeps,
        tau,
        table=table,
        start_method=start_method,
        fleet=fleet,
        injector=injector,
    )
    return _crowd_result(shards, seconds, n_workers=n_workers)
