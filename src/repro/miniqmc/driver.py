"""miniQMC kernel drivers — the Python port of paper Figs. 3 and 6.

``run_kernel_driver`` is Fig. 3: per walker, generate ns random positions
and push them through V, VGL and VGH against a shared read-only table.
``run_tiled_driver`` is Fig. 6: the same samples against an AoSoA engine,
optionally with nested threads per walker (Opt C).

On this host walkers execute sequentially (one core); since walkers share
nothing but the read-only table, per-eval cost — and therefore every
layout *comparison* — is unaffected.  The returned
:class:`DriverResult` carries the paper's throughput metric per kernel.

Resilience: both drivers accept ``checkpoint_every`` (walkers) /
``checkpoint_path`` / ``resume`` so a killed benchmark run does not
repeat completed work — the checkpoint carries accumulated per-kernel
seconds/evals plus the exact RNG state, so the resumed run consumes the
same position stream the uninterrupted run would have.
``run_tiled_driver`` additionally takes a
:class:`~repro.resilience.retry.RetryPolicy` that wraps the nested
evaluator in bounded retry-with-backoff and single-threaded fallback
(:class:`~repro.resilience.retry.ResilientEvaluator`).

Process parallelism: both drivers accept ``processes`` — walkers are
sharded over a :class:`~repro.parallel.pool.ProcessCrowdPool` whose
workers attach the coefficient table through a
:class:`~repro.parallel.shared_table.SharedTable` (one physical copy, as
in paper Fig. 3, at process scope).  In process mode each walker draws
its positions from its own ``SeedSequence(seed+1, spawn_key=(walker,))``
stream, so per-kernel eval counts and position streams are identical for
any process count (including ``processes=1``); the sequential
``processes=None`` path keeps its historical single-stream behaviour.
Checkpointing is a sequential-mode feature — combining it with
``processes`` raises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.batched import BsplineBatched
from repro.core.coeffs import pad_table_3d
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.layout_aos import BsplineAoS
from repro.core.layout_aosoa import BsplineAoSoA
from repro.core.layout_fused import BsplineFused
from repro.core.layout_soa import BsplineSoA
from repro.core.nested import NestedEvaluator
from repro.miniqmc.config import MiniQmcConfig, random_coefficients
from repro.obs import OBS, kernel_bytes_moved
from repro.perf.throughput import throughput
from repro.resilience.checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from repro.resilience.retry import ResilientEvaluator, RetryPolicy

__all__ = ["DriverResult", "run_kernel_driver", "run_tiled_driver"]

_ENGINES = {"aos": BsplineAoS, "soa": BsplineSoA, "fused": BsplineFused}


def _as_kinds(kernels) -> tuple[Kind, ...]:
    """Normalise a driver ``kernels`` argument to :class:`Kind` members.

    Configuration-style normalisation (silent): the drivers' own defaults
    are spelled as strings, and result dictionaries keep string keys.
    """
    return tuple(k if isinstance(k, Kind) else Kind(k) for k in kernels)


@dataclass
class DriverResult:
    """Timings and throughputs of one driver run.

    Attributes
    ----------
    seconds:
        Wall time per kernel ("v"/"vgl"/"vgh"), summed over walkers and
        iterations.
    throughputs:
        The paper's T = Nw*N*evals/t per kernel.
    evals:
        Kernel calls per kernel name.
    retries, fallbacks:
        Worker-failure retries absorbed and single-threaded fallbacks
        taken by the nested evaluator (tiled driver with a retry policy).
    """

    config: MiniQmcConfig
    engine: str
    seconds: dict[str, float] = field(default_factory=dict)
    throughputs: dict[str, float] = field(default_factory=dict)
    evals: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    fallbacks: int = 0


def _finalize(result: DriverResult) -> DriverResult:
    cfg = result.config
    for kern, secs in result.seconds.items():
        n_evals = result.evals[kern]
        if secs > 0 and n_evals > 0:
            result.throughputs[kern] = throughput(
                1, cfg.n_splines, secs, n_evals
            )
        else:
            # Unmeasurably fast (timer granularity) or nothing evaluated:
            # downstream reporting still needs the key present.
            result.throughputs[kern] = float("inf") if n_evals > 0 else 0.0
    return result


def _driver_fingerprint(config: MiniQmcConfig, engine: str, kernels) -> dict:
    """What must match for a driver checkpoint to be resumable.

    ``chunk_size`` and ``backend`` are the fields of the caller's
    :class:`~repro.config.RunConfig` as given (``None`` when it passed
    none), not the values the environment or tuner resolve them to; a
    backend instance is recorded by its registry name.
    """
    run = config.config
    backend = run.backend if run is not None else None
    return {
        "engine": engine,
        "n_splines": config.n_splines,
        "grid_shape": list(config.grid_shape),
        "n_samples": config.n_samples,
        "n_iters": config.n_iters,
        "n_walkers": config.n_walkers,
        "tile_size": config.tile_size,
        "chunk_size": run.chunk_size if run is not None else None,
        "backend": getattr(backend, "name", backend),
        "seed": config.seed,
        "kernels": [k.value for k in _as_kinds(kernels)],
    }


def _save_driver_checkpoint(
    path, fingerprint: dict, result: DriverResult, ki: int, walker: int, rng
) -> None:
    save_checkpoint(
        path,
        {
            "kind": "kernel_driver",
            "fingerprint": fingerprint,
            "kernel_index": ki,
            "walkers_done": walker,
            "seconds": result.seconds,
            "evals": result.evals,
            "rng_state": rng_state(rng),
        },
    )


def _resume_driver(resume, fingerprint: dict, result: DriverResult):
    """Restore progress counters; returns (kernel_index, walkers_done, rng)."""
    ckpt = load_checkpoint(resume, expect_kind="kernel_driver")
    if ckpt.manifest["fingerprint"] != fingerprint:
        raise CheckpointError(
            f"driver checkpoint does not match this run: saved "
            f"{ckpt.manifest['fingerprint']!r}, requested {fingerprint!r}"
        )
    result.seconds.update(ckpt.manifest["seconds"])
    result.evals.update({k: int(v) for k, v in ckpt.manifest["evals"].items()})
    return (
        int(ckpt.manifest["kernel_index"]),
        int(ckpt.manifest["walkers_done"]),
        restore_rng(ckpt.manifest["rng_state"]),
    )


def _batched_run_config(config: MiniQmcConfig):
    """The batched engine's :class:`~repro.config.RunConfig`, resolved
    parent-side (rungs 1-4) so process shards inherit identical blocking.
    """
    cfg = config.run_config()
    if not cfg.is_resolved:
        cfg = cfg.resolved_for(
            config.n_splines,
            batch=max(config.n_samples, 1),
            dtype=config.dtype,
        )
    return cfg


def _checkpoint_args_ok(checkpoint_every: int | None, checkpoint_path) -> None:
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")


# -- process-parallel walker sharding ----------------------------------------


class _DriverShard:
    """Worker-process state for the process-parallel kernel drivers.

    Attaches the shared coefficient table, builds its engine once, and
    evaluates its contiguous walker range per ``run(kern)`` call.  Each
    walker's positions come from ``SeedSequence(seed+1, spawn_key=(w,))``
    — a function of the global walker index only, so shard boundaries
    cannot change what gets evaluated.
    """

    def __init__(self, worker_id: int, table_spec: dict, payload: dict):
        from repro.parallel.shared_table import SharedTable
        from repro.parallel.sharding import shard_slices

        self._table = SharedTable.attach(table_spec)
        config: MiniQmcConfig = payload["config"]
        nx, ny, nz = config.grid_shape
        self.grid = Grid3D(nx, ny, nz)
        if payload["engine"].startswith("aosoa"):
            self.eng = BsplineAoSoA(self.grid, self._table.array, config.tile_size)
        elif payload["engine"] == "batched":
            # The parent shared a ghost-padded table; adopt it zero-copy.
            # Blocking comes pre-resolved from the parent; only the
            # backend resolves here — fleet-worker policy, degrading to
            # NumPy (warned + counted) if this process can't serve it.
            cfg = payload["run_config"]
            if cfg.backend is not None and not hasattr(cfg.backend, "capability"):
                from repro.backends import resolve_backend

                cfg = cfg.replace(
                    backend=resolve_backend(cfg.backend, fallback=True)
                )
            self.eng = BsplineBatched(self.grid, self._table.array, config=cfg)
        else:
            self.eng = _ENGINES[payload["engine"]](self.grid, self._table.array)
        self.engine_name = payload["engine"]
        self.config = config
        shard = shard_slices(config.n_walkers, payload["n_workers"])[worker_id]
        self.walkers = range(shard.start, shard.stop)

    def run(self, kern: str) -> dict:
        """Evaluate kernel ``kern`` for every walker of this shard."""
        config = self.config
        kind = Kind(kern)
        batched = isinstance(self.eng, BsplineBatched)
        if batched:
            out = self.eng.new_output(kind, n=config.n_samples)
        else:
            out = self.eng.new_output(kind)
            kern_fn = getattr(self.eng, kind.value)
        count = 0
        t0 = time.perf_counter()
        for w in self.walkers:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=config.seed + 1, spawn_key=(w,))
            )
            positions = self.grid.random_positions(config.n_samples, rng)
            for _ in range(config.n_iters):
                if batched:
                    self.eng.evaluate_batch(kind, positions, out)
                else:
                    for x, y, z in positions:
                        kern_fn(x, y, z, out)
            count += config.n_iters * config.n_samples
        dt = time.perf_counter() - t0
        if OBS.enabled and count:
            layout = "aos" if self.engine_name == "aos" else "soa"
            OBS.kernel_eval(
                self.engine_name,
                kern,
                count,
                dt,
                count
                * kernel_bytes_moved(
                    kern, layout, config.n_splines, self._table.dtype.itemsize
                ),
            )
        return {"evals": count, "seconds": dt}

    def close(self) -> None:
        self.eng = None
        try:
            self._table.close()
        except BufferError:
            pass


def _init_driver_shard(worker_id: int, table_spec: dict, payload: dict):
    return _DriverShard(worker_id, table_spec, payload)


def _run_sharded(
    config: MiniQmcConfig,
    engine_name: str,
    kernels,
    P: np.ndarray,
    processes: int,
    start_method: str | None = None,
) -> DriverResult:
    """The shared process-mode loop behind both kernel drivers.

    Per kernel, one scatter/gather round over the pool; the recorded
    seconds are parent wall-clock (the number speedups come from), and
    the eval counts are the sum over shards — identical for any
    ``processes``.
    """
    from repro.parallel.pool import ProcessCrowdPool
    from repro.parallel.shared_table import SharedTable

    result = DriverResult(config=config, engine=engine_name)
    # The batched engine wants the ghost-padded table in the shared
    # segment so every worker attaches the halo zero-copy.
    shared = SharedTable.create(
        pad_table_3d(P) if engine_name == "batched" else P
    )
    table_spec = dict(shared.spec, n_workers=processes)
    payload = {
        "config": config,
        "engine": engine_name,
        "n_workers": processes,
        "run_config": (
            _batched_run_config(config) if engine_name == "batched" else None
        ),
    }
    try:
        with ProcessCrowdPool(
            processes,
            _init_driver_shard,
            (table_spec, payload),
            start_method=start_method,
        ) as pool:
            for kind in _as_kinds(kernels):
                kern = kind.value
                t0 = time.perf_counter()
                shards = pool.broadcast("run", kern)
                result.seconds[kern] = time.perf_counter() - t0
                result.evals[kern] = sum(s["evals"] for s in shards)
            pool.merge_metrics()
    finally:
        shared.close()
        shared.unlink()
    if OBS.enabled:
        OBS.gauge("driver_processes", processes)
    return _finalize(result)


def run_kernel_driver(
    config: MiniQmcConfig,
    engine: str = "soa",
    kernels: tuple[str, ...] = ("v", "vgl", "vgh"),
    coefficients: np.ndarray | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
    processes: int | None = None,
) -> DriverResult:
    """Paper Fig. 3: the flat (untiled) miniQMC kernel loop.

    Parameters
    ----------
    config:
        Problem and batch sizes.
    engine:
        ``"aos"``, ``"soa"``, ``"fused"`` or ``"batched"``.  The
        batched engine evaluates each walker's whole sample batch in
        one call through the ghost-padded, cache-tiled path
        (:mod:`repro.core.batched`), with its blocking resolved through
        ``config.run_config()`` — explicit fields, then ``REPRO_*``
        env, then the per-host tuned DB, then the cache heuristic.
    kernels:
        Which kernels to time.
    coefficients:
        Reuse a prebuilt table (avoids rebuilding across engine
        comparisons); defaults to a fresh random table.
    checkpoint_every:
        Checkpoint progress every this many walkers (per kernel).
    checkpoint_path:
        Checkpoint directory (required with ``checkpoint_every``).
    resume:
        Checkpoint to continue from; the run configuration must match.
    processes:
        Shard walkers over this many worker processes sharing the table
        through shared memory (see the module docstring).  ``None``
        keeps the sequential in-process loop.  Mutually exclusive with
        checkpointing.
    """
    if engine not in _ENGINES and engine != "batched":
        raise ValueError(f"unknown engine {engine!r}")
    _checkpoint_args_ok(checkpoint_every, checkpoint_path)
    P = coefficients if coefficients is not None else random_coefficients(config)
    if processes is not None:
        if checkpoint_every is not None or resume is not None:
            raise ValueError(
                "checkpoint/resume is a sequential-mode feature; "
                "run with processes=None to checkpoint"
            )
        return _run_sharded(config, engine, kernels, P, processes)
    nx, ny, nz = config.grid_shape
    grid = Grid3D(nx, ny, nz)
    if engine == "batched":
        eng = BsplineBatched(grid, P, config=_batched_run_config(config))
    else:
        eng = _ENGINES[engine](grid, P)
    batched = engine == "batched"
    result = DriverResult(config=config, engine=engine)
    fingerprint = _driver_fingerprint(config, engine, kernels)
    if resume is not None:
        start_ki, start_walker, rng = _resume_driver(resume, fingerprint, result)
    else:
        start_ki, start_walker = 0, 0
        rng = np.random.default_rng(config.seed + 1)
    for ki, kind in enumerate(_as_kinds(kernels)):
        if ki < start_ki:
            continue  # fully recorded in the restored result
        kern = kind.value
        if batched:
            out = eng.new_output(kind, n=config.n_samples)
        else:
            out = eng.new_output(kind)
            kern_fn = getattr(eng, kind.value)
        if ki == start_ki and start_walker:
            total = result.seconds.get(kern, 0.0)
            count = result.evals.get(kern, 0)
            first_walker = start_walker
        else:
            total = 0.0
            count = 0
            first_walker = 0
        for walker in range(first_walker, config.n_walkers):
            positions = grid.random_positions(config.n_samples, rng)
            t0 = time.perf_counter()
            for _ in range(config.n_iters):
                if batched:
                    eng.evaluate_batch(kind, positions, out)
                else:
                    for x, y, z in positions:
                        kern_fn(x, y, z, out)
            dt = time.perf_counter() - t0
            total += dt
            n_batch = config.n_iters * config.n_samples
            count += n_batch
            result.seconds[kern] = total
            result.evals[kern] = count
            if OBS.enabled:
                OBS.kernel_eval(
                    engine,
                    kern,
                    n_batch,
                    dt,
                    n_batch
                    * kernel_bytes_moved(
                        kern, eng.layout, config.n_splines, P.itemsize
                    ),
                )
                OBS.complete(
                    f"kernel:{kern}",
                    t0,
                    dt,
                    cat="miniqmc",
                    engine=engine,
                    walker=walker,
                )
            if checkpoint_every is not None and (walker + 1) % checkpoint_every == 0:
                _save_driver_checkpoint(
                    checkpoint_path, fingerprint, result, ki, walker + 1, rng
                )
    return _finalize(result)


def run_tiled_driver(
    config: MiniQmcConfig,
    n_threads: int = 1,
    kernels: tuple[str, ...] = ("v", "vgl", "vgh"),
    coefficients: np.ndarray | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume=None,
    retry_policy: RetryPolicy | None = None,
    processes: int | None = None,
) -> DriverResult:
    """Paper Fig. 6: the AoSoA driver, optionally nested (Opt C).

    Requires ``config.tile_size``; with ``n_threads > 1`` the tiles of
    each walker are distributed over a thread pool exactly as Sec. V-C
    describes.  With ``retry_policy`` set, nested worker failures are
    retried with backoff and, once exhausted, the evaluation degrades to
    single-threaded — the run completes either way, and the result
    carries the retry/fallback counts.

    ``processes`` shards *walkers* over worker processes (the outer
    level, complementing the within-walker tile threads); it requires
    ``n_threads == 1`` and no checkpointing/retry policy (those are
    sequential-mode features).
    """
    if not config.tile_size:
        raise ValueError("run_tiled_driver requires config.tile_size")
    _checkpoint_args_ok(checkpoint_every, checkpoint_path)
    P = coefficients if coefficients is not None else random_coefficients(config)
    if processes is not None:
        if checkpoint_every is not None or resume is not None:
            raise ValueError(
                "checkpoint/resume is a sequential-mode feature; "
                "run with processes=None to checkpoint"
            )
        if n_threads != 1 or retry_policy is not None:
            raise ValueError(
                "processes shards walkers over worker processes; nested "
                "threads/retry policies apply to the sequential path only"
            )
        return _run_sharded(
            config, f"aosoa{config.tile_size}", kernels, P, processes
        )
    nx, ny, nz = config.grid_shape
    grid = Grid3D(nx, ny, nz)
    eng = BsplineAoSoA(grid, P, config.tile_size)
    result = DriverResult(config=config, engine=f"aosoa{config.tile_size}")
    fingerprint = _driver_fingerprint(config, result.engine, kernels)
    if resume is not None:
        start_ki, start_walker, rng = _resume_driver(resume, fingerprint, result)
    else:
        start_ki, start_walker = 0, 0
        rng = np.random.default_rng(config.seed + 1)
    nested = NestedEvaluator(eng, n_threads) if n_threads > 1 else None
    evaluator = nested
    if nested is not None and retry_policy is not None:
        evaluator = ResilientEvaluator(nested, retry_policy)
    if OBS.enabled:
        OBS.gauge("driver_tiles", eng.n_tiles)
        OBS.gauge("driver_threads", n_threads)
        OBS.gauge(
            "driver_tile_occupancy", min(n_threads, eng.n_tiles) / n_threads
        )
    try:
        for ki, kind in enumerate(_as_kinds(kernels)):
            if ki < start_ki:
                continue
            kern = kind.value
            out = eng.new_output(kind)
            if ki == start_ki and start_walker:
                total = result.seconds.get(kern, 0.0)
                count = result.evals.get(kern, 0)
                first_walker = start_walker
            else:
                total = 0.0
                count = 0
                first_walker = 0
            for walker in range(first_walker, config.n_walkers):
                positions = grid.random_positions(config.n_samples, rng)
                t0 = time.perf_counter()
                for _ in range(config.n_iters):
                    if evaluator is not None:
                        evaluator.evaluate(kind, positions, out)
                    else:
                        kern_fn = getattr(eng, kind.value)
                        for x, y, z in positions:
                            kern_fn(x, y, z, out)
                dt = time.perf_counter() - t0
                total += dt
                n_batch = config.n_iters * config.n_samples
                count += n_batch
                result.seconds[kern] = total
                result.evals[kern] = count
                if OBS.enabled:
                    OBS.kernel_eval(
                        result.engine,
                        kern,
                        n_batch,
                        dt,
                        n_batch
                        * kernel_bytes_moved(
                            kern, "soa", config.n_splines, P.itemsize
                        ),
                    )
                    OBS.complete(
                        f"kernel:{kern}",
                        t0,
                        dt,
                        cat="miniqmc",
                        engine=result.engine,
                        walker=walker,
                        n_threads=n_threads,
                    )
                if checkpoint_every is not None and (walker + 1) % checkpoint_every == 0:
                    _save_driver_checkpoint(
                        checkpoint_path, fingerprint, result, ki, walker + 1, rng
                    )
    finally:
        if nested is not None:
            nested.close()
    if isinstance(evaluator, ResilientEvaluator):
        result.retries = evaluator.retries
        result.fallbacks = evaluator.fallbacks
    return _finalize(result)
