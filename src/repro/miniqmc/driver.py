"""miniQMC kernel drivers — the Python port of paper Figs. 3 and 6.

``run_kernel_driver`` is Fig. 3: per walker, generate ns random positions
and push them through V, VGL and VGH against a shared read-only table.
``run_tiled_driver`` is Fig. 6: the same samples against an AoSoA engine,
optionally with nested threads per walker (Opt C).

One walker loop serves both drivers, in-process and in their worker
processes: walker ``w`` is evaluated at ``grid.random_positions(ns,
walker_rng(seed, w))`` — a stream keyed by its global index only (see
:mod:`repro.parallel.sharding`) — through the engine's
``evaluate_batch`` or the nested evaluator's ``evaluate``.  So the
positions evaluated do not depend on ``processes``, on which shard a
walker lands in, or on where a resumed run picks up.  Since walkers
share nothing but the read-only table, per-eval cost — and therefore
every layout *comparison* — is the same sequential or sharded.  The
returned :class:`DriverResult` carries the paper's throughput metric
per kernel.

Resilience: both drivers accept ``checkpoint_every`` (walkers) /
``checkpoint_path`` / ``resume`` so a killed benchmark run does not
repeat completed work — the checkpoint carries accumulated per-kernel
seconds/evals and the next walker, and the resumed run evaluates the
remaining walkers at the positions the uninterrupted run would have.
``run_tiled_driver`` additionally takes a
:class:`~repro.resilience.retry.RetryPolicy` that wraps the nested
evaluator in bounded retry-with-backoff and single-threaded fallback
(:class:`~repro.resilience.retry.ResilientEvaluator`).

Process parallelism: both drivers accept ``processes`` — walkers are
split contiguously (:func:`~repro.parallel.sharding.shard_slices`) over
a :class:`~repro.parallel.pool.ProcessCrowdPool` whose workers attach
the coefficient table through a
:class:`~repro.parallel.shared_table.SharedTable` (one physical copy, as
in paper Fig. 3, at process scope).  Checkpointing is a sequential-mode
feature — combining it with ``processes`` raises.
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
from repro.parallel.pool import ProcessCrowdPool
from repro.parallel.sharding import shard_slices, walker_rng
from repro.parallel.shared_table import SharedTable
from repro.perf.throughput import throughput
from repro.resilience.checkpoint import (
    CheckpointError,
    load_checkpoint,
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


def _engine(name: str, table: np.ndarray, config: MiniQmcConfig, run_config=None):
    """The engine a driver names: ``aos``/``soa``/``fused``, ``batched``
    (blocked by ``run_config``) or ``aosoa<Nb>`` (``config.tile_size``)."""
    grid = Grid3D(*config.grid_shape)
    if name.startswith("aosoa"):
        return BsplineAoSoA(grid, table, config.tile_size)
    if name == "batched":
        return BsplineBatched(grid, table, config=run_config)
    return _ENGINES[name](grid, table)


def _check_checkpoint_args(
    checkpoint_every, checkpoint_path, resume, processes
) -> None:
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
    if processes is not None and (checkpoint_every is not None or resume is not None):
        raise ValueError(
            "checkpoint/resume is a sequential-mode feature; "
            "run with processes=None to checkpoint"
        )


# -- the one walker loop ------------------------------------------------------


def _walker_evals(
    evaluate, eng, kind: Kind, config: MiniQmcConfig, walkers, engine: str,
    **span_args,
):
    """Evaluate ``kind`` for each walker in ``walkers``, in order.

    Walker ``w`` runs ``config.n_iters`` calls of ``evaluate(kind,
    positions, out)`` — an engine's ``evaluate_batch`` or a nested
    evaluator's ``evaluate`` — at ``eng.grid.random_positions(n_samples,
    walker_rng(config.seed, w))``, into one output buffer.  Yields
    ``(w, evals, seconds)`` per walker, the seconds covering the kernel
    calls only, and reports the same to OBS (eval count, modelled bytes
    and a ``kernel:<kind>`` span tagged with ``engine``, ``walker`` and
    ``span_args``).
    """
    n_out = config.n_samples if isinstance(eng, BsplineBatched) else 1
    out = eng.new_output(kind, n=n_out)
    n_evals = config.n_iters * config.n_samples
    bytes_per_eval = kernel_bytes_moved(
        kind.value, eng.layout, config.n_splines, eng.dtype.itemsize
    )
    for w in walkers:
        positions = eng.grid.random_positions(
            config.n_samples, walker_rng(config.seed, w)
        )
        t0 = time.perf_counter()
        for _ in range(config.n_iters):
            evaluate(kind, positions, out)
        dt = time.perf_counter() - t0
        if OBS.enabled:
            OBS.kernel_eval(
                engine, kind.value, n_evals, dt, n_evals * bytes_per_eval
            )
            OBS.complete(
                f"kernel:{kind.value}",
                t0,
                dt,
                cat="miniqmc",
                engine=engine,
                walker=w,
                **span_args,
            )
        yield w, n_evals, dt


def _run_in_process(
    result: DriverResult,
    evaluate,
    eng,
    kernels,
    checkpoint_every: int | None,
    checkpoint_path,
    resume,
    **span_args,
) -> DriverResult:
    """Every kernel over every walker in this process.

    Checkpoints every ``checkpoint_every`` walkers (per kernel); with
    ``resume``, the kernels and walkers the checkpoint recorded are
    skipped and their counters restored.
    """
    config = result.config
    fingerprint = _driver_fingerprint(config, result.engine, kernels)
    start_ki, start_walker = 0, 0
    if resume is not None:
        start_ki, start_walker = _resume_driver(resume, fingerprint, result)
    for ki, kind in enumerate(_as_kinds(kernels)):
        if ki < start_ki:
            continue  # fully recorded in the restored result
        kern = kind.value
        first = start_walker if ki == start_ki else 0
        if not first:
            result.seconds[kern] = 0.0
            result.evals[kern] = 0
        walkers = range(first, config.n_walkers)
        for w, n_evals, dt in _walker_evals(
            evaluate, eng, kind, config, walkers, result.engine, **span_args
        ):
            result.seconds[kern] += dt
            result.evals[kern] += n_evals
            if checkpoint_every is not None and (w + 1) % checkpoint_every == 0:
                save_checkpoint(
                    checkpoint_path,
                    {
                        "kind": "kernel_driver",
                        "fingerprint": fingerprint,
                        "kernel_index": ki,
                        "walkers_done": w + 1,
                        "seconds": result.seconds,
                        "evals": result.evals,
                    },
                )
    return _finalize(result)


def _resume_driver(resume, fingerprint: dict, result: DriverResult):
    """Restore progress counters; returns (kernel_index, walkers_done).

    Positions come from per-walker streams, so a checkpoint needs no RNG
    state; the ``rng_state`` older checkpoints carry is ignored.
    """
    ckpt = load_checkpoint(resume, expect_kind="kernel_driver")
    if ckpt.manifest["fingerprint"] != fingerprint:
        raise CheckpointError(
            f"driver checkpoint does not match this run: saved "
            f"{ckpt.manifest['fingerprint']!r}, requested {fingerprint!r}"
        )
    result.seconds.update(ckpt.manifest["seconds"])
    result.evals.update({k: int(v) for k, v in ckpt.manifest["evals"].items()})
    return int(ckpt.manifest["kernel_index"]), int(ckpt.manifest["walkers_done"])


# -- process-parallel walker sharding ----------------------------------------


class _DriverShard:
    """Worker-process state for the process-parallel kernel drivers.

    The pool initializer: attaches the shared coefficient table, builds
    the engine once, and runs the drivers' walker loop over this
    worker's contiguous walker range per ``run(kern)`` call.
    """

    def __init__(self, worker_id: int, table_spec: dict, payload: dict):
        self._table = SharedTable.attach(table_spec)
        config: MiniQmcConfig = payload["config"]
        # The batched engine adopts the parent's ghost-padded table
        # zero-copy, with blocking pre-resolved parent-side; only the
        # backend resolves here — fleet-worker policy, degrading to
        # NumPy (warned + counted) if this process can't serve it.
        cfg = payload["run_config"]
        if cfg is not None and cfg.backend is not None and not hasattr(
            cfg.backend, "capability"
        ):
            from repro.backends import resolve_backend

            cfg = cfg.replace(backend=resolve_backend(cfg.backend, fallback=True))
        self.eng = _engine(payload["engine"], self._table.array, config, cfg)
        self.engine_name = payload["engine"]
        self.config = config
        shard = shard_slices(config.n_walkers, table_spec["n_workers"])[worker_id]
        self.walkers = range(shard.start, shard.stop)

    def run(self, kern: str) -> int:
        """Evaluate kernel ``kern`` for every walker of this shard;
        returns the eval count."""
        return sum(
            n_evals
            for _, n_evals, _ in _walker_evals(
                self.eng.evaluate_batch,
                self.eng,
                Kind(kern),
                self.config,
                self.walkers,
                self.engine_name,
            )
        )

    def close(self) -> None:
        self.eng = None
        try:
            self._table.close()
        except BufferError:
            pass


def _run_sharded(
    config: MiniQmcConfig,
    engine_name: str,
    kernels,
    P: np.ndarray,
    processes: int,
) -> DriverResult:
    """The process-mode run behind both kernel drivers.

    Per kernel, one scatter/gather round over the pool; the recorded
    seconds are parent wall-clock (the number speedups come from), and
    the eval counts are the sum over shards — identical for any
    ``processes``.
    """
    result = DriverResult(config=config, engine=engine_name)
    # The batched engine wants the ghost-padded table in the shared
    # segment so every worker attaches the halo zero-copy.
    shared = SharedTable.create(
        pad_table_3d(P) if engine_name == "batched" else P
    )
    payload = {
        "config": config,
        "engine": engine_name,
        "run_config": (
            _batched_run_config(config) if engine_name == "batched" else None
        ),
    }
    try:
        with ProcessCrowdPool(
            processes, _DriverShard, (dict(shared.spec, n_workers=processes), payload)
        ) as pool:
            for kind in _as_kinds(kernels):
                kern = kind.value
                t0 = time.perf_counter()
                result.evals[kern] = sum(pool.broadcast("run", kern))
                result.seconds[kern] = time.perf_counter() - t0
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
        runs the walkers in this process.  Mutually exclusive with
        checkpointing.
    """
    if engine not in _ENGINES and engine != "batched":
        raise ValueError(f"unknown engine {engine!r}")
    _check_checkpoint_args(checkpoint_every, checkpoint_path, resume, processes)
    P = coefficients if coefficients is not None else random_coefficients(config)
    if processes is not None:
        return _run_sharded(config, engine, kernels, P, processes)
    run_config = _batched_run_config(config) if engine == "batched" else None
    eng = _engine(engine, P, config, run_config)
    return _run_in_process(
        DriverResult(config=config, engine=engine),
        eng.evaluate_batch,
        eng,
        kernels,
        checkpoint_every,
        checkpoint_path,
        resume,
    )


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
    _check_checkpoint_args(checkpoint_every, checkpoint_path, resume, processes)
    if processes is not None and (n_threads != 1 or retry_policy is not None):
        raise ValueError(
            "processes shards walkers over worker processes; nested "
            "threads/retry policies apply to the sequential path only"
        )
    P = coefficients if coefficients is not None else random_coefficients(config)
    name = f"aosoa{config.tile_size}"
    if processes is not None:
        return _run_sharded(config, name, kernels, P, processes)
    eng = _engine(name, P, config)
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
        result = _run_in_process(
            DriverResult(config=config, engine=name),
            evaluator.evaluate if evaluator is not None else eng.evaluate_batch,
            eng,
            kernels,
            checkpoint_every,
            checkpoint_path,
            resume,
            n_threads=n_threads,
        )
    finally:
        if nested is not None:
            nested.close()
    if isinstance(evaluator, ResilientEvaluator):
        result.retries = evaluator.retries
        result.fallbacks = evaluator.fallbacks
    return result
