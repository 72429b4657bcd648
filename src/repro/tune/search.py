"""Empirical auto-tuning: measure candidates, gate them, persist winners.

The PR5 planner (:mod:`repro.tune.planner`) picks (chunk, tile) from
cache sizes alone — a good default, but the paper's own message
(Sec. VI-B) is that the best blocking is an *empirical* property of the
(hardware, N) pair.  This module closes that loop:

1. **Candidates.** :func:`candidate_configs` crosses a small set of
   chunk sizes (powers of two around the heuristic pick, plus the whole
   batch — the Python-dispatch-free extreme the static planner's
   ``CHUNK_MAX`` clamp can never reach) with spline tiles ranked by the
   execution-time model (:class:`repro.hwsim.perfmodel.BsplinePerfModel`
   over a :func:`~repro.hwsim.machine.host_machine_spec` of this host's
   measured cache hierarchy).  The model prunes, it never decides: only
   measured time picks the winner.
2. **Gate.** Every candidate is verified against the frozen PR4 oracle
   (:class:`repro.core.batched_reference.ReferenceBatched`) **before**
   it is timed: only bit-for-bit equality
   (``np.testing.assert_array_equal``) survives, and the stored
   :class:`~repro.tune.db.TunedConfig` records the ``exact`` tier.
3. **Measure.** Each survivor is timed best-of-``repeats`` on a real
   kernel call at the exact problem shape (a few ms per candidate); the
   static heuristic plan is always among the candidates, so the stored
   ``speedup`` is an honest measured ratio against PR5, never < ~1.
4. **Persist.** The winner lands in the per-host
   :class:`~repro.tune.db.TuneDB`; the next process (or host reboot)
   resolves it with zero measurements.

Tuning is *value*-independent (kernel cost depends on shapes and
dtypes, not coefficients — the same argument as
:func:`repro.miniqmc.config.random_coefficients`), so
:func:`autotune_shape` synthesizes a Gaussian table when the caller has
no real one at hand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.obs import OBS
from repro.tune.db import TuneDB, TunedConfig, TuneShape
from repro.tune.planner import detect_caches, plan_tiles

__all__ = [
    "TuneOutcome",
    "autotune_shape",
    "autotune_table",
    "candidate_configs",
]

#: Timing repeats per candidate (best-of; the minimum is the estimator
#: least sensitive to scheduler noise for sub-ms kernels).
DEFAULT_REPEATS = 3

#: Cap on gated-and-timed candidates per search.
DEFAULT_MAX_CANDIDATES = 16

#: Synthetic-table grid for shape-only tuning: large enough that the
#: gather walks realistic strides, small enough to build in ~ms.
_SYNTH_GRID = (16, 16, 16)


@dataclass(frozen=True)
class TuneOutcome:
    """What a tuning request did.

    ``from_db`` is True when the config was served from the database
    without any micro-benchmark; ``measured`` counts the candidate
    configurations actually timed (0 on a warm hit — the property the
    CI round-trip job asserts).
    """

    shape: TuneShape
    config: TunedConfig
    from_db: bool
    measured: int


def _pow2_below(n: int) -> list[int]:
    out, p = [], 1
    while p <= n:
        out.append(p)
        p *= 2
    return out


def _model_ranked_tiles(n_splines: int, caches, batch: int) -> list[int]:
    """Spline tiles ranked by modeled VGH throughput on this host.

    The model speaks the paper's dialect — tiles that divide N — so
    non-divisor candidates are scored by their nearest divisor.  Model
    failure (tiny N, degenerate spec) falls back to the unranked list.
    """
    candidates = sorted(
        {t for t in _pow2_below(n_splines) if t >= 8} | {n_splines}
    )
    try:
        from repro.hwsim.machine import host_machine_spec
        from repro.hwsim.perfmodel import BsplinePerfModel

        spec = host_machine_spec(caches.l2_bytes, caches.llc_bytes)
        model = BsplinePerfModel(spec)
        divisors = [d for d in range(1, n_splines + 1) if n_splines % d == 0]

        def score(tile: int) -> float:
            nb = min(divisors, key=lambda d: abs(d - tile))
            res = model.evaluate("vgh", "aosoa", n_splines, nb, n_walkers=batch)
            return -res.throughput

        candidates.sort(key=score)
    except Exception:
        pass
    return candidates


def candidate_configs(
    shape: TuneShape,
    itemsize: int,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> list[tuple[int, int]]:
    """Pruned (chunk, tile) candidates for a shape, heuristic included.

    Chunks: powers of two from 16 to the batch, the whole batch itself,
    and the heuristic pick.  Tiles: the top model-ranked widths plus the
    heuristic's.  The cross product is clipped to ``max_candidates``,
    always keeping the heuristic plan (the measured baseline) first.
    """
    caches = detect_caches()
    heuristic = plan_tiles(shape.n_splines, itemsize, caches=caches)
    batch = shape.batch
    chunks = sorted(
        {c for c in _pow2_below(batch) if c >= 16}
        | {batch, heuristic.chunk, min(heuristic.chunk, batch)}
    )
    chunks = [min(c, batch) for c in chunks]
    tiles = _model_ranked_tiles(shape.n_splines, caches, batch)[:4]
    tiles = list(
        dict.fromkeys([heuristic.tile] + [min(t, shape.n_splines) for t in tiles])
    )
    tiles = [max(t, 2) if shape.n_splines > 1 else 1 for t in tiles]
    configs = [(heuristic.chunk, heuristic.tile)]
    # Explore chunks nearest the heuristic pick first (log-space): the
    # best blocking is usually a small factor off the static plan, so
    # under the candidate cap the 2x/4x neighbours must be measured
    # before the extremes, not clipped away by them.
    anchor = np.log2(max(heuristic.chunk, 1))
    ordered_chunks = sorted(
        set(chunks), key=lambda c: (abs(np.log2(max(c, 1)) - anchor), -c)
    )
    for chunk in ordered_chunks:
        for tile in tiles:
            pair = (int(chunk), int(tile))
            if pair not in configs:
                configs.append(pair)
    return configs[:max_candidates]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _gate(candidate_out, reference_out, kind: str) -> bool:
    """Whether every stream the kind writes equals the oracle's bitwise."""
    from repro.core.batched import _KERNEL_STREAMS

    return all(
        np.array_equal(
            getattr(candidate_out, s), getattr(reference_out, s), equal_nan=True
        )
        for s in _KERNEL_STREAMS[kind]
    )


def autotune_table(
    grid,
    table: np.ndarray,
    shape: TuneShape,
    db: TuneDB | None = None,
    backend: str | None = None,
    repeats: int = DEFAULT_REPEATS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    force: bool = False,
    persist: bool = True,
) -> TuneOutcome:
    """Search (chunk, tile) for a concrete table; persist the winner.

    A warm database hit (same host, same shape, exact tier) returns
    immediately with zero measurements unless ``force``.  Positions are
    seeded from the shape, so two searches at the same shape time the
    same work.

    ``backend`` is the spec every candidate engine resolves (a name, or
    None / ``"auto"`` for the default); the stored winner records the
    backend it ran under.  The measured baseline is the heuristic plan,
    so ``speedup`` is an honest ratio against PR5.
    """
    from repro.core.batched import BsplineBatched
    from repro.core.batched_reference import ReferenceBatched
    from repro.core.kinds import Kind

    if db is None:
        db = TuneDB()
    if not force:
        stored = db.get(shape)
        if stored is not None:
            if OBS.enabled:
                OBS.count("tune_db_hits_total")
            return TuneOutcome(shape, stored, from_db=True, measured=0)

    kind = Kind(shape.kind)  # shape.kind is already normalized
    rng = np.random.default_rng(shape.n_splines * 1_000_003 + shape.batch)
    positions = rng.random((shape.batch, 3))
    # The gate's truth: the frozen PR4 oracle over the unpadded table.
    nx, ny, nz = grid.shape
    unpadded = (
        table[1 : nx + 1, 1 : ny + 1, 1 : nz + 1]
        if table.shape[:3] == grid.padded_shape
        else table
    )
    reference = ReferenceBatched(grid, unpadded)
    ref_out = reference.new_output(kind, n=shape.batch)
    reference.evaluate_batch(kind, positions, ref_out)

    itemsize = np.dtype(table.dtype).itemsize
    candidates = candidate_configs(shape, itemsize, max_candidates)
    rows: list[tuple[float, int, int, str]] = []
    baseline_seconds = None
    for i, (chunk, tile) in enumerate(candidates):
        engine = BsplineBatched(
            grid, table, chunk_size=chunk, tile_size=tile, backend=backend
        )
        out = engine.new_output(kind, n=shape.batch)
        engine.evaluate_batch(kind, positions, out)
        if not _gate(out, ref_out, kind.value):
            continue  # a config that cannot reproduce the oracle is dead
        secs = _best_of(
            lambda: engine.evaluate_batch(kind, positions, out), repeats
        )
        if OBS.enabled:
            OBS.count("tune_measurements_total")
            OBS.observe("tune_candidate_seconds", secs, kind=kind.value)
        if i == 0:
            baseline_seconds = secs  # candidates[0] is the heuristic plan
        rows.append((secs, chunk, tile, engine.backend.name))
    if not rows:
        raise RuntimeError(
            f"no candidate configuration passed the conformance gate for "
            f"{shape.key} (backend={backend!r})"
        )
    secs, chunk, tile, backend_name = min(rows, key=lambda r: r[0])
    if baseline_seconds is None:
        baseline_seconds = secs
    measured = len(rows)
    config = TunedConfig(
        chunk=chunk,
        tile=tile,
        backend=backend_name,
        seconds=secs,
        baseline_seconds=baseline_seconds,
        speedup=baseline_seconds / secs if secs > 0 else 1.0,
        candidates=measured,
    )
    if persist:
        db.put(shape, config)
    if OBS.enabled:
        OBS.count("tune_searches_total")
        OBS.gauge("tune_winner_chunk", chunk)
        OBS.gauge("tune_winner_tile", tile)
    return TuneOutcome(shape, config, from_db=False, measured=measured)


def autotune_shape(
    shape: TuneShape,
    db: TuneDB | None = None,
    backend: str | None = None,
    grid_shape: tuple[int, int, int] = _SYNTH_GRID,
    repeats: int = DEFAULT_REPEATS,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    force: bool = False,
    persist: bool = True,
) -> TuneOutcome:
    """Like :func:`autotune_table`, over a synthetic Gaussian table.

    The path the CLI (``python -m repro tune run``) and the
    on-first-use hook take when no real table is in scope; kernel cost
    is coefficient-value independent, so the measured winner transfers.
    """
    if db is None:
        db = TuneDB()
    if not force:
        stored = db.get(shape)
        if stored is not None:
            if OBS.enabled:
                OBS.count("tune_db_hits_total")
            return TuneOutcome(shape, stored, from_db=True, measured=0)
    from repro.core.grid import Grid3D

    nx, ny, nz = grid_shape
    rng = np.random.default_rng(2017)
    table = rng.standard_normal((nx, ny, nz, shape.n_splines)).astype(shape.dtype)
    grid = Grid3D(nx, ny, nz, (1.0, 1.0, 1.0))
    return autotune_table(
        grid,
        table,
        shape,
        db=db,
        backend=backend,
        repeats=repeats,
        max_candidates=max_candidates,
        force=force,
        persist=persist,
    )
