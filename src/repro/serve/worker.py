"""The serving worker's process-side state.

One :class:`ServeShard` lives in each :class:`ProcessCrowdPool` worker.
Unlike the crowd/VMC shards (one fixed walker range for the whole run),
a serving shard is a *multi-tenant kernel executor*: it keeps two small
caches keyed by what requests actually touch —

* attached :class:`~repro.parallel.shared_table.SharedTable` mappings,
  by segment name (zero-copy views of the parent's cached tables);
* built :class:`~repro.core.batched.BsplineBatched` engines, by
  ``(segment name, backend name)`` — construction is cheap but not
  free, and a hot tenant system reuses its engine across batches.

The parent's table cache evicts by LRU; unlinked segment *names* ride
along with the next batch dispatched to each worker (``release``), so
mappings are dropped lazily without an extra broadcast round-trip.

Backend policy mirrors the fleet workers: the parent validates a
requested backend strictly (a tenant naming an unavailable backend gets
a protocol error, not a worker crash); the shard re-resolves the
already-validated name with ``fallback=True`` so a heterogeneous node
degrades loudly instead of dying.
"""

from __future__ import annotations

import numpy as np

from repro.core.batched import BsplineBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.obs import OBS
from repro.parallel.crowd import CrowdSpec, _CrowdShard
from repro.parallel.shared_table import SharedTable

__all__ = ["ServeShard"]


class ServeShard:
    """Per-worker state serving eval/VMC/DMC requests over cached tables."""

    def __init__(self, worker_id: int, observe: bool = False, config=None):
        self.worker_id = int(worker_id)
        if observe and not OBS.enabled:
            OBS.enable()
        # The server's RunConfig (rungs 1-2 already applied parent-side);
        # engines built here finish rungs 3-4 against each table's shape.
        self._config = config
        self._tables: dict[str, SharedTable] = {}
        # Engines are keyed by (segment, backend, spline_range): full-width
        # engines use spline_range=None, orbital-block engines the (lo, hi)
        # column window they evaluate (see eval_block).
        self._engines: dict[
            tuple[str, str | None, tuple[int, int] | None], BsplineBatched
        ] = {}

    # -- table / engine caches ----------------------------------------------

    def _attach(self, table_spec: dict) -> SharedTable:
        table = self._tables.get(table_spec["name"])
        if table is None:
            table = SharedTable.attach(table_spec)
            self._tables[table_spec["name"]] = table
        return table

    def _engine(
        self,
        table_spec: dict,
        grid_shape,
        backend: str | None,
        spline_range: tuple[int, int] | None = None,
    ) -> BsplineBatched:
        key = (table_spec["name"], backend, spline_range)
        engine = self._engines.get(key)
        if engine is None:
            from repro.config import RunConfig

            table = self._attach(table_spec)
            nx, ny, nz = (int(g) for g in grid_shape)
            grid = Grid3D(nx, ny, nz, (1.0, 1.0, 1.0))
            cfg = self._config if self._config is not None else RunConfig.from_env()
            if backend is not None:
                from repro.backends import resolve_backend

                cfg = cfg.replace(backend=resolve_backend(backend, fallback=True))
            if not cfg.is_resolved:
                n_splines = int(table.array.shape[-1])
                cfg = cfg.resolved_for(
                    n_splines, batch=max(n_splines, 1), dtype=table.array.dtype
                )
            engine = BsplineBatched(
                grid, table.array, config=cfg, spline_range=spline_range
            )
            self._engines[key] = engine
        return engine

    def release(self, names: list[str]) -> int:
        """Detach evicted segments (and drop their engines); returns how
        many mappings were actually released."""
        released = 0
        for name in names:
            for key in [k for k in self._engines if k[0] == name]:
                del self._engines[key]
            table = self._tables.pop(name, None)
            if table is not None:
                try:
                    table.close()
                except BufferError:
                    pass  # a lingering view dies with the worker
                released += 1
        return released

    # -- request execution ---------------------------------------------------

    def eval_batch(
        self,
        table_spec: dict,
        grid_shape,
        kind_value: str,
        positions: np.ndarray,
        backend: str | None = None,
        release: list[str] | None = None,
    ) -> dict:
        """One fused kernel call over a coalesced position batch.

        ``positions`` is the concatenation of every rider's fractional
        positions; the parent slices the returned streams back per
        request.  Results for each position are bitwise independent of
        the batch composition (the coalescing contract).
        """
        if release:
            self.release(release)
        engine = self._engine(table_spec, grid_shape, backend)
        kind = Kind(kind_value)
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        out = engine.new_output(kind, n=len(positions))
        engine.evaluate_batch(kind, positions, out)
        if OBS.enabled:
            OBS.count("serve_worker_evals_total")
            OBS.observe("serve_worker_batch_positions", len(positions))
        return {
            stream: np.array(getattr(out, stream)) for stream in kind.streams
        }

    def eval_block(
        self,
        table_spec: dict,
        grid_shape,
        kind_value: str,
        positions: np.ndarray,
        spline_range,
        backend: str | None = None,
        release: list[str] | None = None,
    ) -> dict:
        """One kernel call over an *orbital block* of the cached table.

        The Opt C serving path: the server splits a small batch's spline
        axis into contiguous blocks, dispatches one ``eval_block`` per
        leased worker, and concatenates the returned block-width streams
        column-wise — byte-identical to a full-width :meth:`eval_batch`
        (the spline-axis blocking invariance of
        :class:`~repro.core.batched.BsplineBatched`).  Block engines view
        their column window of the shared table zero-copy and are cached
        alongside the full-width ones.
        """
        if release:
            self.release(release)
        lo, hi = (int(b) for b in spline_range)
        engine = self._engine(table_spec, grid_shape, backend, spline_range=(lo, hi))
        kind = Kind(kind_value)
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        out = engine.new_output(kind, n=len(positions))
        engine.evaluate_batch(kind, positions, out)
        if OBS.enabled:
            OBS.count("serve_worker_evals_total")
            OBS.count("serve_worker_block_evals_total")
            OBS.observe("serve_worker_batch_positions", len(positions))
        return {
            stream: np.array(getattr(out, stream)) for stream in kind.streams
        }

    def run_vmc(
        self,
        table_spec: dict,
        spec_fields: dict,
        n_steps: int,
        n_warmup: int,
        tau: float,
        ion_charge: float,
        release: list[str] | None = None,
    ) -> dict:
        """A short VMC run over the cached (float64) table.

        Reuses the crowd machinery end to end: deterministic walkers
        from the spec's seeds over the attached padded table, advanced
        by the batched population step — bit-identical to
        ``run_vmc_population(spec, processes=False)`` on the same spec.
        """
        if release:
            self.release(release)
        table = self._attach(table_spec)
        shard = _CrowdShard(CrowdSpec(**spec_fields), table.array)
        out = shard.vmc(n_steps, n_warmup, tau, ion_charge)
        if OBS.enabled:
            OBS.count("serve_worker_vmc_total")
        return out

    def run_dmc(
        self,
        spec_fields: dict,
        n_generations: int,
        tau: float,
        ion_charge: float,
        release: list[str] | None = None,
    ) -> dict:
        """A short DMC run, built and propagated entirely in-worker.

        DMC ensembles branch (population changes every generation), so
        they do not slice out of a shared table the way eval/VMC do;
        the worker builds the deterministic ensemble itself.
        """
        if release:
            self.release(release)
        from repro.qmc.dmc import build_dmc_ensemble, run_dmc
        from repro.qmc.rng import WalkerRngPool

        spec = CrowdSpec(**spec_fields)
        pool = WalkerRngPool(spec.seed)
        walkers = build_dmc_ensemble(
            pool,
            spec.n_walkers,
            n_orbitals=spec.n_orbitals,
            box=spec.box,
            grid_shape=spec.grid_shape,
            config=spec.run_config(),
        )
        result = run_dmc(
            walkers,
            pool,
            n_generations=n_generations,
            tau=tau,
            ion_charge=ion_charge,
        )
        if OBS.enabled:
            OBS.count("serve_worker_dmc_total")
        return {
            "energy_trace": np.asarray(result.energy_trace),
            "population_trace": np.asarray(result.population_trace),
            "acceptance": float(result.acceptance),
            "energy_mean": float(result.energy_mean),
        }

    def close(self) -> None:
        """Drop engines, then detach every mapped segment."""
        self._engines.clear()
        self.release(list(self._tables))


def _init_serve_shard(
    worker_id: int, observe: bool = False, config=None
) -> ServeShard:
    """Module-level initializer (picklable under ``spawn``)."""
    return ServeShard(worker_id, observe=observe, config=config)
