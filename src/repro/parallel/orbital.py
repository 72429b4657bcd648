"""Orbital-axis sharding with zero-copy shared output buffers (Opt C).

The paper's Opt C (Sec. V-C, Fig. 9) is the answer to a starved node:
when there are fewer walkers than cores, split the spline dimension N
into contiguous blocks and let several workers cooperate on *one*
walker.  :mod:`repro.core.nested` reproduces that thread-side on the
AoSoA layout; this module brings it to the production
:class:`~repro.core.batched.BsplineBatched` path at **process** scope,
composed with the existing walker sharding into a 2D grid:

* **rows** — position (walker) ranges, the classic walker shard;
* **columns** — orbital blocks from
  :func:`repro.core.partition.plan_orbital_blocks`, each evaluated by a
  block engine built with ``spline_range=(lo, hi)`` against the same
  zero-copy :class:`~repro.parallel.shared_table.SharedTable` every
  worker already attaches.

Results never ride a pipe.  A :class:`SharedOutputRing` preallocates
positions + V/VGL/VGH output buffers in one POSIX shared-memory
segment; the parent writes positions into a slot, each worker evaluates
its (row range x orbital block) rectangle **directly into views of the
slot** (:meth:`repro.core.batched.BatchedOutput.from_views`), and the
parent reads the assembled full-width result back out.  Only tiny
control tuples (method name, slot, row/column bounds) cross the pipes —
for both the new orbital path and a walker-only topology (``K=1``),
which is how ``benchmarks/bench_pr10.py`` measures the pipe-vs-shm
gather delta separately from the 2D-sharding win.

**Bitwise contract.**  Per-position results are independent of batch
composition (the PR5 contract), and per-column einsum results are
independent of how the spline axis is blocked — *except* for width-1
blocks, which NumPy's einsum dispatches to a different inner loop
(ulp-level differences).  :func:`~repro.core.partition.plan_orbital_blocks`
therefore never emits a width-1 block, and the concatenated block
outputs ``assert_array_equal`` the single-engine result at any shard
count, start method, and dtype (the tested gate).

**Fault model.**  All control flow is parent-dispatched: every block
evaluation is an independent supervised call, so a SIGKILL'd worker is
restarted by the :class:`~repro.fleet.supervisor.FleetSupervisor`
(orbital shards are **stateless replicas** — the initializer rebuilds
table + ring attachments and block engines deterministically, no
journal, no walker homes to migrate) and the re-issued call rewrites
exactly its rectangle of the slot.  Recovery is bit-identical.
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np

from repro.core.batched import _KERNEL_STREAMS, BatchedOutput, BsplineBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.core.partition import partition, plan_orbital_blocks
from repro.obs import OBS, kernel_bytes_moved
from repro.parallel.pool import ProcessCrowdPool
from repro.parallel.shared_table import SharedTable

__all__ = [
    "SharedOutputRing",
    "OrbitalWorker",
    "OrbitalEvaluator",
    "choose_split",
    "resolve_split",
    "plan_orbital_blocks",
]

#: Stream shapes per position: (trailing axes between ns and N).
_STREAM_AXES = {"v": (), "g": (3,), "l": (), "h": (6,)}

_SPLITS = ("walkers", "orbitals", "auto")


def _align(offset: int, to: int = 16) -> int:
    return (offset + to - 1) // to * to


class SharedOutputRing:
    """Preallocated position + V/VGL/VGH buffers in POSIX shared memory.

    One segment holds ``n_slots`` identical slots; each slot carries a
    float64 ``(max_positions, 3)`` position block plus full-width
    ``v``/``g``/``l``/``h`` output streams in the table dtype.  The
    parent fills a slot's positions, workers write their (row x orbital
    block) rectangles straight into the slot's stream views, and the
    parent reads the assembled result — result arrays never travel
    through a pipe in either direction.

    Lifetime mirrors :class:`~repro.parallel.shared_table.SharedTable`
    (the tested PR3 rules): the **owner** (:meth:`create`) must
    :meth:`unlink` — most simply via the context-manager form —
    **attachers** (:meth:`attach`) only ever :meth:`close`, and workers
    detach before the owner unlinks.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        n_slots: int,
        max_positions: int,
        n_splines: int,
        dtype: np.dtype,
        owner: bool,
    ):
        self._shm = shm
        self.n_slots = int(n_slots)
        self.max_positions = int(max_positions)
        self.n_splines = int(n_splines)
        self.dtype = np.dtype(dtype)
        self.owner = bool(owner)
        self._closed = False
        self._layout, self.slot_bytes = self._plan_layout(
            self.max_positions, self.n_splines, self.dtype
        )
        # One view per (slot, field), built eagerly so slot access in the
        # hot fan-out path is a dict lookup, not an ndarray construction.
        self._views: list[dict[str, np.ndarray]] = []
        for slot in range(self.n_slots):
            base = slot * self.slot_bytes
            views = {}
            for name, (offset, shape, dt) in self._layout.items():
                views[name] = np.ndarray(
                    shape, dtype=dt, buffer=shm.buf, offset=base + offset
                )
            self._views.append(views)

    @staticmethod
    def _plan_layout(max_positions: int, n_splines: int, dtype: np.dtype):
        """Per-slot field offsets; every field 16-byte aligned."""
        layout: dict[str, tuple[int, tuple[int, ...], np.dtype]] = {}
        offset = 0
        pos_shape = (max_positions, 3)
        f64 = np.dtype(np.float64)
        layout["positions"] = (offset, pos_shape, f64)
        offset = _align(offset + int(np.prod(pos_shape)) * f64.itemsize)
        for name, mid in _STREAM_AXES.items():
            shape = (max_positions, *mid, n_splines)
            layout[name] = (offset, shape, dtype)
            offset = _align(offset + int(np.prod(shape)) * dtype.itemsize)
        return layout, offset

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        n_slots: int,
        max_positions: int,
        n_splines: int,
        dtype,
    ) -> "SharedOutputRing":
        """Allocate a fresh ring; returns the owner handle.

        The segment starts zeroed (the kernel hands out zero pages);
        validity is tracked per call by the evaluator, exactly like a
        fresh :class:`~repro.core.batched.BatchedOutput`.
        """
        if n_slots <= 0:
            raise ValueError(f"n_slots must be positive, got {n_slots}")
        if max_positions <= 0:
            raise ValueError(
                f"max_positions must be positive, got {max_positions}"
            )
        if n_splines <= 0:
            raise ValueError(f"n_splines must be positive, got {n_splines}")
        dtype = np.dtype(dtype)
        _, slot_bytes = cls._plan_layout(
            int(max_positions), int(n_splines), dtype
        )
        shm = shared_memory.SharedMemory(
            create=True, size=int(n_slots) * slot_bytes
        )
        return cls(shm, n_slots, max_positions, n_splines, dtype, owner=True)

    @classmethod
    def attach(cls, spec: dict) -> "SharedOutputRing":
        """Attach an existing ring from an owner's :attr:`spec`.

        The segment's actual size is validated against the spec before
        any view is mapped — a stale or mismatched spec raises a
        :class:`ValueError` naming the segment and both sizes, never a
        cryptic out-of-bounds view deep in a worker.
        """
        shm = shared_memory.SharedMemory(name=spec["name"])
        n_slots = int(spec["n_slots"])
        max_positions = int(spec["max_positions"])
        n_splines = int(spec["n_splines"])
        dtype = np.dtype(spec["dtype"])
        _, slot_bytes = cls._plan_layout(max_positions, n_splines, dtype)
        expected = n_slots * slot_bytes
        if shm.size < expected:
            shm.close()
            raise ValueError(
                f"shared ring {spec['name']!r} holds {shm.size} bytes but "
                f"the spec (n_slots={n_slots}, max_positions={max_positions}, "
                f"n_splines={n_splines}, dtype={dtype}) needs {expected} "
                f"bytes — stale or mismatched ring spec"
            )
        return cls(shm, n_slots, max_positions, n_splines, dtype, owner=False)

    @property
    def spec(self) -> dict:
        """Picklable descriptor workers use to :meth:`attach`."""
        return {
            "name": self._shm.name,
            "n_slots": self.n_slots,
            "max_positions": self.max_positions,
            "n_splines": self.n_splines,
            "dtype": self.dtype.str,
        }

    @property
    def name(self) -> str:
        """The segment name (how attachers find it)."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Total segment payload in bytes (all slots)."""
        return self.n_slots * self.slot_bytes

    # -- access --------------------------------------------------------------

    def _slot(self, slot: int) -> dict[str, np.ndarray]:
        if self._closed:
            raise ValueError("shared output ring is closed")
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"no slot {slot} in a ring of {self.n_slots}")
        return self._views[slot]

    def positions(self, slot: int, n_positions: int | None = None) -> np.ndarray:
        """The slot's ``(max_positions, 3)`` float64 block (writable view),
        trimmed to the first ``n_positions`` rows when given."""
        view = self._slot(slot)["positions"]
        return view if n_positions is None else view[:n_positions]

    def views(
        self,
        slot: int,
        n_positions: int | None = None,
        rows: tuple[int, int] | None = None,
        spline_range: tuple[int, int] | None = None,
    ) -> dict[str, np.ndarray]:
        """Stream views of one slot, optionally windowed.

        ``rows=(lo, hi)`` trims the position axis, ``spline_range=(lo,
        hi)`` the orbital axis — the worker's rectangle.  The returned
        views alias shared memory; writing them is the zero-copy result
        path.
        """
        slot_views = self._slot(slot)
        if rows is None:
            rows = (0, self.max_positions if n_positions is None else n_positions)
        rlo, rhi = rows
        clo, chi = spline_range or (0, self.n_splines)
        out = {}
        for name in _STREAM_AXES:
            out[name] = slot_views[name][rlo:rhi, ..., clo:chi]
        return out

    def output(
        self,
        slot: int,
        rows: tuple[int, int],
        spline_range: tuple[int, int] | None = None,
    ) -> BatchedOutput:
        """A :class:`~repro.core.batched.BatchedOutput` aliasing one
        rectangle of the slot — what a worker's kernels write into."""
        v = self.views(slot, rows=rows, spline_range=spline_range)
        return BatchedOutput.from_views(v["v"], v["g"], v["l"], v["h"])

    # -- lifetime ------------------------------------------------------------

    def close(self) -> None:
        """Detach this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._views = []
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only; call after workers closed)."""
        if not self.owner:
            raise ValueError("only the creating process may unlink a segment")
        self._shm.unlink()

    def __enter__(self) -> "SharedOutputRing":
        return self

    def __exit__(self, *exc) -> None:
        was_owner = self.owner and not self._closed
        self.close()
        if was_owner:
            self.unlink()

    def __repr__(self) -> str:
        role = "owner" if self.owner else "attached"
        return (
            f"SharedOutputRing({self._shm.name!r}, n_slots={self.n_slots}, "
            f"max_positions={self.max_positions}, n_splines={self.n_splines}, "
            f"dtype={self.dtype}, {role})"
        )


class OrbitalWorker:
    """Per-process state of one orbital-shard replica.

    Stateless in the fleet sense: everything here (table and ring
    attachments, block engines) is rebuilt deterministically by the
    initializer, so the supervisor restarts a replica and re-issues its
    call with no journal replay — and the rewritten rectangle is
    bit-identical.
    """

    def __init__(
        self,
        worker_id: int,
        table_spec: dict,
        grid_fields: dict,
        ring_spec: dict,
        config=None,
    ):
        self.worker_id = int(worker_id)
        self._table = SharedTable.attach(table_spec)
        self._ring = SharedOutputRing.attach(ring_spec)
        self._grid = Grid3D(**grid_fields)
        self._config = config
        self._engines: dict[tuple[int, int], BsplineBatched] = {}

    def _engine(self, col_lo: int, col_hi: int) -> BsplineBatched:
        engine = self._engines.get((col_lo, col_hi))
        if engine is None:
            engine = BsplineBatched(
                self._grid,
                self._table.array,
                config=self._config,
                spline_range=(col_lo, col_hi),
            )
            self._engines[(col_lo, col_hi)] = engine
        return engine

    def eval_block(
        self,
        kind_value: str,
        slot: int,
        row_lo: int,
        row_hi: int,
        col_lo: int,
        col_hi: int,
    ) -> dict:
        """Evaluate rows ``[row_lo, row_hi)`` of the slot's positions over
        orbital columns ``[col_lo, col_hi)``, writing **into the ring**.

        Returns only a tiny timing ack — the results are already in
        shared memory when this reply reaches the parent.
        """
        kind = Kind(kind_value)
        engine = self._engine(col_lo, col_hi)
        positions = self._ring.positions(slot)[row_lo:row_hi]
        out = self._ring.output(
            slot, rows=(row_lo, row_hi), spline_range=(col_lo, col_hi)
        )
        t0 = time.perf_counter()
        engine.evaluate_batch(kind, positions, out)
        dt = time.perf_counter() - t0
        self._observe(kind, row_hi - row_lo, col_hi - col_lo, dt)
        return {"seconds": dt}

    def eval_block_pipe(
        self,
        kind_value: str,
        slot: int,
        row_lo: int,
        row_hi: int,
        col_lo: int,
        col_hi: int,
    ) -> dict:
        """The pipe-gather baseline: same rectangle, same kernels, but the
        result arrays are pickled back through the pipe.

        Exists so ``bench_pr10`` can measure the shm-ring vs pipe-gather
        overhead on an identical topology; production callers use
        :meth:`eval_block`.
        """
        kind = Kind(kind_value)
        engine = self._engine(col_lo, col_hi)
        positions = np.array(self._ring.positions(slot)[row_lo:row_hi])
        n = len(positions)
        t0 = time.perf_counter()
        out = (
            engine.new_output(kind, n=n)
            if n
            else BatchedOutput(0, engine.n_splines, engine.dtype)
        )
        engine.evaluate_batch(kind, positions, out)
        dt = time.perf_counter() - t0
        self._observe(kind, n, col_hi - col_lo, dt)
        return {
            stream: np.array(getattr(out, stream)) for stream in kind.streams
        }

    def _observe(self, kind: Kind, n_rows: int, width: int, dt: float) -> None:
        if not OBS.enabled or n_rows <= 0:
            return
        # Block-sized accounting (the PR10 OBS fix): the gather touches
        # only the block's columns of the padded table and the outputs
        # are block-wide, so modeled bytes scale with the block width —
        # summed over a walker's blocks they equal the unsharded total.
        OBS.kernel_eval(
            "orbital",
            kind.value,
            n_rows,
            dt,
            n_rows
            * kernel_bytes_moved(
                kind.value, "soa", width, self._ring.dtype.itemsize
            ),
        )
        OBS.observe(
            "orbital_walker_latency_seconds",
            dt / n_rows,
            kernel=kind.value,
            block_splines=str(width),
        )

    def ring_check(self) -> dict:
        """Liveness/diagnostics: the worker's view of its attachments."""
        return {
            "worker": self.worker_id,
            "ring": self._ring.name,
            "table": self._table.name,
            "engines": sorted(self._engines),
        }

    def close(self) -> None:
        """Drop engines, then detach ring and table mappings."""
        self._engines.clear()
        try:
            self._ring.close()
        except BufferError:
            pass  # a lingering view dies with the worker
        try:
            self._table.close()
        except BufferError:
            pass


def _init_orbital_worker(
    worker_id: int,
    table_spec: dict,
    grid_fields: dict,
    ring_spec: dict,
    config=None,
) -> OrbitalWorker:
    """Module-level initializer (picklable under ``spawn``)."""
    return OrbitalWorker(worker_id, table_spec, grid_fields, ring_spec, config)


class OrbitalEvaluator:
    """A drop-in batched engine fanned across (walker x orbital) workers.

    Wraps a full-width :class:`~repro.core.batched.BsplineBatched` and
    serves the same ``evaluate``/``evaluate_batch``/``new_output``
    surface; every batch is split into an ``R x K`` grid — ``R`` row
    (position) groups x ``K`` orbital blocks — and dispatched to
    ``R * K`` pool workers that write their rectangles into a
    :class:`SharedOutputRing`.  Unknown attributes delegate to the local
    engine, so code written against ``BsplineBatched`` (``n_splines``,
    ``dtype``, ``plan``, ``P``...) keeps working.

    Parameters
    ----------
    grid, coefficients:
        As :class:`~repro.core.batched.BsplineBatched`; the padded table
        is placed in a :class:`SharedTable` once, workers attach.
    config:
        A **resolved** :class:`~repro.config.RunConfig` (concrete
        chunk/tile) or ``None``; shipped to workers so block engines
        inherit the parent's plan bit-identically.
    processes:
        Total worker count (defaults to the shard count).
    orbital_shards:
        Requested K; clamped by
        :func:`~repro.core.partition.plan_orbital_blocks` (width >= 2).
        ``K=1`` gives walker-only row sharding with shm outputs — the
        pipe-free upgrade of the classic scatter/gather.
    max_positions:
        Ring capacity per slot; larger batches stream through the slot
        in ``max_positions``-sized pieces (bitwise-free, per-position
        independence).
    supervise:
        Run the workers under a :class:`~repro.fleet.supervisor.
        FleetSupervisor` (stateless replicas: restart + re-issue, no
        journal) instead of a bare pool.
    fleet_config:
        :class:`~repro.fleet.supervisor.FleetConfig` for ``supervise``.
    start_method:
        Pool start method (fork/spawn), default per platform/env.
    """

    layout = "batched"

    def __init__(
        self,
        grid: Grid3D,
        coefficients: np.ndarray,
        config=None,
        processes: int | None = None,
        orbital_shards: int | None = None,
        max_positions: int = 1024,
        supervise: bool = False,
        fleet_config=None,
        start_method: str | None = None,
    ):
        self._engine = BsplineBatched(grid, coefficients, config=config)
        n = self._engine.n_splines
        if orbital_shards is None:
            orbital_shards = (
                config.orbital_shards
                if config is not None and config.orbital_shards
                else (processes or 1)
            )
        self.blocks = plan_orbital_blocks(n, int(orbital_shards))
        self.n_blocks = len(self.blocks)
        if processes is None:
            processes = self.n_blocks
        if processes < self.n_blocks:
            raise ValueError(
                f"processes={processes} cannot serve "
                f"{self.n_blocks} orbital blocks"
            )
        #: Row (position) groups: workers per block.
        self.n_row_groups = max(1, int(processes) // self.n_blocks)
        self.n_workers = self.n_row_groups * self.n_blocks
        self.max_positions = int(max_positions)
        if self.max_positions <= 0:
            raise ValueError(
                f"max_positions must be positive, got {max_positions}"
            )
        self._table = None
        self._ring = None
        try:
            self._table = SharedTable.create(self._engine._padded)
            self._ring = SharedOutputRing.create(
                1, self.max_positions, n, self._engine.dtype
            )
        except BaseException:
            self._release_shared()
            raise
        grid_fields = {
            "nx": grid.nx, "ny": grid.ny, "nz": grid.nz,
            "lengths": tuple(grid.lengths),
        }
        init_args = (self._table.spec, grid_fields, self._ring.spec, config)
        self._supervisor = None
        try:
            if supervise:
                from repro.fleet.supervisor import FleetSupervisor

                self._supervisor = FleetSupervisor(
                    self.n_workers,
                    _init_orbital_worker,
                    init_args,
                    config=fleet_config,
                    stateful=False,
                    start_method=start_method,
                )
                self._pool = self._supervisor.pool
            else:
                self._pool = ProcessCrowdPool(
                    self.n_workers,
                    _init_orbital_worker,
                    init_args,
                    start_method=start_method,
                )
        except BaseException:
            self._release_shared()
            raise
        self._closed = False
        self._pos1 = np.empty((1, 3), dtype=np.float64)
        if OBS.enabled:
            OBS.gauge("orbital_shards", self.n_blocks)
            OBS.gauge("orbital_row_groups", self.n_row_groups)
            OBS.gauge("orbital_ring_bytes", self._ring.nbytes)

    # -- engine-protocol delegation ------------------------------------------

    def __getattr__(self, name):
        # Only called for attributes not found on the instance: the
        # local full-width engine backs the rest of the protocol.
        # Private names never delegate (prevents recursion through a
        # partially-constructed instance).
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            engine = self.__dict__["_engine"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(engine, name)

    def new_output(self, kind: Kind = Kind.VGH, n: int = 1) -> BatchedOutput:
        """Full-width output allocation (delegates to the local engine)."""
        return self._engine.new_output(kind, n=n)

    @property
    def fleet(self) -> dict | None:
        """The supervisor's :meth:`fleet_summary` (``None`` unsupervised)."""
        return (
            self._supervisor.fleet_summary()
            if self._supervisor is not None
            else None
        )

    # -- fan-out -------------------------------------------------------------

    def _plan_calls(self, n: int, pipe: bool) -> list[tuple]:
        """One args tuple per worker: worker ``w`` owns row group
        ``w // K`` x orbital block ``w % K`` (empty rows allowed)."""
        method = "eval_block_pipe" if pipe else "eval_block"
        rows = partition(n, self.n_row_groups) if n else [
            range(0) for _ in range(self.n_row_groups)
        ]
        calls = []
        for w in range(self.n_workers):
            r, b = divmod(w, self.n_blocks)
            block = self.blocks[b]
            calls.append(
                (
                    method,
                    (rows[r].start, rows[r].stop, block.start, block.stop),
                )
            )
        return calls

    def _dispatch(self, kind: Kind, n: int, pipe: bool = False) -> list:
        """Scatter one slot's fan-out and gather the acks (or streams)."""
        calls = self._plan_calls(n, pipe)
        per_worker_args = [
            (kind.value, 0, *bounds) for _, bounds in calls
        ]
        method = calls[0][0]
        if self._supervisor is not None:
            return self._supervisor.call(method, per_worker_args)
        for w, args in enumerate(per_worker_args):
            self._pool.start_call(w, method, args)
        return [self._pool.finish_call(w, method=method) for w in range(self.n_workers)]

    def evaluate_batch(
        self, kind, positions, out: BatchedOutput
    ) -> BatchedOutput:
        """Evaluate ``(ns, 3)`` positions across the worker grid.

        Bit-identical to the wrapped engine's ``evaluate_batch`` for the
        same inputs (the module-docstring contract); larger batches
        stream through the ring slot in ``max_positions`` pieces.
        """
        kind = Kind.check(kind)
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(
                f"expected (ns, 3) positions, got {positions.shape}"
            )
        if out.v.shape != (len(positions), self._engine.n_splines):
            raise ValueError(
                f"output holds ({out.n_positions}, {out.n_splines}), "
                f"batch needs ({len(positions)}, {self._engine.n_splines})"
            )
        if self._closed:
            raise RuntimeError("OrbitalEvaluator is closed")
        streams = _KERNEL_STREAMS[kind.value]
        BsplineBatched._begin(out, streams)
        t0 = time.perf_counter() if OBS.enabled else 0.0
        for lo in range(0, len(positions), self.max_positions) or (0,):
            hi = min(lo + self.max_positions, len(positions))
            n = hi - lo
            self._ring.positions(0)[:n] = positions[lo:hi]
            self._dispatch(kind, n)
            assembled = self._ring.views(0, n_positions=n)
            for stream in streams:
                getattr(out, stream)[lo:hi] = assembled[stream]
        out.valid = frozenset(streams)
        if OBS.enabled:
            dt = time.perf_counter() - t0
            OBS.count(
                "orbital_fanout_calls_total",
                kernel=kind.value,
                shards=str(self.n_blocks),
            )
            OBS.observe("orbital_fanout_seconds", dt, kernel=kind.value)
        return out

    def evaluate_batch_pipe(
        self, kind, positions, out: BatchedOutput
    ) -> BatchedOutput:
        """The measured pipe-gather baseline: identical fan-out topology,
        but workers pickle their result rectangles back through pipes and
        the parent assembles them.  Benchmark-only."""
        kind = Kind.check(kind)
        positions = np.asarray(positions, dtype=np.float64)
        if self._closed:
            raise RuntimeError("OrbitalEvaluator is closed")
        streams = _KERNEL_STREAMS[kind.value]
        BsplineBatched._begin(out, streams)
        for lo in range(0, len(positions), self.max_positions) or (0,):
            hi = min(lo + self.max_positions, len(positions))
            n = hi - lo
            self._ring.positions(0)[:n] = positions[lo:hi]
            replies = self._dispatch(kind, n, pipe=True)
            calls = self._plan_calls(n, pipe=True)
            for w, reply in enumerate(replies):
                row_lo, row_hi, col_lo, col_hi = calls[w][1]
                if row_hi <= row_lo:
                    continue
                for stream in streams:
                    getattr(out, stream)[
                        lo + row_lo : lo + row_hi, ..., col_lo:col_hi
                    ] = reply[stream]
        out.valid = frozenset(streams)
        return out

    def evaluate(self, kind: Kind, pos, out: BatchedOutput) -> BatchedOutput:
        """Single-position evaluation (batch of 1 through the fan-out)."""
        Kind.check(kind)
        self._pos1[0] = pos
        return self.evaluate_batch(kind, self._pos1, out)

    # -- pass-through kernel spellings ---------------------------------------

    def v_batch(self, positions, out: BatchedOutput) -> None:
        self.evaluate_batch(Kind.V, positions, out)

    def vgl_batch(self, positions, out: BatchedOutput) -> None:
        self.evaluate_batch(Kind.VGL, positions, out)

    def vgh_batch(self, positions, out: BatchedOutput) -> None:
        self.evaluate_batch(Kind.VGH, positions, out)

    # -- chaos hook (testing) ------------------------------------------------

    def arm_fault(self, worker: int, kind: str, seconds: float = 0.0) -> None:
        """Arm a chaos fault on one replica (supervised mode recovers)."""
        if self._supervisor is not None:
            self._supervisor.arm_fault(worker, kind, seconds)
        else:
            self._pool.arm_chaos(worker, kind, seconds)

    # -- lifetime ------------------------------------------------------------

    def _release_shared(self) -> None:
        for handle in (self._ring, self._table):
            if handle is None:
                continue
            try:
                handle.close()
            except Exception:
                pass
            try:
                if handle.owner:
                    handle.unlink()
            except Exception:
                pass

    def close(self, timeout: float = 10.0) -> None:
        """Stop workers, then release the shared segments (idempotent)."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.close(timeout=timeout)
        else:
            self._pool.close(timeout=timeout)
        self._release_shared()

    def __enter__(self) -> "OrbitalEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def choose_split(
    n_walkers: int,
    processes: int,
    n_splines: int,
    split: str = "auto",
    kernel: str = "vgh",
    config=None,
    model=None,
) -> tuple[str, int]:
    """Resolve the ``split=`` policy to ``("walkers"|"orbitals", shards)``.

    ``"walkers"`` and ``"orbitals"`` are honoured as stated (orbital
    shard count from ``config.orbital_shards`` when decided, else one
    block per process, clamped by the planner).  ``"auto"`` chooses:

    1. an explicitly-decided ``config.orbital_shards`` (kwarg, env, or
       tuned-DB provenance) wins — the measured tuner's verdict;
    2. walker sharding when it already fills the pool
       (``n_walkers >= processes``), when there is no pool
       (``processes <= 1``), or when the spline axis is too narrow;
    3. otherwise Opt C, with the shard count ranked by the
       :class:`~repro.hwsim.perfmodel.BsplinePerfModel` of this host's
       cache hierarchy (``nested_efficiency`` must clear 0.3 — below
       that the model says the blocks are too narrow to pay for the
       fan-out, matching the paper's ``nth <= N/Nb`` limit).
    """
    if split not in _SPLITS:
        raise ValueError(f"split must be one of {_SPLITS}, got {split!r}")
    processes = max(1, int(processes))
    if split == "walkers":
        return "walkers", 1
    configured = config.orbital_shards if config is not None else None
    if split == "orbitals":
        shards = configured if configured else processes
        return "orbitals", len(plan_orbital_blocks(n_splines, shards))
    # -- auto ----------------------------------------------------------------
    from repro.config import SOURCE_ENV, SOURCE_KWARG, SOURCE_TUNED

    if (
        config is not None
        and configured
        and config.source_of("orbital_shards")
        in (SOURCE_KWARG, SOURCE_ENV, SOURCE_TUNED)
    ):
        if configured <= 1:
            return "walkers", 1
        return "orbitals", len(plan_orbital_blocks(n_splines, configured))
    if processes <= 1 or n_splines < 4 or n_walkers >= processes:
        return "walkers", 1
    shards = min(processes // max(int(n_walkers), 1), n_splines // 2)
    if shards <= 1:
        return "walkers", 1
    if model is None:
        from repro.hwsim.machine import host_machine_spec
        from repro.hwsim.perfmodel import BsplinePerfModel
        from repro.tune.planner import detect_caches

        caches = detect_caches()
        model = BsplinePerfModel(
            host_machine_spec(
                caches.l2_bytes, caches.llc_bytes, cpu_count=processes
            )
        )
    try:
        efficiency = model.nested_efficiency(kernel, n_splines, shards)
    except Exception:
        efficiency = 1.0  # a model that cannot rank never vetoes Opt C
    if efficiency < 0.3:
        return "walkers", 1
    return "orbitals", len(plan_orbital_blocks(n_splines, shards))


def resolve_split(
    n_walkers: int,
    processes: int,
    n_splines: int,
    split: str = "auto",
    orbital_shards: int | None = None,
    kernel: str = "vgh",
    config=None,
    model=None,
) -> tuple[str, int]:
    """Driver-facing :func:`choose_split` with the kwarg rung on top.

    The run drivers (``run_crowd_parallel`` etc.) take both a ``split=``
    policy and an explicit ``orbital_shards=`` count; this resolves the
    pair with the documented precedence: an explicit kwarg count wins
    over everything (rung 1), then the config/auto policy of
    :func:`choose_split` (env, tuned DB, heuristic).  ``split="walkers"``
    always means walker sharding — an ``orbital_shards`` kwarg alongside
    it is rejected rather than silently ignored.
    """
    if split not in _SPLITS:
        raise ValueError(f"split must be one of {_SPLITS}, got {split!r}")
    if orbital_shards is not None and orbital_shards <= 0:
        raise ValueError(
            f"orbital_shards must be positive, got {orbital_shards}"
        )
    if split == "walkers":
        if orbital_shards is not None and orbital_shards > 1:
            raise ValueError(
                "split='walkers' cannot honour orbital_shards="
                f"{orbital_shards}; pass split='orbitals' or 'auto'"
            )
        return "walkers", 1
    if orbital_shards is not None:
        shards = len(plan_orbital_blocks(n_splines, orbital_shards))
        if shards > 1 or split == "orbitals":
            return "orbitals", shards
        return "walkers", 1
    return choose_split(
        n_walkers,
        processes,
        n_splines,
        split=split,
        kernel=kernel,
        config=config,
        model=model,
    )
