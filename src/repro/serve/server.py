"""QMC-as-a-service: the asyncio server with cross-request batching.

``python -m repro serve`` turns the batched B-spline engines into a
long-lived multi-tenant service.  The shape is the one inference
servers converged on, applied to QMC kernels:

* an **asyncio front end** (TCP or unix socket, newline-delimited JSON
  — :mod:`repro.serve.protocol`) accepts concurrent requests from many
  tenants;
* **admission control** bounds the work in flight (global
  ``max_pending`` cap, per-tenant ``tenant_inflight`` cap, explicit
  ``draining`` state) so overload degrades into clean protocol errors
  instead of unbounded queues;
* compatible ``eval`` requests — same coefficient table, kernel kind
  and backend — coalesce in a bounded **micro-batching window**
  (:mod:`repro.serve.batching`) into single fused kernel calls.
  Coalescing is bit-safe: each position's result is independent of its
  batch neighbours, so every tenant gets exactly the bytes a solo call
  would have produced;
* execution happens in a :class:`~repro.parallel.pool.ProcessCrowdPool`
  of persistent workers, leased one batch at a time, each holding
  zero-copy attachments of the LRU-cached coefficient tables
  (:mod:`repro.serve.cache`, :mod:`repro.serve.worker`);
* per-tenant counters/gauges/latency histograms flow through the OBS
  switchboard, and shutdown **drains**: in-flight requests finish, new
  ones are refused, workers and shared segments are torn down cleanly.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.backends import (
    BackendConformanceError,
    BackendUnavailable,
    resolve_backend,
)
from repro.core.kinds import Kind
from repro.obs import OBS
from repro.parallel.pool import ProcessCrowdPool, WorkerError, WorkerTimeout
from repro.serve import protocol
from repro.serve.batching import BatchItem, MicroBatcher
from repro.serve.cache import SystemKey, TableCache
from repro.serve.protocol import ProtocolError
from repro.serve.worker import _init_serve_shard

__all__ = ["ServeConfig", "QmcServer", "ServerThread", "main"]

#: Validation bounds: generous for a test service, small enough that a
#: single request can never monopolize a worker for minutes.
_MAX_POSITIONS = 4096
_MAX_ORBITALS = 32
_MAX_GRID = 64
_MAX_WALKERS = 64
_MAX_STEPS = 500
_MAX_GENERATIONS = 200


@dataclass
class ServeConfig:
    """Everything that shapes one server instance (all CLI-settable)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from .address
    unix_socket: str | None = None  # overrides host/port when set
    workers: int = 2
    #: Batching window: a batch closes at ``max_batch`` riders or
    #: ``max_wait_us`` after its first, whichever comes first.
    #: ``max_batch=1`` disables coalescing (the benchmark baseline).
    max_batch: int = 32
    max_wait_us: float = 2000.0
    #: Admission control.
    max_pending: int = 256
    tenant_inflight: int = 32
    #: LRU capacity of the parent-side coefficient-table cache.
    table_cache: int = 8
    #: Default kernel backend (explicit name beats ``REPRO_BACKEND``;
    #: ``None`` defers to the env var, then NumPy).  Validated strictly
    #: at startup.
    backend: str | None = None
    #: Opt C for serving: when > 1, every coalesced eval batch is split
    #: into that many contiguous orbital blocks (clamped by the planner
    #: and the worker count) and fanned across concurrently leased
    #: workers, each evaluating its block of the shared table zero-copy.
    #: Responses are byte-identical to the single-worker path (the
    #: spline-axis blocking invariance).  1 = one fused call per batch.
    orbital_shards: int = 1
    worker_timeout: float = 120.0
    drain_timeout: float = 30.0
    observe: bool = True
    start_method: str | None = None
    #: :class:`repro.config.RunConfig` shipped to every worker shard —
    #: blocking (chunk/tile) and tune mode for the engines workers build
    #: per cached table.  ``None`` = ``RunConfig.from_env()`` at startup.
    #: Per-request backends still override its ``backend`` field.
    run_config: "object | None" = None


class QmcServer:
    """The serving state machine; one instance per listening socket.

    Lifecycle: ``await start()`` (resolves the default backend, spins up
    the worker pool, binds the socket), then ``await run()`` (serves
    until :meth:`request_shutdown`), which drains and tears everything
    down before returning.
    """

    def __init__(self, config: ServeConfig):
        self.config = config
        # Strict parent-side resolution: an explicit --backend that this
        # host cannot serve fails *here*, at startup — and because
        # resolve_backend only consults REPRO_BACKEND when the spec is
        # None, an explicit name always beats the environment.
        self.default_backend = resolve_backend(config.backend).name
        # Rungs 1-2 applied parent-side (env read once, here); workers
        # receive this config verbatim and finish rungs 3-4 per table.
        from repro.config import RunConfig

        self.run_config = (
            config.run_config
            if config.run_config is not None
            else RunConfig.from_env()
        )
        self._backend_names: dict[str, str] = {}
        self._cache = TableCache(config.table_cache)
        self._cache_lock = asyncio.Lock()
        # Specs of the tables still linked: cached, or evicted while a
        # request pins them (see _table_spec / _unpin_table).
        self._table_specs: dict[str, dict] = {}
        self._pool: ProcessCrowdPool | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor: concurrent.futures.ThreadPoolExecutor | None = None
        self._worker_gate: asyncio.Queue | None = None
        # Serializes multi-worker lease acquisition: two concurrent
        # orbital fan-outs grabbing leases piecemeal could each hold a
        # partial set and deadlock; under the lock a fan-out acquires
        # all-or-nothing while single-lease ops drain normally.
        self._fanout_lock = asyncio.Lock()
        self._pending_release: dict[int, list[str]] = {}
        self._batcher = MicroBatcher(
            self._flush_batch, config.max_batch, config.max_wait_us / 1e6
        )
        self._inflight = 0
        self._tenant_inflight: dict[str, int] = {}
        self._req_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._shutdown = asyncio.Event()
        self._draining = False
        self._stopped = False
        self._obs_enabled_here = False
        self._t_started = 0.0
        self.address = None  # (host, port) or unix path, set by start()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and build the worker pool."""
        cfg = self.config
        if cfg.observe and not OBS.enabled:
            OBS.enable()
            self._obs_enabled_here = True
        # Start the shared-memory resource tracker *before* forking the
        # pool: workers forked first would each lazily spawn their own
        # tracker, which unlinks every attached segment when the worker
        # exits — yanking live cached tables out from under the server.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        loop = asyncio.get_running_loop()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=cfg.workers + 4, thread_name_prefix="serve"
        )
        self._pool = await loop.run_in_executor(
            self._executor,
            lambda: ProcessCrowdPool(
                cfg.workers,
                _init_serve_shard,
                (cfg.observe, self.run_config),
                start_method=cfg.start_method,
            ),
        )
        self._worker_gate = asyncio.Queue()
        for w in range(cfg.workers):
            self._worker_gate.put_nowait(w)
            self._pending_release[w] = []
        if cfg.unix_socket:
            self._server = await asyncio.start_unix_server(
                self._handle_conn,
                path=cfg.unix_socket,
                limit=protocol.MAX_LINE_BYTES + 1024,
            )
            self.address = cfg.unix_socket
        else:
            self._server = await asyncio.start_server(
                self._handle_conn,
                host=cfg.host,
                port=cfg.port,
                limit=protocol.MAX_LINE_BYTES + 1024,
            )
            self.address = self._server.sockets[0].getsockname()[:2]
        self._t_started = time.monotonic()

    def request_shutdown(self) -> None:
        """Ask the server to drain and stop (signal-handler safe)."""
        self._shutdown.set()

    async def run(self) -> None:
        """Serve until :meth:`request_shutdown`, then drain and close."""
        try:
            await self._shutdown.wait()
        finally:
            await self._drain_and_close()

    async def _drain_and_close(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        cfg = self.config
        loop = asyncio.get_running_loop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Close every open batching window, then let in-flight requests
        # finish against the drain deadline.
        self._batcher.flush_all()
        pending = [t for t in self._req_tasks if not t.done()]
        if pending:
            done, still = await asyncio.wait(
                pending, timeout=cfg.drain_timeout
            )
            for task in still:
                task.cancel()
        await self._batcher.wait_idle()
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._pool is not None:
            pool = self._pool
            if OBS.enabled:
                try:
                    await loop.run_in_executor(
                        self._executor, pool.merge_metrics
                    )
                except WorkerError:
                    pass  # a dead worker must not wedge shutdown
            await loop.run_in_executor(self._executor, pool.close)
        self._cache.close()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._obs_enabled_here:
            OBS.disable()

    # -- connection handling -------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        wlock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer,
                        wlock,
                        protocol.error_response(
                            None, "bad_request", "request line too long"
                        ),
                    )
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, wlock)
                )
                self._req_tasks.add(task)
                task.add_done_callback(self._req_tasks.discard)
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _write(
        self, writer: asyncio.StreamWriter, wlock: asyncio.Lock, obj: dict
    ) -> None:
        try:
            line = protocol.encode_line(obj)
        except RecursionError:
            # An id nested just under the decoder's depth limit parses,
            # but the response wrapped around it is one level deeper.
            line = protocol.encode_line(
                protocol.error_response(
                    None, "bad_request", "request id is nested too deeply"
                )
            )
        try:
            async with wlock:
                writer.write(line)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # client went away; nothing to tell it

    async def _serve_line(
        self, line: bytes, writer: asyncio.StreamWriter, wlock: asyncio.Lock
    ) -> None:
        req_id = None
        tenant = "default"
        op = "?"
        t0 = time.perf_counter()
        try:
            req = protocol.decode_line(line)
            req_id = req.get("id")
            tenant = self._parse_tenant(req.get("tenant"))
            op = req.get("op")
            if op not in protocol.OPS:
                raise ProtocolError(
                    "bad_request",
                    f"unknown op {op!r}; expected one of {protocol.OPS}",
                )
            if OBS.enabled:
                OBS.count("serve_requests_total", tenant=tenant, op=op)
            if op == "ping":
                response = protocol.ok_response(req_id, {"pong": True})
            elif op == "stats":
                response = protocol.ok_response(req_id, self._stats())
            else:
                self._admit(tenant)
                try:
                    if op == "eval":
                        result, meta = await self._op_eval(tenant, req)
                    elif op == "vmc":
                        result, meta = await self._op_vmc(tenant, req)
                    else:
                        result, meta = await self._op_dmc(tenant, req)
                finally:
                    self._release(tenant)
                response = protocol.ok_response(req_id, result, meta)
            if OBS.enabled:
                OBS.observe(
                    "serve_request_seconds",
                    time.perf_counter() - t0,
                    tenant=tenant,
                    op=op,
                )
        except ProtocolError as exc:
            if OBS.enabled:
                OBS.count(
                    "serve_rejected_total", tenant=tenant, reason=exc.code
                )
            response = protocol.error_response(req_id, exc.code, str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — protocol boundary
            if OBS.enabled:
                OBS.count(
                    "serve_rejected_total", tenant=tenant, reason="internal"
                )
            response = protocol.error_response(
                req_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        await self._write(writer, wlock, response)

    # -- admission control ---------------------------------------------------

    def _admit(self, tenant: str) -> None:
        cfg = self.config
        if self._draining:
            raise ProtocolError(
                "draining", "server is draining; not accepting new work"
            )
        if self._inflight >= cfg.max_pending:
            raise ProtocolError(
                "overloaded",
                f"server has {self._inflight} requests in flight "
                f"(max_pending={cfg.max_pending}); retry later",
            )
        held = self._tenant_inflight.get(tenant, 0)
        if held >= cfg.tenant_inflight:
            raise ProtocolError(
                "tenant_limit",
                f"tenant {tenant!r} already has {held} requests in flight "
                f"(tenant_inflight={cfg.tenant_inflight})",
            )
        self._inflight += 1
        self._tenant_inflight[tenant] = held + 1
        if OBS.enabled:
            OBS.gauge("serve_queue_depth", self._inflight)
            OBS.gauge("serve_tenant_inflight", held + 1, tenant=tenant)

    def _release(self, tenant: str) -> None:
        self._inflight -= 1
        held = self._tenant_inflight.get(tenant, 1) - 1
        if held <= 0:
            self._tenant_inflight.pop(tenant, None)
        else:
            self._tenant_inflight[tenant] = held
        if OBS.enabled:
            OBS.gauge("serve_queue_depth", self._inflight)
            OBS.gauge("serve_tenant_inflight", max(held, 0), tenant=tenant)

    # -- request validation --------------------------------------------------

    @staticmethod
    def _parse_tenant(tenant) -> str:
        if tenant is None:
            return "default"
        if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
            raise ProtocolError(
                "bad_request", "tenant must be a short non-empty string"
            )
        return tenant

    @staticmethod
    def _system_key(system, default_dtype: str = "float64") -> SystemKey:
        if not isinstance(system, dict):
            raise ProtocolError("bad_request", "system must be an object")
        try:
            n_orbitals = int(system.get("n_orbitals", 4))
            box = float(system.get("box", 6.0))
            grid_shape = tuple(
                int(g) for g in system.get("grid_shape", (12, 12, 12))
            )
            dtype = str(system.get("dtype", default_dtype))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError("bad_request", f"malformed system: {exc}")
        if not 1 <= n_orbitals <= _MAX_ORBITALS:
            raise ProtocolError(
                "bad_request",
                f"n_orbitals must be in [1, {_MAX_ORBITALS}], got {n_orbitals}",
            )
        if not 1.0 <= box <= 100.0:
            raise ProtocolError(
                "bad_request", f"box must be in [1, 100], got {box}"
            )
        if len(grid_shape) != 3 or not all(
            4 <= g <= _MAX_GRID for g in grid_shape
        ):
            raise ProtocolError(
                "bad_request",
                f"grid_shape must be three ints in [4, {_MAX_GRID}], "
                f"got {grid_shape}",
            )
        if dtype not in ("float64", "float32"):
            raise ProtocolError(
                "bad_request",
                f"dtype must be 'float64' or 'float32', got {dtype!r}",
            )
        return SystemKey(n_orbitals, box, grid_shape, dtype)

    @staticmethod
    def _parse_kind(kind) -> Kind:
        try:
            return Kind(kind)
        except ValueError:
            valid = ", ".join(repr(m.value) for m in Kind)
            raise ProtocolError(
                "bad_request", f"kind must be one of {valid}, got {kind!r}"
            )

    @staticmethod
    def _parse_positions(positions) -> np.ndarray:
        if isinstance(positions, dict):
            array = protocol.decode_array(positions)
        elif isinstance(positions, list):
            try:
                array = np.asarray(positions, dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ProtocolError(
                    "bad_request", f"malformed positions: {exc}"
                )
        else:
            raise ProtocolError(
                "bad_request", "positions must be an array object or list"
            )
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2 or array.shape[1] != 3:
            raise ProtocolError(
                "bad_request",
                f"positions must be (n, 3), got shape {array.shape}",
            )
        if not 1 <= len(array) <= _MAX_POSITIONS:
            raise ProtocolError(
                "bad_request",
                f"need 1..{_MAX_POSITIONS} positions, got {len(array)}",
            )
        if not np.all(np.isfinite(array)):
            raise ProtocolError("bad_request", "positions must be finite")
        if np.any(array < 0.0) or np.any(array >= 1.0):
            raise ProtocolError(
                "bad_request",
                "positions are fractional grid coordinates in [0, 1)",
            )
        return np.ascontiguousarray(array)

    def _resolve_request_backend(self, name) -> str:
        """Strict parent-side backend resolution for one request.

        A tenant naming a backend this host cannot serve gets a
        ``backend_unavailable`` protocol error; no worker ever sees the
        bad name.  Successful resolutions are cached by name.
        """
        if name is None:
            return self.default_backend
        if not isinstance(name, str):
            raise ProtocolError(
                "bad_request", "backend must be a backend name string"
            )
        resolved = self._backend_names.get(name)
        if resolved is None:
            try:
                resolved = resolve_backend(name).name
            except (BackendUnavailable, BackendConformanceError) as exc:
                raise ProtocolError("backend_unavailable", str(exc))
            self._backend_names[name] = resolved
        return resolved

    @staticmethod
    def _bounded_int(req, field, lo, hi, default) -> int:
        try:
            value = int(req.get(field, default))
        except (TypeError, ValueError, OverflowError):
            raise ProtocolError("bad_request", f"{field} must be an integer")
        if not lo <= value <= hi:
            raise ProtocolError(
                "bad_request", f"{field} must be in [{lo}, {hi}], got {value}"
            )
        return value

    @staticmethod
    def _bounded_float(req, field, lo, hi, default) -> float:
        try:
            value = float(req.get(field, default))
        except (TypeError, ValueError, OverflowError):
            raise ProtocolError("bad_request", f"{field} must be a number")
        if not lo < value <= hi:
            raise ProtocolError(
                "bad_request", f"{field} must be in ({lo}, {hi}], got {value}"
            )
        return value

    # -- shared helpers ------------------------------------------------------

    async def _table_spec(self, key: SystemKey) -> dict:
        """The shared-segment spec for ``key``, solving at most once,
        pinned: the caller must :meth:`_unpin_table` its name once the
        request is answered (the segment stays linked until then, even
        if the LRU evicts it meanwhile).

        A cached table is answered here on the event loop: one LRU touch,
        no executor hop.  A miss takes the lock and solves in the
        executor so a cold table never stalls the loop; the lock
        serializes misses (two tenants racing the same cold key must not
        both solve it).  The executor calls ``TableCache.get`` only under
        the lock, so the hit path never runs while a thread is inside it.
        """
        # Pinned before any await: only a miss evicts, and every miss
        # runs under the cache lock, so the table is still linked.
        if not self._cache_lock.locked() and key in self._cache:
            spec = self._cache.get(key)
            self._cache.pin(spec["name"])
            return spec
        async with self._cache_lock:
            if key in self._cache:  # solved while this request waited
                spec = self._cache.get(key)
            else:
                spec = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._cache.get, key
                )
                self._table_specs[spec["name"]] = spec
                self._forget_unlinked()
            self._cache.pin(spec["name"])
        return spec

    def _unpin_table(self, name: str) -> None:
        """A request on table ``name`` is answered: drop its pin."""
        self._cache.unpin(name)
        self._forget_unlinked()

    def _forget_unlinked(self) -> None:
        """Unlinked segments leave ``_table_specs``, and every worker is
        told to detach them with its next call."""
        for name in self._cache.drain_evicted():
            self._table_specs.pop(name, None)
            for releases in self._pending_release.values():
                releases.append(name)

    async def _lease_worker(self):
        worker = await self._worker_gate.get()
        release = self._pending_release.get(worker, [])
        self._pending_release[worker] = []
        return worker, release

    async def _dispatch(self, worker: int, method: str, kwargs: dict):
        """Run one pool call on a leased worker off the event loop.

        A hung worker raises :class:`WorkerTimeout` after
        ``worker_timeout``; either failure mode replaces the worker (the
        recovery path :meth:`ProcessCrowdPool.restart_worker` bounds)
        before the lease is returned, so one sick request cannot poison
        the next tenant's.
        """
        loop = asyncio.get_running_loop()
        pool = self._pool
        cfg = self.config

        def call():
            pool.start_call(worker, method, kwargs=kwargs)
            return pool.finish_call(
                worker, timeout=cfg.worker_timeout, method=method
            )

        try:
            return await loop.run_in_executor(self._executor, call)
        except WorkerError as exc:
            if OBS.enabled:
                OBS.count("serve_worker_failures_total", worker=str(worker))
            try:
                await loop.run_in_executor(
                    self._executor,
                    lambda: pool.restart_worker(worker, timeout=30.0),
                )
                # The replacement holds no attachments; stale release
                # orders for this worker are moot.
                self._pending_release[worker] = []
            except WorkerError:
                pass  # next lease of this worker retries the restart
            code = (
                "worker_timeout"
                if isinstance(exc, WorkerTimeout)
                else "internal"
            )
            raise ProtocolError(code, f"serving worker failed: {exc}")

    # -- eval (micro-batched) ------------------------------------------------

    async def _op_eval(self, tenant: str, req: dict):
        key = self._system_key(req.get("system", {}))
        kind = self._parse_kind(req.get("kind", "vgh"))
        backend = self._resolve_request_backend(req.get("backend"))
        positions = self._parse_positions(req.get("positions"))
        spec = await self._table_spec(key)
        try:
            batch_key = (spec["name"], kind.value, backend, key.grid_shape)
            future = asyncio.get_running_loop().create_future()
            self._batcher.submit(
                batch_key, BatchItem(tenant, positions, future)
            )
            streams, meta = await future
        finally:
            self._unpin_table(spec["name"])
        result = {
            "kind": kind.value,
            "streams": {
                name: protocol.encode_array(arr)
                for name, arr in streams.items()
            },
        }
        return result, meta

    def _plan_fanout(self, name: str) -> list | None:
        """Orbital blocks for one eval batch, or None for the fused path.

        Fan-out engages when ``orbital_shards > 1`` and the planner can
        cut the table's spline axis into at least two blocks no wider
        than the worker pool — small-batch requests then borrow idle
        workers along the orbital axis instead of leaving them parked.
        """
        shards = self.config.orbital_shards
        if shards <= 1:
            return None
        from repro.core.partition import plan_orbital_blocks

        n_splines = int(self._table_specs[name]["shape"][-1])
        blocks = plan_orbital_blocks(
            n_splines, min(shards, self.config.workers)
        )
        return blocks if len(blocks) > 1 else None

    async def _fanout_eval(
        self, name, kind_value, backend, grid_shape, positions, blocks
    ) -> dict:
        """One batch fanned across ``len(blocks)`` concurrently leased
        workers, one orbital block each; streams reassembled column-wise."""
        async with self._fanout_lock:
            leases = [await self._lease_worker() for _ in blocks]
        parts: list = []
        try:
            calls = [
                self._dispatch(
                    worker,
                    "eval_block",
                    {
                        "table_spec": self._table_specs[name],
                        "grid_shape": grid_shape,
                        "kind_value": kind_value,
                        "positions": positions,
                        "spline_range": (block.start, block.stop),
                        "backend": backend,
                        "release": release,
                    },
                )
                for (worker, release), block in zip(leases, blocks)
            ]
            # return_exceptions: every dispatch must settle before the
            # leases go back — a cancelled sibling would otherwise leave
            # a pool call in flight on a worker someone else then leases.
            parts = await asyncio.gather(*calls, return_exceptions=True)
        finally:
            for worker, _ in leases:
                self._worker_gate.put_nowait(worker)
        for part in parts:
            if isinstance(part, BaseException):
                raise part
        if OBS.enabled:
            OBS.count("serve_fanout_batches_total")
            OBS.observe("serve_fanout_blocks", len(blocks))
        return {
            stream: np.concatenate([p[stream] for p in parts], axis=-1)
            for stream in Kind(kind_value).streams
        }

    async def _flush_batch(self, batch_key, items: list[BatchItem]) -> None:
        """Serve one closed batching window with one fused kernel call
        (or, with ``orbital_shards > 1``, one fanned call per block)."""
        name, kind_value, backend, grid_shape = batch_key
        positions = np.concatenate([item.positions for item in items])
        if OBS.enabled:
            OBS.count("serve_batches_total")
            OBS.observe("serve_batch_size", len(items))
            OBS.observe("serve_batch_positions", len(positions))
            if len(items) > 1:
                OBS.count("serve_coalesced_requests_total", len(items))
        blocks = self._plan_fanout(name)
        worker = None
        try:
            if blocks is not None:
                streams = await self._fanout_eval(
                    name, kind_value, backend, grid_shape, positions, blocks
                )
            else:
                worker, release = await self._lease_worker()
                streams = await self._dispatch(
                    worker,
                    "eval_batch",
                    {
                        "table_spec": self._table_specs[name],
                        "grid_shape": grid_shape,
                        "kind_value": kind_value,
                        "positions": positions,
                        "backend": backend,
                        "release": release,
                    },
                )
        except Exception as exc:  # noqa: BLE001 — batch failure boundary
            if not isinstance(exc, ProtocolError):
                exc = ProtocolError(
                    "internal", f"{type(exc).__name__}: {exc}"
                )
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        finally:
            if worker is not None:
                self._worker_gate.put_nowait(worker)
        meta = {"coalesced": len(items), "batch_positions": len(positions)}
        if blocks is not None:
            meta["orbital_blocks"] = len(blocks)
        offset = 0
        for item in items:
            sl = slice(offset, offset + item.n_positions)
            offset += item.n_positions
            if not item.future.done():
                item.future.set_result(
                    ({s: arr[sl] for s, arr in streams.items()}, meta)
                )

    # -- vmc / dmc (leased worker, no batching) ------------------------------

    def _spec_fields(self, req: dict, key: SystemKey, backend: str) -> dict:
        # The server's RunConfig with the per-request backend folded in;
        # the worker rebuilds the CrowdSpec from these fields verbatim.
        return {
            "n_walkers": self._bounded_int(
                req, "n_walkers", 1, _MAX_WALKERS, 4
            ),
            "n_orbitals": key.n_orbitals,
            "box": key.box,
            "grid_shape": key.grid_shape,
            "seed": self._bounded_int(req, "seed", 0, 2**63 - 1, 2017),
            "config": self.run_config.replace(backend=backend),
        }

    async def _op_vmc(self, tenant: str, req: dict):
        key = self._system_key(req.get("system", {}))
        if key.dtype != "float64":
            raise ProtocolError(
                "bad_request", "vmc serves float64 tables only"
            )
        backend = self._resolve_request_backend(req.get("backend"))
        kwargs = {
            "spec_fields": self._spec_fields(req, key, backend),
            "n_steps": self._bounded_int(req, "n_steps", 1, _MAX_STEPS, 10),
            "n_warmup": self._bounded_int(req, "n_warmup", 0, _MAX_STEPS, 0),
            "tau": self._bounded_float(req, "tau", 0.0, 10.0, 0.3),
            "ion_charge": self._bounded_float(
                req, "ion_charge", 0.0, 100.0, 4.0
            ),
        }
        kwargs["table_spec"] = spec = await self._table_spec(key)
        try:
            worker, release = await self._lease_worker()
            kwargs["release"] = release
            try:
                out = await self._dispatch(worker, "run_vmc", kwargs)
            finally:
                self._worker_gate.put_nowait(worker)
        finally:
            self._unpin_table(spec["name"])
        result = {
            "energies": protocol.encode_array(out["energies"]),
            "accepted": int(out["accepted"]),
            "attempted": int(out["attempted"]),
        }
        return result, {"worker": worker}

    async def _op_dmc(self, tenant: str, req: dict):
        key = self._system_key(req.get("system", {}))
        if key.dtype != "float64":
            raise ProtocolError(
                "bad_request", "dmc serves float64 tables only"
            )
        backend = self._resolve_request_backend(req.get("backend"))
        kwargs = {
            "spec_fields": self._spec_fields(req, key, backend),
            "n_generations": self._bounded_int(
                req, "n_generations", 1, _MAX_GENERATIONS, 10
            ),
            "tau": self._bounded_float(req, "tau", 0.0, 10.0, 0.05),
            "ion_charge": self._bounded_float(
                req, "ion_charge", 0.0, 100.0, 4.0
            ),
        }
        worker, release = await self._lease_worker()
        kwargs["release"] = release
        try:
            out = await self._dispatch(worker, "run_dmc", kwargs)
        finally:
            self._worker_gate.put_nowait(worker)
        result = {
            "energy_trace": protocol.encode_array(out["energy_trace"]),
            "population_trace": protocol.encode_array(
                out["population_trace"]
            ),
            "acceptance": float(out["acceptance"]),
            "energy_mean": float(out["energy_mean"]),
        }
        return result, {"worker": worker}

    # -- stats ---------------------------------------------------------------

    @staticmethod
    def _metrics_snapshot() -> dict:
        """The registry flattened to ``{"name{k=v}": snapshot_fields}`` —
        counters carry ``value``, histograms count/sum/mean/p50/p90/p99."""
        from repro.obs.metrics import format_labels

        return {
            name + format_labels(labels): metric.snapshot()
            for name, labels, metric in OBS.registry.items()
        }

    def _stats(self) -> dict:
        return {
            "uptime_seconds": time.monotonic() - self._t_started,
            "draining": self._draining,
            "workers": self.config.workers,
            "inflight": self._inflight,
            "tables_cached": len(self._cache),
            "default_backend": self.default_backend,
            "run_config": self.run_config.as_dict(),
            "max_batch": self.config.max_batch,
            "max_wait_us": self.config.max_wait_us,
            "metrics": self._metrics_snapshot() if OBS.enabled else {},
        }


class ServerThread:
    """A QmcServer on a private event-loop thread (tests, benchmarks).

    ``with ServerThread(config) as server: server.address`` — the block
    exit requests shutdown and joins the thread, so every worker,
    socket and shared segment is gone when the block closes.
    """

    def __init__(self, config: ServeConfig, start_timeout: float = 60.0):
        import threading

        self._config = config
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._qserver: QmcServer | None = None
        self._thread = threading.Thread(
            target=self._run, name="qmc-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(start_timeout):
            raise TimeoutError("server did not start in time")
        if self._error is not None:
            self._thread.join(timeout=5.0)
            raise self._error

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            server = QmcServer(self._config)
            await server.start()
        except BaseException as exc:  # startup failure -> constructor
            self._error = exc
            self._ready.set()
            return
        self._qserver = server
        self._ready.set()
        await server.run()

    @property
    def address(self):
        return self._qserver.address

    @property
    def server(self) -> QmcServer:
        return self._qserver

    def stop(self, timeout: float = 60.0) -> None:
        if self._qserver is not None and self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self._qserver.request_shutdown
                )
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Serve batched B-spline orbital evaluations and short QMC "
            "runs to concurrent tenants over newline-delimited JSON."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--unix-socket", default=None, help="serve on a unix socket instead"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--max-wait-us", type=float, default=2000.0)
    parser.add_argument("--max-pending", type=int, default=256)
    parser.add_argument("--tenant-inflight", type=int, default=32)
    parser.add_argument("--table-cache", type=int, default=8)
    parser.add_argument(
        "--backend",
        default=None,
        help="default kernel backend (beats REPRO_BACKEND; strict)",
    )
    parser.add_argument(
        "--orbital-shards",
        type=int,
        default=None,
        metavar="K",
        help="fan each eval batch across K orbital blocks on "
        "concurrently leased workers (Opt C; byte-identical responses); "
        "default: REPRO_ORBITAL_SHARDS / the RunConfig, else 1",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON RunConfig file shipped to worker shards "
        "(chunk/tile/tune mode); --backend still wins per request",
    )
    parser.add_argument(
        "--no-tune",
        action="store_true",
        help="skip the per-host tuned-config DB in worker shards "
        "(rung 3); blocking falls back to the cache heuristic",
    )
    parser.add_argument("--worker-timeout", type=float, default=120.0)
    parser.add_argument("--drain-timeout", type=float, default=30.0)
    parser.add_argument(
        "--no-observe",
        action="store_true",
        help="disable the OBS metrics switchboard",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the final metrics registry JSON here on shutdown",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro serve``."""
    args = _build_parser().parse_args(argv)
    from repro.config import TUNE_OFF, RunConfig, load_run_config

    try:
        run_config = (
            load_run_config(args.config) if args.config else RunConfig.from_env()
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.no_tune:
        run_config = run_config.replace(tune=TUNE_OFF)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        workers=args.workers,
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        max_pending=args.max_pending,
        tenant_inflight=args.tenant_inflight,
        table_cache=args.table_cache,
        backend=args.backend,
        orbital_shards=(
            args.orbital_shards
            if args.orbital_shards is not None
            else (run_config.orbital_shards or 1)
        ),
        worker_timeout=args.worker_timeout,
        drain_timeout=args.drain_timeout,
        observe=not args.no_observe,
        run_config=run_config,
    )

    async def amain() -> None:
        import signal

        server = QmcServer(config)
        await server.start()
        if config.unix_socket:
            print(f"serving on {server.address}", flush=True)
        else:
            host, port = server.address
            print(f"serving on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except NotImplementedError:
                pass
        await server.run()
        if args.metrics_out:
            OBS.registry.write_json(args.metrics_out)

    try:
        asyncio.run(amain())
    except (BackendUnavailable, BackendConformanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
