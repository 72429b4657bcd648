"""ProcessCrowdPool — a persistent pool of crowd-worker processes.

Thread pools parallelize nothing here: outside the NumPy contractions,
the walker loops are pure Python and GIL-bound (thread speedup ~1x).
This pool is the process-level replacement — the design QMCPACK's crowd
drivers and QMCkl-style kernel libraries converged on:

* each worker process builds its **shard state** once (attaching the
  :class:`~repro.parallel.shared_table.SharedTable` zero-copy, building
  its walkers from deterministic per-walker seeds) and keeps it alive
  across calls — no per-step pickling of wavefunctions;
* the parent scatters small command messages over pipes and gathers
  results in worker order, so trajectories are bit-identical for any
  worker count (see :mod:`repro.parallel.sharding`);
* worker exceptions carry their traceback back to the parent and raise
  :class:`WorkerError` there — never a silent hang;
* per-worker :class:`~repro.obs.metrics.MetricsRegistry` state can be
  pulled and merged into the parent's registry
  (:meth:`ProcessCrowdPool.merge_metrics`).

A crashed worker (SIGKILL, OOM-kill, segfault) surfaces as a
:class:`WorkerError` naming the worker — never a raw ``BrokenPipeError``
or a hang in ``conn.recv()`` — and the pool can replace exactly that
worker (:meth:`ProcessCrowdPool.restart_worker`) or grow/shrink
(:meth:`add_worker` / :meth:`remove_worker`).  The recovery *policy*
(replay, elastic scaling) lives one layer up in :mod:`repro.fleet`; the
pool only provides the mechanisms, and which worker runs which walker
is :mod:`repro.parallel.sharding`'s contiguous split either way.

Start method: ``fork`` where the platform offers it (cheap, inherits
the built problem), else ``spawn`` — overridable per pool or globally
via the ``REPRO_START_METHOD`` environment variable.  In every case the
worker's *state* is built by the initializer in the worker, so the pool
works identically under either.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback

__all__ = ["WorkerError", "WorkerTimeout", "ProcessCrowdPool"]

_CHAOS_KINDS = ("sigkill", "hang")


class WorkerError(RuntimeError):
    """A worker process failed.

    Attributes
    ----------
    worker_id:
        Index of the failed worker, or ``None`` when unknown.
    method:
        The state method being dispatched when the failure surfaced
        (``None`` for failures outside a call, e.g. the initializer).
    remote_traceback:
        The worker's formatted traceback, when the worker lived long
        enough to send one; ``None`` for a process death.
    exitcode:
        The worker process exit code when it died (``-9`` for SIGKILL),
        else ``None``.
    """

    def __init__(
        self,
        message: str,
        *,
        worker_id: int | None = None,
        method: str | None = None,
        remote_traceback: str | None = None,
        exitcode: int | None = None,
    ):
        super().__init__(message)
        self.worker_id = worker_id
        self.method = method
        self.remote_traceback = remote_traceback
        self.exitcode = exitcode


class WorkerTimeout(WorkerError):
    """A worker missed its reply deadline (hung, not provably dead)."""


def _worker_main(
    conn, worker_id: int, initializer, init_args: tuple, record: bool
) -> None:
    """The worker loop: build state once, then serve commands until stop."""
    from repro.obs import OBS

    # Under fork the child inherits the parent's registry contents;
    # recording must start from zero or merging would double-count.  A
    # spawned child starts with recording off, so the parent says
    # whether to record.
    OBS.reset()
    OBS.enabled = record
    try:
        state = initializer(worker_id, *init_args)
        conn.send(("ready", None))
    except BaseException:
        conn.send(("err", traceback.format_exc()))
        conn.close()
        return
    # An armed chaos fault (see arm_chaos) fires on the *next* "call",
    # so the parent can pin the failure to a chosen generation.
    pending_fault: tuple[str, float] | None = None
    try:
        while True:
            # Orphan guard: a SIGKILL'd parent can never send "stop", and
            # under fork each worker inherits a copy of its *own* parent
            # pipe end, so recv would never raise EOFError either.  Poll
            # with a timeout and exit once the parent is gone — this is
            # also what lets the resource tracker reclaim the shared
            # table segment after a parent crash.
            while not conn.poll(1.0):
                parent = mp.parent_process()
                if parent is not None and not parent.is_alive():
                    return
            try:
                msg = conn.recv()
            except EOFError:
                break
            cmd = msg[0]
            if cmd == "stop":
                conn.send(("ok", None))
                break
            if cmd == "ping":
                conn.send(("ok", "pong"))
                continue
            if cmd == "metrics":
                conn.send(("ok", OBS.registry.state()))
                continue
            if cmd == "chaos":
                pending_fault = (msg[1], float(msg[2]))
                conn.send(("ok", None))
                continue
            # ("call", method, args, kwargs)
            _, method, args, kwargs = msg
            if pending_fault is not None:
                kind, seconds = pending_fault
                pending_fault = None
                if kind == "sigkill":
                    # Die without replying: the parent sees EOF, exactly
                    # like a real OOM-kill or segfault.
                    os.kill(os.getpid(), signal.SIGKILL)
                elif kind == "hang":
                    # Stall past any reasonable deadline, then serve the
                    # call normally (a stuck-but-alive worker).
                    time.sleep(seconds)
            try:
                result = getattr(state, method)(*args, **kwargs)
                conn.send(("ok", result))
            except BaseException:
                conn.send(("err", traceback.format_exc()))
    finally:
        closer = getattr(state, "close", None)
        if callable(closer):
            try:
                closer()
            except Exception:
                pass
        conn.close()


def _default_start_method() -> str:
    override = os.environ.get("REPRO_START_METHOD")
    if override:
        if override not in mp.get_all_start_methods():
            raise ValueError(
                f"REPRO_START_METHOD={override!r} is not available on this "
                f"platform (have {mp.get_all_start_methods()})"
            )
        return override
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class ProcessCrowdPool:
    """Persistent worker processes, each holding one walker shard.

    Parameters
    ----------
    n_workers:
        Worker process count (>= 1).
    initializer:
        ``initializer(worker_id, *init_args) -> state`` run once inside
        each worker; the returned object serves every later
        :meth:`call`/:meth:`broadcast` by method name.  Must be a
        module-level callable (pickled under ``spawn``).  If the state
        has a ``close()`` method it is invoked at worker shutdown —
        the hook for detaching shared-memory segments.
    init_args:
        Extra initializer arguments (picklable; pass the
        ``SharedTable.spec`` here, never the array).
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default prefers
        ``fork`` where available, or honors ``REPRO_START_METHOD``.

    Notes
    -----
    The pool is a context manager; :meth:`close` is idempotent, joins
    every worker against a deadline (a dead or hung child can never
    wedge shutdown), and so a ``with`` block leaves no processes (and,
    once the owning :class:`SharedTable` unlinks, no ``/dev/shm``
    segments) behind.
    """

    def __init__(
        self,
        n_workers: int,
        initializer,
        init_args: tuple = (),
        start_method: str | None = None,
    ):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self._ctx = mp.get_context(start_method or _default_start_method())
        self._initializer = initializer
        self._init_args = tuple(init_args)
        self.n_workers = int(n_workers)
        self._conns = []
        self._procs = []
        self._closed = False
        try:
            for w in range(n_workers):
                conn, proc = self._spawn(w)
                self._conns.append(conn)
                self._procs.append(proc)
            for w in range(n_workers):
                self._recv(w)  # "ready" (or the initializer's traceback)
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return self.n_workers

    @property
    def pids(self) -> list[int]:
        """Live worker process ids, in worker order."""
        return [proc.pid for proc in self._procs]

    def alive(self, worker: int) -> bool:
        """Whether worker ``worker``'s process is currently running."""
        return self._procs[worker].is_alive()

    # -- low-level spawn / message plumbing ----------------------------------

    def _spawn(self, worker_id: int):
        """Start one worker process; returns its (parent_conn, proc) pair.

        The child end of the pipe is closed in the parent immediately, so
        a worker's death always surfaces as EOF on the parent end — even
        under ``fork``, where a *later*-forked sibling still holds copies
        of earlier parent ends (benign: those are parent ends, not this
        worker's child end).
        """
        from repro.obs import OBS

        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn, worker_id, self._initializer, self._init_args,
                OBS.enabled,
            ),
            daemon=True,
            name=f"crowd-worker-{worker_id}",
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    def _record_failure(self, worker: int) -> None:
        from repro.obs import OBS

        OBS.count("worker_failures_total", worker=str(worker))

    def _exitcode(self, worker: int) -> int | None:
        """The worker's exit code, joining briefly so a just-died child
        is reaped (EOF can beat the zombie becoming waitable)."""
        proc = self._procs[worker]
        proc.join(timeout=0.5)
        return proc.exitcode

    def _dead_worker_error(
        self, worker: int, method: str | None
    ) -> WorkerError:
        exitcode = self._exitcode(worker)
        doing = f" running {method!r}" if method else ""
        return WorkerError(
            f"worker {worker} died without replying{doing} "
            f"(exit code {exitcode})",
            worker_id=worker,
            method=method,
            exitcode=exitcode,
        )

    def _recv(self, worker: int, timeout: float | None = None, method: str | None = None):
        conn = self._conns[worker]
        if timeout is not None and not conn.poll(timeout):
            if not self._procs[worker].is_alive():
                # Died between poll slices: report the death, not a hang.
                self._record_failure(worker)
                raise self._dead_worker_error(worker, method)
            self._record_failure(worker)
            raise WorkerTimeout(
                f"worker {worker} missed its {timeout:.3g}s deadline"
                + (f" on {method!r}" if method else ""),
                worker_id=worker,
                method=method,
            )
        try:
            status, payload = conn.recv()
        except (EOFError, ConnectionResetError, OSError):
            self._record_failure(worker)
            raise self._dead_worker_error(worker, method) from None
        if status == "err":
            self._record_failure(worker)
            raise WorkerError(
                f"worker {worker} failed:\n{payload}",
                worker_id=worker,
                method=method,
                remote_traceback=payload,
            )
        return payload

    def _send(self, worker: int, message: tuple, method: str | None = None) -> None:
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, ConnectionResetError, OSError):
            self._record_failure(worker)
            exitcode = self._exitcode(worker)
            doing = f" while sending {method!r}" if method else ""
            raise WorkerError(
                f"worker {worker} is dead{doing} "
                f"(pipe closed; exit code {exitcode})",
                worker_id=worker,
                method=method,
                exitcode=exitcode,
            ) from None

    # -- scatter / gather ----------------------------------------------------

    def start_call(
        self, worker: int, method: str, args: tuple = (), kwargs: dict | None = None
    ) -> None:
        """Dispatch ``state.method`` on one worker without waiting.

        Pair with :meth:`finish_call`; the supervisor uses this split to
        put per-worker deadlines on the gather side.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._send(
            worker, ("call", method, tuple(args), dict(kwargs or {})), method
        )

    def finish_call(
        self, worker: int, timeout: float | None = None, method: str | None = None
    ):
        """Collect one worker's pending reply (deadline optional)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        return self._recv(worker, timeout=timeout, method=method)

    def call(self, method: str, per_worker_args: list[tuple], **kwargs) -> list:
        """Scatter ``state.method(*args_w, **kwargs)`` and gather in order.

        ``per_worker_args`` holds one positional-args tuple per worker;
        all workers run concurrently, and the result list preserves
        worker (hence walker) order.  A worker that crashed (or crashes
        mid-call) raises :class:`WorkerError` naming the worker id —
        never a raw pipe error or a hang.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if len(per_worker_args) != self.n_workers:
            raise ValueError(
                f"need {self.n_workers} argument tuples, got {len(per_worker_args)}"
            )
        for w, args in enumerate(per_worker_args):
            self._send(w, ("call", method, tuple(args), kwargs), method)
        return [self._recv(w, method=method) for w in range(self.n_workers)]

    def broadcast(self, method: str, *args, **kwargs) -> list:
        """Run ``state.method(*args, **kwargs)`` on every worker."""
        return self.call(method, [args] * self.n_workers, **kwargs)

    # -- health & fleet mechanisms -------------------------------------------

    def ping(self, worker: int, timeout: float | None = 5.0) -> bool:
        """Round-trip a heartbeat through one worker.

        Returns ``True`` on a pong; raises :class:`WorkerTimeout` on a
        missed deadline or :class:`WorkerError` on a dead worker.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._send(worker, ("ping",), "ping")
        return self._recv(worker, timeout=timeout, method="ping") == "pong"

    def restart_worker(self, worker: int, timeout: float = 10.0) -> None:
        """Replace one worker with a fresh process (same initializer).

        The old process is killed if still alive (it may be hung); the
        replacement rebuilds its state from ``initializer(worker, ...)``
        — deterministic, so a restarted shard is indistinguishable from
        the original.  ``timeout`` also bounds the replacement's own
        "ready" handshake: an initializer that hangs gets the process
        killed and :class:`WorkerTimeout` raised, so recovery itself can
        never wedge on a sick replacement.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if not 0 <= worker < self.n_workers:
            raise ValueError(f"no worker {worker} in a pool of {self.n_workers}")
        old_proc = self._procs[worker]
        try:
            self._conns[worker].close()
        except OSError:
            pass
        if old_proc.is_alive():
            old_proc.kill()
        old_proc.join(timeout)
        conn, proc = self._spawn(worker)
        self._conns[worker] = conn
        self._procs[worker] = proc
        try:
            self._recv(worker, timeout=timeout, method="initializer")  # "ready"
        except WorkerTimeout:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=1.0)
            raise

    def add_worker(self, timeout: float = 10.0) -> int:
        """Grow the pool by one worker; returns the new worker id.

        ``timeout`` bounds the new worker's initializer handshake; a
        hung initializer is killed and raises :class:`WorkerTimeout`,
        leaving the pool at its previous size.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        w = self.n_workers
        conn, proc = self._spawn(w)
        self._conns.append(conn)
        self._procs.append(proc)
        self.n_workers += 1
        try:
            self._recv(w, timeout=timeout, method="initializer")  # "ready"
        except BaseException:
            self._conns.pop()
            self._procs.pop()
            self.n_workers -= 1
            if proc.is_alive():
                proc.kill()
            proc.join(timeout)
            raise
        return w

    def remove_worker(self, timeout: float = 5.0) -> int:
        """Shrink the pool by one worker (the highest id); returns its id.

        The worker is asked to stop politely (running its state's
        ``close()``); if it does not comply within ``timeout`` it is
        killed — shrink never wedges on a sick worker.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self.n_workers <= 1:
            raise ValueError("cannot shrink the pool below one worker")
        w = self.n_workers - 1
        conn = self._conns.pop()
        proc = self._procs.pop()
        self.n_workers -= 1
        try:
            conn.send(("stop",))
            if conn.poll(timeout):
                conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        try:
            conn.close()
        except OSError:
            pass
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout)
        return w

    def arm_chaos(
        self, worker: int, kind: str, seconds: float = 0.0, timeout: float = 5.0
    ) -> None:
        """Arm a process-level fault on one worker (testing hook).

        ``kind="sigkill"`` makes the worker SIGKILL itself at its next
        dispatched call (the parent sees EOF, like a real crash);
        ``kind="hang"`` makes it sleep ``seconds`` before serving the
        call (a stuck worker a deadline must catch).
        """
        if kind not in _CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind {kind!r} (have {_CHAOS_KINDS})")
        if self._closed:
            raise RuntimeError("pool is closed")
        self._send(worker, ("chaos", kind, float(seconds)), "chaos")
        self._recv(worker, timeout=timeout, method="chaos")

    # -- observability -------------------------------------------------------

    def metrics_state(self, worker: int, timeout: float | None = None) -> list[dict]:
        """Pull one worker's metrics-registry state."""
        if self._closed:
            raise RuntimeError("pool is closed")
        self._send(worker, ("metrics",), "metrics")
        return self._recv(worker, timeout=timeout, method="metrics")

    def metrics_states(self) -> list[list[dict]]:
        """Pull every worker's metrics-registry state (one list each)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        for w in range(self.n_workers):
            self._send(w, ("metrics",), "metrics")
        return [self._recv(w, method="metrics") for w in range(self.n_workers)]

    def merge_metrics(self) -> None:
        """Fold every worker's registry into the parent's ``OBS`` registry.

        Counters add, gauges keep the last worker's value, histograms
        combine — see :meth:`repro.obs.metrics.MetricsRegistry.merge_state`.
        A ``crowd_pool_workers`` gauge records the pool size.
        """
        from repro.obs import OBS

        if not OBS.enabled:
            return
        for state in self.metrics_states():
            OBS.registry.merge_state(state)
        OBS.gauge("crowd_pool_workers", self.n_workers)

    # -- lifetime ------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop and join every worker (idempotent, never raises on exit).

        All waits run against one shared deadline: a worker that died
        mid-run (closed pipe) or hangs in a call is skipped/killed
        instead of wedging shutdown in a blocking ``recv``.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            budget = max(0.0, deadline - time.monotonic())
            try:
                if conn.poll(budget):
                    conn.recv()
            except (EOFError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)

    def __enter__(self) -> "ProcessCrowdPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
