"""Spans recorded from outside the program, around each layer's entry points.

The traced run installs wrappers on the public entry points of every
layer before the workload builds anything; the untraced runs never
import this module.  A span is ``[layer, name, start, end, thread,
parent, args]``; spans stay in memory and are written once, at the end,
as a Chrome ``trace_event`` file.

Two kinds of layer:

* **self-time layers** nest on their thread's span stack.  A layer's
  self time is its span time minus the time its child spans cover,
  clipped to the timed window.  Top-level spans of every thread hang
  off the root span (the timed window), so the self times of these
  layers plus the root's own remainder add up to the traced wall time
  as long as top-level spans of different threads never overlap —
  true here because only one thread per process runs them.
* **wait layers** (``parallel.pool``, ``serve.batching``) measure time a
  request spends waiting on another thread or process.  They never
  enter the stack, so they cannot take self time from anyone.

Serve workers are forked after the wrappers are in, so their kernel
calls are recorded too; each worker writes its spans to a file when it
exits, and the parent merges them (:meth:`Recorder.load_children`).
Worker spans form their own tree and their own identity: per process,
the shares add up to one.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import statistics
import sys
import threading
import time
from pathlib import Path

SELF_LAYERS = (
    "core",
    "core.basis",
    "qmc.sweep",
    "qmc.det",
    "qmc.jastrow",
    "qmc.distance",
    "qmc.estimator",
    "qmc.branch",
    "serve.protocol",
)

#: Multiply-adds per (position, spline) of one VGH evaluation in the
#: batched contraction chain: three z-passes over the 4x4x4 block, six
#: y-passes over 4x4, ten x-passes over 4 (v, three gradient and six
#: Hessian components), plus the two adds that form the Laplacian.
_VGH_FLOPS_PER_SPLINE = 2 * (3 * 64 + 6 * 16 + 10 * 4) + 2

#: Every per-layer metric the traced run reports, in a fixed order.  A
#: layer that does not run on a workload reports zero.
LAYER_METRICS = (
    "core.calls",
    "core.positions_per_call",
    "core.self_share",
    "core.bytes_per_s_computed",
    "core.flops_per_byte_computed",
    "core.bw_frac",
    "core.basis.calls",
    "core.basis.self_share",
    "tune.chunk",
    "tune.tile",
    "qmc.sweep.calls",
    "qmc.sweep.self_share",
    "qmc.accept_ratio",
    "qmc.det.calls",
    "qmc.det.self_share",
    "qmc.jastrow.calls",
    "qmc.jastrow.self_share",
    "qmc.distance.calls",
    "qmc.distance.self_share",
    "qmc.estimator.calls",
    "qmc.estimator.share",
    "qmc.estimator.self_share",
    "qmc.branch.self_share",
    "qmc.branch.clones",
    "qmc.population_mean",
    "serve.protocol.calls",
    "serve.protocol.self_share",
    "serve.wire_bytes_per_request",
    "serve.batches",
    "serve.requests_per_batch",
    "serve.window_wait_ms_p50",
    "serve.latency_p99_ms_norm",
    "serve.latency_samples",
    "parallel.pool.calls",
    "parallel.pool.wait_share",
    "parallel.pool.payload_bytes_per_call",
    "unattributed.self_share",
    "trace.overhead",
)


def _public_methods(cls) -> list[str]:
    """Names of plain public functions defined on ``cls`` itself."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and type(value).__name__ == "function"
    ]


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.engines: dict[int, dict] = {}
        self.busiest_engine: dict | None = None
        self.clones: list[float] = []
        self.submitted: dict[int, float] = {}
        self.batches: list[tuple[float, list[float]]] = []
        self.children: list[dict] = []
        self.pid = os.getpid()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _nested(self, layer: str, name: str, fn, capture=None):
        """Wrap ``fn`` in a span that nests on the thread's stack."""
        clock = time.perf_counter
        get_ident = threading.get_ident
        spans = self.spans
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [layer, name, 0.0, 0.0, get_ident(), stack[-1] if stack else None, None]
            stack.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if capture is not None:
                span[6] = capture(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _waiting(self, layer: str, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a wait span that never enters the stack."""
        clock = time.perf_counter
        get_ident = threading.get_ident
        spans = self.spans

        def wrapper(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, get_ident(), None, None]
            if before is not None:
                span[6] = before(args, kwargs)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                spans.append(span)
            if after is not None:
                span[6] = after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_class(self, cls, names, make) -> None:
        for name in names:
            original = vars(cls)[name]
            self._restore.append((cls, name, original))
            setattr(cls, name, make(original, name))

    def _patch_function(self, module_name: str, attr: str, make) -> None:
        """Replace every module-level reference to one repro function."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = make(original, attr)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapped)

    def install(self) -> None:
        """Put every wrapper in.  Call after importing repro, before building."""
        import repro.core.basis  # noqa: F401
        import repro.core.batched
        import repro.core.spline1d
        import repro.parallel.pool
        import repro.qmc.batched_step  # noqa: F401
        import repro.qmc.determinant
        import repro.qmc.distance_tables
        import repro.qmc.dmc
        import repro.qmc.estimators
        import repro.qmc.jastrow
        import repro.serve.batching
        import repro.serve.protocol  # noqa: F401
        import repro.serve.server  # noqa: F401
        from repro.obs import kernel_bytes_moved

        engines = self.engines

        def core_capture(args, result):
            engine, positions = args[0], args[1]
            key = id(engine)
            if key not in engines:
                cap = engine.backend.capability
                engines[key] = {
                    "n_splines": int(engine.n_splines),
                    "itemsize": int(engine.dtype.itemsize),
                    "dtype": str(engine.dtype),
                    "chunk": int(engine.plan.chunk),
                    "tile": int(engine.plan.tile),
                    "plan_source": str(engine.plan.source),
                    "backend": str(engine.backend.name),
                    "tier": str(cap.tier),
                }
            return (key, len(positions))

        kernels = ("v_batch", "vgl_batch", "vgh_batch")
        self._patch_class(
            repro.core.batched.BsplineBatched,
            kernels,
            lambda fn, name: self._nested("core", name[:-6], fn, core_capture),
        )
        self.bytes_moved = kernel_bytes_moved
        self._patch_function(
            "repro.core.basis",
            "bspline_weights_batch",
            lambda fn, name: self._nested("core.basis", name, fn),
        )
        self._patch_function(
            "repro.qmc.batched_step",
            "batched_sweep",
            lambda fn, name: self._nested(
                "qmc.sweep", name, fn, lambda args, result: tuple(result)
            ),
        )
        self._patch_function(
            "repro.qmc.dmc",
            "run_dmc",
            lambda fn, name: self._nested("qmc.branch", name, fn),
        )
        for name in ("encode_line", "decode_line", "encode_array", "decode_array"):
            self._patch_function(
                "repro.serve.protocol",
                name,
                lambda fn, name: self._nested("serve.protocol", name, fn),
            )
        by_layer = (
            ("qmc.det", repro.qmc.determinant.DiracDeterminant),
            ("qmc.jastrow", repro.qmc.jastrow.OneBodyJastrow),
            ("qmc.jastrow", repro.qmc.jastrow.TwoBodyJastrow),
            ("qmc.distance", repro.qmc.distance_tables.DistanceTableAA),
            ("qmc.distance", repro.qmc.distance_tables.DistanceTableAB),
        )
        for layer, cls in by_layer:
            self._patch_class(
                cls,
                _public_methods(cls),
                lambda fn, name, layer=layer, cls=cls: self._nested(
                    layer, f"{cls.__name__}.{name}", fn
                ),
            )
        self._patch_class(
            repro.core.spline1d.CubicBspline1D,
            ("evaluate", "evaluate_vgl"),
            lambda fn, name: self._nested("qmc.jastrow", f"CubicBspline1D.{name}", fn),
        )
        self._patch_class(
            repro.qmc.estimators.LocalEnergy,
            ("total",),
            lambda fn, name: self._nested("qmc.estimator", f"LocalEnergy.{name}", fn),
        )
        self._install_clone_counter(repro.qmc.dmc.DmcWalker)
        self._install_pool(repro.parallel.pool.ProcessCrowdPool)
        self._install_batcher(repro.serve.batching.MicroBatcher)
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _install_clone_counter(self, walker_cls) -> None:
        clones = self.clones
        clock = time.perf_counter

        def make(fn, name):
            def clone(*args, **kwargs):
                clones.append(clock())
                return fn(*args, **kwargs)

            return clone

        self._patch_class(walker_cls, ("clone",), make)

    def _install_pool(self, pool_cls) -> None:
        from multiprocessing.reduction import ForkingPickler

        def request_bytes(args, kwargs):
            call = dict(zip(("self", "worker", "method", "args", "kwargs"), args))
            call.update(kwargs)
            message = (
                "call",
                call.get("method"),
                tuple(call.get("args") or ()),
                dict(call.get("kwargs") or {}),
            )
            return len(ForkingPickler.dumps(message))

        def reply_bytes(result):
            return len(ForkingPickler.dumps(("ok", result)))

        self._patch_class(
            pool_cls,
            ("start_call",),
            lambda fn, name: self._waiting("parallel.pool", name, fn, before=request_bytes),
        )
        self._patch_class(
            pool_cls,
            ("finish_call",),
            lambda fn, name: self._waiting("parallel.pool", name, fn, after=reply_bytes),
        )

    def _install_batcher(self, batcher_cls) -> None:
        submitted = self.submitted
        batches = self.batches
        clock = time.perf_counter

        def make_init(fn, name):
            def __init__(self_, flush, *args, **kwargs):
                def timed_flush(key, items):
                    now = clock()
                    batches.append(
                        (now, [now - submitted.pop(id(it), now) for it in items])
                    )
                    return flush(key, items)

                return fn(self_, timed_flush, *args, **kwargs)

            return __init__

        def make_submit(fn, name):
            def submit(self_, key, item):
                submitted[id(item)] = clock()
                return fn(self_, key, item)

            return submit

        self._patch_class(batcher_cls, ("__init__",), make_init)
        self._patch_class(batcher_cls, ("submit",), make_submit)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- forked workers --------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: start empty, write spans out at exit."""
        del self.spans[:]
        self.clones.clear()
        self.engines.clear()
        self._local.stack = []
        self.pid = os.getpid()
        multiprocessing.util.Finalize(self, self._dump_child, exitpriority=100)

    def _dump_child(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.json"
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s[0], s[1], s[2], s[3], s[4], index.get(id(s[5])), s[6]]
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"pid": self.pid, "spans": rows, "engines": self.engines}, f)

    def load_children(self) -> None:
        """Merge span files written by exited worker processes."""
        for path in sorted(self.out_dir.glob("spans-*.json")):
            with open(path) as f:
                data = json.load(f)
            rows = data["spans"]
            spans = [list(r) for r in rows]
            for s in spans:
                s[5] = spans[s[5]] if s[5] is not None else None
            engines = {int(k): v for k, v in data["engines"].items()}
            for s in spans:
                if s[0] == "core" and s[6] is not None:
                    s[6] = tuple(s[6])
            self.children.append({"pid": data["pid"], "spans": spans, "engines": engines})
            path.unlink()

    # -- analysis ---------------------------------------------------------------

    def layer_metrics(self, t_start: float, t_end: float, extra: dict) -> dict:
        """Every metric of :data:`LAYER_METRICS` over the timed window."""
        wall = t_end - t_start
        metrics = dict.fromkeys(LAYER_METRICS, 0.0)
        processes = [{"spans": self.spans, "engines": self.engines}] + self.children

        def clip(s):
            return max(0.0, min(s[3], t_end) - max(s[2], t_start))

        def started(s):
            return t_start <= s[2] < t_end

        for proc_no, proc in enumerate(processes):
            spans = [s for s in proc["spans"] if s[0] in SELF_LAYERS]
            covered: dict[int, float] = {}
            for s in spans:
                if s[5] is not None:
                    covered[id(s[5])] = covered.get(id(s[5]), 0.0) + clip(s)
            self_time: dict[str, float] = {}
            calls: dict[str, int] = {}
            inclusive: dict[str, float] = {}
            for s in spans:
                self_time[s[0]] = self_time.get(s[0], 0.0) + clip(s) - covered.get(id(s), 0.0)
                inclusive[s[0]] = inclusive.get(s[0], 0.0) + clip(s)
                if started(s):
                    calls[s[0]] = calls.get(s[0], 0) + 1
            for layer, value in self_time.items():
                key = f"{layer}.self_share"
                if key in metrics:
                    metrics[key] += value / wall
            for layer, value in calls.items():
                key = f"{layer}.calls"
                if key in metrics:
                    metrics[key] += value
            if proc_no == 0:
                tops = sorted(
                    (max(s[2], t_start), min(s[3], t_end))
                    for s in spans
                    if s[5] is None and clip(s) > 0.0
                )
                union, cur_lo, cur_hi = 0.0, None, None
                for lo, hi in tops:
                    if cur_hi is None or lo > cur_hi:
                        if cur_hi is not None:
                            union += cur_hi - cur_lo
                        cur_lo, cur_hi = lo, hi
                    else:
                        cur_hi = max(cur_hi, hi)
                if cur_hi is not None:
                    union += cur_hi - cur_lo
                metrics["unattributed.self_share"] = (wall - union) / wall
                metrics["qmc.estimator.share"] = inclusive.get("qmc.estimator", 0.0) / wall

            core = [s for s in spans if s[0] == "core" and started(s) and s[6]]
            if core:
                positions = sum(s[6][1] for s in core)
                metrics["core.positions_per_call"] = positions / max(metrics["core.calls"], 1)
                moved = 0
                for s in core:
                    engine = proc["engines"][s[6][0]]
                    moved += s[6][1] * self.bytes_moved(
                        s[1], "batched", engine["n_splines"], engine["itemsize"]
                    )
                busy = sum(clip(s) for s in core)
                if busy > 0.0:
                    metrics["core.bytes_per_s_computed"] = moved / busy
                counts: dict[int, int] = {}
                for s in core:
                    counts[s[6][0]] = counts.get(s[6][0], 0) + 1
                busiest = proc["engines"][max(counts, key=counts.get)]
                metrics["tune.chunk"] = busiest["chunk"]
                metrics["tune.tile"] = busiest["tile"]
                self.busiest_engine = busiest

        sweeps = [s for s in self.spans if s[0] == "qmc.sweep" and started(s)]
        attempted = sum(s[6][1] for s in sweeps)
        if attempted:
            metrics["qmc.accept_ratio"] = sum(s[6][0] for s in sweeps) / attempted
        metrics["qmc.branch.clones"] = sum(1 for t in self.clones if t_start <= t < t_end)
        pool = [s for s in self.spans if s[0] == "parallel.pool" and started(s)]
        starts = [s for s in pool if s[1] == "start_call"]
        metrics["parallel.pool.calls"] = len(starts)
        metrics["parallel.pool.wait_share"] = (
            sum(clip(s) for s in pool if s[1] == "finish_call") / wall
        )
        if starts:
            payload = sum(s[6] or 0 for s in pool)
            metrics["parallel.pool.payload_bytes_per_call"] = payload / len(starts)
        waits = [w for t, ws in self.batches if t_start <= t < t_end for w in ws]
        if waits:
            metrics["serve.window_wait_ms_p50"] = statistics.median(waits) * 1e3
        metrics.update(extra)
        return metrics

    def roofline(self) -> dict:
        """Computed flops and bytes of one VGH evaluation on the busiest engine."""
        engine = self.busiest_engine
        n, itemsize = engine["n_splines"], engine["itemsize"]
        bytes_per_eval = self.bytes_moved("vgh", "batched", n, itemsize)
        flops_per_eval = _VGH_FLOPS_PER_SPLINE * n
        return {
            "flops_per_byte": flops_per_eval / bytes_per_eval,
            "flops_per_eval": flops_per_eval,
            "bytes_per_eval": bytes_per_eval,
        }

    # -- export -----------------------------------------------------------------

    def write_chrome_trace(self, path: Path, t_start: float, t_end: float) -> None:
        """One Chrome ``trace_event`` file: every span, phase-labelled."""
        events = []
        processes = [{"pid": self.pid, "spans": self.spans}] + self.children
        threads: dict[tuple[int, int], int] = {}
        for proc in processes:
            index = {id(s): i for i, s in enumerate(proc["spans"])}
            for i, s in enumerate(proc["spans"]):
                tid = threads.setdefault((proc["pid"], s[4]), len(threads) + 1)
                events.append(
                    {
                        "name": s[1],
                        "cat": s[0],
                        "ph": "X",
                        "ts": (s[2] - t_start) * 1e6,
                        "dur": (s[3] - s[2]) * 1e6,
                        "pid": proc["pid"],
                        "tid": tid,
                        "args": {
                            "span": i,
                            "parent": index.get(id(s[5])),
                            "phase": "timed" if t_start <= s[2] < t_end else "setup",
                        },
                    }
                )
        for t, waits in self.batches:
            for w in waits:
                events.append(
                    {
                        "name": "window_wait",
                        "cat": "serve.batching",
                        "ph": "X",
                        "ts": (t - w - t_start) * 1e6,
                        "dur": w * 1e6,
                        "pid": self.pid,
                        "tid": 0,
                        "args": {"phase": "timed" if t_start <= t < t_end else "setup"},
                    }
                )
        events.append(
            {
                "name": "timed",
                "cat": "root",
                "ph": "X",
                "ts": 0.0,
                "dur": (t_end - t_start) * 1e6,
                "pid": self.pid,
                "tid": 0,
                "args": {"phase": "timed"},
            }
        )
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
