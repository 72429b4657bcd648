"""repro.obs — observability: metrics, tracing, and profiling hooks.

The paper's argument is built on measurement (per-kernel timings, working
sets, speedup tables); this package is the measurement substrate for the
live code.  One process-wide :class:`Observability` instance, :data:`OBS`,
owns a :class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracing.Tracer`, and the hot paths are instrumented
against it behind a **zero-cost-when-disabled** contract:

* disabled (the default), every instrumentation point is a single
  attribute check — ``if OBS.enabled:`` — and nothing is allocated,
  locked, or recorded;
* enabled, kernels/drivers/guards record eval counts, bytes moved,
  latency histograms, occupancy gauges, and checkpoint/guard/retry
  events, dumpable as a metrics JSON, a Chrome ``trace_event`` JSON, a
  flat JSONL event log, and a human summary table.

Usage::

    from repro.obs import OBS
    OBS.enable()
    ...  # run drivers / QMC
    print(OBS.summary_table())
    OBS.write(metrics_out="metrics.json", trace_out="trace.json")
    OBS.disable()

Both CLIs expose this as ``--metrics-out`` / ``--trace-out``.
"""

from __future__ import annotations

import contextlib

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_labels,
)
from repro.obs.tracing import NULL_SPAN, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "NULL_SPAN",
    "Observability",
    "OBS",
    "kernel_bytes_moved",
    "format_labels",
]

#: Stencil points gathered per evaluation (the 4x4x4 input block).
_STENCIL_POINTS = 64

#: Output streams per kernel for bytes-moved accounting; AoS stores the
#: redundant Hessian entries (13 streams), every SoA-shaped layout 10.
_OUT_STREAMS = {
    ("v", "aos"): 1,
    ("vgl", "aos"): 5,
    ("vgh", "aos"): 13,
    ("v", "soa"): 1,
    ("vgl", "soa"): 5,
    ("vgh", "soa"): 10,
}


def kernel_bytes_moved(
    kind: str, layout: str, n_splines: int, itemsize: int
) -> int:
    """Model bytes moved by one kernel evaluation (paper's working sets).

    Input side: the 64-point stencil gathers ``64 * N * itemsize`` bytes
    of coefficients; output side: ``streams * N * itemsize`` bytes, with
    the stream count from paper Secs. IV/V-A (13 for AoS VGH, 10 SoA).

    Parameters
    ----------
    kind:
        ``"v"``, ``"vgl"`` or ``"vgh"``.
    layout:
        ``"aos"`` for the interleaved baseline; anything else (``soa``,
        ``fused``, ``aosoa``…) uses the SoA stream counts.
    n_splines:
        N, splines evaluated per call.
    itemsize:
        Bytes per coefficient/output value.
    """
    group = "aos" if layout == "aos" else "soa"
    try:
        streams = _OUT_STREAMS[(kind, group)]
    except KeyError:
        raise ValueError(f"unknown kernel kind {kind!r}") from None
    return (_STENCIL_POINTS + streams) * n_splines * itemsize


class Observability:
    """The process-wide observability switchboard.

    Attributes
    ----------
    enabled:
        The one flag every hot path checks.  ``False`` by default; while
        false, all recording helpers return immediately (and
        :meth:`span` returns a shared no-op context manager).
    registry:
        The live :class:`~repro.obs.metrics.MetricsRegistry` (always
        present, so handles survive enable/disable cycles).
    tracer:
        The live :class:`~repro.obs.tracing.Tracer`.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> "Observability":
        """Turn recording on (idempotent); returns self for chaining."""
        self.enabled = True
        return self

    def disable(self) -> None:
        """Turn recording off; recorded data is kept until :meth:`reset`."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded metrics and trace events (state, not the flag)."""
        self.registry.reset()
        self.tracer.reset()

    def __enter__(self) -> "Observability":
        return self.enable()

    def __exit__(self, *exc) -> None:
        self.disable()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block; the flag is restored after.

        For work a run does on its own account (the backend registry's
        conformance gate), which no run's metrics should count.  The
        flag is process-wide, so other threads record nothing meanwhile
        either.
        """
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # -- recording helpers (each is a no-op while disabled) ------------------

    def count(self, name: str, amount: float = 1, **labels) -> None:
        """Increment counter ``name{labels}`` by ``amount``."""
        if self.enabled:
            self.registry.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge ``name{labels}`` to ``value``."""
        if self.enabled:
            self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into histogram ``name{labels}``."""
        if self.enabled:
            self.registry.histogram(name, **labels).observe(value)

    def span(self, name: str, cat: str = "repro", **args):
        """A timing span context manager (no-op singleton when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, cat=cat, **args)

    def complete(
        self,
        name: str,
        start_seconds: float,
        duration_seconds: float,
        cat: str = "repro",
        **args,
    ) -> None:
        """Record an already-measured interval (see ``Tracer.add_complete``)."""
        if self.enabled:
            self.tracer.add_complete(
                name, start_seconds, duration_seconds, cat=cat, **args
            )

    def event(self, name: str, cat: str = "repro", **args) -> None:
        """Record an instant marker in the trace."""
        if self.enabled:
            self.tracer.instant(name, cat=cat, **args)

    def kernel_eval(
        self,
        engine: str,
        kernel: str,
        n_evals: int,
        seconds: float,
        bytes_moved: int = 0,
    ) -> None:
        """The per-kernel profiling hook the drivers call once per batch.

        Records the eval count, the modeled bytes moved, and the batch
        latency (seconds for the whole batch) into

        * ``kernel_evals_total{engine,kernel}`` (counter),
        * ``kernel_bytes_total{engine,kernel}`` (counter),
        * ``kernel_batch_seconds{engine,kernel}`` (histogram), and
        * ``kernel_eval_seconds{engine,kernel}`` (histogram, per-eval).
        """
        if not self.enabled:
            return
        self.count("kernel_evals_total", n_evals, engine=engine, kernel=kernel)
        if bytes_moved:
            self.count(
                "kernel_bytes_total", bytes_moved, engine=engine, kernel=kernel
            )
        self.observe(
            "kernel_batch_seconds", seconds, engine=engine, kernel=kernel
        )
        if n_evals > 0:
            self.observe(
                "kernel_eval_seconds",
                seconds / n_evals,
                engine=engine,
                kernel=kernel,
            )

    # -- output --------------------------------------------------------------

    def summary_table(self) -> str:
        """The registry's human-readable summary table."""
        return self.registry.summary_table()

    def write(
        self, metrics_out=None, trace_out=None, events_out=None
    ) -> None:
        """Dump recorded data to files (each destination optional).

        Parameters
        ----------
        metrics_out:
            Metrics snapshot as JSON.
        trace_out:
            Chrome ``trace_event`` JSON (open in ``chrome://tracing``).
        events_out:
            Flat JSONL event log.
        """
        if metrics_out is not None:
            self.registry.write_json(metrics_out)
        if trace_out is not None:
            self.tracer.write_chrome_trace(trace_out)
        if events_out is not None:
            self.tracer.write_jsonl(events_out)


#: The process-wide instance every instrumentation point checks.
OBS = Observability()
