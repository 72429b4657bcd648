"""One workload in one fresh process; writes its measurements as JSON.

Started by ``run.py`` with an isolated environment (no ``REPRO_*``
variables except an empty per-run ``REPRO_TUNE_DB``, one BLAS/OpenMP
thread).  Modes:

* ``setup``   — import, build and warm up, record ``setup_s``, exit;
* ``measure`` — the same, then timed rounds until ``--seconds`` pass;
* ``fixed``   — timed rounds of a fixed count, untraced (the baseline
  of ``trace.overhead``);
* ``trace``   — the fixed rounds again with spans around every layer.

Usage: ``python3 perfbench/child.py --workload NAME --seed N --mode MODE
--seconds S --rounds R --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: CPUs this process may use before the run pins itself (provenance).
NPROC = len(os.sched_getaffinity(0))
# Every process of a run (the serve worker inherits this) and the host
# probe share one CPU, so the probe sees the neighbours the workload sees
# and no request waits on a wake-up across CPUs.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import workloads  # noqa: E402


#: The default host-speed probe: a fixed einsum contraction over a 2 MiB
#: float32 block, the same contraction shape the batched kernels run.  It
#: is benchmark code, so no change to ``repro`` moves it.  A workload may
#: swap in a probe closer to its own work (``Context.use_probe``).  Timed
#: once between rounds (the probes on either side of a round give that
#: round's host factor) and in bursts just before and after the timed
#: window (which normalise the fixed-work runs behind ``trace.overhead``).
_PROBE_BLOCK = np.random.default_rng(0).random((64, 4, 4, 4, 32)).astype(np.float32)
_PROBE_WEIGHTS = np.random.default_rng(1).random((64, 4)).astype(np.float32)
PROBE_ITERATIONS = 200
PROBE_BURST = 8
#: Fastest einsum probe on the reference host state: this 2-vCPU KVM
#: guest when no neighbour contends for it.
EINSUM_PROBE_REF_S = 0.020


def einsum_probe() -> float:
    """Seconds taken by one einsum probe."""
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        np.einsum("sabcn,sc->sabn", _PROBE_BLOCK, _PROBE_WEIGHTS)
    return time.perf_counter() - t0


class SetupOnly(BaseException):
    """Ends a ``setup`` mode run right after the warm-up operation."""


class Context:
    """What a workload needs from the harness: clock, rounds, counters."""

    def __init__(self, args, t_import: float):
        self.seed = args.seed
        self.out = args.out
        self.mode = args.mode
        self.seconds = args.seconds
        self.fixed_rounds = args.rounds if args.mode in ("fixed", "trace") else None
        self.trace = args.mode == "trace"
        self.t_import = t_import
        self.t_start = self.t_end = None
        self.setup_s = None
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.provenance: dict = {}
        self.extra: dict = {}
        self.probe = einsum_probe
        self.probe_ref_s = EINSUM_PROBE_REF_S
        self.probe_s: list[float] = []
        self._last_probe: float | None = None
        self.latencies: list[float] = []
        self._cpu_mark = 0.0

    def use_probe(self, probe, ref_s: float) -> None:
        """Gauge the host with ``probe`` (returns its seconds), whose time
        on the reference host state is ``ref_s``."""
        self.probe, self.probe_ref_s = probe, ref_s

    def probe_burst(self, count: int = PROBE_BURST) -> list[float]:
        """Seconds taken by each of ``count`` host-speed probes."""
        return [self.probe() for _ in range(count)]

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - self.t_import
        if self.mode == "setup":
            raise SetupOnly
        self.probe_s += self.probe_burst()
        self._last_probe = self.probe_s[-1]
        self._cpu_mark = time.process_time()
        self.t_start = time.perf_counter()

    def more_rounds(self) -> bool:
        if self.fixed_rounds is not None:
            return len(self.rounds) < self.fixed_rounds
        return time.perf_counter() - self.t_start < self.seconds

    def add_round(self, ops: int, seconds: float, latencies: list[float]) -> None:
        self.latencies += latencies
        self.rounds.append(
            {"ops": ops, "seconds": seconds, "latency_p50": statistics.median(latencies),
             "samples": len(latencies),
             "probe_before": self._last_probe, "probe_after": None,
             "cpu_s": time.process_time() - self._cpu_mark}
        )

    def between_rounds(self) -> None:
        """Probe the host's speed between timed rounds (measure mode only;
        the fixed-work runs keep their window free for the span shares)."""
        if self.mode == "measure":
            (probe,) = self.probe_burst(1)
            self.probe_s.append(probe)
            self.rounds[-1]["probe_after"] = probe
            self._last_probe = probe
        self._cpu_mark = time.process_time()

    def timed_done(self) -> None:
        if self.t_end is None:
            self.t_end = time.perf_counter()
            self.probe_s += self.probe_burst()

    def fail(self, exc: BaseException) -> None:
        self.failures.append(f"{type(exc).__name__}: {exc}")


def _peak_rss_kib() -> int:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(own + children)


def _host() -> dict:
    """Core count, caches and the numeric libraries this run used."""
    from repro.tune.planner import detect_caches

    caches = detect_caches()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "caches": {"l2_bytes": caches.l2_bytes, "llc_bytes": caches.llc_bytes, "source": caches.source},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "fixed", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # A deprecated spelling anywhere on the benchmark's path fails at once.
    warnings.filterwarnings("error", category=DeprecationWarning, module=r"repro(\.|$)")
    warnings.filterwarnings("error", category=DeprecationWarning, module=r"(__main__|workloads|spans)$")

    recorder = None
    if args.mode == "trace":
        from spans import Recorder

        recorder = Recorder(args.out)
        recorder.install()

    t_import = time.perf_counter()
    import repro  # noqa: F401  (the first repro import starts setup_s)

    ctx = Context(args, t_import)
    result: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    try:
        workloads.WORKLOADS[args.workload](ctx)
    except SetupOnly:
        result["setup_s"] = ctx.setup_s
        (args.out / f"result-{args.mode}-{os.getpid()}.json").write_text(json.dumps(result))
        return 0
    except workloads.GateError as exc:
        print(f"correctness gate failed on {args.workload}: {exc}", file=sys.stderr)
        return 3
    ctx.provenance["host"] = _host()
    result.update(
        setup_s=ctx.setup_s,
        timed_s=ctx.t_end - ctx.t_start,
        probe_s=ctx.probe_s,
        probe_ref_s=ctx.probe_ref_s,
        latency_p99_s=float(np.quantile(ctx.latencies, 0.99)) if ctx.latencies else 0.0,
        latency_samples=len(ctx.latencies),
        rounds=ctx.rounds,
        attempted=ctx.attempted,
        failed=len(ctx.failures),
        failures=ctx.failures[:5],
        peak_rss_kib=_peak_rss_kib(),
        provenance=ctx.provenance,
    )
    if recorder is not None:
        recorder.uninstall()
        recorder.load_children()
        metrics = recorder.layer_metrics(ctx.t_start, ctx.t_end, ctx.extra)
        if args.workload == "kernel-vgh":
            metrics.update(_roofline(recorder, metrics, result))
        recorder.write_chrome_trace(args.out / f"trace-{args.workload}.json", ctx.t_start, ctx.t_end)
        result["layers"] = metrics
    (args.out / f"result-{args.mode}-{os.getpid()}.json").write_text(json.dumps(result))
    return 0


def _roofline(recorder, metrics: dict, result: dict) -> dict:
    """Place the kernel on this host's measured triad bandwidth."""
    from repro.hwsim.hostcal import measure_stream_bandwidth
    from repro.tune.planner import detect_caches

    llc = detect_caches().llc_bytes
    array_mib = -(-4 * llc // 2**20)
    bandwidth = measure_stream_bandwidth(size_mb=array_mib)
    computed = recorder.roofline()
    result["provenance"]["roofline"] = {
        "llc_bytes": llc,
        "triad_array_bytes": array_mib * 2**20,
        "triad_bytes_per_s": bandwidth,
        "vgh_flops_per_eval_computed": computed["flops_per_eval"],
        "vgh_bytes_per_eval_computed": computed["bytes_per_eval"],
    }
    return {
        "core.flops_per_byte_computed": computed["flops_per_byte"],
        "core.bw_frac": metrics["core.bytes_per_s_computed"] / bandwidth,
    }


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        sys.exit(1)
