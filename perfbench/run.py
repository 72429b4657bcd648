"""The canonical benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload kernel-vgh --seed 1 --seconds 20 --trace 0

Workloads: ``kernel-vgh``, ``vmc-crowd``, ``dmc``, ``serve-eval`` (see
``perfbench/README.md``).  Every workload runs in fresh child processes
(``child.py``) whose environment this launcher sets: no ``REPRO_*``
variables, an empty per-run tuning database, one BLAS/OpenMP thread,
caches kept inside the checkout.

``--trace 0`` runs the workload ``SETUP_SAMPLES - 1`` times up to its
warm-up (for ``setup_s``) and once for ``--seconds`` of timed rounds,
and prints the end-to-end metrics.  ``--trace 1`` runs a fixed number of
rounds twice — untraced, then with spans around every layer — and
prints the per-layer metrics; it also writes
``perfbench/_runs/trace-<workload>.json`` (Chrome ``trace_event``).

The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A failed correctness gate, a crash or a timeout exits non-zero without
printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

#: Fresh processes that measure set-up; their median is ``setup_s``.
SETUP_SAMPLES = 3

#: Rounds of the fixed-work runs behind the per-layer metrics.
TRACE_ROUNDS = {"kernel-vgh": 12, "vmc-crowd": 12, "dmc": 3, "serve-eval": 8}

#: Every run must end within this many seconds.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s_norm": "1/s",
    "latency_p50_ms_norm": "ms",
}


def _source_digest() -> str:
    """SHA-256 over the program's source files, for provenance."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _child_env(run_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tune_db = run_dir / "tunedb.json"
    tune_db.touch()
    env.update(
        REPRO_TUNE_DB=str(tune_db),
        PYTHONPATH=str(ROOT / "src"),
        XDG_CACHE_HOME=str(RUNS / "cache"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


class Runner:
    """Starts child processes against one shared deadline."""

    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.env = _child_env(run_dir)
        self.deadline = time.monotonic() + BUDGET_S

    def child(self, mode: str, rounds: int = 1) -> dict:
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--seconds", str(self.args.seconds),
            "--rounds", str(rounds),
            "--out", str(self.run_dir),
        ]
        before = set(self.run_dir.glob(f"result-{mode}-*.json"))
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"{self.args.workload} {mode} run exceeded the {BUDGET_S:.0f} s budget")
        finally:
            _reap_group(proc.pid)
        if proc.returncode != 0:
            sys.stderr.write(err.decode(errors="replace"))
            raise SystemExit(f"{self.args.workload} {mode} run failed (exit {proc.returncode})")
        produced = set(self.run_dir.glob(f"result-{mode}-*.json")) - before
        if len(produced) != 1:
            raise SystemExit(f"{self.args.workload} {mode} run wrote no result")
        return json.loads(produced.pop().read_text())


def _group_alive(pgid: int) -> bool:
    """Whether any live (non-zombie) process is left in group ``pgid``."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int) -> None:
    """Wait for what a child left in its process group; kill stragglers."""
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not _group_alive(pgid):
                return
            time.sleep(0.05)


def host_factor(result: dict) -> float:
    """How much slower than the reference this host ran around ``result``'s
    timed window: its fastest probe over the probe's reference time."""
    return min(result["probe_s"]) / result["probe_ref_s"]


def round_factor(round_: dict, ref_s: float) -> float:
    """How much slower than the reference this host ran during one round:
    the geometric mean of the probes timed just before and just after it.

    The host's speed changes under the program by up to 1.8x within
    seconds (neighbours share its cores and caches), far beyond any bound
    a regression check could use; the probes on either side of a round
    see the same neighbours the round saw.
    """
    after = round_["probe_after"] or round_["probe_before"]
    return (round_["probe_before"] * after) ** 0.5 / ref_s


def _provenance(args, results: list[dict]) -> dict:
    host = results[-1]["provenance"].pop("host", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "host": host,
        "runs": [
            {"mode": r["mode"], "provenance": r.get("provenance", {}), "rounds": len(r.get("rounds", []))}
            for r in results
        ],
    }


def measure(runner: Runner) -> tuple[dict, list[dict]]:
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES - 1)] + [runner.child("measure")]
    main = setups[-1]
    rounds = main["rounds"]
    if not rounds:
        raise SystemExit(f"{runner.args.workload} completed no timed round")
    factors = [round_factor(r, main["probe_ref_s"]) for r in rounds]
    rates = [r["ops"] / r["seconds"] for r in rounds]
    latencies_ms = [r["latency_p50"] * 1e3 for r in rounds]
    setup_samples = [s["setup_s"] for s in setups]
    # Set-up time moves with the host's speed as the rates do (see the
    # README); the run's median round factor gauges the host over the
    # ~30 s in which all three set-ups ran.
    run_factor = statistics.median(factors)
    values = {
        "setup_s": statistics.median(setup_samples) / run_factor,
        "peak_rss_mib": main["peak_rss_kib"] / 1024.0,
        "ops_per_s_norm": statistics.median(v * f for v, f in zip(rates, factors)),
        "latency_p50_ms_norm": statistics.median(v / f for v, f in zip(latencies_ms, factors)),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    main["provenance"]["raw"] = {
        "round_ops_per_s": rates,
        "round_latency_p50_ms": latencies_ms,
        "round_host_factor": factors,
        "probe_ref_s": main["probe_ref_s"],
        "round_seconds": [r["seconds"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "round_ops": [r["ops"] for r in rounds],
        "latency_samples_per_round": rounds[0]["samples"],
        "setup_samples_s": setup_samples,
        "setup_host_factor": run_factor,
    }
    return {"attempted": main["attempted"], "failed": main["failed"], "metrics": metrics}, setups


def trace(runner: Runner, layer_units: dict) -> tuple[dict, list[dict]]:
    rounds = TRACE_ROUNDS[runner.args.workload]
    plain = runner.child("fixed", rounds)
    traced = runner.child("trace", rounds)
    layers = traced["layers"]
    traced_s = traced["timed_s"] / host_factor(traced)
    plain_s = plain["timed_s"] / host_factor(plain)
    layers["trace.overhead"] = traced_s / plain_s - 1.0
    if runner.args.workload == "serve-eval":
        layers["serve.latency_p99_ms_norm"] = plain["latency_p99_s"] * 1e3 / host_factor(plain)
        layers["serve.latency_samples"] = plain["latency_samples"]
    missing = set(layer_units) - set(layers)
    if missing:
        raise SystemExit(f"traced run did not report {sorted(missing)}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in layer_units.items()}
    return (
        {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics,
        },
        [plain, traced],
    )


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    RUNS.mkdir(exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args, run_dir)
        if args.trace:
            summary, results = trace(runner, layer_units)
            trace_file = run_dir / f"trace-{args.workload}.json"
            shutil.move(str(trace_file), str(RUNS / trace_file.name))
        else:
            summary, results = measure(runner)
        print(json.dumps({"provenance": _provenance(args, results)}))
        for result in results:
            for failure in result.get("failures", []):
                print(f"failed operation ({result['mode']}): {failure}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": True, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
