"""The four workloads: build, warm up, run fixed-work rounds, gate outputs.

Each ``run_*`` function receives a :class:`Context` and does everything
a user of ``repro`` would pay for in one process: it imports ``repro``,
builds the table, ensemble or server, performs one warm-up operation,
then calls ``ctx.setup_done()`` — the end of ``setup_s`` and the start
of the timed window.  After that it runs rounds of fixed work until
``ctx.more_rounds()`` says stop, records each with ``ctx.add_round``,
closes the window with ``ctx.timed_done()``, and finally checks every
output it kept.  A failed check raises :class:`GateError`.

Only APIs that the roadmap keeps are called: ``BsplineBatched`` and
``Kind``, ``RunConfig``, ``WalkerRngPool`` and ``build_dmc_ensemble``,
``CrowdState`` and ``batched_sweep``, ``run_dmc``, ``ServeConfig`` and
``ServerThread``, and the NDJSON wire format.  The gates additionally
read the frozen oracle (``ReferenceBatched``), the served table
(``solve_system_table``) and ``LocalEnergy``.
"""

from __future__ import annotations

import gc
import math
import selectors
import socket
import time

import numpy as np

#: The N=32 electron-gas-like system shared by vmc-crowd, dmc and serve-eval.
QMC_WALKERS = 16
QMC_ORBITALS = 32
QMC_BOX = 12.0
QMC_GRID = (24, 24, 24)

KERNEL_BATCH = 256
KERNEL_CALLS_PER_ROUND = 24
TABLE_PROBE_POSITIONS = 64
TABLE_PROBE_BATCHES = 16
#: The table probe's time on the reference host state, where the einsum
#: probe takes its 20 ms: the table probe took 0.68 of the einsum probe's
#: time, median over 150 interleaved pairs.
TABLE_PROBE_REF_S = 0.0135
SERVE_CONNECTIONS = 2
SERVE_DEPTH = 8
#: Every batch closes on its count, when the 16 requests in flight have
#: all been admitted, never on its window timer.  Under the default 2 ms
#: window a batch held the 1-3 requests that got through the server's
#: admission path within 2 ms, a number set by thread and process
#: scheduling; per-request cost followed it, and the rate of one run's
#: rounds moved 2.8x while the host probe moved 13%.  The window is only a
#: safety net here: the closed loop refills it within a cycle.
SERVE_BATCH = SERVE_CONNECTIONS * SERVE_DEPTH
SERVE_WINDOW_US = 1_000_000.0
#: A whole number of batches, so no round ends on a part-filled window.
SERVE_REQUESTS_PER_ROUND = 32 * SERVE_BATCH
SERVE_POSITIONS = 1024
SERVE_TIMEOUT_S = 30.0


class GateError(AssertionError):
    """An output of the program failed its correctness check."""


def rel_close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * abs(b)


def run_config_provenance(config) -> dict:
    """A RunConfig's fields with the rung that decided each."""
    fields = config.as_dict()
    fields.pop("provenance", None)
    return {name: {"value": value, "source": config.source_of(name)} for name, value in fields.items()}


def engine_provenance() -> list[dict]:
    """Plan, backend and tier of every live batched engine."""
    from repro.core.batched import BsplineBatched

    engines = []
    for obj in gc.get_objects():
        if isinstance(obj, BsplineBatched):
            cap = obj.backend.capability
            engines.append(
                {
                    "n_splines": int(obj.n_splines),
                    "dtype": str(obj.dtype),
                    "chunk": int(obj.plan.chunk),
                    "tile": int(obj.plan.tile),
                    "plan_source": str(obj.plan.source),
                    "backend": obj.backend.name,
                    "tier": cap.tier,
                }
            )
    return engines


def check_streams(got: dict, want: dict, capability, dtype) -> None:
    """Exact equality on an exact-tier backend, else its declared tolerance."""
    from repro.backends import TIER_EXACT

    exact = capability.tier == TIER_EXACT
    rtol, atol = (0.0, 0.0) if exact else capability.tolerance_for(dtype)
    for name, expected in want.items():
        value = got[name]
        # The cheap test passes only where the assertion would; the
        # assertion runs for anything else and words the failure.
        if value.shape == expected.shape and (
            np.array_equal(value, expected) if exact else np.allclose(value, expected, rtol=rtol, atol=atol)
        ):
            continue
        try:
            if exact:
                np.testing.assert_array_equal(value, expected)
            else:
                np.testing.assert_allclose(value, expected, rtol=rtol, atol=atol)
        except AssertionError as exc:
            raise GateError(f"stream {name!r}: {exc}") from None


# -- kernel-vgh ----------------------------------------------------------------


def table_probe(table, seed: int):
    """A host-speed probe that does the kernel's work: gather random
    4x4x4 blocks of every spline from ``table`` (the benchmark's array,
    not the engine's copy) and contract each with separable weights.

    The kernel on an 80 MiB table waits on memory more than the einsum
    probe does, so it slows about half as much when neighbours contend;
    this probe slows as the kernel does.
    """
    rng = np.random.default_rng(seed)
    offsets = np.arange(4)
    indices = []
    for _ in range(TABLE_PROBE_BATCHES):
        i, j, k = (rng.integers(0, extent - 3, TABLE_PROBE_POSITIONS)[:, None] + offsets for extent in table.shape[:3])
        indices.append((i[:, :, None, None], j[:, None, :, None], k[:, None, None, :]))
    weights = rng.random((3, TABLE_PROBE_POSITIONS, 4)).astype(table.dtype)
    path = np.einsum_path("pabcn,pa,pb,pc->pn", table[indices[0]], *weights, optimize="greedy")[0]

    def probe() -> float:
        t0 = time.perf_counter()
        for index in indices:
            np.einsum("pabcn,pa,pb,pc->pn", table[index], *weights, optimize=path)
        return time.perf_counter() - t0

    return probe


def run_kernel_vgh(ctx) -> None:
    from repro.config import RunConfig
    from repro.core.batched import BsplineBatched
    from repro.core.grid import Grid3D
    from repro.core.kinds import Kind
    from repro.lattice.graphite import coral_4x4x1

    system = coral_4x4x1()
    n = system.n_orbitals
    grid = Grid3D(*system.grid_shape)
    rng = np.random.default_rng(ctx.seed)
    table = rng.random((*system.grid_shape, n), dtype=np.float32)
    batches = [rng.random((KERNEL_BATCH, 3)) for _ in range(64)]
    config = RunConfig.from_env().resolved_for(n, KERNEL_BATCH, np.float32)
    engine = BsplineBatched(grid, table, config=config)
    out = engine.new_output(Kind.VGH, n=KERNEL_BATCH)
    engine.evaluate_batch(Kind.VGH, batches[0], out)
    ctx.use_probe(table_probe(table, 0), TABLE_PROBE_REF_S)
    ctx.setup_done()

    first = last = None
    call = 0
    while ctx.more_rounds():
        latencies = []
        t_round = time.perf_counter()
        for _ in range(KERNEL_CALLS_PER_ROUND):
            positions = batches[call % len(batches)]
            call += 1
            ctx.attempted += 1
            t0 = time.perf_counter()
            try:
                engine.evaluate_batch(Kind.VGH, positions, out)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                ctx.fail(exc)
            latencies.append(time.perf_counter() - t0)
        ctx.add_round(KERNEL_CALLS_PER_ROUND * KERNEL_BATCH * n, time.perf_counter() - t_round, latencies)
        last = ((call - 1) % len(batches), {s: getattr(out, s).copy() for s in Kind.VGH.streams})
        first = first or last
        ctx.between_rounds()
    ctx.timed_done()
    kept = [snap for snap in (first, last) if snap is not None]

    from repro.core.batched_reference import ReferenceBatched

    reference = ReferenceBatched(grid, table)
    ref_out = reference.new_output(Kind.VGH, n=KERNEL_BATCH)
    for index, streams in kept:
        reference.evaluate_batch(Kind.VGH, batches[index], ref_out)
        want = {s: getattr(ref_out, s) for s in Kind.VGH.streams}
        check_streams(streams, want, engine.backend.capability, engine.dtype)
    ctx.provenance.update(
        run_config=run_config_provenance(config),
        engines=engine_provenance(),
        checked_batches=len(kept),
    )


# -- vmc-crowd -----------------------------------------------------------------


def _qmc_ensemble(seed: int):
    from repro.qmc.dmc import build_dmc_ensemble
    from repro.qmc.rng import WalkerRngPool

    pool = WalkerRngPool(seed)
    walkers = build_dmc_ensemble(
        pool, QMC_WALKERS, n_orbitals=QMC_ORBITALS, box=QMC_BOX, grid_shape=QMC_GRID
    )
    return pool, walkers


def _gate_walkers(walkers, check_energy: bool) -> None:
    """``recompute()`` every walker; incremental state must agree to 1e-10."""
    from repro.qmc.estimators import LocalEnergy

    for i, walker in enumerate(walkers):
        wf = walker.wf
        log_incremental = wf.log_value
        e_incremental = walker.e_local
        wf.recompute()
        log_fresh = wf.log_value
        if not rel_close(log_incremental, log_fresh, 1e-10):
            raise GateError(f"walker {i}: log_value {log_incremental!r} vs recomputed {log_fresh!r}")
        if check_energy:
            e_fresh = LocalEnergy(wf).total()
            if not rel_close(e_incremental, e_fresh, 1e-10):
                raise GateError(f"walker {i}: local energy {e_incremental!r} vs recomputed {e_fresh!r}")


def run_vmc_crowd(ctx) -> None:
    from repro.qmc.batched_step import CrowdState, batched_sweep

    tau = 0.3
    _, walkers = _qmc_ensemble(ctx.seed)
    state = CrowdState([w.wf for w in walkers], [w.rng for w in walkers])
    batched_sweep(state, tau)
    ctx.setup_done()

    accepted = attempted = 0
    while ctx.more_rounds():
        ctx.attempted += 1
        t0 = time.perf_counter()
        try:
            acc, att = batched_sweep(state, tau)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            ctx.fail(exc)
            break
        dt = time.perf_counter() - t0
        accepted += acc
        attempted += att
        ctx.add_round(len(walkers), dt, [dt])
        ctx.between_rounds()
    ctx.timed_done()

    _gate_walkers(walkers, check_energy=False)
    ctx.provenance.update(
        run_config=run_config_provenance(walkers[0].wf.slater.spos.config),
        engines=engine_provenance(),
        acceptance=accepted / max(attempted, 1),
    )


# -- dmc -------------------------------------------------------------------------


class _StopRun(Exception):
    """Raised from the generation hook to end the timed DMC run."""


def run_dmc(ctx) -> None:
    from repro.qmc.dmc import run_dmc as drive
    from repro.resilience.guards import PopulationGuard

    target = QMC_WALKERS
    cap = PopulationGuard(target).cap
    pool, walkers = _qmc_ensemble(ctx.seed)
    marks = {"t": 0.0, "swept": len(walkers)}
    populations: list[int] = []

    def on_generation(gen, current):
        now = time.perf_counter()
        population = len(current)
        energy = float(np.mean([w.e_local for w in current]))
        if not (1 <= population <= cap) or not math.isfinite(energy):
            raise GateError(f"generation {gen}: population {population}, mean energy {energy!r}")
        if gen == 0:
            ctx.setup_done()
        else:
            # One generation's latency, scaled to the target population so
            # that seeds with different populations compare.
            seconds = now - marks["t"]
            ctx.add_round(marks["swept"], seconds, [seconds * target / marks["swept"]])
            populations.append(population)
            ctx.between_rounds()
        marks["t"] = time.perf_counter()
        marks["swept"] = population
        if not ctx.more_rounds():
            raise _StopRun
        ctx.attempted += 1

    try:
        drive(walkers, pool, n_generations=10**9, tau=0.02, target_population=target, on_generation=on_generation)
    except _StopRun:
        pass
    except GateError:
        raise
    except Exception as exc:  # noqa: BLE001 - counted, reported
        ctx.fail(exc)
    ctx.timed_done()

    _gate_walkers(walkers, check_energy=True)
    ctx.provenance.update(
        run_config=run_config_provenance(walkers[0].wf.slater.spos.config),
        engines=engine_provenance(),
    )
    ctx.extra["qmc.population_mean"] = float(np.mean(populations)) if populations else 0.0


# -- serve-eval ------------------------------------------------------------------


def _request(sock: socket.socket, line: bytes, count: int = 1) -> list[bytes]:
    """One blocking exchange on a dedicated connection: send ``line`` (one
    or more request lines) and return the next ``count`` response lines."""
    sock.sendall(line)
    buf = b""
    while buf.count(b"\n") < count:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return buf.splitlines(keepends=True)


def _response_id(line: bytes) -> int:
    """The request id of a response line, read without decoding the arrays."""
    if line.startswith(b'{"id":'):
        end = line.find(b",", 6)
        if end > 6:
            return int(line[6:end])
    from repro.serve.protocol import decode_line

    return int(decode_line(line)["id"])


def _stats(sock: socket.socket) -> dict:
    """The server's ``stats`` op result."""
    from repro.serve.protocol import decode_line, encode_line

    (line,) = _request(sock, encode_line({"id": "stats", "op": "stats"}))
    reply = decode_line(line)
    if not reply.get("ok"):
        raise GateError(f"stats request failed: {reply}")
    return reply["result"]


def _histogram(metrics: dict, name: str) -> tuple[float, float]:
    """(count, sum) of a server histogram, summed over its label sets."""
    count = total = 0.0
    for key, snap in metrics.items():
        if key == name or key.startswith(name + "{"):
            count += snap.get("count", 0.0)
            total += snap.get("sum", 0.0)
    return count, total


def _counter(metrics: dict, name: str) -> float:
    return sum(snap.get("value", 0.0) for key, snap in metrics.items() if key == name or key.startswith(name + "{"))


class _Spool:
    """Response lines on disk, so the benchmark's own memory does not grow
    with throughput and skew ``peak_rss_mib``."""

    def __init__(self, path):
        self.path = path
        self.file = open(path, "wb", buffering=1 << 20)
        self.count = 0

    def write(self, line: bytes) -> None:
        self.file.write(line)
        self.count += 1

    def lines(self):
        self.file.close()
        with open(self.path, "rb") as f:
            yield from f
        self.path.unlink()


def _serve_round(conns, request_line, first_id: int, spool: _Spool):
    """One closed-loop round: ``SERVE_REQUESTS_PER_ROUND`` requests, every
    connection keeping ``SERVE_DEPTH`` in flight, drained at the end.

    Returns (seconds, latencies, wire bytes, ids without a response).
    """
    sel = selectors.DefaultSelector()
    sent_at: dict[int, float] = {}
    latencies: list[float] = []
    buffers = {}
    wire_bytes = 0
    next_id = first_id
    last_id = first_id + SERVE_REQUESTS_PER_ROUND

    def send(sock) -> None:
        nonlocal next_id, wire_bytes
        line = request_line(next_id)
        sent_at[next_id] = time.perf_counter()
        sock.sendall(line)
        wire_bytes += len(line)
        next_id += 1

    t0 = time.perf_counter()
    for sock in conns:
        sel.register(sock, selectors.EVENT_READ)
        buffers[sock] = b""
        for _ in range(SERVE_DEPTH):
            send(sock)
    last_progress = t0
    while sent_at:
        events = sel.select(timeout=1.0)
        if not events:
            if time.perf_counter() - last_progress > SERVE_TIMEOUT_S:
                break
            continue
        last_progress = time.perf_counter()
        for key, _ in events:
            sock = key.fileobj
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed an eval connection")
            *lines, buffers[sock] = (buffers[sock] + chunk).split(b"\n")
            for line in lines:
                now = time.perf_counter()
                latencies.append(now - sent_at.pop(_response_id(line)))
                spool.write(line + b"\n")
                wire_bytes += len(line) + 1
                if next_id < last_id:
                    send(sock)
    sel.close()
    return time.perf_counter() - t0, latencies, wire_bytes, list(sent_at)


def run_serve_eval(ctx) -> None:
    from repro.core.kinds import Kind
    from repro.serve.protocol import decode_array, decode_line, encode_array, encode_line
    from repro.serve.server import ServeConfig, ServerThread

    system = {"n_orbitals": QMC_ORBITALS, "box": QMC_BOX, "grid_shape": list(QMC_GRID), "dtype": "float64"}
    rng = np.random.default_rng(ctx.seed)
    positions = rng.random((SERVE_POSITIONS, 3))
    tails = [
        encode_line(
            {"op": "eval", "tenant": "bench", "system": system, "kind": "vgh", "positions": encode_array(positions[j : j + 1])}
        )[1:]
        for j in range(SERVE_POSITIONS)
    ]

    def request_line(i: int) -> bytes:
        return b'{"id":%d,' % i + tails[i % SERVE_POSITIONS]

    server = ServerThread(
        ServeConfig(workers=1, max_batch=SERVE_BATCH, max_wait_us=SERVE_WINDOW_US, observe=ctx.trace)
    )
    conns: list[socket.socket] = []
    try:
        control = socket.create_connection(server.address)
        conns.append(control)
        # Warm-up: one full batch, so it closes on its count.
        warm = b"".join(request_line(i) for i in range(SERVE_BATCH))
        for line in _request(control, warm, SERVE_BATCH):
            reply = decode_line(line)
            if not reply.get("ok"):
                raise GateError(f"warm-up request failed: {reply}")
        for _ in range(SERVE_CONNECTIONS):
            sock = socket.create_connection(server.address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conns.append(sock)
        before = _stats(control) if ctx.trace else None
        spool = _Spool(ctx.out / "responses.ndjson")
        wire_bytes = 0
        first_id = 1
        ctx.setup_done()
        while ctx.more_rounds():
            ctx.attempted += SERVE_REQUESTS_PER_ROUND
            seconds, latencies, nbytes, missing = _serve_round(conns[1:], request_line, first_id, spool)
            first_id += SERVE_REQUESTS_PER_ROUND
            wire_bytes += nbytes
            for rid in missing:
                ctx.fail(TimeoutError(f"request {rid}: no response within {SERVE_TIMEOUT_S} s"))
            if missing:
                break
            ctx.add_round(SERVE_REQUESTS_PER_ROUND, seconds, latencies)
            ctx.between_rounds()
        ctx.timed_done()
        ctx.extra["serve.wire_bytes_per_request"] = wire_bytes / max(spool.count, 1)
        if ctx.trace:
            after = _stats(control)
            b0, a0 = before["metrics"], after["metrics"]
            c1, s1 = _histogram(a0, "serve_batch_size")
            c0, s0 = _histogram(b0, "serve_batch_size")
            ctx.extra["serve.batches"] = _counter(a0, "serve_batches_total") - _counter(b0, "serve_batches_total")
            ctx.extra["serve.requests_per_batch"] = (s1 - s0) / (c1 - c0) if c1 > c0 else 0.0
        stats = _stats(control)
    finally:
        for sock in conns:
            sock.close()
        server.stop()

    # Gate, off the clock: every response against a direct engine call.
    from repro.core.batched import BsplineBatched
    from repro.core.grid import Grid3D
    from repro.serve.cache import SystemKey, solve_system_table

    key = SystemKey(QMC_ORBITALS, QMC_BOX, QMC_GRID, "float64")
    engine = BsplineBatched(Grid3D(*QMC_GRID), solve_system_table(key), backend=stats["default_backend"])
    ref = engine.new_output(Kind.VGH, n=SERVE_POSITIONS)
    engine.evaluate_batch(Kind.VGH, positions, ref)
    checked = 0
    for line in spool.lines():
        reply = decode_line(line)
        rid = int(reply["id"])
        checked += 1
        if not reply.get("ok"):
            ctx.fail(RuntimeError(f"request {rid}: {reply.get('error')}"))
            continue
        streams = {s: decode_array(a) for s, a in reply["result"]["streams"].items()}
        j = rid % SERVE_POSITIONS
        want = {s: getattr(ref, s)[j : j + 1] for s in Kind.VGH.streams}
        if set(streams) != set(want):
            raise GateError(f"request {rid}: streams {sorted(streams)}")
        check_streams(streams, want, engine.backend.capability, engine.dtype)
    ctx.provenance.update(
        run_config=stats["run_config"],
        default_backend=stats["default_backend"],
        backend_tier=engine.backend.capability.tier,
        reference_engine=engine_provenance(),
        checked_responses=checked,
    )


WORKLOADS = {
    "kernel-vgh": run_kernel_vgh,
    "vmc-crowd": run_vmc_crowd,
    "dmc": run_dmc,
    "serve-eval": run_serve_eval,
}
