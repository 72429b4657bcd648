"""End-to-end server tests: bit-gates, coalescing, admission, recovery.

The central contract is the **serving bit-gate**: whatever a tenant
receives over the wire must be ``assert_array_equal`` to a direct
in-process call with the same inputs — through the base64 wire form,
shared memory, a worker process, and (crucially) regardless of which
other requests happened to share its micro-batch.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core.batched import BsplineBatched
from repro.core.grid import Grid3D
from repro.core.kinds import Kind
from repro.parallel.crowd import CrowdSpec
from repro.parallel.vmc import run_vmc_population
from repro.serve import ServeClient, ServeError, protocol
from repro.serve.cache import SystemKey, solve_system_table
from repro.serve.server import QmcServer

from .conftest import TINY_SYSTEM


def direct_eval(system: dict, kind: Kind, positions: np.ndarray) -> dict:
    """The in-process reference the served bytes must equal exactly."""
    key = SystemKey(
        system["n_orbitals"],
        system["box"],
        system["grid_shape"],
        system.get("dtype", "float64"),
    )
    table = solve_system_table(key)
    nx, ny, nz = key.grid_shape
    engine = BsplineBatched(Grid3D(nx, ny, nz, (1.0, 1.0, 1.0)), table)
    out = engine.new_output(kind, n=len(positions))
    engine.evaluate_batch(kind, positions, out)
    return {stream: getattr(out, stream) for stream in kind.streams}


def raw_exchange(client: ServeClient, line: bytes) -> bytes:
    """Send one raw line on ``client``'s connection; return the raw reply."""
    client._file.write(line)
    client._file.flush()
    return client._file.readline()


def builds_total(client: ServeClient) -> float:
    return sum(
        entry["value"]
        for name, entry in client.stats()["metrics"].items()
        if name.startswith("serve_table_builds_total")
    )


@pytest.fixture(scope="module")
def server():
    """One shared server for the read-only tests in this module."""
    from repro.serve import ServeConfig, ServerThread

    config = ServeConfig(
        workers=2,
        max_batch=8,
        max_wait_us=20000.0,
        table_cache=4,
        worker_timeout=60.0,
        drain_timeout=20.0,
    )
    with ServerThread(config) as st:
        yield st


class TestBasics:
    def test_ping(self, server):
        with ServeClient(server.address) as client:
            assert client.ping() is True

    def test_stats_reports_config_and_metrics(self, server):
        with ServeClient(server.address) as client:
            client.ping()
            stats = client.stats()
        assert stats["workers"] == 2
        assert stats["max_batch"] == 8
        assert stats["draining"] is False
        # The registry's default rule: cc wherever a compiler is present.
        assert stats["default_backend"] == (
            "cc" if get_backend("cc").is_available() else "numpy"
        )
        assert any(
            "serve_requests_total" in name for name in stats["metrics"]
        )

    def test_unknown_op_is_a_clean_error(self, server):
        with ServeClient(server.address) as client:
            with pytest.raises(ServeError, match="unknown op") as excinfo:
                client.request("launch")
            assert excinfo.value.code == "bad_request"
            assert client.ping()  # connection survives the error

    def test_garbage_line_is_a_clean_error(self, server):
        with ServeClient(server.address) as client:
            response = json.loads(raw_exchange(client, b"this is not json\n"))
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert client.ping()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("kind", "gradient-only", "kind"),
            ("positions", [[0.5, 0.5]], "positions"),
            ("positions", [[0.5, 0.5, 1.5]], "fractional"),
            ("positions", [[0.5, float("nan"), 0.5]], "finite"),
            ("system", {"n_orbitals": 0}, "n_orbitals"),
            ("system", {"grid_shape": [8, 8]}, "grid_shape"),
            ("system", {"dtype": "int32"}, "dtype"),
            ("backend", 7, "backend"),
        ],
    )
    def test_invalid_eval_fields_are_bad_requests(
        self, server, field, value, match
    ):
        request = {
            "system": dict(TINY_SYSTEM),
            "kind": "v",
            "positions": [[0.5, 0.5, 0.5]],
        }
        request[field] = value
        with ServeClient(server.address) as client:
            with pytest.raises(ServeError, match=match) as excinfo:
                client.request("eval", **request)
            assert excinfo.value.code == "bad_request"

    def test_unknown_backend_is_backend_unavailable(self, server):
        with ServeClient(server.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.evaluate(
                    [[0.5, 0.5, 0.5]],
                    kind="v",
                    system=TINY_SYSTEM,
                    backend="no-such-backend",
                )
            assert excinfo.value.code == "backend_unavailable"


class TestWireContract:
    """What every client — perfbench's id scanner, ``nc``, the five-line
    client — may rely on in the raw response lines."""

    def test_every_response_line_starts_with_its_id(self, server):
        vgh = {"system": TINY_SYSTEM, "kind": "vgh", "positions": [[0.5, 0.5, 0.5]]}
        small = {"system": TINY_SYSTEM, "n_walkers": 2, "seed": 3}
        requests = [
            ({"id": 1, "op": "ping"}, True),
            ({"id": 2, "op": "stats"}, True),
            ({"id": 3, "op": "eval", **vgh}, True),
            ({"id": 4, "op": "vmc", **small, "n_steps": 2}, True),
            ({"id": 5, "op": "dmc", **small, "n_generations": 2}, True),
            ({"id": 6, "op": "eval", **vgh, "kind": "nope"}, False),
            ({"id": 7, "op": "vmc", **small, "n_steps": -1}, False),
            ({"id": 8, "op": "dmc", **small, "tau": "hot"}, False),
            ({"id": 9, "op": "launch"}, False),
            ({"id": "ten", "op": "ping"}, True),
        ]
        with ServeClient(server.address) as client:
            for request, ok in requests:
                reply = raw_exchange(client, protocol.encode_line(request))
                prefix = b'{"id":' + json.dumps(request["id"]).encode() + b","
                assert reply.startswith(prefix), reply[:80]
                assert json.loads(reply)["ok"] is ok
            reply = raw_exchange(client, b"{not json\n")
            assert reply.startswith(b'{"id":null,'), reply[:80]

    def test_streams_travel_as_base64(self, server):
        with ServeClient(server.address) as client:
            result, _ = client.request(
                "eval",
                system=TINY_SYSTEM,
                kind="vgh",
                positions=protocol.encode_array(np.full((1, 3), 0.5)),
            )
        for name, arr in result["streams"].items():
            assert arr["dtype"] == "<f8" and isinstance(arr["data"], str)

    def test_bare_list_positions_are_served_bitwise(self, server):
        positions = np.random.default_rng(15).random((3, 3))
        reference = direct_eval(TINY_SYSTEM, Kind.VGH, positions)
        with ServeClient(server.address) as client:
            result, _ = client.request(
                "eval",
                system=TINY_SYSTEM,
                kind="vgh",
                positions=positions.tolist(),
            )
        for name in Kind.VGH.streams:
            streams = protocol.decode_array(result["streams"][name])
            np.testing.assert_array_equal(streams, reference[name])

    def test_list_form_positions_array_is_served_bitwise(self, server):
        positions = np.random.default_rng(16).random((2, 3))
        reference = direct_eval(TINY_SYSTEM, Kind.V, positions)
        listed = {"dtype": "<f8", "shape": [2, 3], "data": positions.ravel().tolist()}
        with ServeClient(server.address) as client:
            result, _ = client.request(
                "eval", system=TINY_SYSTEM, kind="v", positions=listed
            )
        np.testing.assert_array_equal(
            protocol.decode_array(result["streams"]["v"]), reference["v"]
        )


def _eval_line(request_id: int, positions, **fields) -> bytes:
    request = {
        "id": request_id,
        "op": "eval",
        "system": TINY_SYSTEM,
        "kind": "v",
        "positions": positions,
        **fields,
    }
    return protocol.encode_line(request)


def _positions(dtype="<f8", shape=(1, 3), data=(0.5, 0.5, 0.5)) -> dict:
    return {"dtype": dtype, "shape": list(shape), "data": list(data)}


#: Malformed lines that once escaped as ``internal`` (or, for complex and
#: object dtypes, were served after silently dropping data), each with the
#: id its reply must echo (``None`` when the line cannot be parsed).
MALFORMED_LINES = [
    (None, b'{"id":1,"op":"ping","x":"\xc3("}\n'),
    (None, b"[" * 100_000 + b"\n"),
    (None, b'{"id":' + b"7" * 5000 + b',"op":"ping"}\n'),
    (4, _eval_line(4, _positions(dtype="<U3", data=("0.5",) * 3))),
    (5, _eval_line(5, _positions(dtype="<c16"))),
    (6, _eval_line(6, _positions(dtype="|O"))),
    (7, _eval_line(7, _positions(shape=(10**30, 3)))),
    (8, _eval_line(8, {"dtype": "<f8", "shape": [1, 3], "data": {"a": 1}})),
    (9, _eval_line(9, {"dtype": "<f8", "shape": [1, 3], "data": "not base64!"})),
    (10, _eval_line(10, {"dtype": "<f8", "shape": [1, 3], "data": "AAAAAAAAAAA="})),
    (11, _eval_line(11, [[10**400, 0.5, 0.5]])),
    (12, _eval_line(12, [[0.5, 0.5, 0.5]], system={"n_orbitals": float("inf")})),
    (13, protocol.encode_line({"id": 13, "op": "vmc", "n_steps": float("inf")})),
]


class TestMalformedWireInput:
    def test_each_malformed_line_gets_bad_request(self, server):
        """One connection: every line is answered ``bad_request`` with its
        id, and the connection still answers a ping afterwards."""
        with ServeClient(server.address) as client:
            for request_id, line in MALFORMED_LINES:
                response = json.loads(raw_exchange(client, line))
                assert response["ok"] is False, (request_id, response)
                assert response["error"]["code"] == "bad_request", (
                    request_id,
                    response["error"],
                )
                assert response["id"] == request_id
            assert client.ping()

    def test_every_id_nesting_depth_gets_one_reply(self, server):
        """Around the JSON depth limits an id can parse yet be too deep to
        echo inside its response; every line still gets a typed reply."""
        pong = b',"ok":true,"result":{"pong":true}}\n'
        with ServeClient(server.address, timeout=20.0) as client:
            for depth in range(800, 2200):
                request_id = b"[" * depth + b"]" * depth
                line = b'{"id":' + request_id + b',"op":"ping"}\n'
                # Read as bytes: decoding an echo this deep here would hit
                # the same limits.
                reply = raw_exchange(client, line)
                if reply.startswith(b'{"id":null,'):
                    assert b'"code":"bad_request"' in reply, reply[-120:]
                else:
                    assert reply == b'{"id":' + request_id + pong
            assert client.ping()

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.sampled_from(["dtype", "shape", "data", "x"]), inner),
            max_leaves=16,
        )
    )
    @example([[10**400, 0.5, 0.5]])
    @example({"dtype": "<c16", "shape": [1, 3], "data": [0.5, 0.5, 0.5]})
    def test_positions_parse_or_reject(self, value):
        try:
            positions = QmcServer._parse_positions(value)
        except protocol.ProtocolError as exc:
            assert exc.code == "bad_request"
        else:
            assert positions.dtype == np.float64 and positions.shape[1] == 3

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["n_orbitals", "box", "grid_shape", "dtype"]),
            st.none()
            | st.integers(-(10**400), 10**400)
            | st.floats()
            | st.text(max_size=4)
            | st.lists(st.integers(-(10**30), 10**30) | st.floats(), max_size=4),
        )
        | st.integers()
        | st.lists(st.integers())
    )
    @example({"n_orbitals": float("inf")})
    @example({"box": 10**400})
    def test_system_parses_or_rejects(self, system):
        try:
            QmcServer._system_key(system)
        except protocol.ProtocolError as exc:
            assert exc.code == "bad_request"


class TestServedEvalBitGate:
    @pytest.mark.parametrize("kind", [Kind.V, Kind.VGL, Kind.VGH])
    def test_each_kind_matches_direct_call_bitwise(self, server, kind):
        positions = np.random.default_rng(3).random((6, 3))
        reference = direct_eval(TINY_SYSTEM, kind, positions)
        with ServeClient(server.address) as client:
            streams, _ = client.evaluate(
                positions, kind=kind.value, system=TINY_SYSTEM
            )
        assert set(streams) == set(kind.streams)
        for name in kind.streams:
            np.testing.assert_array_equal(streams[name], reference[name])

    def test_float32_table_served_bitwise(self, server):
        system = dict(TINY_SYSTEM, dtype="float32")
        positions = np.random.default_rng(4).random((5, 3))
        reference = direct_eval(system, Kind.VGH, positions)
        with ServeClient(server.address) as client:
            streams, _ = client.evaluate(
                positions, kind="vgh", system=system
            )
        assert streams["v"].dtype == np.float32
        for name in Kind.VGH.streams:
            np.testing.assert_array_equal(streams[name], reference[name])


class TestCoalescing:
    def test_concurrent_tenants_coalesce_and_stay_bit_identical(self, server):
        """Eight tenants fire compatible requests together: at least one
        fused batch must form, and every tenant's slice must equal its
        solo reference bitwise — coalescing moves latency, not bits."""
        n_tenants = 8
        rng = np.random.default_rng(9)
        payloads = [rng.random((3 + i % 3, 3)) for i in range(n_tenants)]
        barrier = threading.Barrier(n_tenants)
        results: list[tuple] = [None] * n_tenants

        def tenant(i: int) -> None:
            with ServeClient(server.address, tenant=f"tenant-{i}") as client:
                barrier.wait()
                results[i] = client.evaluate(
                    payloads[i], kind="vgh", system=TINY_SYSTEM
                )

        threads = [
            threading.Thread(target=tenant, args=(i,))
            for i in range(n_tenants)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert all(r is not None for r in results)
        for i, (streams, _) in enumerate(results):
            reference = direct_eval(TINY_SYSTEM, Kind.VGH, payloads[i])
            for name in Kind.VGH.streams:
                np.testing.assert_array_equal(streams[name], reference[name])
        coalesced = [meta["coalesced"] for _, meta in results]
        assert max(coalesced) > 1, (
            f"no cross-request batch formed (coalesced={coalesced})"
        )

    def test_incompatible_kinds_do_not_share_a_batch(self, server):
        """A V and a VGH request racing the same window must not fuse —
        each still equals its own reference."""
        positions = np.random.default_rng(10).random((4, 3))
        outcome: dict[str, tuple] = {}
        barrier = threading.Barrier(2)

        def tenant(kind: str) -> None:
            with ServeClient(server.address, tenant=kind) as client:
                barrier.wait()
                outcome[kind] = client.evaluate(
                    positions, kind=kind, system=TINY_SYSTEM
                )

        threads = [
            threading.Thread(target=tenant, args=(k,)) for k in ("v", "vgh")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert set(outcome["v"][0]) == {"v"}
        assert set(outcome["vgh"][0]) == {"v", "g", "l", "h"}
        for kind in ("v", "vgh"):
            reference = direct_eval(TINY_SYSTEM, Kind(kind), positions)
            for name in Kind(kind).streams:
                np.testing.assert_array_equal(
                    outcome[kind][0][name], reference[name]
                )


class TestServedQmcRuns:
    def test_vmc_matches_inprocess_population_bitwise(self, server):
        spec = CrowdSpec(
            n_walkers=3, n_orbitals=2, grid_shape=(8, 8, 8), seed=41
        )
        reference = run_vmc_population(
            spec, n_steps=4, n_warmup=1, tau=0.3, n_workers=0
        )
        with ServeClient(server.address) as client:
            served = client.vmc(
                system=TINY_SYSTEM,
                n_walkers=3,
                n_steps=4,
                n_warmup=1,
                tau=0.3,
                seed=41,
            )
        np.testing.assert_array_equal(served["energies"], reference.energies)

    def test_dmc_matches_direct_run_bitwise(self, server):
        from repro.qmc.dmc import build_dmc_ensemble, run_dmc
        from repro.qmc.rng import WalkerRngPool

        pool = WalkerRngPool(23)
        walkers = build_dmc_ensemble(
            pool, 2, n_orbitals=2, box=6.0, grid_shape=(8, 8, 8)
        )
        reference = run_dmc(
            walkers, pool, n_generations=3, tau=0.05, ion_charge=4.0
        )
        with ServeClient(server.address) as client:
            served = client.dmc(
                system=TINY_SYSTEM, n_walkers=2, n_generations=3, seed=23
            )
        np.testing.assert_array_equal(
            served["energy_trace"], np.asarray(reference.energy_trace)
        )
        np.testing.assert_array_equal(
            served["population_trace"], np.asarray(reference.population_trace)
        )


class TestAdmissionControl:
    def test_zero_pending_budget_rejects_work_but_serves_pings(
        self, make_server
    ):
        server = make_server(max_pending=0, workers=1)
        with ServeClient(server.address) as client:
            assert client.ping()  # health checks bypass admission
            with pytest.raises(ServeError) as excinfo:
                client.evaluate([[0.5, 0.5, 0.5]], kind="v", system=TINY_SYSTEM)
            assert excinfo.value.code == "overloaded"
            stats = client.stats()
            rejected = [
                entry["value"]
                for name, entry in stats["metrics"].items()
                if "serve_rejected_total" in name
                and "reason=overloaded" in name
            ]
            assert rejected and rejected[0] >= 1

    def test_zero_tenant_budget_rejects_that_tenant(self, make_server):
        server = make_server(tenant_inflight=0, workers=1)
        with ServeClient(server.address, tenant="greedy") as client:
            with pytest.raises(ServeError) as excinfo:
                client.evaluate([[0.5, 0.5, 0.5]], kind="v", system=TINY_SYSTEM)
            assert excinfo.value.code == "tenant_limit"
            assert "greedy" in str(excinfo.value)


class TestLifecycle:
    def test_lru_eviction_under_live_serving(self, make_server, shm_sentinel):
        """With a one-entry cache, alternating systems force eviction,
        re-solve and worker re-attach — every answer stays bit-exact,
        and shutdown leaves no segments behind."""
        server = make_server(table_cache=1, workers=1)
        system_a = dict(TINY_SYSTEM)
        system_b = dict(TINY_SYSTEM, grid_shape=[10, 10, 10])
        positions = np.random.default_rng(6).random((4, 3))
        with ServeClient(server.address) as client:
            for system in (system_a, system_b, system_a, system_b):
                streams, _ = client.evaluate(
                    positions, kind="vgl", system=system
                )
                reference = direct_eval(system, Kind.VGL, positions)
                for name in Kind.VGL.streams:
                    np.testing.assert_array_equal(
                        streams[name], reference[name]
                    )
            stats = client.stats()
            assert stats["tables_cached"] == 1
            evictions = [
                entry["value"]
                for name, entry in stats["metrics"].items()
                if "serve_table_evictions_total" in name
            ]
            assert evictions and evictions[0] >= 3
        server.stop()

    def test_eviction_waits_for_batches_in_flight(
        self, make_server, shm_sentinel
    ):
        """Three tenants pipeline 30 one-position evals each, of three
        systems, through a one-entry cache: a table evicted while its
        batches wait in the window stays linked until they are answered,
        so every request succeeds, and only linked tables keep a spec."""
        server = make_server(table_cache=1, workers=1)
        systems = [dict(TINY_SYSTEM, grid_shape=[g, g, g]) for g in (8, 9, 10)]
        positions = [np.random.default_rng(40 + i).random((30, 3)) for i in range(3)]
        replies: list = [None] * 3
        spec_counts: list[int] = []
        done = threading.Event()

        def tenant(i: int) -> None:
            with ServeClient(server.address, tenant=f"t{i}") as client:
                for k in range(30):
                    client._file.write(protocol.encode_line({
                        "id": k, "op": "eval", "kind": "vgh",
                        "tenant": f"t{i}", "system": systems[i],
                        "positions": protocol.encode_array(positions[i][k:k + 1]),
                    }))
                client._file.flush()
                replies[i] = [json.loads(client._file.readline()) for _ in range(30)]

        def watch() -> None:
            while not done.is_set():
                spec_counts.append(len(server.server._table_specs))
                time.sleep(0.0005)

        watcher = threading.Thread(target=watch)
        watcher.start()
        tenants = [threading.Thread(target=tenant, args=(i,)) for i in range(3)]
        for thread in tenants:
            thread.start()
        for thread in tenants:
            thread.join(timeout=120)
        done.set()
        watcher.join()
        for i, answers in enumerate(replies):
            assert answers is not None and len(answers) == 30
            assert all(r["ok"] for r in answers), [
                r["error"] for r in answers if not r["ok"]
            ][:2]
            reference = direct_eval(systems[i], Kind.VGH, positions[i])
            for r in answers:
                k = r["id"]
                for name, arr in r["result"]["streams"].items():
                    np.testing.assert_array_equal(
                        protocol.decode_array(arr), reference[name][k:k + 1]
                    )
        # At most one linked table per system at any moment; once every
        # batch is answered, only the cached one.
        assert max(spec_counts) <= 3
        cache = server.server._cache
        assert len(server.server._table_specs) == len(cache) == 1
        server.stop()

    def test_graceful_drain_finishes_inflight_work(self, make_server):
        """A request racing shutdown either completes normally or is
        refused with ``draining`` — never dropped on the floor."""
        server = make_server(workers=1)
        outcome: dict[str, object] = {}

        def long_request() -> None:
            try:
                with ServeClient(server.address) as client:
                    outcome["vmc"] = client.vmc(
                        system=TINY_SYSTEM, n_walkers=4, n_steps=40, seed=7
                    )
            except (ServeError, ConnectionError) as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=long_request)
        thread.start()
        time.sleep(0.3)  # let the request reach the worker
        server.stop()
        thread.join(timeout=60)
        if "error" in outcome:
            error = outcome["error"]
            assert isinstance(error, ServeError) and error.code == "draining"
        else:
            assert outcome["vmc"]["energies"].shape == (4, 40)

    def test_shutdown_leaves_no_segments_or_workers(
        self, make_server, shm_sentinel
    ):
        server = make_server(workers=2)
        with ServeClient(server.address) as client:
            client.evaluate(
                [[0.25, 0.5, 0.75]], kind="vgh", system=TINY_SYSTEM
            )
        pids = server.server._pool.pids
        server.stop()
        import os

        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestTableCacheOnTheLoop:
    """A cached table is answered on the event loop; only misses solve in
    the executor, serialized by the cache lock."""

    def test_lru_order_holds_on_hits(self, make_server):
        server = make_server(table_cache=2, workers=1)
        systems = {
            name: dict(TINY_SYSTEM, grid_shape=[g, g, g])
            for name, g in (("A", 8), ("B", 9), ("C", 10))
        }
        keys = {
            name: SystemKey(2, 6.0, system["grid_shape"], "float64")
            for name, system in systems.items()
        }
        positions = np.random.default_rng(17).random((2, 3))
        with ServeClient(server.address) as client:
            for name in "ABAC":
                streams, _ = client.evaluate(
                    positions, kind="v", system=systems[name]
                )
                reference = direct_eval(systems[name], Kind.V, positions)
                np.testing.assert_array_equal(streams["v"], reference["v"])
        cache = server.server._cache
        assert keys["A"] in cache and keys["C"] in cache
        assert keys["B"] not in cache

    def test_concurrent_cold_requests_build_once(self, make_server):
        server = make_server(workers=2)
        system = dict(TINY_SYSTEM, n_orbitals=3, grid_shape=[24, 24, 24])
        positions = np.random.default_rng(18).random((2, 3))
        barrier = threading.Barrier(2)
        results: list = [None, None]

        def tenant(i: int) -> None:
            with ServeClient(server.address, tenant=f"cold-{i}") as client:
                barrier.wait(timeout=30)
                results[i] = client.evaluate(positions, kind="v", system=system)

        with ServeClient(server.address) as client:
            before = builds_total(client)
            threads = [threading.Thread(target=tenant, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert builds_total(client) - before == 1
        reference = direct_eval(system, Kind.V, positions)
        for streams, _ in results:
            np.testing.assert_array_equal(streams["v"], reference["v"])

    def test_hit_does_not_leave_the_event_loop_thread(self, make_server):
        server = make_server(workers=1)
        cache = server.server._cache
        callers: list[str] = []
        real_get = cache.get

        def recording_get(key):
            callers.append(threading.current_thread().name)
            return real_get(key)

        cache.get = recording_get
        with ServeClient(server.address) as client:
            for _ in range(3):
                client.evaluate([[0.5, 0.5, 0.5]], kind="v", system=TINY_SYSTEM)
        loop_thread = server._thread.name
        assert callers[0] != loop_thread  # the miss solved in the executor
        assert callers[1:] == [loop_thread, loop_thread]


class TestWorkerRecovery:
    def test_worker_crash_surfaces_and_next_request_is_served(
        self, make_server
    ):
        """A worker SIGKILLed mid-batch yields one ``internal`` error;
        the pool replaces the worker and the very next request (same
        connection) is served correctly — one tenant's crash never
        poisons the next."""
        server = make_server(workers=1)
        positions = np.random.default_rng(8).random((3, 3))
        with ServeClient(server.address) as client:
            client.evaluate(positions, kind="v", system=TINY_SYSTEM)
            server.server._pool.arm_chaos(0, "sigkill")
            with pytest.raises(ServeError) as excinfo:
                client.evaluate(positions, kind="v", system=TINY_SYSTEM)
            assert excinfo.value.code == "internal"
            streams, _ = client.evaluate(
                positions, kind="vgh", system=TINY_SYSTEM
            )
        reference = direct_eval(TINY_SYSTEM, Kind.VGH, positions)
        for name in Kind.VGH.streams:
            np.testing.assert_array_equal(streams[name], reference[name])
