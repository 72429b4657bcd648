"""A synchronous client for the QMC service, plus its CLI.

:class:`ServeClient` speaks the newline-delimited JSON protocol over
one TCP or unix-socket connection; decoded eval streams come back as
NumPy arrays **bit-identical** to a direct in-process
:meth:`~repro.core.batched.BsplineBatched.evaluate_batch` call (arrays
travel as their raw bytes, base64 in the JSON line, so no float passes
through decimal text — see :mod:`repro.serve.protocol`).

``python -m repro serve-client`` wraps it for shell use::

    python -m repro serve-client --connect 127.0.0.1:7777 ping
    python -m repro serve-client --connect 127.0.0.1:7777 eval \
        --kind vgh --positions "0.1,0.2,0.3;0.4,0.5,0.6"
    python -m repro serve-client --connect /tmp/qmc.sock vmc --n-steps 5
"""

from __future__ import annotations

import argparse
import itertools
import json
import socket
import sys

import numpy as np

from repro.serve import protocol
from repro.serve.protocol import ProtocolError

__all__ = ["ServeError", "ServeClient", "parse_address", "main"]


class ServeError(RuntimeError):
    """An error response from the server, carrying its protocol code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


def parse_address(address):
    """``"host:port"`` / ``(host, port)`` → TCP; anything else → unix path."""
    if isinstance(address, (tuple, list)):
        return ("tcp", (address[0], int(address[1])))
    if isinstance(address, str) and ":" in address:
        host, port = address.rsplit(":", 1)
        if port.isdigit():
            return ("tcp", (host, int(port)))
    return ("unix", str(address))


class ServeClient:
    """One connection to a QMC server; safe to use from one thread.

    Requests are issued synchronously (send one line, read lines until
    the response with the matching id arrives — the server may
    interleave other work, but this client never pipelines, so the next
    line for *this* connection is always ours).
    """

    def __init__(self, address, tenant: str = "default", timeout: float = 120.0):
        kind, target = parse_address(address)
        if kind == "tcp":
            self._sock = socket.create_connection(target, timeout=timeout)
        else:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(target)
        self._file = self._sock.makefile("rwb")
        self.tenant = tenant
        self._ids = itertools.count(1)

    # -- plumbing ------------------------------------------------------------

    def request(self, op: str, **fields) -> tuple[dict, dict]:
        """One round trip; returns ``(result, meta)`` or raises
        :class:`ServeError` with the server's error code."""
        req_id = next(self._ids)
        req = {"id": req_id, "op": op, "tenant": self.tenant, **fields}
        self._file.write(protocol.encode_line(req))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                error.get("code", "internal"), error.get("message", "?")
            )
        return response.get("result", {}), response.get("meta", {})

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- operations ----------------------------------------------------------

    def ping(self) -> bool:
        result, _ = self.request("ping")
        return bool(result.get("pong"))

    def stats(self) -> dict:
        result, _ = self.request("stats")
        return result

    def evaluate(
        self,
        positions,
        kind: str = "vgh",
        system: dict | None = None,
        backend: str | None = None,
    ) -> tuple[dict, dict]:
        """Evaluate fractional ``(n, 3)`` positions; returns
        ``({stream: ndarray}, meta)`` with meta reporting coalescing."""
        positions = np.asarray(positions, dtype=np.float64)
        fields = {
            "kind": kind,
            "positions": protocol.encode_array(positions),
            "system": system or {},
        }
        if backend is not None:
            fields["backend"] = backend
        result, meta = self.request("eval", **fields)
        streams = {
            name: protocol.decode_array(arr)
            for name, arr in result["streams"].items()
        }
        return streams, meta

    def vmc(
        self,
        system: dict | None = None,
        n_walkers: int = 4,
        n_steps: int = 10,
        n_warmup: int = 0,
        tau: float = 0.3,
        seed: int = 2017,
        ion_charge: float = 4.0,
        backend: str | None = None,
    ) -> dict:
        """A short served VMC run; energies come back as an ndarray."""
        fields = {
            "system": system or {},
            "n_walkers": n_walkers,
            "n_steps": n_steps,
            "n_warmup": n_warmup,
            "tau": tau,
            "seed": seed,
            "ion_charge": ion_charge,
        }
        if backend is not None:
            fields["backend"] = backend
        result, _ = self.request("vmc", **fields)
        result["energies"] = protocol.decode_array(result["energies"])
        return result

    def dmc(
        self,
        system: dict | None = None,
        n_walkers: int = 4,
        n_generations: int = 10,
        tau: float = 0.05,
        seed: int = 2017,
        ion_charge: float = 4.0,
        backend: str | None = None,
    ) -> dict:
        """A short served DMC run; traces come back as ndarrays."""
        fields = {
            "system": system or {},
            "n_walkers": n_walkers,
            "n_generations": n_generations,
            "tau": tau,
            "seed": seed,
            "ion_charge": ion_charge,
        }
        if backend is not None:
            fields["backend"] = backend
        result, _ = self.request("dmc", **fields)
        for trace in ("energy_trace", "population_trace"):
            result[trace] = protocol.decode_array(result[trace])
        return result


def _parse_cli_positions(text: str) -> np.ndarray:
    """``"x,y,z;x,y,z;..."`` → an ``(n, 3)`` float64 array."""
    try:
        rows = [
            [float(v) for v in row.split(",")]
            for row in text.split(";")
            if row.strip()
        ]
        return np.asarray(rows, dtype=np.float64).reshape(len(rows), 3)
    except (TypeError, ValueError):
        raise SystemExit(
            f"error: positions must look like 'x,y,z;x,y,z', got {text!r}"
        )


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-orbitals", type=int, default=4)
    parser.add_argument("--box", type=float, default=6.0)
    parser.add_argument("--grid", type=int, default=12, help="grid points per axis")
    parser.add_argument("--backend", default=None)


def _system(args, dtype: str | None = None) -> dict:
    system = {
        "n_orbitals": args.n_orbitals,
        "box": args.box,
        "grid_shape": [args.grid] * 3,
    }
    if dtype is not None:
        system["dtype"] = dtype
    return system


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve-client",
        description="Talk to a running `python -m repro serve` instance.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        help="server address: HOST:PORT or a unix-socket path",
    )
    parser.add_argument("--tenant", default="cli")
    parser.add_argument("--timeout", type=float, default=120.0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("ping")
    sub.add_parser("stats")

    p_eval = sub.add_parser("eval")
    p_eval.add_argument("--kind", default="vgh", choices=("v", "vgl", "vgh"))
    p_eval.add_argument(
        "--positions",
        required=True,
        help="fractional positions as 'x,y,z;x,y,z;...' in [0, 1)",
    )
    p_eval.add_argument("--dtype", default="float64")
    _add_system_args(p_eval)

    p_vmc = sub.add_parser("vmc")
    p_vmc.add_argument("--n-walkers", type=int, default=4)
    p_vmc.add_argument("--n-steps", type=int, default=10)
    p_vmc.add_argument("--n-warmup", type=int, default=0)
    p_vmc.add_argument("--tau", type=float, default=0.3)
    p_vmc.add_argument("--seed", type=int, default=2017)
    _add_system_args(p_vmc)

    p_dmc = sub.add_parser("dmc")
    p_dmc.add_argument("--n-walkers", type=int, default=4)
    p_dmc.add_argument("--n-generations", type=int, default=10)
    p_dmc.add_argument("--tau", type=float, default=0.05)
    p_dmc.add_argument("--seed", type=int, default=2017)
    _add_system_args(p_dmc)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``python -m repro serve-client``."""
    args = _build_parser().parse_args(argv)
    try:
        with ServeClient(
            args.connect, tenant=args.tenant, timeout=args.timeout
        ) as client:
            if args.command == "ping":
                print("pong" if client.ping() else "no pong")
            elif args.command == "stats":
                print(json.dumps(client.stats(), indent=2, default=str))
            elif args.command == "eval":
                positions = _parse_cli_positions(args.positions)
                streams, meta = client.evaluate(
                    positions,
                    kind=args.kind,
                    system=_system(args, dtype=args.dtype),
                    backend=args.backend,
                )
                print(f"coalesced={meta.get('coalesced', 1)}")
                for name, arr in sorted(streams.items()):
                    print(f"{name}: shape={arr.shape} dtype={arr.dtype}")
                    print(np.array2string(arr, precision=6, threshold=24))
            elif args.command == "vmc":
                out = client.vmc(
                    system=_system(args),
                    n_walkers=args.n_walkers,
                    n_steps=args.n_steps,
                    n_warmup=args.n_warmup,
                    tau=args.tau,
                    seed=args.seed,
                    backend=args.backend,
                )
                energies = out["energies"]
                acc = out["accepted"] / max(out["attempted"], 1)
                print(
                    f"walkers={energies.shape[0]} steps={energies.shape[1]} "
                    f"mean_energy={energies.mean():.6f} acceptance={acc:.3f}"
                )
            elif args.command == "dmc":
                out = client.dmc(
                    system=_system(args),
                    n_walkers=args.n_walkers,
                    n_generations=args.n_generations,
                    tau=args.tau,
                    seed=args.seed,
                    backend=args.backend,
                )
                print(
                    f"generations={len(out['energy_trace'])} "
                    f"energy_mean={out['energy_mean']:.6f} "
                    f"acceptance={out['acceptance']:.3f} "
                    f"final_population={int(out['population_trace'][-1])}"
                )
    except (ServeError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"connection error: {exc}", file=sys.stderr)
        return 1
    return 0
