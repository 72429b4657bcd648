"""The wire protocol of the QMC service: newline-delimited JSON.

One request per line, one response per line, both UTF-8 JSON objects.
The framing is deliberately the simplest thing that can serve many
tenants over one socket — readable with ``nc`` and testable with a
five-line client — while arrays ride as raw bytes (below), so coding
one response costs tens of microseconds, not hundreds.

Request::

    {"id": <any json>, "op": "eval", "tenant": "team-a", ...op fields}

Response::

    {"id": <echoed>, "ok": true,  "result": {...}, "meta": {...}}
    {"id": <echoed>, "ok": false, "error": {"code": "...", "message": "..."}}

Responses carry the request's ``id`` verbatim as their first key, so a
line starts ``{"id":`` and a client can read the id without decoding the
rest; a client that pipelines requests over one connection correlates
by id (completion order is not guaranteed — coalescing may finish a
later request first).

Arrays travel as ``{"dtype", "shape", "data"}``: ``dtype`` is a NumPy
type string of a real number type (kind ``f``, ``i`` or ``u``; the
encoder always writes little-endian ``<f8``, ``<f4`` or ``<i8``-style
strings), ``shape`` a list of non-negative ints, and ``data`` the
base64 of the array's C-order bytes in that dtype.  No float passes
through decimal text, so a served array is **bit-identical** after
decoding by construction — the property the benchmark's
``assert_array_equal`` gate relies on — and a float64 costs 10.7 wire
characters where its shortest decimal took about 20.

Until release 1.2.0, :func:`decode_array` also accepts the older form
whose ``data`` is a flat JSON list of numbers (handy for a request typed
by hand); 1.2.0 removes it.  The server also takes ``positions`` as a
bare ``[[x, y, z], ...]`` list, so ``nc`` remains a working client.
"""

from __future__ import annotations

import base64
import json
import math
import re

import numpy as np

__all__ = [
    "OPS",
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "encode_array",
    "decode_array",
    "encode_line",
    "decode_line",
    "ok_response",
    "error_response",
]

#: Operations the server understands.
OPS = ("ping", "eval", "vmc", "dmc", "stats")

#: Error codes a response may carry (the protocol's public contract).
ERROR_CODES = (
    "bad_request",        # malformed JSON / unknown op / invalid params
    "backend_unavailable",  # tenant asked for a backend this host can't serve
    "overloaded",         # admission control: global in-flight cap reached
    "tenant_limit",       # admission control: per-tenant in-flight cap reached
    "draining",           # server is shutting down; no new work accepted
    "worker_timeout",     # the serving worker missed its reply deadline
    "internal",           # worker crash or unexpected server error
)

#: Hard cap on one request line.  The largest valid request, 4096 f64
#: positions, is ~130 KiB of base64 (~300 KiB as a bare list); the cap
#: bounds a hostile or confused client, not a real one.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Array type strings a decoder admits: real numbers only (kinds f, i, u),
#: in either byte order.  Matched before NumPy parses the string, so no
#: text a client sends reaches ``np.dtype`` unless it names such a type.
_WIRE_DTYPE = re.compile(r"[<>|=]?[fiu][0-9]{1,2}")


class ProtocolError(Exception):
    """A request that cannot be served, with its protocol error code."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code


def encode_array(array: np.ndarray) -> dict:
    """An ndarray as a JSON-ready ``{dtype, shape, data}`` dict.

    ``data`` is the base64 of the array's little-endian, C-order bytes;
    big-endian and non-contiguous input is normalised first, so the
    wire ``dtype`` is always little-endian.
    """
    array = np.asarray(array)
    wire = array.dtype.newbyteorder("<")
    raw = array.astype(wire, copy=False).tobytes()  # C order, any layout
    return {
        "dtype": wire.str,
        "shape": list(array.shape),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def _bad_array(message: str) -> ProtocolError:
    return ProtocolError("bad_request", f"malformed array: {message}")


def decode_array(obj: dict) -> np.ndarray:
    """Rebuild the writable ndarray an :func:`encode_array` dict describes.

    Raises :class:`ProtocolError` (``bad_request``) for anything that is
    not a real-number array whose data matches its shape.  A JSON-list
    ``data`` (the pre-base64 form) is accepted until release 1.2.0.
    """
    if not isinstance(obj, dict):
        raise _bad_array("expected an object with dtype, shape and data")
    try:
        text, shape, data = obj["dtype"], obj["shape"], obj["data"]
    except KeyError as exc:
        raise _bad_array(f"missing {exc}") from None
    if not isinstance(text, str) or not _WIRE_DTYPE.fullmatch(text):
        raise _bad_array(
            f"dtype must be a real number type string like '<f8', got {text!r}"
        )
    try:
        dtype = np.dtype(text)
    except TypeError:
        raise _bad_array(f"unknown dtype {text!r}") from None
    if not isinstance(shape, list) or not all(
        type(n) is int and n >= 0 for n in shape
    ):
        raise _bad_array(
            f"shape must be a list of non-negative ints, got {shape!r}"
        )
    size = math.prod(shape)
    if isinstance(data, str):
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError:  # binascii.Error, or non-ASCII text
            raise _bad_array("data is not valid base64") from None
        if len(raw) != size * dtype.itemsize:
            raise _bad_array(
                f"data is {len(raw)} bytes, shape {shape} of {dtype.str} "
                f"needs {size * dtype.itemsize}"
            )
        # frombuffer over bytes is read-only; callers get their own copy.
        array = np.frombuffer(raw, dtype=dtype).copy()
    elif isinstance(data, list):
        try:
            # A number the dtype cannot hold is refused, not cast to inf.
            with np.errstate(over="raise"):
                array = np.array(data, dtype=dtype)
        except (TypeError, ValueError, OverflowError, FloatingPointError) as exc:
            raise _bad_array(f"data: {exc}") from None
        if array.size != size:
            raise _bad_array(
                f"data length {array.size} does not match shape {shape}"
            )
    else:
        raise _bad_array("data must be a base64 string or a list of numbers")
    try:
        return array.reshape(shape)
    except ValueError as exc:  # e.g. more dimensions than NumPy supports
        raise _bad_array(str(exc)) from None


def encode_line(obj: dict) -> bytes:
    """One protocol object as a newline-terminated JSON line."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one received line; raises :class:`ProtocolError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            "bad_request", f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, invalid UTF-8 and integers
        # past Python's digit limit; RecursionError, runaway nesting.
        raise ProtocolError("bad_request", f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")
    return obj


def ok_response(request_id, result: dict, meta: dict | None = None) -> dict:
    """A success response echoing ``request_id``."""
    out = {"id": request_id, "ok": True, "result": result}
    if meta:
        out["meta"] = meta
    return out


def error_response(request_id, code: str, message: str) -> dict:
    """An error response echoing ``request_id`` (``None`` when unknown)."""
    if code not in ERROR_CODES:
        code, message = "internal", f"[{code}] {message}"
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
