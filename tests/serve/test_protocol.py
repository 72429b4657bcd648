"""The wire protocol: framing, array codec bit-exactness, error shapes.

The load-bearing property is the array round trip: the serving layer's
whole "bit-identical to a direct engine call" gate rests on arrays
travelling as their raw little-endian bytes (base64 inside the JSON
line), so no value ever passes through decimal text.  The decoders face
untrusted bytes: whatever a client sends must either decode or raise
``ProtocolError("bad_request")`` — never another exception, which the
server would report as ``internal``.
"""

from __future__ import annotations

import base64
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import protocol
from repro.serve.protocol import ProtocolError


def wire(obj: dict) -> dict:
    """``obj`` through actual JSON text, exactly as the wire carries it."""
    return json.loads(protocol.encode_line(obj))


def assert_bits_equal(decoded: np.ndarray, array: np.ndarray) -> None:
    assert decoded.shape == array.shape
    assert decoded.dtype == array.dtype.newbyteorder("<")
    assert decoded.tobytes() == array.astype(decoded.dtype).tobytes()


class TestArrayCodec:
    """Arrays travel as base64 of their little-endian C-order bytes, so
    every bit pattern — NaN payloads, signed zeros, subnormals — survives
    by construction."""

    def test_float64_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(11)
        array = rng.standard_normal((7, 3, 5)) * 10.0 ** rng.integers(
            -200, 200, size=(7, 3, 5)
        )
        # Through actual JSON text, exactly as the wire does it.
        decoded = protocol.decode_array(
            json.loads(json.dumps(protocol.encode_array(array)))
        )
        assert decoded.dtype == array.dtype
        np.testing.assert_array_equal(
            decoded.view(np.uint64), array.view(np.uint64)
        )

    def test_float32_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(12)
        array = rng.standard_normal((64,)).astype(np.float32)
        decoded = protocol.decode_array(
            json.loads(json.dumps(protocol.encode_array(array)))
        )
        assert decoded.dtype == np.float32
        np.testing.assert_array_equal(
            decoded.view(np.uint32), array.view(np.uint32)
        )

    def test_shape_is_preserved(self):
        array = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        assert protocol.decode_array(protocol.encode_array(array)).shape == (
            2,
            3,
            4,
        )

    def test_length_mismatch_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="does not match shape"):
            protocol.decode_array(
                {"dtype": "<f8", "shape": [2, 3], "data": [1.0, 2.0]}
            )

    def test_malformed_array_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed array"):
            protocol.decode_array({"dtype": "<f8"})
        with pytest.raises(ProtocolError, match="malformed array"):
            protocol.decode_array(
                {"dtype": "not-a-dtype", "shape": [1], "data": [0.0]}
            )

    def test_data_is_base64_of_little_endian_bytes(self):
        array = np.array([[1.0, -2.5], [3.0, 0.125]])
        encoded = protocol.encode_array(array)
        assert encoded == {
            "dtype": "<f8",
            "shape": [2, 2],
            "data": base64.b64encode(array.astype("<f8").tobytes()).decode(),
        }

    def test_int64_round_trip_is_bit_identical(self):
        info = np.iinfo(np.int64)
        array = np.random.default_rng(13).integers(
            info.min, info.max, size=(4, 6), dtype=np.int64, endpoint=True
        )
        decoded = protocol.decode_array(wire(protocol.encode_array(array)))
        assert decoded.dtype == np.int64
        np.testing.assert_array_equal(decoded, array)

    @pytest.mark.parametrize("dtype", [">f8", ">f4", ">i8"])
    def test_big_endian_input_travels_little_endian(self, dtype):
        array = np.arange(12).reshape(3, 4).astype(dtype)
        encoded = protocol.encode_array(array)
        assert encoded["dtype"] == dtype.replace(">", "<")
        decoded = protocol.decode_array(wire(encoded))
        assert_bits_equal(decoded, array)
        np.testing.assert_array_equal(decoded, array)

    def test_non_contiguous_views_round_trip(self):
        base = np.random.default_rng(14).standard_normal((6, 3, 8))
        for view in (base[:, 1], base[::2, :, ::3], base.transpose(2, 0, 1)):
            assert not view.flags.c_contiguous
            decoded = protocol.decode_array(wire(protocol.encode_array(view)))
            assert_bits_equal(decoded, view)

    def test_special_float_bit_patterns_survive(self):
        array = np.array(
            [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e308]
        )
        decoded = protocol.decode_array(wire(protocol.encode_array(array)))
        assert decoded.view(np.uint64).tolist() == array.view(np.uint64).tolist()

    @pytest.mark.parametrize("data", ["base64", "list"])
    def test_decoded_arrays_are_writable(self, data):
        array = np.arange(6, dtype=np.float64).reshape(2, 3)
        encoded = protocol.encode_array(array)
        if data == "list":
            encoded["data"] = array.ravel().tolist()
        decoded = protocol.decode_array(wire(encoded))
        assert decoded.flags.writeable
        decoded[0, 0] = 42.0  # must not raise

    def test_list_form_data_still_decodes(self):
        decoded = protocol.decode_array(
            {"dtype": "<f8", "shape": [2, 3], "data": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]}
        )
        np.testing.assert_array_equal(
            decoded, np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        )
        ints = protocol.decode_array({"dtype": "<i8", "shape": [3], "data": [1, 2, 3]})
        assert ints.dtype == np.int64 and ints.tolist() == [1, 2, 3]

    def test_zero_dimensional_and_empty_arrays(self):
        for array in (np.float64(2.5), np.empty((0, 3))):
            decoded = protocol.decode_array(wire(protocol.encode_array(array)))
            assert_bits_equal(decoded, np.asarray(array))

    @pytest.mark.parametrize(
        "obj, match",
        [
            ({"dtype": "<U3", "shape": [1], "data": ["abc"]}, "real number"),
            ({"dtype": "<c16", "shape": [1], "data": [1.0]}, "real number"),
            ({"dtype": "|O", "shape": [1], "data": [1.0]}, "real number"),
            ({"dtype": "|b1", "shape": [1], "data": [True]}, "real number"),
            ({"dtype": "<f8", "shape": [10**30, 3], "data": [1.0]}, "match"),
            ({"dtype": "<f8", "shape": [-1, 3], "data": [1.0]}, "non-negative"),
            ({"dtype": "<f8", "shape": [1.0], "data": [1.0]}, "non-negative"),
            ({"dtype": "<f8", "shape": [1], "data": {"a": 1}}, "base64 string"),
            ({"dtype": "<f8", "shape": [1], "data": "not base64!"}, "base64"),
            ({"dtype": "<f8", "shape": [1], "data": "AAAA"}, "needs 8"),
            ({"dtype": "<f8", "shape": [1], "data": [[1.0], 2.0]}, "data"),
            ({"dtype": "<i8", "shape": [1], "data": [10**30]}, "data"),
            ([1.0, 2.0], "object"),
        ],
    )
    def test_rejects_with_bad_request(self, obj, match):
        with pytest.raises(ProtocolError, match=match) as excinfo:
            protocol.decode_array(obj)
        assert excinfo.value.code == "bad_request"


class TestFraming:
    def test_line_round_trip(self):
        obj = {"id": 7, "op": "ping", "tenant": "t"}
        line = protocol.encode_line(obj)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert protocol.decode_line(line) == obj

    def test_invalid_json_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            protocol.decode_line(b"{nope}\n")

    def test_non_object_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            protocol.decode_line(b"[1, 2, 3]\n")

    def test_oversized_line_is_a_protocol_error(self):
        line = b'{"id": "' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_line(line)


#: Arbitrary JSON values: what any line can parse into.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

#: Dtype strings: admitted kinds in both byte orders, rejected kinds,
#: strings NumPy refuses or deprecates, and arbitrary text or JSON.
dtype_texts = (
    st.sampled_from(
        ["<f8", "<f4", "<i8", ">f8", "|u1", "=i2", "float64", "<U3",
         "<c16", "|O", "|b1", "<M8", "(2,)f8", "f0", "a"]
    )
    | st.text(max_size=6)
    | json_values
)

shapes = (
    st.lists(st.integers(0, 4), max_size=3)
    | st.lists(
        st.integers(-2, 10**30) | st.booleans() | st.floats(), max_size=3
    )
    | json_values
)

datas = (
    st.binary(max_size=64).map(lambda b: base64.b64encode(b).decode())
    | st.text(alphabet="AQgw+/=!\u00e9 \n", max_size=16)
    | st.lists(
        st.integers() | st.floats() | st.text(max_size=3) | json_values,
        max_size=12,
    )
    | json_values
)

array_objects = (
    st.fixed_dictionaries(
        {"dtype": dtype_texts, "shape": shapes, "data": datas}
    )
    | json_values
)

def _with_invalid_utf8(value, at: int) -> bytes:
    """``value`` as JSON with a truncated UTF-8 sequence spliced in."""
    text = json.dumps(value).encode()
    return text[:at] + b"\xc3(" + text[at:]


#: Lines: raw bytes (mostly invalid UTF-8), JSON of any top-level type,
#: JSON with an invalid UTF-8 byte spliced in, and runaway nesting.
lines = (
    st.binary(max_size=128)
    | json_values.map(lambda v: json.dumps(v).encode())
    | st.builds(_with_invalid_utf8, json_values, st.integers(0, 64))
    | st.integers(1, 50_000).map(lambda n: b"[" * n)
    | st.integers(1, 50_000).map(lambda n: b'{"a":' * n + b"1" + b"}" * n)
)


@st.composite
def perturbed_arrays(draw):
    """A real encoded array, then at most one field knocked out of step
    with the others (dtype, shape or data length/content)."""
    dtype = draw(st.sampled_from(["<f8", "<f4", "<i8", ">f8", "|u1"]))
    shape = draw(st.lists(st.integers(0, 4), max_size=3))
    array = draw(hnp.arrays(dtype, shape))
    obj = wire(protocol.encode_array(array))
    change = draw(
        st.sampled_from(["none", "dtype", "shape", "cut", "pad", "char"])
    )
    if change == "dtype":
        obj["dtype"] = draw(
            st.sampled_from(["<f8", "<f4", "<i8", "|u1", "<u2"])
        )
    elif change == "shape":
        obj["shape"] = draw(st.lists(st.integers(0, 5), max_size=4))
    elif change == "cut":
        obj["data"] = obj["data"][: draw(st.integers(0, len(obj["data"])))]
    elif change == "pad":
        obj["data"] += draw(st.sampled_from(["A", "AA==", "AAAA", "="]))
    elif change == "char" and obj["data"]:
        at = draw(st.integers(0, len(obj["data"]) - 1))
        junk = draw(st.sampled_from("!*.-_ "))
        obj["data"] = obj["data"][:at] + junk + obj["data"][at + 1 :]
    return array, change, obj


def decoded_or_rejected(decode, value):
    """``decode(value)``, or None if it raised a ``bad_request``; any
    other exception fails the test."""
    try:
        return decode(value)
    except ProtocolError as exc:
        assert exc.code == "bad_request", exc.code
        return None


class TestDecoderFuzz:
    """Untrusted input either decodes or is a typed ``bad_request``."""

    @settings(max_examples=300, deadline=None)
    @given(array_objects)
    @example({"dtype": "<U3", "shape": [1], "data": ["abc"]})
    @example({"dtype": "<c16", "shape": [1], "data": [1.0]})
    @example({"dtype": "|O", "shape": [1], "data": [1.0]})
    @example({"dtype": "<f8", "shape": [10**30, 3], "data": [1.0]})
    @example({"dtype": "<f8", "shape": [1], "data": {"a": 1}})
    def test_decode_array_decodes_or_rejects(self, obj):
        decoded = decoded_or_rejected(protocol.decode_array, obj)
        if decoded is not None:
            assert decoded.dtype.kind in "fiu"
            assert decoded.shape == tuple(obj["shape"])
            assert decoded.flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(perturbed_arrays())
    def test_mismatched_fields_decode_or_reject(self, case):
        array, change, obj = case
        decoded = decoded_or_rejected(protocol.decode_array, obj)
        if change == "none":
            assert decoded is not None
            assert_bits_equal(decoded, array)
        elif decoded is not None:
            assert decoded.shape == tuple(obj["shape"])
            assert decoded.nbytes == len(base64.b64decode(obj["data"]))

    @settings(max_examples=300, deadline=None)
    @given(lines)
    @example(b'{"id":1,"op":"ping","x":"\xc3("}')
    @example(b"[" * 100_000)
    @example(b'{"id":' + b"1" * 5000 + b"}")
    def test_decode_line_decodes_or_rejects(self, line):
        for limit in (protocol.MAX_LINE_BYTES, 64):
            with mock.patch.object(protocol, "MAX_LINE_BYTES", limit):
                obj = decoded_or_rejected(protocol.decode_line, line)
            assert obj is None or isinstance(obj, dict)
            if len(line) > limit:
                assert obj is None


class TestResponses:
    def test_ok_response_echoes_id(self):
        response = protocol.ok_response("req-9", {"pong": True})
        assert response == {"id": "req-9", "ok": True, "result": {"pong": True}}

    def test_ok_response_carries_meta_only_when_present(self):
        assert "meta" not in protocol.ok_response(1, {})
        assert protocol.ok_response(1, {}, {"coalesced": 3})["meta"] == {
            "coalesced": 3
        }

    def test_error_response_shape(self):
        response = protocol.error_response(4, "overloaded", "busy")
        assert response["ok"] is False
        assert response["error"] == {"code": "overloaded", "message": "busy"}

    def test_unknown_code_degrades_to_internal(self):
        response = protocol.error_response(None, "no-such-code", "boom")
        assert response["error"]["code"] == "internal"
        assert "no-such-code" in response["error"]["message"]

    def test_protocol_error_rejects_unknown_codes(self):
        with pytest.raises(ValueError, match="unknown protocol error code"):
            ProtocolError("not-a-code", "boom")

    def test_every_documented_code_is_constructible(self):
        for code in protocol.ERROR_CODES:
            assert ProtocolError(code, "x").code == code
