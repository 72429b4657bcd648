"""A JSON-list ``data`` value its dtype cannot hold is a ``bad_request``.

Casting it would give ``inf`` with a NumPy ``RuntimeWarning``; the
decoder refuses it instead, like any other value of the wrong kind.
"""

import pytest

from repro.serve.protocol import ProtocolError, decode_array


@pytest.mark.parametrize(
    "dtype, value",
    [("<f4", 3.4028235677973366e38), ("<f4", -1e39), ("<f2", 1e300)],
)
def test_list_value_beyond_the_dtype_is_a_bad_request(dtype, value):
    with pytest.raises(ProtocolError, match="overflow") as excinfo:
        decode_array({"dtype": dtype, "shape": [1], "data": [value]})
    assert excinfo.value.code == "bad_request"


def test_largest_float32_still_decodes():
    array = decode_array({"dtype": "<f4", "shape": [1], "data": [3.4028234e38]})
    assert array[0] == pytest.approx(3.4028234e38)
