"""Wire-format tests: byte-level layout oracles, round trips under
hypothesis, and corruption detection."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedstyle.errors import ProtocolError
from fedstyle.wire import (
    KIND_DOMAIN_BROADCAST,
    KIND_GLOBAL_BROADCAST,
    KIND_GLOBAL_UPLOAD,
    KIND_NAMES,
    SERVER_ID,
    FederatedMessage,
    decode_message,
    encode_message,
    protocol_message,
)


def _message(**overrides):
    fields = dict(
        kind=KIND_GLOBAL_UPLOAD,
        round_index=3,
        client=1,
        sample_count=800,
        arrays={"prompt": np.arange(6, dtype=np.float32).reshape(2, 3)},
    )
    fields.update(overrides)
    return FederatedMessage(**fields)


# ---------------------------------------------------------------------------
# byte layout
# ---------------------------------------------------------------------------


def test_empty_message_bytes_match_layout_oracle():
    # header fields packed little-endian in declaration order, then CRC
    blob = encode_message(_message(arrays={}))
    expected_body = struct.pack("<4sHBIIQH", b"FSPT", 1, 1, 3, 1, 800, 0)
    assert blob[:-4] == expected_body
    assert blob[-4:] == struct.pack("<I", zlib.crc32(expected_body))


def test_array_block_bytes_match_layout_oracle():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    blob = encode_message(_message())
    body = struct.pack("<4sHBIIQH", b"FSPT", 1, 1, 3, 1, 800, 1)
    body += struct.pack("<H", 6) + b"prompt"
    body += struct.pack("<BB", 1, 2)          # dtype code 1 = f32, rank 2
    body += struct.pack("<II", 2, 3)
    body += arr.tobytes()
    assert blob == body + struct.pack("<I", zlib.crc32(body))


def test_float64_dtype_code():
    message = _message(client=SERVER_ID, arrays={"x": np.ones(2)})
    blob = encode_message(message)
    # dtype code 2 follows the header, the name length and the one-byte name
    assert blob[struct.calcsize("<4sHBIIQH") + 2 + 1] == 2
    decoded = decode_message(blob)
    assert decoded.arrays["x"].dtype == np.float64
    assert decoded.arrays["x"].tobytes() == message.arrays["x"].tobytes()
    assert decoded.client == SERVER_ID


def test_payload_byte_count_is_four_per_parameter_on_the_wire():
    message = protocol_message(KIND_GLOBAL_UPLOAD, 0, 0, 10, {"prompt": np.ones((4, 64))})
    assert message.parameter_count == 256
    assert message.payload_bytes == 256 * 4


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_round_trip_preserves_everything_bitwise():
    original = _message(arrays={
        "prompt": np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
        "head_bias": np.array([0.25, -0.5], dtype=np.float64),
    })
    decoded = decode_message(encode_message(original))
    assert decoded.kind == original.kind
    assert decoded.round_index == original.round_index
    assert decoded.client == original.client
    assert decoded.sample_count == original.sample_count
    assert list(decoded.arrays) == list(original.arrays)
    for name in original.arrays:
        assert decoded.arrays[name].dtype == original.arrays[name].dtype
        assert np.array_equal(decoded.arrays[name], original.arrays[name])


@st.composite
def _array_strategy(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=32),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    return np.asarray(values, dtype=dtype).reshape(shape)


@given(
    kind=st.sampled_from(sorted(KIND_NAMES)),
    round_index=st.integers(0, 2**32 - 1),
    client=st.integers(0, 2**32 - 1),
    samples=st.integers(0, 2**48),
    arrays=st.dictionaries(st.text(min_size=1, max_size=20), _array_strategy(), max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_property(kind, round_index, client, samples, arrays):
    original = FederatedMessage(kind, round_index, client, samples, arrays)
    decoded = decode_message(encode_message(original))
    assert decoded.kind == original.kind
    assert decoded.round_index == original.round_index
    assert decoded.client == original.client
    assert decoded.sample_count == original.sample_count
    assert set(decoded.arrays) == set(original.arrays)
    for name in original.arrays:
        assert np.array_equal(decoded.arrays[name], original.arrays[name])
        assert decoded.arrays[name].dtype == original.arrays[name].dtype


def test_encode_is_deterministic():
    a = encode_message(_message())
    b = encode_message(_message())
    assert a == b


# ---------------------------------------------------------------------------
# corruption detection
# ---------------------------------------------------------------------------


def test_single_flipped_byte_is_detected():
    blob = bytearray(encode_message(_message()))
    for pos in range(0, len(blob), 7):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0x40
        with pytest.raises(ProtocolError):
            decode_message(bytes(corrupted))


def test_truncation_and_trailing_garbage_are_detected():
    blob = encode_message(_message())
    with pytest.raises(ProtocolError):
        decode_message(blob[:-1])
    with pytest.raises(ProtocolError):
        decode_message(blob + b"\x00")


def test_bad_magic_version_kind_dtype():
    blob = bytearray(encode_message(_message()))
    wrong_magic = b"XXXX" + bytes(blob[4:])
    with pytest.raises(ProtocolError):
        decode_message(wrong_magic)
    with pytest.raises(ProtocolError):
        FederatedMessage(kind=9, round_index=0, client=0, sample_count=0)
    with pytest.raises(ProtocolError):
        FederatedMessage(
            kind=1, round_index=0, client=0, sample_count=0,
            arrays={"x": np.ones(2, dtype=np.int64)},
        )


def test_version_bump_is_rejected():
    blob = bytearray(encode_message(_message(arrays={})))
    blob[4:6] = struct.pack("<H", 2)
    # fix the CRC so only the version check can complain
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    with pytest.raises(ProtocolError):
        decode_message(bytes(blob))


def test_broadcast_kinds_round_trip():
    for kind in (KIND_GLOBAL_BROADCAST, KIND_DOMAIN_BROADCAST):
        message = protocol_message(kind, 2, SERVER_ID, 0, {"prompt": np.ones((2, 4))})
        decoded = decode_message(encode_message(message))
        assert decoded.kind == kind
        assert decoded.arrays["prompt"].dtype == np.float32
