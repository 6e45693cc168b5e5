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
    MAGIC,
    SERVER_ID,
    VERSION,
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
    expected_body = struct.pack("<4sHBIIH", b"FSPT", 2, 1, 3, 1, 0)
    assert blob[:-4] == expected_body
    assert blob[-4:] == struct.pack("<I", zlib.crc32(expected_body))


def test_array_block_bytes_match_layout_oracle():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    blob = encode_message(_message())
    body = struct.pack("<4sHBIIH", b"FSPT", 2, 1, 3, 1, 1)
    body += struct.pack("<H", 6) + b"prompt"
    body += struct.pack("<B", 2)              # rank 2, no dtype byte
    body += struct.pack("<II", 2, 3)
    body += arr.tobytes()
    assert blob == body + struct.pack("<I", zlib.crc32(body))


def test_payload_byte_count_is_four_per_parameter_on_the_wire():
    message = protocol_message(KIND_GLOBAL_UPLOAD, 0, 0, {"prompt": np.ones((4, 64))})
    assert message.parameter_count == 256
    assert message.payload_bytes == 256 * 4


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_round_trip_preserves_everything_bitwise():
    original = _message(client=SERVER_ID, arrays={
        "prompt": np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
        "head_bias": np.array([0.25, -0.5], dtype=np.float32),
    })
    decoded = decode_message(encode_message(original))
    assert decoded.kind == original.kind
    assert decoded.round_index == original.round_index
    assert decoded.client == original.client
    assert list(decoded.arrays) == list(original.arrays)
    for name in original.arrays:
        assert decoded.arrays[name].dtype == np.float32
        assert decoded.arrays[name].tobytes() == original.arrays[name].tobytes()


@st.composite
def _array_strategy(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=32),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    return np.asarray(values, dtype=np.float32).reshape(shape)


@given(
    kind=st.sampled_from(sorted(KIND_NAMES)),
    round_index=st.integers(0, 2**32 - 1),
    client=st.integers(0, 2**32 - 1),
    arrays=st.dictionaries(st.text(min_size=1, max_size=20), _array_strategy(), max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_round_trip_property(kind, round_index, client, arrays):
    original = FederatedMessage(kind, round_index, client, arrays)
    decoded = decode_message(encode_message(original))
    assert decoded.kind == original.kind
    assert decoded.round_index == original.round_index
    assert decoded.client == original.client
    assert set(decoded.arrays) == set(original.arrays)
    for name in original.arrays:
        assert np.array_equal(decoded.arrays[name], original.arrays[name])
        assert decoded.arrays[name].dtype == np.float32


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
        FederatedMessage(kind=9, round_index=0, client=0)
    for dtype in (np.int64, np.float64):
        with pytest.raises(ProtocolError):
            FederatedMessage(kind=1, round_index=0, client=0, arrays={"x": np.ones(2, dtype=dtype)})


def test_version_bump_is_rejected():
    blob = bytearray(encode_message(_message(arrays={})))
    blob[4:6] = struct.pack("<H", 1)
    # fix the CRC so only the version check can complain
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    with pytest.raises(ProtocolError):
        decode_message(bytes(blob))


def test_broadcast_kinds_round_trip():
    for kind in (KIND_GLOBAL_BROADCAST, KIND_DOMAIN_BROADCAST):
        message = protocol_message(kind, 2, SERVER_ID, {"prompt": np.ones((2, 4))})
        decoded = decode_message(encode_message(message))
        assert decoded.kind == kind
        assert decoded.arrays["prompt"].dtype == np.float32


@pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (2**32 - 1, 2**32 - 1)])
def test_dims_whose_product_overflows_int64_are_a_protocol_error(dims):
    # a frame of one (1, ..., 1) array, its dims rewritten and its 4 data
    # bytes dropped; the dims are the last field before the data
    blob = encode_message(_message(arrays={"x": np.zeros((1,) * len(dims), dtype=np.float32)}))
    body = blob[: -4 - 4 - 4 * len(dims)] + struct.pack(f"<{len(dims)}I", *dims)
    with pytest.raises(ProtocolError):
        decode_message(body + struct.pack("<I", zlib.crc32(body)))


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _header(kind, round_index, client, array_count) -> bytes:
    return struct.pack("<4sHBIIH", MAGIC, VERSION, kind, round_index, client, array_count)


def _array_block(name: bytes) -> bytes:
    return struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 1) + np.zeros(1, dtype="<f4").tobytes()


@pytest.mark.parametrize(
    "body, message",
    [
        pytest.param(
            _header(9, 0, 0, 0), "unknown message kind 9", id="unknown-kind"
        ),
        pytest.param(
            _header(KIND_GLOBAL_UPLOAD, 0, 0, 1) + _array_block(b"\xff\xfe"),
            "not valid UTF-8", id="name-not-utf8",
        ),
        pytest.param(
            _header(KIND_GLOBAL_UPLOAD, 0, 0, 2) + _array_block(b"p") * 2,
            "duplicate array name 'p'", id="duplicate-name",
        ),
    ],
)
def test_a_frame_with_a_valid_crc_is_still_checked_field_by_field(body, message):
    # the CRC matches, so only the named structural check can refuse the frame
    with pytest.raises(ProtocolError, match=message):
        decode_message(_with_crc(body))


def test_the_hand_built_frame_layout_decodes():
    # the layout the frames above corrupt one field of
    body = _header(KIND_GLOBAL_UPLOAD, 4, 2, 1) + _array_block(b"p")
    decoded = decode_message(_with_crc(body))
    assert (decoded.kind, decoded.round_index, decoded.client) == (KIND_GLOBAL_UPLOAD, 4, 2)
    assert decoded.arrays["p"].tobytes() == np.zeros(1, dtype=np.float32).tobytes()


def test_an_array_name_longer_than_the_length_field_is_refused_on_encode():
    with pytest.raises(ProtocolError, match="array name too long"):
        encode_message(_message(arrays={"x" * 0x10000: np.zeros(1, dtype=np.float32)}))
    # the longest name the 2-byte length field holds still encodes
    longest = "x" * 0xFFFF
    assert list(decode_message(encode_message(_message(arrays={longest: np.zeros(1, dtype=np.float32)}))).arrays) == [longest]
