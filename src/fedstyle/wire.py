"""Binary message format for everything that crosses the client/server line.

Every upload and broadcast is one framed message:

    magic      4 bytes  b"FSPT"
    version    u16      format version, currently 1
    kind       u8       message kind, see the constants below
    round      u32      federated round index (0 for stage-agnostic data)
    client     u32      sending client index (SERVER_ID for the server)
    samples    u64      sample count backing the payload (0 if meaningless)
    arrays     u16      number of named arrays that follow

    per array:
      name_len u16      UTF-8 byte length of the name
      name     bytes
      dtype    u8       1 = float32, 2 = float64
      rank     u8
      dims     u32 * rank
      data     raw array bytes, C order, little-endian

    crc       u32       CRC-32 of every byte before it

All integers are little-endian.  The CRC is the IEEE polynomial as
computed by ``zlib.crc32``; a mismatch on read raises ``ProtocolError``,
as does any malformed field.  There is no parameter-count field: counts
are derived from the array dims and checked against expectations by the
caller.

Protocol traffic (prompt uploads and broadcasts) is float32, matching the
costs the communication report counts; ``protocol_message`` casts to it.
The format also carries float64 arrays.  Frames are only sent, never
stored: there is no checkpoint file.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError
from .numerics import Array

MAGIC = b"FSPT"
VERSION = 1
SERVER_ID = 0xFFFFFFFF

KIND_GLOBAL_UPLOAD = 1
KIND_GLOBAL_BROADCAST = 2
KIND_DOMAIN_UPLOAD = 3
KIND_DOMAIN_BROADCAST = 4

KIND_NAMES = {
    KIND_GLOBAL_UPLOAD: "global_upload",
    KIND_GLOBAL_BROADCAST: "global_broadcast",
    KIND_DOMAIN_UPLOAD: "domain_upload",
    KIND_DOMAIN_BROADCAST: "domain_broadcast",
}

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_DTYPE = {np.dtype("float32"): 1, np.dtype("float64"): 2}

_HEADER = struct.Struct("<4sHBIIQH")
_ARRAY_HEAD = struct.Struct("<BB")  # trailing part after the name: dtype, rank


@dataclass(frozen=True)
class FederatedMessage:
    """One decoded frame: routing fields plus named arrays."""

    kind: int
    round_index: int
    client: int
    sample_count: int
    arrays: dict[str, Array] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KIND_NAMES:
            raise ProtocolError(f"unknown message kind {self.kind}")
        for name, arr in self.arrays.items():
            if not isinstance(arr, np.ndarray) or arr.dtype not in _CODE_FOR_DTYPE:
                raise ProtocolError(f"array {name!r} must be a float32 or float64 ndarray")

    @property
    def kind_name(self) -> str:
        return KIND_NAMES[self.kind]

    @property
    def parameter_count(self) -> int:
        return int(sum(a.size for a in self.arrays.values()))

    @property
    def payload_bytes(self) -> int:
        return int(sum(a.nbytes for a in self.arrays.values()))


def encode_message(message: FederatedMessage) -> bytes:
    """Serialize one frame, CRC included."""
    parts = [
        _HEADER.pack(
            MAGIC,
            VERSION,
            message.kind,
            message.round_index,
            message.client,
            message.sample_count,
            len(message.arrays),
        )
    ]
    for name, arr in message.arrays.items():
        encoded_name = name.encode("utf-8")
        if len(encoded_name) > 0xFFFF:
            raise ProtocolError(f"array name too long: {name!r}")
        parts.append(struct.pack("<H", len(encoded_name)))
        parts.append(encoded_name)
        parts.append(_ARRAY_HEAD.pack(_CODE_FOR_DTYPE[arr.dtype], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr).tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def decode_message(data: bytes) -> FederatedMessage:
    """Parse one frame; every structural defect is a ``ProtocolError``."""

    def take(count: int) -> bytes:
        nonlocal pos
        if pos + count > len(data):
            raise ProtocolError("truncated message")
        chunk = data[pos : pos + count]
        pos += count
        return chunk

    pos = 0
    magic, version, kind, round_index, client, samples, array_count = _HEADER.unpack(
        take(_HEADER.size)
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if kind not in KIND_NAMES:
        raise ProtocolError(f"unknown message kind {kind}")
    arrays: dict[str, Array] = {}
    for _ in range(array_count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("array name is not valid UTF-8") from exc
        dtype_code, rank = _ARRAY_HEAD.unpack(take(_ARRAY_HEAD.size))
        if dtype_code not in _DTYPE_CODES:
            raise ProtocolError(f"unknown dtype code {dtype_code}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        dtype = _DTYPE_CODES[dtype_code]
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        raw = take(size * dtype.itemsize)
        if name in arrays:
            raise ProtocolError(f"duplicate array name {name!r}")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
    stored_crc = struct.unpack("<I", take(4))[0]
    actual_crc = zlib.crc32(data[: pos - 4])
    if stored_crc != actual_crc:
        raise ProtocolError(f"CRC mismatch: stored {stored_crc:#x}, computed {actual_crc:#x}")
    if pos != len(data):
        raise ProtocolError(f"{len(data) - pos} trailing bytes after the frame")
    return FederatedMessage(
        kind=kind, round_index=round_index, client=client, sample_count=samples, arrays=arrays
    )



def protocol_message(
    kind: int, round_index: int, client: int, sample_count: int, arrays: dict[str, Array]
) -> FederatedMessage:
    """Build a wire-traffic frame; payloads are cast to float32."""
    return FederatedMessage(
        kind=kind,
        round_index=round_index,
        client=client,
        sample_count=sample_count,
        arrays={k: np.ascontiguousarray(v, dtype=np.float32) for k, v in arrays.items()},
    )

