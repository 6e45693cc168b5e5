"""Deterministic seed derivation.

Every random draw in the package goes through a counter-based Philox
generator keyed by a SHA-256 hash of a (master seed, tag...) tuple, so

* any component can be re-run in isolation and produce the same stream,
* adding a consumer never perturbs the streams of existing consumers,
* the mapping is stable across platforms and numpy versions (Philox is a
  fixed, counter-based algorithm; SHA-256 is SHA-256).

The canonical encoding of a key tuple is the UTF-8 bytes of its parts
joined by an ASCII unit separator (0x1f), each part rendered with str().
Keys are the first 16 bytes of the digest interpreted as a little-endian
integer.  No integer seed is derived: every consumer takes a generator.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = b"\x1f"


def philox_key(*parts) -> int:
    """128-bit Philox key for the given tag tuple."""
    payload = _SEP.join(str(p).encode("utf-8") for p in parts)
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")


def rng(*parts) -> np.random.Generator:
    """Fresh Philox generator for the given tag tuple."""
    return np.random.Generator(np.random.Philox(key=philox_key(*parts)))
