"""Synthetic multi-domain world generation and splits.

The world is a controlled geometry in raw space:

* ``classes`` unit prototype vectors, pairwise orthonormal via seeded
  Gram-Schmidt, plus a two-dimensional style plane orthogonal to all of
  them (the joint orthonormalization is why ``dim >= classes + domains``
  is required),
* ``domains`` unit shift vectors placed in the style plane at evenly
  spread, seed-jittered angles; sharing a plane keeps every domain's
  style inside the span of the others, so style handling learned on
  source domains carries over to a held-out one instead of meeting a
  direction no training signal ever visited,
* a sample of class c in domain k is
  ``encode_image_batch`` of ``normalize(prototype_c + shift_scale * shift_k + noise * N(0, I))``,
* the text tokens are literally the same directions at a small scale:
  class token c is ``token_scale * prototype_c`` and domain token k is
  ``token_scale * shift_k``, placing them inside the encoder's near-linear
  tanh regime so that differences of domain descriptions are meaningful
  style directions.

A ``LabeledEmbeddings`` is a struct-of-arrays batch: embeddings with class
labels and domain indices.  A style-transferred copy is told apart only by
its domain key, the target's.  World samples carry their original domain
index; ``leave_one_out`` renumbers the surviving domains to
contiguous client indices 0..K-1 and keeps the held-out data as a test set.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .encoder import FrozenEncoder
from .errors import ConfigurationError, DataError, ParameterError
from .numerics import Array, as_f64, require_finite, require_finite_fields
from .seeding import rng


# Sentinel domain key for entries styled toward the held-out domain
# (variant with target text enabled).  Never a valid classifier label.
TARGET_KEY = -1


@dataclass(frozen=True)
class WorldSpec:
    """Shape and scales of the synthetic world."""

    classes: int = 10
    domains: int = 4
    samples_per_cell: int = 200
    noise: float = 0.1
    dim: int = 64
    seed: int = 0
    shift_scale: float = 2.0
    token_scale: float = 0.01
    shots: int = 0  # unused; kept while the benchmark still passes it

    def __post_init__(self):
        require_finite_fields(self)
        if self.classes < 2:
            raise ConfigurationError("need at least 2 classes")
        if self.domains < 3:
            raise ConfigurationError("need at least 3 domains (leave-one-out requires 2 sources)")
        if self.samples_per_cell < 1:
            raise ConfigurationError("need at least one sample per (class, domain) cell")
        if self.noise < 0:
            raise ConfigurationError("noise must be non-negative")
        if self.shift_scale <= 0 or self.token_scale <= 0:
            raise ConfigurationError("shift_scale and token_scale must be positive")


def require_labels(values: Array, count: int, what: str) -> None:
    """``DataError`` naming ``what`` if any of ``values`` lies outside
    [0, count): the range rule of every class and domain label."""
    if np.any(values < 0) or np.any(values >= count):
        raise DataError(f"{what} outside [0, {count})")


def _as_index_array(values, name: str) -> Array:
    """``values`` as int64, or ``DataError`` naming ``name`` for bools and
    for anything that is not a finite whole number.  An integer array is
    cast without a scan of its values; others are checked first, so a
    whole-valued float array (or an empty one) converts."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind != "f":
        raise DataError(f"{name} must be integers, got dtype {arr.dtype}")
    if not (np.isfinite(arr).all() and (arr == np.trunc(arr)).all()):
        raise DataError(f"{name} must be whole numbers")
    return arr.astype(np.int64)


@dataclass
class LabeledEmbeddings:
    """Batch of embeddings with class and domain labels."""

    embeddings: Array  # (n, d)
    labels: Array      # (n,) int64 class ids
    domains: Array     # (n,) int64 domain ids

    def __post_init__(self):
        self.embeddings = require_finite(as_f64(self.embeddings), "embeddings")
        self.labels = _as_index_array(self.labels, "labels")
        self.domains = _as_index_array(self.domains, "domains")
        n = self.embeddings.shape[0]
        if self.embeddings.ndim != 2:
            raise ParameterError("embeddings must be 2-D")
        for name, arr in (("labels", self.labels), ("domains", self.domains)):
            if arr.shape != (n,):
                raise ParameterError(f"{name} must have shape ({n},)")

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    def subset(self, indices) -> "LabeledEmbeddings":
        idx = np.asarray(indices)
        return LabeledEmbeddings(
            embeddings=self.embeddings[idx],
            labels=self.labels[idx],
            domains=self.domains[idx],
        )

    @staticmethod
    def concat(parts: list["LabeledEmbeddings"]) -> "LabeledEmbeddings":
        if not parts:
            raise ParameterError("cannot concatenate an empty list")
        return LabeledEmbeddings(
            embeddings=np.concatenate([p.embeddings for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            domains=np.concatenate([p.domains for p in parts]),
        )


@dataclass
class SyntheticWorld:
    """Generated geometry, tokens, and the full labeled sample pool."""

    spec: WorldSpec
    prototypes: Array     # (C, d) orthonormal class directions
    shifts: Array         # (K, d) unit domain directions in a shared plane
    class_tokens: Array   # (C, d) = token_scale * prototypes
    domain_tokens: Array  # (K, d) = token_scale * shifts
    samples: LabeledEmbeddings  # domain by domain; domains hold original world indices


def _orthonormal_rows(count: int, dim: int, generator: np.random.Generator) -> Array:
    """Seeded Gram-Schmidt over standard normal draws."""
    out = np.zeros((count, dim))
    for i in range(count):
        v = generator.normal(size=dim)
        for j in range(i):
            v = v - float(out[j] @ v) * out[j]
        n = np.linalg.norm(v)
        if n < 1e-9:
            raise DataError("orthogonalization collapsed; dimension too small for the draw")
        out[i] = v / n
    return out


def _style_plane_shifts(count: int, plane: Array, generator: np.random.Generator) -> Array:
    """Unit shift rows at evenly spread, jittered angles in a 2-D plane.

    The jitter stays below an eighth of the angular spacing, so shifts
    remain pairwise separated for any domain count.
    """
    offsets = generator.uniform(-0.125, 0.125, size=count)
    angles = 2.0 * np.pi * (np.arange(count) + offsets) / count
    return np.cos(angles)[:, None] * plane[0] + np.sin(angles)[:, None] * plane[1]


def generate_world(spec: WorldSpec, encoder: FrozenEncoder) -> SyntheticWorld:
    """Build the world deterministically from ``spec.seed``.

    Raises ``ConfigurationError`` when ``dim < classes + domains`` (the
    prototypes and the style plane could not be jointly orthogonalized,
    with headroom for the domain count) or when the encoder dimension
    disagrees with the spec.
    """
    if spec.dim < spec.classes + spec.domains:
        raise ConfigurationError(
            f"dim={spec.dim} cannot hold {spec.classes} classes + {spec.domains} domains orthogonally"
        )
    if encoder.config.dim != spec.dim:
        raise ConfigurationError("encoder dim disagrees with world dim")
    geometry = rng(spec.seed, "world-geometry")
    basis = _orthonormal_rows(spec.classes + 2, spec.dim, geometry)
    prototypes = basis[: spec.classes]
    shifts = _style_plane_shifts(spec.domains, basis[spec.classes :], geometry)

    blocks = []
    for domain in range(spec.domains):
        for label in range(spec.classes):
            cell_rng = rng(spec.seed, "world-cell", domain, label)
            noise = cell_rng.normal(size=(spec.samples_per_cell, spec.dim)) * spec.noise
            raw = prototypes[label][None, :] + spec.shift_scale * shifts[domain][None, :] + noise
            norms = np.linalg.norm(raw, axis=1)
            if np.any(norms == 0.0):
                raise DataError("raw sample collapsed to the zero vector")
            blocks.append(
                LabeledEmbeddings(
                    embeddings=encoder.encode_image_batch(raw / norms[:, None]),
                    labels=np.full(spec.samples_per_cell, label, dtype=np.int64),
                    domains=np.full(spec.samples_per_cell, domain, dtype=np.int64),
                )
            )
    return SyntheticWorld(
        spec=spec,
        prototypes=prototypes,
        shifts=shifts,
        class_tokens=spec.token_scale * prototypes,
        domain_tokens=spec.token_scale * shifts,
        samples=LabeledEmbeddings.concat(blocks),
    )


@dataclass
class EvaluationSplit:
    """Leave-one-domain-out split in client index space.

    Client datasets have their ``domains`` renumbered to the client index
    0..K-1 (ascending original domain id); the test set keeps the held-out
    domain's original index.  Token rows follow the same renumbering.
    """

    holdout: int
    source_domain_ids: list[int]
    clients: list[LabeledEmbeddings]
    test_set: LabeledEmbeddings
    class_tokens: Array          # (C, d)
    source_domain_tokens: Array  # (K, d), row i belongs to client i
    target_domain_token: Array   # (d,)

    @property
    def num_clients(self) -> int:
        return len(self.clients)


def _domain_rows(world: SyntheticWorld, domain: int) -> LabeledEmbeddings:
    """Read-only views of one domain's samples.  ``generate_world`` stores
    them domain by domain, ``classes * samples_per_cell`` rows each, so
    every split shares the world's arrays instead of copying them."""
    rows = world.spec.classes * world.spec.samples_per_cell
    block = slice(domain * rows, (domain + 1) * rows)
    samples = world.samples
    parts = [samples.embeddings[block], samples.labels[block], samples.domains[block]]
    for part in parts:
        part.setflags(write=False)
    return LabeledEmbeddings(*parts)


def leave_one_out(world: SyntheticWorld, holdout: int) -> EvaluationSplit:
    if isinstance(holdout, bool) or not isinstance(holdout, Integral):
        raise ParameterError(f"holdout must be an integer, got {holdout!r}")
    if not 0 <= holdout < world.spec.domains:
        raise ParameterError(f"holdout {holdout} out of range for {world.spec.domains} domains")
    source_ids = [k for k in range(world.spec.domains) if k != holdout]
    clients = []
    for client_index, domain_id in enumerate(source_ids):
        ds = _domain_rows(world, domain_id)
        ds.domains = np.full(len(ds), client_index, dtype=np.int64)
        clients.append(ds)
    test_set = _domain_rows(world, holdout)
    return EvaluationSplit(
        holdout=holdout,
        source_domain_ids=source_ids,
        clients=clients,
        test_set=test_set,
        class_tokens=world.class_tokens,
        source_domain_tokens=world.domain_tokens[source_ids],
        target_domain_token=world.domain_tokens[holdout],
    )

