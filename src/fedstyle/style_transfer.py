"""Embedding-space style transfer between domains.

Each source/target domain pair gets a small residual transform

    Q(z) = z + W2 @ tanh(W1 @ z + b1) + b2

whose correction term is trained so that, per sample, the direction of
``Q(z) - z`` matches the direction of the text-side difference between the
target and source domain descriptions of the sample's class (alignment),
while ``Q(z)`` keeps its class under the cosine/text classifier
(consistency).  The combined objective mixes the two with a single weight.

Initialization puts the output layer at (nearly) zero so the transform
starts at the identity: ``W2`` is exactly zero and ``b2`` gets a tiny
seeded draw; an exactly zero correction would make the alignment
direction degenerate on the very first step, which the loss treats as an
error by contract.

Directions with norm below ``DEGENERATE_NORM`` raise ``DomainError``.
Both terms are batch means, so gradient scale does not depend on batch
size.  ``_objective`` computes the forward pass through the same
``_transform_forward`` as ``TransformNetwork.correction`` and writes the
backward pass in closed form beside it; a finite-difference check in the
tests pins it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import LabeledEmbeddings
from .encoder import FrozenEncoder
from .errors import ConfigurationError, DomainError, NonFiniteLossError, ParameterError
from .numerics import AdamState, Array, adam_step, as_f64, require_finite, softmax_ce_rows
from .seeding import rng

log = logging.getLogger(__name__)

DEGENERATE_NORM = 1e-9
_OUTPUT_BIAS_INIT = 1e-2


@dataclass(frozen=True)
class TransferConfig:
    """Hyperparameters of transform training."""

    alignment_weight: float = 0.5  # weight on the alignment term; 1 - w on consistency
    learning_rate: float = 1e-3
    weight_decay: float = 0.05
    epochs: int = 5
    batch_size: int = 16
    hidden: int = 0  # 0 picks dim // 2

    def __post_init__(self):
        if not 0.0 <= self.alignment_weight <= 1.0:
            raise ConfigurationError("alignment_weight must lie in [0, 1]")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigurationError("bad optimizer settings")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigurationError("bad schedule settings")

    def hidden_dim(self, dim: int) -> int:
        return self.hidden if self.hidden > 0 else max(dim // 2, 1)


@dataclass
class TransformNetwork:
    """Residual two-layer transform for one (source, target) domain pair."""

    source: int
    target: int
    params: dict[str, Array]

    @classmethod
    def init(cls, dim: int, hidden: int, source: int, target: int, seed: int) -> "TransformNetwork":
        gen = rng(seed, "transform-init", source, target)
        bound = 1.0 / np.sqrt(dim)
        params = {
            "w1": gen.uniform(-bound, bound, size=(hidden, dim)),
            "b1": np.zeros(hidden),
            "w2": np.zeros((dim, hidden)),
            "b2": gen.uniform(-_OUTPUT_BIAS_INIT, _OUTPUT_BIAS_INIT, size=dim),
        }
        return cls(source=source, target=target, params=params)

    def correction(self, z: Array) -> Array:
        """The learned shift, rows of (n, d) in, rows out."""
        return _transform_forward(self.params, require_finite(as_f64(z), "z"))[1]

    def apply(self, z: Array) -> Array:
        """Q(z) = z + correction(z)."""
        return as_f64(z) + self.correction(z)


# ---------------------------------------------------------------------------
# text-side constants
# ---------------------------------------------------------------------------


def text_delta_directions(
    encoder: FrozenEncoder,
    source_token: Array,
    target_token: Array,
    class_tokens: Array,
) -> Array:
    """Unit style directions per class: T([t_target, t_y]) - T([t_source, t_y]).

    Returns (C, d) unit rows.  A difference below ``DEGENERATE_NORM``
    (identical source and target descriptions, say) is a ``DomainError``.
    """
    e_src = encoder.encode_class_texts([as_f64(source_token)[None, :]], class_tokens)
    e_tgt = encoder.encode_class_texts([as_f64(target_token)[None, :]], class_tokens)
    delta = e_tgt - e_src
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    if np.any(norms < DEGENERATE_NORM):
        c = int(np.argmin(norms))
        raise DomainError(f"text style direction for class {c} is degenerate (norm {norms[c, 0]:.3e})")
    return delta / norms


def class_text_embeddings(encoder: FrozenEncoder, class_tokens: Array) -> Array:
    """(C, d) unit embeddings of each bare class description."""
    return encoder.encode_class_texts([], class_tokens)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _transform_forward(params: dict[str, Array], z: Array) -> tuple[Array, Array]:
    """Hidden layer and correction of the transform for rows z: (hidden, delta)."""
    hidden = np.tanh(z @ params["w1"].T + params["b1"])
    return hidden, hidden @ params["w2"].T + params["b2"]


def _objective(
    params: dict[str, Array],
    batch: LabeledEmbeddings,
    directions: Array | None,
    class_text: Array | None,
    temperature: float,
    alignment_weight: float,
):
    """Forward and closed-form backward of the transfer objective on one batch.

    Returns (total, alignment mean, consistency mean, grads).  A part with
    zero weight is skipped and reads 0.0, so its constants may be None.
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    params = {name: require_finite(as_f64(value), name) for name, value in params.items()}
    z = batch.embeddings
    rows = len(batch)
    hidden, delta = _transform_forward(params, z)
    ddelta = 0.0
    align = cons = 0.0

    if alignment_weight > 0.0:
        # mean over rows of 1 - <delta / |delta|, direction of the row's class>
        norms = np.linalg.norm(delta, axis=1)
        if np.any(norms < DEGENERATE_NORM):
            raise DomainError(f"degenerate direction: min row norm {norms.min():.3e}")
        unit = delta / norms[:, None]
        per_class = directions[batch.labels]
        align = (1.0 - np.sum(unit * per_class, axis=1)).mean()
        dunit = -(alignment_weight / rows) * per_class
        ddelta = ddelta + (dunit - unit * np.sum(unit * dunit, axis=1, keepdims=True)) / norms[:, None]

    if alignment_weight < 1.0:
        # mean cross-entropy of the moved row's cosines to the class texts
        moved = z + delta
        norms = np.linalg.norm(moved, axis=1)
        if np.any(norms == 0.0):
            raise DomainError("a moved embedding is the zero vector")
        moved = moved / norms[:, None]
        per_row, dlogits = softmax_ce_rows((1.0 / temperature) * (moved @ class_text.T), batch.labels)
        cons = per_row.mean()
        dmoved = ((1.0 / temperature) * (((1.0 - alignment_weight) / rows) * dlogits)) @ class_text
        ddelta = ddelta + (dmoved - moved * np.sum(moved * dmoved, axis=1, keepdims=True)) / norms[:, None]

    total = alignment_weight * align + (1.0 - alignment_weight) * cons
    dpre = (1.0 - hidden * hidden) * (ddelta @ params["w2"])
    grads = {
        "w1": dpre.T @ z,
        "b1": dpre.sum(axis=0),
        "w2": ddelta.T @ hidden,
        "b2": ddelta.sum(axis=0),
    }
    return float(total), float(align), float(cons), grads


def transfer_loss(
    net: TransformNetwork,
    batch: LabeledEmbeddings,
    encoder: FrozenEncoder,
    source_token: Array,
    target_token: Array,
    class_tokens: Array,
    temperature: float,
    alignment_weight: float = 0.5,
) -> float:
    """alignment_weight * mean alignment + (1 - alignment_weight) * consistency."""
    directions = text_delta_directions(encoder, source_token, target_token, class_tokens)
    class_text = class_text_embeddings(encoder, class_tokens)
    value, _, _, _ = _objective(net.params, batch, directions, class_text, temperature, alignment_weight)
    return value


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TransformTrainingResult:
    network: TransformNetwork
    epoch_losses: list[float]


def train_transform(
    dataset: LabeledEmbeddings,
    source: int,
    target: int,
    encoder: FrozenEncoder,
    source_token: Array,
    target_token: Array,
    class_tokens: Array,
    config: TransferConfig,
    temperature: float,
    seed: int,
) -> TransformTrainingResult:
    """Train one transform with Adam and a seeded shuffling schedule.

    Zero epochs returns the freshly initialized network untouched.  A
    non-finite loss aborts with ``NonFiniteLossError``.
    """
    if len(dataset) == 0:
        raise ConfigurationError("cannot train a transform on an empty dataset")
    dim = encoder.config.dim
    net = TransformNetwork.init(dim, config.hidden_dim(dim), source, target, seed)
    directions = text_delta_directions(encoder, source_token, target_token, class_tokens)
    class_text = class_text_embeddings(encoder, class_tokens)
    state = AdamState(learning_rate=config.learning_rate, weight_decay=config.weight_decay)
    params = net.params
    history = []
    for epoch in range(config.epochs):
        order = rng(seed, "transform-shuffle", source, target, epoch).permutation(len(dataset))
        total, seen = 0.0, 0
        for start in range(0, len(dataset), config.batch_size):
            batch = dataset.subset(order[start : start + config.batch_size])
            loss, _, _, grads = _objective(
                params, batch, directions, class_text, temperature, config.alignment_weight
            )
            if not np.isfinite(loss):
                raise NonFiniteLossError(f"transfer loss diverged at epoch {epoch}")
            state, params = adam_step(state, params, grads)
            total += loss * len(batch)
            seen += len(batch)
        history.append(total / seen)
        log.info("transform %d->%d epoch %d: loss %.6f", source, target, epoch, history[-1])
    net.params = params
    return TransformTrainingResult(network=net, epoch_losses=history)


# ---------------------------------------------------------------------------
# augmentation banks
# ---------------------------------------------------------------------------


@dataclass
class AugmentationBank:
    """Locally generated style-transferred embeddings, keyed by target domain."""

    source: int
    entries: dict[int, LabeledEmbeddings]

    def combined(self) -> LabeledEmbeddings:
        keys = sorted(self.entries)
        if not keys:
            raise ParameterError("empty augmentation bank")
        return LabeledEmbeddings.concat([self.entries[k] for k in keys])


def build_augmentation_bank(
    dataset: LabeledEmbeddings,
    source: int,
    transforms: dict[int, TransformNetwork],
    expected_targets: list[int],
) -> AugmentationBank:
    """Push every local embedding through each target's transform.

    ``transforms`` must provide exactly one network per expected target;
    entries keep the class label, take the target's domain key, and are
    flagged augmented.  Nothing here touches the network or the ledger;
    banks are a purely local product.
    """
    if sorted(transforms) != sorted(expected_targets):
        raise ConfigurationError(
            f"transforms cover {sorted(transforms)} but targets are {sorted(expected_targets)}"
        )
    entries = {}
    for key in sorted(transforms):
        net = transforms[key]
        if net.source != source:
            raise ConfigurationError(f"transform {net.source}->{net.target} does not start at {source}")
        entries[key] = LabeledEmbeddings(
            embeddings=net.apply(dataset.embeddings),
            labels=dataset.labels.copy(),
            domains=np.full(len(dataset), key, dtype=np.int64),
            augmented=np.ones(len(dataset), dtype=bool),
        )
    return AugmentationBank(source=source, entries=entries)


# ---------------------------------------------------------------------------
# auditing
# ---------------------------------------------------------------------------


def nearest_neighbor_audit(augmented: Array, reference: LabeledEmbeddings) -> tuple[int, float]:
    """Nearest reference sample by cosine; ties resolve to the lowest index."""
    if len(reference) == 0:
        raise ParameterError("empty reference set")
    v = require_finite(as_f64(augmented), "augmented")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DomainError("augmented embedding is the zero vector")
    ref_norms = np.linalg.norm(reference.embeddings, axis=1)
    if np.any(ref_norms == 0.0):
        raise DomainError("reference set contains a zero vector")
    sims = (reference.embeddings @ v) / (ref_norms * norm)
    index = int(np.argmax(sims))
    return index, float(sims[index])


def audit_bank_entry(entry: LabeledEmbeddings, reference: LabeledEmbeddings) -> dict[str, float]:
    """Class-consistency rate and mean similarity of bank entries vs a reference pool."""
    matches, sims = 0, []
    for i in range(len(entry)):
        idx, sim = nearest_neighbor_audit(entry.embeddings[i], reference)
        sims.append(sim)
        if reference.labels[idx] == entry.labels[i]:
            matches += 1
    return {
        "class_match_rate": matches / len(entry) if len(entry) else 0.0,
        "mean_similarity": float(np.mean(sims)) if sims else 0.0,
    }
