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
size.

``train_transform`` trains every transform of a job list in lockstep.
The T parameter sets are stacked along a leading axis, (T, h, d) for
``w1``, and each step runs one stacked forward and closed-form backward,
``_stacked_objective``, and one in-place Adam step.  Transform t draws
the same seeded batches in the same order as it would alone, and every
stacked operation acts on each slice as the one-transform operation would,
so its parameters and losses do not depend on the other transforms.
The consistency logits are class-major, (T, C, B), for the shared
cross-entropy kernel, and row norms and dot products over d are ``einsum``
reductions, one per row.  ``_objective`` is the same kernel for one
transform; the forward is ``_transform_forward``, shared with
``TransformNetwork.correction``, and a finite-difference check in the
tests pins the backward.

``build_augmentation_bank`` pushes a client's local set through its
trained transforms and returns one ``LabeledEmbeddings``: the local set
followed by each target's copy, which carries the target's domain key.
That is the client's whole stage-one pool, and the domain key is the only
mark of a copy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import LabeledEmbeddings
from .encoder import FrozenEncoder
from .errors import ConfigurationError, DomainError, NonFiniteLossError, ParameterError
from .numerics import AdamState, Array, adam_step, as_f64, require_finite, require_finite_fields, softmax_ce_cols
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
    epochs: int = 20
    batch_size: int = 32
    hidden: int = 0  # 0 picks dim // 2

    def __post_init__(self):
        require_finite_fields(self)
        if not 0.0 <= self.alignment_weight <= 1.0:
            raise ConfigurationError("alignment_weight must lie in [0, 1]")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigurationError("bad optimizer settings")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigurationError("bad schedule settings")
        if self.hidden < 0:
            raise ConfigurationError("hidden must be non-negative (0 picks dim // 2)")

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
    e_src, _ = encoder.encode_class_texts([as_f64(source_token)[None, :]], class_tokens)
    e_tgt, _ = encoder.encode_class_texts([as_f64(target_token)[None, :]], class_tokens)
    delta = e_tgt - e_src
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    if np.any(norms < DEGENERATE_NORM):
        c = int(np.argmin(norms))
        raise DomainError(f"text style direction for class {c} is degenerate (norm {norms[c, 0]:.3e})")
    return delta / norms


def class_text_embeddings(encoder: FrozenEncoder, class_tokens: Array) -> Array:
    """(C, d) unit embeddings of each bare class description."""
    return encoder.encode_class_texts([], class_tokens)[0]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _transform_forward(params: dict[str, Array], z: Array) -> tuple[Array, Array]:
    """Hidden layer and correction for rows z: (hidden, delta).

    One transform maps rows (n, d); a stack of T maps rows (T, n, d).
    """
    hidden = np.tanh(z @ np.swapaxes(params["w1"], -1, -2) + params["b1"][..., None, :])
    return hidden, hidden @ np.swapaxes(params["w2"], -1, -2) + params["b2"][..., None, :]


def _failure(error: type[Exception], pairs: list[str], bad: Array, message: str) -> Exception:
    """``error`` naming the first transform flagged in the (T,) mask ``bad``."""
    return error(f"transform {pairs[int(np.argmax(bad))]}: {message}")


def _non_finite(stacked: Array) -> Array:
    """(T,) mask of the transforms whose slice of ``stacked`` is not all finite."""
    return ~np.isfinite(stacked).reshape(len(stacked), -1).all(axis=1)


def _row_dots(a: Array, b: Array) -> Array:
    """(T, B) dot products of matching rows of two (T, B, d) stacks."""
    return np.einsum("tbd,tbd->tb", a, b)


def _stacked_objective(
    params: dict[str, Array],
    z: Array,
    labels: Array,
    directions: Array | None,
    class_text: Array | None,
    temperature: float,
    alignment_weight: float,
    pairs: list[str],
):
    """Forward and closed-form backward of the transfer objective for T
    stacked transforms, each on its own batch.

    Transform t sees rows ``z[t]`` of (T, B, d) with classes ``labels[t]``
    of (T, B) and its unit text direction per class ``directions[t]`` of
    (T, C, d).  Returns (total, alignment mean, consistency mean) as (T,)
    arrays and the stacked grads.  A part with zero weight is skipped and
    reads 0, so its constants may be None.  A failed check names the
    transform by its entry in ``pairs``.
    """
    rows = z.shape[1]
    if rows == 0:
        raise ParameterError("empty batch")
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise _failure(DomainError, pairs, _non_finite(value), f"{name} contains a non-finite entry")
    hidden, delta = _transform_forward(params, z)
    ddelta = 0.0
    align = cons = np.zeros(len(pairs))

    if alignment_weight > 0.0:
        # mean over rows of 1 - <delta / |delta|, direction of the row's class>
        norms = np.sqrt(_row_dots(delta, delta))
        degenerate = (norms < DEGENERATE_NORM).any(axis=1)
        if degenerate.any():
            smallest = norms[int(np.argmax(degenerate))].min()
            raise _failure(DomainError, pairs, degenerate, f"degenerate direction: min row norm {smallest:.3e}")
        unit = delta / norms[..., None]
        per_class = directions[np.arange(len(pairs))[:, None], labels]
        align = (1.0 - _row_dots(unit, per_class)).mean(axis=1)
        dunit = -(alignment_weight / rows) * per_class
        ddelta = ddelta + (dunit - unit * _row_dots(unit, dunit)[..., None]) / norms[..., None]

    if alignment_weight < 1.0:
        # mean cross-entropy of the moved row's cosines to the class texts
        moved = z + delta
        norms = np.sqrt(_row_dots(moved, moved))
        zero = (norms == 0.0).any(axis=1)
        if zero.any():
            raise _failure(DomainError, pairs, zero, "a moved embedding is the zero vector")
        moved = moved / norms[..., None]
        logits = (1.0 / temperature) * (class_text @ np.swapaxes(moved, 1, 2))  # (T, C, B)
        try:
            per_row, dlogits = softmax_ce_cols(logits, labels)
        except ParameterError as exc:
            out_of_range = ((labels < 0) | (labels >= len(class_text))).any(axis=1)
            raise _failure(ParameterError, pairs, out_of_range, str(exc)) from exc
        cons = per_row.mean(axis=1)
        dlogits = (1.0 / temperature) * (((1.0 - alignment_weight) / rows) * dlogits)
        dmoved = np.swapaxes(dlogits, 1, 2) @ class_text
        ddelta = ddelta + (dmoved - moved * _row_dots(moved, dmoved)[..., None]) / norms[..., None]

    total = alignment_weight * align + (1.0 - alignment_weight) * cons
    dpre = (1.0 - hidden * hidden) * (ddelta @ params["w2"])
    grads = {
        "w1": np.swapaxes(dpre, 1, 2) @ z,
        "b1": dpre.sum(axis=1),
        "w2": np.swapaxes(ddelta, 1, 2) @ hidden,
        "b2": ddelta.sum(axis=1),
    }
    return total, align, cons, grads


def _objective(
    net: TransformNetwork,
    batch: LabeledEmbeddings,
    directions: Array | None,
    class_text: Array | None,
    temperature: float,
    alignment_weight: float,
):
    """``_stacked_objective`` for one transform on one batch.

    Returns (total, alignment mean, consistency mean, grads) as floats and
    unstacked grads.
    """
    params = {name: as_f64(value)[None] for name, value in net.params.items()}
    total, align, cons, grads = _stacked_objective(
        params, batch.embeddings[None], batch.labels[None],
        None if directions is None else directions[None], class_text,
        temperature, alignment_weight, [f"{net.source}->{net.target}"],
    )
    return float(total[0]), float(align[0]), float(cons[0]), {name: g[0] for name, g in grads.items()}


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
    return _objective(net, batch, directions, class_text, temperature, alignment_weight)[0]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformJob:
    """One transform to train: from ``source`` toward ``target`` on the
    source's local set, steered by the two domain description tokens."""

    dataset: LabeledEmbeddings
    source: int
    target: int
    source_token: Array
    target_token: Array

    @property
    def pair(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass
class TransformTrainingResult:
    """Transforms trained in lockstep, stacked along a leading axis in job
    order."""

    jobs: list[TransformJob]
    params: dict[str, Array]  # (T, ...) per parameter
    epoch_losses: Array       # (T, epochs): each transform's mean loss per epoch

    def networks(self) -> list[TransformNetwork]:
        """The stack split back into one network per job."""
        return [
            TransformNetwork(job.source, job.target, {name: p[t].copy() for name, p in self.params.items()})
            for t, job in enumerate(self.jobs)
        ]


def train_transform(
    jobs: list[TransformJob],
    encoder: FrozenEncoder,
    class_tokens: Array,
    config: TransferConfig,
    temperature: float,
    seed: int,
) -> TransformTrainingResult:
    """Train the transforms of ``jobs`` in lockstep with Adam and seeded
    shuffles.

    The jobs' local sets must share one non-empty length, so that every
    transform takes the same batch sizes (``ConfigurationError``
    otherwise).  Per epoch, each transform's seeded permutation of its local
    set is gathered once; each step then takes the next batch of every
    transform, runs one stacked forward and backward and one Adam step.
    Zero epochs returns the initialized networks untouched.  A failed check
    names the offending source->target pair; a non-finite loss raises
    ``NonFiniteLossError``.
    """
    if not jobs:
        raise ConfigurationError("no transforms to train")
    lengths = sorted({len(job.dataset) for job in jobs})
    if len(lengths) > 1:
        raise ConfigurationError(f"transform jobs mix local-set lengths {lengths}")
    n = lengths[0]
    if n == 0:
        raise ConfigurationError("cannot train a transform on an empty dataset")
    dim = encoder.config.dim
    pairs = [job.pair for job in jobs]
    inits = [
        TransformNetwork.init(dim, config.hidden_dim(dim), job.source, job.target, seed).params for job in jobs
    ]
    params = {name: np.stack([init[name] for init in inits]) for name in inits[0]}
    directions = np.stack(
        [text_delta_directions(encoder, job.source_token, job.target_token, class_tokens) for job in jobs]
    )
    class_text = class_text_embeddings(encoder, class_tokens)
    state = AdamState(learning_rate=config.learning_rate, weight_decay=config.weight_decay)
    z = np.empty((len(jobs), n, dim))
    labels = np.empty((len(jobs), n), dtype=np.int64)
    history = np.empty((len(jobs), config.epochs))
    for epoch in range(config.epochs):
        for t, job in enumerate(jobs):
            order = rng(seed, "transform-shuffle", job.source, job.target, epoch).permutation(n)
            shuffled = job.dataset.subset(order)
            z[t] = shuffled.embeddings
            labels[t] = shuffled.labels
        total = np.zeros(len(jobs))
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            rows = z[:, batch]
            loss, _, _, grads = _stacked_objective(
                params, rows, labels[:, batch], directions, class_text,
                temperature, config.alignment_weight, pairs,
            )
            if not np.isfinite(loss).all():
                message = f"transfer loss diverged at epoch {epoch}"
                raise _failure(NonFiniteLossError, pairs, _non_finite(loss), message)
            try:
                adam_step(state, params, grads)
            except DomainError as exc:
                bad = np.any([_non_finite(g) for g in grads.values()], axis=0)
                raise _failure(DomainError, pairs, bad, str(exc)) from exc
            total += loss * rows.shape[1]
        history[:, epoch] = total / n
        for pair, loss in zip(pairs, history[:, epoch]):
            log.info("transform %s epoch %d: loss %.6f", pair, epoch, loss)
    return TransformTrainingResult(jobs=list(jobs), params=params, epoch_losses=history)


# ---------------------------------------------------------------------------
# augmented pools
# ---------------------------------------------------------------------------


def build_augmentation_bank(
    dataset: LabeledEmbeddings,
    source: int,
    transforms: dict[int, TransformNetwork],
) -> LabeledEmbeddings:
    """The local set followed by its copy through each target's transform,
    in ascending target order.

    A copy keeps the class labels and takes the target's domain key; every
    network must start at ``source`` (``ConfigurationError``).  Nothing
    here touches the network or the ledger; the pool is a purely local
    product.
    """
    parts = [dataset]
    for key in sorted(transforms):
        net = transforms[key]
        if net.source != source:
            raise ConfigurationError(f"transform {net.source}->{net.target} does not start at {source}")
        keys = np.full(len(dataset), key, dtype=np.int64)
        parts.append(LabeledEmbeddings(net.apply(dataset.embeddings), dataset.labels, keys))
    return LabeledEmbeddings.concat(parts)
