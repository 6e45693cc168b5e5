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
A class label picks its row's direction, so ``train_transform`` and
``transfer_loss`` refuse one outside [0, C) with ``DataError`` before
anything is computed.  Both terms are batch means, so gradient scale
does not depend on batch size.

``train_transform`` trains every transform of a job list in lockstep.
The T parameter sets are stacked along a leading axis, (T, h, d) for
``w1``, and all four stacks are named views of one flat vector.  That
vector, its gradient, Adam's moments, the epoch's batches, the text
constants and every intermediate of a step are ``numerics.TRAIN_DTYPE``,
float32.  ``_objective`` and ``transfer_loss`` cast what they receive to
float64, and ``build_augmentation_bank`` writes its copies into the
caller's stack in the stack's dtype.
Each step checks that vector once for a non-finite entry, runs one
stacked forward and closed-form backward, ``_stacked_objective``, which
writes the gradients into views of a second flat vector, and takes one
in-place Adam step on the whole vector.  A failed check is traced back
through the views to the parameter and the source->target pair it names.
Transform t draws the same seeded batches in the same order as it would
alone, and every stacked operation acts on each slice as the
one-transform operation would, so its parameters and losses do not
depend on the other transforms.
Both terms are cosines, computed on the unnormalized rows ``Q(z) - z``
and ``Q(z)``, each divided by its row norm.  The consistency logits are
class-major, (T, C, B), for the shared cross-entropy kernel.
``_objective`` is the same kernel for one transform; the forward is
``_transform_forward``.

``build_augmentation_bank`` runs that forward once per client, broadcasting
its local set against its block of transforms, and writes the copies
straight into the caller's (K, S, n, d) view of the train stack, laid out
as ``federation.transform_jobs`` states.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledEmbeddings, require_labels
from .encoder import FrozenEncoder
from .errors import ConfigurationError, DomainError, NonFiniteLossError, ParameterError
from .numerics import (
    TRAIN_DTYPE, AdamState, Array, adam_step, as_f64, require_finite_fields, require_temperature, softmax_ce_cols,
)
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
        if self.learning_rate * self.weight_decay >= 1:
            raise ConfigurationError("learning_rate * weight_decay must be below 1 to keep the decay factor positive")
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
    classes = encoder.class_term(class_tokens, 1)
    e_src, _ = encoder.encode_class_texts(as_f64(source_token)[None, :], classes)
    e_tgt, _ = encoder.encode_class_texts(as_f64(target_token)[None, :], classes)
    delta = e_tgt - e_src
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    if np.any(norms < DEGENERATE_NORM):
        c = int(np.argmin(norms))
        raise DomainError(f"text style direction for class {c} is degenerate (norm {norms[c, 0]:.3e})")
    return delta / norms


def class_text_embeddings(encoder: FrozenEncoder, class_tokens: Array) -> Array:
    """(C, d) unit embeddings of each bare class description."""
    return encoder.encode_class_texts(None, encoder.class_term(class_tokens, 0))[0]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _transform_forward(params: dict[str, Array], z: Array, out=(None, None)) -> tuple[Array, Array]:
    """Hidden layer and correction for rows z: (hidden, delta).

    One transform maps rows (n, d); a stack of T maps rows (T, n, d).  The
    two results are written into the arrays of ``out`` when given.
    """
    hidden = np.matmul(z, np.swapaxes(params["w1"], -1, -2), out=out[0])
    hidden += params["b1"][..., None, :]
    np.tanh(hidden, out=hidden)
    delta = np.matmul(hidden, np.swapaxes(params["w2"], -1, -2), out=out[1])
    delta += params["b2"][..., None, :]
    return hidden, delta


def _failure(error: type[Exception], pairs: list[str], bad: Array, message: str) -> Exception:
    """``error`` naming the first transform flagged in the (T,) mask ``bad``."""
    return error(f"transform {pairs[int(np.argmax(bad))]}: {message}")


def _non_finite(stacked: Array) -> Array:
    """(T,) mask of the transforms whose slice of ``stacked`` is not all finite."""
    return ~np.isfinite(stacked).reshape(len(stacked), -1).all(axis=1)


def _require_finite_stacks(stacks: dict[str, Array], pairs: list[str], label: str = "{}") -> None:
    """``DomainError`` naming the first array of ``stacks`` with a non-finite
    entry, as ``label`` formats its name, and the first transform in it."""
    for name, value in stacks.items():
        if not np.isfinite(value).all():
            message = f"{label.format(name)} contains a non-finite entry"
            raise _failure(DomainError, pairs, _non_finite(value), message)


def _flat_views(vector: Array, count: int, shapes: dict[str, tuple[int, ...]]) -> dict[str, Array]:
    """Named (count, *shape) views that tile the flat ``vector`` in order."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = count * math.prod(shape)
        views[name] = vector[start : start + size].reshape(count, *shape)
        start += size
    return views


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
    stack: Array,
    out: dict[str, Array] | None = None,
):
    """Forward and closed-form backward of the transfer objective for T
    stacked transforms, each on its own batch.

    Transform t sees rows ``z[t]`` of (T, B, d) with classes ``labels[t]``
    of (T, B) and its unit text direction per class ``directions[t]`` of
    (T, C, d); ``stack`` is ``np.arange(T)[:, None]``, which picks each
    row's direction from its own transform's slice.  Returns (total,
    alignment mean, consistency mean) as (T,) arrays and the stacked grads,
    written into ``out`` (arrays shaped like ``params``) when given.  A
    part with zero weight is skipped and reads 0, so its constants may be
    None.  The parameters and the labels are the caller's to check; a
    failed check here names the transform by its entry in ``pairs``.
    """
    rows = z.shape[1]
    if rows == 0:
        raise ParameterError("empty batch")
    hidden, delta = _transform_forward(params, z)
    align = cons = np.zeros(len(pairs), dtype=z.dtype)

    if alignment_weight > 0.0:
        # mean over rows of 1 - cos(delta, direction of the row's class); the
        # gradient of -cos is -(per_class - cos * delta / |delta|) / |delta|
        norms = np.sqrt(_row_dots(delta, delta))
        if (norms < DEGENERATE_NORM).any():
            degenerate = (norms < DEGENERATE_NORM).any(axis=1)
            smallest = norms[int(np.argmax(degenerate))].min()
            raise _failure(DomainError, pairs, degenerate, f"degenerate direction: min row norm {smallest:.3e}")
        per_class = directions[stack, labels]
        cos = _row_dots(delta, per_class) / norms
        align = (1.0 - cos).sum(axis=1) / rows
        scale = -(alignment_weight / rows) / norms
        ddelta = per_class * scale[..., None] - delta * ((scale * cos) / norms)[..., None]

    if alignment_weight < 1.0:
        # mean cross-entropy of the moved row's cosines to the class texts;
        # dividing by |moved| adds -moved * sum_c dlogits * cos / |moved|^2
        moved = z + delta
        norms = np.sqrt(_row_dots(moved, moved))
        if (norms == 0.0).any():
            zero = (norms == 0.0).any(axis=1)
            raise _failure(DomainError, pairs, zero, "a moved embedding is the zero vector")
        cosines = (class_text @ np.swapaxes(moved, 1, 2)) / norms[:, None, :]  # (T, C, B)
        per_row, dlogits = softmax_ce_cols((1.0 / temperature) * cosines, labels)
        cons = per_row.sum(axis=1) / rows
        dlogits *= (1.0 / temperature) * ((1.0 - alignment_weight) / rows)
        radial = np.einsum("tcb,tcb->tb", dlogits, cosines) / (norms * norms)
        dlogits /= norms[:, None, :]
        dmoved = np.swapaxes(dlogits, 1, 2) @ class_text - moved * radial[..., None]
        ddelta = dmoved + ddelta if alignment_weight > 0.0 else dmoved

    total = alignment_weight * align + (1.0 - alignment_weight) * cons
    grads = {name: np.empty_like(value) for name, value in params.items()} if out is None else out
    np.matmul(np.swapaxes(ddelta, 1, 2), hidden, out=grads["w2"])
    np.sum(ddelta, axis=1, out=grads["b2"])
    dpre = (ddelta @ params["w2"]) * (1.0 - hidden * hidden)
    np.matmul(np.swapaxes(dpre, 1, 2), z, out=grads["w1"])
    np.sum(dpre, axis=1, out=grads["b1"])
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
    pairs = [f"{net.source}->{net.target}"]
    _require_finite_stacks(params, pairs)
    total, align, cons, grads = _stacked_objective(
        params, batch.embeddings[None], batch.labels[None],
        None if directions is None else directions[None], class_text,
        temperature, alignment_weight, pairs, np.zeros((1, 1), dtype=np.int64),
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
    alignment_weight: float,
) -> float:
    """alignment_weight * mean alignment + (1 - alignment_weight) * consistency.
    A temperature that is not finite and positive is a ``ParameterError``,
    a class label outside [0, C) a ``DataError``."""
    require_temperature(temperature)
    require_labels(batch.labels, len(class_tokens), "class label")
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
    params: dict[str, Array]  # (T, ...) per parameter, in TRAIN_DTYPE
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
    otherwise), and carry class labels in [0, C) (``DataError`` naming the
    job's pair).  Per epoch, each transform's seeded permutation of its local
    set is gathered once; each step then takes the next batch of every
    transform, runs one stacked forward and backward and one Adam step.
    The training state is ``TRAIN_DTYPE``, and ``epoch_losses``
    accumulates in float64.  Zero epochs returns the initialized networks
    untouched, as float32 holds them.  A failed check names the offending
    source->target pair; a non-finite loss raises ``NonFiniteLossError``.
    A temperature that is not finite and positive is a ``ParameterError``,
    raised first.
    """
    require_temperature(temperature)
    if not jobs:
        raise ConfigurationError("no transforms to train")
    lengths = sorted({len(job.dataset) for job in jobs})
    if len(lengths) > 1:
        raise ConfigurationError(f"transform jobs mix local-set lengths {lengths}")
    n = lengths[0]
    if n == 0:
        raise ConfigurationError("cannot train a transform on an empty dataset")
    for job in jobs:
        require_labels(job.dataset.labels, len(class_tokens), f"transform {job.pair}: class label")
    dim = encoder.config.dim
    count = len(jobs)
    pairs = [job.pair for job in jobs]
    inits = [
        TransformNetwork.init(dim, config.hidden_dim(dim), job.source, job.target, seed).params for job in jobs
    ]
    # parameters and gradients are views of two flat vectors, so one check
    # and one Adam call per step cover all of them
    shapes = {name: value.shape for name, value in inits[0].items()}
    theta = np.empty(count * sum(value.size for value in inits[0].values()), dtype=TRAIN_DTYPE)
    gradient = np.empty_like(theta)
    params, grads = _flat_views(theta, count, shapes), _flat_views(gradient, count, shapes)
    for name, view in params.items():
        np.stack([init[name] for init in inits], out=view)
    directions = np.stack(
        [text_delta_directions(encoder, job.source_token, job.target_token, class_tokens) for job in jobs],
        dtype=TRAIN_DTYPE,
    )
    class_text = class_text_embeddings(encoder, class_tokens).astype(TRAIN_DTYPE)
    state = AdamState(learning_rate=config.learning_rate, weight_decay=config.weight_decay)
    z = np.empty((count, n, dim), dtype=TRAIN_DTYPE)
    labels = np.empty((count, n), dtype=np.int64)
    stack = np.arange(count)[:, None]
    # Python floats, which leave a float32 operand float32 where a numpy
    # float64 scalar would promote it
    temperature, weight = float(temperature), float(config.alignment_weight)
    history = np.empty((count, config.epochs))
    for epoch in range(config.epochs):
        for t, job in enumerate(jobs):
            order = rng(seed, "transform-shuffle", job.source, job.target, epoch).permutation(n)
            shuffled = job.dataset.subset(order)
            z[t] = shuffled.embeddings
            labels[t] = shuffled.labels
        total = np.zeros(count)
        for start in range(0, n, config.batch_size):
            batch = slice(start, start + config.batch_size)
            rows = z[:, batch]
            if not np.isfinite(theta).all():
                _require_finite_stacks(params, pairs)
            loss = _stacked_objective(
                params, rows, labels[:, batch], directions, class_text,
                temperature, weight, pairs, stack, out=grads,
            )[0]
            if not np.isfinite(loss).all():
                message = f"transfer loss diverged at epoch {epoch}"
                raise _failure(NonFiniteLossError, pairs, _non_finite(loss), message)
            try:
                adam_step(state, theta, gradient)
            except DomainError:
                _require_finite_stacks(grads, pairs, "grad[{}]")
                raise
            total += loss * rows.shape[1]
        history[:, epoch] = total / n
        for pair, loss in zip(pairs, history[:, epoch]):
            log.info("transform %s epoch %d: loss %.6f", pair, epoch, loss)
    return TransformTrainingResult(jobs=list(jobs), params=params, epoch_losses=history)


# ---------------------------------------------------------------------------
# augmented pools
# ---------------------------------------------------------------------------


def build_augmentation_bank(result: TransformTrainingResult, out: Array) -> None:
    """Write each job's local set moved by its trained transform, Q(z),
    into ``out``, a (K, S, n, d) view of K clients' blocks of S copies: job
    i * S + s goes to ``out[i, s]``.  A block's jobs share one local set, so
    each block takes one forward that broadcasts the (n, d) set against its
    stacked parameters.  The copies take ``out``'s dtype: each correction
    is rounded to it when written, then its local row is added.  Jobs that
    do not fill ``out`` that way are a ``ParameterError``;
    ``federation.transform_jobs`` fixes the layout.
    Nothing here touches the network or the ledger; the pool is a purely
    local product."""
    (k, s), jobs = out.shape[:2], result.jobs
    if k * s != len(jobs) or any(job.dataset is not jobs[t - t % s].dataset for t, job in enumerate(jobs)):
        raise ParameterError(f"{len(jobs)} jobs do not fill {k} blocks of {s} copies of one local set each")
    for i in range(k):
        block, z = slice(i * s, (i + 1) * s), jobs[i * s].dataset.embeddings
        _transform_forward({name: p[block] for name, p in result.params.items()}, z, out=(None, out[i]))
        out[i] += z
