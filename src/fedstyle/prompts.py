"""Dual prompt tuning over the frozen encoder.

Two kinds of learnable token blocks steer the text tower:

* one global prompt (L, d) shared by all clients and aggregated every round,
* one domain prompt (L, d) per client, trained locally against the frozen
  global prompt and collected once at the end.

Classification of an embedding x scores each class by the cosine between x
and the text embedding of [global slot, domain slot, class token], softmaxed
at temperature ``temperature``.  The slot layout is fixed whatever prompts
are active: a disabled prompt leaves its slot zero, which is not pooled, and
the class token always sits at position 2L.

For a sample from an unseen domain, the softmax of a frozen linear domain
classifier gives membership weights over the source domains, and the domain
prompts are blended with those weights, accumulated in ascending domain
order, so one-hot weights recover the matching prompt bit for bit.
``predict_unseen_batch`` is the only prediction path.

Every loss takes its batch as ``UnitRows`` (unit rows with int labels and
domains) and returns its mean over the batch with its closed-form
gradient.  Logits are class-major, (..., C, B), one column per row, and
follow the batch's dtype.  A leading client axis on the batch and on the
parameters stacks clients: one call returns one loss per client, each with
the bits of a call of its own.

Layout rule: ``UnitRows.scores`` is the only place that decides how a
batch is scored.  A batch with a column copy is scored as
``weights @ column_copy``; every other batch as ``rows @ weightsᵀ``,
returned as its transposed (..., C, B) view, which holds the bits of
``weights @ rowsᵀ``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import ClassTerm, FrozenEncoder
from .errors import ConfigurationError, DomainError, ParameterError
from .numerics import (
    Array, as_f64, require_finite, require_finite_fields, require_temperature, softmax, softmax_ce_cols,
)
from .seeding import rng


@dataclass(frozen=True)
class PromptConfig:
    """Prompt shapes and the shared softmax temperature."""

    length: int = 4
    temperature: float = 0.15
    generator_mode: str = "soft"  # the only value; fdgbench's workloads still pass it
    init_scale: float = 0.0

    def __post_init__(self):
        require_finite_fields(self)
        if self.length < 1:
            raise ConfigurationError("prompt length must be at least 1")
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        if self.generator_mode != "soft":
            raise ConfigurationError(f"generator_mode must be 'soft', got {self.generator_mode!r}")
        if self.init_scale < 0:
            raise ConfigurationError("init_scale must be non-negative")


def init_prompt(config: PromptConfig, dim: int, *tags) -> Array:
    """Seeded normal block (length, d) scaled by ``init_scale``; exact
    zeros at zero scale."""
    if config.init_scale == 0.0:
        return np.zeros((config.length, dim))
    return rng(*tags).normal(size=(config.length, dim)) * config.init_scale


@dataclass
class DomainClassifier:
    """Frozen-input linear head over normalized embeddings.

    A stack of heads, one per client, carries a leading client axis on
    both arrays; ``classifier_loss`` trains such a stack in one call.
    """

    weight: Array  # (K, d), or (clients, K, d)
    bias: Array    # (K,), or (clients, K)

    def __post_init__(self):
        self.weight = require_finite(as_f64(self.weight), "weight")
        self.bias = require_finite(as_f64(self.bias), "bias")
        if self.weight.ndim not in (2, 3) or self.bias.shape != self.weight.shape[:-1]:
            raise ParameterError("classifier shapes disagree")

    @classmethod
    def init(cls, num_domains: int, dim: int) -> "DomainClassifier":
        # zero weights: every domain starts equally likely
        return cls(weight=np.zeros((num_domains, dim)), bias=np.zeros(num_domains))

    @property
    def num_domains(self) -> int:
        return self.weight.shape[-2]

    def logits(self, batch: "UnitRows") -> Array:
        """Class-major logits (..., K, B) of the batch's unit rows, scored
        by ``UnitRows.scores``.  They take the rows' dtype: the weight and
        bias are cast to it."""
        dtype = batch.rows.dtype
        logits = batch.scores(self.weight.astype(dtype, copy=False))
        logits += self.bias.astype(dtype, copy=False)[..., :, None]
        return logits


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


# Rows scored per block: with domain prompts, evaluation encodes one (C, d)
# class-text set per row, so a block bounds those (rows, C, d) arrays
# instead of the test set.
PREDICT_BLOCK_ROWS = 256


def predict_unseen_batch(
    embeddings: Array,
    global_prompt: Array | None,
    domain_prompts: Array | None,
    classifier: DomainClassifier | None,
    class_tokens: Array,
    encoder: FrozenEncoder,
    temperature: float,
) -> Array:
    """Class probabilities (n, C) of embeddings (n, d), float64.

    Row n is scored on [global slot, domain slot, class token].  The domain
    slot holds the (K, L, d) ``domain_prompts`` blended with the softmax of
    the head's logits for that row; with ``domain_prompts=None`` and no
    classifier (the global-only layout) it is zero.  A ``global_prompt`` of
    None leaves the global slot zero.  Probabilities are a temperature
    softmax over the cosines between the row and each class text, scored
    in blocks of ``PREDICT_BLOCK_ROWS`` rows.

    Raises ``ParameterError`` for domain prompts without a head or a head
    without domain prompts, no prompt at all, a temperature that is not
    finite and positive, a head with a client axis, and embeddings, prompt
    blocks or a head whose shapes disagree with each other or the encoder;
    ``DomainError`` for a zero or non-finite embedding.
    """
    require_temperature(temperature)
    x, dim = as_f64(embeddings), encoder.config.dim
    if x.ndim != 2 or x.shape[1] != dim:
        raise ParameterError(f"embeddings must be (n, {dim}), got {x.shape}")
    xn = _normalized_rows(x)

    if (domain_prompts is None) != (classifier is None):
        raise ParameterError("domain prompts and the domain head are blended together; got only one")
    if domain_prompts is None:
        if global_prompt is None:
            raise ParameterError("at least one prompt block is required")
        slot_shape = np.shape(global_prompt)
    else:
        if classifier.weight.ndim != 2 or classifier.weight.shape[1] != dim:
            raise ParameterError(f"prediction takes one (K, {dim}) head, not weight {classifier.weight.shape}")
        domain_prompts = as_f64(domain_prompts)
        if domain_prompts.ndim != 3 or len(domain_prompts) != classifier.num_domains:
            raise ParameterError(
                f"need one (L, d) prompt per head domain: {domain_prompts.shape} vs {classifier.num_domains}"
            )
        slot_shape = domain_prompts.shape[1:]
    if global_prompt is not None and np.shape(global_prompt) != slot_shape:
        raise ParameterError(f"prompt blocks disagree on shape: {np.shape(global_prompt)} vs {slot_shape}")
    if len(slot_shape) != 2 or slot_shape[1] != dim:
        raise ParameterError(f"a prompt block must be (L, {dim}), got {slot_shape}")

    length = slot_shape[-2]
    classes = encoder.class_term(class_tokens, 2 * length)
    prefix = None
    if domain_prompts is None:
        text = encoder.encode_class_texts(global_prompt, classes)[0]  # one (C, d) set for every row
    elif global_prompt is not None:
        prefix = encoder.pool_prefix(global_prompt)
    probs = np.empty((len(x), classes.scaled.shape[0]))
    for start in range(0, len(x), PREDICT_BLOCK_ROWS):
        rows = xn[start : start + PREDICT_BLOCK_ROWS]
        if domain_prompts is not None:
            generated = _generated_prompts(rows, domain_prompts, classifier)
            text = encoder.encode_class_texts(generated, classes, length, prefix)[0]  # (n, C, d)
        probs[start : start + len(rows)] = softmax(np.einsum("...cd,...d->...c", text, rows) / temperature, 1)
    return probs


def _generated_prompts(rows: Array, blocks: Array, classifier: DomainClassifier) -> Array:
    """(n, L, d) prompts for unit rows (n, d): the (K, L, d) ``blocks``
    blended with the softmax of the head's logits, accumulated in
    ascending k from zero, so one-hot weights give the selected prompt bit
    for bit."""
    weights = softmax(classifier.logits(UnitRows(rows, None, None)), 0)  # (K, n)
    generated = np.zeros((len(rows),) + blocks.shape[1:])
    for k in range(blocks.shape[0]):
        generated += weights[k][:, None, None] * blocks[k][None, :, :]
    return generated


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitRows:
    """Unit-norm embedding rows with their integer class and domain labels.

    The losses' batch type; the losses read the rows in their dtype and
    check the labels' range and integer dtype, not the norms.  A stack of
    equal-sized batches, one per client, carries a leading client axis on
    every array.  ``column_copy``, when present, is a read-only
    C-contiguous (..., d, n) copy of the rows from ``with_column_copy``;
    a selection carries none.  ``scores`` is the batch's one score
    product, under the module's layout rule.  Prediction scores rows that
    carry no labels (None).
    """

    rows: Array     # (n, d) unit rows, or (clients, n, d)
    labels: Array   # (n,) class ids, or (clients, n)
    domains: Array  # (n,) domain ids, or (clients, n)
    column_copy: Array | None = None  # (d, n), or (clients, d, n)

    def __len__(self) -> int:
        """Row count, summed over the client axis of a stack."""
        return self.labels.size

    def select(self, index) -> "UnitRows":
        """The rows at ``index``, without a column copy: a view for a slice,
        a gathered copy for an index array."""
        return UnitRows(self.rows[index], self.labels[index], self.domains[index])

    def with_column_copy(self) -> "UnitRows":
        """These rows with a read-only C-contiguous (..., d, n) copy of them."""
        columns = np.ascontiguousarray(np.swapaxes(self.rows, -1, -2))
        columns.flags.writeable = False
        return UnitRows(self.rows, self.labels, self.domains, columns)

    def scores(self, weights: Array) -> Array:
        """Class-major scores (..., C, B) of the rows against ``weights``
        (..., C, d): ``weights @ column_copy`` with a column copy, else
        the transposed view of the C-contiguous (..., B, C) product
        ``rows @ weightsᵀ``, which holds the bits of ``weights @ rowsᵀ``."""
        if self.column_copy is not None:
            return weights @ self.column_copy
        return np.swapaxes(self.rows @ np.swapaxes(weights, -1, -2), -1, -2)


def _normalized_rows(embeddings: Array, out: Array | None = None) -> Array:
    """Rows (n, d) scaled to unit norm; a zero or non-finite row raises
    ``DomainError``."""
    norms = np.linalg.norm(embeddings, axis=1)
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise DomainError("batch contains a zero or non-finite embedding")
    return np.divide(embeddings, norms[:, None], out=out)


def _per_client(values: Array) -> float | Array:
    """A loss without a client axis as a float; a stacked one as its array."""
    return float(values) if values.ndim == 0 else values


def _require_client_axis(batch: UnitRows, leading: tuple) -> None:
    if batch.rows.shape[:-2] != leading:
        raise ParameterError(
            f"batch client axis {batch.rows.shape[:-2]} disagrees with the parameters' {leading}"
        )


def _classification(
    batch: UnitRows,
    block: Array,
    start: int,
    prefix: Array | None,
    encoder: FrozenEncoder,
    classes: ClassTerm,
    temperature: float,
    want_grad: bool,
) -> tuple[Array, Array | None]:
    """Mean cross-entropy of the batch under the text tower, with ``block``
    the one prompt block at position ``start`` after the pooled ``prefix``,
    and its gradient with respect to ``block`` (None without
    ``want_grad``).  The class token must sit after both slots
    (``ParameterError``).

    The scalars act on the (..., C, d) side: the class text is multiplied
    by 1/T in float64, then cast to the batch's dtype for the logits
    ``batch.scores(text)``, and the text gradient ``dlogits @ rows`` is
    multiplied by 1/(B T) in the batch's dtype.
    """
    after_slots = 2 * np.shape(block)[-2]
    if classes.position != after_slots:
        raise ParameterError(f"class tokens prepared for position {classes.position}, not {after_slots}")
    text, state = encoder.encode_class_texts(block, classes, start, prefix)  # (..., C, d)
    xn = batch.rows                                                  # (..., B, d)
    _require_client_axis(batch, text.shape[:-2])
    rows = xn.shape[-2]
    scaled = (text * (1.0 / temperature)).astype(xn.dtype, copy=False)
    per_row, dlogits = softmax_ce_cols(batch.scores(scaled), batch.labels)  # (..., C, B)
    loss = np.add.reduce(per_row, axis=-1) / rows
    if not want_grad:
        return loss, None
    dtext = dlogits @ xn
    dtext *= 1.0 / (rows * temperature)
    return loss, encoder.encode_class_texts_backward(state, dtext)


def global_loss(
    batch: UnitRows,
    global_prompt: Array,
    encoder: FrozenEncoder,
    classes: ClassTerm,
    temperature: float,
    want_grad: bool = True,
) -> tuple[float | Array, Array | None]:
    """Mean cross-entropy of the global prediction path over a batch.

    ``classes`` is the class term prepared once for the slot layout
    (``encoder.class_term(class_tokens, 2 * L)``); the domain slot is zero
    and is neither pooled nor differentiated.  With a leading client axis
    on the batch and on the (K, L, d) prompts, returns the (K,) losses and
    the (K, L, d) gradients.
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    loss, grad = _classification(batch, global_prompt, 0, None, encoder, classes, temperature, want_grad)
    return _per_client(loss), grad


def domain_loss(
    batch: UnitRows,
    domain_prompt: Array,
    global_slot: Array | None,
    encoder: FrozenEncoder,
    classes: ClassTerm,
    temperature: float,
    want_grad: bool = True,
) -> tuple[float | Array, Array | None]:
    """Mean cross-entropy of the domain-prompt path over a batch.

    The global prompt is a frozen constant here: ``global_slot`` is its
    slot pooled by ``encoder.pool_prefix`` (None in the domain-only
    layout).  ``classes`` is the class term of ``global_loss``.  Gradients
    flow only into the domain prompt.  With a leading client axis on the
    batch, on the (K, L, d) prompt and on the (K, d) slot, returns the (K,)
    losses and the (K, L, d) gradients.
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    shape = np.shape(domain_prompt)
    if global_slot is not None and global_slot.shape != shape[:-2] + shape[-1:]:
        raise ParameterError(f"pooled global slot {global_slot.shape} disagrees with the domain prompt {shape}")
    loss, grad = _classification(
        batch, domain_prompt, shape[-2], global_slot, encoder, classes, temperature, want_grad
    )
    return _per_client(loss), grad


def classifier_loss(
    batch: UnitRows,
    classifier: DomainClassifier,
    want_grad: bool = True,
) -> tuple[float | Array, dict[str, Array] | None]:
    """Mean cross-entropy of the linear domain head on normalized embeddings.

    Batch domains are the labels; every entry must be a valid head index.
    The weight and bias gradients are multiplied by 1/B after their
    reductions.  With a leading client axis on the batch and on a stack of
    heads, returns the (K,) losses and stacked gradients.
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    xn = batch.rows
    _require_client_axis(batch, classifier.bias.shape[:-1])
    rows = xn.shape[-2]
    per_row, dlogits = softmax_ce_cols(classifier.logits(batch), batch.domains)
    loss = _per_client(np.add.reduce(per_row, axis=-1) / rows)
    if not want_grad:
        return loss, None
    weight, bias = dlogits @ xn, np.add.reduce(dlogits, axis=-1)
    weight *= 1.0 / rows
    bias *= 1.0 / rows
    return loss, {"weight": weight, "bias": bias}
