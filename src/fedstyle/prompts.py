"""Dual prompt tuning over the frozen encoder.

Two kinds of learnable token blocks steer the text tower:

* one global prompt (L, d) shared by all clients and aggregated every round,
* one domain prompt (L, d) per client, trained locally against the frozen
  global prompt and collected once at the end.

Classification of an embedding x scores each class by the cosine between x
and the text embedding of [global slot, domain slot, class token], softmaxed
at temperature ``temperature``.  The slot layout is fixed: a disabled block
is a zero block, which contributes nothing to the pooled token sum but
keeps every token position stable.  Whatever combination of prompts is
active, the class token always sits at the same position, so a prompt is
consumed in exactly the geometry it was trained in.

For a sample from an unseen domain there is no matching domain prompt, so
one is generated: the softmax of a frozen linear domain classifier gives
membership weights over the source domains, and the domain prompts are
blended with those weights.  The blend is an exact linear combination
computed in ascending domain order, so weights that are exactly one-hot
(a saturated head) recover the matching prompt bit for bit.

``predict_unseen_batch`` is the only prediction path.  It scores a batch
under every layout: both prompts, global only (no domain prompts and no
classifier), or domain only (no global prompt).  By the one-hot guarantee
it scores a sample with one-hot weights exactly as it would with a
one-prompt stack holding the selected prompt.  It scores rows in fixed
blocks, so its per-row class-text arrays stay one block in size however
large the test set, and it rejects a temperature that is not finite and
positive.

The contrastive term keeps a domain prompt's pooled direction close to its
own domain description and away from the pooled global prompt: a two-way
softmax over the two cosines with the own-description slot as the target.

The losses take their constants prepared once and read-only, and check
per step only what a step changes: the class term
(``FrozenEncoder.class_term`` at position 2L, after both slots), the
frozen global slot pooled (``FrozenEncoder.pool_prefix``) and the
contrast's unit anchors (``contrast_anchor``).  A zero slot, the domain
slot of ``global_loss`` and the global slot of the domain-only layout, is
neither pooled nor differentiated.

All losses return means over their batch.  Each writes its gradient in
closed form next to its forward pass: the cross-entropy kernel supplies
the logit gradient, the encoder's VJP carries it back to the prompt
blocks from the forward's saved state, and the tests check every gradient
against finite differences.  Logits are class-major, (..., C, B) with
one column per row of the batch (``text @ batch.columns()``,
``weight @ batch.columns()``), so the kernel's max and sum over classes
run across all rows at once.  ``UnitRows.columns`` is the one right-hand
operand of those products: the batch's C-contiguous (..., d, B) column
copy when it carries one, which BLAS reads faster and to the same bits
as the transposed rows it falls back to.  Gradients take the row-major
rows, ``dlogits @ rows``, already the fast layout for that product.

Every loss takes its batch as ``UnitRows``: each pool is normalized and
validated once by ``UnitRows.prepare``, and a batch is a selection of its
rows.  Every loss also takes a leading client axis on the batch and on its
parameters, written once with ``...`` broadcasting: one call then steps a
stack of clients, returns one loss per client, and gives each client the
bits of a call of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledEmbeddings
from .encoder import ClassTerm, FrozenEncoder
from .errors import ConfigurationError, DataError, DomainError, ParameterError
from .numerics import Array, as_f64, require_finite, require_finite_fields, softmax_ce_cols
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
    """Seeded normal block (length, d) scaled by ``init_scale``.

    Zero scale gives an exact-zero start: every encoded sequence still
    contains a fixed class or description token, so text embeddings stay
    well defined, and the first update is then a pure function of the data
    instead of the draw.
    """
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

    def logits(self, columns: Array) -> Array:
        """Class-major logits (..., K, B) of unit rows given as columns
        (..., d, B): ``UnitRows.columns`` of a batch, or ``rows.T``."""
        logits = self.weight @ columns
        logits += self.bias[..., :, None]
        return logits


def _dot(a: Array, b: Array) -> Array:
    """Dot products over the last axis, one per leading index.

    Each is a vector-vector matmul, the same BLAS dot that ``a @ b`` and
    ``np.linalg.norm`` use on 1-D vectors, so a stacked call gives every
    client the bits it would get alone.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def contrast_anchor(x: Array, what: str) -> Array:
    """``x`` scaled to unit length over its last axis and made read-only:
    an anchor of the contrastive term, normalized once where it becomes
    fixed.  A zero or non-finite vector raises ``DomainError`` naming
    ``what``."""
    v = require_finite(as_f64(x), what)
    n = np.sqrt(_dot(v, v))[..., None]
    if np.any(n == 0.0):
        raise DomainError(f"{what} is the zero vector")
    unit = v / n
    unit.flags.writeable = False
    return unit


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


# Rows scored per block: evaluation encodes one (C, d) class-text set per
# row, so a block bounds those (rows, C, d) arrays instead of the test set.
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
    """Class probabilities (n, C) of embeddings (n, d); the one prediction path.

    Row n is scored on [global slot, domain slot, class token].  The domain
    slot holds a prompt generated for that row: the (K, L, d) stack of
    ``domain_prompts`` blended with the softmax of the domain head's
    logits.  An absent global prompt is a zero slot; with
    ``domain_prompts=None`` and no classifier the domain slot is zero for
    every row, which is the global-only layout.  Domain prompts without a
    head, or a head without domain prompts, is half a blend
    (``ParameterError``), and so is a temperature that is not finite and
    positive, and so is a stack of heads with a client axis.  Rows are
    normalized by ``_normalized_rows`` and the head's logits come from
    ``DomainClassifier.logits``, as in the losses.  Probabilities are a
    temperature softmax over the cosines between the row and each class
    text.  Rows are scored in blocks of ``PREDICT_BLOCK_ROWS``, so the
    (rows, C, d) class-text arrays do not grow with n.
    """
    x = as_f64(embeddings)
    if x.ndim != 2:
        raise ParameterError("embeddings must be (n, d)")
    xn = _normalized_rows(x)
    if not 0.0 < temperature < np.inf:
        raise ParameterError(f"temperature must be finite and positive, got {temperature!r}")

    if (domain_prompts is None) != (classifier is None):
        raise ParameterError("domain prompts and the domain head are blended together; got only one")
    if domain_prompts is None:
        if global_prompt is None:
            raise ParameterError("at least one prompt block is required")
        slot_shape = np.shape(global_prompt)
    else:
        if classifier.weight.ndim != 2:
            raise ParameterError(f"prediction takes one (K, d) head, not weight {classifier.weight.shape}")
        domain_prompts = as_f64(domain_prompts)
        if domain_prompts.ndim != 3 or len(domain_prompts) != classifier.num_domains:
            raise ParameterError(
                f"need one (L, d) prompt per head domain: {domain_prompts.shape} vs {classifier.num_domains}"
            )
        slot_shape = domain_prompts.shape[1:]
    if global_prompt is None:
        global_prompt = np.zeros(slot_shape)
    elif np.shape(global_prompt) != slot_shape:
        raise ParameterError(f"prompt blocks disagree on shape: {np.shape(global_prompt)} vs {slot_shape}")

    classes = encoder.class_term(class_tokens, 2 * slot_shape[-2])
    probs = np.empty((len(x), classes.scaled.shape[0]))
    for start in range(0, len(x), PREDICT_BLOCK_ROWS):
        rows = xn[start : start + PREDICT_BLOCK_ROWS]
        probs[start : start + len(rows)] = _block_probabilities(
            rows, global_prompt, domain_prompts, classifier, classes, encoder, temperature
        )
    return probs


def _block_probabilities(
    rows: Array,
    global_prompt: Array,
    blocks: Array | None,
    classifier: DomainClassifier | None,
    classes: ClassTerm,
    encoder: FrozenEncoder,
    temperature: float,
) -> Array:
    """``predict_unseen_batch`` on one block of validated unit rows; its
    (rows, C, d) arrays are freed on return."""
    if blocks is None:
        generated = np.zeros(np.shape(global_prompt))
    else:
        logits = classifier.logits(rows.T)  # (K, n)
        e = np.exp(logits - logits.max(axis=0))
        weights = e / e.sum(axis=0)
        # accumulated in ascending k from zero, so one-hot weights give the
        # selected prompt bit for bit
        generated = np.zeros((len(rows),) + blocks.shape[1:])
        for k in range(blocks.shape[0]):
            generated += weights[k][:, None, None] * blocks[k][None, :, :]
    text, _ = encoder.encode_class_texts([global_prompt, generated], classes)  # (C, d) or (n, C, d)
    z = np.einsum("...cd,...d->...c", text, rows) / temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitRows:
    """Unit-norm embedding rows with their class and domain labels.

    The losses' batch type.  ``prepare`` normalizes and validates a pool
    once; the losses then read its rows as they are, and batches are
    selections of a prepared pool.  A stack of equal-sized batches, one
    per client, carries a leading client axis on every array.

    ``column_copy``, when present, is a read-only C-contiguous (..., d, n)
    copy of the rows, made once by ``with_column_copy`` for a set that is
    scored whole many times; ``columns`` hands it to the class-major score
    products.
    """

    rows: Array     # (n, d) unit rows, or (clients, n, d)
    labels: Array   # (n,) class ids, or (clients, n)
    domains: Array  # (n,) domain ids, or (clients, n)
    column_copy: Array | None = None  # (d, n), or (clients, d, n)

    def __len__(self) -> int:
        """Row count, summed over the client axis of a stack."""
        return self.labels.size

    @classmethod
    def prepare(
        cls, pool: LabeledEmbeddings, num_classes: int | None, num_domains: int | None = None, out=None
    ) -> "UnitRows":
        """Normalize ``pool`` once and validate it: every row finite and
        nonzero (``DomainError``), class labels in [0, num_classes) and
        domain labels in [0, num_domains) (``DataError``).  A count of None
        skips its range check.  With ``out``, a writeable UnitRows of the
        pool's shapes such as a client's slice of a stack, the result is
        written into it."""
        checks = ((pool.labels, num_classes, "class label"), (pool.domains, num_domains, "domain index"))
        for values, count, what in checks:
            if count is not None and (np.any(values < 0) or np.any(values >= count)):
                raise DataError(f"{what} outside [0, {count})")
        if out is None:
            return cls(_normalized_rows(pool.embeddings), pool.labels, pool.domains)
        _normalized_rows(pool.embeddings, out.rows)
        np.copyto(out.labels, pool.labels)
        np.copyto(out.domains, pool.domains)
        return out

    def select(self, index) -> "UnitRows":
        """The rows at ``index``: a view for a slice, a gathered copy for
        an index array.  An index of slices and integers keeps the matching
        view of the column copy; an index array drops the copy."""
        columns = None
        parts = index if isinstance(index, tuple) else (index,)
        if self.column_copy is not None and all(isinstance(p, (slice, int, np.integer)) for p in parts):
            if len(parts) == self.labels.ndim:
                # the row axis of the copy is its last; d sits before it
                parts = parts[:-1] + (slice(None),) + parts[-1:]
            columns = self.column_copy[parts]
        return UnitRows(self.rows[index], self.labels[index], self.domains[index], columns)

    def with_column_copy(self) -> "UnitRows":
        """These rows with a read-only C-contiguous (..., d, n) copy of them."""
        columns = np.ascontiguousarray(np.swapaxes(self.rows, -1, -2))
        columns.flags.writeable = False
        return UnitRows(self.rows, self.labels, self.domains, columns)

    def columns(self) -> Array:
        """The rows as the (..., d, B) right-hand operand of a class-major
        score product: the column copy, or else a transposed view."""
        return np.swapaxes(self.rows, -1, -2) if self.column_copy is None else self.column_copy


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
    the one prompt block at position ``start`` after the pooled ``prefix``.

    Logits are the cosines between each row and each class text, divided
    by ``temperature``.  Returns the loss, one per client of a stack, and
    its gradient with respect to ``block`` (None without ``want_grad``);
    the text gradient goes through the encoder's own VJP, which reads the
    forward's saved state.  The class token must sit after both slots.
    """
    after_slots = 2 * np.shape(block)[-2]
    if classes.position != after_slots:
        raise ParameterError(f"class tokens prepared for position {classes.position}, not {after_slots}")
    text, state = encoder.encode_class_texts([block], classes, start, prefix)  # (..., C, d)
    xn = batch.rows                                                  # (..., B, d)
    _require_client_axis(batch, text.shape[:-2])
    logits = text @ batch.columns()                                  # (..., C, B)
    logits *= 1.0 / temperature
    per_row, dlogits = softmax_ce_cols(logits, batch.labels)
    loss = per_row.mean(axis=-1)
    if not want_grad:
        return loss, None
    dlogits *= 1.0 / xn.shape[-2]
    dlogits *= 1.0 / temperature
    dtext = dlogits @ xn
    return loss, encoder.encode_class_texts_backward(state, dtext)[0]


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


# Below this pooled-prompt norm the contrastive term reads the direction
# through the linear ramp pooled / floor instead of exact normalization.
# The two agree at the boundary, and the ramp bounds the term's gradient by
# 1 / floor, so a prompt growing from zero feels a steady orienting pull
# where exact normalization would give arbitrarily small prompts an
# unbounded 1 / norm kick that no learning rate can contain.
CONTRAST_NORM_FLOOR = 0.1


def _contrast_forward(domain_prompt: Array, own: Array, anchor: Array) -> tuple[Array, tuple]:
    """Similarities (..., 2) of the pooled domain-prompt direction to the
    unit ``own`` description and to the unit pooled-global ``anchor``,
    plus what the backward pass reads."""
    pooled = as_f64(domain_prompt).mean(axis=-2)
    norm = np.sqrt(_dot(pooled, pooled))[..., None]
    exact = norm >= CONTRAST_NORM_FLOOR
    direction = np.where(exact, pooled / np.where(exact, norm, 1.0), (1.0 / CONTRAST_NORM_FLOOR) * pooled)
    sims = np.stack([_dot(direction, own), _dot(direction, anchor)], axis=-1)
    return sims, (direction, norm, exact)


def domain_loss(
    batch: UnitRows,
    domain_prompt: Array,
    global_slot: Array | None,
    encoder: FrozenEncoder,
    classes: ClassTerm,
    anchors: tuple[Array, Array] | None,
    temperature: float,
    want_grad: bool = True,
) -> tuple[float | Array, Array | None, dict[str, float | Array]]:
    """Local domain-prompt objective: classification plus optional contrast.

    The global prompt is a frozen constant here, prepared once per pass:
    ``global_slot`` is its slot pooled by ``encoder.pool_prefix`` (None in
    the domain-only layout, whose zero global slot is not pooled), and
    ``anchors``, the contrastive term's (own description, pooled global
    prompt) pair of ``contrast_anchor`` vectors, or None to leave the term
    out.  ``classes`` is the class term of ``global_loss``.  Gradients flow
    only into the domain prompt.  Returns (total, grad, parts) where parts
    reports the classification and contrastive means separately.  With a
    leading client axis on the batch, on the (K, L, d) prompt, on the
    (K, d) slot and on the (K, d) anchors, every value is per client: (K,)
    losses and (K, L, d) gradients.
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    if anchors is not None and global_slot is None:
        raise ConfigurationError("the contrastive term needs the global prompt")
    shape = np.shape(domain_prompt)
    if global_slot is not None and global_slot.shape != shape[:-2] + shape[-1:]:
        raise ParameterError(f"pooled global slot {global_slot.shape} disagrees with the domain prompt {shape}")
    total, grad = _classification(
        batch, domain_prompt, shape[-2], global_slot, encoder, classes, temperature, want_grad
    )
    parts = {"classification": _per_client(total)}
    if anchors is not None:
        # two-way softmax cross-entropy with the own description as target
        own, anchor = anchors
        sims, (direction, norm, exact) = _contrast_forward(domain_prompt, own, anchor)
        con, dsims = softmax_ce_cols(sims[..., :, None], np.zeros(sims.shape[:-1] + (1,), dtype=np.int64))
        parts["contrastive"] = _per_client(con[..., 0])
        total = total + con[..., 0]
        if want_grad:
            ddirection = dsims[..., 0:1, 0] * own + dsims[..., 1:2, 0] * anchor
            along = direction * _dot(direction, ddirection)[..., None]
            dpooled = np.where(
                exact,
                (ddirection - along) / np.where(exact, norm, 1.0),
                (1.0 / CONTRAST_NORM_FLOOR) * ddirection,
            )
            grad = dpooled[..., None, :] / shape[-2] + grad
    return _per_client(total), grad, parts


def classifier_loss(
    batch: UnitRows,
    classifier: DomainClassifier,
    want_grad: bool = True,
) -> tuple[float | Array, dict[str, Array] | None]:
    """Mean cross-entropy of the linear domain head on normalized embeddings.

    Batch domains are the labels; every entry must carry a valid source
    domain index (a style-transferred copy carries its target's index).
    With a leading client axis on the batch and on a stack of heads,
    returns the (K,) losses and stacked gradients.
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    xn = batch.rows
    _require_client_axis(batch, classifier.bias.shape[:-1])
    per_row, dlogits = softmax_ce_cols(classifier.logits(batch.columns()), batch.domains)
    loss = _per_client(per_row.mean(axis=-1))
    if not want_grad:
        return loss, None
    dlogits *= 1.0 / xn.shape[-2]
    return loss, {"weight": dlogits @ xn, "bias": dlogits.sum(axis=-1)}
