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
one is generated: a frozen linear domain classifier produces membership
weights over the source domains and the domain prompts are blended with
those weights (soft mode) or the argmax one (one-hot mode).  The blend is
an exact linear combination computed in ascending domain order, so one-hot
weights recover the matching prompt bit for bit.

``predict_unseen_batch`` is the only prediction path.  It scores a batch
under every layout: both prompts, global only (no domain prompts and no
classifier), or domain only (no global prompt).  By the one-hot guarantee
it scores a one-hot sample exactly as it would with a one-prompt stack
holding the selected prompt.

The contrastive term keeps a domain prompt's pooled direction close to its
own domain description and away from the pooled global prompt: a two-way
softmax over the two cosines with the own-description slot as the target.

All losses return means over their batch; gradients are exact tape
gradients and are checked against finite differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledEmbeddings
from .encoder import FrozenEncoder
from .errors import ConfigurationError, DataError, DomainError, ParameterError
from .numerics import Array, GradTape, Node, as_f64, require_finite
from .seeding import rng


@dataclass(frozen=True)
class PromptConfig:
    """Prompt shapes and the shared softmax temperature."""

    length: int = 4
    temperature: float = 0.01
    generator_mode: str = "soft"  # "soft" or "onehot" blending of domain prompts
    init_scale: float = 1e-3

    def __post_init__(self):
        if self.length < 1:
            raise ConfigurationError("prompt length must be at least 1")
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        if self.generator_mode not in ("soft", "onehot"):
            raise ConfigurationError(f"unknown generator mode {self.generator_mode!r}")
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
    """Frozen-input linear head over normalized embeddings."""

    weight: Array  # (K, d)
    bias: Array    # (K,)

    def __post_init__(self):
        self.weight = require_finite(as_f64(self.weight), "weight")
        self.bias = require_finite(as_f64(self.bias), "bias")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ParameterError("classifier shapes disagree")

    @classmethod
    def init(cls, num_domains: int, dim: int) -> "DomainClassifier":
        # zero weights: every domain starts equally likely
        return cls(weight=np.zeros((num_domains, dim)), bias=np.zeros(num_domains))

    @property
    def num_domains(self) -> int:
        return self.weight.shape[0]

    def params(self) -> dict[str, Array]:
        return {"weight": self.weight, "bias": self.bias}


def _unit_vector(x: Array, what: str) -> Array:
    v = require_finite(as_f64(x), what)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise DomainError(f"{what} is the zero vector")
    return v / n


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------


def predict_unseen_batch(
    embeddings: Array,
    global_prompt: Array | None,
    domain_prompts: Array | None,
    classifier: DomainClassifier | None,
    class_tokens: Array,
    encoder: FrozenEncoder,
    temperature: float,
    mode: str = "soft",
) -> Array:
    """Class probabilities (n, C) of embeddings (n, d); the one prediction path.

    Row n is scored on [global slot, domain slot, class token].  The domain
    slot holds a prompt generated for that row: the (K, L, d) stack of
    ``domain_prompts`` blended with the domain head's membership weights,
    its softmax (``mode="soft"``) or its argmax (``"onehot"``, ties to the
    lowest index).  An absent global prompt is a zero slot; with
    ``domain_prompts=None`` and no classifier the domain slot is zero for
    every row, which is the global-only layout.  Probabilities are a
    temperature softmax over the cosines between the row and each class
    text.
    """
    x = require_finite(as_f64(embeddings), "embeddings")
    if x.ndim != 2:
        raise ParameterError("embeddings must be (n, d)")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise DomainError("embedding is the zero vector")
    xn = x / norms[:, None]

    if domain_prompts is None:
        if global_prompt is None:
            raise ParameterError("at least one prompt block is required")
        generated = np.zeros(np.shape(global_prompt))
    else:
        blocks = as_f64(domain_prompts)
        if blocks.ndim != 3 or blocks.shape[0] != classifier.num_domains:
            raise ParameterError(
                f"need one (L, d) prompt per head domain: {blocks.shape} vs {classifier.num_domains}"
            )
        logits = xn @ classifier.weight.T + classifier.bias  # (n, K)
        if mode == "soft":
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            weights = e / e.sum(axis=1, keepdims=True)
        elif mode == "onehot":
            weights = np.zeros_like(logits)
            weights[np.arange(len(x)), np.argmax(logits, axis=1)] = 1.0
        else:
            raise ParameterError(f"unknown mode {mode!r}")
        # accumulated in ascending k from zero, so one-hot weights give the
        # selected prompt bit for bit
        generated = np.zeros((len(x),) + blocks.shape[1:])
        for k in range(blocks.shape[0]):
            generated += weights[:, k : k + 1, None] * blocks[k][None, :, :]
    if global_prompt is None:
        global_prompt = np.zeros(generated.shape[-2:])
    elif np.shape(global_prompt) != generated.shape[-2:]:
        raise ParameterError(
            f"prompt blocks disagree on shape: {np.shape(global_prompt)} vs {generated.shape[-2:]}"
        )
    text = encoder.encode_class_texts([global_prompt, generated], class_tokens)  # (C, d) or (n, C, d)
    z = np.einsum("...cd,...d->...c", text, xn) / temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# tape plumbing for the encoder
# ---------------------------------------------------------------------------


def _class_text_node(
    tape: GradTape, encoder: FrozenEncoder, blocks: list[Node], class_tokens: Array
) -> Node:
    """Encode [blocks..., class_c] for all classes as one tape op.

    The encoder supplies its own closed-form VJP; the tape scatters it into
    whichever blocks are tracked.
    """
    values = [b.value for b in blocks]
    return tape.custom(
        encoder.encode_class_texts(values, class_tokens),
        blocks,
        lambda upstream: encoder.encode_class_texts_backward(values, class_tokens, upstream),
    )


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _normalized_rows(batch: LabeledEmbeddings) -> Array:
    norms = np.linalg.norm(batch.embeddings, axis=1)
    if np.any(norms == 0.0):
        raise DomainError("batch contains a zero embedding")
    return batch.embeddings / norms[:, None]


def global_loss(
    batch: LabeledEmbeddings,
    global_prompt: Array,
    encoder: FrozenEncoder,
    class_tokens: Array,
    temperature: float,
    want_grad: bool = True,
) -> tuple[float, Array | None]:
    """Mean cross-entropy of the global prediction path over a batch."""
    if len(batch) == 0:
        raise ParameterError("empty batch")
    if np.any(batch.labels < 0) or np.any(batch.labels >= class_tokens.shape[0]):
        raise DataError("class label out of range")
    tape = GradTape()
    prompt = tape.leaf(global_prompt) if want_grad else tape.const(global_prompt)
    empty_slot = tape.const(np.zeros_like(prompt.value))
    text = _class_text_node(tape, encoder, [prompt, empty_slot], class_tokens)
    logits = tape.affine_scalar(tape.matmul_nt(tape.const(_normalized_rows(batch)), text), 1.0 / temperature)
    loss = tape.mean(tape.softmax_ce_rows(logits, batch.labels))
    if not want_grad:
        return float(loss.value), None
    tape.backward(loss)
    return float(loss.value), prompt.grad


# Below this pooled-prompt norm the contrastive term reads the direction
# through the linear ramp pooled / floor instead of exact normalization.
# The two agree at the boundary, and the ramp bounds the term's gradient by
# 1 / floor, so a prompt growing from zero feels a steady orienting pull
# where exact normalization would give arbitrarily small prompts an
# unbounded 1 / norm kick that no learning rate can contain.
CONTRAST_NORM_FLOOR = 0.1


def _direction_scale(pooled_norm: float) -> float:
    return 1.0 / max(pooled_norm, CONTRAST_NORM_FLOOR)


def contrastive_loss_parts(
    domain_prompt: Array, global_prompt: Array, own_description: Array
) -> tuple[float, float]:
    """The two similarities entering the contrastive term (diagnostic helper)."""
    pooled = as_f64(domain_prompt).mean(axis=0)
    pooled = pooled * _direction_scale(float(np.linalg.norm(pooled)))
    own = _unit_vector(own_description, "own description embedding")
    anchor = _unit_vector(as_f64(global_prompt).mean(axis=0), "pooled global prompt")
    return float(pooled @ own), float(pooled @ anchor)


def domain_loss(
    batch: LabeledEmbeddings,
    domain_prompt: Array,
    global_prompt: Array | None,
    encoder: FrozenEncoder,
    class_tokens: Array,
    own_description: Array | None,
    temperature: float,
    use_contrastive: bool = True,
    want_grad: bool = True,
) -> tuple[float, Array | None, dict[str, float]]:
    """Local domain-prompt objective: classification plus optional contrast.

    The global prompt is a frozen constant here; gradients flow only into
    the domain prompt.  Returns (total, grad, parts) where parts reports
    the classification and contrastive means separately.
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    if use_contrastive and (global_prompt is None or own_description is None):
        raise ConfigurationError("contrastive term needs the global prompt and the own-domain description")
    tape = GradTape()
    prompt = tape.leaf(domain_prompt) if want_grad else tape.const(domain_prompt)
    global_slot = tape.const(
        np.zeros_like(prompt.value) if global_prompt is None else global_prompt
    )
    if global_slot.value.shape != prompt.value.shape:
        raise ParameterError(
            f"prompt blocks disagree on shape: {global_slot.value.shape} vs {prompt.value.shape}"
        )
    text = _class_text_node(tape, encoder, [global_slot, prompt], class_tokens)
    logits = tape.affine_scalar(tape.matmul_nt(tape.const(_normalized_rows(batch)), text), 1.0 / temperature)
    cla = tape.mean(tape.softmax_ce_rows(logits, batch.labels))
    parts = {"classification": float(cla.value)}
    total = cla
    if use_contrastive:
        pooled_raw = tape.row_mean(prompt)
        pooled_norm = float(np.linalg.norm(pooled_raw.value))
        if pooled_norm >= CONTRAST_NORM_FLOOR:
            pooled = tape.unit(pooled_raw)
        else:
            pooled = tape.affine_scalar(pooled_raw, _direction_scale(pooled_norm))
        own = _unit_vector(own_description, "own description embedding")
        anchor = _unit_vector(as_f64(global_prompt).mean(axis=0), "pooled global prompt")
        sims = tape.stack_scalars([tape.dot(pooled, tape.const(own)), tape.dot(pooled, tape.const(anchor))])
        con = tape.softmax_ce(sims, 0)
        parts["contrastive"] = float(con.value)
        total = tape.add(cla, con)
    if not want_grad:
        return float(total.value), None, parts
    tape.backward(total)
    return float(total.value), prompt.grad, parts


def classifier_loss(
    batch: LabeledEmbeddings,
    classifier: DomainClassifier,
    want_grad: bool = True,
) -> tuple[float, dict[str, Array] | None]:
    """Mean cross-entropy of the linear domain head on normalized embeddings.

    Batch domains are the labels; every entry must carry a valid source
    domain index (augmented entries carry their style target's index).
    """
    if len(batch) == 0:
        raise ParameterError("empty batch")
    k = classifier.num_domains
    if np.any(batch.domains < 0) or np.any(batch.domains >= k):
        raise DataError(f"domain index outside [0, {k}) in classifier batch")
    tape = GradTape()
    weight = tape.leaf(classifier.weight) if want_grad else tape.const(classifier.weight)
    bias = tape.leaf(classifier.bias) if want_grad else tape.const(classifier.bias)
    logits = tape.affine(tape.const(_normalized_rows(batch)), weight, bias)
    loss = tape.mean(tape.softmax_ce_rows(logits, batch.domains))
    if not want_grad:
        return float(loss.value), None
    tape.backward(loss)
    return float(loss.value), {"weight": weight.grad, "bias": bias.grad}
