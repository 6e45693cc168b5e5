"""Frozen synthetic two-tower encoder.

A stand-in for a CLIP-style image/text encoder pair that is cheap, fully
deterministic, and differentiable with respect to prompt tokens:

* both towers share one frozen projection matrix ``A`` of shape (d, d),
* the image tower maps a raw d-vector to ``normalize(A @ raw)``,
* the text tower reads the sequence [prompt blocks..., class token]: it
  sums the tokens with frozen per-position scalings ``s``, squashes with
  tanh, projects, and normalizes:
  ``normalize(A @ tanh(sum_m s_m * token_m))``.

Every text embedding comes from one kernel, ``_text_tower``, which maps
pooled token sums to embeddings; its vector-Jacobian product
``_text_tower_vjp`` reuses the forward's intermediates.
``encode_class_texts`` pools the sequence for all classes at once and
returns its saved state next to the embeddings, so
``encode_class_texts_backward`` runs on that state without pooling or
running the tower again.  A bare description or class name is the same
sequence with a one-token block or no block at all.  ``encode_text``
pools a single sequence.

Constants are prepared once, read-only: ``class_term`` validates and
scales the class tokens for their position, and ``pool_prefix`` pools a
frozen leading part of the sequence, which ``encode_class_texts`` adds
as its ``prefix`` without differentiating it.  A zero slot before the
class token adds nothing, so it is neither pooled nor differentiated;
no bit of the result changes.

For token norms well inside tanh's linear regime the text tower is nearly
additive in its tokens, which is what makes style directions in text space
meaningful; the tolerance for that approximation is asserted in the tests.

Parameter generation is part of the external contract and is bit-exact:
each tensor is drawn from a counter-based Philox generator keyed by
SHA-256 of ``(seed, tensor tag)`` (see ``seeding``).  The projection is
uniform on [-1/sqrt(d), 1/sqrt(d)].  The position scalings are uniform on
[0.5, 1.5]: a scaling near zero would annihilate a token position outright
and make text directions degenerate, so the range is kept away from zero.

Nothing in this module is trainable.  Arrays are marked read-only and a
digest of the parameters is exposed so tests can prove the encoder never
changed during a run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ParameterError
from .numerics import Array, as_f64, require_finite
from .seeding import rng

_PROJECTION_TAG = "encoder-projection"
_POSITION_TAG = "encoder-position-scale"


@dataclass(frozen=True)
class EncoderConfig:
    """Dimensions and seeding of the frozen encoder."""

    dim: int = 64
    max_tokens: int = 16
    seed: int = 0
    normalize: bool = True  # the only value; fdgbench's workloads still pass it

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigurationError(f"dim must be at least 2, got {self.dim}")
        if self.max_tokens < 2:
            raise ConfigurationError(f"max_tokens must be at least 2, got {self.max_tokens}")
        if self.normalize is not True:
            raise ConfigurationError(f"normalize must be True, got {self.normalize!r}")


def _frozen(arr: Array) -> Array:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ClassTerm:
    """The class tokens' share of every pooled sum, made once by
    ``FrozenEncoder.class_term``: ``position_scale[position] * class_tokens``,
    validated, one read-only (C, d) row per class."""

    position: int
    scaled: Array


class FrozenEncoder:
    """Deterministic two-tower encoder; see module docstring for the contract."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        d, m, seed = config.dim, config.max_tokens, config.seed
        bound = 1.0 / np.sqrt(d)
        self.projection = _frozen(rng(seed, _PROJECTION_TAG, 0).uniform(-bound, bound, size=(d, d)))
        self.position_scale = _frozen(rng(seed, _POSITION_TAG, 0).uniform(0.5, 1.5, size=m))

    # -- integrity ----------------------------------------------------------

    def parameter_digest(self) -> str:
        """SHA-256 over the raw parameter bytes; stable for a frozen encoder."""
        h = hashlib.sha256()
        h.update(self.projection.tobytes())
        h.update(self.position_scale.tobytes())
        return h.hexdigest()

    # -- image tower --------------------------------------------------------

    def encode_image_batch(self, raws: Array) -> Array:
        """normalize(A @ raw) for each row of (n, d) raws, in one matmul;
        raises on a zero image."""
        v = require_finite(as_f64(raws), "raws")
        if v.ndim != 2 or v.shape[1] != self.config.dim:
            raise ParameterError(f"raw batch must be (n, {self.config.dim}), got {v.shape}")
        y = v @ self.projection.T
        norms = np.linalg.norm(y, axis=1)
        if np.any(norms == 0.0):
            raise DomainError("projected image is the zero vector")
        return y / norms[:, None]

    # -- text tower ---------------------------------------------------------

    def _pool(self, blocks: list[Array], start: int = 0, prefix: Array | None = None) -> Array:
        """``prefix`` (zero by default) plus the position-scaled token sum
        of ``blocks`` placed in order from position ``start``.  A block may
        carry a leading sample axis, (n, L_i, d), and the sum then does too.
        """
        shared = np.zeros(self.config.dim) if prefix is None else prefix
        offset = start
        for b in blocks:
            shared = shared + self.position_scale[offset : offset + b.shape[-2]] @ b
            offset += b.shape[-2]
        return shared

    def _text_tower(self, pooled: Array) -> tuple[Array, tuple]:
        """normalize(A @ tanh(pooled)) over the last axis.

        Returns the embeddings and the intermediates ``_text_tower_vjp``
        reads, so a backward pass never recomputes the forward.  ``pooled``
        must be a fresh array: tanh and the normalization run in place,
        since on a prediction batch each array here is (n, C, d).
        """
        squashed = np.tanh(pooled, out=pooled)
        projected = squashed @ self.projection.T
        norms = np.linalg.norm(projected, axis=-1, keepdims=True)
        if np.any(norms == 0.0):
            raise DomainError("text embedding collapsed to the zero vector")
        projected /= norms
        return projected, (squashed, projected, norms)

    def _text_tower_vjp(self, saved: tuple, upstream: Array) -> Array:
        """Gradient of ``sum(upstream * _text_tower(pooled))`` w.r.t. pooled:

            diag(1 - tanh^2) @ A.T @ J_norm.T @ upstream
        """
        squashed, text, norms = saved
        g = (upstream - text * np.sum(text * upstream, axis=-1, keepdims=True)) / norms
        return (1.0 - squashed * squashed) * (g @ self.projection)

    def class_term(self, class_tokens: Array, position: int) -> ClassTerm:
        """Validate (C, d) class tokens once and scale them for ``position``.

        Non-finite tokens raise ``DomainError``; a wrong shape, or a
        position past the last, raises ``ParameterError``.
        """
        ct = require_finite(as_f64(class_tokens), "class_tokens")
        if ct.ndim != 2 or ct.shape[1] != self.config.dim:
            raise ParameterError("class_tokens must be (C, d)")
        if not 0 <= position < self.config.max_tokens:
            raise ParameterError(f"no token position {position} for the class token")
        return ClassTerm(position, _frozen(self.position_scale[position] * ct))

    def pool_prefix(self, prompt_blocks: list[Array]) -> Array:
        """The validated, read-only position-scaled sum of blocks at the
        leading positions: the ``prefix`` of ``encode_class_texts``."""
        return _frozen(self._pool([require_finite(as_f64(b), "prompt block") for b in prompt_blocks]))

    def encode_class_texts(
        self, prompt_blocks: list[Array], classes: ClassTerm, start: int = 0, prefix: Array | None = None
    ) -> tuple[Array, tuple]:
        """Encode [prefix, prompts..., class_c] for every class c at once.

        ``prompt_blocks`` is a list of (L_i, d) blocks placed in order from
        position ``start``; ``prefix``, from ``pool_prefix``, is the pooled
        sum of the positions before it (zero without one); ``classes``,
        from ``class_term``, holds one token per class at its position,
        and the positions between the last block and it are a zero slot.
        Returns the (C, d) embeddings and the forward's saved state, which
        ``encode_class_texts_backward`` reads.  With no blocks this encodes
        each bare class token; a block or prefix with a leading sample
        axis gives one (C, d) set per sample.
        """
        blocks = [require_finite(as_f64(b), "prompt block") for b in prompt_blocks]
        lengths = tuple(b.shape[-2] for b in blocks)
        if start + sum(lengths) > classes.position:
            raise ParameterError("prompt blocks leave no room for the class token")
        text, saved = self._text_tower(self._pool(blocks, start, prefix)[..., None, :] + classes.scaled)
        return text, (saved, start, lengths)

    def encode_text(self, tokens: Array) -> Array:
        """Encode one sequence of (m, d) tokens, given in position order."""
        t = require_finite(as_f64(tokens), "tokens")
        if t.ndim != 2 or not 1 <= t.shape[0] <= self.config.max_tokens:
            raise ParameterError(f"need 1 to {self.config.max_tokens} tokens as (m, d), got {t.shape}")
        return self._text_tower(self.position_scale[: t.shape[0]] @ t)[0]

    def encode_class_texts_backward(self, state: tuple, upstream: Array) -> list[Array]:
        """VJP of ``encode_class_texts`` w.r.t. each of its prompt blocks;
        a prefix or a zero slot is not differentiated.

        ``state`` is the saved state that forward returned; the backward
        reads its intermediates and recomputes nothing.  ``upstream`` has
        the embeddings' shape, and each gradient has its block's shape.
        """
        saved, offset, lengths = state
        g = require_finite(as_f64(upstream), "upstream")
        if g.shape != saved[0].shape:
            raise ParameterError("upstream gradient has the wrong shape")
        per_shared = self._text_tower_vjp(saved, g).sum(axis=-2)        # (..., d)
        grads = []
        for rows in lengths:
            grads.append(self.position_scale[offset : offset + rows, None] * per_shared[..., None, :])
            offset += rows
        return grads
