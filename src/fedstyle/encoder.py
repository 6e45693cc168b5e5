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
pools a single sequence.  With ``normalize=False`` both towers skip the
final normalization.

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

from .errors import DomainError, ParameterError
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
    normalize: bool = True

    def __post_init__(self):
        if self.dim < 2:
            raise ParameterError(f"dim must be at least 2, got {self.dim}")
        if self.max_tokens < 2:
            raise ParameterError(f"max_tokens must be at least 2, got {self.max_tokens}")


def _frozen(arr: Array) -> Array:
    arr.setflags(write=False)
    return arr


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
        if not self.config.normalize:
            return y
        norms = np.linalg.norm(y, axis=1)
        if np.any(norms == 0.0):
            raise DomainError("projected image is the zero vector")
        return y / norms[:, None]

    # -- text tower ---------------------------------------------------------

    def _pool(self, blocks: list[Array], class_tokens: Array) -> Array:
        """Position-scaled token sums of [blocks..., class_c], one per class.

        Blocks take the leading positions in order, the class token the
        next one, and the unused positions are zero padding, which adds
        nothing.  A block may carry a leading sample axis, (n, L_i, d),
        which the sums then carry too: (n, C, d) instead of (C, d).
        """
        shared = np.zeros(self.config.dim)
        offset = 0
        for b in blocks:
            shared = shared + self.position_scale[offset : offset + b.shape[-2]] @ b
            offset += b.shape[-2]
        return shared[..., None, :] + self.position_scale[offset] * class_tokens

    def _text_tower(self, pooled: Array) -> tuple[Array, tuple]:
        """normalize(A @ tanh(pooled)) over the last axis.

        Returns the embeddings and the intermediates ``_text_tower_vjp``
        reads, so a backward pass never recomputes the forward.  ``pooled``
        must be a fresh array: tanh and the normalization run in place,
        since on a prediction batch each array here is (n, C, d).
        """
        squashed = np.tanh(pooled, out=pooled)
        projected = squashed @ self.projection.T
        if not self.config.normalize:
            return projected, (squashed, None, None)
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
        g = upstream
        if text is not None:
            g = (g - text * np.sum(text * g, axis=-1, keepdims=True)) / norms
        return (1.0 - squashed * squashed) * (g @ self.projection)

    def encode_class_texts(
        self, prompt_blocks: list[Array], class_tokens: Array
    ) -> tuple[Array, tuple]:
        """Encode [prompts..., class_c] for every class c at once.

        ``prompt_blocks`` is a list of (L_i, d) blocks occupying the leading
        positions in order; ``class_tokens`` is (C, d) with one row per class
        sitting at the next position.  Returns the (C, d) embeddings, one row
        per class, and the forward's saved state, which
        ``encode_class_texts_backward`` reads.  With no blocks this encodes
        each bare class token; a block with a leading sample axis gives one
        (C, d) set per sample.
        """
        ct = require_finite(as_f64(class_tokens), "class_tokens")
        if ct.ndim != 2 or ct.shape[1] != self.config.dim:
            raise ParameterError("class_tokens must be (C, d)")
        blocks = [require_finite(as_f64(b), "prompt block") for b in prompt_blocks]
        lengths = tuple(b.shape[-2] for b in blocks)
        if sum(lengths) + 1 > self.config.max_tokens:
            raise ParameterError("prompt blocks leave no room for the class token")
        text, saved = self._text_tower(self._pool(blocks, ct))
        return text, (saved, lengths)

    def encode_text(self, tokens: Array) -> Array:
        """Encode one sequence of (m, d) tokens, given in position order."""
        t = require_finite(as_f64(tokens), "tokens")
        if t.ndim != 2 or not 1 <= t.shape[0] <= self.config.max_tokens:
            raise ParameterError(f"need 1 to {self.config.max_tokens} tokens as (m, d), got {t.shape}")
        return self._text_tower(self.position_scale[: t.shape[0]] @ t)[0]

    def encode_class_texts_backward(self, state: tuple, upstream: Array) -> list[Array]:
        """VJP of ``encode_class_texts`` w.r.t. each prompt block.

        ``state`` is the saved state that forward returned; the backward
        reads its intermediates and recomputes nothing.  ``upstream`` has
        the embeddings' shape, and each gradient has its block's shape.
        """
        saved, lengths = state
        g = require_finite(as_f64(upstream), "upstream")
        if g.shape != saved[0].shape:
            raise ParameterError("upstream gradient has the wrong shape")
        per_shared = self._text_tower_vjp(saved, g).sum(axis=-2)        # (..., d)
        grads = []
        offset = 0
        for rows in lengths:
            grads.append(self.position_scale[offset : offset + rows, None] * per_shared[..., None, :])
            offset += rows
        return grads
