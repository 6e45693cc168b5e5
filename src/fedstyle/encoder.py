"""Frozen synthetic two-tower encoder.

A deterministic stand-in for a CLIP-style image/text encoder pair,
differentiable with respect to prompt tokens:

* both towers share one frozen projection matrix ``A`` of shape (d, d),
* the image tower maps a raw d-vector to ``normalize(A @ raw)``,
* the text tower reads the sequence [prefix, prompt block, class token]:
  it sums the tokens with frozen per-position scalings ``s``, squashes
  with tanh, projects, and normalizes:
  ``normalize(A @ tanh(sum_m s_m * token_m))``.

Every text embedding comes from ``_text_tower``, which maps pooled token
sums to embeddings; ``_text_tower_vjp`` is its vector-Jacobian product
from the forward's intermediates.  ``encode_class_texts`` encodes the
sequence for all classes at once from one trainable block, and
``encode_class_texts_backward`` gives that block's gradient.  The prefix
is a frozen leading part of the sequence, pooled once by ``pool_prefix``
and not differentiated; ``class_term`` validates the class tokens and
scales them for their position once.  Positions left empty before the
class token are a zero slot, which adds nothing and is not pooled.

Parameters are bit-exact functions of the seed: each tensor is drawn from
a counter-based Philox generator keyed by SHA-256 of ``(seed, tensor
tag)`` (see ``seeding``).  The projection is uniform on [-1/sqrt(d),
1/sqrt(d)] and the position scalings on [0.5, 1.5].  Every parameter
array is read-only, and ``parameter_digest`` hashes them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ParameterError
from .numerics import Array, as_f64, require_finite, require_finite_fields
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
        require_finite_fields(self)
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
        # A.T, C-contiguous: the right-hand operand of the text tower's product
        self._projection_t = _frozen(np.ascontiguousarray(self.projection.T))

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

    def _pool(self, block: Array | None, start: int = 0, prefix: Array | None = None) -> Array:
        """``prefix`` (zero by default) plus the position-scaled token sum
        of ``block`` placed from position ``start``.  The block may carry
        a leading sample axis, (n, L, d), and the sum then does too.
        """
        if block is None:
            return np.zeros(self.config.dim) if prefix is None else prefix
        pooled = self.position_scale[start : start + block.shape[-2]] @ block
        return pooled if prefix is None else prefix + pooled

    def _text_tower(self, pooled: Array) -> tuple[Array, tuple]:
        """normalize(A @ tanh(pooled)) over the last axis, and the
        intermediates ``_text_tower_vjp`` reads.  ``pooled`` must be a
        fresh array: tanh and the normalization overwrite it.  A zero
        embedding raises ``DomainError``.
        """
        squashed = np.tanh(pooled, out=pooled)
        projected = squashed @ self._projection_t
        norms = np.sqrt(np.add.reduce(projected * projected, axis=-1, keepdims=True))
        if np.any(norms == 0.0):
            raise DomainError("text embedding collapsed to the zero vector")
        projected /= norms
        return projected, (squashed, projected, norms)

    def _text_tower_vjp(self, saved: tuple, upstream: Array) -> Array:
        """Gradient of ``sum(upstream * _text_tower(pooled))`` w.r.t. pooled,
        ``(1 - t^2) * (((u - e * sum(e * u)) / n) @ A)`` with t the squashed
        sum, e the embedding and n its norm.  ``upstream`` must be a fresh
        array: it is overwritten.
        """
        squashed, text, norms = saved
        dots = np.add.reduce(text * upstream, axis=-1, keepdims=True)
        upstream -= text * dots
        upstream /= norms
        grad = upstream @ self.projection
        slope = squashed * squashed
        np.subtract(1.0, slope, out=slope)
        grad *= slope
        return grad

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

    def pool_prefix(self, block: Array) -> Array:
        """The validated, read-only position-scaled sum of ``block`` at the
        leading positions: the ``prefix`` of ``encode_class_texts``."""
        return _frozen(self._pool(require_finite(as_f64(block), "prompt block")))

    def encode_class_texts(
        self, block: Array | None, classes: ClassTerm, start: int = 0, prefix: Array | None = None
    ) -> tuple[Array, tuple]:
        """Encode [prefix, block, class_c] for every class c at once.

        ``block`` is an (L, d) prompt block placed from position ``start``,
        or None for none; ``prefix``, from ``pool_prefix``, is the pooled
        sum of the positions before it (zero without one); ``classes``,
        from ``class_term``, holds one token per class at its position,
        and the positions between the block and it are a zero slot.
        Returns the (C, d) embeddings and the forward's saved state, which
        ``encode_class_texts_backward`` reads.  Without a block or prefix
        this encodes each bare class token; a block or prefix with a
        leading sample axis gives one (C, d) set per sample.
        """
        if block is not None:
            block = require_finite(as_f64(block), "prompt block")
        rows = 0 if block is None else block.shape[-2]
        if start + rows > classes.position:
            raise ParameterError("the prompt block leaves no room for the class token")
        text, saved = self._text_tower(self._pool(block, start, prefix)[..., None, :] + classes.scaled)
        return text, (saved, start, rows)

    def encode_text(self, tokens: Array) -> Array:
        """Encode one sequence of (m, d) tokens, given in position order."""
        t = require_finite(as_f64(tokens), "tokens")
        if t.ndim != 2 or not 1 <= t.shape[0] <= self.config.max_tokens:
            raise ParameterError(f"need 1 to {self.config.max_tokens} tokens as (m, d), got {t.shape}")
        return self._text_tower(self.position_scale[: t.shape[0]] @ t)[0]

    def encode_class_texts_backward(self, state: tuple, upstream: Array) -> Array:
        """VJP of ``encode_class_texts`` w.r.t. its prompt block; a prefix
        or a zero slot is not differentiated.

        ``state`` is the saved state that forward returned.  ``upstream``,
        of any float dtype, has the embeddings' shape and is left as it
        is; the float64 gradient has the block's shape.  A non-finite
        upstream raises ``DomainError``, a wrong shape ``ParameterError``.
        """
        saved, start, rows = state
        g = require_finite(np.array(upstream, dtype=np.float64), "upstream")
        if g.shape != saved[0].shape:
            raise ParameterError("upstream gradient has the wrong shape")
        per_shared = self._text_tower_vjp(saved, g).sum(axis=-2)        # (..., d)
        return self.position_scale[start : start + rows, None] * per_shared[..., None, :]
