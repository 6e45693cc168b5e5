"""Numeric kernels shared by every training path.

* ``softmax``, the one softmax of the package, and ``softmax_ce_cols``,
  the softmax cross-entropy over class-major (..., C, B) logits, clamped
  before the log, that returns its logit gradient alongside the loss,
* SGD and Adam, both with decoupled weight decay (the parameter shrinks
  by ``1 - lr * decay`` outside the gradient term), which reject
  non-finite gradients.  Each steps one array in place and is
  elementwise, so one call steps a whole stack of parameter sets to the
  bits of stepping each on its own.

Training reads its rows and state in ``TRAIN_DTYPE``, float32: stage
one's lockstep transform state and stage two's train stack.  What outlives
a step stays float64: the prompts, the domain head and the wire's
aggregate, and so do the text tower and prediction.  The kernels follow
their inputs' dtype; SGD steps a float64 parameter in place whatever its
gradient's dtype.  A non-finite value raises ``DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError, DomainError, ParameterError

Array = np.ndarray

# Probabilities are clamped here before any log.
PROB_FLOOR = 1e-12
# dtype of the rows and state that training steps read (see above)
TRAIN_DTYPE = np.float32


def as_f64(value) -> Array:
    return np.asarray(value, dtype=np.float64)


def require_finite(value: Array, name: str = "value") -> Array:
    if not np.isfinite(value).all():
        raise DomainError(f"{name} contains a non-finite entry")
    return value


def require_integer(name: str, value) -> None:
    """``ConfigurationError`` naming ``name`` unless ``value`` is an
    integer other than a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def require_finite_fields(config) -> None:
    """``ConfigurationError`` naming a config dataclass field that holds a
    NaN or infinity, or a bool or non-integer in an ``int`` field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int):
            require_integer(f.name, value)
        if isinstance(value, Real) and not math.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# scalar / vector primitives
# ---------------------------------------------------------------------------


def softmax(logits: Array, axis: int) -> Array:
    """Softmax of ``logits`` along ``axis``, in a fresh array: the max is
    subtracted before the exponential, and each entry divided by the sum."""
    p = logits - logits.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


def softmax_ce_cols(logits: Array, labels: Array) -> tuple[Array, Array]:
    """Cross-entropy of the column softmax of class-major (..., C, B) logits.

    Column b of a (C, B) matrix holds the C class logits of row b of a
    batch, and ``labels`` of shape (..., B) gives its class.  Returns
    ``(loss, dlogits)``: the (..., B) losses, each picked probability
    clamped at ``PROB_FLOOR`` before the log, and the gradient of each
    column's loss with respect to its own logits, ``softmax - onehot``,
    shaped like ``logits``, unscaled.  Leading axes stack independent
    batches.  The sum over classes accumulates sequentially in class
    order.

    Labels of a dtype that is not an integer, bool included, or out of
    range raise ``ParameterError``.
    """
    if logits.ndim < 2:
        raise ParameterError("softmax_ce_cols: expected a logit matrix")
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ParameterError(f"softmax_ce_cols: labels must be integers, got dtype {labels.dtype}")
    labels = labels.astype(np.int64, copy=False)
    classes, rows = logits.shape[-2:]
    if labels.shape != logits.shape[:-2] + (rows,):
        raise ParameterError("softmax_ce_cols: one label per column required")
    if labels.size == 0:
        raise ParameterError("softmax_ce_cols: no rows")
    if labels.min() < 0 or labels.max() >= classes:
        raise ParameterError("softmax_ce_cols: label out of range")
    p = softmax(np.ascontiguousarray(logits), -2)  # contiguous, so that its flat view writes into it
    # flat index of entry (..., label, b) of the contiguous p
    stacked = labels.reshape(-1, rows)
    picked = stacked * rows + np.arange(rows)
    picked += np.arange(0, p.size, classes * rows)[:, None]
    flat = p.reshape(-1)
    loss = -np.log(np.maximum(flat[picked], PROB_FLOOR))
    flat[picked] -= 1.0
    return loss.reshape(labels.shape), p


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def sgd_step(param: Array, grad: Array, learning_rate: float, weight_decay: float) -> None:
    """One gradient step with decoupled weight decay, in place:
    ``param * (1 - learning_rate * weight_decay) - learning_rate * grad``.
    Zero decay multiplies by exactly 1.0, so it leaves the plain step's
    bits.  The gradient is checked before anything is written."""
    if param.shape != grad.shape:
        raise ParameterError(f"gradient shape {grad.shape} disagrees with parameter shape {param.shape}")
    require_finite(grad, "grad")
    param *= 1.0 - learning_rate * weight_decay
    param -= learning_rate * grad


# Adam's moment decay rates and denominator offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam with decoupled weight decay.

    The decay is applied multiplicatively to the parameter before the
    bias-corrected moment step, so it never enters the moment estimates.
    The moments are None until ``adam_step`` allocates them on the first
    step; from then on it updates them in place.
    """

    learning_rate: float
    weight_decay: float = 0.0
    step: int = 0
    first_moment: Array | None = None
    second_moment: Array | None = None


def adam_step(state: AdamState, param: Array, grad: Array) -> None:
    """One Adam step, in place: advances ``state`` and overwrites ``param``.

    The update ``lr * m_hat / (sqrt(v_hat) + eps)``, with the bias-corrected
    moments ``m_hat = m / (1 - beta1^t)`` and ``v_hat = v / (1 - beta2^t)``,
    is computed with both corrections folded into scalars (Kingma & Ba,
    arXiv 1412.6980, section 2): ``step * m / (sqrt(v) + eps_hat)`` with
    ``step = lr * sqrt(1 - beta2^t) / (1 - beta1^t)`` and
    ``eps_hat = eps * sqrt(1 - beta2^t)``.  That is the same function, not
    the paper's approximate epsilon, and it needs one division per entry.

    Every operation is elementwise, so a parameter that stacks T parameter
    sets along a leading axis steps each slice exactly as T separate
    optimizers would.  The gradient is checked before anything is written.
    """
    if param.shape != grad.shape:
        raise ParameterError(f"gradient shape {grad.shape} disagrees with parameter shape {param.shape}")
    require_finite(grad, "grad")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    root_correction = math.sqrt(1.0 - b2**state.step)
    step = state.learning_rate * root_correction / (1.0 - b1**state.step)
    epsilon = ADAM_EPSILON * root_correction
    decay = 1.0 - state.learning_rate * state.weight_decay
    if state.first_moment is None:
        state.first_moment, state.second_moment = np.zeros_like(grad), np.zeros_like(grad)
    m, v = state.first_moment, state.second_moment
    tmp = np.empty_like(grad)  # every temporary of the update, in turn
    m *= b1
    np.multiply(grad, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    v += tmp
    np.sqrt(v, out=tmp)
    tmp += epsilon
    np.divide(m, tmp, out=tmp)
    tmp *= step
    param *= decay
    param -= tmp
