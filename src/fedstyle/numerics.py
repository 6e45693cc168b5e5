"""Numeric kernels shared by every training path.

Three groups of things live here:

* ``softmax_ce_cols``, the softmax cross-entropy over class-major
  (..., C, B) logits, clamped before the log, that returns its logit
  gradient alongside the loss.  Every training loss in the package ends
  in it and writes the rest of its backward pass in closed form next to
  its forward pass,
* SGD and Adam, both with decoupled weight decay (the parameter shrinks
  by ``1 - lr * decay`` outside the gradient term), which reject
  non-finite gradients.  SGD returns fresh arrays; Adam updates its
  moments and the parameters in place.  Both are elementwise, so one call
  steps a whole stack of parameter sets,
* a central finite-difference gradient checker, the test suite's oracle
  for every closed-form gradient.

Everything is float64.  Inputs are validated once at the boundary; a
non-finite value raises ``DomainError`` instead of propagating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError

Array = np.ndarray

# Probabilities are clamped here before any log.
PROB_FLOOR = 1e-12

# Relative-error denominators are floored so finite-difference roundoff on
# near-zero coordinates does not dominate the ratio.
REL_ERR_FLOOR = 1e-3


def as_f64(value) -> Array:
    return np.asarray(value, dtype=np.float64)


def require_finite(value: Array, name: str = "value") -> Array:
    if not np.isfinite(value).all():
        raise DomainError(f"{name} contains a non-finite entry")
    return value


# ---------------------------------------------------------------------------
# scalar / vector primitives
# ---------------------------------------------------------------------------


def softmax_ce_cols(logits: Array, labels: Array) -> tuple[Array, Array]:
    """Cross-entropy of the column softmax of class-major (..., C, B) logits.

    Column b of a (C, B) matrix holds the C class logits of row b of a
    batch, and ``labels`` of shape (..., B) gives its class.  Returns
    ``(loss, dlogits)``: the (..., B) losses, each picked probability
    clamped at ``PROB_FLOOR`` before the log, and the gradient of each
    column's loss with respect to its own logits, ``softmax - onehot``,
    shaped like ``logits``.  Leading axes stack independent batches.  Every
    loss in the package scales ``dlogits`` by its upstream weight.

    The class axis is second to last so that the max and the sum over
    classes are vector operations across all B rows at once; a trailing
    class axis would be reduced one short row at a time.  The sum over
    classes therefore accumulates sequentially in class order.
    """
    if logits.ndim < 2:
        raise ParameterError("softmax_ce_cols: expected a logit matrix")
    labels = np.asarray(labels, dtype=np.int64)
    classes, rows = logits.shape[-2:]
    if labels.shape != logits.shape[:-2] + (rows,):
        raise ParameterError("softmax_ce_cols: one label per column required")
    if labels.size == 0:
        raise ParameterError("softmax_ce_cols: no rows")
    if labels.min() < 0 or labels.max() >= classes:
        raise ParameterError("softmax_ce_cols: label out of range")
    logits = np.ascontiguousarray(logits)  # so that p's flat view below writes into p
    p = logits - logits.max(axis=-2, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-2, keepdims=True)
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


def _check_param_grads(params: dict[str, Array], grads: dict[str, Array]) -> None:
    if set(params) != set(grads):
        raise ParameterError(f"param/grad key mismatch: {sorted(params)} vs {sorted(grads)}")
    for name in params:
        if params[name].shape != grads[name].shape:
            raise ParameterError(f"shape mismatch for {name}")
        require_finite(grads[name], f"grad[{name}]")


def sgd_step(
    params: dict[str, Array], grads: dict[str, Array], learning_rate: float, weight_decay: float
) -> dict[str, Array]:
    """One gradient step with decoupled weight decay,
    ``p * (1 - learning_rate * weight_decay) - learning_rate * g``; returns
    a fresh parameter dict.  Zero decay multiplies by exactly 1.0, so it
    leaves the plain step's bits."""
    _check_param_grads(params, grads)
    decay = 1.0 - learning_rate * weight_decay
    return {name: params[name] * decay - learning_rate * grads[name] for name in params}


@dataclass
class AdamState:
    """Adam with decoupled weight decay.

    The decay is applied multiplicatively to the parameter before the
    bias-corrected moment step, so it never enters the moment estimates.
    ``adam_step`` allocates the moments on the first step and from then on
    updates them in place.
    """

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    first_moment: dict[str, Array] = field(default_factory=dict)
    second_moment: dict[str, Array] = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, Array], grads: dict[str, Array]) -> None:
    """One Adam step, in place: advances ``state`` and overwrites every
    array of ``params``.

    Every operation is elementwise, so a parameter that stacks T parameter
    sets along a leading axis steps each slice exactly as T separate
    optimizers would.  Gradients are checked before anything is written.
    """
    _check_param_grads(params, grads)
    state.step += 1
    lr, b1, b2 = state.learning_rate, state.beta1, state.beta2
    first_correction = 1.0 - b1**state.step
    second_correction = 1.0 - b2**state.step
    decay = 1.0 - lr * state.weight_decay
    for name, g in grads.items():
        if name not in state.first_moment:
            state.first_moment[name] = np.zeros_like(g)
            state.second_moment[name] = np.zeros_like(g)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = m / first_correction
        update *= lr
        denominator = v / second_correction
        np.sqrt(denominator, out=denominator)
        denominator += state.epsilon
        update /= denominator
        param = params[name]
        param *= decay
        param -= update


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def format(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(
                f"{e.name}: max rel err {e.max_rel_error:.3e} at {e.worst_index} "
                f"(analytic {e.analytic:.6e}, numeric {e.numeric:.6e})"
            )
        verdict = "OK" if self.passed else "FAIL"
        lines.append(f"overall {self.max_rel_error:.3e} vs tolerance {self.tolerance:.1e}: {verdict}")
        return "\n".join(lines)


def grad_check(
    loss_fn: Callable[[dict[str, Array]], tuple[float, dict[str, Array]]],
    params: dict[str, Array],
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` maps a parameter dict to ``(loss, grads)``.  Every coordinate
    of every parameter is perturbed by ±``step``; the relative error uses a
    denominator floored at ``REL_ERR_FLOOR`` (see module docstring).
    """
    if step <= 0:
        raise ParameterError("step must be positive")
    _, analytic = loss_fn(params)
    _check_param_grads(params, analytic)
    entries = []
    for name in sorted(params):
        base = params[name]
        worst = (0.0, (), 0.0, 0.0)
        for index in np.ndindex(base.shape if base.shape else (1,)):
            idx = index if base.shape else ()
            plus = {k: v.copy() for k, v in params.items()}
            minus = {k: v.copy() for k, v in params.items()}
            plus[name][idx] += step
            minus[name][idx] -= step
            f_plus, _ = loss_fn(plus)
            f_minus, _ = loss_fn(minus)
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic[name][idx])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), REL_ERR_FLOOR)
            if rel > worst[0]:
                worst = (rel, idx, a, numeric)
        entries.append(GradCheckEntry(name, worst[0], worst[1], worst[2], worst[3]))
    return GradCheckReport(entries=entries, tolerance=tolerance)
