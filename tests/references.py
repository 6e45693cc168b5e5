"""Test-only reference formulas for stage one.

``normalized_objective`` is the transfer objective written on unit rows:
it forms ``delta / |delta|`` and the normalized moved rows and
backpropagates through each normalization.  ``textbook_adam_step`` is Adam
with the bias-corrected moments formed explicitly.  The package computes
both functions in another order (cosines on unnormalized rows, bias
corrections folded into scalars); the tests hold the two to 1e-12
relative.  Both take the package functions' arguments, so a test can
substitute them for ``style_transfer._stacked_objective`` and
``style_transfer.adam_step``.
"""

from __future__ import annotations

import numpy as np

from fedstyle.numerics import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, softmax_ce_cols
from fedstyle.style_transfer import _row_dots, _transform_forward


def normalized_objective(
    params, z, labels, directions, class_text, temperature, alignment_weight, pairs, stack, out=None, work=None
):
    """(total, alignment mean, consistency mean, grads) of T stacked
    transforms; no input checks.  The grads are copied into ``out`` when
    given; ``work`` is accepted and unused."""
    rows = z.shape[1]
    hidden, delta = _transform_forward(params, z)
    ddelta = 0.0
    align = cons = np.zeros(len(pairs))
    if alignment_weight > 0.0:
        norms = np.sqrt(_row_dots(delta, delta))
        unit = delta / norms[..., None]
        per_class = directions[stack, labels]
        align = (1.0 - _row_dots(unit, per_class)).mean(axis=1)
        dunit = -(alignment_weight / rows) * per_class
        ddelta = ddelta + (dunit - unit * _row_dots(unit, dunit)[..., None]) / norms[..., None]
    if alignment_weight < 1.0:
        moved = z + delta
        norms = np.sqrt(_row_dots(moved, moved))
        moved = moved / norms[..., None]
        logits = (1.0 / temperature) * (class_text @ np.swapaxes(moved, 1, 2))
        per_row, dlogits = softmax_ce_cols(logits, labels)
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
    if out is not None:
        for name, grad in grads.items():
            out[name][...] = grad
        grads = out
    return total, align, cons, grads


def textbook_adam_step(state, params, grads):
    """``p * (1 - lr * wd) - lr * m_hat / (sqrt(v_hat) + eps)`` in place, with
    ``m_hat = m / (1 - beta1^t)`` and ``v_hat = v / (1 - beta2^t)``."""
    state.step += 1
    lr, b1, b2, t = state.learning_rate, ADAM_BETA1, ADAM_BETA2, state.step
    for name, g in grads.items():
        m = state.first_moment.setdefault(name, np.zeros_like(g))
        v = state.second_moment.setdefault(name, np.zeros_like(g))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        params[name] *= 1.0 - lr * state.weight_decay
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
