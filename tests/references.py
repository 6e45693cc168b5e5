"""Test-only reference formulas for stage one and stage two.

``normalized_objective`` is the transfer objective written on unit rows:
it forms ``delta / |delta|`` and the normalized moved rows and
backpropagates through each normalization.  ``textbook_adam_step`` is Adam
with the bias-corrected moments formed explicitly.  The package computes
both functions in another order (cosines on unnormalized rows, bias
corrections folded into scalars); the tests hold the two to 1e-12
relative.  Both take the package functions' arguments, so a test can
substitute them for ``style_transfer._stacked_objective`` and
``style_transfer.adam_step``.

``per_call_global_loss`` and ``per_call_domain_loss`` are the stage-two
losses as formulated per call: they validate and scale the raw class
tokens, pool every block of [global slot, domain slot, class token]
(a zero slot included), differentiate both slots and normalize both
contrast anchors on each call.  The package prepares those constants once
and skips the zero slot; the tests hold the two to the bit.
"""

from __future__ import annotations

import numpy as np

from fedstyle.errors import DomainError
from fedstyle.numerics import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, as_f64, require_finite, softmax_ce_cols
from fedstyle.prompts import CONTRAST_NORM_FLOOR, _dot
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


def _per_call_classification(batch, blocks, slot, encoder, class_tokens, temperature):
    """Mean cross-entropy over [blocks..., class token] and its gradient
    with respect to ``blocks[slot]``, pooling every block on the call."""
    ct = require_finite(as_f64(class_tokens), "class_tokens")
    scale = encoder.position_scale
    shared, offset, offsets = np.zeros(encoder.config.dim), 0, []
    for block in blocks:
        offsets.append(offset)
        shared = shared + scale[offset : offset + block.shape[-2]] @ block
        offset += block.shape[-2]
    text, saved = encoder._text_tower(shared[..., None, :] + scale[offset] * ct)
    logits = text @ batch.columns()
    logits *= 1.0 / temperature
    per_row, dlogits = softmax_ce_cols(logits, batch.labels)
    dlogits *= 1.0 / batch.rows.shape[-2]
    dlogits *= 1.0 / temperature
    per_shared = encoder._text_tower_vjp(saved, dlogits @ batch.rows).sum(axis=-2)
    grads = [scale[o : o + b.shape[-2], None] * per_shared[..., None, :] for o, b in zip(offsets, blocks)]
    return per_row.mean(axis=-1), grads[slot]


def _per_call_unit(x, what):
    v = require_finite(as_f64(x), what)
    n = np.sqrt(_dot(v, v))[..., None]
    if np.any(n == 0.0):
        raise DomainError(f"{what} is the zero vector")
    return v / n


def per_call_global_loss(batch, global_prompt, encoder, class_tokens, temperature):
    """(losses, grads) of ``global_loss`` with a pooled zero domain slot."""
    return _per_call_classification(
        batch, [global_prompt, np.zeros(np.shape(global_prompt))], 0, encoder, class_tokens, temperature
    )


def per_call_domain_loss(batch, domain_prompt, global_prompt, encoder, class_tokens, own_description, temperature):
    """(totals, grads) of ``domain_loss`` from the raw global prompt (None:
    a pooled zero slot) and the raw own description (None: no contrastive
    term), both anchors normalized on the call."""
    global_slot = np.zeros(np.shape(domain_prompt)) if global_prompt is None else global_prompt
    total, grad = _per_call_classification(
        batch, [global_slot, domain_prompt], 1, encoder, class_tokens, temperature
    )
    if own_description is None:
        return total, grad
    pooled = as_f64(domain_prompt).mean(axis=-2)
    norm = np.sqrt(_dot(pooled, pooled))[..., None]
    exact = norm >= CONTRAST_NORM_FLOOR
    direction = np.where(exact, pooled / np.where(exact, norm, 1.0), (1.0 / CONTRAST_NORM_FLOOR) * pooled)
    own = _per_call_unit(own_description, "own description embedding")
    anchor = _per_call_unit(as_f64(global_prompt).mean(axis=-2), "pooled global prompt")
    sims = np.stack([_dot(direction, own), _dot(direction, anchor)], axis=-1)
    con, dsims = softmax_ce_cols(sims[..., :, None], np.zeros(sims.shape[:-1] + (1,), dtype=np.int64))
    ddirection = dsims[..., 0:1, 0] * own + dsims[..., 1:2, 0] * anchor
    along = direction * _dot(direction, ddirection)[..., None]
    dpooled = np.where(
        exact, (ddirection - along) / np.where(exact, norm, 1.0), (1.0 / CONTRAST_NORM_FLOOR) * ddirection
    )
    return total + con[..., 0], dpooled[..., None, :] / np.shape(domain_prompt)[-2] + grad
