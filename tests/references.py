"""Test-only reference formulas for stage one and stage two.

``normalized_objective`` is the transfer objective written on unit rows:
it forms ``delta / |delta|`` and the normalized moved rows and
backpropagates through each normalization.  ``textbook_adam_step`` is Adam
on one array with the bias-corrected moments formed explicitly.  The
package computes both functions in another order (cosines on unnormalized
rows, bias corrections folded into scalars); the tests hold the two to
1e-12 relative.  Both take the package functions' arguments, so a test can
substitute them for ``style_transfer._stacked_objective`` and
``style_transfer.adam_step``.

``every_block_texts`` encodes [blocks..., class token] by pooling every
block from position 0 on the call, a zero block included, and
differentiates each block.  ``per_call_global_loss`` and
``per_call_domain_loss`` are the stage-two losses formulated on it: they
validate and scale the raw class tokens and pool both slots of [global
slot, domain slot, class token] on each call, with the package's scalar
placement (1/T on the class text, 1/(B T) on the text gradient).  ``two_slot_probabilities``
is prediction formulated on it: every 256-row block pools [global prompt
or zero, generated prompt or zero].  All of them, and
``class_major_classifier_loss``, score class-major, with the rows as the
right operand (``class_major_scores``: a batch's column copy, or else its
transposed rows).  The package prepares those constants once, encodes one
block after a pooled prefix, skips a zero slot and scores a batch without
a column copy as ``rows @ weightsᵀ``; the tests hold the two to the bit.

``bank_then_prepare_pools`` assembles stage one's pools the way the
package once did: a separate (T, n, d) bank of every job's copies, then
per client one normalization of its local set and another of its block
of copies.  ``run_stage_one`` writes the copies straight into the train
stack and normalizes each client's pool there in one call; the tests hold
the two to the bit.  Both round to ``numerics.TRAIN_DTYPE`` in the same
order: each copy's correction when it is written, the copy when its
local row is added, each local row when it is written, and the
normalization runs in that dtype.  ``unit_batch`` is a labeled batch as
the losses take it, rounded to a given dtype and normalized in it.
``train_in_float64`` sets ``TRAIN_DTYPE`` to float64 for one test, the
path on which training ran in float64 throughout.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from fedstyle import numerics
from fedstyle.data import TARGET_KEY
from fedstyle.numerics import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, as_f64, require_finite, softmax_ce_cols
from fedstyle.prompts import UnitRows, _normalized_rows
from fedstyle.style_transfer import _row_dots, _transform_forward


def normalized_objective(
    params, z, labels, directions, class_text, temperature, alignment_weight, pairs, stack, out=None
):
    """(total, alignment mean, consistency mean, grads) of T stacked
    transforms; no input checks.  The grads are copied into ``out`` when
    given."""
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


def textbook_adam_step(state, param, grad):
    """``p * (1 - lr * wd) - lr * m_hat / (sqrt(v_hat) + eps)`` in place, with
    ``m_hat = m / (1 - beta1^t)`` and ``v_hat = v / (1 - beta2^t)``."""
    state.step += 1
    lr, b1, b2, t = state.learning_rate, ADAM_BETA1, ADAM_BETA2, state.step
    if state.first_moment is None:
        state.first_moment, state.second_moment = np.zeros_like(grad), np.zeros_like(grad)
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    param *= 1.0 - lr * state.weight_decay
    param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def every_block_texts(encoder, blocks, class_tokens):
    """(text, backward) of [blocks..., class token], every block pooled in
    order from position 0 on the call and the class token right after
    them; ``backward(upstream)`` is the list of each block's gradient."""
    ct = require_finite(as_f64(class_tokens), "class_tokens")
    scale = encoder.position_scale
    shared, offset, offsets = np.zeros(encoder.config.dim), 0, []
    for block in blocks:
        offsets.append(offset)
        shared = shared + scale[offset : offset + block.shape[-2]] @ block
        offset += block.shape[-2]
    text, saved = encoder._text_tower(shared[..., None, :] + scale[offset] * ct)

    def backward(upstream):
        per_shared = encoder._text_tower_vjp(saved, np.array(upstream, dtype=np.float64)).sum(axis=-2)
        return [scale[o : o + b.shape[-2], None] * per_shared[..., None, :] for o, b in zip(offsets, blocks)]

    return text, backward


def class_major_scores(batch, weights):
    """(..., C, B) scores ``weights @`` the batch's column copy, or else
    ``weights @`` its transposed rows: the class-major product with the
    rows as its right operand."""
    columns = np.swapaxes(batch.rows, -1, -2) if batch.column_copy is None else batch.column_copy
    return weights @ columns


def class_major_classifier_loss(batch, classifier):
    """(loss, grads) of ``classifier_loss`` on ``class_major_scores``: the
    logits plus the bias, the weight gradient ``dlogits @ rows`` and the
    bias gradient each multiplied by 1/B after its reduction."""
    dtype, rows = batch.rows.dtype, batch.rows.shape[-2]
    logits = class_major_scores(batch, classifier.weight.astype(dtype))
    logits += classifier.bias.astype(dtype)[..., :, None]
    per_row, dlogits = softmax_ce_cols(logits, batch.domains)
    weight, bias = dlogits @ batch.rows, np.add.reduce(dlogits, axis=-1)
    weight *= 1.0 / rows
    bias *= 1.0 / rows
    return np.add.reduce(per_row, axis=-1) / rows, {"weight": weight, "bias": bias}


def _per_call_classification(batch, blocks, slot, encoder, class_tokens, temperature):
    """Mean cross-entropy over [blocks..., class token] and its gradient
    with respect to ``blocks[slot]``, pooling every block on the call."""
    text, backward = every_block_texts(encoder, blocks, class_tokens)
    rows = batch.rows.shape[-2]
    scaled = (text * (1.0 / temperature)).astype(batch.rows.dtype)
    per_row, dlogits = softmax_ce_cols(class_major_scores(batch, scaled), batch.labels)
    dtext = dlogits @ batch.rows
    dtext *= 1.0 / (rows * temperature)
    return per_row.sum(axis=-1) / rows, backward(dtext)[slot]


def two_slot_probabilities(embeddings, global_prompt, domain_prompts, classifier, class_tokens, encoder, temperature):
    """``predict_unseen_batch`` pooling both slots from position 0 for each
    256-row block: the global prompt or a zero block, then the generated
    prompts or a zero block; no input checks."""
    xn = _normalized_rows(as_f64(embeddings))
    shape = np.shape(global_prompt) if domain_prompts is None else np.shape(domain_prompts)[1:]
    global_slot = np.zeros(shape) if global_prompt is None else global_prompt
    probs = np.empty((len(xn), len(class_tokens)))
    for start in range(0, len(xn), 256):
        rows = xn[start : start + 256]
        generated = np.zeros(shape)
        if domain_prompts is not None:
            logits = classifier.weight @ rows.T + classifier.bias[:, None]
            e = np.exp(logits - logits.max(axis=0))
            weights = e / e.sum(axis=0)
            generated = np.zeros((len(rows),) + shape)
            for k in range(len(domain_prompts)):
                generated += weights[k][:, None, None] * domain_prompts[k][None, :, :]
        text, _ = every_block_texts(encoder, [global_slot, generated], class_tokens)
        z = np.einsum("...cd,...d->...c", text, rows) / temperature
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs[start : start + len(rows)] = e / e.sum(axis=1, keepdims=True)
    return probs


def per_call_global_loss(batch, global_prompt, encoder, class_tokens, temperature):
    """(losses, grads) of ``global_loss`` with a pooled zero domain slot."""
    return _per_call_classification(
        batch, [global_prompt, np.zeros(np.shape(global_prompt))], 0, encoder, class_tokens, temperature
    )


def per_call_domain_loss(batch, domain_prompt, global_prompt, encoder, class_tokens, temperature):
    """(losses, grads) of ``domain_loss`` from the raw global prompt (None:
    a pooled zero slot)."""
    global_slot = np.zeros(np.shape(domain_prompt)) if global_prompt is None else global_prompt
    return _per_call_classification(batch, [global_slot, domain_prompt], 1, encoder, class_tokens, temperature)


def unit_batch(batch, dtype=np.float64):
    """``UnitRows`` of a ``LabeledEmbeddings``: its rows rounded to
    ``dtype`` and normalized in it, its labels and domains as they are."""
    return UnitRows(_normalized_rows(batch.embeddings.astype(dtype)), batch.labels, batch.domains)


def train_in_float64(monkeypatch):
    """``TRAIN_DTYPE`` set to float64 in every package module that reads it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("fedstyle") and hasattr(module, "TRAIN_DTYPE"):
            monkeypatch.setattr(module, "TRAIN_DTYPE", np.float64)


def bank_then_prepare_pools(split, result, include_target_description):
    """(train, head) stacks of ``run_stage_one`` for the split's trained
    transforms ``result``: the bank, then two normalizations per client,
    all in ``numerics.TRAIN_DTYPE``."""
    k, (n, dim), dtype = split.num_clients, split.clients[0].embeddings.shape, numerics.TRAIN_DTYPE
    jobs = result.jobs
    copies, stop = np.empty((len(jobs), n, dim), dtype=dtype), 0
    for _, run in itertools.groupby(jobs, key=lambda job: id(job.dataset)):
        start, stop = stop, stop + len(list(run))
        z = jobs[start].dataset.embeddings
        block = {name: p[start:stop] for name, p in result.params.items()}
        _transform_forward(block, z, out=(None, copies[start:stop]))
        copies[start:stop] += z
    styled = len(jobs) // k
    labels = np.empty((k, n * (1 + styled)), dtype=np.int64)
    train = UnitRows(np.empty((k, n * (1 + styled), dim), dtype=dtype), labels, np.empty_like(labels))
    for i, local in enumerate(split.clients):
        own = slice(i * styled, (i + 1) * styled)
        train.rows[i, :n] = local.embeddings
        _normalized_rows(train.rows[i, :n], out=train.rows[i, :n])
        _normalized_rows(copies[own].reshape(-1, dim), out=train.rows[i, n:])
        train.labels[i] = np.tile(local.labels, 1 + styled)
        train.domains[i, :n] = local.domains
        train.domains[i, n:] = np.repeat([job.target for job in jobs[own]], n)
    head = train
    if include_target_description:
        head = train.select(np.s_[:, np.flatnonzero(train.domains[0] != TARGET_KEY)])
    return train, head
