"""Output checks run on every cell.

Each check returns a list of failure messages; an empty list is a pass.
Every check is either computed apart from the program (held-out accuracy
from the documented text-tower formula, ledger size from the message
layout) or is a property the method must have (a trained transform beats
its initialization, a trained domain head beats a uniform guess).
"""

from __future__ import annotations

import math

import numpy as np

from fdgbench import tracing, workloads

# Rows whose two best cosines lie closer than this may be classified
# differently by two correct implementations of the same formula.
NEAR_TIE = 1e-9

FLOAT32_BYTES = 4

# The benchmark's stopwatch around a stage and the sum of the self times of
# the spans under it may differ by the wrapper cost of the root span only:
# a share of the stage, plus a floor for stages that take microseconds.
UNATTRIBUTED_SHARE = 0.02
UNATTRIBUTED_FLOOR_S = 1e-3


def reference_predictions(
    embeddings, global_prompt, domain_prompts, head_weight, head_bias,
    class_tokens, projection, position_scale,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class and top-two cosine margin for each row.

    Text tower: ``normalize(A @ tanh(sum_m s_m * token_m))`` over the
    sequence [global prompt, generated domain prompt, class token].  The
    generated prompt blends the domain prompts with the softmax of the
    domain head on the normalized embedding.  The class is the argmax of
    the cosine between the embedding and each class text.
    """
    x = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    head = x @ head_weight.T + head_bias
    head = np.exp(head - head.max(axis=1, keepdims=True))
    blend = head / head.sum(axis=1, keepdims=True)                       # (n, K)
    generated = np.einsum("nk,kld->nld", blend, domain_prompts)           # (n, L, d)
    length = domain_prompts.shape[1]
    pooled = (
        np.einsum("m,md->d", position_scale[:length], global_prompt)[None, :]
        + np.einsum("m,nmd->nd", position_scale[length : 2 * length], generated)
    )
    per_class = pooled[:, None, :] + position_scale[2 * length] * class_tokens[None, :, :]
    text = np.tanh(per_class) @ projection.T                               # (n, C, d)
    text /= np.linalg.norm(text, axis=2, keepdims=True)
    cosines = np.einsum("ncd,nd->nc", text, x)
    top_two = np.sort(cosines, axis=1)[:, -2:]
    return np.argmax(cosines, axis=1), top_two[:, 1] - top_two[:, 0]


def check_accuracy(reported: float, result, split, encoder) -> list[str]:
    """The reported accuracy matches the reference up to near-tied rows,
    and beats chance."""
    test = split.test_set
    predicted, margin = reference_predictions(
        test.embeddings, result.global_prompt, result.domain_prompts,
        result.classifier.weight, result.classifier.bias,
        split.class_tokens, encoder.projection, encoder.position_scale,
    )
    n = len(test)
    reference_correct = int(np.sum(predicted == test.labels))
    reported_correct = reported * n
    ties = int(np.sum(margin < NEAR_TIE))
    failures = []
    if abs(reported_correct - reference_correct) > ties + 1e-6:
        failures.append(
            f"accuracy {reported!r} is {reported_correct:g}/{n} correct; the reference "
            f"formula gives {reference_correct}/{n} with {ties} near-tied rows"
        )
    chance = 1.0 / split.class_tokens.shape[0]
    if not reported > chance:
        failures.append(f"accuracy {reported!r} is not above chance {chance:g}")
    return failures


def expected_ledger(k: int, rounds: int, length: int, dim: int) -> tuple[int, int]:
    """(messages, payload bytes) of one cell with both prompt kinds and the head.

    Each round: K uploads and K broadcast receipts, each carrying an (L, d)
    global prompt and a (K, d) head with its (K,) bias.  Then K domain-prompt
    uploads of (L, d) and K receipts of the (K, L, d) stack.  Float32 on the wire.
    """
    messages = 2 * k * (rounds + 1)
    parameters = rounds * 2 * k * (length * dim + k * dim + k) + k * length * dim + k * k * length * dim
    return messages, FLOAT32_BYTES * parameters


def check_ledger(ledger, k: int, rounds: int, length: int, dim: int) -> list[str]:
    messages, payload = expected_ledger(k, rounds, length, dim)
    failures = []
    if len(ledger.records) != messages:
        failures.append(f"ledger holds {len(ledger.records)} messages, expected {messages}")
    if ledger.total_payload_bytes() != payload:
        failures.append(f"ledger payload is {ledger.total_payload_bytes()} bytes, expected {payload}")
    return failures


def check_encoder(digest_before: str, encoder) -> list[str]:
    after = encoder.parameter_digest()
    if after != digest_before:
        return [f"encoder parameters changed during the cell: {digest_before[:12]} -> {after[:12]}"]
    return []


def check_stage_one(stage_one, split, setup) -> list[str]:
    """Transform count, pool sizes, and that training lowered each loss."""
    from fedstyle.data import TARGET_KEY
    from fedstyle.style_transfer import TransformNetwork, transfer_loss

    k = split.num_clients
    failures = []
    nets = [net for per_client in stage_one.transforms.values() for net in per_client.values()]
    if not setup.toggles.use_style_transfer:
        if nets:
            failures.append(f"{len(nets)} transforms trained with style transfer off")
        for i, client in enumerate(stage_one.clients):
            if len(client.train_pool) != len(split.clients[i]):
                failures.append(f"client {i} pool has {len(client.train_pool)} rows, expected its local set")
        return failures

    if len(nets) != k * (k - 1):
        failures.append(f"{len(nets)} transforms, expected K*(K-1) = {k * (k - 1)}")
    for i, client in enumerate(stage_one.clients):
        if len(client.train_pool) != k * len(client.local_set):
            failures.append(
                f"client {i} pool has {len(client.train_pool)} rows, expected K*|local| = "
                f"{k * len(client.local_set)}"
            )
    dim = setup.encoder.config.dim
    hidden = setup.transfer.hidden_dim(dim)
    for net in nets:
        local = split.clients[net.source]
        target_token = (
            split.target_domain_token if net.target == TARGET_KEY
            else split.source_domain_tokens[net.target]
        )

        def loss(candidate):
            return transfer_loss(
                candidate, local, setup.encoder, split.source_domain_tokens[net.source],
                target_token, split.class_tokens, setup.prompt.temperature,
                setup.transfer.alignment_weight,
            )

        initial = TransformNetwork.init(dim, hidden, net.source, net.target, setup.seed)
        before, after = loss(initial), loss(net)
        if not after < before:
            failures.append(
                f"transform {net.source}->{net.target}: trained loss {after:.6f} is not below "
                f"its initialization's {before:.6f}"
            )
    return failures


def check_domain_head(result, stage_one) -> list[str]:
    """The trained head beats the uniform guess, ln K, on every head pool."""
    from fedstyle.prompts import classifier_loss

    k = result.classifier.num_domains
    failures = []
    for client in stage_one.clients:
        value, _ = classifier_loss(client.head_pool, result.classifier, want_grad=False)
        if not value < math.log(k):
            failures.append(f"domain head loss {value:.6f} on client {client.client_id} is not below ln K")
    return failures


def check_cell(setup, holdout: int, out, digest_before: str) -> list[str]:
    """Every output check of one cell."""
    split = setup.splits[holdout]
    return (
        check_accuracy(out.accuracy, out.result, split, setup.encoder)
        + check_ledger(
            out.result.ledger, split.num_clients, setup.federation.rounds,
            setup.prompt.length, setup.encoder.config.dim,
        )
        + check_encoder(digest_before, setup.encoder)
        + check_stage_one(out.stage_one, split, setup)
        + check_domain_head(out.result, out.stage_one)
    )


def check_trace(tracer, stages: dict, setup, holdout: int, cell: str, stage_s: dict) -> tuple[list[str], int | None]:
    """Traced counts of one cell against their derivation, and each stage's
    wall time against the self times of the spans under it.

    Returns the failures and the traced train-sample count, which is None
    when the spans that count it were not recorded (a function removed).
    """
    failures = []
    stage_one = 0
    if setup.toggles.use_style_transfer:
        stage_one = tracing.rows_under(tracer, cell, "style_transfer.train_transform", ("data.subset",))
    stage_two = tracing.rows_under(
        tracer, cell, "federation.run_protocol",
        ("prompts.global_loss", "prompts.domain_loss", "prompts.classifier_loss"),
    )
    samples = None if stage_one is None or stage_two is None else stage_one + stage_two
    if samples is not None:
        expected = workloads.expected_train_samples(setup, holdout)
        if samples != expected:
            failures.append(f"traced train samples {samples}, derived {expected}")
    if "wire.encode_message" not in tracer.absent:
        encodes = sum(1 for s in tracer.spans if s.cell == cell and s.name == "wire.encode_message")
        expected = workloads.expected_encode_calls(setup, holdout)
        if encodes != expected:
            failures.append(f"traced {encodes} encode_message calls, derived {expected}")
    for stage, wall in stage_s.items():
        name = f"federation.{stage}"
        if name not in stages:
            continue
        attributed = sum(stages[name]["layers"].values())
        if abs(wall - attributed) > UNATTRIBUTED_SHARE * wall + UNATTRIBUTED_FLOOR_S:
            failures.append(f"{name}: spans account for {attributed:.6f} s of {wall:.6f} s")
    return failures, samples
