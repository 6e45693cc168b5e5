"""Prompt tests: prediction-path oracles, loss values rebuilt from the
public primitives, closed-form gradients vs finite differences, and the exactness
guarantees of the domain-prompt blend.

``predict_unseen_batch`` is the only prediction path, so the blend and the
domain head are checked through it, one embedding at a time: a blend is
pinned by comparing with a one-prompt stack holding the expected prompt
under a one-domain head, whose only weight is exactly one."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedstyle.data import LabeledEmbeddings
from fedstyle.encoder import EncoderConfig, FrozenEncoder
from fedstyle.errors import ConfigurationError, DomainError, ParameterError
from fedstyle import prompts
from fedstyle.numerics import PROB_FLOOR
from fedstyle.prompts import (
    DomainClassifier,
    PromptConfig,
    UnitRows,
    classifier_loss,
    domain_loss,
    global_loss,
    init_prompt,
    predict_unseen_batch,
)
from gradcheck import grad_check
from references import (
    class_major_classifier_loss,
    every_block_texts,
    per_call_domain_loss,
    per_call_global_loss,
    two_slot_probabilities,
    unit_batch,
)
from fedstyle.seeding import rng

DIM = 8
TAU = 0.05
# a small seeded prompt start, pinned by keyword
_INIT = dict(temperature=0.01, init_scale=1e-3)


def _softmax(z, temperature):
    # test oracle: temperature softmax of one logit vector
    e = np.exp((z - np.max(z)) / temperature)
    return e / e.sum()


def _encoder(dim=DIM, max_tokens=12, seed=3):
    return FrozenEncoder(EncoderConfig(dim=dim, max_tokens=max_tokens, seed=seed))


def _unit_rows(generator, n, dim):
    raw = generator.normal(size=(n, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _raw_batch(n=6, classes=3, dim=DIM, seed=11, domains=2):
    g = rng(seed, "prompt-test-batch")
    return LabeledEmbeddings(
        embeddings=_unit_rows(g, n, dim),
        labels=g.integers(0, classes, size=n),
        domains=g.integers(0, domains, size=n),
    )


def _batch(n=6, classes=3, dim=DIM, seed=11, domains=2):
    # the losses' batch type: unit rows, as stage one normalizes its pools
    return unit_batch(_raw_batch(n, classes, dim, seed, domains))


def _class_tokens(classes=3, dim=DIM, seed=12):
    return rng(seed, "prompt-test-tokens").normal(size=(classes, dim)) * 0.05


def _classes(enc, ct, length=2):
    # the class term as run_protocol prepares it: after both prompt slots
    return enc.class_term(ct, 2 * length)


def _domain_loss(batch, dp, gp, enc, ct, temperature, want_grad=True):
    # domain_loss on a pass's constants prepared as run_protocol prepares them
    slot = None if gp is None else enc.pool_prefix(gp)
    return domain_loss(batch, dp, slot, enc, _classes(enc, ct, np.shape(dp)[-2]), temperature, want_grad)


def _predict_one(x, gp, dps, clf, enc=None, ct=None):
    # predict_unseen_batch on a single embedding
    enc = _encoder() if enc is None else enc
    ct = _class_tokens() if ct is None else ct
    return predict_unseen_batch(np.asarray(x)[None, :], gp, dps, clf, ct, enc, TAU)[0]


def _one_prompt(prompt):
    # a one-prompt stack under a one-domain head: the generated prompt is
    # exactly that prompt
    return prompt[None], DomainClassifier.init(1, prompt.shape[-1])


# ---------------------------------------------------------------------------
# config and initialization
# ---------------------------------------------------------------------------


def test_prompt_config_validation():
    with pytest.raises(ConfigurationError):
        PromptConfig(length=0, **_INIT)
    with pytest.raises(ConfigurationError):
        PromptConfig(temperature=0.0, init_scale=1e-3)
    with pytest.raises(ConfigurationError):
        PromptConfig(generator_mode="hard", **_INIT)
    with pytest.raises(ConfigurationError):
        PromptConfig(temperature=0.01, init_scale=-1e-3)


def test_zero_init_scale_gives_exact_zero_block():
    block = init_prompt(PromptConfig(length=3, temperature=0.01, init_scale=0.0), DIM, 7, "global-prompt")
    assert block.shape == (3, DIM)
    assert np.all(block == 0.0)


def test_init_prompt_shape_scale_determinism():
    cfg = PromptConfig(length=4, temperature=0.01, init_scale=1e-3)
    a = init_prompt(cfg, DIM, 7, "global-prompt")
    b = init_prompt(cfg, DIM, 7, "global-prompt")
    c = init_prompt(cfg, DIM, 8, "global-prompt")
    assert a.shape == (4, DIM)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # standard normal times 1e-3: every entry should be small but the block
    # must not be exactly zero
    assert 0.0 < np.abs(a).max() < 1e-2


# ---------------------------------------------------------------------------
# domain classifier and membership weights
# ---------------------------------------------------------------------------


def test_classifier_zero_init_gives_uniform_membership():
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 0, "g")
    dps = rng(1, "dps").normal(size=(4, 2, DIM))
    uniform = np.zeros((2, DIM))
    for k in range(4):
        uniform += 0.25 * dps[k]
    x = np.ones(DIM)
    assert np.array_equal(
        _predict_one(x, gp, dps, DomainClassifier.init(num_domains=4, dim=DIM)),
        _predict_one(x, gp, *_one_prompt(uniform)),
    )


def test_domain_head_soft_weights_hand_oracle():
    # logits on the unit input e_0 are exactly (weight column 0 + bias)
    weight = np.zeros((2, DIM))
    weight[0, 0] = weight[1, 1] = 1.0
    clf = DomainClassifier(weight=weight, bias=np.array([0.5, 0.0]))
    x = np.zeros(DIM)
    x[0] = 2.0
    z0, z1 = 1.0 + 0.5, 0.0
    w0 = math.exp(z0) / (math.exp(z0) + math.exp(z1))
    dps = rng(2, "dps").normal(size=(2, 2, DIM))
    expected = _predict_one(x, None, *_one_prompt(w0 * dps[0] + (1.0 - w0) * dps[1]))
    assert np.allclose(_predict_one(x, None, dps, clf), expected, rtol=1e-12, atol=1e-15)
    # the head's weights matter: either prompt alone predicts differently
    assert not np.allclose(_predict_one(x, None, *_one_prompt(dps[0])), expected, atol=1e-6)


def test_domain_head_rejects_bad_input():
    clf = DomainClassifier.init(2, DIM)
    dps = np.zeros((2, 2, DIM))
    with pytest.raises(DomainError):
        _predict_one(np.zeros(DIM), None, dps, clf)
    with pytest.raises(ParameterError):
        DomainClassifier(weight=np.zeros((2, DIM)), bias=np.zeros(3))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_soft_membership_weights_sum_to_one(seed):
    # K copies of one prompt blend to sum_k w_k * prompt, which is the
    # prompt itself exactly when the weights sum to one
    g = np.random.default_rng(seed)
    enc = _encoder(dim=5)
    ct = _class_tokens(dim=5)
    prompt = g.normal(size=(2, 5))
    clf = DomainClassifier(weight=g.normal(size=(3, 5)), bias=g.normal(size=3))
    x = g.normal(size=5) + 1e-3
    got = _predict_one(x, None, np.stack([prompt] * 3), clf, enc=enc, ct=ct)
    expected = _predict_one(x, None, *_one_prompt(prompt), enc=enc, ct=ct)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# domain-prompt blending
# ---------------------------------------------------------------------------


def test_mix_onehot_recovers_block_bitwise():
    gp = init_prompt(PromptConfig(length=3, **_INIT), DIM, 0, "g")
    blocks = rng(0, "mix-blocks").normal(size=(4, 3, DIM))
    x = np.ones(DIM)
    for k in range(4):
        # bias 0 on domain k and -1e4 on the others saturate the head:
        # exp(-1e4) is exactly 0, so the softmax weights are exactly one-hot
        clf = DomainClassifier(weight=np.zeros((4, DIM)), bias=-1e4 * (1.0 - np.eye(4)[k]))
        assert np.array_equal(
            _predict_one(x, gp, blocks, clf), _predict_one(x, gp, *_one_prompt(blocks[k]))
        )


def test_mix_matches_ordered_accumulation_oracle():
    g = rng(1, "mix-oracle")
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 0, "g")
    blocks = g.normal(size=(5, 2, DIM))
    clf = DomainClassifier(weight=g.normal(size=(5, DIM)), bias=g.normal(size=5))
    x = g.normal(size=DIM)
    logits = clf.weight @ (x / np.linalg.norm(x)) + clf.bias
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    expected = np.zeros((2, DIM))
    for k in range(5):
        expected = expected + w[k] * blocks[k]
    assert np.array_equal(_predict_one(x, gp, blocks, clf), _predict_one(x, gp, *_one_prompt(expected)))


def test_mix_rejects_shape_mismatch():
    x = np.ones(DIM)
    with pytest.raises(ParameterError):
        _predict_one(x, None, np.zeros((4, 2, DIM)), DomainClassifier.init(3, DIM))
    with pytest.raises(ParameterError):
        _predict_one(x, None, np.zeros((2, DIM)), DomainClassifier.init(2, DIM))


@pytest.mark.parametrize("domains", [3, DIM])
def test_predict_rejects_a_stacked_head(domains):
    # a (clients, K, d) head from stage two's stacked training; unchecked, it
    # fails inside matmul when d != K and in a broadcast when d == K
    clf = DomainClassifier(np.zeros((2, domains, DIM)), np.zeros((2, domains)))
    with pytest.raises(ParameterError, match=rf"\(2, {domains}, {DIM}\)"):
        _predict_one(np.ones(DIM), None, np.zeros((domains, 2, DIM)), clf)


# ---------------------------------------------------------------------------
# prediction layouts
# ---------------------------------------------------------------------------


def test_global_only_layout_matches_manual_tower():
    enc = _encoder()
    ct = _class_tokens()
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 0, "g")
    x = rng(5, "x").normal(size=DIM)
    probs = _predict_one(x, gp, None, None)
    # the domain slot is zeroed but still occupies its token positions
    text = every_block_texts(enc, [gp, np.zeros_like(gp)], ct)[0]
    expected = _softmax(text @ (x / np.linalg.norm(x)), TAU)
    assert probs.shape == (3,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(probs, expected, rtol=1e-12, atol=0.0)


def test_one_prompt_stack_with_and_without_global():
    enc = _encoder()
    ct = _class_tokens()
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 0, "g")
    dp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 0, "d")
    x = rng(6, "x").normal(size=DIM)
    xn = x / np.linalg.norm(x)
    both = _predict_one(x, gp, *_one_prompt(dp))
    assert np.allclose(both, _softmax(every_block_texts(enc, [gp, dp], ct)[0] @ xn, TAU))
    alone = _predict_one(x, None, *_one_prompt(dp))
    assert np.allclose(alone, _softmax(every_block_texts(enc, [np.zeros_like(dp), dp], ct)[0] @ xn, TAU))


def test_class_token_position_is_stable_across_slot_usage():
    # zeroing a slot must reproduce the other layout exactly: the class
    # token never moves, so global-only scores are the two-slot scores at D = 0
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 0, "g")
    x = rng(55, "x").normal(size=DIM)
    assert np.array_equal(
        _predict_one(x, gp, None, None),
        _predict_one(x, gp, *_one_prompt(np.zeros_like(gp))),
    )


def test_predict_unseen_onehot_equals_selected_composite():
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 0, "g")
    dps = rng(7, "dps").normal(size=(3, 2, DIM)) * 1e-2
    x = rng(8, "x").normal(size=DIM)
    xn = x / np.linalg.norm(x)
    # weights aligned with x saturate the head on domain 1: its logit leads
    # the others by about 1e4, so the softmax weights are exactly one-hot
    clf = DomainClassifier(weight=np.stack([np.zeros(DIM), 1e4 * xn, np.zeros(DIM)]), bias=np.zeros(3))
    probs = _predict_one(x, gp, dps, clf)
    assert np.array_equal(probs, _predict_one(x, gp, dps[1:2], DomainClassifier.init(1, DIM)))


def test_predict_unseen_soft_blends_prompts():
    # domain-only layout: the soft prediction is that of the blended
    # prompt, and differs from that of any one prompt in the stack
    dps = rng(9, "dps").normal(size=(3, 2, DIM))
    clf = DomainClassifier(weight=rng(9, "clf").normal(size=(3, DIM)), bias=np.zeros(3))
    x = rng(9, "x").normal(size=DIM)
    logits = clf.weight @ (x / np.linalg.norm(x)) + clf.bias
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    blended = np.zeros((2, DIM))
    for k in range(3):
        blended += w[k] * dps[k]
    probs = _predict_one(x, None, dps, clf)
    assert np.array_equal(probs, _predict_one(x, None, *_one_prompt(blended)))
    for k in range(3):
        assert not np.allclose(probs, _predict_one(x, None, *_one_prompt(dps[k])), atol=1e-6)


@pytest.mark.parametrize("with_global", [True, False])
def test_predict_unseen_batch_matches_per_sample(with_global, monkeypatch):
    # blocks of 3 rows: the 7 rows span two full blocks and a partial one
    monkeypatch.setattr(prompts, "PREDICT_BLOCK_ROWS", 3)
    enc = _encoder()
    ct = _class_tokens()
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 0, "g") if with_global else None
    dps = rng(10, "dps").normal(size=(3, 2, DIM)) * 1e-2
    clf = DomainClassifier(weight=rng(10, "clf").normal(size=(3, DIM)), bias=rng(10, "b").normal(size=3))
    xs = rng(10, "xs").normal(size=(7, DIM))
    batch = predict_unseen_batch(xs, gp, dps, clf, ct, enc, TAU)
    assert batch.shape == (7, 3)
    for i in range(7):
        single = _predict_one(xs[i], gp, dps, clf)
        assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-14)
    if with_global:
        batch = predict_unseen_batch(xs, gp, None, None, ct, enc, TAU)
        for i in range(7):
            assert np.allclose(batch[i], _predict_one(xs[i], gp, None, None), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("layout", ["global-only", "domain-only", "both"])
def test_prediction_gives_the_bits_of_pooling_both_slots_per_block(layout):
    # 2,000 rows at the default sizes (d = 64, L = 4, 10 classes, 3 head
    # domains): the global prompt encoded or pooled once per call and a zero
    # slot skipped give the bits of pooling both slots for every block
    enc = FrozenEncoder(EncoderConfig(dim=64, seed=3))
    g = rng(42, "two-slot")
    ct = g.normal(size=(10, 64)) * 0.05
    xs = g.normal(size=(2000, 64))
    gp = None if layout == "domain-only" else g.normal(size=(4, 64)) * 0.05
    dps = clf = None
    if layout != "global-only":
        dps = g.normal(size=(3, 4, 64)) * 0.05
        clf = DomainClassifier(g.normal(size=(3, 64)), g.normal(size=3) * 0.1)
    got = predict_unseen_batch(xs, gp, dps, clf, ct, enc, TAU)
    assert got.tobytes() == two_slot_probabilities(xs, gp, dps, clf, ct, enc, TAU).tobytes()


def test_predict_rejects_degenerate_and_overfull():
    enc = _encoder(max_tokens=4)
    ct = _class_tokens()
    gp = np.zeros((2, DIM))
    with pytest.raises(DomainError):
        _predict_one(np.zeros(DIM), np.ones((2, DIM)) * 1e-3, None, None)
    with pytest.raises(ParameterError):
        # 2 + 2 prompt rows + 1 class token exceed 4 positions
        _predict_one(np.ones(DIM), gp, *_one_prompt(np.zeros((2, DIM))), enc=enc)
    with pytest.raises(ParameterError):
        predict_unseen_batch(
            np.ones((2, DIM)), gp, np.zeros((3, 2, DIM)), DomainClassifier.init(3, DIM), ct, enc, TAU
        )
    with pytest.raises(ParameterError):
        predict_unseen_batch(np.ones(DIM), None, np.zeros((3, 1, DIM)), DomainClassifier.init(3, DIM), ct, enc, TAU)
    with pytest.raises(ParameterError):
        _predict_one(np.ones(DIM), None, None, None)
    with pytest.raises(ParameterError):
        _predict_one(np.ones(DIM), np.zeros((3, DIM)), *_one_prompt(np.zeros((2, DIM))))


@pytest.mark.parametrize("temperature", [-1.0, 0.0, math.nan, math.inf, True])
def test_predict_rejects_a_bad_temperature(temperature):
    # a negative temperature would invert the ranking, zero gives NaN
    with pytest.raises(ParameterError):
        predict_unseen_batch(
            np.ones((2, DIM)), np.zeros((2, DIM)), None, None, _class_tokens(), _encoder(), temperature
        )


@pytest.mark.parametrize("case, match", [
    ("embeddings", "embeddings"), ("global prompt", "prompt block"), ("domain prompts", "prompt block"),
    ("head", "head"),
])
def test_predict_rejects_a_width_other_than_the_encoders(case, match):
    # a 32-wide batch, prompt block or head under a 64-wide encoder fails at
    # the boundary, not inside a product
    enc, ct = _encoder(dim=64), _class_tokens(dim=64)
    width = {part: 32 if part == case else 64 for part in ("embeddings", "global prompt", "domain prompts", "head")}
    if case in ("domain prompts", "head"):
        blocks = (None, np.zeros((3, 4, width["domain prompts"])), DomainClassifier.init(3, width["head"]))
    else:
        blocks = (np.zeros((4, width["global prompt"])), None, None)
    with pytest.raises(ParameterError, match=match):
        predict_unseen_batch(np.ones((5, width["embeddings"])), *blocks, ct, enc, TAU)


def test_prediction_memory_does_not_grow_with_the_rows():
    # the (rows, C, d) class-text arrays are built one block at a time
    enc = _encoder(dim=64, max_tokens=8)
    ct = rng(12, "ct").normal(size=(10, 64)) * 1e-2
    dps = rng(12, "dps").normal(size=(3, 2, 64)) * 1e-2
    clf = DomainClassifier(weight=rng(12, "clf").normal(size=(3, 64)), bias=np.zeros(3))
    xs = rng(12, "xs").normal(size=(4 * prompts.PREDICT_BLOCK_ROWS, 64))

    def peak(n):
        tracemalloc.start()
        try:
            predict_unseen_batch(xs[:n], None, dps, clf, ct, enc, TAU)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(len(xs)) < 1.5 * peak(prompts.PREDICT_BLOCK_ROWS)


@pytest.mark.parametrize("half", ["prompts", "head"])
def test_predict_rejects_half_a_blend(half):
    # the domain slot blends prompts by the head's weights; either alone is bad input
    enc = _encoder()
    gp = np.zeros((2, DIM))
    dps = np.zeros((3, 2, DIM)) if half == "prompts" else None
    clf = DomainClassifier.init(3, DIM) if half == "head" else None
    with pytest.raises(ParameterError, match="domain head"):
        predict_unseen_batch(np.ones((2, DIM)), gp, dps, clf, _class_tokens(), enc, TAU)


# ---------------------------------------------------------------------------
# global-prompt loss
# ---------------------------------------------------------------------------


def _global_oracle(batch, prompt, enc, ct, temperature):
    # same quantity rebuilt from the public scalar primitives
    total = 0.0
    for x, y in zip(batch.rows, batch.labels):
        text = every_block_texts(enc, [prompt, np.zeros_like(prompt)], ct)[0]
        probs = _softmax(text @ x, temperature)
        total += -math.log(max(probs[y], PROB_FLOOR))
    return total / len(batch)


def test_global_loss_matches_primitive_oracle():
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    prompt = init_prompt(PromptConfig(length=2, **_INIT), DIM, 1, "g")
    value, grad = global_loss(batch, prompt, enc, _classes(enc, ct), TAU)
    assert value == pytest.approx(_global_oracle(batch, prompt, enc, ct, TAU), rel=1e-12)
    assert grad.shape == prompt.shape


def test_global_loss_gradient_matches_finite_differences():
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    prompt = init_prompt(PromptConfig(length=2, **_INIT), DIM, 2, "g")

    def loss_fn(params):
        value, grad = global_loss(batch, params["prompt"], enc, _classes(enc, ct), TAU)
        return value, {"prompt": grad}

    report = grad_check(loss_fn, {"prompt": prompt})
    assert report.passed, report.format()


def test_global_loss_input_validation():
    enc = _encoder()
    ct = _classes(enc, _class_tokens())
    with pytest.raises(ParameterError):
        global_loss(_batch().select(np.s_[:0]), np.ones((2, DIM)), enc, ct, TAU)
    bad = _raw_batch()
    bad.labels[0] = 7
    with pytest.raises(ParameterError):
        global_loss(UnitRows(bad.embeddings, bad.labels, bad.domains), np.ones((2, DIM)), enc, ct, TAU)


def test_losses_reject_constants_prepared_for_another_layout():
    enc, ct, batch, prompt = _encoder(), _class_tokens(), _batch(), np.ones((2, DIM))
    with pytest.raises(ParameterError, match="position 6, not 4"):
        global_loss(batch, prompt, enc, enc.class_term(ct, 6), TAU)
    # a global slot pooled for a stack of three clients
    slot = enc.pool_prefix(np.ones((3, 2, DIM)))
    with pytest.raises(ParameterError, match="pooled global slot"):
        domain_loss(batch, prompt, slot, enc, _classes(enc, ct), TAU)


_OUT_OF_RANGE = {
    # class label 3 of 3 classes for the prompt losses, domain 2 of 2 for the head
    "global": lambda b: global_loss(b, np.ones((2, DIM)), _encoder(), _classes(_encoder(), _class_tokens()), TAU),
    "domain": lambda b: _domain_loss(b, np.ones((2, DIM)), None, _encoder(), _class_tokens(), TAU, False),
    "classifier": lambda b: classifier_loss(b, DomainClassifier.init(2, DIM)),
}


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
@pytest.mark.parametrize("label", ["-1", "C"])
@pytest.mark.parametrize("loss", sorted(_OUT_OF_RANGE))
def test_every_loss_rejects_an_out_of_range_label_as_bad_data(loss, label, dtype):
    # stage one refuses the label as bad data on entry; a batch that never
    # passed through it still fails in the cross-entropy kernel.  C is the
    # class count (3) or the head's domain count (2); -1 as uint64 is 2^64 - 1
    bad = _raw_batch(classes=3, domains=2)
    labels, domains = bad.labels.astype(dtype), bad.domains.astype(dtype)
    target, count = (domains, 2) if loss == "classifier" else (labels, 3)
    target[0] = np.array(-1 if label == "-1" else count).astype(dtype)
    with pytest.raises(ParameterError, match="label out of range"):
        _OUT_OF_RANGE[loss](UnitRows(bad.embeddings, labels, domains))


# ---------------------------------------------------------------------------
# domain-prompt loss
# ---------------------------------------------------------------------------


def _domain_oracle(batch, dp, gp, enc, ct, temperature):
    blocks = [gp if gp is not None else np.zeros_like(dp), dp]
    total = 0.0
    for x, y in zip(batch.rows, batch.labels):
        text = every_block_texts(enc, blocks, ct)[0]
        probs = _softmax(text @ x, temperature)
        total += -math.log(max(probs[y], PROB_FLOOR))
    return total / len(batch)


@pytest.mark.parametrize("with_global", [True, False])
def test_domain_loss_matches_primitive_oracle(with_global):
    # without a global prompt, the domain-only ablation trains this path
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 3, "g") if with_global else None
    dp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 3, "d")
    value, grad = _domain_loss(batch, dp, gp, enc, ct, TAU)
    assert value == pytest.approx(_domain_oracle(batch, dp, gp, enc, ct, TAU), rel=1e-12)
    assert grad.shape == dp.shape


@pytest.mark.parametrize("with_global", [True, False])
def test_domain_loss_gradient_matches_finite_differences(with_global):
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 5, "g") if with_global else None

    def loss_fn(params):
        value, grad = _domain_loss(batch, params["prompt"], gp, enc, ct, TAU)
        return value, {"prompt": grad}

    report = grad_check(loss_fn, {"prompt": init_prompt(PromptConfig(length=2, **_INIT), DIM, 5, "d")})
    assert report.passed, report.format()


def test_domain_prompt_norm_stays_bounded_from_zero_start():
    # small steps from a zero start must not blow the prompt up: the
    # gradient at and near the origin is finite, so the first nonzero
    # iterate takes no unbounded kick
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    gp = init_prompt(PromptConfig(length=2, **_INIT), DIM, 11, "g")
    dp = np.zeros((2, DIM))
    rate = 1e-3
    for _ in range(50):
        _, grad = _domain_loss(batch, dp, gp, enc, ct, TAU)
        assert np.all(np.isfinite(grad))
        dp = dp - rate * grad
    assert 0.0 < np.linalg.norm(dp) < 1.0


# ---------------------------------------------------------------------------
# domain classifier loss
# ---------------------------------------------------------------------------


def test_classifier_loss_at_zero_init_is_log_k():
    batch = _batch(domains=3)
    clf = DomainClassifier.init(3, DIM)
    value, grads = classifier_loss(batch, clf)
    assert value == pytest.approx(math.log(3), rel=1e-12)
    assert set(grads) == {"weight", "bias"}


def test_classifier_loss_gradient_matches_finite_differences():
    batch = _batch(domains=3)
    g = rng(13, "clf-init")

    def loss_fn(params):
        clf = DomainClassifier(weight=params["weight"], bias=params["bias"])
        return classifier_loss(batch, clf)

    report = grad_check(
        loss_fn,
        {"weight": g.normal(size=(3, DIM)) * 0.1, "bias": g.normal(size=3) * 0.1},
    )
    assert report.passed, report.format()


def test_classifier_loss_rejects_out_of_range_domains():
    batch = _raw_batch(domains=2)
    batch.domains[0] = -1  # style-target entries must be filtered out upstream
    with pytest.raises(ParameterError):
        classifier_loss(UnitRows(batch.embeddings, batch.labels, batch.domains), DomainClassifier.init(2, DIM))


# ---------------------------------------------------------------------------
# a leading client axis
# ---------------------------------------------------------------------------


def _stacked(pools, index):
    names = ("rows", "labels", "domains")
    return UnitRows(*(np.stack([getattr(p, name)[index] for p in pools]) for name in names))


@pytest.mark.parametrize("loss", ["global", "domain", "classifier"])
def test_a_stacked_call_equals_one_call_per_client_bit_for_bit(loss):
    k = 3
    pools = [_batch(n=48, seed=20 + j, domains=k) for j in range(k)]
    enc, ct = _encoder(), _class_tokens()
    g = rng(21, "stacked-losses")
    gp = g.normal(size=(k, 2, DIM)) * 0.05
    dp = g.normal(size=(k, 2, DIM)) * np.array([0.01, 0.3, 1.0])[:, None, None]
    heads = DomainClassifier(g.normal(size=(k, k, DIM)) * 0.1, g.normal(size=(k, k)) * 0.1)

    def call(batch, j):
        # j=None takes every client at once
        pick = (lambda a: a) if j is None else (lambda a: a[j])
        if loss == "global":
            return global_loss(batch, pick(gp), enc, _classes(enc, ct), TAU)
        if loss == "domain":
            return _domain_loss(batch, pick(dp), pick(gp), enc, ct, TAU)
        return classifier_loss(batch, DomainClassifier(pick(heads.weight), pick(heads.bias)))

    for rows in (slice(0, 32), slice(32, 48)):
        values, grads = call(_stacked(pools, rows), None)
        assert values.shape == (k,)
        for j in range(k):
            value, grad = call(pools[j].select(rows), j)
            assert isinstance(value, float) and values[j] == value
            if loss == "classifier":
                assert all(grads[name][j].tobytes() == grad[name].tobytes() for name in grad)
            else:
                assert grads[j].tobytes() == grad.tobytes()


def test_column_copy_is_read_only_and_select_carries_none():
    pools = [_batch(n=10, seed=30 + j) for j in range(3)]
    stack = _stacked(pools, slice(None))
    weights = rng(31, "weights").normal(size=(3, 4, DIM))
    assert stack.column_copy is None
    # without a copy: the transposed view of the rows-left product
    scores = stack.scores(weights)
    assert np.swapaxes(scores, -1, -2).flags.c_contiguous
    assert scores.tobytes() == (weights @ np.swapaxes(stack.rows, -1, -2)).tobytes()
    copied = stack.with_column_copy()
    columns = copied.column_copy
    assert columns.flags.c_contiguous and not columns.flags.writeable
    assert np.array_equal(columns, np.swapaxes(stack.rows, -1, -2))
    assert copied.scores(weights).tobytes() == (weights @ columns).tobytes()
    # a selection, a view or a gather, is scored from its rows
    for index in (np.s_[:, 2:7], 1, np.s_[1, 2:7], np.s_[:2], np.s_[:], np.s_[:, [0, 3, 5]], np.array([2, 0])):
        part = copied.select(index)
        assert part.column_copy is None
        w = weights[: len(part.rows)] if part.rows.ndim == 3 else weights[0]
        assert part.scores(w).tobytes() == (w @ np.swapaxes(stack.rows[index], -1, -2)).tobytes()


def test_stacked_batch_length_counts_every_row():
    pools = [_batch(n=10, seed=30 + j) for j in range(3)]
    assert len(_stacked(pools, slice(0, 8))) == 24


def _softmax_ce_rows(logits, labels):
    # test oracle: the row-major formula, softmax and cross-entropy of each
    # row of (..., B, C) logits, reducing over the trailing class axis
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    picked = np.take_along_axis(p, labels[..., None], axis=-1)[..., 0]
    loss = -np.log(np.maximum(picked, PROB_FLOOR))
    np.put_along_axis(p, labels[..., None], picked[..., None] - 1.0, axis=-1)
    return loss, p


def _row_major_loss(loss, batch, params, enc, ct):
    # each loss rebuilt on (..., B, C) logits with the row-major oracle
    xn, rows = batch.rows, batch.rows.shape[-2]
    if loss == "classifier":
        logits = xn @ np.swapaxes(params.weight, -1, -2) + params.bias[..., None, :]
        per_row, dlogits = _softmax_ce_rows(logits, batch.domains)
        dlogits /= rows
        return per_row.mean(axis=-1), {"weight": np.swapaxes(dlogits, -1, -2) @ xn, "bias": dlogits.sum(axis=-2)}
    gp, dp = params
    blocks, slot = ([gp, np.zeros_like(gp)], 0) if loss == "global" else ([gp, dp], 1)
    text, backward = every_block_texts(enc, blocks, ct)
    per_row, dlogits = _softmax_ce_rows((xn @ np.swapaxes(text, -1, -2)) / TAU, batch.labels)
    dtext = np.swapaxes(dlogits / (rows * TAU), -1, -2) @ xn
    return per_row.mean(axis=-1), backward(dtext)[slot]


@pytest.mark.parametrize("loss", ["global", "domain", "classifier"])
def test_each_loss_matches_the_row_major_formula_on_a_default_size_batch(loss):
    # 3 clients of 2000 rows, d = 64, 10 classes, 3 head domains; the kernel
    # sums over classes in another order than the formula, so the two agree
    # to 1e-12 relative.  With the batch's column copy the scores read
    # another layout of the same values, and every bit must stay the same.
    k, n, dim = 3, 2000, 64
    enc = FrozenEncoder(EncoderConfig(dim=dim, max_tokens=16, seed=3))
    g = rng(40, "row-major")
    ct = g.normal(size=(10, dim)) * 0.01
    rows = _unit_rows(g, k * n, dim).reshape(k, n, dim)
    batch = UnitRows(rows, g.integers(0, 10, (k, n)), g.integers(0, k, (k, n)))
    gp, dp = g.normal(size=(2, k, 4, dim)) * 0.01
    head = DomainClassifier(g.normal(size=(k, k, dim)), g.normal(size=(k, k)) * 0.1)
    params = head if loss == "classifier" else (gp, dp)

    def call(batch):
        if loss == "global":
            return global_loss(batch, gp, enc, _classes(enc, ct, 4), TAU)
        if loss == "domain":
            return _domain_loss(batch, dp, gp, enc, ct, TAU)
        return classifier_loss(batch, head)

    value, grad = call(batch)
    copied_value, copied_grad = call(batch.with_column_copy())
    assert copied_value.tobytes() == value.tobytes()
    grads = [(grad[name], copied_grad[name]) for name in grad] if loss == "classifier" else [(grad, copied_grad)]
    assert all(a.tobytes() == b.tobytes() for a, b in grads)
    want, want_grad = _row_major_loss(loss, batch, params, enc, ct)
    assert np.allclose(value, want, rtol=1e-12, atol=0)
    pairs = [(grad[name], want_grad[name]) for name in grad] if loss == "classifier" else [(grad, want_grad)]
    for got, expected in pairs:
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
@pytest.mark.parametrize("loss", ["global", "domain", "classifier"])
def test_each_loss_rejects_labels_that_are_not_integers(loss, dtype):
    # UnitRows checks nothing; the losses' kernel refuses the dtype
    batch, enc, ct, prompt = _batch(), _encoder(), _class_tokens(), np.zeros((2, DIM))
    if loss == "classifier":
        bad = UnitRows(batch.rows, batch.labels, batch.domains.astype(dtype))
    else:
        bad = UnitRows(batch.rows, batch.labels.astype(dtype), batch.domains)
    with pytest.raises(ParameterError, match="labels must be integers"):
        if loss == "global":
            global_loss(bad, prompt, enc, _classes(enc, ct), TAU)
        elif loss == "domain":
            _domain_loss(bad, prompt, None, enc, ct, TAU)
        else:
            classifier_loss(bad, DomainClassifier.init(2, DIM))


@pytest.mark.parametrize("rows", [16, 32, 2000])
@pytest.mark.parametrize("layout", ["dual-prompt", "domain-only"])
def test_prepared_losses_match_the_per_call_reference_bit_for_bit(rows, layout):
    # 3 stacked clients at the default sizes (d = 64, L = 4, 10 classes):
    # the losses on constants prepared once (the class term, the pooled
    # global slot) and with the zero slot skipped, scoring a batch without
    # a column copy rows-left, give the bits of the per-call formulation,
    # which scores class-major, with and without a column copy
    k, dim, config = 3, 64, PromptConfig()
    enc = FrozenEncoder(EncoderConfig(dim=dim, seed=3))
    g = rng(41, "per-call", rows)
    ct = g.normal(size=(10, dim)) * 0.05
    stack = UnitRows(
        _unit_rows(g, k * rows, dim).reshape(k, rows, dim), g.integers(0, 10, (k, rows)), g.integers(0, k, (k, rows))
    )
    gp = g.normal(size=(k, config.length, dim)) * 0.05
    dp = g.normal(size=(k, config.length, dim)) * np.array([0.01, 0.3, 1.0])[:, None, None]
    classes, tau = enc.class_term(ct, 2 * config.length), config.temperature
    frozen = None if layout == "domain-only" else gp
    slot = None if frozen is None else enc.pool_prefix(frozen)
    for batch in (stack, stack.with_column_copy()):
        pairs = [(
            domain_loss(batch, dp, slot, enc, classes, tau),
            per_call_domain_loss(batch, dp, frozen, enc, ct, tau),
        )]
        if frozen is not None:
            pairs.append((global_loss(batch, gp, enc, classes, tau), per_call_global_loss(batch, gp, enc, ct, tau)))
        for got, want in pairs:
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows", [16, 32, 2000])
@pytest.mark.parametrize("stacked", [True, False], ids=["stack", "one-client"])
def test_classifier_loss_matches_the_class_major_formula_bit_for_bit(rows, stacked):
    # 3 head domains, d = 64, in the training dtype: the loss scoring a
    # batch without a column copy rows-left gives the bits of the logits
    # taken class-major, with and without a column copy
    k, dim = 3, 64
    g = rng(42, "class-major", rows)
    stack = UnitRows(
        _unit_rows(g, k * rows, dim).reshape(k, rows, dim).astype(np.float32),
        g.integers(0, 10, (k, rows)), g.integers(0, k, (k, rows)),
    )
    head = DomainClassifier(g.normal(size=(k, k, dim)), g.normal(size=(k, k)) * 0.1)
    if not stacked:
        stack, head = stack.select(1), DomainClassifier(head.weight[1], head.bias[1])
    for batch in (stack, stack.with_column_copy()):
        value, grads = classifier_loss(batch, head)
        want, want_grads = class_major_classifier_loss(batch, head)
        if stacked:
            assert value.tobytes() == want.tobytes()
        else:
            assert isinstance(value, float) and value == float(want)
        assert set(grads) == set(want_grads)
        for name, grad in grads.items():
            assert grad.dtype == np.float32 and grad.tobytes() == want_grads[name].tobytes()
