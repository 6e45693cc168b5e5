"""Prompt tests: prediction-path oracles, loss values rebuilt from the
public primitives, tape gradients vs finite differences, and the exactness
guarantees of the domain-prompt blend.

``predict_unseen_batch`` is the only prediction path, so the blend and the
domain head are checked through it, one embedding at a time: a blend is
pinned by comparing with a one-prompt stack holding the expected prompt
under a one-domain head, whose only weight is exactly one."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedstyle.data import LabeledEmbeddings
from fedstyle.encoder import EncoderConfig, FrozenEncoder
from fedstyle.errors import ConfigurationError, DataError, DomainError, ParameterError
from fedstyle.numerics import cross_entropy, grad_check, softmax
from fedstyle.prompts import (
    CONTRAST_NORM_FLOOR,
    DomainClassifier,
    PromptConfig,
    classifier_loss,
    contrastive_loss_parts,
    domain_loss,
    global_loss,
    init_prompt,
    predict_unseen_batch,
)
from fedstyle.seeding import rng

DIM = 8
TAU = 0.05


def _encoder(dim=DIM, max_tokens=12, seed=3):
    return FrozenEncoder(EncoderConfig(dim=dim, max_tokens=max_tokens, seed=seed))


def _unit_rows(generator, n, dim):
    raw = generator.normal(size=(n, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _batch(n=6, classes=3, dim=DIM, seed=11, domains=2):
    g = rng(seed, "prompt-test-batch")
    return LabeledEmbeddings(
        embeddings=_unit_rows(g, n, dim),
        labels=g.integers(0, classes, size=n),
        domains=g.integers(0, domains, size=n),
        augmented=np.zeros(n, dtype=bool),
    )


def _class_tokens(classes=3, dim=DIM, seed=12):
    return rng(seed, "prompt-test-tokens").normal(size=(classes, dim)) * 0.05


def _predict_one(x, gp, dps, clf, mode="soft", enc=None, ct=None):
    # predict_unseen_batch on a single embedding
    enc = _encoder() if enc is None else enc
    ct = _class_tokens() if ct is None else ct
    return predict_unseen_batch(np.asarray(x)[None, :], gp, dps, clf, ct, enc, TAU, mode=mode)[0]


def _one_prompt(prompt):
    # a one-prompt stack under a one-domain head: the generated prompt is
    # exactly that prompt
    return prompt[None], DomainClassifier.init(1, prompt.shape[-1])


# ---------------------------------------------------------------------------
# config and initialization
# ---------------------------------------------------------------------------


def test_prompt_config_validation():
    with pytest.raises(ConfigurationError):
        PromptConfig(length=0)
    with pytest.raises(ConfigurationError):
        PromptConfig(temperature=0.0)
    with pytest.raises(ConfigurationError):
        PromptConfig(generator_mode="hard")
    with pytest.raises(ConfigurationError):
        PromptConfig(init_scale=-1e-3)


def test_zero_init_scale_gives_exact_zero_block():
    block = init_prompt(PromptConfig(length=3, init_scale=0.0), DIM, 7, "global-prompt")
    assert block.shape == (3, DIM)
    assert np.all(block == 0.0)


def test_init_prompt_shape_scale_determinism():
    cfg = PromptConfig(length=4, init_scale=1e-3)
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
    gp = init_prompt(PromptConfig(length=2), DIM, 0, "g")
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


def test_domain_head_onehot_ties_pick_the_lowest_index():
    clf = DomainClassifier(weight=np.zeros((3, DIM)), bias=np.array([0.0, 1.0, 1.0]))
    dps = rng(3, "dps").normal(size=(3, 2, DIM))
    x = np.ones(DIM)
    got = _predict_one(x, None, dps, clf, mode="onehot")
    # domains 1 and 2 tie; the lowest index wins
    assert np.array_equal(got, _predict_one(x, None, *_one_prompt(dps[1])))
    assert not np.array_equal(got, _predict_one(x, None, *_one_prompt(dps[2])))


def test_domain_head_rejects_bad_input():
    clf = DomainClassifier.init(2, DIM)
    dps = np.zeros((2, 2, DIM))
    with pytest.raises(DomainError):
        _predict_one(np.zeros(DIM), None, dps, clf)
    with pytest.raises(ParameterError):
        _predict_one(np.ones(DIM), None, dps, clf, mode="argmax")
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
    gp = init_prompt(PromptConfig(length=3), DIM, 0, "g")
    blocks = rng(0, "mix-blocks").normal(size=(4, 3, DIM))
    x = np.ones(DIM)
    for k in range(4):
        clf = DomainClassifier(weight=np.zeros((4, DIM)), bias=np.eye(4)[k])
        assert np.array_equal(
            _predict_one(x, gp, blocks, clf, mode="onehot"), _predict_one(x, gp, *_one_prompt(blocks[k]))
        )


def test_mix_matches_ordered_accumulation_oracle():
    g = rng(1, "mix-oracle")
    gp = init_prompt(PromptConfig(length=2), DIM, 0, "g")
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


# ---------------------------------------------------------------------------
# prediction layouts
# ---------------------------------------------------------------------------


def test_global_only_layout_matches_manual_tower():
    enc = _encoder()
    ct = _class_tokens()
    gp = init_prompt(PromptConfig(length=2), DIM, 0, "g")
    x = rng(5, "x").normal(size=DIM)
    probs = _predict_one(x, gp, None, None)
    # the domain slot is zeroed but still occupies its token positions
    text = enc.encode_class_texts([gp, np.zeros_like(gp)], ct)
    expected = softmax(text @ (x / np.linalg.norm(x)), temperature=TAU)
    assert probs.shape == (3,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(probs, expected, rtol=1e-12, atol=0.0)


def test_one_prompt_stack_with_and_without_global():
    enc = _encoder()
    ct = _class_tokens()
    gp = init_prompt(PromptConfig(length=2), DIM, 0, "g")
    dp = init_prompt(PromptConfig(length=2), DIM, 0, "d")
    x = rng(6, "x").normal(size=DIM)
    xn = x / np.linalg.norm(x)
    both = _predict_one(x, gp, *_one_prompt(dp))
    assert np.allclose(both, softmax(enc.encode_class_texts([gp, dp], ct) @ xn, temperature=TAU))
    alone = _predict_one(x, None, *_one_prompt(dp))
    assert np.allclose(
        alone, softmax(enc.encode_class_texts([np.zeros_like(dp), dp], ct) @ xn, temperature=TAU)
    )


def test_class_token_position_is_stable_across_slot_usage():
    # zeroing a slot must reproduce the other layout exactly: the class
    # token never moves, so global-only scores are the two-slot scores at D = 0
    gp = init_prompt(PromptConfig(length=2), DIM, 0, "g")
    x = rng(55, "x").normal(size=DIM)
    assert np.array_equal(
        _predict_one(x, gp, None, None),
        _predict_one(x, gp, *_one_prompt(np.zeros_like(gp))),
    )


def test_predict_unseen_onehot_equals_selected_composite():
    gp = init_prompt(PromptConfig(length=2), DIM, 0, "g")
    dps = rng(7, "dps").normal(size=(3, 2, DIM)) * 1e-2
    x = rng(8, "x").normal(size=DIM)
    xn = x / np.linalg.norm(x)
    # weights aligned with x make domain 1 the argmax by a wide margin
    clf = DomainClassifier(weight=np.stack([np.zeros(DIM), 5.0 * xn, np.zeros(DIM)]), bias=np.zeros(3))
    probs = _predict_one(x, gp, dps, clf, mode="onehot")
    assert np.array_equal(probs, _predict_one(x, gp, dps[1:2], DomainClassifier.init(1, DIM), mode="onehot"))


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


@pytest.mark.parametrize("mode", ["soft", "onehot"])
@pytest.mark.parametrize("with_global", [True, False])
def test_predict_unseen_batch_matches_per_sample(mode, with_global):
    enc = _encoder()
    ct = _class_tokens()
    gp = init_prompt(PromptConfig(length=2), DIM, 0, "g") if with_global else None
    dps = rng(10, "dps").normal(size=(3, 2, DIM)) * 1e-2
    clf = DomainClassifier(weight=rng(10, "clf").normal(size=(3, DIM)), bias=rng(10, "b").normal(size=3))
    xs = rng(10, "xs").normal(size=(7, DIM))
    batch = predict_unseen_batch(xs, gp, dps, clf, ct, enc, TAU, mode=mode)
    assert batch.shape == (7, 3)
    for i in range(7):
        single = _predict_one(xs[i], gp, dps, clf, mode=mode)
        assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-14)
    if with_global:
        batch = predict_unseen_batch(xs, gp, None, None, ct, enc, TAU)
        for i in range(7):
            assert np.allclose(batch[i], _predict_one(xs[i], gp, None, None), rtol=1e-12, atol=1e-14)


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


# ---------------------------------------------------------------------------
# global-prompt loss
# ---------------------------------------------------------------------------


def _global_oracle(batch, prompt, enc, ct, temperature):
    # same quantity rebuilt from the public scalar primitives
    total = 0.0
    for x, y in zip(batch.embeddings, batch.labels):
        text = enc.encode_class_texts([prompt, np.zeros_like(prompt)], ct)
        probs = softmax(text @ (x / np.linalg.norm(x)), temperature=temperature)
        total += cross_entropy(probs, int(y))
    return total / len(batch)


def test_global_loss_matches_primitive_oracle():
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    prompt = init_prompt(PromptConfig(length=2), DIM, 1, "g")
    value, grad = global_loss(batch, prompt, enc, ct, TAU)
    assert value == pytest.approx(_global_oracle(batch, prompt, enc, ct, TAU), rel=1e-12)
    assert grad.shape == prompt.shape


def test_global_loss_gradient_matches_finite_differences():
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    prompt = init_prompt(PromptConfig(length=2), DIM, 2, "g")

    def loss_fn(params):
        value, grad = global_loss(batch, params["prompt"], enc, ct, TAU)
        return value, {"prompt": grad}

    report = grad_check(loss_fn, {"prompt": prompt})
    assert report.passed, report.format()


def test_global_loss_input_validation():
    enc = _encoder()
    ct = _class_tokens()
    with pytest.raises(ParameterError):
        global_loss(LabeledEmbeddings.empty(DIM), np.ones((2, DIM)), enc, ct, TAU)
    bad = _batch()
    bad.labels[0] = 7
    with pytest.raises(DataError):
        global_loss(bad, np.ones((2, DIM)), enc, ct, TAU)


# ---------------------------------------------------------------------------
# domain-prompt loss
# ---------------------------------------------------------------------------


def _domain_oracle(batch, dp, gp, enc, ct, own, temperature, use_contrastive):
    blocks = [gp if gp is not None else np.zeros_like(dp), dp]
    total = 0.0
    for x, y in zip(batch.embeddings, batch.labels):
        text = enc.encode_class_texts(blocks, ct)
        probs = softmax(text @ (x / np.linalg.norm(x)), temperature=temperature)
        total += cross_entropy(probs, int(y))
    cla = total / len(batch)
    if not use_contrastive:
        return cla
    pooled = dp.mean(axis=0)
    pooled = pooled / max(np.linalg.norm(pooled), CONTRAST_NORM_FLOOR)
    own_u = own / np.linalg.norm(own)
    anchor = gp.mean(axis=0)
    anchor = anchor / np.linalg.norm(anchor)
    sims = np.array([pooled @ own_u, pooled @ anchor])
    return cla + cross_entropy(softmax(sims, temperature=1.0), 0)


@pytest.mark.parametrize("use_contrastive", [True, False])
def test_domain_loss_matches_primitive_oracle(use_contrastive):
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    gp = init_prompt(PromptConfig(length=2), DIM, 3, "g")
    dp = init_prompt(PromptConfig(length=2), DIM, 3, "d")
    own = rng(3, "own").normal(size=DIM)
    value, grad, parts = domain_loss(
        batch, dp, gp, enc, ct, own, TAU, use_contrastive=use_contrastive
    )
    expected = _domain_oracle(batch, dp, gp, enc, ct, own, TAU, use_contrastive)
    assert value == pytest.approx(expected, rel=1e-12)
    assert grad.shape == dp.shape
    assert ("contrastive" in parts) == use_contrastive
    assert value == pytest.approx(sum(parts.values()), rel=1e-12)


def test_domain_loss_without_global_prompt():
    # the domain-only ablation trains this path
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    dp = init_prompt(PromptConfig(length=2), DIM, 4, "d")
    value, grad, parts = domain_loss(
        batch, dp, None, enc, ct, None, TAU, use_contrastive=False
    )
    assert value == pytest.approx(_domain_oracle(batch, dp, None, enc, ct, None, TAU, False), rel=1e-12)
    assert set(parts) == {"classification"}


@pytest.mark.parametrize("use_contrastive,with_global", [(True, True), (False, True), (False, False)])
def test_domain_loss_gradient_matches_finite_differences(use_contrastive, with_global):
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    gp = init_prompt(PromptConfig(length=2), DIM, 5, "g") if with_global else None
    own = rng(5, "own").normal(size=DIM)

    def loss_fn(params):
        value, grad, _ = domain_loss(
            batch, params["prompt"], gp, enc, ct,
            own if use_contrastive else None, TAU, use_contrastive=use_contrastive,
        )
        return value, {"prompt": grad}

    report = grad_check(loss_fn, {"prompt": init_prompt(PromptConfig(length=2), DIM, 5, "d")})
    assert report.passed, report.format()


def test_domain_loss_contrastive_needs_anchor_and_description():
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    dp = init_prompt(PromptConfig(length=2), DIM, 6, "d")
    with pytest.raises(ConfigurationError):
        domain_loss(batch, dp, None, enc, ct, np.ones(DIM), TAU, use_contrastive=True)
    with pytest.raises(ConfigurationError):
        domain_loss(batch, dp, np.ones((2, DIM)), enc, ct, None, TAU, use_contrastive=True)


def test_contrastive_parts_helper():
    dp = np.tile(np.array([1.0, 0.0] + [0.0] * (DIM - 2)), (2, 1))
    gp = np.tile(np.array([0.0, 1.0] + [0.0] * (DIM - 2)), (2, 1))
    own = np.array([1.0, 0.0] + [0.0] * (DIM - 2))
    s_own, s_anchor = contrastive_loss_parts(dp, gp, own)
    assert s_own == pytest.approx(1.0)
    assert s_anchor == pytest.approx(0.0)


def test_contrastive_direction_continuous_at_floor():
    # just under and just over the ramp boundary must agree to first order
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    gp = init_prompt(PromptConfig(length=2), DIM, 9, "g")
    own = rng(9, "own").normal(size=DIM)
    base = rng(9, "dir").normal(size=(2, DIM))
    base = base / np.linalg.norm(base.mean(axis=0))
    eps = 1e-9
    lo, _, _ = domain_loss(batch, base * (CONTRAST_NORM_FLOOR - eps), gp, enc, ct, own, TAU, want_grad=False)
    hi, _, _ = domain_loss(batch, base * (CONTRAST_NORM_FLOOR + eps), gp, enc, ct, own, TAU, want_grad=False)
    assert lo == pytest.approx(hi, abs=1e-6)


def test_contrastive_at_zero_prompt_gives_indifference_and_finite_pull():
    # an exactly-zero prompt has no direction: both similarities read zero,
    # the term sits at its two-way indifference value, and the ramp still
    # hands back a bounded gradient that orients the first step
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    gp = init_prompt(PromptConfig(length=2), DIM, 10, "g")
    own = rng(10, "own").normal(size=DIM)
    value, grad, parts = domain_loss(batch, np.zeros((2, DIM)), gp, enc, ct, own, TAU)
    assert parts["contrastive"] == pytest.approx(math.log(2.0))
    assert np.all(np.isfinite(grad))


def test_domain_prompt_norm_stays_bounded_from_zero_start():
    # small steps from a zero start must not blow the prompt up: near the
    # origin exact normalization would scale the contrastive gradient by
    # 1 / norm, turning the first nonzero iterate into an unbounded kick
    enc = _encoder()
    ct = _class_tokens()
    batch = _batch()
    gp = init_prompt(PromptConfig(length=2), DIM, 11, "g")
    own = rng(11, "own").normal(size=DIM)
    dp = np.zeros((2, DIM))
    rate = 1e-3
    for _ in range(50):
        _, grad, _ = domain_loss(batch, dp, gp, enc, ct, own, TAU)
        dp = dp - rate * grad
    assert np.linalg.norm(dp) < 1.0


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
    batch = _batch(domains=2)
    batch.domains[0] = -1  # style-target entries must be filtered out upstream
    with pytest.raises(DataError):
        classifier_loss(batch, DomainClassifier.init(2, DIM))
