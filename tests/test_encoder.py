"""Contract tests for the frozen encoder.

The determinism and freezing guarantees are checked bitwise; the text-tower
backward is checked against central finite differences; the near-linearity
of tanh at small token norms is asserted at the documented tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedstyle.encoder import EncoderConfig, FrozenEncoder
from fedstyle.errors import ConfigurationError, DomainError, ParameterError

CFG = EncoderConfig(dim=16, max_tokens=8, seed=3)
ENC = FrozenEncoder(CFG)


def _unit(v):
    return v / np.linalg.norm(v)


def _texts(blocks, class_tokens, enc=ENC):
    # encode_class_texts with the class token right after the blocks
    position = sum(np.shape(b)[-2] for b in blocks)
    return enc.encode_class_texts(blocks, enc.class_term(class_tokens, position))


def _check_backward(enc, blocks, classes, upstream, step=1):
    # central differences of sum(upstream * encode_class_texts) per block entry
    def value(bs):
        return float(np.sum(upstream * _texts(bs, classes, enc)[0]))

    grads = enc.encode_class_texts_backward(_texts(blocks, classes, enc)[1], upstream)
    h = 1e-6
    for b, block in enumerate(blocks):
        assert grads[b].shape == block.shape
        for i in range(block.shape[0]):
            for j in range(0, block.shape[1], step):
                plus = [x.copy() for x in blocks]
                minus = [x.copy() for x in blocks]
                plus[b][i, j] += h
                minus[b][i, j] -= h
                numeric = (value(plus) - value(minus)) / (2 * h)
                assert abs(grads[b][i, j] - numeric) < 1e-7


# ---------------------------------------------------------------------------
# construction and determinism
# ---------------------------------------------------------------------------


def test_same_seed_bitwise_identical_parameters():
    a = FrozenEncoder(EncoderConfig(dim=32, max_tokens=10, seed=11))
    b = FrozenEncoder(EncoderConfig(dim=32, max_tokens=10, seed=11))
    assert a.projection.tobytes() == b.projection.tobytes()
    assert a.position_scale.tobytes() == b.position_scale.tobytes()
    assert a.parameter_digest() == b.parameter_digest()


def test_different_seed_differs():
    a = FrozenEncoder(EncoderConfig(dim=32, max_tokens=10, seed=11))
    b = FrozenEncoder(EncoderConfig(dim=32, max_tokens=10, seed=12))
    assert a.parameter_digest() != b.parameter_digest()


def test_projection_range_and_position_scale_range():
    enc = FrozenEncoder(EncoderConfig(dim=64, max_tokens=12, seed=0))
    bound = 1.0 / np.sqrt(64)
    assert np.all(np.abs(enc.projection) <= bound)
    assert np.all(enc.position_scale >= 0.5)
    assert np.all(enc.position_scale <= 1.5)


def test_parameters_are_read_only():
    with pytest.raises(ValueError):
        ENC.projection[0, 0] = 1.0
    with pytest.raises(ValueError):
        ENC.position_scale[0] = 1.0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EncoderConfig(dim=1, max_tokens=12)
    with pytest.raises(ConfigurationError):
        EncoderConfig(dim=8, max_tokens=1)


# ---------------------------------------------------------------------------
# image tower
# ---------------------------------------------------------------------------


def test_encode_image_matches_definition():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=CFG.dim)
    got = ENC.encode_image_batch(raw[None, :])[0]
    expected = _unit(ENC.projection @ raw)
    assert np.allclose(got, expected, atol=1e-15)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_encode_image_batch_equals_loop():
    rng = np.random.default_rng(1)
    raws = rng.normal(size=(5, CFG.dim))
    batch = ENC.encode_image_batch(raws)
    for i in range(5):
        assert np.allclose(batch[i], ENC.encode_image_batch(raws[i : i + 1])[0], atol=1e-14)


def test_encode_image_rejects_bad_input():
    with pytest.raises(ParameterError):
        ENC.encode_image_batch(np.zeros((1, CFG.dim + 1)))
    with pytest.raises(ParameterError):
        ENC.encode_image_batch(np.zeros(CFG.dim))
    with pytest.raises(DomainError):
        ENC.encode_image_batch(np.full((1, CFG.dim), np.nan))
    with pytest.raises(DomainError):
        ENC.encode_image_batch(np.zeros((1, CFG.dim)))


# ---------------------------------------------------------------------------
# token sequences
# ---------------------------------------------------------------------------


def test_token_sequence_padding_and_order():
    # tokens take positions 0..m-1 in order; the positions after them are
    # zero padding and add nothing
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=(3, CFG.dim)) * 0.1
    padded = np.zeros((CFG.max_tokens, CFG.dim))
    padded[:3] = tokens
    expected = _unit(ENC.projection @ np.tanh(ENC.position_scale @ padded))
    assert np.allclose(ENC.encode_text(tokens), expected, atol=1e-14)


def test_token_sequence_overflow_rejected():
    with pytest.raises(ParameterError):
        ENC.encode_text(np.ones((CFG.max_tokens + 1, CFG.dim)))
    with pytest.raises(ParameterError):
        ENC.encode_text(np.zeros((0, CFG.dim)))
    with pytest.raises(ParameterError):
        # 4 + 4 prompt rows leave no position for the class token
        _texts([np.ones((4, CFG.dim)), np.ones((4, CFG.dim))], np.ones((2, CFG.dim)))
    with pytest.raises(ParameterError, match="no room"):
        # a block from position 2 runs into a class token prepared for 5
        ENC.encode_class_texts([np.ones((4, CFG.dim))], ENC.class_term(np.ones((2, CFG.dim)), 5), 2)


# ---------------------------------------------------------------------------
# text tower
# ---------------------------------------------------------------------------


def test_encode_text_matches_definition():
    rng = np.random.default_rng(2)
    prompts = rng.normal(size=(2, CFG.dim)) * 0.1
    fixed = rng.normal(size=(1, CFG.dim)) * 0.01
    s = ENC.position_scale
    pooled = s[0] * prompts[0] + s[1] * prompts[1] + s[2] * fixed[0]
    expected = _unit(ENC.projection @ np.tanh(pooled))
    assert np.allclose(ENC.encode_text(np.vstack([prompts, fixed])), expected, atol=1e-14)
    assert np.allclose(_texts([prompts], fixed)[0][0], expected, atol=1e-14)


def test_padding_tokens_change_nothing():
    # an explicit zero token occupies a position but adds nothing, exactly
    # like the implicit padding does
    rng = np.random.default_rng(3)
    fixed = rng.normal(size=(2, CFG.dim)) * 0.01
    bare = ENC.encode_text(fixed)
    extended = ENC.encode_text(np.vstack([fixed, np.zeros((1, CFG.dim))]))
    assert np.array_equal(bare, extended)


def test_token_order_matters_with_distinct_scalings():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, CFG.dim)) * 0.01
    e1 = ENC.encode_text(np.stack([a, b]))
    e2 = ENC.encode_text(np.stack([b, a]))
    assert not np.allclose(e1, e2, atol=1e-9)


def test_all_zero_tokens_is_domain_error():
    zero = np.zeros((1, CFG.dim))
    with pytest.raises(DomainError):
        ENC.encode_text(np.zeros((2, CFG.dim)))
    with pytest.raises(DomainError):
        _texts([zero], zero)


def test_backward_rejects_an_upstream_of_the_wrong_shape():
    classes = np.full((2, CFG.dim), 0.01)
    _, state = _texts([np.full((1, CFG.dim), 0.1)], classes)
    with pytest.raises(ParameterError):
        ENC.encode_class_texts_backward(state, np.ones((3, CFG.dim)))


def test_near_linear_additivity_at_small_norms():
    # At token norm 0.01 the tanh curvature error is third order; the encoded
    # direction must match the direction of A @ (position-scaled token sum)
    # to within 1e-3.
    rng = np.random.default_rng(5)
    a = _unit(rng.normal(size=CFG.dim)) * 0.01
    b = _unit(rng.normal(size=CFG.dim)) * 0.01
    s = ENC.position_scale
    linear = _unit(ENC.projection @ (s[0] * a + s[1] * b))
    assert np.linalg.norm(ENC.encode_text(np.stack([a, b])) - linear) < 1e-3


def test_encode_class_texts_backward_over_several_blocks_matches_finite_differences():
    rng = np.random.default_rng(6)
    prompts = rng.normal(size=(3, CFG.dim)) * 0.3
    second = rng.normal(size=(2, CFG.dim)) * 0.3
    fixed = rng.normal(size=(1, CFG.dim)) * 0.01
    _check_backward(ENC, [prompts, second], fixed, rng.normal(size=(1, CFG.dim)), step=3)


# ---------------------------------------------------------------------------
# batched class-text helper
# ---------------------------------------------------------------------------


def test_encode_class_texts_equals_per_class_loop():
    rng = np.random.default_rng(7)
    block_a = rng.normal(size=(2, CFG.dim)) * 0.2
    block_b = rng.normal(size=(2, CFG.dim)) * 0.2
    classes = rng.normal(size=(5, CFG.dim)) * 0.01
    batch, _ = _texts([block_a, block_b], classes)
    for c in range(5):
        single = _texts([block_a, block_b], classes[c : c + 1])[0][0]
        assert np.allclose(batch[c], single, atol=1e-14)
        assert np.allclose(batch[c], ENC.encode_text(np.vstack([block_a, block_b, classes[c]])), atol=1e-14)


def test_encode_class_texts_with_a_sample_axis_equals_per_sample_calls():
    rng = np.random.default_rng(10)
    shared = rng.normal(size=(2, CFG.dim)) * 0.2
    per_sample = rng.normal(size=(4, 2, CFG.dim)) * 0.2
    classes = rng.normal(size=(3, CFG.dim)) * 0.01
    batch, _ = _texts([shared, per_sample], classes)
    assert batch.shape == (4, 3, CFG.dim)
    for n in range(4):
        assert np.allclose(batch[n], _texts([shared, per_sample[n]], classes)[0], atol=1e-14)


def test_encode_class_texts_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    block = rng.normal(size=(2, CFG.dim)) * 0.2
    classes = rng.normal(size=(3, CFG.dim)) * 0.01
    _check_backward(ENC, [block], classes, rng.normal(size=(3, CFG.dim)), step=2)


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_text_embeddings_are_unit_norm(seed):
    rng = np.random.default_rng(seed)
    fixed = rng.normal(size=(2, CFG.dim)) * 0.05
    if np.linalg.norm(fixed) == 0.0:
        return
    e = ENC.encode_text(fixed)
    assert abs(np.linalg.norm(e) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# prepared constants
# ---------------------------------------------------------------------------


def test_a_prefix_and_a_zero_slot_give_the_bits_of_pooling_every_block():
    # a frozen leading block pooled once, or a zero slot left out, changes
    # no bit of the embeddings or of the other block's gradient
    rng = np.random.default_rng(11)
    frozen, trained = rng.normal(size=(2, 3, 2, CFG.dim)) * 0.2
    term = ENC.class_term(rng.normal(size=(4, CFG.dim)) * 0.01, 4)
    upstream = rng.normal(size=(3, 4, CFG.dim))
    pairs = [
        ((([frozen, trained],), 1), (([trained], term, 2, ENC.pool_prefix([frozen])), 0)),
        ((([frozen, np.zeros_like(frozen)],), 0), (([frozen], term), 0)),
        ((([np.zeros_like(frozen), trained],), 1), (([trained], term, 2), 0)),
    ]
    for (full, slot), (prepared, index) in pairs:
        text, state = ENC.encode_class_texts(*full, term)
        got, got_state = ENC.encode_class_texts(*prepared)
        assert got.tobytes() == text.tobytes()
        want = ENC.encode_class_texts_backward(state, upstream)[slot]
        grads = ENC.encode_class_texts_backward(got_state, upstream)
        assert len(grads) == len(prepared[0]) and grads[index].tobytes() == want.tobytes()


def test_prepared_constants_are_validated_once_and_read_only():
    classes = np.full((2, CFG.dim), 0.01)
    term = ENC.class_term(classes, 3)
    assert np.array_equal(term.scaled, ENC.position_scale[3] * classes)
    prefix = ENC.pool_prefix([np.full((2, CFG.dim), 0.1)])
    for constant in (term.scaled, prefix):
        with pytest.raises(ValueError):
            constant[0] = 1.0
    bad = classes.copy()
    bad[1, 2] = np.nan
    with pytest.raises(DomainError):
        ENC.class_term(bad, 3)
    with pytest.raises(DomainError):
        ENC.pool_prefix([np.full((2, CFG.dim), np.inf)])
    for tokens, position in ((classes[0], 3), (classes, CFG.max_tokens), (classes, -1)):
        with pytest.raises(ParameterError):
            ENC.class_term(tokens, position)
