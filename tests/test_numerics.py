"""Oracle and property tests for the numeric kernels.

Expected values are either computed in-test with plain ``math`` (independent
of the implementation) or pinned by elementary identities.  The closed-form
gradients of the training losses are checked through ``grad_check`` next to
each loss's own tests.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedstyle.errors import DomainError, ParameterError
from fedstyle.numerics import (
    PROB_FLOOR,
    AdamState,
    adam_step,
    sgd_step,
    softmax_ce_cols,
)
from gradcheck import grad_check
from references import textbook_adam_step

finite_floats = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def _math_softmax(z, temperature=1.0):
    # oracle: p_i = exp(z_i / t) / sum, computed with math.exp directly
    top = max(z)
    e = [math.exp((v - top) / temperature) for v in z]
    return np.array([v / sum(e) for v in e])


def _row_softmax(z, temperature=1.0):
    # the softmax inside softmax_ce_cols, read back from the logit gradient
    # p - onehot of one column of logits z / t with label 0
    z = np.asarray(z, dtype=float)[:, None] / temperature
    _, dlogits = softmax_ce_cols(z, np.array([0]))
    return dlogits[:, 0] + np.eye(z.shape[0])[0]


def test_softmax_two_logits_matches_hand_computation():
    t = 0.5
    z = [1.0, 2.0]
    e = [math.exp(v / t) for v in z]
    expected = [v / sum(e) for v in e]
    assert np.allclose(_row_softmax(z, temperature=t), expected, rtol=0, atol=1e-15)


def test_softmax_equal_logits_is_uniform():
    assert np.allclose(_row_softmax(np.zeros(4), temperature=0.01), 0.25)


@given(
    logits=st.lists(finite_floats, min_size=1, max_size=8),
    shift=finite_floats,
    temperature=st.floats(min_value=1e-2, max_value=10.0),
)
@settings(max_examples=100, deadline=None)
def test_softmax_shift_invariance_and_normalization(logits, shift, temperature):
    z = np.array(logits)
    p = _row_softmax(z, temperature)
    q = _row_softmax(z + shift, temperature)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0.0)
    assert np.allclose(p, q, atol=1e-9)


def test_softmax_temperature_extremes():
    z = np.array([0.0, 1.0])
    sharp = _row_softmax(z, temperature=1e-3)
    flat = _row_softmax(z, temperature=1e3)
    assert sharp[1] > 1.0 - 1e-12
    assert np.allclose(flat, 0.5, atol=1e-3)


def test_softmax_rejects_bad_inputs():
    # no rows, labels that do not match a stack of logit matrices, and a
    # label outside a stacked column
    with pytest.raises(ParameterError):
        softmax_ce_cols(np.zeros((3, 0)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ParameterError):
        softmax_ce_cols(np.zeros((2, 3, 4)), np.zeros((4, 2), dtype=np.int64))
    with pytest.raises(ParameterError):
        softmax_ce_cols(np.zeros((2, 3, 4)), np.full((2, 4), 3))


@pytest.mark.parametrize(
    "labels", [[0.5, 1.7, 2.2, 0.9], [0.0, 1.0, 2.0, 0.0], [True, False, True, False]],
    ids=["fractions", "integral-floats", "bools"],
)
def test_softmax_ce_cols_rejects_labels_that_are_not_integers(labels):
    # a cast would score the fractions as classes [0, 1, 2, 0] and the
    # bools as classes 1 and 0
    with pytest.raises(ParameterError, match="labels must be integers"):
        softmax_ce_cols(np.zeros((3, 4)), labels)


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
def test_softmax_ce_cols_reads_any_integer_labels_as_int64(dtype):
    logits = np.random.default_rng(5).normal(size=(2, 3, 40))
    labels = np.random.default_rng(6).integers(0, 3, size=(2, 40))
    want = softmax_ce_cols(logits, labels)
    got = softmax_ce_cols(logits, labels.astype(dtype))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_softmax_ce_cols_matches_scalar_primitives():
    # oracle: each column through a plain-math softmax, -log of the clamped
    # label mass, gradient p - onehot; the logits are a transposed view, so
    # the kernel's label writes must reach a contiguous copy
    logits = np.array([[0.2, -1.0, 3.0], [1e3, 0.0, -1e3]]).T
    labels = np.array([2, 2])
    loss, dlogits = softmax_ce_cols(logits, labels)
    for i in range(2):
        p = _math_softmax(logits[:, i])
        assert loss[i] == pytest.approx(-math.log(max(p[labels[i]], PROB_FLOOR)), rel=1e-15)
        assert np.allclose(dlogits[:, i], p - np.eye(3)[labels[i]], rtol=0, atol=1e-15)
    # the second column's label mass underflows to zero: clamped, no inf
    assert loss[1] == pytest.approx(-math.log(1e-12))


@pytest.mark.parametrize("rows", [1, 32, 2000])
@pytest.mark.parametrize("classes", [2, 3, 10])
def test_softmax_ce_cols_on_a_stack_equals_each_matrix_alone(classes, rows):
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(3, classes, rows)) * 3.0
    labels = rng.integers(0, classes, size=(3, rows))
    loss, dlogits = softmax_ce_cols(logits, labels)
    assert loss.shape == (3, rows) and dlogits.shape == logits.shape
    for k in range(3):
        alone, dalone = softmax_ce_cols(logits[k], labels[k])
        assert loss[k].tobytes() == alone.tobytes()
        assert dlogits[k].tobytes() == dalone.tobytes()
    # and every column against the plain-math oracle
    for k, b in np.ndindex(3, rows):
        p = _math_softmax(logits[k, :, b])
        assert loss[k, b] == pytest.approx(-math.log(p[labels[k, b]]), rel=1e-13)
        assert np.allclose(dlogits[k, :, b], p - np.eye(classes)[labels[k, b]], rtol=0, atol=1e-15)


def test_softmax_ce_cols_validates():
    with pytest.raises(ParameterError):
        softmax_ce_cols(np.zeros(3), np.array([0]))
    with pytest.raises(ParameterError):
        softmax_ce_cols(np.zeros((3, 2)), np.array([0]))
    with pytest.raises(ParameterError):
        softmax_ce_cols(np.zeros((3, 2)), np.array([0, 3]))
    with pytest.raises(ParameterError):
        softmax_ce_cols(np.zeros((3, 2)), np.array([-1, 0]))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def test_sgd_step_oracle():
    grad = np.array([0.5, 0.5])
    param = np.array([1.0, -2.0])
    sgd_step(param, grad, 0.1, 0.0)
    assert np.array_equal(param, np.array([0.95, -2.05]))
    # decoupled decay, by hand: p * (1 - lr * wd) - lr * g with lr 0.1, wd 0.5
    decayed = np.array([1.0, -2.0])
    sgd_step(decayed, grad, 0.1, 0.5)
    assert decayed == pytest.approx([1.0 * 0.95 - 0.05, -2.0 * 0.95 - 0.05], rel=1e-15)
    # the gradient untouched
    assert np.array_equal(grad, np.array([0.5, 0.5]))


def test_adam_first_step_matches_scalar_oracle():
    # From zero moments: m_hat = g, v_hat = g^2, so the update is
    # p * (1 - lr*wd) - lr * g / (|g| + eps), derived by hand.
    lr, wd, eps = 1e-3, 0.05, 1e-8
    p0, g0 = 0.7, -0.3
    state = AdamState(learning_rate=lr, weight_decay=wd)
    param = np.array([p0])
    adam_step(state, param, np.array([g0]))
    expected = p0 * (1.0 - lr * wd) - lr * g0 / (abs(g0) + eps)
    assert abs(float(param[0]) - expected) < 1e-15
    assert state.step == 1


def test_adam_second_step_reads_the_stored_moments():
    # Two steps derived by hand with bias corrections 1 - beta^t, t = 1, 2;
    # a moment that is not carried over in place changes the second step.
    lr, wd, eps, b1, b2 = 1e-3, 0.05, 1e-8, 0.9, 0.999
    p, grads = 0.7, (-0.3, 0.2)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        p = p * (1.0 - lr * wd) - lr * (m / (1.0 - b1**t)) / (math.sqrt(v / (1.0 - b2**t)) + eps)
    state = AdamState(learning_rate=lr, weight_decay=wd)
    param = np.array([0.7])
    for g in grads:
        adam_step(state, param, np.array([g]))
    assert state.step == 2
    assert abs(float(param[0]) - p) < 1e-15


def test_adam_is_deterministic_bitwise():
    def run():
        state = AdamState(learning_rate=1e-3, weight_decay=0.05)
        param = np.linspace(-1, 1, 8)
        for i in range(5):
            adam_step(state, param, np.sin(param + i))
        return param

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_adam_on_a_stack_equals_separate_runs_per_slice():
    # One optimizer over (T, ...) stacked parameters must step each slice
    # exactly as T optimizers over the slices alone, moments included.
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(4, 3, 5))
    slices = [stack[t].copy() for t in range(4)]
    stack_state = AdamState(learning_rate=1e-2, weight_decay=0.05)
    slice_states = [AdamState(learning_rate=1e-2, weight_decay=0.05) for _ in range(4)]
    for step in range(5):
        adam_step(stack_state, stack, np.sin((step + 1) * stack))
        for state, param in zip(slice_states, slices):
            adam_step(state, param, np.sin((step + 1) * param))
    for t, (state, param) in enumerate(zip(slice_states, slices)):
        assert stack[t].tobytes() == param.tobytes()
        assert stack_state.first_moment[t].tobytes() == state.first_moment.tobytes()
        assert stack_state.second_moment[t].tobytes() == state.second_moment.tobytes()


def test_adam_on_one_flat_vector_equals_stepping_its_views():
    # Parameters held as views of one vector step as one array to the same
    # bits as each view stepped on its own.
    rng = np.random.default_rng(5)
    flat = rng.normal(size=4 * 15 + 4 * 5)
    views = {"w": flat[:60].reshape(4, 3, 5), "b": flat[60:].reshape(4, 5)}
    separate = {name: value.copy() for name, value in views.items()}
    flat_state = AdamState(learning_rate=1e-2, weight_decay=0.05)
    separate_states = {name: AdamState(learning_rate=1e-2, weight_decay=0.05) for name in views}
    for step in range(5):
        gradient = np.sin((step + 1) * flat)
        adam_step(flat_state, flat, gradient)
        grads = {"w": gradient[:60].reshape(4, 3, 5), "b": gradient[60:].reshape(4, 5)}
        for name, value in separate.items():
            adam_step(separate_states[name], value, grads[name])
    for name, value in separate.items():
        assert views[name].tobytes() == value.tobytes()


def test_adam_matches_the_textbook_formula_over_200_steps():
    # The bias corrections are folded into the step size and epsilon; the
    # reference forms m_hat and v_hat.  Gradient scales from 1e-10 to 1
    # put some entries where epsilon dominates the denominator.
    rng = np.random.default_rng(31)
    param = rng.normal(size=(6, 32, 64))
    expected = param.copy()
    state = AdamState(learning_rate=1e-3, weight_decay=0.05)
    reference = AdamState(learning_rate=1e-3, weight_decay=0.05)
    for _ in range(200):
        grad = rng.normal(size=param.shape) * 10.0 ** rng.uniform(-10, 0, size=param.shape)
        adam_step(state, param, grad)
        textbook_adam_step(reference, expected, grad)
    assert state.step == reference.step == 200
    moments = [(state.first_moment, reference.first_moment), (state.second_moment, reference.second_moment)]
    for got, want in [(param, expected), *moments]:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_adam_rejects_a_non_finite_gradient_before_writing():
    state = AdamState(learning_rate=1e-2)
    param = np.ones(3)
    with pytest.raises(DomainError):
        adam_step(state, param, np.array([1.0, np.nan, 1.0]))
    assert state.step == 0 and state.first_moment is None
    assert np.array_equal(param, np.ones(3))


def test_sgd_rejects_a_non_finite_gradient_before_writing():
    param = np.ones(3)
    with pytest.raises(DomainError):
        sgd_step(param, np.array([1.0, np.inf, 1.0]), 0.1, 0.5)
    assert np.array_equal(param, np.ones(3))


def test_optimizer_shape_mismatch_rejected():
    with pytest.raises(ParameterError):
        sgd_step(np.zeros(3), np.zeros(4), 0.1, 0.0)
    state = AdamState(learning_rate=0.1)
    with pytest.raises(ParameterError):
        adam_step(state, np.zeros(3), np.zeros(4))
    assert state.step == 0


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------


def test_grad_check_accepts_correct_quadratic_gradient():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])

    def loss(params):
        x = params["x"]
        return float(0.5 * x @ a @ x), {"x": a @ x}

    report = grad_check(loss, {"x": np.array([0.3, -1.1])}, step=1e-5, tolerance=1e-4)
    assert report.passed
    assert report.max_rel_error < 1e-7


def test_grad_check_flags_wrong_gradient():
    def loss(params):
        x = params["x"]
        return float(x @ x), {"x": x}  # missing factor of 2

    report = grad_check(loss, {"x": np.array([1.0, 2.0])}, step=1e-5, tolerance=1e-4)
    assert not report.passed
