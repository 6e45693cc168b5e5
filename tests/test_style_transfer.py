"""Style-transfer tests: loss oracles, gradients vs finite differences,
training determinism, lockstep training against one-pair calls, and bank
construction."""

import math
import re

import numpy as np
import pytest

from fedstyle.config import variant_toggles
from fedstyle.data import LabeledEmbeddings, WorldSpec, generate_world, leave_one_out
from fedstyle.encoder import EncoderConfig, FrozenEncoder
from fedstyle import style_transfer
from fedstyle.data import TARGET_KEY
from fedstyle.errors import ConfigurationError, DataError, DomainError, NonFiniteLossError, ParameterError
from fedstyle.federation import run_stage_one, transform_jobs
from fedstyle.prompts import PromptConfig
from fedstyle.style_transfer import (
    TransferConfig,
    TransformJob,
    TransformNetwork,
    _objective,
    build_augmentation_bank,
    class_text_embeddings,
    text_delta_directions,
    train_transform,
    transfer_loss,
)
from gradcheck import grad_check
from references import normalized_objective, textbook_adam_step, train_in_float64

DIM = 8


def _softmax(z, temperature):
    # test oracle: temperature softmax of one logit vector
    e = np.exp((z - np.max(z)) / temperature)
    return e / e.sum()


def _net_with(delta_bias, dim=DIM, hidden=4):
    """A transform whose correction is the constant ``delta_bias``."""
    net = TransformNetwork.init(dim, hidden, 0, 1, seed=0)
    net.params["w2"] = np.zeros((dim, hidden))
    net.params["b2"] = np.asarray(delta_bias, dtype=float)
    return net


def _batch(embeddings, labels):
    n = len(labels)
    return LabeledEmbeddings(np.asarray(embeddings, float), labels, np.zeros(n))


def _alignment(net, batch, directions):
    """Mean alignment term alone: the objective at alignment weight 1."""
    return _objective(net, batch, np.asarray(directions, float), None, 1.0, 1.0)[1]


def _consistency(net, batch, class_text, temperature):
    """Mean consistency term alone: the objective at alignment weight 0."""
    return _objective(net, batch, None, class_text, temperature, 0.0)[2]


# ---------------------------------------------------------------------------
# alignment loss
# ---------------------------------------------------------------------------


def test_alignment_toy_orthogonal_directions():
    # Q maps (1, 0) to (1, 1): the shift is (0, 1), orthogonal to the text
    # direction (1, 0), so the per-sample loss is exactly 1.
    net = _net_with([0.0, 1.0], dim=2, hidden=2)
    batch = _batch([[1.0, 0.0]], [0])
    assert _alignment(net, batch, [[1.0, 0.0]]) == pytest.approx(1.0)


def test_alignment_range_and_extremes():
    net = _net_with([0.0, 0.5], dim=2, hidden=2)
    batch = _batch([[1.0, 0.0]], [0])
    assert _alignment(net, batch, [[0.0, 1.0]]) == pytest.approx(0.0)
    assert _alignment(net, batch, [[0.0, -1.0]]) == pytest.approx(2.0)


def test_alignment_degenerate_shift_is_error():
    net = _net_with(np.zeros(2), dim=2, hidden=2)  # exactly zero correction
    batch = _batch([[1.0, 0.0]], [0])
    with pytest.raises(DomainError):
        _alignment(net, batch, [[1.0, 0.0]])


def test_text_delta_directions_unit_and_degenerate():
    enc = FrozenEncoder(EncoderConfig(dim=DIM, max_tokens=6, seed=2))
    rng = np.random.default_rng(1)
    class_tokens = rng.normal(size=(3, DIM)) * 0.01
    a = rng.normal(size=DIM) * 0.01
    b = rng.normal(size=DIM) * 0.01
    dirs = text_delta_directions(enc, a, b, class_tokens)
    assert dirs.shape == (3, DIM)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        text_delta_directions(enc, a, a, class_tokens)  # identical descriptions


# ---------------------------------------------------------------------------
# consistency loss
# ---------------------------------------------------------------------------


def test_consistency_matches_hand_chain():
    # oracle: softmax over cosine similarities / tau, cross-entropy per
    # sample, averaged, computed here with the public scalar primitives
    enc = FrozenEncoder(EncoderConfig(dim=DIM, max_tokens=6, seed=3))
    rng = np.random.default_rng(2)
    class_tokens = rng.normal(size=(3, DIM)) * 0.01
    net = _net_with(rng.normal(size=DIM) * 0.1)
    batch = _batch(rng.normal(size=(4, DIM)), [0, 1, 2, 1])
    tau = 0.5
    text = class_text_embeddings(enc, class_tokens)
    got = _consistency(net, batch, text, tau)

    moved = batch.embeddings + net.params["b2"]  # the constant correction
    expected = 0.0
    for i in range(4):
        q = moved[i] / np.linalg.norm(moved[i])
        cos = text @ q
        probs = _softmax(cos, tau)
        expected += -math.log(probs[batch.labels[i]])
    assert got == pytest.approx(expected / 4, rel=1e-10)


@pytest.mark.parametrize("w", [0.3, 0.5])
def test_transfer_loss_mixes_means(w):
    enc = FrozenEncoder(EncoderConfig(dim=DIM, max_tokens=6, seed=4))
    rng = np.random.default_rng(3)
    class_tokens = rng.normal(size=(2, DIM)) * 0.01
    src = rng.normal(size=DIM) * 0.01
    tgt = rng.normal(size=DIM) * 0.01
    net = _net_with(rng.normal(size=DIM) * 0.2)
    batch = _batch(rng.normal(size=(5, DIM)), [0, 1, 0, 1, 0])
    tau = 0.5
    combined = transfer_loss(net, batch, enc, src, tgt, class_tokens, tau, alignment_weight=w)
    align = _alignment(net, batch, text_delta_directions(enc, src, tgt, class_tokens))
    cons = _consistency(net, batch, class_text_embeddings(enc, class_tokens), tau)
    assert combined == pytest.approx(w * align + (1 - w) * cons, rel=1e-12)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _random_setup(seed, n=5, classes=3):
    rng = np.random.default_rng(seed)
    enc = FrozenEncoder(EncoderConfig(dim=DIM, max_tokens=6, seed=seed))
    class_tokens = rng.normal(size=(classes, DIM)) * 0.01
    src = rng.normal(size=DIM) * 0.01
    tgt = rng.normal(size=DIM) * 0.01
    batch = _batch(rng.normal(size=(n, DIM)), rng.integers(0, classes, size=n))
    params = {
        "w1": rng.normal(size=(4, DIM)) * 0.4,
        "b1": rng.normal(size=4) * 0.1,
        "w2": rng.normal(size=(DIM, 4)) * 0.3,
        "b2": rng.normal(size=DIM) * 0.2,
    }
    dirs = text_delta_directions(enc, src, tgt, class_tokens)
    text = class_text_embeddings(enc, class_tokens)
    return params, batch, dirs, text


@pytest.mark.parametrize("weight", [1.0, 0.0, 0.5])
def test_objective_gradients_match_finite_differences(weight):
    params, batch, dirs, text = _random_setup(11)

    def loss_fn(p):
        total, _, _, grads = _objective(TransformNetwork(0, 1, p), batch, dirs, text, 0.5, weight)
        return total, grads

    report = grad_check(loss_fn, params, step=1e-5, tolerance=1e-4)
    assert report.passed, report.format()


def _close(got, want):
    """Within 1e-12 of the reference, relative to its largest entry."""
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
def test_stacked_objective_matches_the_normalized_formulation(weight):
    # The kernel works on unnormalized rows; the reference forms the unit
    # rows and backpropagates through each normalization.  Three transforms
    # at the default sizes (32 rows, d = 64, hidden 32, 10 classes).
    t, rows, dim, hidden, classes = 3, 32, 64, 32, 10
    rng = np.random.default_rng(23)

    def unit(*shape):
        x = rng.normal(size=shape)
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    params = {
        "w1": rng.normal(size=(t, hidden, dim)) * 0.2,
        "b1": rng.normal(size=(t, hidden)) * 0.1,
        "w2": rng.normal(size=(t, dim, hidden)) * 0.2,
        "b2": rng.normal(size=(t, dim)) * 0.1,
    }
    args = (
        params, unit(t, rows, dim), rng.integers(0, classes, (t, rows)), unit(t, classes, dim),
        unit(classes, dim), 0.15, weight, ["0->1", "1->0", "2->0"], np.arange(t)[:, None],
    )
    got = style_transfer._stacked_objective(*args)
    want = normalized_objective(*args)
    for part, expected in zip(got[:3], want[:3]):
        assert np.allclose(part, expected, rtol=1e-12, atol=0)
    assert sorted(got[3]) == sorted(want[3])
    for name, grad in want[3].items():
        assert _close(got[3][name], grad), name


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _tiny_world(seed=0):
    spec = WorldSpec(classes=3, domains=3, samples_per_cell=12, noise=0.05, dim=12, seed=seed, shift_scale=1.0)
    enc = FrozenEncoder(EncoderConfig(dim=12, max_tokens=6, seed=seed))
    return generate_world(spec, enc), enc


def _job(split, source, target):
    return TransformJob(
        split.clients[source], source, target,
        split.source_domain_tokens[source], split.source_domain_tokens[target],
    )


def test_train_transform_zero_epochs_returns_init():
    # the training state is float32, so untouched networks are the float32
    # rounding of the float64 init
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    cfg = TransferConfig(epochs=0, batch_size=16)
    jobs = [_job(split, 0, 1), _job(split, 1, 0)]
    result = train_transform(jobs, enc, split.class_tokens, cfg, temperature=0.5, seed=5)
    for job, net in zip(jobs, result.networks()):
        assert (net.source, net.target) == (job.source, job.target)
        fresh = TransformNetwork.init(12, cfg.hidden_dim(12), job.source, job.target, seed=5)
        assert sorted(net.params) == sorted(fresh.params)
        for key in fresh.params:
            assert net.params[key].tobytes() == fresh.params[key].astype(np.float32).tobytes()
    assert result.epoch_losses.shape == (2, 0)


def test_train_transform_deterministic_and_improves_alignment():
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    cfg = TransferConfig(epochs=3, batch_size=8)
    jobs = [_job(split, 0, 1), _job(split, 1, 0)]
    args = (jobs, enc, split.class_tokens, cfg, 0.05, 7)
    a = train_transform(*args)
    b = train_transform(*args)
    for key in a.params:
        assert a.params[key].tobytes() == b.params[key].tobytes()
    assert a.epoch_losses.tobytes() == b.epoch_losses.tobytes()
    # each transform's loss after training is below its starting loss
    assert np.all(a.epoch_losses[:, -1] < a.epoch_losses[:, 0])
    for job, net in zip(jobs, a.networks()):
        init_net = TransformNetwork.init(12, cfg.hidden_dim(12), job.source, job.target, seed=7)
        dirs = text_delta_directions(enc, job.source_token, job.target_token, split.class_tokens)
        before = _alignment(init_net, job.dataset, dirs)
        after = _alignment(net, job.dataset, dirs)
        assert after < before


def test_the_lockstep_state_stays_float32_and_transfer_loss_float64(monkeypatch):
    # Under numpy 2's promotion rules a float64 scalar or array would upcast
    # the float32 state without failing anything else.  Numpy float64
    # settings are passed on purpose: they must not promote it either.  The
    # forward's results and the consistency logits are recorded where they
    # are made, so one intermediate cast to float64 shows.  The backward
    # writes each gradient into a float32 view with ``out=``, which casts a
    # float64 result silently, so the operands of those writes, ``ddelta``
    # and ``dpre``, are recorded as well.
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    jobs = [_job(split, 0, 1), _job(split, 1, 0)]
    objective, adam = style_transfer._stacked_objective, style_transfer.adam_step
    forward, cross_entropy = style_transfer._transform_forward, style_transfer.softmax_ce_cols
    seen = {"objective": [], "adam_step": [], "intermediates": [], "backward": []}
    writes = []

    class RecordingNumpy:
        # numpy, except that a matmul or sum into ``out=`` records the dtype
        # of its first operand
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b, out=None):
            if out is not None:
                writes.append(a.dtype)
            return np.matmul(a, b, out=out)

        def sum(self, a, axis=None, out=None):
            if out is not None:
                writes.append(a.dtype)
            return np.sum(a, axis=axis, out=out)

    def spy_objective(params, z, labels, directions, class_text, *rest, out=None):
        writes.clear()
        total, align, cons, grads = objective(params, z, labels, directions, class_text, *rest, out=out)
        assert len(writes) == 4, writes
        seen["backward"].append(dict(zip(("ddelta -> w2", "ddelta -> b2", "dpre -> w1", "dpre -> b1"), writes)))
        arrays = {**params, "z": z, "directions": directions, "class_text": class_text, "total": total}
        arrays.update({f"grad[{name}]": grad for name, grad in grads.items()})
        seen["objective"].append({name: array.dtype for name, array in arrays.items()})
        return total, align, cons, grads

    def spy_forward(params, z, out=(None, None)):
        hidden, delta = forward(params, z, out=out)
        seen["intermediates"].append({"hidden": hidden.dtype, "delta": delta.dtype})
        return hidden, delta

    def spy_cross_entropy(logits, labels):
        seen["intermediates"].append({"logits": logits.dtype})
        return cross_entropy(logits, labels)

    def spy_adam(state, param, grad):
        adam(state, param, grad)
        moments = {"param": param, "grad": grad, "m": state.first_moment, "v": state.second_moment}
        seen["adam_step"].append({name: array.dtype for name, array in moments.items()})

    monkeypatch.setattr(style_transfer, "_stacked_objective", spy_objective)
    monkeypatch.setattr(style_transfer, "_transform_forward", spy_forward)
    monkeypatch.setattr(style_transfer, "softmax_ce_cols", spy_cross_entropy)
    monkeypatch.setattr(style_transfer, "adam_step", spy_adam)
    monkeypatch.setattr(style_transfer, "np", RecordingNumpy())
    config = TransferConfig(alignment_weight=np.float64(0.5), epochs=2, batch_size=8)
    result = train_transform(jobs, enc, split.class_tokens, config, np.float64(0.05), 7)
    steps = 2 * math.ceil(len(jobs[0].dataset) / 8)
    assert len(seen["adam_step"]) == len(seen["objective"]) == len(seen["backward"]) == steps
    assert len(seen["intermediates"]) == 2 * steps
    for dtypes in seen["objective"] + seen["adam_step"] + seen["intermediates"] + seen["backward"]:
        assert set(dtypes.values()) == {np.dtype(np.float32)}, dtypes
    assert {p.dtype for p in result.params.values()} == {np.dtype(np.float32)}
    assert result.epoch_losses.dtype == np.float64

    for records in seen.values():
        records.clear()
    net = result.networks()[0]
    loss = transfer_loss(net, jobs[0].dataset, enc, jobs[0].source_token, jobs[0].target_token,
                         split.class_tokens, 0.05, 0.5)
    assert np.isfinite(loss) and len(seen["objective"]) == len(seen["backward"]) == 1
    assert len(seen["intermediates"]) == 2
    for dtypes in seen["objective"] + seen["intermediates"] + seen["backward"]:
        assert set(dtypes.values()) == {np.dtype(np.float64)}, dtypes


@pytest.mark.parametrize("temperature", [0.0, -0.1, math.nan, math.inf, True])
@pytest.mark.parametrize("entry", ["train_transform", "transfer_loss"])
def test_stage_one_rejects_a_bad_temperature_before_any_work(monkeypatch, entry, temperature):
    # 0 used to divide by zero, NaN to diverge at epoch 0, -0.1 to train on
    # an inverted softmax and True at temperature 1
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    job = _job(split, 0, 1)

    def no_work(*args, **kwargs):
        raise AssertionError("a text was encoded before the temperature was checked")

    monkeypatch.setattr(style_transfer, "text_delta_directions", no_work)
    with pytest.raises(ParameterError, match="temperature must be finite and positive"):
        if entry == "train_transform":
            train_transform([job], enc, split.class_tokens, TransferConfig(epochs=1, batch_size=8), temperature, 0)
        else:
            net = TransformNetwork.init(12, 6, job.source, job.target, seed=0)
            transfer_loss(net, job.dataset, enc, job.source_token, job.target_token, split.class_tokens,
                          temperature, 0.5)


def test_train_transform_empty_dataset_rejected():
    world, enc = _tiny_world()
    empty = world.samples.subset(np.arange(0))
    job = TransformJob(empty, 0, 1, np.ones(12) * 0.01, np.ones(12) * 0.02)
    with pytest.raises(ConfigurationError):
        train_transform([job], enc, np.eye(12)[:2] * 0.01, TransferConfig(epochs=5, batch_size=16), 0.5, 0)
    with pytest.raises(ConfigurationError):
        train_transform([], enc, np.eye(12)[:2] * 0.01, TransferConfig(epochs=5, batch_size=16), 0.5, 0)


def test_train_transform_stack_equals_one_pair_calls():
    # No cross-talk: each transform of a stacked call, the held-out
    # description's pair included, trains exactly as it does alone.  A batch
    # size that does not divide the 36-row local sets leaves a 1-row batch.
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    jobs = transform_jobs(split, include_target_description=True)
    assert len(jobs) == 4 and any(job.target == TARGET_KEY for job in jobs)
    cfg = TransferConfig(epochs=2, batch_size=5)
    stacked = train_transform(jobs, enc, split.class_tokens, cfg, 0.05, 3)
    assert stacked.epoch_losses.shape == (4, 2)
    for t, job in enumerate(jobs):
        alone = train_transform([job], enc, split.class_tokens, cfg, 0.05, 3)
        for key in alone.params:
            assert stacked.params[key][t].tobytes() == alone.params[key][0].tobytes()
        assert stacked.epoch_losses[t].tobytes() == alone.epoch_losses[0].tobytes()


def test_stage_one_pools_match_the_reference_formulas_on_the_default_config(monkeypatch):
    # Seed 0, holdout 1, variant full, at the package defaults: 6 transforms
    # x 20 epochs x 63 steps.  With training in float64, state and pools,
    # the reference run trains with the normalized objective and textbook
    # Adam; every pool row stays within 1e-12.  Each substitute counts its
    # calls, so the reference run cannot bypass them.  The float32 run's
    # pools, float32 themselves, stay within 5e-6 of the float64 run's
    # (measured: 1.4e-6 on this cell, at most 2.0e-6 over seeds 0-2 x
    # holdouts 0-3 x full and target-text).
    encoder, transfer = FrozenEncoder(EncoderConfig(seed=0)), TransferConfig()
    split = leave_one_out(generate_world(WorldSpec(seed=0), encoder), 1)
    args = (split, encoder, transfer, PromptConfig().temperature, variant_toggles("full"), 0)
    single = run_stage_one(*args)
    train_in_float64(monkeypatch)
    got = run_stage_one(*args)
    calls = {"objective": 0, "adam_step": 0}

    def objective(*a, **kw):
        calls["objective"] += 1
        return normalized_objective(*a, **kw)

    def adam(*a, **kw):
        calls["adam_step"] += 1
        return textbook_adam_step(*a, **kw)

    monkeypatch.setattr(style_transfer, "_stacked_objective", objective)
    monkeypatch.setattr(style_transfer, "adam_step", adam)
    want = run_stage_one(*args)
    steps = transfer.epochs * math.ceil(len(split.clients[0]) / transfer.batch_size)
    assert steps == 1260 and calls == {"objective": steps, "adam_step": steps}
    for pool in ("train_pool", "head_pool"):
        a, b, c = getattr(got, pool), getattr(want, pool), getattr(single, pool)
        assert _close(a.rows, b.rows), pool
        assert np.array_equal(a.labels, b.labels) and np.array_equal(a.domains, b.domains)
        assert np.max(np.abs(c.rows - a.rows)) <= 5e-6 * np.max(np.abs(a.rows)), pool
        assert np.array_equal(c.labels, a.labels) and np.array_equal(c.domains, a.domains)


def test_train_transform_rejects_mixed_local_set_lengths():
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    short = _job(split, 1, 0)
    short = TransformJob(
        short.dataset.subset(np.arange(30)), short.source, short.target, short.source_token, short.target_token
    )
    with pytest.raises(ConfigurationError, match="lengths"):
        train_transform([_job(split, 0, 1), short], enc, split.class_tokens, TransferConfig(epochs=1, batch_size=16), 0.05, 0)


# -1 would steer its row by the last class's text direction, and C by none
_BAD_LABELS = pytest.mark.parametrize("label", [-1, 3], ids=["class=-1", "class=C"])
_WEIGHTS = pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])


@_WEIGHTS
@_BAD_LABELS
def test_train_transform_rejects_a_class_label_out_of_range_before_a_step(monkeypatch, label, weight):
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    good, job = _job(split, 0, 1), _job(split, 1, 0)
    labels = job.dataset.labels.copy()
    labels[4] = label
    dataset = LabeledEmbeddings(job.dataset.embeddings, labels, job.dataset.domains)
    bad = TransformJob(dataset, job.source, job.target, job.source_token, job.target_token)
    steps = []
    monkeypatch.setattr(style_transfer, "adam_step", lambda *args: steps.append(args))
    config = TransferConfig(alignment_weight=weight, epochs=1, batch_size=16)
    with pytest.raises(DataError, match=r"transform 1->0: class label outside \[0, 3\)"):
        train_transform([good, bad], enc, split.class_tokens, config, 0.05, 0)
    assert steps == []


@_WEIGHTS
@_BAD_LABELS
def test_transfer_loss_rejects_a_class_label_out_of_range(label, weight):
    enc = FrozenEncoder(EncoderConfig(dim=DIM, max_tokens=6, seed=4))
    rng = np.random.default_rng(3)
    class_tokens, src, tgt = rng.normal(size=(3, DIM)) * 0.01, rng.normal(size=DIM) * 0.01, rng.normal(size=DIM) * 0.01
    batch = _batch(rng.normal(size=(4, DIM)), [0, label, 2, 1])
    with pytest.raises(DataError, match=r"class label outside \[0, 3\)"):
        transfer_loss(_net_with(rng.normal(size=DIM) * 0.2), batch, enc, src, tgt, class_tokens, 0.5, weight)


def test_stacked_step_names_the_pair_whose_loss_diverges(monkeypatch):
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    jobs = transform_jobs(split, include_target_description=True)
    bad = jobs[2]
    original = style_transfer.text_delta_directions

    def poisoned(encoder, source_token, target_token, class_tokens):
        dirs = original(encoder, source_token, target_token, class_tokens)
        if np.array_equal(source_token, bad.source_token) and np.array_equal(target_token, bad.target_token):
            return np.full_like(dirs, np.nan)
        return dirs

    monkeypatch.setattr(style_transfer, "text_delta_directions", poisoned)
    with pytest.raises(NonFiniteLossError, match=rf"transform {re.escape(bad.pair)}: .*epoch 0"):
        train_transform(jobs, enc, split.class_tokens, TransferConfig(epochs=1, batch_size=16), 0.05, 0)


def test_stacked_step_names_the_pair_whose_parameter_is_not_finite(monkeypatch):
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    jobs = transform_jobs(split, include_target_description=True)
    bad = jobs[1]
    original = TransformNetwork.init

    def poisoned(dim, hidden, source, target, seed):
        net = original(dim, hidden, source, target, seed)
        if (source, target) == (bad.source, bad.target):
            net.params["w1"][1, 2] = np.inf
        return net

    monkeypatch.setattr(TransformNetwork, "init", staticmethod(poisoned))
    with pytest.raises(DomainError, match=rf"transform {re.escape(bad.pair)}: w1 contains a non-finite entry"):
        train_transform(jobs, enc, split.class_tokens, TransferConfig(epochs=1, batch_size=16), 0.05, 0)


def test_stacked_step_names_the_pair_whose_gradient_is_not_finite_and_writes_nothing(monkeypatch):
    # The third step's gradient of one transform is poisoned after the real
    # backward: the step raises naming that pair and leaves every parameter
    # as the objective saw it.
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    jobs = transform_jobs(split, include_target_description=True)
    original = style_transfer._stacked_objective
    seen = []

    def poisoned(params, *args, **kwargs):
        seen.append((params, {name: value.copy() for name, value in params.items()}))
        total, align, cons, grads = original(params, *args, **kwargs)
        if len(seen) == 3:
            grads["w2"][2, 0, 1] = np.nan
        return total, align, cons, grads

    monkeypatch.setattr(style_transfer, "_stacked_objective", poisoned)
    with pytest.raises(DomainError, match=rf"transform {re.escape(jobs[2].pair)}: grad\[w2\] contains a non-finite"):
        train_transform(jobs, enc, split.class_tokens, TransferConfig(epochs=1, batch_size=8), 0.05, 0)
    assert len(seen) == 3
    params, before = seen[-1]
    assert not np.array_equal(before["w2"], seen[0][1]["w2"])  # the earlier steps did write
    for name, value in before.items():
        assert params[name].tobytes() == value.tobytes(), name


def test_train_transform_takes_one_adam_step_and_one_gather_per_batch_and_epoch(monkeypatch):
    # 36-row local sets in batches of 5 end in a 1-row batch: 8 steps per
    # epoch.  Each step is one Adam call for all transforms, and each epoch
    # gathers each transform's shuffled local set once.
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    jobs = transform_jobs(split, include_target_description=True)
    epochs, batch_size = 3, 5
    n = len(jobs[0].dataset)
    assert n % batch_size != 0
    counts = {"adam_step": 0, "subset": 0}
    adam, subset = style_transfer.adam_step, LabeledEmbeddings.subset

    def counted_adam(*args, **kwargs):
        counts["adam_step"] += 1
        return adam(*args, **kwargs)

    def counted_subset(self, indices):
        counts["subset"] += 1
        return subset(self, indices)

    monkeypatch.setattr(style_transfer, "adam_step", counted_adam)
    monkeypatch.setattr(LabeledEmbeddings, "subset", counted_subset)
    train_transform(jobs, enc, split.class_tokens, TransferConfig(epochs=epochs, batch_size=batch_size), 0.05, 0)
    assert counts == {"adam_step": epochs * math.ceil(n / batch_size), "subset": epochs * len(jobs)}


# ---------------------------------------------------------------------------
# augmentation banks
# ---------------------------------------------------------------------------


def _bank_result(epochs):
    # every transform of a target-text split, trained in lockstep
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    jobs = transform_jobs(split, include_target_description=True)
    return train_transform(jobs, enc, split.class_tokens, TransferConfig(epochs=epochs, batch_size=8), 0.05, 0)


def _bank(result, clients):
    # the (K, S, n, d) blocks of copies, filled with NaN so a row the bank
    # does not write shows
    out = np.full((clients, len(result.jobs) // clients) + result.jobs[0].dataset.embeddings.shape, np.nan)
    assert build_augmentation_bank(result, out) is None
    return out


def test_identity_transform_bank_equals_originals():
    result = _bank_result(epochs=0)
    result.params["w2"][...] = 0.0
    result.params["b2"][...] = 0.0
    bank = _bank(result, 2).reshape(len(result.jobs), -1, 12)
    for copy, job in zip(bank, result.jobs, strict=True):
        assert copy.tobytes() == job.dataset.embeddings.tobytes()


def test_bank_covers_every_target_or_rejects():
    result = _bank_result(epochs=1)
    bank = _bank(result, 2)
    # each client gets one copy per other source, then one toward the
    # held-out text, so TARGET_KEY is last; job i * S + s fills block [i, s]
    by_client = {}
    for job in result.jobs:
        by_client.setdefault(job.source, []).append(job.target)
    assert by_client == {i: [j for j in (0, 1) if j != i] + [TARGET_KEY] for i in (0, 1)}
    copies = bank.reshape(len(result.jobs), -1, 12)
    for copy, job, net in zip(copies, result.jobs, result.networks(), strict=True):
        assert (net.source, net.target) == (job.source, job.target)
        z = job.dataset.embeddings
        assert copy.tobytes() == (z + style_transfer._transform_forward(net.params, z)[1]).tobytes()
    # blocks that do not hold the jobs, or one block over both clients'
    # jobs, which move different local sets, are refused
    n = len(result.jobs[0].dataset)
    for shape in ((1, 2, n, 12), (2, 1, n, 12), (1, 4, n, 12)):
        with pytest.raises(ParameterError, match="one local set each"):
            build_augmentation_bank(result, np.empty(shape))
    # a network cannot be handed in apart from its job, so the one job list
    # that could not form a bank, local sets that do not stack, is refused
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    short = _job(split, 1, 0)
    short = TransformJob(
        short.dataset.subset(np.arange(5)), short.source, short.target, short.source_token, short.target_token
    )
    with pytest.raises(ConfigurationError):
        train_transform([_job(split, 0, 1), short], enc, split.class_tokens, TransferConfig(epochs=0, batch_size=8), 0.05, 0)


def test_bank_combined_sizes():
    world, enc = _tiny_world()
    split = leave_one_out(world, 2)
    jobs = transform_jobs(split, include_target_description=False)
    result = train_transform(jobs, enc, split.class_tokens, TransferConfig(epochs=0, batch_size=8), 0.05, 0)
    n = len(split.clients[0])
    bank = _bank(result, split.num_clients)
    assert bank.shape == (2, 1, n, 12) and np.isfinite(bank).all()
    # without target text, two clients each move to the other alone, so a
    # client's train pool (local set, then its copies) is twice its local set
    assert len(split.clients[0]) + bank.shape[1] * bank.shape[2] == 2 * n
