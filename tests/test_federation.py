"""Federation tests: upload sizes, anchored aggregation against a
brute-force mean, wire-level fixed points, message accounting,
post-broadcast bit-identity, and whole-run determinism."""

import dataclasses
import functools
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from fedstyle import federation, prompts
from fedstyle.config import VARIANT_ORDER, variant_toggles
from fedstyle.data import TARGET_KEY, WorldSpec, generate_world, leave_one_out
from fedstyle.encoder import EncoderConfig, FrozenEncoder
from fedstyle.errors import ConfigurationError, DataError, DomainError, NonFiniteLossError, ParameterError, ProtocolError
from fedstyle.federation import (
    FederationConfig,
    MethodToggles,
    _RoundLosses,
    aggregate_anchored,
    evaluate_accuracy,
    run_protocol,
    run_stage_one,
    transform_jobs,
)
from fedstyle.numerics import PROB_FLOOR, softmax, softmax_ce_cols
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
from fedstyle.seeding import rng
from fedstyle.style_transfer import TransferConfig, train_transform
from fedstyle.wire import KIND_DOMAIN_UPLOAD, KIND_GLOBAL_UPLOAD, decode_message, encode_message, protocol_message
from references import bank_then_prepare_pools, train_in_float64, unit_batch

# the round settings these tests were written for, pinned by keyword
_ROUNDS = dict(
    rounds=5, global_epochs=1, global_lr=1e-4, domain_lr=2e-5,
    weight_decay=0.0, lr_decay=1.0, batch_size=32,
)


def _world(seed=0, domains=4, classes=3, per_cell=8, dim=16, noise=0.1):
    spec = WorldSpec(
        classes=classes, domains=domains, samples_per_cell=per_cell,
        noise=noise, dim=dim, seed=seed, shift_scale=1.0,
    )
    encoder = FrozenEncoder(EncoderConfig(dim=dim, max_tokens=12, seed=seed))
    return generate_world(spec, encoder), encoder


def _small_run(seed=0, toggles=MethodToggles(), rounds=2, holdout=3, noise=0.1):
    world, encoder = _world(seed=seed, noise=noise)
    split = leave_one_out(world, holdout)
    stage_one = run_stage_one(
        split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, seed
    )
    result = run_protocol(
        stage_one, split, encoder,
        PromptConfig(length=2, temperature=0.05, init_scale=1e-3),
        FederationConfig(**dict(_ROUNDS, rounds=rounds, batch_size=16)),
        toggles, seed,
    )
    return result, split, encoder


def _reference_accuracy(result, split, encoder, length):
    # argmax over cosines from the documented text tower,
    # normalize(A @ tanh(sum_m s_m * token_m)), over the fixed layout
    # [global slot, domain slot, class token]; an absent prompt is a zero
    # slot and the domain slot holds the head-weighted blend of the stack
    s, a = encoder.position_scale, encoder.projection
    x = split.test_set.embeddings
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    pooled = np.zeros((len(x), x.shape[1]))
    if result.global_prompt is not None:
        pooled += s[:length] @ result.global_prompt
    if result.domain_prompts is not None:
        logits = x @ result.classifier.weight.T + result.classifier.bias
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        generated = np.einsum("nk,kld->nld", w, result.domain_prompts)
        pooled += np.einsum("l,nld->nd", s[length : 2 * length], generated)
    tokens = pooled[:, None, :] + s[2 * length] * split.class_tokens[None, :, :]
    text = np.tanh(tokens) @ a.T
    text /= np.linalg.norm(text, axis=2, keepdims=True)
    cosines = np.einsum("ncd,nd->nc", text, x)
    return float(np.mean(np.argmax(cosines, axis=1) == split.test_set.labels))


# ---------------------------------------------------------------------------
# communication cost
# ---------------------------------------------------------------------------


def test_upload_bytes_are_four_per_parameter():
    message = protocol_message(
        KIND_GLOBAL_UPLOAD, 0, 0,
        {
            "global_prompt": np.zeros((4, 64)),
            "head_weight": np.zeros((3, 64)),
            "head_bias": np.zeros(3),
        },
    )
    # a (4, 64) prompt plus a 3-domain head with its bias
    assert message.parameter_count == 4 * 64 + 64 * 3 + 3 == 451
    assert message.payload_bytes == 4 * 451


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_matches_mean_oracle():
    g = np.random.default_rng(0)
    uploads = {i: {"p": g.normal(size=(3, 4)), "b": g.normal(size=2)} for i in range(4)}
    out = aggregate_anchored(uploads)
    for name in ("p", "b"):
        expected = sum(uploads[i][name] for i in range(4)) / 4
        assert np.allclose(out[name], expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_aggregate_identical_uploads_is_bitwise_fixed_point(k):
    block = np.random.default_rng(1).normal(size=(2, 5)).astype(np.float32)
    uploads = {i: {"p": block.copy()} for i in range(k)}
    out = aggregate_anchored(uploads)
    assert out["p"].tobytes() == block.astype(np.float64).tobytes()


def test_aggregate_ignores_dict_insertion_order():
    g = np.random.default_rng(2)
    uploads = {i: {"p": g.normal(size=3)} for i in range(3)}
    forward = aggregate_anchored(uploads)
    shuffled = aggregate_anchored({2: uploads[2], 0: uploads[0], 1: uploads[1]})
    assert np.array_equal(forward["p"], shuffled["p"])


def test_aggregate_rejects_bad_inputs():
    with pytest.raises(ProtocolError):
        aggregate_anchored({})
    with pytest.raises(ProtocolError):
        aggregate_anchored({0: {"p": np.ones(2)}, 1: {"q": np.ones(2)}})


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_aggregate_rejects_an_upload_shaped_unlike_the_anchor(order):
    # (3,) broadcasts against (4, 3): unchecked, one order averages to a
    # (4, 3) mean and the other fails inside numpy
    shapes = dict(zip(order, [(4, 3), (3,)]))
    uploads = {i: {"p": np.ones(shapes[i])} for i in (0, 1)}
    with pytest.raises(ProtocolError, match=r"client 1 uploaded 'p'"):
        aggregate_anchored(uploads)


def test_wire_level_fixed_point_round_trip():
    # identical float32 uploads aggregate and re-encode to identical bytes
    block = np.random.default_rng(3).normal(size=(2, 4))
    blobs = [
        encode_message(protocol_message(KIND_GLOBAL_UPLOAD, 0, i, {"p": block}))
        for i in range(3)
    ]
    decoded = {i: decode_message(blob) for i, blob in enumerate(blobs)}
    out = aggregate_anchored({i: dict(m.arrays) for i, m in decoded.items()})
    rebroadcast = protocol_message(KIND_GLOBAL_UPLOAD, 0, 0, out)
    assert np.array_equal(rebroadcast.arrays["p"], decoded[0].arrays["p"])


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------


def test_toggle_validation():
    with pytest.raises(ConfigurationError):
        MethodToggles(use_global_prompt=False, use_domain_prompt=False, use_prompt_generator=False)
    with pytest.raises(ConfigurationError):
        MethodToggles(use_domain_prompt=False, use_prompt_generator=True)
    with pytest.raises(ConfigurationError):
        MethodToggles(use_domain_prompt=True, use_prompt_generator=False)
    with pytest.raises(ConfigurationError):
        MethodToggles(include_target_description=True, use_style_transfer=False)
    # the documented presets are representable
    MethodToggles(use_domain_prompt=False, use_prompt_generator=False)
    MethodToggles(use_global_prompt=False)


_SWITCHES = ("use_global_prompt", "use_domain_prompt", "use_prompt_generator", "use_style_transfer", "include_target_description")


@pytest.mark.parametrize(
    "values",
    [pytest.param(v, id="".join("1" if x else "0" for x in v)) for v in itertools.product((False, True), repeat=5)],
)
def test_toggles_are_accepted_exactly_when_every_rule_holds(values):
    # ids spell the switches in _SWITCHES order
    toggles = dict(zip(_SWITCHES, values))
    valid = (
        (toggles["use_global_prompt"] or toggles["use_domain_prompt"])
        and toggles["use_domain_prompt"] == toggles["use_prompt_generator"]
        and (toggles["use_style_transfer"] or not toggles["include_target_description"])
    )
    if valid:
        built = MethodToggles(**toggles)
        assert {name: getattr(built, name) for name in _SWITCHES} == toggles
    else:
        with pytest.raises(ConfigurationError):
            MethodToggles(**toggles)


def test_federation_config_validation():
    with pytest.raises(ConfigurationError):
        FederationConfig(**dict(_ROUNDS, rounds=0))
    with pytest.raises(ConfigurationError):
        FederationConfig(**dict(_ROUNDS, global_lr=0.0))
    with pytest.raises(ConfigurationError):
        FederationConfig(**dict(_ROUNDS, weighting="median"))


def test_finite_loss_guard():
    losses = _RoundLosses(3)
    losses.add("head_loss", np.array([1.5, 0.5, 1.0]), 8)
    with pytest.raises(NonFiniteLossError, match=r"global loss \(round 3, client 2\)"):
        losses.add("global_loss", np.array([1.5, 1.0, np.nan]), 8)
    with pytest.raises(NonFiniteLossError, match=r"client 1\)"):
        losses.add("global_loss", np.array([1.5, np.inf, np.nan]), 8)
    # a step that raised records nothing
    assert losses.means() == {"head_loss": 1.0}


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_finite_loss_guard_names_a_nan_or_an_infinite_loss(value):
    losses = _RoundLosses(0)
    with pytest.raises(NonFiniteLossError, match=rf"domain loss \(round 0, client 0\) diverged to {value!r}"):
        losses.add("domain_loss", np.array([value, 1.0]), 4)
    assert losses.means() == {}


# ---------------------------------------------------------------------------
# stage one
# ---------------------------------------------------------------------------


def test_stage_one_pools_without_style_transfer():
    # with no transforms every pool is the local set itself
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(use_style_transfer=False)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=5, batch_size=16), 0.05, toggles, 0)
    assert len(stage_one.clients) == 3
    assert stage_one.transforms == {0: {}, 1: {}, 2: {}}
    for i, client in enumerate(stage_one.clients):
        assert client.client_id == i
        for pool in (client.train_pool, client.head_pool):
            for part in ("rows", "labels", "domains"):
                array, local = getattr(pool, part), getattr(client.local_set, part)
                assert np.array_equal(array, local), part
                assert np.shares_memory(array, local), part


@pytest.mark.parametrize("include_target", [False, True])
def test_transform_jobs_keys_and_tokens(include_target):
    world, _ = _world()
    split = leave_one_out(world, 1)
    jobs = transform_jobs(split, include_target)
    k = split.num_clients
    assert [job.source for job in jobs] == sorted(job.source for job in jobs)
    for i in range(k):
        own = [job for job in jobs if job.source == i]
        # the source domains in ascending order, then the held-out description
        expected = [key for key in range(k) if key != i] + ([TARGET_KEY] if include_target else [])
        assert [job.target for job in own] == expected
        tokens = {TARGET_KEY: split.target_domain_token, **dict(enumerate(split.source_domain_tokens))}
        for job in own:
            assert job.dataset is split.clients[i]
            assert np.array_equal(job.source_token, split.source_domain_tokens[i])
            assert np.array_equal(job.target_token, tokens[job.target])


@pytest.mark.parametrize("include_target", [False, True])
def test_stage_one_pool_sizes_and_targets(include_target):
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(include_target_description=include_target)
    stage_one = run_stage_one(
        split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0
    )
    per_client_targets = 2 + (1 if include_target else 0)
    for i, client in enumerate(stage_one.clients):
        n = len(client.local_set)
        assert len(client.train_pool) == n * (1 + per_client_targets)
        # target-styled entries carry no valid source-domain label
        assert len(client.head_pool) == n * (1 + 2)
        assert not np.any(client.head_pool.domains == TARGET_KEY)
        assert sorted(stage_one.transforms[i]) == sorted(
            [j for j in range(3) if j != i] + ([TARGET_KEY] if include_target else [])
        )
        # the local set leads the pool, then one styled copy per source
        # domain in ascending order, then the target-styled copy
        targets = [j for j in range(3) if j != i] + ([TARGET_KEY] if include_target else [])
        train, head = client.train_pool, client.head_pool
        assert train.domains.tolist() == [key for key in [i, *targets] for _ in range(n)]
        assert np.array_equal(train.labels, np.tile(split.clients[i].labels, 1 + per_client_targets))
        assert np.array_equal(client.local_set.labels, split.clients[i].labels)
        assert np.all(client.local_set.domains == i)
        # the head pool is the train pool without its target-styled block,
        # which is last
        kept = train.domains != TARGET_KEY
        assert np.all(kept[: 3 * n]) and not np.any(kept[3 * n :])
        for part in ("rows", "labels", "domains"):
            assert np.array_equal(getattr(head, part), getattr(train, part)[kept]), part


@pytest.mark.parametrize("include_target", [False, True])
def test_stage_one_pools_equal_the_bank_then_prepare_reference(monkeypatch, include_target):
    # the copies written into the train stack and each client's pool
    # normalized whole give the bytes of a separate bank with the local set
    # and the copies normalized apart
    results = []

    def spy(*args, **kwargs):
        results.append(train_transform(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(federation, "train_transform", spy)
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(include_target_description=include_target)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0)
    train, head = bank_then_prepare_pools(split, results[0], include_target)
    local = train.select(np.s_[:, : len(split.clients[0])])
    for name, reference in (("train_pool", train), ("head_pool", head), ("local_set", local)):
        for part in ("rows", "labels", "domains"):
            array, expected = getattr(getattr(stage_one, name), part), getattr(reference, part)
            assert array.shape == expected.shape and array.tobytes() == expected.tobytes(), (name, part)


@pytest.mark.parametrize("holdout", range(4))
def test_stage_one_reads_the_held_out_domain_only_through_its_description(holdout):
    # the transforms follow LADS: each is defined per (source, target
    # description), so no job and no local block holds a held-out row, and
    # a split without its test set and holdout gives the same pools
    world, encoder = _world()
    split = leave_one_out(world, holdout)
    held_out = {row.tobytes() for row in split.test_set.embeddings}
    for job in transform_jobs(split, include_target_description=True):
        assert not held_out & {row.tobytes() for row in job.dataset.embeddings}, job.pair
        assert not np.array_equal(job.source_token, split.target_domain_token), job.pair
        assert np.array_equal(job.target_token, split.target_domain_token) == (job.target == TARGET_KEY), job.pair
    toggles = MethodToggles(include_target_description=True)
    blind = dataclasses.replace(split, holdout=None, test_set=None)
    transfer = TransferConfig(epochs=1, batch_size=8)
    runs = [run_stage_one(s, encoder, transfer, 0.05, toggles, 0) for s in (split, blind)]
    for name in ("train_pool", "head_pool"):
        for part in ("rows", "labels", "domains"):
            seen, blind_seen = (getattr(getattr(run, name), part) for run in runs)
            assert seen.tobytes() == blind_seen.tobytes(), (name, part)
    # both sets compare rows in the pool's dtype, so that a held-out row
    # would show as its own unit row
    dtype = runs[1].local_set.rows.dtype
    local = {row.tobytes() for row in runs[1].local_set.rows.reshape(-1, 16)}
    assert not local & {row.tobytes() for row in unit_batch(split.test_set, dtype).rows}
    # the local blocks are exactly the sources' unit rows
    assert local == {row.tobytes() for client in split.clients for row in unit_batch(client, dtype).rows}


def _rejected_by_stage_one(split, encoder, match, monkeypatch):
    # stage one rejects the split on entry, with or without style transfer,
    # before it trains any transform
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return train_transform(*args, **kwargs)

    monkeypatch.setattr(federation, "train_transform", counted)
    for use_style_transfer in (False, True):
        toggles = MethodToggles(use_style_transfer=use_style_transfer)
        with pytest.raises(ConfigurationError, match=match):
            run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0)
    assert calls == []


def test_mixed_local_set_lengths_are_rejected_before_stage_one_trains(monkeypatch):
    # every client of a split steps in one stack, so one client cut to 19
    # rows is a bad split
    world, encoder = _world()
    split = leave_one_out(world, 3)
    split = dataclasses.replace(split, clients=[split.clients[0].subset(np.arange(19)), *split.clients[1:]])
    _rejected_by_stage_one(split, encoder, "lengths", monkeypatch)


def test_empty_local_sets_are_rejected_before_any_message(monkeypatch):
    # stage one sends nothing, and stage two never starts
    world, encoder = _world()
    split = leave_one_out(world, 3)
    split = dataclasses.replace(split, clients=[client.subset(np.arange(0)) for client in split.clients])
    _rejected_by_stage_one(split, encoder, "empty", monkeypatch)


@pytest.mark.parametrize("bad", ["class=-1", "class=C", "domain=K"])
@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_a_label_out_of_range_is_rejected_before_stage_one_trains(monkeypatch, variant, bad):
    # a class label of -1 would steer its row by the last class's text
    # direction and C by none; a domain label of K names no client, with or
    # without target-styled copies (whose key lies outside [0, K) by design)
    world, encoder = _world()
    split = leave_one_out(world, 3)
    c, k = split.class_tokens.shape[0], split.num_clients
    part, value = {"class=-1": ("labels", -1), "class=C": ("labels", c), "domain=K": ("domains", k)}[bad]
    client = dataclasses.replace(split.clients[1], **{part: getattr(split.clients[1], part).copy()})
    getattr(client, part)[5] = value
    split = dataclasses.replace(split, clients=[split.clients[0], client, *split.clients[2:]])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return train_transform(*args, **kwargs)

    monkeypatch.setattr(federation, "train_transform", counted)
    with pytest.raises(DataError, match=f"client 1: {'class label' if part == 'labels' else 'domain index'}"):
        run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, variant_toggles(variant), 0)
    assert calls == []


@pytest.mark.parametrize("use_style_transfer", [False, True])
def test_stage_one_pools_are_read_only_views_of_stacks(use_style_transfer):
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(use_style_transfer=use_style_transfer, include_target_description=use_style_transfer)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0)
    n = len(split.clients[0])
    assert stage_one.local_set.rows.shape == (3, n, 16)
    assert np.array_equal(stage_one.local_set.rows, stage_one.train_pool.rows[:, :n])
    assert np.array_equal(stage_one.local_set.labels, stage_one.train_pool.labels[:, :n])
    for i, client in enumerate(stage_one.clients):
        for name in ("train_pool", "head_pool", "local_set"):
            view, stack = getattr(client, name), getattr(stage_one, name)
            for part in ("rows", "labels", "domains"):
                array = getattr(view, part)
                assert np.shares_memory(array, getattr(stack, part)), (name, part)
                assert np.array_equal(array, getattr(stack, part)[i]), (name, part)
                with pytest.raises(ValueError):
                    array[0] = 0
        assert np.shares_memory(client.local_set.rows, stage_one.train_pool.rows)
        assert np.array_equal(client.local_set.labels, split.clients[i].labels)
    # every pool is a view of the one train stack
    for name in ("head_pool", "local_set"):
        for part in ("rows", "labels", "domains"):
            pool, train = getattr(getattr(stage_one, name), part), getattr(stage_one.train_pool, part)
            assert np.shares_memory(pool, train), (name, part)


def _counted_rng_calls(monkeypatch, fed):
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(use_style_transfer=False)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0)
    calls = []

    def counted(*parts):
        calls.append(parts)
        return rng(*parts)

    monkeypatch.setattr(federation, "rng", counted)
    run_protocol(stage_one, split, encoder, PromptConfig(length=2, temperature=0.05, init_scale=0.0), fed, toggles, 0)
    return calls, split


def test_whole_set_passes_draw_nothing(monkeypatch):
    # 24 rows per client in one batch of up to 32: every pass reads its
    # client's whole local set, so no pass draws
    calls, split = _counted_rng_calls(monkeypatch, FederationConfig(**dict(_ROUNDS, rounds=2, batch_size=32)))
    assert len(split.clients[0]) == 24
    assert calls == []


def test_minibatch_passes_draw_once_per_client_and_epoch(monkeypatch):
    fed = FederationConfig(**dict(_ROUNDS, rounds=2, global_epochs=3, domain_epochs=2, batch_size=8))
    calls, split = _counted_rng_calls(monkeypatch, fed)
    k = split.num_clients
    # the global and head passes of an epoch read one draw
    assert len(calls) == fed.rounds * (fed.global_epochs + fed.domain_epochs) * k


def _spied_passes(monkeypatch, toggles, batch_size):
    # the stage-one pools and, per step in step order, the loss's name and
    # its batch's rows, labels and domains; every np.take writing into a
    # buffer counts as a gather
    world, encoder = _world()
    split = leave_one_out(world, 3)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0)
    seen, gathers = [], []
    for name in ("global_loss", "classifier_loss"):
        def spy(batch, *args, _loss=getattr(federation, name), _name=name, **kwargs):
            seen.append((_name, batch.rows.copy(), batch.labels.copy(), batch.domains.copy()))
            return _loss(batch, *args, **kwargs)

        monkeypatch.setattr(federation, name, spy)
    take = np.take

    def counted_take(*args, **kwargs):
        if kwargs.get("out") is not None:
            gathers.append(kwargs["out"].shape)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", counted_take)
    fed = FederationConfig(**dict(_ROUNDS, rounds=2, global_epochs=3, batch_size=batch_size))
    run_protocol(stage_one, split, encoder, PromptConfig(length=2, temperature=0.05, init_scale=1e-3), fed, toggles, 0)
    return stage_one, fed, seen, gathers


@pytest.mark.parametrize("batch_size", [32, 8])
def test_the_head_pass_reads_the_global_batch_without_a_second_gather(monkeypatch, batch_size):
    # the full layout: the head pool is the whole train pool, so each epoch's
    # head batches are the global batches' rows, from one gather of three
    # arrays (rows, labels, domains); in batches of 8 the domain pass
    # gathers its own sample too
    stage_one, fed, seen, gathers = _spied_passes(monkeypatch, MethodToggles(), batch_size)
    assert stage_one.head_rows == stage_one.train_pool.labels.shape[1]
    epochs = fed.rounds * fed.global_epochs
    domain_passes = fed.rounds * fed.domain_epochs if batch_size < stage_one.local_set.labels.shape[1] else 0
    assert len(gathers) == 3 * (epochs + domain_passes)
    batches = len(seen) // (2 * epochs)
    for e in range(epochs):
        epoch = seen[2 * batches * e : 2 * batches * (e + 1)]
        assert [name for name, *_ in epoch] == ["global_loss"] * batches + ["classifier_loss"] * batches
        for (_, *global_batch), (_, *head_batch) in zip(epoch[:batches], epoch[batches:]):
            assert all(np.array_equal(g, h) for g, h in zip(global_batch, head_batch))


def test_with_target_text_the_head_batch_is_n_distinct_head_pool_rows(monkeypatch):
    stage_one, fed, seen, _ = _spied_passes(monkeypatch, MethodToggles(include_target_description=True), 32)
    (k, n), head_rows = stage_one.local_set.labels.shape, stage_one.head_rows
    assert head_rows < stage_one.train_pool.labels.shape[1]
    heads = [(rows, labels, domains) for name, rows, labels, domains in seen if name == "classifier_loss"]
    assert len(heads) == fed.rounds * fed.global_epochs
    for rows, labels, domains in heads:
        assert rows.shape[:2] == (k, n) and not np.any(domains == TARGET_KEY)
        for i in range(k):
            pool = {row.tobytes(): j for j, row in enumerate(stage_one.clients[i].head_pool.rows)}
            at = [pool[row.tobytes()] for row in rows[i]]
            assert len(set(at)) == n
            assert np.array_equal(labels[i], stage_one.clients[i].head_pool.labels[at])
            assert np.array_equal(domains[i], stage_one.clients[i].head_pool.domains[at])


def test_a_loss_cannot_write_into_the_drawn_sample(monkeypatch):
    world, encoder = _world()
    split = leave_one_out(world, 3)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, MethodToggles(), 0)

    def writing(batch, *args, **kwargs):
        batch.rows[0, 0, 0] = 0.0

    monkeypatch.setattr(federation, "global_loss", writing)
    fed = FederationConfig(**dict(_ROUNDS, rounds=1))
    with pytest.raises(ValueError, match="read-only"):
        run_protocol(stage_one, split, encoder, PromptConfig(length=2, temperature=0.05), fed, MethodToggles(), 0)


@pytest.mark.parametrize("batch_size", [32, 8])
def test_whole_set_passes_score_from_one_column_copy(monkeypatch, batch_size):
    # 24 rows per client: in batches of 32 every global, head and domain
    # step reads the local set whole, from the one column copy made per
    # run; batches of 8 are drawn, and no copy is made
    copies, seen = [], []
    make_copy = UnitRows.with_column_copy

    def counted_copy(rows):
        copies.append(make_copy(rows))
        return copies[-1]

    monkeypatch.setattr(UnitRows, "with_column_copy", counted_copy)
    for name in ("global_loss", "classifier_loss", "domain_loss"):
        def spy(batch, *args, _loss=getattr(federation, name), _name=name, **kwargs):
            seen.append((_name, batch.column_copy))
            return _loss(batch, *args, **kwargs)

        monkeypatch.setattr(federation, name, spy)
    fed = FederationConfig(**dict(_ROUNDS, rounds=2, batch_size=batch_size))
    _, split = _counted_rng_calls(monkeypatch, fed)
    steps = fed.rounds * -(-len(split.clients[0]) // batch_size)
    assert Counter(name for name, _ in seen) == {"global_loss": steps, "classifier_loss": steps, "domain_loss": steps}
    if batch_size >= len(split.clients[0]):
        assert len(copies) == 1
        whole = copies[0].column_copy
        assert all(np.shares_memory(columns, whole) and columns.shape == whole.shape for _, columns in seen)
    else:
        assert copies == []
        assert all(columns is None for _, columns in seen)


# ---------------------------------------------------------------------------
# protocol runs
# ---------------------------------------------------------------------------


def test_protocol_message_counts_and_kinds():
    result, split, _ = _small_run(rounds=2)
    counts = Counter(record.kind_name for record in result.ledger.records)
    k = split.num_clients
    assert counts == {
        "global_upload": 2 * k,
        "global_broadcast": 2 * k,
        "domain_upload": k,
        "domain_broadcast": k,
    }
    # per round and client: a (2, 16) prompt plus a k-domain head with its
    # bias, at float32 width
    uploads = [r for r in result.ledger.records if r.kind_name == "global_upload"]
    for record in uploads:
        assert record.parameter_count == 2 * 16 + 16 * k + k
        assert record.payload_bytes == 4 * record.parameter_count


def test_protocol_bit_identity_after_broadcasts():
    # the returned state is what crossed the wire, so a float32 round trip
    # leaves every bit of it in place
    result, _, _ = _small_run()
    adopted = {
        "global_prompt": (result.global_prompt, (2, 16)),
        "head_weight": (result.classifier.weight, (3, 16)),
        "head_bias": (result.classifier.bias, (3,)),
        "domain_prompts": (result.domain_prompts, (3, 2, 16)),
    }
    for name, (array, shape) in adopted.items():
        assert array.shape == shape, name
        assert array.dtype == np.float64, name
        assert array.astype(np.float32).astype(np.float64).tobytes() == array.tobytes(), name


def test_protocol_is_deterministic_and_seed_sensitive():
    a, _, _ = _small_run(seed=5)
    b, _, _ = _small_run(seed=5)
    c, _, _ = _small_run(seed=6)
    assert np.array_equal(a.global_prompt, b.global_prompt)
    assert np.array_equal(a.domain_prompts, b.domain_prompts)
    assert a.ledger.records == b.ledger.records
    assert a.round_metrics == b.round_metrics
    assert not np.array_equal(a.global_prompt, c.global_prompt)


def test_protocol_round_metrics_track_enabled_losses():
    result, _, _ = _small_run(rounds=2)
    assert len(result.round_metrics) == 2
    for r, metrics in enumerate(result.round_metrics):
        assert metrics["round"] == float(r)
        assert set(metrics) == {"round", "global_loss", "head_loss", "domain_loss"}
        assert all(np.isfinite(v) for v in metrics.values())


def test_protocol_global_only_variant():
    toggles = MethodToggles(use_domain_prompt=False, use_prompt_generator=False, use_style_transfer=False)
    # noisy enough that the held-out accuracy sits between chance and one
    result, split, encoder = _small_run(toggles=toggles, noise=1.0)
    assert result.domain_prompts is None
    assert result.classifier is None
    counts = Counter(record.kind_name for record in result.ledger.records)
    assert set(counts) == {"global_upload", "global_broadcast"}
    uploads = [r for r in result.ledger.records if r.kind_name == "global_upload"]
    assert all(r.parameter_count == 2 * 16 for r in uploads)
    assert set(result.round_metrics[0]) == {"round", "global_loss"}
    accuracy = evaluate_accuracy(
        result, split, encoder, PromptConfig(length=2, temperature=0.05, init_scale=1e-3), toggles
    )
    assert accuracy == _reference_accuracy(result, split, encoder, 2)


def test_protocol_domain_only_variant():
    toggles = MethodToggles(use_global_prompt=False, use_style_transfer=False)
    result, split, encoder = _small_run(toggles=toggles, noise=1.0)
    assert result.global_prompt is None
    assert result.classifier is not None
    assert result.domain_prompts is not None
    uploads = [r for r in result.ledger.records if r.kind_name == "global_upload"]
    assert all(r.parameter_count == 16 * 3 + 3 for r in uploads)
    accuracy = evaluate_accuracy(
        result, split, encoder, PromptConfig(length=2, temperature=0.05, init_scale=1e-3), toggles
    )
    assert accuracy == _reference_accuracy(result, split, encoder, 2)


@pytest.mark.parametrize("label", [7, -1])
def test_evaluate_accuracy_rejects_a_test_label_out_of_range(label):
    # three classes: a label past them or below zero is bad data, not a miss
    toggles = MethodToggles(use_style_transfer=False)
    result, split, encoder = _small_run(toggles=toggles)
    test = dataclasses.replace(split.test_set, labels=np.full(len(split.test_set), label))
    config = PromptConfig(length=2, temperature=0.05, init_scale=1e-3)
    with pytest.raises(DataError, match=r"test set: class label outside \[0, 3\)"):
        evaluate_accuracy(result, dataclasses.replace(split, test_set=test), encoder, config, toggles)


@pytest.mark.parametrize("batch_size", [16, 32])
def test_stage_two_scores_float32_rows_and_keeps_its_parameters_float64(monkeypatch, batch_size):
    # Under numpy's promotion rules a float64 operand would upcast a score
    # product without failing anything else.  24 rows per client: batches
    # of 16 cut every drawn sample; batches of 32 read the local set whole,
    # with its column copy, in the domain pass.  The target-styled block
    # keeps the head pool apart from the train pool, so the head pass
    # gathers a sample of its own.
    seen, passes = [], []

    def spying(name, loss):
        def spy(batch, params, *args, **kwargs):
            arrays = [params.weight, params.bias] if name == "head" else [params]
            seen.extend((name, "parameter", array.dtype, np.float64) for array in arrays)
            seen.extend((name, what, array.dtype, np.float32) for what, array in (
                ("rows", batch.rows), ("columns", batch.columns()),
            ))
            passes.append(name)
            return loss(batch, params, *args, **kwargs)

        return spy

    def logits_spy(logits, labels):
        seen.append((passes[-1], "logits", logits.dtype, np.float32))
        return softmax_ce_cols(logits, labels)

    def payload_spy(kind, round_index, sender, arrays):
        # a client uploads its float64 state; the frame rounds it to float32
        if kind in (KIND_GLOBAL_UPLOAD, KIND_DOMAIN_UPLOAD):
            seen.extend(("upload", "payload", array.dtype, np.float64) for array in arrays.values())
        return protocol_message(kind, round_index, sender, arrays)

    def prediction_spy(*args, **kwargs):
        probs = predict_unseen_batch(*args, **kwargs)
        seen.append(("evaluation", "probabilities", probs.dtype, np.float64))
        return probs

    for name, loss in (("global", global_loss), ("head", classifier_loss), ("domain", domain_loss)):
        monkeypatch.setattr(federation, loss.__name__, spying(name, loss))
    monkeypatch.setattr(prompts, "softmax_ce_cols", logits_spy)
    monkeypatch.setattr(federation, "protocol_message", payload_spy)
    monkeypatch.setattr(federation, "predict_unseen_batch", prediction_spy)
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(include_target_description=True)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0)
    for name in ("train_pool", "head_pool", "local_set"):
        assert getattr(stage_one, name).rows.dtype == np.float32, name
    assert len(stage_one.head_pool.labels[0]) < len(stage_one.train_pool.labels[0]) == 4 * 24
    config = PromptConfig(length=2, temperature=0.05, init_scale=1e-3)
    fed = FederationConfig(**dict(_ROUNDS, rounds=2, global_epochs=2, batch_size=batch_size))
    result = run_protocol(stage_one, split, encoder, config, fed, toggles, 0)
    evaluate_accuracy(result, split, encoder, config, toggles)
    assert set(passes) == {"global", "head", "domain"}
    assert {(where, what) for where, what, _, _ in seen} >= {
        (name, what) for name in passes for what in ("parameter", "rows", "columns", "logits")
    } | {("upload", "payload"), ("evaluation", "probabilities")}
    for where, what, dtype, expected in seen:
        assert dtype == expected, (where, what, dtype)
    for array in (result.global_prompt, result.classifier.weight, result.classifier.bias, result.domain_prompts):
        assert array.dtype == np.float64


@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_the_contrastive_toggle_changes_no_run(variant):
    # use_contrastive is an unread field: either value gives every variant
    # the same stage one, the same messages and the same trained state
    runs = [
        _small_run(toggles=dataclasses.replace(variant_toggles(variant), use_contrastive=flag))[0]
        for flag in (True, False)
    ]
    on, off = runs
    assert on.ledger.records == off.ledger.records
    assert on.round_metrics == off.round_metrics
    for name in ("global_prompt", "domain_prompts"):
        a, b = getattr(on, name), getattr(off, name)
        assert (a is None and b is None) or np.array_equal(a, b)
    if on.classifier is not None:
        assert np.array_equal(on.classifier.weight, off.classifier.weight)
        assert np.array_equal(on.classifier.bias, off.classifier.bias)
    assert (on.classifier is None) == (off.classifier is None)


def test_protocol_rejects_client_count_mismatch():
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(use_style_transfer=False)
    two = dataclasses.replace(split, clients=split.clients[:2])
    stage_one = run_stage_one(two, encoder, TransferConfig(epochs=5, batch_size=16), 0.05, toggles, 0)
    with pytest.raises(ConfigurationError, match="2 of 3 clients"):
        run_protocol(
            stage_one, split, encoder, PromptConfig(length=2, temperature=0.01, init_scale=1e-3),
            FederationConfig(**dict(_ROUNDS, rounds=1)), toggles, 0,
        )


def test_training_beats_chance_and_lowers_global_loss():
    # zero world noise keeps the geometry clean; a short run should beat
    # the chance rate on the held-out domain and end with a lower global
    # loss than its first round.  This is no comparison with the untrained
    # (zero) prompt.
    world, encoder = _world(noise=0.0, per_cell=12, dim=24)
    split = leave_one_out(world, 3)
    toggles = MethodToggles(use_style_transfer=False)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=5, batch_size=16), 0.05, toggles, 0)
    config = PromptConfig(length=2, temperature=0.05, init_scale=1e-3)
    result = run_protocol(
        stage_one, split, encoder, config,
        FederationConfig(**dict(_ROUNDS, rounds=3, batch_size=16)), toggles, 0,
    )
    accuracy = evaluate_accuracy(result, split, encoder, config, toggles)
    assert accuracy > 1.0 / 3.0
    assert result.round_metrics[-1]["global_loss"] < result.round_metrics[0]["global_loss"]


# the package defaults: seed 0's world and encoder, and every section's
# dataclass default
PROMPT = PromptConfig()


def _default_split(holdout):
    encoder = FrozenEncoder(EncoderConfig(seed=0))
    return encoder, leave_one_out(generate_world(WorldSpec(seed=0), encoder), holdout)


def _default_run(split, encoder, variant, fed=FederationConfig()):
    toggles = variant_toggles(variant)
    stage_one = run_stage_one(split, encoder, TransferConfig(), PROMPT.temperature, toggles, 0)
    return stage_one, run_protocol(stage_one, split, encoder, PROMPT, fed, toggles, 0)


def _default_global_only(holdout, rounds=None):
    # global-only at the package defaults, seed 0, with its stage-one stacks
    encoder, split = _default_split(holdout)
    fed = FederationConfig() if rounds is None else FederationConfig(rounds=rounds)
    return (encoder, split) + _default_run(split, encoder, "global-only", fed)


def _pool_losses(encoder, split, stage_one, prompt):
    # (K,) global losses of one prompt on every client's train pool
    pools = stage_one.train_pool
    classes = encoder.class_term(split.class_tokens, 2 * PROMPT.length)
    stacked = np.stack([prompt] * pools.rows.shape[0])
    return global_loss(pools, stacked, encoder, classes, PROMPT.temperature, want_grad=False)[0]


@pytest.mark.parametrize("rounds", [1, None], ids=["round-0", "every-round"])
def test_trained_global_prompt_is_no_worse_than_zero_on_the_default_config(rounds):
    # on each client's train pool, the broadcast global prompt after round 0
    # and after the last round loses no more than the zero prompt
    encoder, split, stage_one, result = _default_global_only(0, rounds)
    trained = _pool_losses(encoder, split, stage_one, result.global_prompt)
    untrained = _pool_losses(encoder, split, stage_one, np.zeros_like(result.global_prompt))
    assert np.all(trained <= untrained), (trained, untrained)


def _held_out_probs(split, encoder, prompt, domain_prompts=None, head=None):
    return predict_unseen_batch(
        split.test_set.embeddings, prompt, domain_prompts, head, split.class_tokens, encoder, PROMPT.temperature
    )


def _held_out_nll(split, encoder, prompt, domain_prompts=None, head=None):
    probs = _held_out_probs(split, encoder, prompt, domain_prompts, head)
    return -np.mean(np.log(np.maximum(probs[np.arange(len(probs)), split.test_set.labels], PROB_FLOOR)))


@pytest.mark.parametrize("holdout", range(4))
def test_trained_global_prompt_lowers_the_held_out_nll_on_the_default_config(holdout):
    encoder, split, _, result = _default_global_only(holdout)
    zero = np.zeros_like(result.global_prompt)
    assert _held_out_nll(split, encoder, result.global_prompt) < _held_out_nll(split, encoder, zero)


@functools.cache
def _default_dual_prompt(holdout):
    # dual-prompt at the package defaults, seed 0, with its stage-one stacks;
    # built once per holdout for the domain-path gates below
    encoder, split = _default_split(holdout)
    return (encoder, split) + _default_run(split, encoder, "dual-prompt")


@pytest.mark.parametrize("holdout", range(4))
def test_trained_domain_prompts_are_no_worse_than_zero_on_the_default_config(holdout):
    # each client's domain loss on its local set, against the last round's
    # broadcast global prompt, with its collected domain prompt and with a
    # zero one
    encoder, split, stage_one, result = _default_dual_prompt(holdout)
    classes = encoder.class_term(split.class_tokens, 2 * PROMPT.length)
    k = split.num_clients
    slot = encoder.pool_prefix(np.stack([result.global_prompt] * k))

    def losses(prompts):
        return domain_loss(stage_one.local_set, prompts, slot, encoder, classes, PROMPT.temperature, False)[0]

    trained, untrained = losses(result.domain_prompts), losses(np.zeros_like(result.domain_prompts))
    assert np.all(trained <= untrained), (trained, untrained)


@pytest.mark.parametrize("holdout", range(4))
def test_trained_dual_prompts_lower_the_held_out_nll_on_the_default_config(holdout):
    encoder, split, _, result = _default_dual_prompt(holdout)
    trained = _held_out_nll(split, encoder, result.global_prompt, result.domain_prompts, result.classifier)
    assert trained < _held_out_nll(split, encoder, np.zeros_like(result.global_prompt))


def test_the_domain_head_routes_the_held_out_rows_on_the_default_config():
    # the mean largest blend weight over the test rows, averaged over the
    # four holdouts, is clearly above the uniform blend's 1 / K
    largest = []
    for holdout in range(4):
        _, split, _, result = _default_dual_prompt(holdout)
        x = split.test_set.embeddings
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        largest.append(softmax(result.classifier.logits(x.T), 0).max(axis=0).mean())
    assert np.mean(largest) > 1.0 / split.num_clients + 0.1, largest


# per variant on the default cell at holdout 0: the correct count out of
# 2,000 test rows, and the SHA-256 of the predicted labels as int64;
# global-only and dual-prompt predict alike: at this holdout the domain
# path moves no prediction
DEFAULT_CELL_PREDICTIONS = {
    "global-only": (1972, "bf283515690816192a1b044bfbe7bb54fd62fe9630f660f60eb9c0e505ab94e3"),
    "domain-only": (1964, "60ab677c0a0acbcd635fa9086f6693df45ff9fb5d082a41abf2c7d8bd9697be4"),
    "dual-prompt": (1972, "bf283515690816192a1b044bfbe7bb54fd62fe9630f660f60eb9c0e505ab94e3"),
    "target-text": (1966, "adbb0f9da6006fdd66b992e34d60aaa4d9bc4c83f4cd3268ca2811713a22a472"),
    "full": (1967, "47076627202a84053782934ea2b675cc0a1f01f8953e7b9f79501a4de88f0cd3"),
}


def test_default_cell_correct_counts_on_holdout_zero():
    # one world at the package defaults, seed 0, holdout 0: the correct
    # counts the pipeline reaches per variant, and which rows it predicts
    # as what, so a change that swaps predictions without moving a count
    # fails too
    encoder, split = _default_split(0)
    assert len(split.test_set) == 2000
    got = {}
    for variant in DEFAULT_CELL_PREDICTIONS:
        _, result = _default_run(split, encoder, variant)
        toggles = variant_toggles(variant)
        accuracy = evaluate_accuracy(result, split, encoder, PROMPT, toggles)
        blend = (result.domain_prompts, result.classifier) if toggles.use_domain_prompt else (None, None)
        predicted = _held_out_probs(split, encoder, result.global_prompt, *blend).argmax(axis=1)
        digest = hashlib.sha256(predicted.astype(np.int64).tobytes()).hexdigest()
        assert round(accuracy * 2000) == np.sum(predicted == split.test_set.labels)
        got[variant] = (round(accuracy * 2000), digest)
    assert got == DEFAULT_CELL_PREDICTIONS


@pytest.mark.parametrize("length", [1, 4])
def test_max_tokens_must_fit_two_prompt_blocks_and_a_class_token(length, monkeypatch):
    # [global block, domain block, class token] is the longest sequence a
    # run encodes: with 2L tokens the class term has no position and
    # run_protocol raises before its first message; 2L + 1 are enough
    sent = []
    exchange = federation._exchange
    monkeypatch.setattr(federation, "_exchange", lambda *a: sent.append(a[1]) or exchange(*a))
    spec = WorldSpec(classes=3, domains=3, samples_per_cell=4, dim=8, seed=0)
    toggles = variant_toggles("dual-prompt")
    prompt = PromptConfig(length=length, temperature=0.1)
    fed = FederationConfig(**dict(_ROUNDS, rounds=1))
    for max_tokens in (2 * length, 2 * length + 1):
        encoder = FrozenEncoder(EncoderConfig(dim=8, max_tokens=max_tokens, seed=0))
        split = leave_one_out(generate_world(spec, encoder), 0)
        stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1), 0.1, toggles, 0)
        if max_tokens == 2 * length:
            with pytest.raises(ParameterError, match=f"no token position {2 * length}"):
                run_protocol(stage_one, split, encoder, prompt, fed, toggles, 0)
            assert sent == []
        else:
            result = run_protocol(stage_one, split, encoder, prompt, fed, toggles, 0)
            # one round and the domain exchange: K uploads and one broadcast each
            assert len(sent) == 2 * (split.num_clients + 1)
            assert result.domain_prompts.shape == (split.num_clients, length, 8)


# ---------------------------------------------------------------------------
# lockstep clients
# ---------------------------------------------------------------------------


def _on_the_wire(array):
    return np.asarray(array, dtype=np.float32).astype(np.float64)


def _reference_protocol(stage_one, split, encoder, prompt_config, fed, seed):
    """Stage two of the full method, one client at a time with the
    single-client losses, uniform weights and float32 wire rounding."""
    k, dim = split.num_clients, encoder.config.dim
    ct = encoder.class_term(split.class_tokens, 2 * prompt_config.length)
    tau, wd = prompt_config.temperature, fed.weight_decay
    # the step rule: both prompts' gradient terms in token units, the head's
    # times 1 / T^2
    s2 = np.mean(np.sum(split.class_tokens * split.class_tokens, axis=-1))
    h2 = 1.0 / tau**2
    shared = {"global_prompt": init_prompt(prompt_config, dim, seed, "global-prompt-init"),
              "head_weight": np.zeros((k, dim)), "head_bias": np.zeros(k)}
    domain = [init_prompt(prompt_config, dim, seed, "domain-prompt-init", i) for i in range(k)]
    metrics = []

    def draws(tag, pool, r, i, epoch, n, length=None):
        # the first n indices of the pool's permutation below ``length``
        order = rng(seed, tag, r, i, epoch).permutation(len(pool))
        order = order[order < (len(pool) if length is None else length)][:n]
        return [pool.select(order[start : start + fed.batch_size]) for start in range(0, n, fed.batch_size)]

    for r in range(fed.rounds):
        rates = [rate * fed.lr_decay**r for rate in (fed.global_lr, fed.head_lr, fed.domain_lr)]
        sums = {"global_loss": [0.0, 0], "head_loss": [0.0, 0], "domain_loss": [0.0, 0]}

        def add(kind, value, rows):
            sums[kind][0] += value * rows
            sums[kind][1] += rows

        uploads = {}
        for i, client in enumerate(stage_one.clients):
            n = len(client.local_set)
            prompt, w, b = (shared[name].copy() for name in ("global_prompt", "head_weight", "head_bias"))
            global_adds, head_adds = [], []
            for epoch in range(fed.global_epochs):
                for batch in draws("global-shuffle", client.train_pool, r, i, epoch, n):
                    value, grad = global_loss(batch, prompt, encoder, ct, tau)
                    global_adds.append((value, len(batch)))
                    prompt = prompt * (1.0 - rates[0] * wd) - rates[0] * (grad * s2)
                for batch in draws("global-shuffle", client.train_pool, r, i, epoch, n, len(client.head_pool)):
                    value, grads = classifier_loss(batch, DomainClassifier(w, b))
                    head_adds.append((value, len(batch)))
                    w = w * (1.0 - rates[1] * wd) - rates[1] * (grads["weight"] * h2)
                    b = b * (1.0 - rates[1] * wd) - rates[1] * (grads["bias"] * h2)
            for value, rows in global_adds:
                add("global_loss", value, rows)
            for value, rows in head_adds:
                add("head_loss", value, rows)
            uploads[i] = {"global_prompt": _on_the_wire(prompt), "head_weight": _on_the_wire(w),
                          "head_bias": _on_the_wire(b)}
        aggregated = aggregate_anchored(uploads)
        shared = {name: _on_the_wire(a) for name, a in aggregated.items()}
        for i, client in enumerate(stage_one.clients):
            for epoch in range(fed.domain_epochs):
                for batch in draws("domain-shuffle", client.local_set, r, i, epoch, len(client.local_set)):
                    slot = encoder.pool_prefix(shared["global_prompt"])
                    value, grad = domain_loss(batch, domain[i], slot, encoder, ct, tau)
                    add("domain_loss", value, len(batch))
                    domain[i] = domain[i] * (1.0 - rates[2] * wd) - rates[2] * (grad * s2)
        metrics.append({"round": float(r), **{kind: total / count for kind, (total, count) in sums.items()}})
    return shared, _on_the_wire(np.stack(domain)), metrics


@pytest.mark.parametrize("seed", [0, 1])
def test_lockstep_protocol_equals_a_per_client_reference_loop(seed):
    # every client cut to 19 rows, so that batches of 8 end in a short one;
    # two seeds draw different inits, transforms and shuffles
    world, encoder = _world()
    split = leave_one_out(world, 3)
    split = dataclasses.replace(split, clients=[client.subset(np.arange(19)) for client in split.clients])
    toggles = MethodToggles(include_target_description=True)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, seed)
    assert len(stage_one.clients[0].head_pool) < len(stage_one.clients[0].train_pool)
    prompt_config = PromptConfig(length=2, temperature=0.05, init_scale=1e-3)
    fed = FederationConfig(
        **dict(_ROUNDS, rounds=2, global_epochs=2, batch_size=8, weight_decay=0.5, lr_decay=0.7)
    )
    result = run_protocol(stage_one, split, encoder, prompt_config, fed, toggles, seed)
    shared, stack, metrics = _reference_protocol(stage_one, split, encoder, prompt_config, fed, seed)
    assert result.global_prompt.tobytes() == shared["global_prompt"].tobytes()
    assert result.classifier.weight.tobytes() == shared["head_weight"].tobytes()
    assert result.classifier.bias.tobytes() == shared["head_bias"].tobytes()
    assert result.domain_prompts.tobytes() == stack.tobytes()
    assert result.round_metrics == metrics


def _within_one_float32_ulp(a, b):
    a, b = np.asarray(a, dtype=np.float32), np.asarray(b, dtype=np.float32)
    return bool(np.all(np.abs(a - b) <= np.spacing(np.maximum(np.abs(a), np.abs(b)))))


def _whole_set_runs(seed):
    # 24 rows per client in batches of 32: the lockstep run reads every
    # pool unshuffled, the reference loop permutes it, so only the order of
    # each loss's sum differs
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(use_style_transfer=False)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, seed)
    prompt_config = PromptConfig(length=2, temperature=0.05, init_scale=1e-3)
    fed = FederationConfig(
        **dict(_ROUNDS, rounds=3, global_epochs=2, batch_size=32, weight_decay=0.5, lr_decay=0.7)
    )
    result = run_protocol(stage_one, split, encoder, prompt_config, fed, toggles, seed)
    return result, _reference_protocol(stage_one, split, encoder, prompt_config, fed, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_whole_set_passes_match_the_per_client_reference_loop(monkeypatch, seed):
    # in float64 a reordered sum moves a loss by ulps of float64 and a
    # parameter by less than the wire's rounding
    train_in_float64(monkeypatch)
    result, (shared, stack, metrics) = _whole_set_runs(seed)
    assert result.round_metrics == [pytest.approx(m, rel=1e-12, abs=0.0) for m in metrics]
    assert _within_one_float32_ulp(result.global_prompt, shared["global_prompt"])
    assert _within_one_float32_ulp(result.classifier.weight, shared["head_weight"])
    assert _within_one_float32_ulp(result.classifier.bias, shared["head_bias"])
    assert _within_one_float32_ulp(result.domain_prompts, stack)


def _within_of_largest(a, b, bound):
    return bool(np.max(np.abs(a - b)) <= bound * np.max(np.abs(b)))


@pytest.mark.parametrize("seed", [0, 1])
def test_whole_set_passes_match_the_per_client_reference_loop_in_float32(seed):
    # on float32 rows a reordered sum moves a loss and a head gradient by
    # ulps of float32.  Measured over seeds 0-5: the losses within 1.7e-7
    # relative, the prompts within one float32 ulp, the head's weight and
    # bias within 1.3e-7 and 9.6e-7 of their largest entry
    result, (shared, stack, metrics) = _whole_set_runs(seed)
    assert result.round_metrics == [pytest.approx(m, rel=1e-6, abs=0.0) for m in metrics]
    assert _within_one_float32_ulp(result.global_prompt, shared["global_prompt"])
    assert _within_one_float32_ulp(result.domain_prompts, stack)
    assert _within_of_largest(result.classifier.weight, shared["head_weight"], 5e-6)
    assert _within_of_largest(result.classifier.bias, shared["head_bias"], 5e-6)


def test_stacked_step_names_the_client_whose_loss_diverges(monkeypatch):
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(use_style_transfer=False)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0)

    def poisoned(batch, prompts, *args, **kwargs):
        values, grad = global_loss(batch, prompts, *args, **kwargs)
        return np.where(np.arange(len(values)) == 1, np.nan, values), grad

    monkeypatch.setattr(federation, "global_loss", poisoned)
    with pytest.raises(NonFiniteLossError, match=r"global loss \(round 0, client 1\)"):
        run_protocol(
            stage_one, split, encoder, PromptConfig(length=2, temperature=0.05, init_scale=1e-3),
            FederationConfig(**dict(_ROUNDS, rounds=1)), toggles, 0,
        )


# ---------------------------------------------------------------------------
# constants prepared once
# ---------------------------------------------------------------------------


def _protocol_inputs():
    world, encoder = _world()
    split = leave_one_out(world, 3)
    toggles = MethodToggles(use_style_transfer=False)
    stage_one = run_stage_one(split, encoder, TransferConfig(epochs=1, batch_size=8), 0.05, toggles, 0)
    prompt_config = PromptConfig(length=2, temperature=0.05, init_scale=1e-3)
    return stage_one, split, encoder, prompt_config, FederationConfig(**dict(_ROUNDS, rounds=2)), toggles


def test_a_bad_run_constant_fails_before_the_first_step(monkeypatch):
    stage_one, split, encoder, prompt_config, fed, toggles = _protocol_inputs()
    tokens = split.class_tokens.copy()
    tokens[1, 2] = np.nan
    split = dataclasses.replace(split, class_tokens=tokens)
    steps = []
    monkeypatch.setattr(federation, "global_loss", lambda *args, **kwargs: steps.append(args))
    with pytest.raises(DomainError, match="class_tokens contains a non-finite entry"):
        run_protocol(stage_one, split, encoder, prompt_config, fed, toggles, 0)
    assert steps == []


def test_every_prepared_constant_is_read_only(monkeypatch):
    stage_one, split, encoder, prompt_config, fed, toggles = _protocol_inputs()
    constants = []

    def spy(name):
        loss = getattr(federation, name)

        def traced(batch, *args, **kwargs):
            if name == "global_loss":
                constants.append(args[2].scaled)  # the class term
            else:
                _, slot, _, classes, _ = args
                constants.extend([slot, classes.scaled])
            return loss(batch, *args, **kwargs)

        return traced

    for name in ("global_loss", "domain_loss"):
        monkeypatch.setattr(federation, name, spy(name))
    run_protocol(stage_one, split, encoder, prompt_config, fed, toggles, 0)
    # per round: one global step, then one domain step with two constants
    assert len(constants) == fed.rounds * 3
    for constant in constants:
        with pytest.raises(ValueError, match="read-only"):
            constant[0] = 1.0
