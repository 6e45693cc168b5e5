"""The benchmark's own checks on a small world: each passes on a real cell
and fails on a corrupted one."""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fdgbench import calibrate, checks, tracing, workloads

SMALL = workloads.Workload(
    "small",
    "full",
    world=dict(workloads.WORLD, classes=3, samples_per_cell=16, dim=16),
    encoder=dict(workloads.ENCODER, dim=16, max_tokens=12),
    # a faster rate than the default, so that a few steps move the embeddings
    # far enough for the domain head to beat a uniform guess
    transfer=dict(workloads.TRANSFER, learning_rate=3e-2, epochs=5, batch_size=8),
    prompt=dict(workloads.PROMPT, length=2),
    rounds=dict(workloads.ROUNDS, rounds=2, global_epochs=2, batch_size=16),
)


def _cell(variant="full", holdout=1, seed=0):
    setup = workloads.build_setup(replace(SMALL, variant=variant), seed)
    digest = setup.encoder.parameter_digest()
    return setup, workloads.run_cell(setup, holdout), digest, holdout


@pytest.mark.parametrize("variant", sorted(workloads.VARIANTS))
def test_every_check_passes_on_a_small_world(variant):
    setup, out, digest, holdout = _cell(variant)
    assert checks.check_cell(setup, holdout, out, digest) == []


def test_timer_returns_the_result_and_times_every_operation():
    timer = calibrate.Timer()
    assert timer(lambda: sum(range(100_000))) == sum(range(100_000))
    with pytest.raises(ZeroDivisionError):
        timer(lambda: 1 / 0)
    assert len(timer.seconds) == len(timer.wall) == len(timer.scaled()) == 2
    assert len(timer.edges) == 3 and len(timer.during) == 2
    assert timer.seconds[0] > 0 and timer.scaled()[0] > 0


def test_timer_samples_inside_a_long_operation_and_subtracts_the_samples():
    def spin():
        end = time.thread_time() + 4 * calibrate.INTERVAL_S
        while time.thread_time() < end:
            pass

    timer = calibrate.Timer()
    timer(spin)
    assert len(timer.during[0]) >= 2
    # the spin ends at a fixed CPU time, which includes the passes inside it
    assert timer.seconds[0] < 4 * calibrate.INTERVAL_S - 0.5 * sum(timer.during[0])
    assert signal.getsignal(signal.SIGPROF) != signal.SIG_DFL
    assert calibrate.Timer(inside=False)(spin) is None


def test_default_ledger_size():
    assert checks.expected_ledger(k=3, rounds=10, length=4, dim=64) == (66, 120_528)


def test_ledger_check_fails_on_a_dropped_record():
    setup, out, digest, holdout = _cell()
    out.result.ledger.records.pop()
    failures = checks.check_cell(setup, holdout, out, digest)
    assert any("messages" in f for f in failures)
    assert any("payload" in f for f in failures)


def test_accuracy_check_fails_on_a_changed_prediction():
    setup, out, digest, holdout = _cell()
    n = len(setup.splits[holdout].test_set)
    out.accuracy += (-1 if out.accuracy > 0.5 else 1) / n
    assert any("reference" in f for f in checks.check_cell(setup, holdout, out, digest))


def test_accuracy_check_fails_at_chance():
    setup, out, _, holdout = _cell()
    split = setup.splits[holdout]
    assert any("chance" in f for f in checks.check_accuracy(1 / 3, out.result, split, setup.encoder))


def test_encoder_check_fails_on_a_modified_array():
    setup, out, digest, holdout = _cell()
    projection = setup.encoder.projection.copy()
    projection[0, 0] += 1e-12
    setup.encoder.projection = projection
    assert any("encoder" in f for f in checks.check_cell(setup, holdout, out, digest))


def test_stage_one_check_fails_on_an_untrained_transform():
    from fedstyle.style_transfer import TransformNetwork

    setup, out, digest, holdout = _cell()
    net = out.stage_one.transforms[0][1]
    dim = setup.encoder.config.dim
    net.params = TransformNetwork.init(dim, setup.transfer.hidden_dim(dim), 0, 1, setup.seed).params
    assert any("transform 0->1" in f for f in checks.check_cell(setup, holdout, out, digest))


def test_stage_one_check_fails_on_a_missing_transform():
    setup, out, digest, holdout = _cell()
    del out.stage_one.transforms[0][1]
    assert any("transforms, expected" in f for f in checks.check_cell(setup, holdout, out, digest))


def test_domain_head_check_fails_on_an_untrained_head():
    from fedstyle.prompts import DomainClassifier

    setup, out, digest, holdout = _cell()
    out.result.classifier = DomainClassifier.init(out.result.classifier.num_domains, setup.encoder.config.dim)
    assert any("ln K" in f for f in checks.check_domain_head(out.result, out.stage_one))


def _traced_cell(variant):
    setup = workloads.build_setup(replace(SMALL, variant=variant), 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.cell = "c0"
        out = workloads.run_cell(setup, 2)
    finally:
        tracer.cell = None
        tracer.uninstall()
    return setup, tracer, out


@pytest.mark.parametrize("variant", sorted(workloads.VARIANTS))
def test_traced_counts_match_their_derivation(variant):
    setup, tracer, out = _traced_cell(variant)
    selfs = tracer.self_times()
    stages = tracing.stage_split(tracer, selfs, {"c0"})
    failures, samples = checks.check_trace(tracer, stages, setup, 2, "c0", out.stage_s)
    assert failures == []
    assert samples == workloads.expected_train_samples(setup, 2)
    assert tracer.absent == []
    for entry in stages.values():
        assert sum(entry["layers"].values()) == pytest.approx(entry["seconds"], rel=1e-9, abs=1e-12)

    del tracer.spans[[s.name for s in tracer.spans].index("wire.encode_message")]
    failures, _ = checks.check_trace(tracer, stages, setup, 2, "c0", out.stage_s)
    assert any("encode_message" in f for f in failures)


def test_tracer_restores_every_original():
    from fedstyle import data, federation, prompts, seeding

    before = (federation.global_loss, prompts.global_loss, seeding.rng, data.rng, data.LabeledEmbeddings.subset)
    tracer = tracing.Tracer()
    tracer.install()
    assert federation.global_loss is not before[0] and federation.global_loss is prompts.global_loss
    tracer.uninstall()
    assert (federation.global_loss, prompts.global_loss, seeding.rng, data.rng, data.LabeledEmbeddings.subset) == before


def test_a_removed_function_is_reported_absent():
    import fedstyle.prompts  # noqa: F401

    tracer = tracing.Tracer(targets=(("prompts", "no_such_function", None), ("no_such_layer", "f", None)))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["prompts.no_such_function", "no_such_layer.f"]


def test_run_fails_without_the_package_sources(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    shutil.copy(repo / "BENCHMARK.json", tmp_path)
    shutil.copytree(repo / "fdgbench", tmp_path / "fdgbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    command = [sys.executable] + spec["command"][1:]
    done = subprocess.run(
        command + ["--workload", "cell-full", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_reference_predictions_follow_the_documented_formula():
    # one row, one class per axis: the class whose text points along x wins
    rng = np.random.default_rng(0)
    dim, length = 4, 1
    projection = np.eye(dim)
    position_scale = np.ones(2 * length + 1)
    class_tokens = 0.1 * np.eye(dim)[:3]
    zeros = np.zeros((length, dim))
    x = np.array([[0.1, 1.0, 0.0, 0.0]])
    predicted, margin = checks.reference_predictions(
        x, zeros, np.stack([zeros, zeros]), rng.normal(size=(2, dim)), np.zeros(2),
        class_tokens, projection, position_scale,
    )
    assert predicted.tolist() == [1]
    assert margin[0] == pytest.approx(1.0 / np.hypot(0.1, 1.0) - 0.1 / np.hypot(0.1, 1.0))
