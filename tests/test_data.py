"""World generation tests: geometry, determinism, splits.

The sample-mean oracle is Monte-Carlo: at small noise the per-cell mean
embedding approaches the noiseless embedding at the usual 3 sigma / sqrt(n)
rate.  The text-direction fidelity check ties the world tokens to the
encoder's near-linear regime.
"""

import numpy as np
import pytest

from fedstyle.data import (
    LabeledEmbeddings,
    WorldSpec,
    generate_world,
    leave_one_out,
)
from fedstyle.encoder import EncoderConfig, FrozenEncoder
from fedstyle.errors import ConfigurationError, DataError, ParameterError


def make_world(seed=0, **overrides):
    defaults = dict(classes=4, domains=3, samples_per_cell=20, noise=0.05, dim=16, seed=seed,
                    shift_scale=1.0)
    defaults.update(overrides)
    spec = WorldSpec(**defaults)
    enc = FrozenEncoder(EncoderConfig(dim=spec.dim, max_tokens=8, seed=seed))
    return generate_world(spec, enc), enc


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def test_prototypes_are_orthonormal_and_shifts_live_off_them():
    world, _ = make_world()
    gram = world.prototypes @ world.prototypes.T
    assert np.allclose(gram, np.eye(world.spec.classes), atol=1e-10)
    # unit shifts, orthogonal to every prototype
    assert np.linalg.norm(world.shifts, axis=1) == pytest.approx(1.0, abs=1e-10)
    assert np.abs(world.shifts @ world.prototypes.T).max() < 1e-10


def test_shifts_share_a_plane_at_spread_angles():
    world, _ = make_world()
    k = world.spec.domains
    # rank 2: three or more distinct in-plane directions span the plane
    singulars = np.linalg.svd(world.shifts, compute_uv=False)
    assert singulars[1] > 0.1
    assert singulars[2:].max() < 1e-10
    # jitter is capped at an eighth of the spacing, so the angle between
    # any two shifts stays above three quarters of the even spacing
    cos_bound = np.cos(0.75 * 2.0 * np.pi / k)
    gram = world.shifts @ world.shifts.T
    off_diagonal = gram[~np.eye(k, dtype=bool)]
    assert off_diagonal.max() < cos_bound + 1e-9


def test_dimension_too_small_is_rejected():
    spec = WorldSpec(classes=10, domains=4, samples_per_cell=5, noise=0.1, dim=13, seed=0, shift_scale=1.0)
    enc = FrozenEncoder(EncoderConfig(dim=13, max_tokens=8, seed=0))
    with pytest.raises(ConfigurationError):
        generate_world(spec, enc)


def test_tokens_are_scaled_directions():
    world, _ = make_world()
    assert np.allclose(world.class_tokens, 0.01 * world.prototypes, atol=1e-15)
    assert np.allclose(world.domain_tokens, 0.01 * world.shifts, atol=1e-15)


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def test_sample_counts_labels_and_unit_norms():
    world, _ = make_world()
    spec = world.spec
    total = spec.classes * spec.domains * spec.samples_per_cell
    assert len(world.samples) == total
    assert np.linalg.norm(world.samples.embeddings, axis=1) == pytest.approx(1.0, abs=1e-9)
    for domain in range(spec.domains):
        for label in range(spec.classes):
            mask = (world.samples.domains == domain) & (world.samples.labels == label)
            assert mask.sum() == spec.samples_per_cell


def test_generation_is_deterministic_bitwise():
    a, _ = make_world(seed=9)
    b, _ = make_world(seed=9)
    assert a.samples.embeddings.tobytes() == b.samples.embeddings.tobytes()
    c, _ = make_world(seed=10)
    assert a.samples.embeddings.tobytes() != c.samples.embeddings.tobytes()


def test_zero_noise_repeats_the_cell_prototype():
    world, enc = make_world(noise=0.0)
    cell = world.samples.subset(
        np.flatnonzero((world.samples.domains == 1) & (world.samples.labels == 2))
    )
    raw = world.prototypes[2] + world.shifts[1]
    expected = enc.encode_image_batch((raw / np.linalg.norm(raw))[None, :])[0]
    assert np.allclose(cell.embeddings, expected[None, :], atol=1e-12)


def test_cell_mean_approaches_noiseless_embedding():
    # Monte-Carlo oracle: the mean of n samples in d dimensions deviates
    # from the noiseless embedding by about sigma * sqrt(d / n); the two
    # normalizations add a curvature bias of order sigma^2 * d.
    sigma, n, d = 0.02, 400, 16
    world, enc = make_world(samples_per_cell=n, noise=sigma, dim=d)
    cell = world.samples.subset(
        np.flatnonzero((world.samples.domains == 0) & (world.samples.labels == 0))
    )
    raw = world.prototypes[0] + world.shifts[0]
    noiseless = enc.encode_image_batch((raw / np.linalg.norm(raw))[None, :])[0]
    deviation = np.linalg.norm(cell.embeddings.mean(axis=0) - noiseless)
    assert deviation < 3.0 * sigma * np.sqrt(d / n) + sigma**2 * d


def test_text_direction_tracks_shift_difference():
    # The direction of T([t_j, t_y]) - T([t_i, t_y]) must align with the
    # projected position-scaled shift difference at cosine > 0.9.
    world, enc = make_world(dim=32)
    y = world.class_tokens[0]
    deltas = []
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        ei = enc.encode_text(np.stack([world.domain_tokens[i], y]))
        ej = enc.encode_text(np.stack([world.domain_tokens[j], y]))
        delta = ej - ei
        target = enc.projection @ (enc.position_scale[0] * (world.domain_tokens[j] - world.domain_tokens[i]))
        cos = float(delta @ target / (np.linalg.norm(delta) * np.linalg.norm(target)))
        deltas.append(cos)
    assert min(deltas) > 0.9


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_leave_one_out_partitions_and_renumbers():
    world, _ = make_world()
    split = leave_one_out(world, holdout=1)
    assert split.source_domain_ids == [0, 2]
    assert split.num_clients == 2
    per_cell = world.spec.classes * world.spec.samples_per_cell
    for client_index, ds in enumerate(split.clients):
        assert len(ds) == per_cell
        assert np.all(ds.domains == client_index)
    assert len(split.test_set) == per_cell
    assert np.all(split.test_set.domains == 1)
    total = sum(len(c) for c in split.clients) + len(split.test_set)
    assert total == len(world.samples)
    assert np.allclose(split.source_domain_tokens, world.domain_tokens[[0, 2]])
    assert np.allclose(split.target_domain_token, world.domain_tokens[1])


def test_leave_one_out_shares_each_domains_rows_read_only():
    world, _ = make_world()
    split = leave_one_out(world, holdout=1)
    for domain, ds in zip([0, 2, 1], split.clients + [split.test_set]):
        rows = np.flatnonzero(world.samples.domains == domain)
        assert ds.embeddings.tobytes() == world.samples.embeddings[rows].tobytes()
        assert np.array_equal(ds.labels, world.samples.labels[rows])
        assert np.shares_memory(ds.embeddings, world.samples.embeddings)
        with pytest.raises(ValueError):
            ds.embeddings[0, 0] = 0.0
        with pytest.raises(ValueError):
            ds.labels[0] = 0
    assert np.all(world.samples.embeddings.flags.writeable)


def test_leave_one_out_rejects_bad_holdout():
    world, _ = make_world()
    with pytest.raises(ParameterError):
        leave_one_out(world, holdout=3)
    with pytest.raises(ParameterError):
        leave_one_out(world, holdout=-1)


@pytest.mark.parametrize("holdout", [True, 1.0], ids=["bool", "float"])
def test_leave_one_out_rejects_a_holdout_that_is_not_an_integer(holdout):
    # True would give domain 1's split with holdout True; 1.0 used to fail
    # with an untyped TypeError from a slice
    world, _ = make_world()
    with pytest.raises(ParameterError, match="holdout must be an integer"):
        leave_one_out(world, holdout=holdout)


def test_leave_one_out_takes_a_numpy_integer_holdout():
    world, _ = make_world()
    split = leave_one_out(world, holdout=np.int64(1))
    assert split.holdout == 1 and split.source_domain_ids == [0, 2]
    assert split.test_set.embeddings.tobytes() == leave_one_out(world, holdout=1).test_set.embeddings.tobytes()


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


def test_labeled_embeddings_validation_and_concat():
    with pytest.raises(ParameterError):
        LabeledEmbeddings(np.zeros((3, 2)), np.zeros(2), np.zeros(3))
    a = LabeledEmbeddings(np.ones((2, 2)), [0, 1], [0, 0])
    b = LabeledEmbeddings(2 * np.ones((1, 2)), [1], [1])
    merged = LabeledEmbeddings.concat([a, b])
    assert len(merged) == 3
    assert merged.domains.tolist() == [0, 0, 1]


_NOT_WHOLE = pytest.mark.parametrize(
    "values",
    [[0.5, 1.7], [np.nan, 0.0], [np.inf, 0.0], np.array([True, False]), np.array(["0", "1"])],
    ids=["fraction", "nan", "inf", "bool", "str"],
)


@_NOT_WHOLE
@pytest.mark.parametrize("field", ["labels", "domains"])
def test_labeled_embeddings_rejects_labels_that_are_not_whole_numbers(field, values):
    # before, [0.5, 1.7] trained as [0, 1], NaN became -2**63 and bools 1/0
    parts = {"labels": [0, 1], "domains": [0, 0], field: values}
    with pytest.raises(DataError, match=field):
        LabeledEmbeddings(np.ones((2, 2)), parts["labels"], parts["domains"])


def test_labeled_embeddings_converts_whole_floats_and_keeps_an_int64_array():
    whole = LabeledEmbeddings(np.ones((2, 2)), np.array([0.0, 3.0]), np.zeros(2))
    assert whole.labels.dtype == whole.domains.dtype == np.int64
    assert whole.labels.tolist() == [0, 3] and whole.domains.tolist() == [0, 0]
    empty = LabeledEmbeddings(np.zeros((0, 2)), [], np.zeros(0))
    assert empty.labels.dtype == empty.domains.dtype == np.int64 and len(empty) == 0
    labels = np.array([2, 1], dtype=np.int64)
    assert LabeledEmbeddings(np.ones((2, 2)), labels, np.array([0, 1], dtype=np.int32)).labels is labels
