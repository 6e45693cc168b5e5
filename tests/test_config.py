"""Config tests: every default converts and serializes back to itself, the
text form round-trips to an equal config and to identical bytes, bad input
fails with ``ConfigurationError``, and the benchmark's pinned
hyperparameters are the package defaults."""

import pytest

from fdgbench import workloads
from fedstyle.config import (
    VARIANT_ORDER,
    _KEYS,
    build_config,
    parse_config_text,
    serialize_config,
)
from fedstyle.data import WorldSpec
from fedstyle.encoder import EncoderConfig
from fedstyle.errors import ConfigurationError
from fedstyle.federation import FederationConfig
from fedstyle.prompts import PromptConfig
from fedstyle.style_transfer import TransferConfig

NON_DEFAULT = """
# a comment, then one assignment per line
world.noise = 0.30000000000000004
prompt.generator_mode = onehot
rounds.weighting = samples
rounds.count = 3
run.seeds = 3, 1, 4
run.variants = full, global-only
run.holdout = 2
"""

DEFAULT_TEXT = parse_config_text(serialize_config(build_config()))


def _default(key):
    _, attr, name = _KEYS[key]
    value = getattr(build_config(), attr)
    return value if name is None else getattr(value, name)


FLOAT_KEYS = [key for key in sorted(_KEYS) if isinstance(_default(key), float)]


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_every_default_converts_and_serializes_to_itself(key):
    assert build_config({key: DEFAULT_TEXT[key]}) == build_config()


def test_empty_text_is_the_default_experiment():
    config = build_config(parse_config_text(""))
    assert config == build_config()
    assert config.seeds == (0, 1, 2)
    assert config.variants == VARIANT_ORDER


def test_benchmark_pins_the_package_defaults():
    assert WorldSpec(seed=0, **workloads.WORLD) == WorldSpec()
    assert EncoderConfig(seed=0, **workloads.ENCODER) == EncoderConfig()
    assert TransferConfig(**workloads.TRANSFER) == TransferConfig()
    assert PromptConfig(**workloads.PROMPT) == PromptConfig()
    assert FederationConfig(**workloads.ROUNDS) == FederationConfig()


@pytest.mark.parametrize("text", ["", NON_DEFAULT], ids=["default", "non-default"])
def test_serialization_round_trips_to_an_equal_config_and_identical_bytes(text):
    config = build_config(parse_config_text(text))
    serialized = serialize_config(config)
    again = build_config(parse_config_text(serialized))
    assert again == config
    assert serialize_config(again).encode("utf-8") == serialized.encode("utf-8")


def test_non_default_values_survive_the_round_trip():
    config = build_config(parse_config_text(serialize_config(build_config(parse_config_text(NON_DEFAULT)))))
    assert config.world.noise == 0.30000000000000004
    assert config.prompt.generator_mode == "onehot"
    assert config.rounds.weighting == "samples"
    assert config.rounds.rounds == 3
    assert config.seeds == (3, 1, 4)
    assert config.variants == ("full", "global-only")
    assert config.holdout == 2


def test_later_assignments_win():
    assert parse_config_text("world.dim = 8\nworld.dim = 16\n") == {"world.dim": "16"}


@pytest.mark.parametrize(
    "text",
    [
        "world.colour = 3",        # unknown key
        "world.classes 3",         # no assignment
        "world.classes = three",   # bad value
        "run.seeds = 0, x",        # bad seed list
        "run.seeds = 1, 2, 1",     # duplicate seeds
        "run.variants = full, mystery",  # unknown variant
        "run.variant = mystery",   # unknown variant
        "transfer.hidden = -3",    # negative hidden width
    ],
)
def test_bad_input_is_a_configuration_error(text):
    with pytest.raises(ConfigurationError):
        build_config(parse_config_text(text))


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_a_configuration_error(key, raw):
    with pytest.raises(ConfigurationError):
        build_config({key: raw})


def test_unknown_key_in_values_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        build_config({"world.colour": "3"})
