"""Config tests: every default converts and serializes back to itself, the
text form round-trips to an equal config and to identical bytes, bad input
fails with ``ConfigurationError``, and the benchmark's pinned
hyperparameters are the package defaults."""

import dataclasses
import math
from pathlib import Path

import pytest

import fedstyle
from fdgbench import workloads
from fedstyle.config import (
    ExperimentConfig,
    VARIANT_ORDER,
    VARIANTS,
    _KEYS,
    build_config,
    load_config,
    parse_config_text,
    serialize_config,
)
from fedstyle.data import WorldSpec
from fedstyle.encoder import EncoderConfig
from fedstyle.errors import ConfigurationError
from fedstyle.federation import FederationConfig, MethodToggles
from fedstyle.prompts import PromptConfig
from fedstyle.style_transfer import TransferConfig

NON_DEFAULT = """
# a comment, then one assignment per line
world.noise = 0.30000000000000004
prompt.init_scale = 0.001
rounds.batch_size = 64
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


def test_no_two_variants_agree_on_every_toggle_the_package_reads():
    # a toggle is read where some module of the package names it as an
    # attribute; a deleted component leaves its toggle unread, and two
    # variants that differed only there would run one method twice
    sources = "".join(path.read_text() for path in Path(fedstyle.__file__).parent.glob("*.py"))
    read = [f.name for f in dataclasses.fields(MethodToggles) if f".{f.name}" in sources]
    assert {"use_global_prompt", "use_domain_prompt", "use_style_transfer"} <= set(read)
    seen = {}
    for name, toggles in VARIANTS.items():
        key = tuple(getattr(toggles, field) for field in read)
        assert key not in seen, f"{name} runs as {seen[key]}"
        seen[key] = name


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
    assert config.prompt.init_scale == 0.001
    assert config.rounds.batch_size == 64
    assert config.rounds.rounds == 3
    assert config.seeds == (3, 1, 4)
    assert config.variants == ("full", "global-only")
    assert config.holdout == 2


def test_load_config_reads_back_a_serialized_config(tmp_path):
    config = build_config(parse_config_text(NON_DEFAULT))
    assert config != build_config()
    path = tmp_path / "experiment.cfg"
    path.write_text(serialize_config(config), encoding="utf-8")
    assert load_config(path) == config


@pytest.mark.parametrize("values, expected", [
    ({}, (0, 1, 2, 3)),
    ({"world.domains": "5"}, (0, 1, 2, 3, 4)),
    ({"run.holdout": "0"}, (0,)),
    ({"run.holdout": "2"}, (2,)),
], ids=["every-domain", "every-domain-of-five", "fixed-0", "fixed-2"])
def test_holdouts_are_every_domain_or_the_fixed_one(values, expected):
    config = build_config(values)
    assert config.holdout == int(values.get("run.holdout", -1))
    assert config.holdouts() == expected


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
        "run.variants = full, no-contrast",  # a deleted component's variant
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


FLOAT_FIELDS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (WorldSpec, TransferConfig, PromptConfig, FederationConfig)
    for f in dataclasses.fields(cls)
    if isinstance(f.default, float)
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS)
def test_config_dataclass_rejects_a_non_finite_float(cls, name, value):
    with pytest.raises(ConfigurationError, match=name):
        cls(**{name: value})


INT_FIELDS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (WorldSpec, EncoderConfig, TransferConfig, PromptConfig, FederationConfig)
    for f in dataclasses.fields(cls)
    if type(f.default) is int
]


@pytest.mark.parametrize("kind", ["integral float", "fraction", "bool"])
@pytest.mark.parametrize("cls, name", INT_FIELDS)
def test_config_dataclass_rejects_a_non_integer_in_an_int_field(cls, name, kind):
    # seed=2.0 would key every draw on "2.0" and build another world than
    # seed=2; a fraction would fail late, inside a range or a shape
    default = getattr(cls(), name)
    value = {"integral float": float(default), "fraction": default + 0.5, "bool": True}[kind]
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        cls(**{name: value})


@pytest.mark.parametrize("kind", ["integral float", "fraction", "bool"])
@pytest.mark.parametrize("name", ["holdout", "max_tokens", "seeds"])
def test_experiment_config_rejects_a_non_integer_holdout_max_tokens_or_seed(name, kind):
    # holdout=1.0 would come back from holdouts() as (1.0,)
    default = getattr(ExperimentConfig(), name)
    first = default[0] if name == "seeds" else default
    value = {"integral float": float(first), "fraction": first + 0.5, "bool": True}[kind]
    field = "seed" if name == "seeds" else name
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        ExperimentConfig(**{name: (value,) if name == "seeds" else value})


@pytest.mark.parametrize("length", [1, 4])
def test_max_tokens_must_fit_two_prompt_blocks_and_a_class_token(length):
    # [global block, domain block, class token] is the longest sequence a
    # run encodes, so 2L + 1 tokens are enough
    prompt = {"prompt.length": str(length)}
    assert build_config({**prompt, "encoder.max_tokens": str(2 * length + 1)}).max_tokens == 2 * length + 1
    with pytest.raises(ConfigurationError, match=f"need at least {2 * length + 1}"):
        build_config({**prompt, "encoder.max_tokens": str(2 * length)})


def test_unknown_key_in_values_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        build_config({"world.colour": "3"})


@pytest.mark.parametrize("key, value", [("prompt.generator_mode", "soft"), ("rounds.weighting", "uniform")])
def test_a_single_valued_field_is_not_a_key(key, value):
    assert key not in serialize_config(build_config())
    with pytest.raises(ConfigurationError, match="unknown key"):
        build_config({key: value})
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config_text(f"{key} = {value}")


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (EncoderConfig, "normalize", False),
        (PromptConfig, "generator_mode", "onehot"),
        (FederationConfig, "weighting", "samples"),
    ],
)
def test_a_single_valued_field_rejects_any_other_value(cls, name, value):
    cls(**{name: getattr(cls(), name)})
    with pytest.raises(ConfigurationError, match=name):
        cls(**{name: value})
