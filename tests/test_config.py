"""Config tests: the variants are distinct and named, the config dataclasses
reject bad values with ``ConfigurationError``, and the benchmark's pinned
hyperparameters are the package defaults."""

import dataclasses
import math
from pathlib import Path

import pytest

import fedstyle
from fdgbench import workloads
from fedstyle.config import VARIANTS, variant_toggles
from fedstyle.data import WorldSpec
from fedstyle.encoder import EncoderConfig
from fedstyle.errors import ConfigurationError
from fedstyle.federation import FederationConfig, MethodToggles
from fedstyle.prompts import PromptConfig
from fedstyle.style_transfer import TransferConfig


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


@pytest.mark.parametrize("name", ["mystery", "no-contrast"])
def test_an_unknown_variant_is_a_configuration_error(name):
    # no-contrast named a deleted component
    with pytest.raises(ConfigurationError, match="unknown variant"):
        variant_toggles(name)


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


# (cls, field, value, message) for a value one step outside each range check
OUT_OF_RANGE = [
    (WorldSpec, "classes", 1, "at least 2 classes"),
    (WorldSpec, "domains", 2, "at least 3 domains"),
    (WorldSpec, "samples_per_cell", 0, "one sample per"),
    (WorldSpec, "noise", -1e-3, "noise must be non-negative"),
    (WorldSpec, "shift_scale", 0.0, "must be positive"),
    (WorldSpec, "shift_scale", -2.0, "must be positive"),
    (WorldSpec, "token_scale", 0.0, "must be positive"),
    (WorldSpec, "token_scale", -0.01, "must be positive"),
    (EncoderConfig, "dim", 1, "dim must be at least 2"),
    (EncoderConfig, "max_tokens", 1, "max_tokens must be at least 2"),
    (PromptConfig, "length", 0, "length must be at least 1"),
    (PromptConfig, "temperature", 0.0, "temperature must be positive"),
    (PromptConfig, "temperature", -0.15, "temperature must be positive"),
    (PromptConfig, "init_scale", -1e-3, "init_scale must be non-negative"),
    (FederationConfig, "rounds", 0, "at least one round"),
    (FederationConfig, "global_epochs", 0, "epoch counts"),
    (FederationConfig, "domain_epochs", 0, "epoch counts"),
    (FederationConfig, "global_lr", 0.0, "global_lr must be positive"),
    (FederationConfig, "head_lr", 0.0, "head_lr must be positive"),
    (FederationConfig, "domain_lr", 0.0, "domain_lr must be positive"),
    (FederationConfig, "domain_lr", -1e-3, "domain_lr must be positive"),
    (FederationConfig, "weight_decay", -1e-3, "weight_decay must be non-negative"),
    (FederationConfig, "lr_decay", 0.0, r"lr_decay must be in \(0, 1\]"),
    (FederationConfig, "lr_decay", -0.7, r"lr_decay must be in \(0, 1\]"),
    (FederationConfig, "lr_decay", 1.001, r"lr_decay must be in \(0, 1\]"),
    (FederationConfig, "batch_size", 0, "batch_size must be at least 1"),
    (TransferConfig, "alignment_weight", -1e-3, r"alignment_weight must lie in \[0, 1\]"),
    (TransferConfig, "alignment_weight", 1.001, r"alignment_weight must lie in \[0, 1\]"),
    (TransferConfig, "learning_rate", 0.0, "optimizer"),
    (TransferConfig, "learning_rate", -1e-3, "optimizer"),
    (TransferConfig, "weight_decay", -1e-3, "optimizer"),
    (TransferConfig, "epochs", -1, "schedule"),
    (TransferConfig, "batch_size", 0, "schedule"),
    (TransferConfig, "hidden", -1, "hidden must be non-negative"),
]


@pytest.mark.parametrize(
    "cls, name, value, message",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}={case[2]}") for case in OUT_OF_RANGE],
)
def test_config_dataclass_rejects_a_value_outside_its_range(cls, name, value, message):
    with pytest.raises(ConfigurationError, match=message):
        cls(**{name: value})


# (cls, field, value) at the edge of each range check, or as close as a
# float gets to an open edge
AT_THE_EDGE = [
    (WorldSpec, "classes", 2),
    (WorldSpec, "domains", 3),
    (WorldSpec, "samples_per_cell", 1),
    (WorldSpec, "noise", 0.0),
    (WorldSpec, "shift_scale", 5e-324),
    (WorldSpec, "token_scale", 5e-324),
    (EncoderConfig, "dim", 2),
    (EncoderConfig, "max_tokens", 2),
    (PromptConfig, "length", 1),
    (PromptConfig, "temperature", 5e-324),
    (PromptConfig, "init_scale", 0.0),
    (FederationConfig, "rounds", 1),
    (FederationConfig, "global_epochs", 1),
    (FederationConfig, "domain_epochs", 1),
    (FederationConfig, "global_lr", 5e-324),
    (FederationConfig, "head_lr", 5e-324),
    (FederationConfig, "domain_lr", 5e-324),
    (FederationConfig, "weight_decay", 0.0),
    (FederationConfig, "lr_decay", 5e-324),
    (FederationConfig, "lr_decay", 1.0),
    (FederationConfig, "batch_size", 1),
    (TransferConfig, "alignment_weight", 0.0),
    (TransferConfig, "alignment_weight", 1.0),
    (TransferConfig, "learning_rate", 5e-324),
    (TransferConfig, "weight_decay", 0.0),
    (TransferConfig, "epochs", 0),
    (TransferConfig, "batch_size", 1),
    (TransferConfig, "hidden", 0),
]


@pytest.mark.parametrize(
    "cls, name, value",
    [pytest.param(*case, id=f"{case[0].__name__}.{case[1]}={case[2]}") for case in AT_THE_EDGE],
)
def test_config_dataclass_accepts_the_edge_of_its_range(cls, name, value):
    assert getattr(cls(**{name: value}), name) == value
