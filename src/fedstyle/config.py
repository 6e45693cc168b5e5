"""Experiment configuration: plain-text parsing, validation, serialization.

The on-disk format is UTF-8 text with one ``key = value`` assignment per
line, ``#`` starting a comment, and dotted section prefixes grouping keys
by module.  Every key has a default, so an empty string parses to the
default experiment; unknown keys are rejected rather than ignored, which
catches typos that would otherwise silently run the wrong experiment.

The keys and their defaults are not written down here: they are the fields
of the config dataclasses, named ``section.field``, and each default is the
field's dataclass default.

    world.*      ``data.WorldSpec``, except ``seed`` and ``shots``
    encoder.*    ``encoder.EncoderConfig.max_tokens`` only; the world sets
                 the dimension and the runner the seed
    transfer.*   ``style_transfer.TransferConfig``
    prompt.*     ``prompts.PromptConfig``, except ``generator_mode``
    rounds.*     ``federation.FederationConfig``, except ``weighting``; its
                 ``rounds`` field is ``rounds.count``
    run.*        the run fields of ``ExperimentConfig``: ``out``, ``seeds``,
                 ``variant``, ``variants``, ``holdout``

A value is parsed by the type of its default; the section's dataclass
rejects a non-finite float.
``serialize_config(build_config())`` lists every key with its default.

Seeds enter per run: the stored world spec carries seed 0 and the runner
substitutes each requested seed, so one config describes the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

from .data import WorldSpec
from .encoder import EncoderConfig
from .errors import ConfigurationError
from .federation import FederationConfig, MethodToggles
from .prompts import PromptConfig
from .style_transfer import TransferConfig

# Ablation variants: which parts of the method run.  Toggle order:
# (global prompt, domain prompt, contrastive, prompt generator,
#  style transfer, target description).
VARIANTS: dict[str, MethodToggles] = {
    "global-only": MethodToggles(True, False, False, False, False, False),
    "domain-only": MethodToggles(False, True, False, True, False, False),
    "global-style": MethodToggles(True, False, False, False, True, False),
    "dual-prompt": MethodToggles(True, True, True, True, False, False),
    "no-contrast": MethodToggles(True, True, False, True, True, False),
    "target-text": MethodToggles(True, True, True, True, True, True),
    "full": MethodToggles(True, True, True, True, True, False),
}

# Canonical ordering for "variants = all" and for ablation output files.
VARIANT_ORDER = (
    "global-only",
    "domain-only",
    "global-style",
    "dual-prompt",
    "no-contrast",
    "target-text",
    "full",
)


def variant_toggles(name: str) -> MethodToggles:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown variant {name!r}; valid names: {', '.join(VARIANT_ORDER)}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Every tunable of a full experiment, one value per config key."""

    world: WorldSpec = WorldSpec()
    max_tokens: int = EncoderConfig.max_tokens
    transfer: TransferConfig = TransferConfig()
    prompt: PromptConfig = PromptConfig()
    rounds: FederationConfig = FederationConfig()
    out_dir: str = ""  # empty: resolve at runtime
    seeds: tuple[int, ...] = (0, 1, 2)
    variant: str = "full"  # for single runs
    variants: tuple[str, ...] = VARIANT_ORDER  # for the ablation
    holdout: int = -1  # -1: every domain in turn

    def __post_init__(self):
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("duplicate seeds")
        variant_toggles(self.variant)
        for name in self.variants:
            variant_toggles(name)
        if not self.variants:
            raise ConfigurationError("ablation needs at least one variant")
        if not -1 <= self.holdout < self.world.domains:
            raise ConfigurationError(
                f"holdout must be -1 or a domain index below {self.world.domains}"
            )
        if self.max_tokens < 2 * self.prompt.length + 2:
            raise ConfigurationError(
                "encoder.max_tokens must fit two prompt blocks plus description "
                f"and class tokens: need at least {2 * self.prompt.length + 2}"
            )

    @property
    def toggles(self) -> MethodToggles:
        return variant_toggles(self.variant)

    def encoder_config(self, seed: int) -> EncoderConfig:
        return EncoderConfig(dim=self.world.dim, max_tokens=self.max_tokens, seed=seed)

    def world_spec(self, seed: int) -> WorldSpec:
        return replace(self.world, seed=seed)

    def holdouts(self) -> tuple[int, ...]:
        if self.holdout >= 0:
            return (self.holdout,)
        return tuple(range(self.world.domains))


def _parse_seeds(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(f"bad seed list {raw!r}") from None


def _parse_variants(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return VARIANT_ORDER
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    for name in names:
        variant_toggles(name)
    return names


# Keys whose name is not ``section.field``, fields that no key sets, and
# parsers that are not the type of the default.
_RENAMED = {
    "rounds.rounds": "rounds.count",
    "run.max_tokens": "encoder.max_tokens",
    "run.out_dir": "run.out",
}
_NOT_KEYS = ("world.seed", "world.shots", "prompt.generator_mode", "rounds.weighting")
_PARSERS = {"run.seeds": _parse_seeds, "run.variants": _parse_variants}


def _derive_keys() -> dict[str, tuple]:
    """key -> (parser, ExperimentConfig attribute, section field or None)."""
    keys = {}
    for top in fields(ExperimentConfig):
        if is_dataclass(top.default):
            leaves = [(f"{top.name}.{f.name}", f.name, f.default) for f in fields(top.default)]
        else:
            leaves = [(f"run.{top.name}", None, top.default)]
        for path, name, default in leaves:
            if path in _NOT_KEYS:
                continue
            key = _RENAMED.get(path, path)
            parser = _PARSERS.get(key) or type(default)
            keys[key] = (parser, top.name, name)
    return keys


_KEYS = _derive_keys()


def parse_config_text(text: str) -> dict[str, str]:
    """Raw ``key = value`` lines to a key -> value-string map.

    Later assignments win, matching how command lines override files.
    """
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        values[key] = raw.strip()
    return values


def build_config(values: dict[str, str] | None = None) -> ExperimentConfig:
    """Assemble an ExperimentConfig from value strings over the defaults."""
    default = ExperimentConfig()
    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {}
    for key, raw in (values or {}).items():
        if key not in _KEYS:
            raise ConfigurationError(f"unknown key {key!r}")
        parse, attr, name = _KEYS[key]
        try:
            value = parse(raw)
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad value for {key}: {raw!r} ({exc})") from None
        if name is None:
            top[attr] = value
        else:
            sections.setdefault(attr, {})[name] = value
    for attr, changes in sections.items():
        top[attr] = replace(getattr(default, attr), **changes)
    return replace(default, **top)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return build_config(parse_config_text(fh.read()))


def _format_value(key: str, config: ExperimentConfig) -> str:
    _, attr, name = _KEYS[key]
    value = getattr(config, attr)
    if name is not None:
        value = getattr(value, name)
    if isinstance(value, tuple):
        if key == "run.variants" and value == VARIANT_ORDER:
            return "all"
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form: every key, sorted, one per line.

    parse(serialize(c)) == c, and serializing again yields identical bytes,
    so configs can be diffed and hashed.
    """
    lines = [f"{key} = {_format_value(key, config)}" for key in sorted(_KEYS)]
    return "\n".join(lines) + "\n"
