"""The ablation variants: which parts of the method run in each."""

from __future__ import annotations

from .errors import ConfigurationError
from .federation import MethodToggles

# Each variant given by the toggles in which it differs from the full method.
VARIANTS: dict[str, MethodToggles] = {
    "global-only": MethodToggles(use_domain_prompt=False, use_prompt_generator=False, use_style_transfer=False),
    "domain-only": MethodToggles(use_global_prompt=False, use_style_transfer=False),
    "global-style": MethodToggles(use_domain_prompt=False, use_prompt_generator=False),
    "dual-prompt": MethodToggles(use_style_transfer=False),
    "target-text": MethodToggles(include_target_description=True),
    "full": MethodToggles(),
}

# Canonical variant order.
VARIANT_ORDER = tuple(VARIANTS)


def variant_toggles(name: str) -> MethodToggles:
    """The toggles of variant ``name``; an unknown name raises
    ``ConfigurationError``."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown variant {name!r}; valid names: {', '.join(VARIANT_ORDER)}"
        ) from None
