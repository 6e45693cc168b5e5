"""Exception taxonomy shared across the package.

Each is raised as early as possible so a bad value never propagates into
a training loop.
"""


class DomainError(ValueError):
    """A value is outside the mathematical domain of an operation.

    Raised for non-finite inputs, zero vectors handed to a cosine, and
    degenerate (near-zero) direction vectors.
    """


class ParameterError(ValueError):
    """An argument violates a documented precondition (shape, range, type)."""


class DataError(ValueError):
    """A training sample is malformed, e.g. a domain index out of range."""


class ConfigurationError(ValueError):
    """A configuration value or combination of toggles is invalid."""


class ProtocolError(RuntimeError):
    """A federated message violates the round protocol."""


class NonFiniteLossError(RuntimeError):
    """A training loss or gradient became NaN or infinite."""
