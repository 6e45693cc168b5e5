"""Central finite-difference gradient checker, the tests' oracle for every
closed-form gradient in the package.

Relative errors use a denominator floored at ``REL_ERR_FLOOR``, so that
finite-difference roundoff on near-zero coordinates does not dominate the
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from fedstyle.errors import ParameterError
from fedstyle.numerics import Array, require_finite

REL_ERR_FLOOR = 1e-3


@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def format(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(
                f"{e.name}: max rel err {e.max_rel_error:.3e} at {e.worst_index} "
                f"(analytic {e.analytic:.6e}, numeric {e.numeric:.6e})"
            )
        verdict = "OK" if self.passed else "FAIL"
        lines.append(f"overall {self.max_rel_error:.3e} vs tolerance {self.tolerance:.1e}: {verdict}")
        return "\n".join(lines)


def grad_check(
    loss_fn: Callable[[dict[str, Array]], tuple[float, dict[str, Array]]],
    params: dict[str, Array],
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` maps a parameter dict to ``(loss, grads)``.  Every coordinate
    of every parameter is perturbed by ±``step``; the relative error uses a
    denominator floored at ``REL_ERR_FLOOR`` (see module docstring).
    """
    if step <= 0:
        raise ParameterError("step must be positive")
    _, analytic = loss_fn(params)
    if set(params) != set(analytic):
        raise ParameterError(f"param/grad key mismatch: {sorted(params)} vs {sorted(analytic)}")
    for name in params:
        if params[name].shape != analytic[name].shape:
            raise ParameterError(f"shape mismatch for {name}")
        require_finite(analytic[name], f"grad[{name}]")
    entries = []
    for name in sorted(params):
        base = params[name]
        worst = (0.0, (), 0.0, 0.0)
        for index in np.ndindex(base.shape if base.shape else (1,)):
            idx = index if base.shape else ()
            plus = {k: v.copy() for k, v in params.items()}
            minus = {k: v.copy() for k, v in params.items()}
            plus[name][idx] += step
            minus[name][idx] -= step
            f_plus, _ = loss_fn(plus)
            f_minus, _ = loss_fn(minus)
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = float(analytic[name][idx])
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), REL_ERR_FLOOR)
            if rel > worst[0]:
                worst = (rel, idx, a, numeric)
        entries.append(GradCheckEntry(name, worst[0], worst[1], worst[2], worst[3]))
    return GradCheckReport(entries=entries, tolerance=tolerance)
