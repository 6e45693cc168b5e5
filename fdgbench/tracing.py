"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` wraps each target function.  The wrapper replaces the
function where it is defined and wherever a caller bound the name by
``from .module import name``; methods are replaced on their class.  Each
call records a span (name, start, end, parent, cell id, amount) in memory;
``uninstall`` restores every original.  A target that no longer exists is
listed in ``absent`` and its metrics are reported as absent.

A span's self time is its duration minus the time covered by its child
spans; within one stage the self times of all spans add up to the stage's
root span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass


def _len_of_first_argument(args, kwargs, result):
    return len(args[0])


def _len_of_result(args, kwargs, result):
    return len(result)


# (layer, module attribute path, amount recorded per call or None)
TARGETS = (
    ("data", "generate_world", None),
    ("data", "LabeledEmbeddings.subset", _len_of_result),
    ("seeding", "rng", None),
    ("encoder", "FrozenEncoder.encode_class_texts", None),
    ("encoder", "FrozenEncoder.encode_class_texts_backward", None),
    ("encoder", "FrozenEncoder.encode_text", None),
    ("numerics", "adam_step", None),
    ("numerics", "sgd_step", None),
    ("style_transfer", "train_transform", None),
    ("style_transfer", "text_delta_directions", None),
    ("style_transfer", "build_augmentation_bank", None),
    ("prompts", "global_loss", _len_of_first_argument),
    ("prompts", "domain_loss", _len_of_first_argument),
    ("prompts", "classifier_loss", _len_of_first_argument),
    ("prompts", "predict_unseen_batch", _len_of_first_argument),
    # private, traced to measure how much stage two spends renormalising
    # an unchanged pool on every call
    ("prompts", "_normalized_rows", _len_of_first_argument),
    ("wire", "encode_message", _len_of_result),
    ("wire", "decode_message", None),
    ("federation", "run_stage_one", None),
    ("federation", "run_protocol", None),
    ("federation", "evaluate_accuracy", None),
    ("federation", "aggregate_anchored", None),
)

PACKAGE = "fedstyle"
STAGES = ("federation.run_stage_one", "federation.run_protocol", "federation.evaluate_accuracy")


def span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    cell: str
    amount: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``cell`` is set; passes calls through otherwise."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.cell: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, path, amount in self.targets:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(span_name(layer, path))
                continue
            wrapper = self._wrap(span_name(layer, path), original, amount)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, original, amount):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.cell is None:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.cell, None)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result

        return functools.wraps(original)(traced)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                out[span.parent] -= span.duration
        return out

    def write(self, path) -> None:
        """Spans as gzip-compressed JSON lines: name, start, end, parent, cell, amount."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent, span.cell, span.amount]))
                handle.write("\n")


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    amount: int = 0


def cell_stats(tracer: Tracer, selfs: list[float], cells: set[str]) -> dict[str, SpanStats]:
    """Per span name over the given cells: calls, inclusive and self
    seconds, summed amount."""
    stats: dict[str, SpanStats] = {}
    for span, self_s in zip(tracer.spans, selfs):
        if span.cell not in cells:
            continue
        entry = stats.setdefault(span.name, SpanStats())
        entry.calls += 1
        entry.seconds += span.duration
        entry.self_seconds += self_s
        entry.amount += span.amount or 0
    return stats


def stage_split(tracer: Tracer, selfs: list[float], cells: set[str]) -> dict[str, dict]:
    """For each stage, summed over the given cells: the duration of its root
    spans, self seconds per layer, and inclusive seconds per span name."""
    stage_of: dict[int, str] = {}
    out: dict[str, dict] = {}
    for index, span in enumerate(tracer.spans):
        if span.cell not in cells:
            continue
        if span.name in STAGES and span.parent < 0:
            stage_of[index] = span.name
            entry = out.setdefault(span.name, {"seconds": 0.0, "layers": {}, "functions": {}})
            entry["seconds"] += span.duration
        elif span.parent in stage_of:
            stage_of[index] = stage_of[span.parent]
        else:
            continue
        entry = out[stage_of[index]]
        layer = span.name.split(".", 1)[0]
        entry["layers"][layer] = entry["layers"].get(layer, 0.0) + selfs[index]
        entry["functions"][span.name] = entry["functions"].get(span.name, 0.0) + span.duration
    return out


def rows_under(tracer: Tracer, cell: str, parent: str, children: tuple[str, ...]) -> int | None:
    """Summed amount of the ``children`` spans called directly by a
    ``parent`` span in one cell; None when no such span was recorded."""
    parents = {i for i, s in enumerate(tracer.spans) if s.cell == cell and s.name == parent}
    rows = [s.amount for s in tracer.spans if s.parent in parents and s.name in children]
    return sum(rows) if rows else None
