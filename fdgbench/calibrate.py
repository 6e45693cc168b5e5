"""Machine-speed calibration for the timed end-to-end metrics.

On a shared machine the speed one process gets drifts.  On the 2-CPU
reference machine, a shared virtual machine, the same cell took from 1.1 s
to 2.3 s within four minutes, in phases of seconds to minutes.  Process CPU
time follows wall time (no time is stolen or spent descheduled), so the loss
is contention for the core and its caches, which no setting of the process
removes.

So the benchmark samples the machine's speed with a fixed kernel that does
not use ``fedstyle``: a few passes right before and right after each timed
operation, and one pass every ``INTERVAL_S`` of CPU time while it runs, from
a profiling-timer signal.  Each operation's time, less the passes run
inside it, is scaled to the machine speed at which the median pass of its
samples takes ``REFERENCE_S``:

    scaled = (CPU seconds - passes inside) * REFERENCE_S / median pass

The kernel repeats the row work of a stage-two step: gather 2000 rows of a
6000-row pool, normalise them, project them through tanh, take a
temperature softmax over 10 classes and a gradient-shaped product.  Of the
kernels tried, its time followed the cell time most closely on a noisy
machine.  A change to the program cannot move the kernel, so a program that
is 10% faster gives a scaled time that is 10% lower.  The passes inside an
operation evict some of its cached data, which costs it a little time; the
cost is the same on every commit.

Times are CPU times of the one thread the benchmark runs
(``time.thread_time``), so time spent waiting for a core does not count.
While the profiling timer is armed, Linux updates the process CPU clock
only at scheduler ticks (4 ms here); the thread clock stays exact.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median pass, typical on the 2-CPU reference machine (Intel Xeon, numpy
# 2.4.6, one BLAS thread) in a quiet phase.  Only the unit of scaled times
# depends on it.
REFERENCE_S = 0.007
# Passes right before and right after every operation.
EDGE_PASSES = 8
# CPU seconds between two passes inside an operation.
INTERVAL_S = 0.07

_draw = np.random.default_rng(0)
_POOL = _draw.normal(size=(6000, 64))
_PROJECTION = _draw.normal(size=(64, 64)) / 8.0
_HEAD = _draw.normal(size=(10, 64))
_BATCHES = [_draw.permutation(6000)[:2000] for _ in range(3)]


def kernel_seconds() -> float:
    """CPU time of one pass of the fixed kernel."""
    start = time.thread_time()
    total = 0.0
    for batch in _BATCHES:
        rows = _POOL[batch]
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        logits = np.tanh(rows @ _PROJECTION) @ _HEAD.T / 0.15
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        total += float(((e / e.sum(axis=1, keepdims=True)).T @ rows)[0, 0])
    return time.thread_time() - start


class Timer:
    """Times operations and samples the machine's speed around them.

    ``timer(operation)`` returns the operation's result.  ``seconds`` and
    ``wall`` hold the CPU and the wall seconds of each operation, also of
    one that raised, less the passes run inside it; ``scaled()`` gives each
    CPU time scaled by the passes before, inside and after it.  With
    ``inside=False`` no pass runs inside an operation, for runs whose spans
    must not include them.
    """

    def __init__(self, inside: bool = True) -> None:
        self.inside = inside
        self.seconds: list[float] = []
        self.wall: list[float] = []
        # edges[i] precede operation i and follow operation i - 1
        self.edges: list[list[float]] = [self._edge()]
        self.during: list[list[float]] = []

    @staticmethod
    def _edge() -> list[float]:
        return [kernel_seconds() for _ in range(EDGE_PASSES)]

    def __call__(self, operation):
        during: list[float] = []

        def sample(signum, frame):
            during.append(kernel_seconds())

        previous = signal.signal(signal.SIGPROF, sample) if self.inside else None
        wall, start = time.perf_counter(), time.thread_time()
        if self.inside:
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            return operation()
        finally:
            if self.inside:
                signal.setitimer(signal.ITIMER_PROF, 0.0)
            seconds, wall = time.thread_time() - start, time.perf_counter() - wall
            if self.inside:
                # a signal still pending must not meet the default action, which ends the process
                signal.signal(signal.SIGPROF, signal.SIG_IGN if previous == signal.SIG_DFL else previous)
            self.seconds.append(seconds - sum(during))
            self.wall.append(wall - sum(during))
            self.during.append(during)
            self.edges.append(self._edge())

    def scaled(self) -> list[float]:
        return [
            seconds * REFERENCE_S / statistics.median(self.edges[i] + self.during[i] + self.edges[i + 1])
            for i, seconds in enumerate(self.seconds)
        ]
