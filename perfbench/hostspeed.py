"""A fixed reference task, timed between operations, that takes host speed out of times.

The view workloads are CPU-bound, single-threaded and run on shared
hosts whose speed drifts by 30% and more over minutes: the same InFine
pass on the same catalog ran anywhere from 6 s to 10 s within seven
minutes, and windows of one to eight passes spread as much as single
passes do, so no longer run or other statistic removes the drift.  What
does is a yardstick timed at the same moment: a fixed task, independent
of the program, run on the same thread before every view and after the
last.  A pass's time
in *reference seconds* is its wall time scaled by :data:`NOMINAL_S`
over the median reference time of the pass, i.e. the time the pass would
take on a host that runs the reference task in :data:`NOMINAL_S`.

The task mirrors what the view workloads spend their time on: numpy
grouping of small integer arrays (stable argsort, run starts, repeat,
cumsum, as the partition kernel does) and a Python loop over a dict.  It
allocates no container the garbage collector tracks per element, and the
collector is paused while it runs, so a collection of the workload's heap
never lands in a sample.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Reference-task time that defines one reference second: the task's median
#: between views on a shared 2-vCPU VM (Python 3.11, numpy 2.4.6).
NOMINAL_S = 0.0065
#: Arrays per task and their length.
ARRAYS, LENGTH = 48, 1500


class ReferenceTask:
    """The reference task and every time it took since :meth:`mark`."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20220101)
        self._arrays = [rng.integers(0, 64, size=LENGTH) for _ in range(ARRAYS)]
        self.samples: list[float] = []
        #: Seconds spent in the task, so callers can leave it out of a wall time.
        self.spent_s = 0.0
        for _ in range(3):  # warm caches and numpy's dispatch before timing
            self._run()

    def _run(self) -> int:
        total = 0
        for keys in self._arrays:
            order = np.argsort(keys, kind="stable")
            ordered = keys[order]
            starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
            bounds = np.concatenate(([0], starts, [LENGTH]))
            sizes = np.diff(bounds)
            groups = np.repeat(np.arange(sizes.shape[0]), sizes)
            total += int(np.cumsum(sizes)[-1]) + int(groups[-1])
            counts: dict[int, int] = {}
            for value in keys[:200].tolist():
                counts[value] = counts.get(value, 0) + 1
            total += len(sorted(counts))
        return total

    def sample(self) -> float:
        """Run the task once; returns and keeps its seconds."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._run()
            seconds = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        self.samples.append(seconds)
        self.spent_s += seconds
        return seconds

    def mark(self) -> int:
        """A position in :attr:`samples` to take :meth:`factor` from."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference seconds per wall second over the samples from ``since`` on."""
        return NOMINAL_S / statistics.median(self.samples[since:])
