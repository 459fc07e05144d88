"""A fixed task that measures how fast the machine runs at the moment.

On a shared host the speed of a core drifts by a quarter or more, over
tenths of a second as well as over minutes, in CPU time as much as in
wall time, and each core drifts on its own.  No run length the benchmark
can afford averages that out, so the time metrics are reported at a
reference speed instead: a time is scaled by ``REFERENCE_S`` over the
time this task took just before and just after it, in the same process.
The task uses NumPy and the interpreter only, never the program under
test, so a change to the program moves the scaled times and not the
scale.
"""

from __future__ import annotations

import os

import numpy as np

from repro.obs import span

#: What the task takes at the reference speed: about its median on the
#: 2-core Xeon VM the committed results come from.  A scaled time reads
#: as the seconds it would have taken at that speed.
REFERENCE_S = 0.055


class Calibration:
    """The task, with inputs made once and kept resident.

    Its parts are those whose times, timed next to each workload's
    operations, followed those operations most closely: an interpreter
    loop, label comparisons over 32 MiB as the pair kernel makes them,
    element-wise minima over 8 MiB arrays and a sort.  Every part writes
    into buffers made here, so a timing allocates nothing and the
    process's resident memory grows by exactly :attr:`nbytes`.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._labels = np.tile(rng.integers(0, 10, size=1 << 16, dtype=np.int32), 1 << 7)
        self._equal = np.ones(self._labels.size, dtype=bool)
        self._values = rng.random(1 << 20)
        self._reversed = self._values[::-1].copy()
        self._out = self._values.copy()

    @property
    def nbytes(self) -> int:
        """Bytes the task keeps resident."""
        arrays = (self._labels, self._equal, self._values, self._reversed, self._out)
        return sum(array.nbytes for array in arrays)

    def time(self) -> float:
        """Seconds the task took just now, on each CPU this process may use.

        Cores drift apart, so where the process may run on several (the
        portfolio's workers run on all of them), the task runs on each in
        turn and the mean counts.
        """
        cpus = os.sched_getaffinity(0)
        if len(cpus) == 1:
            return self._time_here()
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(self._time_here())
        finally:
            os.sched_setaffinity(0, cpus)
        return sum(times) / len(times)

    def _time_here(self) -> float:
        with span("bench.calibrate") as task:
            total = 0
            for i in range(300_000):
                total += i & 7
            for shift in (1, 2, 3):
                np.equal(self._labels[shift:], self._labels[:-shift], out=self._equal[shift:])
                total += int(np.count_nonzero(self._equal[shift:]))
            for _ in range(3):
                np.minimum(self._values, self._reversed, out=self._out)
            self._out[:] = self._values
            self._out.sort()
        return task.seconds


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the task's times before and after it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
