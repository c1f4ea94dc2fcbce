"""Machine-speed gauge for a shared host.

On a small shared virtual machine the speed of the same code drifts by up
to a factor of two within a minute, and not by the same factor for every
kind of work: interpreter-bound code and code that streams large arrays
drift apart. The gauge therefore times two fixed micro-kernels, one per
kind of work, and reports each job's time scaled to nominal speed:

    reference seconds = measured seconds * NOMINAL_S[kind] / mean kernel time

The kernel of the job's kind is sampled just before and just after the job
and, through a CPU-time interval timer (SIGPROF), every SAMPLE_EVERY_S of
CPU time while it runs; the time spent in those samples is taken off the
job's measured time. The same samples enforce a job's deadline, which is
given in reference seconds. The kernels belong to the benchmark, so a change
to the program never changes them. Raw seconds are reported next to scaled
ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERP = "interp"
MEMORY = "memory"

# Median micro-kernel times on a shared 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4); they only fix the scale of the reported seconds.
NOMINAL_S = {INTERP: 0.0006, MEMORY: 0.0016}
SAMPLE_EVERY_S = 0.025
_BRACKET_REPEATS = 8
_RNG_SEED = 20260101


class DeadlineExceeded(BaseException):
    """Raised into a running job when it has used up its deadline."""


class Gauge:
    """Speed samples around and inside jobs."""

    def __init__(self):
        rng = np.random.default_rng(_RNG_SEED)
        self._tableau = rng.random((150, 200))
        self._values = rng.random(10_000)
        self._kernels = {INTERP: self._interp, MEMORY: self._memory}
        self._kind = INTERP
        self._samples: list[float] = []
        self._overhead = 0.0
        self._overhead_total = 0.0
        self._start = 0.0
        self._deadline = float("inf")
        self.last = self._bracket()

    # -- kernels --------------------------------------------------------------

    @staticmethod
    def _interp() -> float:
        """Short Python loops and many small numpy calls."""
        rng = np.random.default_rng(_RNG_SEED)
        start = time.perf_counter()
        acc = 0
        for _ in range(30):
            acc += int(np.unique(rng.integers(0, 50, size=8)).size)
            acc += sum(j * j for j in range(24))
        elapsed = time.perf_counter() - start
        if acc < 0:  # keeps the loop's result live
            raise AssertionError
        return elapsed

    def _memory(self) -> float:
        """Dense rank-one tableau updates and a stable sort."""
        work = self._tableau.copy()
        start = time.perf_counter()
        for row in range(2):
            work -= np.outer(work[:, row], work[row]) * 1e-3
        np.argsort(self._values, kind="stable")
        return time.perf_counter() - start

    def _bracket(self) -> dict[str, float]:
        return {
            kind: statistics.median(kernel() for _ in range(_BRACKET_REPEATS))
            for kind, kernel in self._kernels.items()
        }

    def _on_tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(self._kernels[self._kind]())
        spent = time.perf_counter() - start
        self._overhead += spent
        self._overhead_total += spent
        if self._reference(start - self._start) > self._deadline:
            raise DeadlineExceeded()

    def _reference(self, wall_s: float) -> float:
        """Reference seconds of ``wall_s`` of job time, from the samples so
        far (sample time excluded)."""
        kind = self._kind
        speed = statistics.fmean([self.last[kind], *self._samples])
        return (wall_s - self._overhead) * NOMINAL_S[kind] / speed

    # -- jobs -------------------------------------------------------------------

    def clock(self) -> float:
        """A performance counter that stops while the gauge samples."""
        return time.perf_counter() - self._overhead_total

    def start(self, kind: str, deadline: float) -> None:
        """Begin sampling inside a job whose work is of ``kind`` and that may
        run for ``deadline`` reference seconds."""
        self._kind = kind
        self._samples = []
        self._overhead = 0.0
        self._deadline = deadline
        signal.signal(signal.SIGPROF, self._on_tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, float]:
        """End the job; returns (measured seconds without the samples,
        reference seconds)."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        wall = time.perf_counter() - self._start
        after = self._bracket()
        self._samples.append(after[self._kind])
        ref = self._reference(wall)
        self.last = after
        return wall - self._overhead, ref
