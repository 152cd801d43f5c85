"""The host's speed, read from a fixed piece of work timed between ops.

A shared VM's speed drifts by 20-30% within minutes, and process CPU time
drifts with it. A run therefore interleaves bursts of reference units with
its ops: once the units have fallen ``BURST_S`` behind ``SHARE`` of the time
the ops took so far, it runs units until they catch up, so the units sample
the same stretches of time as the ops. A unit is a plain-Python loop and a
small GF(3) elimination in numpy (``checks.rank_mod_p``, the benchmark's own
code, never ncl's), the two kinds of work ncl does. An op's factor is the mean unit time of the
bursts just before and just after it over the nominal unit time; a timing
divided by it reads as on a host running the units at nominal speed.
"""

from __future__ import annotations

import time

import numpy as np

from checks import rank_mod_p

SHARE = 0.10
BURST_S = 0.01   # shortest burst; one unit alone reads the speed to about 30%
# Median wall and CPU seconds of one unit on an idle 2-vCPU x86-64 VM
# (Python 3.11, numpy 2). They only fix the scale of normalised timings.
NOMINAL_WALL_S = 1.4e-3
NOMINAL_CPU_S = 1.4e-3
_MATRIX = np.random.default_rng(0).integers(0, 3, size=(24, 48))


def unit() -> int:
    s = 0
    seen: dict[int, int] = {}
    for i in range(3000):
        s += i * i % 7
        seen[i % 64] = s
    return s + rank_mod_p(_MATRIX, 3)


class Pace:
    """Bursts of reference units run between the ops of one phase."""

    def __init__(self) -> None:
        self.work_s = 0.0
        self.ref_s = 0.0
        self.bursts: list[tuple[float, float]] = []   # mean (wall, CPU) s of a unit
        self._burst()

    def _burst(self) -> None:
        units, wall, cpu = 0, 0.0, 0.0
        while wall < BURST_S or self.ref_s + wall < SHARE * self.work_s:
            t, c = time.perf_counter(), time.process_time()
            unit()
            wall += time.perf_counter() - t
            cpu += time.process_time() - c
            units += 1
        self.ref_s += wall
        self.bursts.append((wall / units, cpu / units))

    def mark(self) -> int:
        """Call before an op; pass the result to ``factors`` once ``finish`` has run."""
        return len(self.bursts)

    def keep_up(self, work_s: float) -> None:
        """Count ``work_s`` more seconds of ops; run a burst if the units fell behind."""
        self.work_s += work_s
        if self.ref_s + BURST_S <= SHARE * self.work_s:
            self._burst()

    def finish(self) -> None:
        """Run the burst that follows the last op."""
        self._burst()

    def factors(self, mark: int) -> tuple[float, float]:
        """(wall, CPU) slowness over nominal around the op that began at ``mark``."""
        (w0, c0), (w1, c1) = self.bursts[mark - 1], self.bursts[mark]
        return (w0 + w1) / 2 / NOMINAL_WALL_S, (c0 + c1) / 2 / NOMINAL_CPU_S
