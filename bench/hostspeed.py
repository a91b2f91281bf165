"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a shared host. Each of its virtual CPUs switches, every
few seconds and independently of the other, between its full speed and
about 60 % of it, while the process's CPU time keeps pace with its wall
time: the CPU is slowed, not taken away. Raw wall times of the same code
therefore spread wider than any useful regression bound.

So every run interleaves calibration *units* with the workload's steps, on
the CPUs the step runs on, and reports each step's time scaled to the
reference host, on which the unit's components take ``REF_S``:

    reference seconds = measured seconds * mean over CPUs and over the
        blocks just before and just after the step of
        (sum of REF_S over the unit's components / sum of their median times)

Code slows by different amounts when its CPU is slowed, so each workload
calibrates with the components that mirror its own work:

- ``streamed``: trials x bins uniforms thresholded and reduced to the first
  click per row, on buffers larger than the cache: the trial kernel.
- ``small``: many numpy calls on 16-element arrays: the law and the
  estimators.
- ``interp``: plain interpreter arithmetic: the CLI, imports and input
  generation.

The components use only numpy and the standard library, never swpemux, so
no change to the package moves them. Their buffers are allocated once, so
they do not depend on the state of the memory allocator either.
"""
from __future__ import annotations

import os
import statistics
import time

import numpy as np

# Each component's wall time on the reference host, a 2-vCPU Intel Xeon VM
# with Python 3.11 and numpy 2.4, at its full speed (the 10th percentile of
# 200 units on each CPU).
REF_S = {"streamed": 5.0e-3, "small": 1.1e-3, "interp": 1.3e-3}


class HostClock:
    """Runs calibration units on each of ``cpus`` in turn. A unit runs each
    of ``components`` once; the time of each is kept."""

    def __init__(self, cpus, components) -> None:
        self.cpus = tuple(sorted(cpus))
        self.components = tuple(components)
        self._gen = np.random.Generator(np.random.Philox(0x5EED))
        if "streamed" in self.components:
            self._big = np.empty((1 << 14, 19))
            self._big_mask = np.empty((1 << 14, 19), dtype=bool)
            self._big_hit = np.empty((1 << 14, 19), dtype=bool)

    def _streamed(self) -> int:
        """The trial kernel's shape: trials x bins uniforms, thresholds,
        first click per row, on buffers larger than the cache."""
        self._gen.random(out=self._big)
        np.less(self._big, 0.01, out=self._big_mask)
        self._gen.random(out=self._big)
        np.less(self._big, 0.1, out=self._big_hit)
        np.logical_and(self._big_mask, self._big_hit, out=self._big_hit)
        return int(self._big_hit.any(axis=1).sum()) + int(np.argmax(self._big_hit, axis=1).sum())

    @staticmethod
    def _small() -> int:
        """Many numpy calls on tiny arrays, as in the law and the estimators."""
        small = np.arange(16.0)
        for _ in range(600):
            small = np.sqrt(small * 1.0001 + 1.0)
        return int(small[3])

    @staticmethod
    def _interp() -> int:
        """Plain interpreter work, as in the CLI and input generation."""
        total = 0
        for i in range(18_000):
            total += i * i % 7
        return total

    def _unit_times(self, n: int) -> dict:
        times = {name: [] for name in self.components}
        for _ in range(n):
            for name in self.components:
                t0 = time.perf_counter()
                getattr(self, "_" + name)()
                times[name].append(time.perf_counter() - t0)
        return times

    def block(self, n: int) -> dict:
        """``n`` units on each CPU: {cpu: {component: [seconds, ...]}}. The
        calling thread is pinned to each CPU in turn and then given back
        the CPUs it had."""
        home = os.sched_getaffinity(0)
        if len(home) == 1 and home == set(self.cpus):
            return {self.cpus[0]: self._unit_times(n)}
        try:
            times = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu] = self._unit_times(n)
            return times
        finally:
            os.sched_setaffinity(0, home)


def scale(components, *blocks: dict) -> float:
    """Factor that turns seconds measured between ``blocks`` into reference
    seconds: the mean, over CPUs and blocks, of the reference time of one
    unit made of ``components`` over the sum of their median times."""
    ref = sum(REF_S[c] for c in components)
    return statistics.fmean(
        ref / sum(statistics.median(block[cpu][c]) for c in components)
        for block in blocks for cpu in block
    )
