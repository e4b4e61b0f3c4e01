"""Reference kernels: fixed work timed between jobs all through a run.

The shared host this benchmark runs on changes speed by a fifth or more
over tens of seconds, so whole runs of unchanged code differ by that much
in seconds.  Each workload therefore also times a reference kernel, a
frozen numpy or Python copy of the kind of work that dominates it, and
reports its pass time in units of the kernel's mean time in the same run
(``wall_ref``).  The drift both share cancels; a change to hardyhilbert
moves the pass time and not the kernel, which imports nothing from it.

The kernel must match the workload's mix: on a 2-vCPU virtual machine,
interleaved timings of a Python formatting loop ranged over a factor of 2.1
while a depth-12 sweep, mostly a complex matrix product, ranged over 1.5, so
one kernel for all workloads over- or under-corrects.

- carleson-sweep: one 256 x 256 tensor quadrature of a degree-1023
  polynomial's derivative (powers, complex exponentials, a complex matrix
  product), as a Carleson box takes it.
- best-constants: a direct Hankel product of size 4096 (a correlation of
  two float arrays), as each power-iteration step at the large sizes.
- certify: Python formatting and parsing of floats as CSV rows, and a
  running-sum loop over Python floats, as the slow-decay export and read.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_SHARE = 0.05   # share of a run spent timing the kernel


def _box_kernel():
    rng = np.random.default_rng(0)
    deg = 1024
    coeffs = rng.random(deg) / np.arange(1, deg + 1)
    R = np.sort(rng.uniform(0.9, 1.0, 256))
    theta = rng.uniform(-0.1, 0.1, 256)
    k = np.arange(deg)

    def run() -> float:
        radial = coeffs[None, :] * np.power.outer(R, k)
        angular = np.exp(1j * np.outer(k, theta))
        return float(np.sum(np.abs(radial @ angular) ** 2))
    return run


def _hankel_kernel():
    rng = np.random.default_rng(0)
    n = 4096
    gen = 1.0 / np.arange(1, 2 * n)
    v = rng.random(n)

    def run() -> float:
        return float(np.convolve(gen, v[::-1])[n - 1: 2 * n - 1].sum())
    return run


def _csv_kernel():
    rng = np.random.default_rng(0)
    values = [float(x) for x in rng.random(4000)]

    def run() -> float:
        text = "\n".join(f"{i},{x!r}" for i, x in enumerate(values))
        parsed = [float(line.split(",")[1]) for line in text.splitlines()]
        total, budget = 0.0, 0
        for i, x in enumerate(parsed, 1):
            total += (i * x) ** 2
            budget += total < 1.5 * i * i
        return total + budget + math.fsum(parsed)
    return run


KERNELS = {"carleson-sweep": _box_kernel, "best-constants": _hankel_kernel,
           "certify": _csv_kernel}


class Reference:
    """Times a workload's kernel so that it takes REF_SHARE of the run."""

    def __init__(self, workload: str):
        self.run = KERNELS[workload]()
        self.check = self.run()   # warm-up, untimed; every later result must equal it
        self.samples: list[float] = []
        self.spent = 0.0

    def time_once(self) -> None:
        t0 = time.perf_counter()
        result = self.run()
        dt = time.perf_counter() - t0
        if result != self.check:
            raise AssertionError(f"reference kernel gave {result!r}, expected {self.check!r}")
        self.samples.append(dt)
        self.spent += dt

    def keep_up(self, elapsed: float) -> None:
        """Time the kernel until it has taken REF_SHARE of ``elapsed``."""
        while self.spent < REF_SHARE * elapsed:
            self.time_once()

    def mean(self) -> float:
        return statistics.fmean(self.samples)
