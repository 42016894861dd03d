"""Machine-speed probe: takes the host's drifting speed out of job times.

On a shared host the same job runs up to about 1.5x slower for stretches of
10 to 60 seconds, far longer than a job, so medians over a whole run still
move between runs. The benchmark therefore times a fixed probe, made of its
own code only, before every job and after the last one, and reports each job
time scaled to a reference probe time:

    time = wall * REFERENCE_PROBE_S / (median of the probes around the job)

A slower host slows the probe and the job alike and the ratio stays put;
a slower program slows only the job. The probe mixes the kinds of work the
program does: an interpreter loop, small numpy gathers and products, a small
dense eigensolver and a BLAS matrix product. Its time is the geometric mean
of the four parts. Raw wall times and probe times are kept in the result
file beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Probe time of this module's probe on the host the benchmark was defined on
# (2 vCPUs of a shared x86-64 host, OpenBLAS with 2 threads); scaled times
# read as seconds on that host at its typical speed.
REFERENCE_PROBE_S = 0.0040
# A job's scale is the median of the WINDOW probes before and after it.
WINDOW = 5


class SpeedProbe:
    """Times a fixed mix of interpreter, numpy and BLAS work."""

    def __init__(self):
        rng = np.random.default_rng(20130317)
        self.vector = rng.standard_normal(256)
        self.perm = rng.permutation(256)
        self.small = rng.standard_normal((16, 16))
        self.complex = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.dense = rng.standard_normal((256, 256))

    def _loop(self):
        total = 0
        for i in range(30000):
            total += i * i % 7
        return total

    def _gather(self):
        x = self.vector
        for _ in range(300):
            x = x[self.perm] * 0.5 + x * 0.5
            self.small @ self.small
        return x

    def _eig(self):
        return np.linalg.eigvals(self.complex)

    def _product(self):
        x = self.dense
        for _ in range(4):
            x = self.dense @ x * 0.01
        return x

    def __call__(self) -> float:
        """Geometric mean of the four parts' wall times, in seconds."""
        logs = 0.0
        parts = (self._loop, self._gather, self._eig, self._product)
        for part in parts:
            start = time.perf_counter()
            part()
            logs += math.log(time.perf_counter() - start)
        return math.exp(logs / len(parts))


def job_scales(probes, window: int = WINDOW) -> list[float]:
    """Probe time around each job; job i ran between probes[i] and probes[i + 1]."""
    jobs = len(probes) - 1
    return [statistics.median(probes[max(0, i - window + 1):i + window + 1])
            for i in range(jobs)]


def scaled(walls, probes, window: int = WINDOW) -> list[float]:
    """Job wall times scaled to the reference probe time."""
    return [wall * REFERENCE_PROBE_S / scale
            for wall, scale in zip(walls, job_scales(probes, window), strict=True)]
