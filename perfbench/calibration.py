"""Timing on a shared core whose speed drifts.

On the reference host (2 vCPUs of a shared Intel Xeon VM) the same Python
code runs up to 2x slower for seconds at a time while CPU time stays equal
to wall time: the core is slower, the process is not descheduled. A fixed
calibration kernel run between short chunks of the measured work slows by
nearly the same factor: over 40 s, frame time / kernel time per second
stayed within +-4 % (fine-tuning on 5 % of frames) and +-8 % (on every
frame) of its median while raw frame time moved 1.5x and 2.1x. ``Clock``
therefore reports every measured duration rescaled to a nominal core, on
which one kernel call takes ``NOMINAL_KERNEL_NS``:

    normalized = measured * NOMINAL_KERNEL_NS / kernel time around it

The kernel uses only numpy and the interpreter, never the package, so a
change to the package moves the work but not the yardstick. Raw durations
are kept alongside for the report.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

import numpy as np

# One kernel call on the reference host in its fast state: the 5th
# percentile of 6373 samples over 30 s was 91 us, the 1st 89 us.
NOMINAL_KERNEL_NS = 90_000
KERNEL_CALLS = 40
CHUNK_NS = 100_000_000


class _Kernel:
    """Small-array numpy calls and list work in the proportions of one
    engine frame: a batch matmul pair, elementwise Adam-like arithmetic, a
    row stack, a windowed vote and a list rebuild."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20221207)
        self.w = rng.standard_normal((32, 64))
        self.x = rng.standard_normal((16, 32))
        self.rows = [rng.standard_normal(32) for _ in range(96)]
        self.labels = [int(v) for v in rng.integers(0, 2, size=96)]
        self.index = np.arange(96, dtype=np.float64)

    def __call__(self) -> float:
        h = np.maximum(self.x @ self.w + 0.1, 0.0)
        y = 1.0 / (1.0 + np.exp(-(h @ self.w[0])))
        g = self.x.T @ (h * (y - 0.5)[:, None])
        m = 0.9 * g + 0.1 * g * g
        step = m / (np.sqrt(m * m) + 1e-8)
        stacked = np.stack(self.rows)
        lo = np.searchsorted(self.index, self.index - 15.0)
        hi = np.searchsorted(self.index, self.index + 15.0, side="right")
        csum = np.concatenate(([0.0], np.cumsum(self.labels)))
        vote = (csum[hi] - csum[lo]) / (hi - lo)
        keep = [i for i, v in enumerate(self.labels) if v or i % 3]
        kept = [self.rows[i] for i in keep]
        return float(step[0, 0]) + float(vote[0]) + stacked[0, 0] + len(kept)


class Clock:
    """Collects measured durations in chunks of about ``CHUNK_NS`` of wall
    time and samples the kernel between chunks. A chunk's scale factor is
    the mean of the two samples around it over ``NOMINAL_KERNEL_NS``."""

    def __init__(self) -> None:
        self._kernel = _Kernel()
        self.kernel_ns: list[float] = []
        self.chunks: list[list[int]] = []
        self.sample()

    def sample(self) -> None:
        """Close the current chunk and open the next one."""
        kernel = self._kernel
        kernel()
        start = perf_counter_ns()
        for _ in range(KERNEL_CALLS):
            kernel()
        self.kernel_ns.append((perf_counter_ns() - start) / KERNEL_CALLS)
        self.chunks.append([])
        self._next = perf_counter_ns() + CHUNK_NS

    def add(self, ns: int, now: int) -> None:
        """Record one measured duration that ended at ``now``."""
        self.chunks[-1].append(ns)
        if now >= self._next:
            self.sample()

    def finish(self) -> None:
        """Close the last chunk with a trailing kernel sample."""
        if self.chunks[-1]:
            self.sample()

    def factors(self) -> list[float]:
        k = self.kernel_ns
        return [(k[i] + k[i + 1]) / 2.0 / NOMINAL_KERNEL_NS for i in range(len(k) - 1)]

    def raw(self) -> np.ndarray:
        return np.array([d for chunk in self.chunks for d in chunk], dtype=np.float64)

    def normalized(self) -> np.ndarray:
        out = [
            np.asarray(chunk, dtype=np.float64) / f
            for chunk, f in zip(self.chunks, self.factors())
        ]
        return np.concatenate(out) if out else np.zeros(0)

    def retained_bytes(self) -> int:
        """Bytes the recorded durations hold: the benchmark's own memory,
        which grows with the number of samples."""
        return sum(sys.getsizeof(c) + sum(map(sys.getsizeof, c)) for c in self.chunks)

    def scale(self) -> float:
        """Normalized over raw time of everything measured so far."""
        raw = self.raw().sum()
        return float(self.normalized().sum() / raw) if raw else 1.0
