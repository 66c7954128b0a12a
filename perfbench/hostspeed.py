"""Host-speed reference: a fixed numpy loop, timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
about +-20% over tens of seconds, as other tenants come and go.  That drift
moves every operation of a run alike, and it also moves this reference loop,
which does the same kind of work as conric at the same sizes (small complex
factorisations called from Python) but never calls conric.  A run samples
the loop every ``EVERY_S`` seconds between operations and scales the time of
each operation by ``NOMINAL_S / median(nearby samples)``, the samples taken
within about a second of it: timings read as on a host where one loop takes
``NOMINAL_S``.  A change to conric moves the timings and not the loop.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# One loop takes about this long on a 2-vCPU x86-64 VM with OpenBLAS pinned
# to one thread; scaled timings are therefore close to wall-clock ones there.
NOMINAL_S = 0.005
EVERY_S = 0.2
HALF_WINDOW = 5  # samples on each side of an operation: about 1 s at EVERY_S
SIZES = (4, 8, 16, 32)
REPEATS = 8


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(20121108)  # fixed: the loop never depends on the workload seed
        self._mats = []
        for n in SIZES:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self._mats.append((m, m @ m.conj().T + np.eye(n)))
        self.samples: list[float] = []
        self._due = perf_counter()

    def sample(self) -> float:
        """Time one reference loop and keep the sample."""
        start = perf_counter()
        for _ in range(REPEATS):
            for m, h in self._mats:
                np.linalg.inv(m)
                np.linalg.eigvalsh(h)
                np.linalg.cholesky(h)
                np.linalg.svd(m, compute_uv=False)
                m @ h
        seconds = perf_counter() - start
        self.samples.append(seconds)
        self._due = perf_counter() + EVERY_S
        return seconds

    def maybe_sample(self) -> float:
        """Sample if ``EVERY_S`` has passed since the last sample; the time spent."""
        return self.sample() if perf_counter() >= self._due else 0.0

    def factor(self) -> float:
        """Multiply a time by this (divide a rate) to express it at nominal host speed."""
        return NOMINAL_S / statistics.median(self.samples)

    def local_factors(self, positions: list[int]) -> np.ndarray:
        """The factor for each operation, from the samples around it.

        ``positions[i]`` is the number of samples taken before operation i
        started; the drift of a shared host changes within a run, and a
        factor from nearby samples follows it.
        """
        samples = np.array(self.samples)
        return np.array(
            [NOMINAL_S / np.median(samples[max(0, p - HALF_WINDOW) : p + HALF_WINDOW]) for p in positions]
        )
