"""Host-speed correction: a fixed calibration kernel timed between ops.

The benchmark shares a few cores of a host whose speed drifts in phases
lasting tens of seconds to about a minute; the same pass can take 1.6 times
as long in a slow phase, in CPU time as well as wall time. A median over
one run cannot remove a phase that covers the whole run, so every timed
interval is also reported scaled to a reference speed:

    corrected = measured * REFERENCE_S / kernel

where ``kernel`` is the time of a fixed calibration kernel, interpolated at
the interval's midpoint from kernel runs made between ops (outside every
timed interval, at least every ``EVERY_S`` seconds) and smoothed over
``WINDOW_S``. The kernel mixes the kinds of work the workloads do: Python
bytecode, small numpy calls, a dense LAPACK eigensolve and float-to-text
formatting. It is benchmark code, so a
change to netwitness moves the measured time but not the kernel, and the
corrected time moves by the same factor. ``REFERENCE_S`` is the kernel's
median time on a 2-core x86-64 host in a fast phase; corrected times read
as seconds on such a host.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.040
EVERY_S = 0.5
# A kernel time is the median of the kernel runs within this many seconds:
# short against the host's phases, long enough to average single-run noise.
WINDOW_S = 5.0


def _inputs():
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((80, 80))
    small = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    floats = rng.standard_normal(11_000).tolist()
    return a @ a.T, small, floats


class HostSpeed:
    def __init__(self):
        self._sym, self._small, self._floats = _inputs()
        self.times = []   # kernel durations, s
        self.mids = []    # their midpoints on the perf_counter clock
        for _ in range(3):  # warm caches and lazy numpy paths, unrecorded
            self._kernel()

    def _kernel(self) -> None:
        s = 0
        for i in range(80_000):
            s += i * i % 7
        m = self._small
        for _ in range(400):
            k = np.kron(m, m.conj())
            np.trace(k @ k).real
        for _ in range(10):
            np.linalg.eigh(self._sym)
        json.dumps(self._floats)

    def measure(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.mids.append((t0 + t1) / 2)

    def maybe_measure(self) -> None:
        """Run the kernel if its last run was at least EVERY_S ago."""
        if not self.mids or time.perf_counter() - self.mids[-1] >= EVERY_S:
            self.measure()

    def factors(self, starts, durations) -> list:
        """REFERENCE_S / kernel time at each interval's midpoint."""
        times, mids = np.array(self.times), np.array(self.mids)
        smooth = [np.median(times[np.abs(mids - m) <= WINDOW_S]) for m in mids]
        at = np.interp([s + d / 2 for s, d in zip(starts, durations)], mids, smooth)
        return [REFERENCE_S / float(k) for k in at]

    def correct(self, starts, durations) -> list:
        return [d * f for d, f in zip(durations, self.factors(starts, durations))]

    def summary(self) -> dict:
        return {"kernel_runs": len(self.times),
                "kernel_median_s": statistics.median(self.times) if self.times else None,
                "kernel_reference_s": REFERENCE_S}
