"""Timings scaled to a reference host speed by a probe run between them.

The reference machine is a 2-vCPU virtual machine on a shared host. Its
cores run slower or faster by tens of percent over seconds to minutes as
other tenants load the host; CPU time follows wall time, so the slowdown is
in the cores, not in waiting. Such drift moves every timing of a run alike
and a run's median cannot remove it, so two sets of runs of the same code
disagree by more than any useful bound.

Host speed changes within seconds, so it is measured right where the
program runs. The runner times every call into the library it measures
through `HostClock.timed`, which runs a probe just before the call (unless
one has just ended) and just after it. A probe is about 50 ms of fixed
pure-Python and numpy work, half of each by time, that never touches the
library, so its duration follows only the host's speed.
`HostClock.seconds(start, end)` scales an interval by REFERENCE_PROBE_S
over the mean duration of the two probes around it: on a host at the
reference speed a scaled time reads as measured, during a slow spell it is
shrunk by the factor its probes were stretched by. A change to the library
cannot move the probe, so it moves scaled times as it moves raw ones.

Measured over 90 alternations of a 200k-row `generalize` with probes, the
log of the raw time had a standard deviation of 0.171; scaled by the two
probes around each call 0.089, and by the median probe of a window of
three to eleven calls 0.105 to 0.118. A factor fixed for a whole run
cannot follow these changes at all. A half-Python, half-numpy probe
tracked the op with a slope near 1; an all-Python probe moved 1.3 to 1.6
times as much as the op, an all-numpy one about 0.6 times as much.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# Median probe duration on the reference machine (Intel Xeon, 2 vCPUs),
# measured with python3 bench/hostspeed.py; scaled times are in seconds of
# a host running at that speed.
REFERENCE_PROBE_S = 0.050

# A probe ending less than this long before a timed call serves as the
# probe before it.
FRESH_S = 0.05


class HostClock:
    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, end), in order
        # Work arrays allocated once, so a probe's time does not depend on
        # how the program left the process's memory.
        self._keys = np.random.default_rng(0).integers(0, 2**40, 1_500_000)
        self._sorted = np.empty_like(self._keys)
        self._above = np.empty(len(self._keys), dtype=bool)
        self._below = np.empty(len(self._keys), dtype=bool)

    def _probe_work(self) -> int:
        """About half pure-Python (loop, dict, int arithmetic) and half numpy
        (sort, comparisons) by time, as the library's own time is."""
        seen: dict[int, int] = {}
        total = 0
        for i in range(120_000):
            k = (i * 7919) % 1009
            seen[k] = seen.get(k, 0) + i
            total += k * k
        keys, ordered = self._keys, self._sorted
        ordered[:] = keys
        ordered.sort()
        np.greater(keys, ordered[len(keys) // 3], out=self._above)
        np.less(keys, ordered[2 * len(keys) // 3], out=self._below)
        np.logical_and(self._above, self._below, out=self._above)
        return total + int(np.count_nonzero(self._above))

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the program's live objects must not slow the probe
        try:
            start = time.perf_counter()
            self._probe_work()
            self.probes.append((start, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def timed(self, fn, *args, **kwargs):
        """Call fn between two probes; return its result and (start, end)."""
        if not self.probes or time.perf_counter() - self.probes[-1][1] > FRESH_S:
            self.probe()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        self.probe()
        return result, (start, end)

    def durations(self) -> list[float]:
        return [end - start for start, end in self.probes]

    def seconds(self, start: float, end: float) -> float:
        """`end - start` at the reference host speed, by the last probe
        that ended before it and the first that started after it."""
        before = bisect.bisect_right([e for _, e in self.probes], start) - 1
        after = bisect.bisect_left([s for s, _ in self.probes], end)
        if before < 0 or after == len(self.probes):
            raise ValueError("interval not between two probes")
        local = (self.probes[before][1] - self.probes[before][0]
                 + self.probes[after][1] - self.probes[after][0]) / 2
        return (end - start) * REFERENCE_PROBE_S / local


if __name__ == "__main__":
    clock = HostClock()
    deadline = time.perf_counter() + 20
    while time.perf_counter() < deadline:
        clock.probe()
    durations = clock.durations()
    q1, q2, q3 = statistics.quantiles(durations, n=4)
    print(f"{len(durations)} probes over 20 s: median {q2:.6f} s, quartiles {q1:.6f}-{q3:.6f} s")
