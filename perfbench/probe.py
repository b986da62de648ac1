"""A speed probe that runs alongside the timed work.

The reference machine's speed is bimodal: for stretches of a fraction of a
second to a few seconds, the same code runs up to about 1.9 times slower
(a busy sibling hardware thread on the host), and the share of slow time
drifts over minutes.  Raw wall times of identical passes then spread by
up to 30 % from run to run.  The probe measures that speed while the
program runs: every ``INTERVAL_S`` a timer signal runs a fixed piece of
plain Python work twice in the main thread and records the thread CPU
time of the second run.  A stretch's normalized time is its wall time,
minus the time the probe took, scaled by ``REFERENCE_S / probe time``
averaged over the stretch: the wall time at the probe's reference speed.

The first run of each tick refills the caches the program evicted, so the
timed run measures the core's speed and not the program's memory
footprint.  Timing a cold run instead, or numpy work, tracked the program
worse on every workload, the value-iteration-bound one included
(``NOTES.md``), so one probe serves every workload and the set-up spawns.
It imports only ``math``, ``signal`` and ``time``, so the set-up spawns
import nothing heavy ahead of the program.

The probe is benchmark code, so a change to the program moves the wall
time but not the probe.  Worker processes do not inherit the timer, and a
pass that fans out has no clean probe (it would time itself against the
program's own workers), so timed passes run serially.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.01
# Normalized times are wall times at the speed where one timed run of the
# work takes this long: about its median on the reference machine (2-vCPU
# x86_64 VM), whose speed put it anywhere from 40 to 100 us.
REFERENCE_S = 65e-6


def _work() -> float:
    x = 0.0
    for i in range(400):
        x += math.exp(-1e-3 * i) * 1.5
    return x


class SpeedProbe:
    """Samples machine speed on a timer while active (a context manager)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, wall, cpu)

    def _tick(self, signum, frame):
        w0 = time.perf_counter()
        _work()
        c0 = time.thread_time()
        _work()
        c1 = time.thread_time()
        self.samples.append((w0, time.perf_counter() - w0, c1 - c0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, t0: float, t1: float) -> float:
        """Wall time of ``[t0, t1]`` at the reference speed, probe time excluded."""
        return normalize(self.samples, t0, t1)

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over ``[t0, t1]`` relative to the reference, 1 without samples."""
        inside = [s[2] for s in self.samples if t0 <= s[0] < t1 and s[2] > 0]
        return sum(REFERENCE_S / c for c in inside) / len(inside) if inside else 1.0


def normalize(samples, t0: float, t1: float) -> float:
    """``normalize`` over samples taken by a probe in this or another process;
    ``time.perf_counter`` is ``CLOCK_MONOTONIC``, shared by all processes."""
    inside = [s for s in samples if t0 <= s[0] < t1]
    cpu = [s[2] for s in inside if s[2] > 0]
    if not cpu:
        return t1 - t0
    busy = sum(s[1] for s in inside)
    return (t1 - t0 - busy) * sum(REFERENCE_S / c for c in cpu) / len(cpu)
