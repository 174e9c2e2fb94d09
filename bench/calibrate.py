"""A fixed reference computation that reads the machine's momentary speed.

The machine the benchmark was written on is shared.  In slow phases,
lasting from seconds to minutes, the same library call takes up to 1.7
times as long, and the least of an operation's repeats is slow too when
the whole run falls in such a phase.  A guest cannot see this: the
kernel reports no steal time, and CPU time equals wall time.

The benchmark therefore times `kernel` right before and right after each
operation and, from a timer signal, every SAMPLE_S during it, and reports
the operation's time, less the time those readings took, scaled by
REFERENCE_S over the kernel's mean time: the time the call would have
taken when the kernel ran in REFERENCE_S, the kernel's median time on
the 2-vCPU x86_64 VM with Python 3.11.7 that the benchmark was written
on, in a quiet phase.  The kernel mixes what the library does: dict and
tuple building over short strings, sorting, and shifts and masks of
32-kbit integers.  In slow phases it slows by the same factor as orbit,
multiply and normal-form calls (within a few per cent), while a plain
integer loop, which stays in the first-level cache, slows by less.
Readings during a call follow the phase changes inside it: over 80
repeats of a 0.5 s orbit call, the spread (interquartile range over
median) was 0.32 unscaled, 0.16 scaled by the readings before and after
only, and 0.05 with the readings during the call.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

REFERENCE_S = 0.28e-3
SAMPLE_S = 0.025

_rng = random.Random(0)
_WORDS = ["".join(_rng.choice("12") for _ in range(_rng.randint(3, 14))) for _ in range(400)]
_MASKS = [_rng.getrandbits(1 << 15) for _ in range(8)]


def kernel() -> tuple[int, int]:
    d = {}
    for w in _WORDS:
        d[(w, len(w))] = w[::-1]
    items = sorted(d.items())
    x = 0
    for m in _MASKS:
        x |= (m << 3) ^ (m >> 5)
        x &= ~m | (x >> 1)
    return len(items), x.bit_count()


def kernel_s() -> float:
    """Seconds the kernel takes now: the lesser of two runs, so that the
    second runs with its data in cache whatever ran before it."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def speed() -> float:
    """Median of five readings of kernel_s."""
    return statistics.median(kernel_s() for _ in range(5))


class Sampler:
    """Kernel readings around and during one timed call.

    start() reads the kernel and arms a SIGALRM timer whose handler reads
    it again every SAMPLE_S; stop() disarms the timer and reads it once
    more.  Signal handlers run in the main thread between bytecodes, so
    the readings interrupt the call and their time is taken off it.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.pauses: list[tuple[float, float]] = []  # (start, seconds) of readings in the call
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append(kernel_s())
        self.pauses.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self.readings = [kernel_s()]
        self.pauses = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.readings.append(kernel_s())

    def own_time(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent on readings."""
        return t1 - t0 - sum(dt for t, dt in self.pauses if t0 <= t < t1)

    def scaled(self, seconds: float) -> float:
        """`seconds` as they would read at the kernel's reference speed."""
        return seconds * REFERENCE_S / statistics.fmean(self.readings)
