"""Host speed probe: times scaled to a host of fixed speed.

On a shared host the speed of a CPU changes by up to 2x from one second to
the next, each CPU on its own (the speeds of the two vCPUs of one 2-vCPU
x86_64 host correlated at 0.13), and CPU time tracks wall time, so neither
measures the code alone.  The benchmark therefore pins itself and its
workers to one CPU (``pin``) and, while they run, a probe thread runs a fixed
piece of pure-Python work (``reference``) every PERIOD_S seconds on that CPU.
A timing is the CPU time of the work scaled by the mean speed the probe saw
while the work ran (``Probe.scale``): the time the work would have taken on
a host that runs the reference in REFERENCE_S seconds.  The reference is the
benchmark's own code, so it is the same on both sides of a comparison.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# Seconds the reference takes on a 2-vCPU x86_64 host with Python 3.11 at its
# fast moments; only the unit of the scaled times depends on it.
REFERENCE_S = 0.0024
_ROUNDS = 6_000
# Pause between references: the probe takes about 5% of the CPU.
PERIOD_S = 0.05


def reference() -> int:
    """Interpreter work like the program's: small tuples as dict keys, int
    arithmetic, and set building."""
    table: dict[tuple[int, int], int] = {}
    seen = set()
    for i in range(_ROUNDS):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + i * 3 - (i >> 2)
        if i % 7 == 0:
            seen.add(frozenset(key))
    return sum(table.values()) + len(seen)


def pin() -> None:
    """Run this process and the processes it starts on one CPU, the one the
    probe measures."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:  # not allowed here: the probe then measures whichever CPU it runs on
        pass


class Probe:
    """Samples the speed of the CPU in a background thread, as a context
    manager.  Times are ``time.monotonic()`` readings, the same clock in
    every process of the host."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, speed)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            start, cpu = time.monotonic(), time.thread_time()
            reference()
            # CPU time: the worker may preempt the probe on the shared CPU.
            cpu, end = time.thread_time() - cpu, time.monotonic()
            self.samples.append(((start + end) / 2, REFERENCE_S / cpu))
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> Probe:
        self._thread.start()
        while not self.samples:
            time.sleep(PERIOD_S / 10)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """Mean speed, relative to the reference host, over [start, end]; for
        a window that no sample falls in, that of the nearest two samples."""
        samples = list(self.samples)
        inside = [s for t, s in samples if start <= t <= end]
        if not inside:
            near = sorted(samples, key=lambda ts: min(abs(ts[0] - start), abs(ts[0] - end)))
            inside = [s for _, s in near[:2]]
        return statistics.fmean(inside)

    def scale(self, cpu_s: float, start: float, end: float) -> float:
        """CPU seconds spent in [start, end], in seconds of the reference host."""
        return cpu_s * self.speed(start, end)
