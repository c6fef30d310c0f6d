"""Speed probes: rescale measured times to one reference speed.

The machines this benchmark runs on share their processors, and the speed
of identical work drifts by up to 1.8x over minutes.  A probe is a fixed
piece of pure-Python work (integer arithmetic and an int-keyed dict), about
a millisecond long, that does not touch betticong, so no change to the
library changes its duration.  It keeps no object that the cyclic garbage
collector tracks, so it does not move the workload's collections.  While a workload runs, ``Sampler`` runs the
probe every ``INTERVAL_S`` from a SIGALRM handler.  ``scaled`` then turns
any interval of that time into reference seconds: each stretch between
probes is multiplied by ``PROBE_REF_S`` over the local probe duration (a
running median of ``WINDOW`` probes), and the probes' own time is left out.

Set-up (interpreter start, imports) does not speed up and slow down with
that probe; it follows the start of a bare interpreter, ``start_probe``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

# Duration of one probe at the reference speed.  A constant, the same for
# every commit: it fixes the unit of the rescaled times, roughly the
# seconds of a 2-vCPU Xeon VM at its usual speed.
PROBE_REF_S = 0.0009
INTERVAL_S = 0.05
WINDOW = 5
# Probes taken right before and right after the timed part of a process.
EDGE_PROBES = 10


def _work(n: int = 3000) -> int:
    counts: dict = {}
    acc = 0
    for i in range(n):
        key = (i * 7919) % 4093
        counts[key] = counts.get(key, 0) + i
        acc += (i * i) % 7
    return acc


def probe() -> tuple[float, float]:
    """(start, duration) of one probe, on the ``perf_counter`` clock."""
    start = time.perf_counter()
    _work()
    return start, time.perf_counter() - start


def probes(n: int = EDGE_PROBES) -> list[tuple[float, float]]:
    return [probe() for _ in range(n)]


def factor(durations: list[float]) -> float:
    """Reference seconds per measured second, from a set of probe durations."""
    return PROBE_REF_S / statistics.median(durations)


# Start and exit of ``python3 -S -I -c pass`` at the reference speed.
START_REF_S = 0.014


def start_probe() -> float:
    """Seconds to start and stop a bare interpreter."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-S", "-I", "-c", "pass"], check=True)
    return time.monotonic() - start


def start_factor(n: int = 3) -> float:
    """Reference seconds per measured second of set-up, from ``n`` start probes."""
    return START_REF_S / statistics.median(start_probe() for _ in range(n))


class Sampler:
    """Probes taken every ``INTERVAL_S`` from a SIGALRM handler."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Timeline:
    """Rescales intervals of one process's ``perf_counter`` time."""

    def __init__(self, samples: list[tuple[float, float]]):
        self.samples = samples = sorted(samples)
        if not samples:
            raise ValueError("no probes")
        self.starts = [s for s, _ in samples]
        self.ends = [s + d for s, d in samples]
        durations = [d for _, d in samples]
        half = WINDOW // 2
        self.factors = [factor(durations[max(0, k - half):k + half + 1])
                        for k in range(len(durations))]

    def probe_time(self, a: float, b: float) -> float:
        """Seconds of [a, b] spent in probes."""
        return sum(max(0.0, min(b, e) - max(a, s))
                   for s, e in zip(self.starts, self.ends) if s < b and e > a)

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of [a, b], probe time left out.

        The stretch before a probe runs at that probe's speed; a stretch
        after the last probe runs at the last probe's speed.
        """
        total, cursor = 0.0, a
        for k in range(bisect.bisect_right(self.ends, a), len(self.starts)):
            s, e, f = self.starts[k], self.ends[k], self.factors[k]
            if e <= cursor:
                continue
            if s >= b:
                return total + (b - cursor) * f
            total += max(0.0, s - cursor) * f
            cursor = max(cursor, e)
            if cursor >= b:
                return total
        return total + max(0.0, b - cursor) * self.factors[-1]
