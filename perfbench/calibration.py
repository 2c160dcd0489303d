"""Machine-speed calibration of operation times.

A shared host changes speed from one second to the next.  On a shared
2-vCPU Xeon the same 240 equiv-stream pairs took from 23 to 34 s in one
pass, and the loop below from 4.6 to 6.6 ms, on different minutes; the
process's CPU time slowed as much as its wall time, so CPU time is no
way out.  Operations are therefore interleaved with timings of a fixed
reference loop, and an operation's calibrated time is

    wall time x NOMINAL_S / median(reference times within WINDOW_S of it)

that is, its time on a machine that runs the loop in NOMINAL_S.  The
loop is plain Python of the kind capclass runs (integer arithmetic and
dict updates), shares no code with capclass and keeps nothing after it
returns, so a change to capclass cannot move it.  A change that makes
capclass 10% faster makes the calibrated time 10% smaller.

This needs samples taken while the operation runs.  The machine's speed
swings by a third within a second, so samples taken only before and
after an operation that lasts seconds say little about its speed:
calibrating verify-paper's 7 s operations by five samples at each end
doubled their spread over five seeds, and by a second of samples at each
end left it where it was.  So there are two ways to take the samples:

* ``Timeline``: between operations of a fraction of a second (the
  equiv-stream pairs and the set-up probes), in the process that starts
  them.  An operation is calibrated by the samples within WINDOW_S of it.
* ``Sampler``: inside an operation that lasts seconds, on a timer signal
  every INTERVAL_S, in the process that runs it.  The operation is
  calibrated by the median of its own samples, and the samples' time is
  taken out of its time.
"""

from __future__ import annotations

import signal
from statistics import median
from time import perf_counter, thread_time

# about the loop's time on a shared 2-vCPU Xeon at Python 3.11
NOMINAL_S = 0.005
# reference samples this close to an operation's start or end calibrate it
WINDOW_S = 0.5
# a Sampler's period: its 5 ms samples take about 2.5% of the operation
INTERVAL_S = 0.2


def reference_loop() -> int:
    """A fixed pure-Python workload of about 5 ms; the result only keeps it from being optimised away."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        key = (i * 2654435761) & 0xFFFF
        acc ^= key
        table[key] = table.get(key, 0) + 1
    return acc + len(table)


class Timeline:
    """Reference-loop times of one process, each at the midpoint of its run."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = perf_counter()
            reference_loop()
            ended = perf_counter()
            self.samples.append(((started + ended) / 2, ended - started))

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time within WINDOW_S of [start, end]."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            raise ValueError(f"no reference sample within {WINDOW_S} s of [{start}, {end}]")
        return NOMINAL_S / median(near)

    def reference_ms(self) -> float:
        """Median reference time of the whole timeline, in ms."""
        return median(s for _, s in self.samples) * 1e3


class Sampler:
    """Reference samples taken inside the running operation, on SIGALRM every INTERVAL_S.

    Python runs the handler in the main thread between bytecodes.  A
    sample is the loop's CPU time on that thread, so that it does not
    count the time other threads of the operation (capclass's classify
    pool) hold the interpreter lock.  Use it as a context manager around
    one operation, in the main thread.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        started = thread_time()
        reference_loop()
        self.samples.append(thread_time() - started)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent(self) -> float:
        """Time the samples took from the operation."""
        return sum(self.samples)

    def factor(self) -> float:
        """NOMINAL_S over the median sample."""
        if not self.samples:
            raise ValueError(f"an operation shorter than {INTERVAL_S} s has no reference sample")
        return NOMINAL_S / median(self.samples)
