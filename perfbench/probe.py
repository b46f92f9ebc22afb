"""Host-speed probe: a fixed piece of work timed in the same thread as the program.

The benchmark runs on a shared host whose speed drifts by up to about 2x
within minutes. The program slows with it: its CPU time grows with its wall
time, so this is contention for the cores and memory, not scheduling, and
one run of tens of seconds does not average it out. Every timing the
benchmark reports is therefore scaled to the probe's nominal speed,

    t * NOMINAL_S / p.

The probe does what the pipeline's hot paths do, interpreted Python and a
numpy broadcast-and-reduce of query vectors against a codebook, so contention
slows both alike. Its arrays are allocated once and stay in cache, so the
probe's own speed does not hang on where the allocator puts them in a
given process. The raw timings are kept in each run's record.

p is the median time of the probe runs taken through one phase of a run,
set-up or the timed phase: one at its start and end and one every
INTERVAL_S in between, in the program's own thread, with the probes' time
left out of every timing. It follows the host's drift from run to run; the
brief swings within a run, seconds long, average out in the medians. The
traced run takes only the first and last probe, so that no probe lands
inside a span.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the probe's median time beside the program on the 2-core x86_64 VM
# (Skylake-X, Python 3.11, numpy 2.4) the benchmark was tuned on; corrected
# timings are in seconds at this speed.
NOMINAL_S = 0.0075

_RNG = np.random.default_rng(0x5EED)
_QUERIES = _RNG.standard_normal((8, 180))
_CODEBOOK = _RNG.standard_normal((48, 180))
_DIFF = np.empty((8, 48, 180))  # 0.55 MB: stays in cache, allocates nothing
_DIST = np.empty((8, 48))
_LOOP = 50_000
_PASSES = 20

# Seconds of wall time between two probes; a probe takes about 8 ms of it.
INTERVAL_S = 0.25


def _work() -> int:
    total = 0
    for i in range(_LOOP):
        total += i * i
    for _ in range(_PASSES):
        np.subtract(_QUERIES[:, None, :], _CODEBOOK[None, :, :], out=_DIFF)
        np.multiply(_DIFF, _DIFF, out=_DIFF)
        _DIFF.sum(axis=2, out=_DIST)
        total += int(_DIST.argmin(axis=1)[0])
    return total


class HostSpeed:
    """Probe runs taken while one phase of a run goes on.

    As a context manager it probes once on entry and once on exit and, if
    `periodic`, every INTERVAL_S of wall time in between: a timer signal
    interrupts the program and the probe runs in the main thread, on the core
    the program was using. Each probe is timed in thread CPU time, so waiting
    for a core (the `jobs=2` workers keep both busy) does not count.
    `clock()` is `time.perf_counter()` less the time spent in probes, so
    timings taken with it leave the probes out.
    """

    def __init__(self, periodic: bool = True) -> None:
        self.periodic = periodic
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _probe(self, *_signal) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        _work()
        self.samples.append(time.thread_time() - c0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> HostSpeed:
        self._probe()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scale(self) -> float:
        """Factor that takes a time measured in this phase to the nominal speed."""
        return NOMINAL_S / statistics.median(self.samples)
