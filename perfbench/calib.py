"""Reference loop and calibration of measured times.

The machines this benchmark runs on are shared: the same fixed pure-Python
loop has been seen to take 0.087 s in one process and 0.115 s in another a
few minutes later. Every time the benchmark reports is therefore given in
calibrated seconds:

    calibrated = raw * NOMINAL_S / ref

where ref is the median duration of the reference loop run around the
operation (or batch of operations) being measured: REF_SAMPLES runs just
before it, REF_SAMPLES runs just after it, and one run every
PROBE_INTERVAL_S while it runs. The runs during the operation come from a
SIGALRM interval timer in this (single-threaded) process; their time is
taken off the operation's raw time. Without them a long operation, such as
a 10 s homogeneous search, would be calibrated by the machine's speed at
its two ends only, and on a shared machine that speed changes within
seconds. While a child process runs, the probes measure the machine beside
it.

The loop does a fixed amount of dict, set, tuple and sort work, the same
kind of work the library does, and returns a known checksum, so that a
changed loop cannot go unnoticed. NOMINAL_S was fixed once as the median
duration of the loop on the 2-vCPU VM (Python 3.11.7) on which the benchmark
was written, so that a calibrated second is roughly a second of that
machine. It must never change: figures calibrated with different nominal
values are not comparable.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

NOMINAL_S = 0.00125
REF_ROUNDS = 65
REF_CHECKSUM = 799527853
REF_SAMPLES = 5
PROBE_INTERVAL_S = 0.1


def reference_loop(n: int = REF_ROUNDS) -> int:
    acc = 0
    for i in range(n):
        d = {}
        for j in range(48):
            k = (i * 7 + j * 13) % 97
            d[k] = d.get(k, 0) + j
        s = frozenset(d)
        t = sorted(s, key=lambda x: (x % 5, x))
        acc = (acc * 31 + t[0] + t[-1] * 3 + len(s) + d[t[-1]]) % 1000000007
    return acc


def ref_samples(k: int = REF_SAMPLES):
    """Durations of k runs of the reference loop, checksum verified."""
    out = []
    for _ in range(k):
        t = time.perf_counter()
        got = reference_loop()
        out.append(time.perf_counter() - t)
        if got != REF_CHECKSUM:
            raise RuntimeError(f"reference loop checksum {got}, "
                               f"expected {REF_CHECKSUM}")
    return out


class Calibrated:
    """Times a batch of calls and calibrates them with one factor.

    Use as a context manager; inside, `timed(fn, ...)` runs fn, keeps its
    raw duration (probe time taken off) and returns fn's result. On exit
    `factor` is NOMINAL_S over the median of every reference run made
    around and during the batch.
    """

    def __init__(self):
        self.raw = []
        self.factor = None
        self._refs = []

    def __enter__(self):
        gc.collect()          # every batch starts from the same GC state
        self._refs = ref_samples()
        return self

    def timed(self, fn, *args, **kwargs):
        probes = []

        def probe(_sig, _frame):
            t = time.perf_counter()
            reference_loop()
            probes.append(time.perf_counter() - t)

        old = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.raw.append(time.perf_counter() - t - sum(probes))
            signal.signal(signal.SIGALRM, old)
            self._refs.extend(probes)

    def __exit__(self, *exc):
        self._refs.extend(ref_samples())
        self.factor = NOMINAL_S / statistics.median(self._refs)
        return False

    @property
    def calibrated(self):
        return [x * self.factor for x in self.raw]
