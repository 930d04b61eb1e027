"""Host-speed scale for the timings of a run process.

The benchmark gets a few CPUs of a shared host, and the speed they give
a single-threaded Python process swings by up to 1.7x in spells of
seconds to minutes: the same class-query pass took 0.53 s and 0.91 s
within one minute.  A run median of such times moves with the host, not
the program.  So a run process also measures the host while it works:
every INTERVAL_S of wall time a SIGALRM handler runs a fixed pure-Python
reference loop and records how long it took.  `scaled` turns a span of
the process into the seconds it would have taken on a host that runs
the reference loop in NOMINAL_S: each stretch between two samples counts
its length divided by the mean reference time of those two samples.
Time spent in the handler is left out.  On the 2-vCPU development
sandbox this cut the spread (interquartile range over median) of eight
class-query run medians from 0.16 to 0.06.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
REF_ITERATIONS = 20000
# Reference-loop time that a scaled second is measured against; about
# the loop's time in a quiet spell of the development sandbox.
NOMINAL_S = 1.5e-3

_samples: list[tuple[int, int]] = []  # (start_ns, end_ns) of each reference run


def _reference() -> int:
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return s


def _sample(*_) -> None:
    t = time.monotonic_ns()
    _reference()
    _samples.append((t, time.monotonic_ns()))


def start() -> None:
    """Take the first sample and sample every INTERVAL_S from now on."""
    _reference()
    _sample()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    """Stop sampling, closing the last stretch with a final sample."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    _sample()


def scaled(start_ns: int, end_ns: int) -> tuple[float, float]:
    """(scaled seconds, program seconds) of the span [start_ns, end_ns].

    Program seconds are the span's wall time less the handler's.  Time
    before the first sample (interpreter start, imports) runs at that
    sample's speed.  Call after `stop` for a span that has ended.
    """
    first_start, first_end = _samples[0]
    pre = max(0, min(end_ns, first_start) - start_ns)
    refs = pre / (first_end - first_start)
    program = pre
    for (a0, b0), (a1, b1) in zip(_samples, _samples[1:]):
        lo, hi = max(start_ns, b0), min(end_ns, a1)
        if hi > lo:
            refs += 2 * (hi - lo) / ((b0 - a0) + (b1 - a1))
            program += hi - lo
    return refs * NOMINAL_S, program / 1e9
