"""A fixed reference loop that tracks the machine's speed while a run lasts.

On a shared host the same pure-Python work takes anywhere from about 0.8
to 1.3 times its usual time, depending on the minute (see baseline.md),
which is wider than any bound a regression check could use.  The
benchmark therefore runs a short reference loop, which uses no library
code, next to the work it times, and rescales each timed stretch to the
reference speed:

    rescaled = wall seconds * REFERENCE_S / (mean time of the nearby probes)

The loop runs every 0.1 s or so, spread over the timed work, so the mean
of the probes around a stretch of work follows the machine's speed while
that stretch ran.  A program change moves the rescaled time as it moves
the wall time; a machine that runs everything 20% slower for a minute
moves the loop by about the same share, and the rescaled time little
(README.md says how little).  ``REFERENCE_S`` is the loop's mean time on
the baseline machine, so rescaled times read as that machine's wall
times.

The loop is pure-Python integer arithmetic, like the library's scalar
field code.  It follows the speed of the rest of what the benchmark
times, too (interpreter start-up and imports, numpy sweeps), as long as
it runs often and in the process being timed: see README.md for the
measured spreads.

Stdlib only, and cheap to import: ``run.py`` imports it without numpy
or the library, and every CLI request the benchmark makes imports it.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
import time
from typing import Iterable, Iterator, List, Tuple

# About the mean time of one reference_loop() on the baseline machine
# (3.9-4.1 ms); any fixed value would do, this one keeps rescaled times
# close to that machine's wall-clock times.
REFERENCE_S = 0.004
PROBE_MULS = 1200
PROBE_INTERVAL_S = 0.1  # between probes while work runs
# Probes on each side of a stretch of work whose mean time scales it: about
# half a second either way.
NEARBY = 5
# GF(2^16) with the modulus x^16 + x^12 + x^3 + x + 1.
_MODULUS = 0x1100B
_DEGREE = 16


def _gf_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> _DEGREE:
            a ^= _MODULUS
    return r


def reference_loop() -> int:
    """PROBE_MULS dependent multiplications in GF(2^16); a fixed amount of work."""
    r = 1
    for i in range(PROBE_MULS):
        r = _gf_mul(r ^ i, 0xB5A3) or 1
    return r


class SpeedClock:
    """Probes the machine's speed and rescales wall-clock intervals by it.

    ``probe()`` runs the reference loop and records when.  Probes are
    taken between timed units, or from a timer signal while in-process
    work runs (``ticking``).  Intervals are measured without the probes
    that ran inside them, and each stretch between two probes is scaled
    by the speed the probes around it measured, so a slow second of the
    machine is rescaled where it happened.
    """

    def __init__(self) -> None:
        self.probes: List[Tuple[float, float]] = []  # (start, end), in order

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            reference_loop()
            self.probes.append((start, time.perf_counter()))

    def add(self, probes: Iterable[Tuple[float, float]]) -> None:
        """Probes another process took; ``time.perf_counter`` is the
        system-wide monotonic clock, so their times compare with ours."""
        self.probes = sorted(self.probes + list(probes))

    @contextlib.contextmanager
    def ticking(self, interval_s: float) -> Iterator["SpeedClock"]:
        """Probe every ``interval_s`` of wall time, from a SIGALRM handler,
        so that work is probed while it runs."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _stretches(self) -> List[Tuple[float, float, float]]:
        """(start, end, scale) of the time between and around the probes:
        the stretch between probes i - 1 and i is scaled by REFERENCE_S
        over the mean of the NEARBY probes on each side of it."""
        if not self.probes:
            return [(float("-inf"), float("inf"), 1.0)]
        seconds = [end - start for start, end in self.probes]
        ends = [float("-inf")] + [end for _, end in self.probes]
        starts = [start for start, _ in self.probes] + [float("inf")]
        return [
            (ends[i], starts[i], REFERENCE_S / _mean(seconds[max(0, i - NEARBY):i + NEARBY]))
            for i in range(len(self.probes) + 1)
        ]

    def measure(self, intervals: List[Tuple[float, float]]) -> Tuple[List[float], List[float]]:
        """(rescaled, wall) seconds of each (start, end) interval, given in
        time order; both leave out the probes that ran inside it."""
        stretches = self._stretches()
        rescaled, wall = [], []
        first = 0
        for start, end in intervals:
            while stretches[first][1] <= start:
                first += 1
            scaled = plain = 0.0
            for lo, hi, scale in itertools.islice(stretches, first, None):
                if lo >= end:
                    break
                overlap = min(hi, end) - max(lo, start)
                if overlap > 0:
                    scaled += overlap * scale
                    plain += overlap
            rescaled.append(scaled)
            wall.append(plain)
        return rescaled, wall


def _mean(values: List[float]) -> float:
    # Not statistics.fmean: importing statistics would add ~4 ms to every
    # CLI request, which imports this module.
    return sum(values) / len(values)
