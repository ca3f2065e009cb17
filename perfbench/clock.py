"""A wall clock rescaled to a reference speed of the machine.

A shared virtual machine can change speed by up to 2x for seconds to
minutes at a time.  On a 2-core Intel Xeon VM at 2.1 GHz the same
simulation took 0.57 s and 1.07 s a few seconds apart, and a fixed
pure-Python loop slowed down in step with it.  Medians of raw wall time
then drift with the host instead of the code.

So every timed interval is cut into segments of about ``INTERVAL_S``,
and a fixed probe loop is timed between segments.  A segment's wall
time is multiplied by ``PROBE_REFERENCE_S`` over the mean of the probes
on its two sides: the result is the time the segment would have taken
with the probe at its reference speed.  Probe time is excluded from the
interval.  The probe is the benchmark's own code and never changes, so
runs of two commits are rescaled alike; raw wall times are kept next to
the rescaled ones in every record.
"""

from __future__ import annotations

import time

PROBE_LOOPS = 250_000
# Probe time on the reference machine (a 2-core Intel Xeon VM at 2.1 GHz,
# Python 3.11.7, in its fast phase); it only sets the scale of the
# rescaled times.
PROBE_REFERENCE_S = 0.018
INTERVAL_S = 0.5


def probe() -> float:
    """Seconds taken by a fixed integer loop, the machine's speed gauge."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Times one interval at a time, in raw and rescaled seconds.

    Call ``start``, then ``tick`` as often as convenient while the work
    runs (it probes once ``INTERVAL_S`` has passed), then ``stop``.
    ``reading`` gives the rescaled seconds so far, for timing a part of
    the interval.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._probe = 0.0
        self._since = 0.0

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._probe = probe()
        self._since = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._since >= INTERVAL_S:
            self._segment()

    def reading(self) -> float:
        """Rescaled seconds since ``start``; the open segment is scaled by
        the last probe alone."""
        open_wall = time.perf_counter() - self._since
        return self.scaled + open_wall * PROBE_REFERENCE_S / self._probe

    def stop(self) -> tuple[float, float]:
        """Close the interval; return (raw seconds, rescaled seconds)."""
        self._segment()
        return self.raw, self.scaled

    def _segment(self) -> None:
        wall = time.perf_counter() - self._since
        after = probe()
        self.raw += wall
        self.scaled += wall * PROBE_REFERENCE_S * 2.0 / (self._probe + after)
        self._probe = after
        self._since = time.perf_counter()
