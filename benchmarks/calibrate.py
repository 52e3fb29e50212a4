"""Host-speed calibration: a fixed probe sampled while the timed work runs.

On a shared host a vCPU's speed drifts with its neighbours' load.  It moves
between a fast and a slow level about 1.6x apart, holds a level for seconds
to minutes, and wall and CPU seconds move with it; steal time stays near
zero, so no clock of the guest can tell the slow level apart.

:class:`Sampler` runs a fixed probe of about a millisecond of Python dict and
float work from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds of wall
time while the timed work runs.  The probe never changes with the program,
so its mean time over an interval, divided by ``REFERENCE_S``, is the host's
slowdown over that interval.  The work's wall seconds minus the probes'
seconds, divided by that slowdown, is what the work would have taken on the
reference host.  The probes cost about 2% of the wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.1
# The probe's time on the reference host (a 2-vCPU Intel Xeon KVM guest, see
# README.md) at its usual speed, so that calibrated seconds read close to
# wall seconds there.  Changing it rescales every calibrated metric.
REFERENCE_S = 0.0008
# the host's two speed levels are about 1.6x apart; a probe three times
# slower than the median was interrupted
OUTLIER = 3.0


def probe() -> None:
    """A fixed piece of Python work of about a millisecond.  It allocates no
    object the garbage collector tracks, and the collector is off while it
    runs, so a collection of the program's heap never lands in a probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict[int, float] = {}
        total = 0.0
        for i in range(1500):
            key = (i & 255) * 7 + i % 7
            table[key] = table.get(key, 0.0) + i * 0.5
            total += table[key] / (1 + (i & 15))
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probe times over the intervals between :meth:`start` and :meth:`stop`
    calls since the last :meth:`reset`."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.times: list[float] = []  # wall seconds of each probe
        self.cpu_s = 0.0  # process CPU seconds spent in probes

    def _probe(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe()
        self.times.append(time.perf_counter() - wall0)
        self.cpu_s += time.process_time() - cpu0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        # the handler stays installed, so a signal already on its way when
        # the timer stops still finds it
        signal.setitimer(signal.ITIMER_REAL, 0)

    def report(self) -> str:
        """The samples as one line, for :meth:`parse` in another process."""
        return " ".join(repr(x) for x in (self.cpu_s, *self.times))

    @classmethod
    def parse(cls, line: str) -> "Sampler":
        sampler = cls()
        sampler.cpu_s, *sampler.times = (float(x) for x in line.split())
        return sampler

    def slowdown(self) -> float:
        """Mean probe time over the reference; 1.0 when nothing was sampled.
        A probe over ``OUTLIER`` times the median was interrupted (preempted,
        or stalled on a page fault) rather than slowed by the host, and is
        left out of the mean."""
        if not self.times:
            return 1.0
        limit = OUTLIER * statistics.median(self.times)
        return statistics.fmean(t for t in self.times if t <= limit) / REFERENCE_S

    def calibrate(self, wall_s: float, cpu_s: float) -> tuple[float, float]:
        """Wall and CPU seconds of the sampled work with the probes taken
        out, divided by the slowdown."""
        slowdown = self.slowdown()
        return (wall_s - sum(self.times)) / slowdown, (cpu_s - self.cpu_s) / slowdown
