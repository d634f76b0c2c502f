"""Host-speed probe: takes the host's CPU-speed drift out of the timings.

The benchmark's host is a share of a machine whose CPU speed drifts by
tens of percent, both within a second and over minutes (see
``README.md``).  Medians over a run cannot remove drift that lasts
longer than the run.  So, while a cold run sets up and runs its
workload, a timer signal interrupts it every :data:`PERIOD_S` seconds
and times one fixed probe that calls no ``repro`` code.  The probes
sample the host's speed at the moments the workload runs.

The drift does not slow all code alike: in a fast stretch, interpreted
Python sped up by up to 1.75 times where NumPy work on matrices of a
few thousand elements sped up by about 1.4.  So there are two probes
(:data:`PROBES`), and each workload is scaled by the one whose work is
most like its own (:data:`WORKLOAD_PROBES`).

A span of the cold run is then reported at the reference speed: its
seconds minus the time spent in probes, scaled by ``r / h``, where ``h``
is the harmonic mean of the probes timed inside the span and ``r`` the
probe's fixed reference duration.
The timer fires evenly in time, so a slow stretch holds more probes
than a fast one of equal work; the harmonic mean weights each stretch
by the work done in it, which is what the span's duration adds up.  A
change to the program moves the span's seconds and leaves the probe
alone, so it shows in full.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds between two probes.
PERIOD_S = 0.025

#: Spans holding fewer probes than this are scaled by all probes so far.
MIN_PROBES = 8

_VECTOR = np.arange(32.0)
_MATRIX = np.random.default_rng(0).standard_normal((48, 96))


def _interpreter_probe() -> float:
    """Dict updates, str conversions, a sort, and small-array calls."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(750):
        key = i % 17
        counts[key] = counts.get(key, 0) + i
        acc += len(str(i))
    acc += sum(sorted(counts.values()))
    for i in range(24):
        acc += float((_VECTOR * 1.5 + i).sum())
    return acc


def _array_probe() -> float:
    """Elementwise, reduction and matrix-product work on 48 x 96 arrays."""
    acc = 0.0
    for i in range(6):
        x = _MATRIX * 1.01 + i
        acc += float(np.maximum(x, 0.0).sum(axis=1).max())
        acc += float(np.exp(-np.abs(x)).mean())
        acc += float((x @ _MATRIX.T).trace())
    return acc


#: Probe name -> (probe, its duration at the reference speed).  The
#: reference durations are fixed constants, about the probes' typical
#: durations on the 2-vCPU VM the README describes; reported times are
#: seconds at the speed where the probe takes this long.
PROBES = {
    "interpreter": (_interpreter_probe, 0.00045),
    "array": (_array_probe, 0.0005),
}


#: The probe each workload is scaled by.  Over back-to-back cold runs,
#: the array probe tracked ``fleet-city`` best, whose batched tick path
#: works on UE x cell matrices; the interpreter probe tracked the other
#: three, which spend their time in Python and small-array calls.
WORKLOAD_PROBES = {
    "d2-crowd": "interpreter",
    "d1-drives": "interpreter",
    "fleet-city": "array",
    "lint-audit": "interpreter",
}


class SpeedProbe:
    """Times one of :data:`PROBES` on a timer signal while it is started."""

    def __init__(self, name: str) -> None:
        self.probe, self.reference_s = PROBES[name]
        self.stamps: list[float] = []
        self.durations: list[float] = []

    def _fire(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probe()
        self.stamps.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def span(self, start: float, end: float) -> tuple[float, float]:
        """(seconds of ``[start, end]`` minus probe time, harmonic-mean probe)."""
        inside = [d for s, d in zip(self.stamps, self.durations) if start <= s < end]
        sample = inside if len(inside) >= MIN_PROBES else self.durations
        harmonic = len(sample) / sum(1.0 / d for d in sample)
        return end - start - sum(inside), harmonic

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take at the reference speed."""
        seconds, harmonic = self.span(start, end)
        return seconds * self.reference_s / harmonic
