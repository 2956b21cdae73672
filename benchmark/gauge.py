"""Host-speed gauge: times a fixed reference slice at regular moments during
each operation, so that an operation's time can be read relative to how fast
the host ran while that operation ran.

On a shared host other tenants slow the machine by up to 2x, in bursts that
last from seconds to minutes or longer.  A slowdown that outlasts a run moves
every estimator taken within the run (median, fastest sample alike).  The
gauge samples the host's speed inside the same time window as the
operation: a ``SIGALRM`` handler runs ``reference_slice`` every
``PERIOD_S`` seconds of wall time while an operation runs and records how
long the slice took.  The slice is the benchmark's own code and never
changes, so its time moves only with the host.

The handler runs in the main thread between bytecodes, so the slice and the
operation never run at the same time; the time spent in slices is taken
out of the operation's wall time.

The slice is a small explicit march in numpy at 400 cells: small-array
calls, a 2x2 tensor product per cell, an interpolation and a record per
step.  A pure-Python slice tracked the operations less well, because the
host's slowdowns hit array code harder than interpreter code.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.02
SLICE_CELLS = 400
SLICE_STEPS = 5
# The operation time is reported in units of one slice and scaled by this
# nominal slice time: the time the operation would take on a host where one
# slice takes exactly 1 ms.
NOMINAL_SLICE_S = 1e-3


@dataclass
class _Record:
    t: float
    F: np.ndarray
    v: np.ndarray
    metrics: dict


def reference_slice() -> float:
    """Fixed work of about a millisecond; returns a number so it is not idle."""
    n, steps = SLICE_CELLS, SLICE_STEPS
    x = (np.arange(n) + 0.5) / n
    F = np.zeros((n, 2, 2))
    F[:, 0, 0] = F[:, 1, 1] = 1.0
    dt = 1.0 / steps
    H = 0.1
    records = []
    for k in range(steps):
        L = np.zeros((n, 2, 2))
        L[:, 0, 1] = np.sin(x + k * dt)
        S = F @ np.swapaxes(F, 1, 2) - np.eye(2)
        v = np.concatenate(([0.0], np.cumsum(S[:, 0, 1]) * H / n))
        upwind = np.diff(F, axis=0, prepend=F[:1])
        F = F + dt * (L @ F) - dt * upwind - dt * 0.1 * S
        H_new = H + dt
        F01 = np.interp(x, x * H_new / H, F[:, 0, 1], left=0.5)
        F = F.copy()
        F[:, 0, 1] = F01
        H = H_new
        records.append(_Record(t=k * dt, F=F.copy(), v=v,
                               metrics={"max": float(np.max(np.abs(S))),
                                        "norm": float(np.linalg.norm(v))}))
    return sum(r.metrics["max"] for r in records)


class SpeedGauge:
    """Samples ``reference_slice`` while active; one instance per process."""

    def __init__(self):
        self.slices: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a slow slice outlasted the period; skip, never nest
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_slice()
            self.slices.append(time.perf_counter() - start)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedGauge":
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass(frozen=True)
class GaugedTime:
    wall_s: float      # operation wall time, slices included
    net_s: float       # wall time minus the time spent in slices
    slice_s: float     # mean slice time during the operation
    slices: int

    @property
    def ref_s(self) -> float:
        """The operation's time on a host where one slice takes
        ``NOMINAL_SLICE_S``."""
        return self.net_s / self.slice_s * NOMINAL_SLICE_S


def gauged(wall_s: float, slices: list[float]) -> GaugedTime:
    if not slices:  # shorter than the period (say, it failed at once)
        start = time.perf_counter()
        reference_slice()
        return GaugedTime(wall_s=wall_s, net_s=wall_s,
                          slice_s=time.perf_counter() - start, slices=0)
    return GaugedTime(wall_s=wall_s, net_s=wall_s - sum(slices),
                      slice_s=statistics.fmean(slices), slices=len(slices))
