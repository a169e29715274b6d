"""Machine-speed probe: converts wall time into reference seconds.

The benchmark runs on a few cores of a shared host whose speed changes by
up to 1.8x over fractions of a second to minutes, as other tenants load
the same cores.  A :class:`SpeedProbe` runs a fixed kernel (``KERNEL_EXPM``
scipy ``expm`` calls on a 6x6 complex matrix, about 1 ms) from a
``SIGALRM`` timer every ``interval`` seconds, in the benchmark's own
thread, so it sees the same core at nearly the same moment as the program.

:meth:`SpeedProbe.ref_seconds` turns a timed interval into *reference
seconds*: the interval's wall time minus the probes that ran inside it,
scaled by ``REF_PROBE_S`` over the mean probe time around the interval.
One reference second is the time in which the probe kernel would run
``1 / REF_PROBE_S`` times, so the value tracks the program's work rather
than the host's load.  Runs that compare two commits use the same kernel.
"""

from __future__ import annotations

import signal
import time
from typing import Sequence

import numpy as np
import scipy.linalg

REF_PROBE_S = 1e-3     # one probe in reference seconds
KERNEL_EXPM = 30       # expm calls per probe


def _kernel_matrix() -> np.ndarray:
    return np.random.default_rng(0).normal(size=(6, 6)) * 0.01 + 0j


class SpeedProbe:
    """Periodic probe of the core's speed, recorded as (start, duration) pairs."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.probes: list[tuple[float, float]] = []
        self._m = _kernel_matrix()
        self._old = None

    def sample(self, *_signal_args) -> None:
        """Run the kernel once and record when and for how long."""
        t0 = time.perf_counter()
        for _ in range(KERNEL_EXPM):
            scipy.linalg.expm(self._m)
        self.probes.append((t0, time.perf_counter() - t0))

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def ref_seconds(self, t0: float, t1: float) -> float:
        return ref_seconds(self.probes, t0, t1, 2 * self.interval)


def ref_seconds(probes: Sequence[tuple[float, float]], t0: float, t1: float,
                margin: float) -> float:
    """Reference seconds of the wall interval [t0, t1].

    Probes that started inside the interval ran inside it (a signal
    handler completes before the interrupted code resumes), so their
    time is taken off.  The speed is the mean probe time over probes
    that started within ``margin`` of the interval, which gives short
    intervals their neighbours.
    """
    inside = sum(d for s, d in probes if t0 <= s < t1)
    near = [d for s, d in probes if t0 - margin <= s < t1 + margin]
    if not near:
        raise ValueError(f"no speed probe within {margin} s of [{t0}, {t1}]")
    return (t1 - t0 - inside) * REF_PROBE_S / (sum(near) / len(near))
