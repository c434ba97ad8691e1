"""Host-speed probe: scales a worker's wall time to a fixed machine speed.

On a shared virtual machine the host's speed swings by up to 1.7x within
seconds, and every kind of code slows together.  A plain wall-clock run_s
then spreads by 13-38 % between runs of the same code, far past any useful
regression bound.  So a plain worker runs a small fixed reference kernel
every ``INTERVAL_S`` from a ``SIGALRM`` handler, which Python runs in the
main thread between bytecodes: the kernel interleaves with the workload at
fine grain and reads the host's speed at that moment.  Each stretch of
workload time between two probes is scaled by ``REF_S`` over the probes'
durations, so a result reads as the wall time the run would take on a host
where the kernel always takes ``REF_S``.  Probe time itself is left out.

The kernel mixes what the workloads do: small dense solves through numpy
and interpreter work on floats, dicts and strings.  ``np.linalg.solve`` is
bound when this module is imported, before the tracer could rebind it; the
probe never runs in a traced worker.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The kernel's duration on the 2-vCPU x86_64 host the README's figures come
# from, in its fast state (the 5th percentile of 6900 probes over 25 s).
REF_S = 1.0e-3
_ITERS = 150
SMOOTH = 2

_SOLVE = np.linalg.solve
_A = np.arange(16.0).reshape(4, 4) + 10.0 * np.eye(4)
_B = np.ones(4)


def kernel() -> float:
    s = 0.0
    for i in range(_ITERS):
        x = _SOLVE(_A, _B)
        s += float(x[0]) * 0.5 + i % 7
        d = {"k": i, "v": s}
        s += len(str(d["k"]))
    return s


class Probe:
    """Periodic reference probes over a span of a process's life."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, end) of each probe
        self._busy = False

    def _probe(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.marks.append((t0, time.perf_counter()))
        self._busy = False

    def start(self) -> None:
        kernel()  # first-call set-up of the solve is not the host's speed
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def probe_s(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.marks]

    def scaled(self, a: float, b: float) -> tuple[float, float]:
        """``(raw, scaled)`` workload time in ``[a, b]``: wall time minus
        probe time, and the same with each stretch between two probes scaled
        by their mean speed.  A probe's speed is ``REF_S`` over the median
        duration of it and its ``SMOOTH`` neighbours on either side, so one
        probe that a page fault or an interrupt slowed does not skew its
        stretch.  Time before the first probe takes the first probe's speed;
        that covers a worker's interpreter start and imports."""
        durations = self.probe_s()
        raw = scaled = 0.0
        prev_end, prev_speed = a, None
        for i, (t0, t1) in enumerate(self.marks):
            speed = REF_S / statistics.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1])
            lo, hi = max(prev_end, a), min(t0, b)
            if hi > lo:
                k = speed if prev_speed is None else 0.5 * (speed + prev_speed)
                raw += hi - lo
                scaled += (hi - lo) * k
            prev_end, prev_speed = t1, speed
        if b > prev_end:  # the workload ran on past the last probe
            raw += b - prev_end
            scaled += (b - prev_end) * prev_speed
        return raw, scaled
