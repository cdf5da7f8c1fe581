"""Times operations in seconds at a reference speed of the host.

On a shared virtual machine the same pure-Python work runs up to 1.7x
slower while other tenants load the physical core, in spells that change
within milliseconds and drift over minutes.  Timing the work alone cannot
tell a slower program from a busier host.  So while the clock runs, a
`SIGALRM` every `INTERVAL` seconds runs a fixed probe loop and records how
long it took.  An operation's time at the reference speed is

    (elapsed - probe time) * REFERENCE_PROBE_S / median(p)

over the probe times `p` recorded during it: its time in units of the probe,
expressed in seconds through the probe's time on a quiet host.  The median
ignores the odd probe that a page fault or a collection stretched.  Python
runs signal handlers between bytecodes, so a long call into C (a numpy
sort) delays its probes; an operation that saw no probe uses those of its
whole pass.

The probes take about 1% of the time and change no state of the code they
interrupt.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field

INTERVAL = 0.02  # seconds between probes
PROBE_LOOPS = 2000
# The probe's time at the fastest speed of a quiet 2-vCPU KVM guest (Intel
# Xeon, Python 3.11.7).  Only a scale: comparisons on one machine do not
# depend on it.
REFERENCE_PROBE_S = 0.00012


@dataclass
class Sample:
    """One timed operation: its elapsed time and the probes run during it."""

    elapsed: float = 0.0
    probes: list[float] = field(default_factory=list)

    def reference_s(self, fallback: list[float]) -> float:
        """Time at the reference speed.

        `fallback` holds the probes to use when none ran during the operation;
        with none there either, the elapsed time is taken as it is.
        """
        work = self.elapsed - sum(self.probes)
        probes = self.probes or fallback or [REFERENCE_PROBE_S]
        return work * REFERENCE_PROBE_S / statistics.median(probes)


class HostClock:
    def __init__(self):
        self._probes: list[float] = []
        self.fastest_probe = float("inf")

    def _probe(self, signum, frame):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        took = time.perf_counter() - start
        self._probes.append(took)
        self.fastest_probe = min(self.fastest_probe, took)

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        # Restart system calls the alarm interrupts, as if it never came.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def measure(self):
        """Yields a Sample that holds the block's timing once it exits."""
        sample = Sample()
        first = len(self._probes)
        start = time.perf_counter()
        try:
            yield sample
        finally:
            sample.elapsed = time.perf_counter() - start
            sample.probes = self._probes[first:]
