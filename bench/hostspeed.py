"""Host speed sampled while the program runs, to take host contention out of timings.

The machine the benchmark runs on shares its cores with other tenants.
Timed with a fixed probe, a core switches every few hundred milliseconds
between a fast state and a slow one that takes 1.6 to 1.8 times as long,
and the share of time spent slow drifts over minutes.  Wall times of the
same work therefore differ by up to 1.7 times between runs minutes apart,
with CPU time equal to wall time.

A ``Sampler`` interrupts the process every ``PERIOD_S`` seconds of wall
time (``SIGALRM``); the handler, which runs in the main thread between
two bytecodes of the program, times a fixed probe.  Over an interval of
wall time ``w`` in which the probe took ``d_i`` against its time
``nominal_ns`` in the fast state, the program did the work that a
core in the fast state does in

    (w - time spent in probes) * mean(nominal_ns / d_i)

seconds, because the samples are uniform in time and the work done per
second is proportional to 1 / d.  ``Sampler.normalized_s`` returns that
figure.  A change to the program moves it as it moves wall time; the
probe does not depend on the program.

There are two probes, each like the work it times: ``numpy_probe``
(3x3 numpy products and float arithmetic in a Python loop, like the
program's per-step loops) for the workloads, and ``python_probe``
(interpreter work only) for the import of the program, which has to
start before numpy is imported.  This module imports nothing else so
that it adds nothing to the measured import.
"""

import signal
from time import perf_counter_ns

PERIOD_S = 0.01

# Median probe times in the fast state on the machine the baseline was
# taken on (2 Xeon vCPUs, Python 3.11, numpy 2.4).  They only scale the
# normalized figures to read as seconds on an uncontended core.
PYTHON_NOMINAL_NS = 32_000
NUMPY_NOMINAL_NS = 95_000


def python_probe() -> float:
    acc = 0.0
    terms = [1.0, 2.0, 3.0]
    for i in range(300):
        acc += terms[i % 3] * 0.5 + abs(acc) * 1e-3
    return acc


def numpy_probe():
    """The probe of the workloads; imports numpy, so call it after the program's import."""
    import numpy as np
    a = np.eye(3) * 0.5 + 0.1
    x = np.ones(3)

    def probe() -> float:
        acc = 0.0
        for _ in range(60):
            y = a @ x
            acc += float(y[0]) * 0.5 + abs(acc) * 1e-3
        return acc
    return probe


class Sampler:
    """Probe durations (ns) sampled every ``period_s`` s of wall time while started.

    Only one sampler may run at a time, in the main thread.
    """

    def __init__(self, probe, nominal_ns: int, period_s: float = PERIOD_S):
        self.probe = probe
        self.nominal_ns = nominal_ns
        self.period_s = period_s
        self.durations = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = perf_counter_ns()
        self.probe()
        self.durations.append(perf_counter_ns() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def mark(self) -> int:
        """Index of the next sample, to delimit an interval."""
        return len(self.durations)

    def speed(self, since: int = 0) -> float:
        """Mean of nominal over probe time since the mark ``since``; 1.0 without samples."""
        d = self.durations[since:]
        return sum(self.nominal_ns / x for x in d) / len(d) if d else 1.0

    def normalized_s(self, wall_s: float, since: int = 0) -> float:
        """Seconds a core in the fast state needs for the work done in ``wall_s``.

        ``wall_s`` is the wall time since the mark ``since``, probes included.
        """
        probes_s = sum(self.durations[since:]) * 1e-9
        return (wall_s - probes_s) * self.speed(since)
