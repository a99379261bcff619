"""Machine-speed probe: converts wall time on a shared host to reference seconds.

On a host shared with other tenants the same computation can take 1.7 times
longer from one second to the next, while the process stays on the CPU the
whole time (its CPU time equals its wall time), and the slow spells last
long enough that a run's share of them varies from run to run.  While a
``SpeedProbe`` is active, SIGALRM interrupts the process every ``PERIOD_S``
and times a fixed kernel of small numpy operations, which slows down with
the machine much as cosymkit does.
An interval of wall time ``w`` during which the kernel took ``k`` on average
counts as ``w * REFERENCE_S / k`` reference seconds.  The kernel is the
benchmark's own code, so a faster cosymkit does not make it faster.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.1
#: Kernel time that defines one reference second: an interval counts as
#: many reference seconds as it would last on a machine where the kernel
#: takes this long (about 1.2 ms on a 2-vCPU Xeon sandbox, Python 3.11,
#: numpy 2.4).
REFERENCE_S = 1e-3
#: An interval with fewer probe samples borrows the mean of its whole pass.
MIN_SAMPLES = 10

_MATRIX = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 0.25], [-0.5, -0.25, 1.0]])


def _kernel():
    # long enough (about 1 ms) that the cold caches it meets after the
    # interruption do not dominate its time
    v = np.array([1.0, 0.5, 0.25])
    for _ in range(200):
        v = _MATRIX @ v
        v = v / (1.0 + abs(float(v[0])))
    return v


class SpeedProbe:
    """Samples the kernel time on SIGALRM while used as a context manager."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Position to pass to :meth:`since` at the end of an interval."""
        return len(self.samples)

    def since(self, mark: int) -> tuple[float, int]:
        """Sum and count of the kernel times sampled since ``mark``."""
        chunk = self.samples[mark:]
        return sum(chunk), len(chunk)


def to_reference(records) -> None:
    """Add ``ref_seconds`` to each record of one pass.

    Each record carries its wall ``seconds`` and the ``probe`` (sum, count)
    sampled while it ran; short records use the mean of the whole pass.
    """
    total = sum(rec["probe"][0] for rec in records)
    count = sum(rec["probe"][1] for rec in records)
    pass_mean = total / count if count else REFERENCE_S
    for rec in records:
        probe_sum, probe_n = rec["probe"]
        mean = probe_sum / probe_n if probe_n >= MIN_SAMPLES else pass_mean
        rec["ref_seconds"] = rec["seconds"] * REFERENCE_S / mean
