"""Speed of the CPU a job runs on, sampled while the job runs.

On a shared virtual machine a vCPU's speed can change by a factor of about
1.7 from one stretch of seconds to the next, and the two vCPUs do not
change together.  ``Sampler`` times a fixed probe (small numpy products,
norms and solves, the kind of call the closed loop's right-hand side
makes) every ``PERIOD`` seconds from a ``SIGALRM`` handler.  The handler
runs in the job's own main thread, between its bytecodes, so the probe
runs on the same CPU as the job and interleaved with it.  ``seconds``
rescales a stretch of the job's wall time, with the probes taken out, to
the speed at which one probe takes ``REFERENCE`` seconds.

The probe is the benchmark's own code and calls nothing in ``src/``, so a
change to the program leaves it as it is: a program that does half the
work reads half the rescaled time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds between two probes.
PERIOD = 0.1

#: Seconds one probe takes at the reference speed: its median on a 2-vCPU
#: Intel Xeon (family 6, model 143) KVM guest with numpy 2.4.6, one BLAS
#: thread, in the machine's faster phase.
REFERENCE = 2.0e-3

_MATRIX = np.eye(6) + 0.1
_VECTOR = np.ones(6)


def probe():
    """A fixed amount of small-array numpy work, about 2 ms."""
    x = _VECTOR
    for _ in range(150):
        x = _MATRIX @ x
        x = x / float(np.sqrt(x @ x))
        np.linalg.solve(_MATRIX, x)


class Sampler:
    """Probe timings taken every ``PERIOD`` seconds while started."""

    def __init__(self):
        self.samples = []  # (probe start, probe end), perf_counter seconds

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.samples.append((start, time.perf_counter()))

    def start(self):
        probe()  # first call pays numpy's lazy set-up, outside any sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def seconds(self, t0, t1):
        """Wall seconds in ``[t0, t1]`` outside probes, raw and rescaled.

        Each stretch between two probes is rescaled by the mean duration of
        the probes around it; the first and last stretches by the one probe
        next to them.  Returns ``(raw, rescaled)``.
        """
        inside = [(a, b) for a, b in self.samples if t0 <= a and b <= t1]
        if not inside:
            raise RuntimeError(f"no speed probe in a {t1 - t0:.3f} s stretch")
        edges = [t0] + [x for ab in inside for x in ab] + [t1]
        took = [b - a for a, b in inside]
        took = [took[0]] + took + [took[-1]]
        raw = rescaled = 0.0
        for k in range(len(inside) + 1):
            stretch = edges[2 * k + 1] - edges[2 * k]
            raw += stretch
            rescaled += stretch * REFERENCE / (0.5 * (took[k] + took[k + 1]))
        return raw, rescaled
