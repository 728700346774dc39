"""Host-speed calibration for timings taken on a shared machine.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed loop of pure Python took anywhere from 1.0 ms to 2.2 ms within
one minute, and a job of the benchmark moved by a similar factor.  Every
timing the benchmark reports is therefore taken together with a fixed
probe, run in the same thread right before and after the timed work, and
scaled to the reference speed:

    normalized = wall * ref_s / probe_s

where ``probe_s`` is the median of the probes near it and ``ref_s``
the probe's time on the reference host.  A normalized time is the wall
time the work would have taken on that host; a faster program gives a
proportionally lower one.  The probes are part of the benchmark, not of
tfrenorm, so no change to the program can move them.

A shared host does not slow all code alike, so each workload uses the
probe closest to its own work: ``python`` for interpreter-bound jobs,
``numpy`` for FFT-bound ones, and ``startup`` for the set-up of a fresh
interpreter.
"""

import statistics
import subprocess
import sys
import time


WINDOW = 2  # probes on either side of a timing that set its host speed


class Probe:
    """A fixed piece of work and its time on the reference host."""

    def __init__(self, timed_work, ref_s):
        self.timed_work, self.ref_s = timed_work, ref_s

    def __call__(self):
        """Seconds the work takes now."""
        return self.timed_work()

    def normalize(self, walls, probes, window=WINDOW):
        """Each wall time scaled to the reference speed.

        ``probes[i]`` and ``probes[i + 1]`` were taken right before and
        after ``walls[i]``.  The host speed for ``walls[i]`` is the median
        of the ``window`` probes on either side of it: one probe can catch a
        burst that the work missed, or miss one that it caught, and that
        noise would widen the tail of the normalized times.
        """
        out = []
        for i, wall in enumerate(walls):
            near = probes[max(0, i + 1 - window):i + 1 + window]
            out.append(wall * self.ref_s / statistics.median(near))
        return out


def _python_round():
    acc, table = 0, {}
    for i in range(2500):
        acc = (acc * 31 + i) % 1000003
        table[i & 127] = acc
        acc += len(str(acc)) + int(abs(float(acc) ** 0.5))
    return acc + len(table)


def _python():
    """Median of three rounds of interpreter work, so that one interrupt
    does not count."""
    rounds = []
    for _ in range(3):
        t0 = time.perf_counter()
        _python_round()
        rounds.append(time.perf_counter() - t0)
    return statistics.median(rounds)


_arrays = {}


def _numpy():
    """FFT round trips on a small in-cache grid and on a 4 MiB one, about
    equal in time.  The host slows the first far more than the second,
    and the spectral jobs lie in between."""
    import numpy as np

    if not _arrays:
        rng = np.random.default_rng(0)
        _arrays["small"] = rng.standard_normal((64, 256))
        _arrays["large"] = rng.standard_normal((512, 512))
    t0 = time.perf_counter()
    for _ in range(30):
        np.fft.ifft2(np.fft.fft2(_arrays["small"]))
    np.fft.ifft2(np.fft.fft2(_arrays["large"]))
    return time.perf_counter() - t0


def _startup():
    """Start and end of an empty fresh interpreter.  Starting processes and
    importing modules slow far less than interpreter loops when the host
    slows, so set-up times are normalized by this probe."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


# Reference times: the faster phases of a 2-vCPU Intel Xeon with Python
# 3.11 and numpy 2.4.
PROBES = {
    "python": Probe(_python, 0.0011),
    "numpy": Probe(_numpy, 0.030),
    "startup": Probe(_startup, 0.066),
}
