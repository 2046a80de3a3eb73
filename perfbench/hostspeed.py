"""Times that hold still on a shared host.

The host this benchmark runs on is shared: for seconds at a time the same
code runs up to 70% slower. A fixed reference task, containing none of
tkern's code, therefore runs between measurements, and a measured time is
reported as ``taken * (reference_s / local) ** ELASTICITY``, roughly the
time it would have taken at the speed at which the reference task takes
``reference_s``. ``local`` is the smaller of the reference times just
before and just after the measurement.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

# tkern's work slows by about 0.8 of the reference task's slowdown: the slope
# of log query time on log reference time over 3-second windows, for
# multiplier and oracle queries, on a loaded 2-vCPU x86-64 host
ELASTICITY = 0.8


def run_child(cmd, timeout: float, env=None) -> subprocess.CompletedProcess:
    """Run ``cmd`` and capture its output.

    ``subprocess.run(timeout=...)`` waits by sleeping in steps of up to
    50 ms, which would quantize the times measured around it; here the wait
    blocks and a timer kills a child that outlives ``timeout``.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


class SpeedProbe:
    """Host speed next to each measurement, from a fixed reference task."""

    def __init__(self, task, reference_s: float, repeats: int):
        self._task = task
        self.reference_s = reference_s
        self._repeats = repeats
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> float:
        """Time the task (best of ``repeats`` runs) and remember it."""
        best = float("inf")
        for _ in range(self._repeats):
            start = time.perf_counter()
            self._task()
            best = min(best, time.perf_counter() - start)
        self.last = best
        self.samples.append(best)
        return best

    def measure(self, fn):
        """Run ``fn``: (its result, seconds taken, seconds at reference speed)."""
        before = self.last
        start = time.perf_counter()
        result = fn()
        took = time.perf_counter() - start
        local = min(before, self.sample())
        return result, took, took * (self.reference_s / local) ** ELASTICITY


def compute_probe() -> SpeedProbe:
    """Reference for in-process library calls: numpy polynomial, FFT and
    small dense linear algebra on complex arrays plus interpreter work, the
    mix tkern spends its time in. The best of three runs counts, so caches
    the measured work left cold do not read as slowness."""
    import numpy as np
    import numpy.polynomial.polynomial as npoly

    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    square = npoly.polymul(coeffs, coeffs)
    matrix = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    signal = rng.standard_normal(256) + 0j

    def task():
        for _ in range(3):
            npoly.polyroots(coeffs)
            npoly.polydiv(square, coeffs)
            npoly.polyval(0.3 + 0.1j, coeffs)
        np.linalg.svd(matrix, compute_uv=False)
        np.fft.fft(signal)
        table = {}
        for i in range(300):
            table[i] = abs(complex(i, 1.0) * 0.5)

    # about the task's time on an unloaded 2-vCPU x86-64 host
    return SpeedProbe(task, 0.35e-3, repeats=3)


def spawn_probe() -> SpeedProbe:
    """Reference for times spent mostly starting processes (``setup_s``,
    ``cli_oneshot``): a fresh interpreter that does nothing."""
    cmd = [sys.executable, "-c", "pass"]
    # about its time on an unloaded 2-vCPU x86-64 host
    return SpeedProbe(lambda: run_child(cmd, timeout=60), 50e-3, repeats=1)
