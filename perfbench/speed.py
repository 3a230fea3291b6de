"""Host-speed probe, so that times can be reported at one nominal speed.

On a shared VM the host's speed swings by tens of percent within seconds and
drifts over minutes, while the program stays the same. The benchmark times a
fixed probe alongside the program and scales each measured wall time by the
mean ratio of a nominal probe time to the probes taken during it (a pass) or
around it (a set-up sample).

The probe has two halves, because the program slows with both. In a trial
with an earlier form of the halves, log pass time moved by about 0.45 x log
of each half on dense-mixed, and by 0.3 (core) and 0.9 (memory) on
nls-trajectory; scaling by the sum of the two halves left less spread than
scaling by either alone on every workload.

- core, about 1.2 ms: small ``numpy.fft`` transforms and a reduction on
  64^2 arrays that stay in the core's caches. Two untimed rounds bring them
  back before the timed ones, so the program's own memory traffic does not
  reach them (timed cold, this half reads about 20% slower after large
  transforms than after pure Python).
- memory, about 2 ms: two sums over an 8 MB array, four times the core's
  own cache, so they stream from the shared cache and memory. Their time
  after large transforms is within 2% of their time after pure Python.

It never calls ``scipy.fft`` or dispersia, so nothing the program sets or the
tracer wraps changes its work. Its 8 MB array counts in the pass's peak RSS.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# The nominal speed: about the probe's seconds on the machine where the
# benchmark was written (2-vCPU Xeon VM, numpy 2.4), inside untraced passes,
# and back to back as around set-up samples (where it reads faster; the
# memory half is then the larger part of the gap).
PROBE_NOMINAL_S = 0.0034
PROBE_BACK_TO_BACK_NOMINAL_S = 0.0021
# One probe every SAMPLE_INTERVAL_S of a sampled pass.
SAMPLE_INTERVAL_S = 0.1


class Probe:
    """The fixed work; calling it returns its wall seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.phase = np.exp(1j * rng.uniform(0.0, 2 * math.pi, (64, 64)))
        self.stream = np.ones(1 << 20)  # 8 MB
        for _ in range(20):  # warm-up: first-call costs of numpy.fft
            self()

    def _round(self):
        b = np.fft.ifft2(np.fft.fft2(self.a) * self.phase)
        float((b.real**2).sum())

    def __call__(self) -> float:
        for _ in range(2):
            self._round()
        t0 = time.perf_counter()
        for _ in range(6):
            self._round()
        for _ in range(2):
            float(self.stream.sum())
        return time.perf_counter() - t0


def speed_ratio(samples: list[float], nominal_s: float = PROBE_NOMINAL_S) -> float:
    """Mean nominal-to-actual speed ratio over probe samples."""
    if not samples:
        raise RuntimeError("no speed probe was taken")
    return statistics.fmean(nominal_s / p for p in samples)


class Sampler:
    """Runs the probe every SAMPLE_INTERVAL_S while the block runs.

    A timer signal interrupts the block on its own thread, and so on the CPU
    it runs on. Python runs the handler between bytecodes, so a long call
    into C defers a sample until it returns.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall seconds spent in the handler

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent_s = [], 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, wall_s: float) -> tuple[float, float]:
        """The block's own seconds (probes removed), and those seconds
        scaled to the nominal speed."""
        own = wall_s - self.spent_s
        return own, own * speed_ratio(self.samples)
