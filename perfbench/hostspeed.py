"""Host-speed calibration for the timed metrics.

On a shared VM the same op can take twice as long from one second to the
next, and whole runs drift by 30% or more, while system time and CPU steal
stay at zero: the guest just runs slower, and each vCPU at its own pace.  So
the benchmark pins itself to one CPU, and a fixed probe samples that CPU's
speed while the ops run: a SIGALRM timer interrupts the timed work every
SAMPLE_EVERY_S seconds of op time and runs probe().  Each op's time, less the
time the interruptions took, is scaled by REFERENCE_S / (mean probe time
during the op, widened to neighbouring ops until MIN_SAMPLES probes are in).
Timed metrics therefore read as seconds at the speed the recording machine
had when the probe took REFERENCE_S.  The probe's code is fixed here, so a
change to tdual cannot move it.  It mixes the two kinds of work tdual does,
tuple-keyed dict bookkeeping in the interpreter and an int64 matrix product
in numpy; of the probes tried, that mix tracked op times best (notes.md).

Set-up runs in fresh interpreters, which that probe does not track, so each
set-up time is scaled instead by a reference child timed just before and
just after it: a fresh interpreter that imports numpy and jsonschema and
nothing of tdual (scaled_child_time()).
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

REFERENCE_S = 0.00099   # median probe time inside ops on the recording machine
SAMPLE_EVERY_S = 0.05   # op seconds between probes
MIN_SAMPLES = 4         # probes behind each op's scale factor
CHILD_REFERENCE_S = 0.19  # median reference-child time on the recording machine
REFERENCE_CHILD = [sys.executable, "-c", "import numpy, jsonschema; print('ready', flush=True)"]

_M = np.random.default_rng(0).integers(0, 7, size=(80, 80))


def probe() -> float:
    """Wall seconds of a fixed piece of work that does not involve tdual."""
    t0 = perf_counter()
    d = {}
    for i in range(600):
        d[(i % 97, i % 13)] = d.get((i % 89, i % 13), 0) + i
    (_M @ _M) % 7
    return perf_counter() - t0


def child_time(cmd: list) -> float:
    """Wall seconds from spawning cmd to its first line, which must be 'ready'."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[-1]!r} failed with exit {rc}")
    return t1 - t0


def scaled_child_time(cmd: list) -> tuple[float, float]:
    """(raw, scaled) wall seconds of a fresh child, scaled by the reference child."""
    before = child_time(REFERENCE_CHILD)
    raw = child_time(cmd)
    after = child_time(REFERENCE_CHILD)
    return raw, raw * CHILD_REFERENCE_S / ((before + after) / 2)


class Sampler:
    """Times a sequence of ops and samples host speed while they run.

    Wrap each op in start() and stop(); between ops the timer is off, so
    checks are never interrupted.  close() restores the signal handler.
    """

    def __init__(self):
        self.wall: list[float] = []      # op seconds, probes included
        self.raw: list[float] = []       # op seconds, probes left out
        self.samples: list[list] = []    # per op: probe seconds taken during it
        self._left = SAMPLE_EVERY_S
        self._old = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._current.append(probe())
        self._stolen += perf_counter() - t0

    def start(self) -> None:
        self._current, self._stolen = [], 0.0
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._left, SAMPLE_EVERY_S)

    def stop(self) -> None:
        # the timer resumes where it stopped, so probes fall every
        # SAMPLE_EVERY_S of op time however short the ops are
        self._left = signal.setitimer(signal.ITIMER_REAL, 0)[0] or SAMPLE_EVERY_S
        wall = perf_counter() - self._t0
        self.wall.append(wall)
        self.raw.append(wall - self._stolen)
        self.samples.append(self._current)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self) -> list[float]:
        """Op times at the reference speed."""
        n = len(self.raw)
        if sum(map(len, self.samples)) < MIN_SAMPLES:
            # ops too short to be interrupted: probe after the run instead
            self.samples[-1] += [probe() for _ in range(MIN_SAMPLES)]
        out = []
        for i in range(n):
            got, lo, hi = list(self.samples[i]), i, i
            while len(got) < MIN_SAMPLES:
                if lo > 0:
                    lo -= 1
                    got += self.samples[lo]
                if hi < n - 1:
                    hi += 1
                    got += self.samples[hi]
            out.append(self.raw[i] * REFERENCE_S / statistics.mean(got))
        return out

    def speed(self) -> float:
        """Host speed over the run, relative to the reference (1 = same)."""
        return REFERENCE_S / statistics.mean(s for op in self.samples for s in op)
