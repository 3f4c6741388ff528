"""Reference probe: a fixed computation that gauges how fast the machine runs now.

On a shared host the same code runs up to twice as slow for tens of seconds
at a time, in CPU time as well as in wall time, because other tenants share
the cores' caches and memory bandwidth.  Running the probe right next to a
piece of work, in the same thread, and dividing the work's CPU time by the
probe's cancels most of that drift.  The quotient reads in probe units
(multiples of the probe's CPU time); it compares across runs on one kind of
machine, and a change to the program moves it as it moves the work's time.

The probe is the benchmark's own code and touches nothing of the program. It
mixes costs the program's work is made of: interpreter dispatch, passes over
megabyte-sized float32 arrays, and a float32 matrix product of the
shape a 3x3 convolution of 8 channels lowers to on one 64x64 image (on BLAS,
which the benchmark pins to one thread). The mix was chosen by timing train
steps, eval batches and tiny float64 model evaluations next to each part on
a shared 2-vCPU host: this mix followed the speed of all three most closely.
NumPy calls on tiny arrays were left out: they swing far more than any of
the program's work does.
"""

import time

import numpy as np

SEGMENT_S = 2.0  # CPU seconds of work between probes, at least
# Probe CPU seconds that ``setup_s`` is scaled to: about what the probe takes
# on a quiet 2-vCPU Xeon host.  Only the set-up time, which must read in
# seconds, uses it; a constant factor, it cancels in every comparison.
PROBE_REFERENCE_S = 0.125

_LARGE = np.full((8, 64 * 64 * 8), 0.5, dtype=np.float32)
_COLS = np.full((64 * 64, 72), 0.25, dtype=np.float32)
_WEIGHTS = np.full((72, 16), 0.125, dtype=np.float32)


def probe():
    """Runs the probe once; returns its CPU seconds (about 0.15 s)."""
    c = time.process_time()
    s = 0
    for i in range(600_000):
        s += i * i % 7
    x = _LARGE
    for _ in range(300):
        x = np.maximum(x * 1.0001, -1.0)
    for _ in range(120):
        _COLS @ _WEIGHTS
    return time.process_time() - c


def in_units(cpu, probes):
    """Work in probe units: each segment's CPU seconds over its probe's."""
    return sum(c / p for c, p in zip(cpu, probes))


class Segments:
    """Cuts a stretch of work into segments, each followed by a probe.

    Call ``tick()`` between operations: once the open segment holds at least
    ``min_s`` CPU seconds, it is closed and the probe runs.  ``close()`` ends
    the last segment.  The probes' own time falls in no segment.  ``start``
    is the CPU time at which the first segment opens (default: now; 0.0
    counts the process from its creation).
    """

    def __init__(self, min_s=SEGMENT_S, start=None):
        self.min_s = min_s
        self.start = time.process_time() if start is None else start
        self.cpu = []
        self.probes = []
        self.probe_wall = 0.0  # wall seconds spent in probes

    def tick(self):
        if time.process_time() - self.start >= self.min_s:
            self.close()

    def close(self):
        self.cpu.append(time.process_time() - self.start)
        t = time.perf_counter()
        self.probes.append(probe())
        self.probe_wall += time.perf_counter() - t
        self.start = time.process_time()

    def units(self):
        """The work in probe units; each segment goes with the probe after it."""
        return in_units(self.cpu, self.probes)

    def as_dict(self):
        return {"cpu": self.cpu, "probes": self.probes, "probe_wall": self.probe_wall}
