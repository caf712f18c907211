"""Host-speed calibration for the benchmark's times.

On a virtual machine that shares its cores with other tenants the same
call takes 1.2 to 1.8 times longer while a neighbour loads the host, and
that state changes within seconds (measured on a 2-vCPU Intel Xeon VM:
one analysis pass took 2.4 s to 3.5 s within four minutes, and CPU time
tracks wall time, so the vCPU itself runs slower).  Raw times therefore
measure the neighbours as much as the program.

While ``HostClock.running()`` is active, a timer signal runs a fixed
calibration chunk of about 5 ms every ``interval`` seconds, also in the
middle of a long library call (Python runs signal handlers between
bytecodes).  The chunk is a mix of the kinds of work the workloads do
(see ``_chunk``) and does not touch ovalab, so no change to the library
changes its time.  ``paused(start, end)`` is the chunk time that fell in
an interval, which the caller subtracts from what it measured, and
``scale(start, end)`` is ``REFERENCE_CHUNK_S`` over the median duration
of the chunks in and next to that interval.  A call's net seconds times
its scale are the seconds it would take on a host on which the chunk
takes ``REFERENCE_CHUNK_S``.

The garbage collector is off during a chunk, so the chunk's time does
not depend on how many objects the program keeps alive.
"""

import gc
import signal
from bisect import bisect_left
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import numpy as np

# about the median chunk time between the workloads' calls on the 2-vCPU
# Intel Xeon VM described above (Python 3.11, numpy 2.4)
REFERENCE_CHUNK_S = 0.005
NEAREST = 2  # chunks taken on each side of an interval


class HostClock:
    """Calibration chunks taken during a run, and the scale they give."""

    def __init__(self, interval=0.1):
        rng = np.random.default_rng(0)
        self._f = rng.standard_normal((128, 32))
        self._y = np.linspace(0.0, 18.0, 193)
        self._v = np.sqrt(18.0 - self._y)[:, None] * np.ones((1, 24))
        self._phi = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        self._m = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        self._lines = [", ".join(repr(float(x)) for x in row)
                       for row in rng.standard_normal((120, 3))]
        self.interval = interval
        self.starts = []  # perf_counter() at the start of each chunk
        self.seconds = []  # its duration
        self._total = [0.0]  # running sum of self.seconds
        self._busy = False
        for _ in range(3):  # warm-up, not recorded
            self._chunk()

    def _chunk(self):
        """A fixed mix of the kinds of work the workloads do: FFT and
        stencil steps on a 128 x 32 field, a polar pullback with gathers
        on a 193 x 24 grid, per-column interpolation, CSV parsing and
        small dense solves."""
        s = 0.0
        y, phi, v = self._y[:, None], self._phi[None, :], self._v
        for k in range(4):
            f = np.fft.rfft(self._f, axis=1)
            b = np.fft.irfft(f * 1j, n=self._f.shape[1], axis=1)
            s += float((np.gradient(b, axis=0) * self._f).sum())

            qx = y * np.cos(phi - 0.01 * k) - 0.02
            qy = y * np.sin(phi - 0.01 * k) - 0.01
            r = np.minimum(np.hypot(qx, qy) / 1.001, self._y[-1])
            ang = np.mod(np.arctan2(qy, qx), 2.0 * np.pi)
            j0 = np.floor(ang / (phi[0, 1])).astype(int) % phi.size
            i1 = np.clip(np.searchsorted(self._y, r), 1, self._y.size - 1)
            s += float(v[i1, j0].sum() + v[i1 - 1, (j0 + 1) % phi.size].sum())

            for j in range(0, phi.size, 2):
                s += float(np.interp(r[:, j], self._y, v[:, j]).sum())
            for line in self._lines:
                s += sum(float(tok) for tok in line.split(","))
            for _ in range(6):
                s += float(np.linalg.solve(self._m, np.arange(6.0)).sum())
        return s

    def sample(self, n=1):
        """Take n calibration chunks now."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = perf_counter()
                self._chunk()
                dt = perf_counter() - t0
                self.starts.append(t0)
                self.seconds.append(dt)
                self._total.append(self._total[-1] + dt)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    @contextmanager
    def running(self):
        """Take a chunk every interval seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def paused(self, start, end):
        """Seconds of the chunks that began in [start, end]."""
        i = bisect_left(self.starts, start)
        j = bisect_left(self.starts, end)
        return self._total[j] - self._total[i]

    def scale(self, start, end):
        """Reference speed over the host's speed around [start, end]."""
        i = bisect_left(self.starts, start)
        j = bisect_left(self.starts, end)
        return REFERENCE_CHUNK_S / median(self.seconds[max(0, i - NEAREST):j + NEAREST])
