"""Machine-speed probe for timed jobs.

On a shared 2-core VM the same Dirac track takes anywhere from 4.3 s to
8.7 s, a few seconds apart, in CPU time as much as in wall time. A fixed
numpy kernel slows down with it, as long as its working set is large (a
kernel that fits in L1 cache does not slow down). So a timed job runs under
a SIGALRM sampler. Every PERIOD seconds, the sampler times the kernel once.
The job's time is then:

- net of the sampler's own time;
- scaled to the speed at which the kernel takes REF_KERNEL_S.

Over repeated jobs on that VM, this cut the coefficient of variation of a
job's time from about 0.2 to about 0.05 for Chern pairings, and from about
0.11 to about 0.04 for tracks. For 0.2-s windings it cut it from 0.2 to 0.14.
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD = 0.25
# the kernel's typical time on the 2-core VM the benchmark was tuned on
REF_KERNEL_S = 0.012


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        # the mix of work in bec: batched small-matrix LAPACK, a 2.4 MB
        # elementwise pass, a batched 2x2 eigh, single small-matrix calls
        # and an interpreter loop
        self._stack = rng.standard_normal((300, 4, 4)) + 0j
        self._phases = rng.standard_normal(150000)
        h = rng.standard_normal((6000, 2, 2)) + 1j * rng.standard_normal(
            (6000, 2, 2))
        self._herm = h + h.conj().transpose(0, 2, 1)
        self._small = list(self._stack[:50])
        self.kernel()

    def kernel(self):
        np.linalg.svd(self._stack, compute_uv=False)
        np.linalg.solve(self._stack, self._stack)
        np.exp(1j * self._phases)
        np.linalg.eigh(self._herm)
        for m in self._small:
            np.linalg.svd(m, compute_uv=False)
            m @ m
        s = 0
        for i in range(2000):
            s += i * i
        return s

    def _sample(self, samples):
        t = time.perf_counter()
        self.kernel()
        samples.append(time.perf_counter() - t)

    def speed_factor(self, n=3):
        """REF_KERNEL_S over the median of n kernel times: multiply a wall
        time measured just before by this to get reference-speed time."""
        samples = []
        for _ in range(n):
            self._sample(samples)
        return REF_KERNEL_S / statistics.median(samples)

    @contextmanager
    def timing(self):
        """Time the block. The yielded dict gets `wall_s`, the raw wall
        time, and `ref_s`, the wall time less the sampler's, at the
        reference speed."""
        samples = []
        out = {}
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self._sample(samples))
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        net = wall - sum(samples)
        if not samples:
            # a job shorter than PERIOD is rated by one sample right after it
            self._sample(samples)
        out.update(wall_s=wall,
                   ref_s=net * REF_KERNEL_S
                   * statistics.fmean(1.0 / d for d in samples))
