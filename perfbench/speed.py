"""Machine-speed reference, so that pass times from a shared machine compare.

On the shared two-vCPU sandbox this benchmark was written on, the same pass
ran up to 1.7 times slower for stretches of five to twenty seconds while
other tenants were busy. Thread CPU time tracked wall time and steal time
stayed near 1%, so the machine itself ran slower, and no statistic of one
short run averaged that out: across seeds the median pass time of a 15 s run
spread by 25 to 39% (quartile distance over median).

So untraced runs interleave a fixed kernel with the program, about one tenth
of the measuring time: after every ``haar.average_pattern`` call (tens per
pass on every workload) and after every pass. Its time is taken out of the
pass time, and each pass is scaled by REFERENCE_S over the kernel's mean
time around that pass: a time is reported as what it would take on a
machine where the kernel takes REFERENCE_S. Means, not medians, because a
pass integrates the slow spells it overlaps just as the mean does. The
kernel is independent of boxdisc and mixes what the program does: batched
small complex einsums, 16x16 eigensolves, a streaming pass over 2 MiB, and
interpreted Python. With it, the spread of the same statistic fell to 1.5 to
11% across workloads and metrics (perfbench/trajectory/BENCH_seed.json).
"""

from __future__ import annotations

import time

#: Kernel time at the reference speed, about its mean on the sandbox above
#: (2 vCPUs, OpenBLAS pinned to one thread).
REFERENCE_S = 0.004

#: Share of a run's measuring time spent in the kernel.
DUTY = 0.1

#: Kernel samples this close to a pass, before or after, scale that pass...
HALF_WINDOW_S = 0.5

#: ...or, if fewer fall there, this many samples nearest to it.
MIN_WINDOW = 4


class SpeedProbe:
    """A fixed workload timed on demand; its inputs depend on no argument."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20111109)
        self._np = np
        self._stack = rng.normal(size=(256, 4, 4)) + 1j * rng.normal(size=(256, 4, 4))
        self._op = rng.normal(size=(4, 4))
        h = rng.normal(size=(16, 16))
        self._herm = h + h.T
        self._big = rng.normal(size=2**18)  # 2 MiB of float64
        self._out = np.empty_like(self._big)
        self.samples = []
        self.total = 0.0
        for _ in range(3):  # first calls set up einsum paths and BLAS buffers
            self._kernel()

    def _kernel(self) -> float:
        np = self._np
        acc = 0.0
        for _ in range(6):
            y = np.einsum("mij,jk,mlk->mil", self._stack, self._op, self._stack.conj())
            acc += float(y.real.sum())
            for _ in range(6):
                acc += float(np.linalg.eigvalsh(self._herm)[0])
        np.multiply(self._big, 1.0000001, out=self._out)
        acc += float(self._out[-1])
        total = 0
        for i in range(12000):
            total += i * i
        return acc + total

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        self.total += t1 - t0
        return t1 - t0

    def keep_duty(self, measured_s: float):
        """Run the kernel until it has taken DUTY of the time measured so far."""
        while self.total < DUTY * measured_s:
            self.sample()

    def factor(self, start: float = None, end: float = None) -> float:
        """Multiply a timing by this to put it at reference speed.

        Uses the kernel samples around [start, end], or all of them.
        """
        if start is None:
            window = [s for _, s in self.samples]
        else:
            window = [s for t, s in self.samples
                      if start - HALF_WINDOW_S <= t <= end + HALF_WINDOW_S]
            if len(window) < MIN_WINDOW:
                mid = 0.5 * (start + end)
                nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - mid))
                window = [s for _, s in nearest[:MIN_WINDOW]]
        return REFERENCE_S * len(window) / sum(window)


class Interleaved:
    """Runs the kernel after each call of one function, and keeps its time apart.

    Installed on ``owner.attr`` (the binding the program's callers look up)
    for the duration of a ``with`` block; ``excluded`` is the time the
    kernel took inside the block, to be subtracted from the block's timing.
    """

    def __init__(self, probe: SpeedProbe, owner, attr: str, start: float):
        self.probe = probe
        self.owner = owner
        self.attr = attr
        self.start = start
        self.excluded = 0.0
        self._fn = None

    def __enter__(self):
        self.excluded = 0.0
        self._fn = getattr(self.owner, self.attr)
        fn = self._fn

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = time.perf_counter()
            self.probe.keep_duty(t0 - self.start)
            self.excluded += time.perf_counter() - t0
            return result

        setattr(self.owner, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._fn)
        return False
