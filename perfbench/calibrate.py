"""Machine-speed calibration.

The sandbox this benchmark was defined on is a 2-vCPU VM whose speed drifts
by +-20% over seconds to minutes, with no change in the code it runs. A
fixed reference kernel (interpreter loop with small numpy calls, an FFT,
random draws and a pure-Python loop, the mix the workloads use) is timed
between ops, about one tenth of the op time. Each op's wall time is
multiplied by ``REFERENCE_S`` over the median of the kernel timings taken
nearest to it in time: it reads as seconds on a machine on which the kernel
takes ``REFERENCE_S``, about its median on that VM. Over six 20-second runs
per workload on that VM this cut the spread of the median op time
(interquartile range over median) from 6-29% to 4-8%; normalizing by the
run's median kernel time instead gave 3-12%, and kernels shaped like each
workload's own code did no better than this one.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 0.0075
SHARE = 0.10  # kernel time kept at about this share of op time
NEAR = 4  # kernel timings on each side of an op that set its speed

_rng = np.random.default_rng(0)
_A = _rng.standard_normal(8000)
_B = _rng.standard_normal(1 << 14)


def kernel() -> float:
    s = 0.0
    for i in range(120):
        lam = 1.0 + i * 1e-4 + _A * _A
        s += float(np.sum(np.log(lam) + _A / lam))
    s += float(np.abs(np.fft.rfft(_B)).sum())
    s += float(np.random.default_rng(1).standard_normal(40000).sum())
    x = 0.0
    for i in range(20000):
        x += i * 0.5
    return s + x


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Calibration:
    """Kernel timings taken between ops, keeping their total near ``SHARE``
    of the op time so far."""

    def __init__(self):
        self.samples: list[float] = []
        self.total = 0.0
        self.op_total = 0.0

    def after_op(self, op_seconds: float) -> None:
        self.op_total += op_seconds
        while not self.samples or self.total < SHARE * self.op_total:
            self.samples.append(time_kernel())
            self.total += self.samples[-1]

    def mark(self) -> int:
        """Position of the next op among the kernel timings."""
        return len(self.samples)

    def speed_at(self, mark: int) -> float:
        """Factor that turns wall seconds of the op at ``mark`` into
        reference seconds."""
        return REFERENCE_S / float(np.median(self.samples[max(mark - NEAR, 0) : mark + NEAR]))
