"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core can move in phases that last
minutes, by up to 2x (measured on a 2-vCPU Intel Xeon VM, with nothing
else running in the VM: one fixed op took 0.087 s in one phase and
0.173 s in another).  No statistic over one run removes that, so two
sets of runs of the same code would disagree by far more than any useful
bound.

Every timing is therefore reported in *reference seconds*: host seconds
scaled by ``REFERENCE_KERNEL_S / k``, where ``k`` is the median time of
a fixed calibration kernel measured in the same pass.  The kernel
mixes the two kinds of work the program does, interpreted Python and
small numpy/LAPACK calls.  It is the benchmark's own code, so no change
to the program can move it.  In windows of about ten seconds over four
minutes on that host, a fixed DsRem op and a fixed boosting op had
interquartile ranges of 10% and 9% in host seconds, and of 3% and 5% in
reference seconds.  Raw host seconds are kept in every result record.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

#: Kernel time that defines one reference second: the kernel's median
#: in the host's fast phase on the machine above.
REFERENCE_KERNEL_S = 0.010

_RNG = np.random.default_rng(0)
_M = _RNG.random((96, 96))
_M = _M @ _M.T + 96 * np.eye(96)
_V = _RNG.random(96)


def _python_part() -> float:
    acc = 0.0
    table = {}
    for i in range(25000):
        key = (i & 63, i & 7)
        acc += table.get(key, 0.5) * 1.0001
        table[key] = acc % 97.0
    return acc


def _numpy_part() -> float:
    total = 0.0
    for _ in range(36):
        total += float(np.linalg.solve(_M, _V)[0])
        total += float(np.exp(_V).sum())
    return total


def kernel_seconds() -> float:
    """Host seconds of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0


def calibrate(n: int) -> list[float]:
    """``n`` kernel timings, back to back."""
    return [kernel_seconds() for _ in range(n)]


def scale(samples: list[float]) -> float:
    """Factor turning host seconds into reference seconds."""
    return REFERENCE_KERNEL_S / median(samples)
