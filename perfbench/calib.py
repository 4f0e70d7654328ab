"""A fixed calibration kernel that measures how fast the machine is right now.

The machines this benchmark runs on are shared.  Measured on a 2-core
container, other tenants slowed a fixed pure-Python loop by 1.4x to 1.8x in
stretches of 2 to 20 seconds, and two identical 20-second runs of the
``expand`` workload differed by 40% in jobs per second.  No statistic over
one run removes a slowdown that covers the whole run.

So every timed job is followed by one run of :func:`calibrate`, a fixed
kernel written here (it never imports the package, so no change to the
package can change it): a sparse product of two 12-term polynomials held as
dicts from exponent tuples to ``Fraction`` values, then the text of the
result, which is the same kind of work the package's kernel does.  A job's
time is scaled by ``(REFERENCE_S / c) ** EXPONENT``, where ``c`` is the
median calibration time of the jobs around it.  Times are therefore reported
in *reference seconds*: seconds on a machine where the kernel takes
``REFERENCE_S``, about its time on an unloaded core of the machine the
baseline was recorded on.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0007
WINDOW = 8  # calibration samples on each side of a job
# Under contention the kernel slows a little more than the jobs do: over 40
# runs with kernel times from 0.63 to 1.33 ms, plain 1/c scaling left the
# scaled jobs_per_s rising with c as c^0.08 to c^0.14.  The jobs' slowdown is
# taken as the kernel's to this power.
EXPONENT = 0.9

_rng = random.Random(0)
_A, _B = (
    {
        (_rng.randint(0, 4), _rng.randint(0, 4), _rng.randint(0, 4)): Fraction(
            _rng.randint(-9, 9), _rng.randint(1, 9)
        )
        for _ in range(12)
    }
    for _ in range(2)
)


def calibrate() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    t0 = perf_counter()
    out: dict = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[key] = out.get(key, 0) + c1 * c2
    str(sorted(out.items()))
    return perf_counter() - t0


def warm_up(n: int = 50) -> float:
    """Run the kernel ``n`` times; return the median time."""
    return statistics.median(calibrate() for _ in range(n))


def scale(kernel_s: float) -> float:
    """The factor that turns a time measured beside ``kernel_s`` into reference time."""
    return (REFERENCE_S / kernel_s) ** EXPONENT


def scale_factors(samples: list[float]) -> list[float]:
    """For each sample position, the scale of the median of its window."""
    return [
        scale(statistics.median(samples[max(0, i - WINDOW) : i + WINDOW + 1]))
        for i in range(len(samples))
    ]
