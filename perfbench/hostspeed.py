"""How fast the host runs this kind of code right now, to take host drift out
of timings.

On a shared host the speed of a CPU drifts by tens of percent over minutes,
so the same pass can take 1.2 s in one run and 1.7 s in the next.  A fixed
calibration loop, timed in the same process next to a timed section,
measures that drift.  ``scale`` turns a measured time into the time at the
host speed where the loop takes ``REFERENCE_S`` seconds, which is what the
benchmark reports as ``setup_s``, ``cold_s`` and ``wall_s``.

The package is Python driving numpy, and the two slow down by different
amounts, so the loop has an interpreter part and a numpy part on arrays
larger than a core's private cache.  Nothing in it depends on the package
under test.
"""

import math
import time

PY_ITERATIONS = 150_000
NP_SIZE = 400_000
NP_ROUNDS = 8
# about the loop's median time on the 2-vCPU x86-64 host the benchmark was
# defined on; it fixes the scale of the reported times, not their ratios
REFERENCE_S = 0.065


def loop_s():
    """Seconds the calibration loop takes now.

    Call it only after the package has imported numpy, so that a set-up
    time taken before it still covers numpy's import.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    table = {}
    for j in range(PY_ITERATIONS):
        acc += math.sqrt(j) * 1.0000001
        table[j & 255] = acc
    a = np.linspace(0.1, 1.0, NP_SIZE)
    t = np.empty_like(a)
    for _ in range(NP_ROUNDS):
        np.multiply(a, a, out=t)        # t = sqrt(a^2 + 1) - 0.9
        t += 1.0
        np.sqrt(t, out=t)
        t -= 0.9
        np.cos(t, out=a)                # a = exp(-t) cos(t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        a *= t
    return time.perf_counter() - start


def scale(seconds, loop):
    """``seconds`` measured while the loop took ``loop``, at the reference speed."""
    return seconds * REFERENCE_S / loop


class Timed:
    """A section timed between two calibration loops.

        with hostspeed.Timed() as t:
            work()
        t.seconds, t.loop_s, t.scaled
    """

    def __enter__(self):
        self.before = loop_s()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.start
        self.loop_s = (self.before + loop_s()) / 2.0
        self.scaled = scale(self.seconds, self.loop_s)
        return False
