"""Judging outputs against references; each workload's ``check`` uses these.

A job fails if it raised (the worker recorded an error string) or if its
value is outside tolerance.  Failures are counted, never dropped, and the
run goes on.  ``digits`` collects clamp(-log10(rel_err), 0, 16) per checked
output, with 0 for a raised job.
"""

import math
from dataclasses import dataclass, field

# The package's default tolerances (config.TOL_EIGEN, config.TOL_KERNEL) when
# the benchmark was defined, fixed here so that a change to the package's
# defaults does not change what the benchmark accepts.
TOL_EIGEN = 1e-6      # |value - ref| <= TOL_EIGEN * (1 + |ref|) for G and V jobs
TOL_KERNEL = 1e-7     # |value - ref| <= TOL_KERNEL * |ref| for kernel jobs


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digits: list = field(default_factory=list)

    def add(self, ok, digits=None):
        self.attempted += 1
        self.failed += not ok
        if digits is not None:
            self.digits.append(digits)


def digits_of(rel_err):
    if not rel_err > 0.0:
        return 16.0 if rel_err == 0.0 else 0.0      # NaN counts as no digits
    return min(16.0, max(0.0, -math.log10(rel_err)))


def judge(value, ref, kind):
    """(within tolerance, digits) of one output against its reference."""
    if isinstance(value, str):
        return False, 0.0
    value = complex(*value)
    err = abs(value - ref)
    if kind in ("G", "V"):
        ok = err <= TOL_EIGEN * (1.0 + abs(ref))
    else:
        ok = err <= TOL_KERNEL * abs(ref)
    return ok, digits_of(err / abs(ref))
