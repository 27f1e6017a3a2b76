"""Parameter and evaluation-point types."""

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Multiplicity:
    """Deformation parameter pair (k1, k2) with Re k1 > 0 and Re k2 > 0.

    ``rho`` is the derived constant k1/2 + k2 appearing in the differential-
    difference operator.  k1 and k2 are stored as floats when real, else as
    complex numbers, which take principal-branch powers; ``real_positive``
    reads those types and flags where the positivity statements hold.
    """

    k1: complex
    k2: complex

    def __post_init__(self):
        for name, v in (("k1", self.k1), ("k2", self.k2)):
            if not isinstance(v, (int, float, complex)) or not cmath.isfinite(v):
                raise DomainError(f"{name} must be a finite number, got {v!r}")
            c = complex(v)
            object.__setattr__(self, name, c.real if c.imag == 0.0 else c)
        if self.k1.real <= 0 or self.k2.real <= 0:
            raise DomainError(
                f"require Re k1 > 0 and Re k2 > 0, got k1={self.k1}, k2={self.k2}"
            )

    @property
    def rho(self):
        return self.k1 / 2 + self.k2

    @property
    def real_positive(self) -> bool:
        return isinstance(self.k1, float) and isinstance(self.k2, float)


def _real_array(name, v):
    """v as a float array; DomainError unless it holds real numbers, so that
    no imaginary part is dropped and no text is parsed."""
    arr = np.asarray(v)
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be real, got {v!r}")
    return arr.astype(float, copy=False)


@dataclass(frozen=True)
class KernelPoint:
    """Kernel argument pairs: x nonzero, |y| < |x|; scalars or broadcasting arrays."""

    x: float
    y: float

    def __post_init__(self):
        ax = np.abs(self.x)     # |y| < |x| < inf leaves no NaN, y finite and x != 0
        ok = (np.abs(self.y) < ax) & (ax < np.inf)
        if np.count_nonzero(ok) == ok.size:
            return
        x, y = np.broadcast_arrays(self.x, self.y)
        checks = ((~(np.isfinite(x) & np.isfinite(y)), "non-finite kernel point ({}, {})"),
                  (x == 0, "require x != 0"),
                  (np.abs(y) >= np.abs(x), "require |y| < |x|, got x={}, y={}"))
        for bad, message in checks:
            if bad.any():
                raise DomainError(message.format(x[bad][0].item(), y[bad][0].item()))
