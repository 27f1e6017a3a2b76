"""Parameter and evaluation-point types."""

import cmath
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Multiplicity:
    """Deformation parameter pair (k1, k2) with Re k1 > 0 and Re k2 > 0.

    ``rho`` is the derived constant k1/2 + k2 appearing in the differential-
    difference operator.  ``real_positive`` flags the real parameter range,
    where the kernel's constant comes from ``math.gamma`` and the positivity
    statements hold; complex parameters take principal-branch powers.
    """

    k1: complex
    k2: complex

    def __post_init__(self):
        for name, v in (("k1", self.k1), ("k2", self.k2)):
            if not isinstance(v, (int, float, complex)) or not cmath.isfinite(v):
                raise DomainError(f"{name} must be a finite number, got {v!r}")
        if complex(self.k1).real <= 0 or complex(self.k2).real <= 0:
            raise DomainError(
                f"require Re k1 > 0 and Re k2 > 0, got k1={self.k1}, k2={self.k2}"
            )

    @property
    def rho(self):
        return self.k1 / 2 + self.k2

    @property
    def real_positive(self) -> bool:
        c1, c2 = complex(self.k1), complex(self.k2)
        return c1.imag == 0.0 and c2.imag == 0.0 and c1.real > 0 and c2.real > 0


@dataclass(frozen=True)
class KernelPoint:
    """Kernel argument pair: x nonzero, |y| strictly inside (-|x|, |x|)."""

    x: float
    y: float

    def __post_init__(self):
        if not (cmath.isfinite(self.x) and cmath.isfinite(self.y)):
            raise DomainError(f"non-finite kernel point ({self.x}, {self.y})")
        if self.x == 0:
            raise DomainError("require x != 0")
        if abs(self.y) >= abs(self.x):
            raise DomainError(f"require |y| < |x|, got x={self.x}, y={self.y}")
