"""Gamma, Gauss hypergeometric, Jacobi, and Opdam special functions.

All evaluators are pure functions of their arguments and safe to call
concurrently.  The hypergeometric evaluator accepts complex upper and lower
parameters but only a real argument Z < 1, which is all the hyperbolic
substitution Z = -sinh^2(x/2) ever produces.
"""

import cmath
import math

from .config import NUMERICS
from .errors import DomainError, NonConvergenceError
from .params import Multiplicity

# Stirling series coefficients B_{2j} / (2j (2j-1)).
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_LOG_SQRT_2PI = 0.9189385332046727418


def gamma_real(x: float) -> float:
    """Gamma(x) for real x > 0, from ``math.gamma``."""
    if isinstance(x, complex) or not math.isfinite(x):
        raise DomainError(f"gamma_real needs a finite real argument, got {x!r}")
    if x <= 0:
        raise DomainError(f"gamma_real is restricted to x > 0, got {x}")
    return math.gamma(x)


def loggamma_right_half(w) -> complex:
    """Principal log-Gamma for Re w > 0: shifted Stirling series, no reflection."""
    stirling, shift = _loggamma_parts(w)
    return stirling - shift


def _loggamma_parts(w):
    """``loggamma_right_half(w)`` as (Stirling value at w + m, sum of log(w + j), j < m)."""
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)) or w.real <= 0:
        raise DomainError(f"loggamma_right_half needs Re w > 0, got {w!r}")
    shift = 0j
    while w.real < 12.0:
        shift += cmath.log(w)
        w += 1.0
    res = (w - 0.5) * cmath.log(w) - w + _LOG_SQRT_2PI
    w2 = w * w
    p = w
    for coeff in _STIRLING:
        res += coeff / p
        p *= w2
    return res, shift


def _is_nonpositive_integer(v) -> bool:
    v = complex(v)
    return v.imag == 0.0 and v.real <= 0.0 and v.real == int(v.real)


def _series_2f1(a, b, c, w, z):
    """Power series sum_n (a)_n (b)_n / ((c)_n n!) w^n for |w| < 1; errors name hyp2f1's z."""
    max_terms = NUMERICS.series_max_terms
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small_streak = 0
    for n in range(max_terms):
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1)) * w
        term *= ratio
        total += term
        if abs(term) <= 1e-17 * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    at = f"z={z}" if w == z else f"z={z}, Pfaff-mapped to w={w}"
    # the term ratios tend to w, so with r the larger of |w| and the last
    # ratio the dropped tail is at most |term| r / (1 - r)
    r = max(abs(ratio), abs(w))
    raise NonConvergenceError(
        f"2F1 series did not converge within {max_terms} terms ({at})",
        partial=total,
        est_error=abs(term) * r / (1.0 - r) if r < 1.0 else math.inf,
    )


def hyp2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; z) for complex a, b, c and real z < 1.

    Uses the power series directly for -1/2 < z < 1 and the Pfaff
    transformation onto w = z/(z-1) in [1/3, 1) for z <= -1/2, so every
    z < 1 takes one convergent series.  Raises NonConvergenceError (carrying
    the partial sum) if ``NUMERICS.series_max_terms`` terms do not converge,
    as from about z = 0.998 on (2F1(1, 1; 2; 0.999)); no caller in the
    package passes z > 0.
    """
    if isinstance(z, complex):
        if z.imag != 0.0:
            raise DomainError(f"hyp2f1 argument must be real, got {z!r}")
        z = z.real
    if not math.isfinite(z) or z >= 1.0:
        raise DomainError(f"hyp2f1 requires real z < 1, got {z}")
    for name, v in (("a", a), ("b", b), ("c", c)):
        cv = complex(v)
        if not (math.isfinite(cv.real) and math.isfinite(cv.imag)):
            raise DomainError(f"hyp2f1 parameter {name} must be finite, got {v!r}")
    if _is_nonpositive_integer(c):
        raise DomainError(f"hyp2f1 lower parameter c={c} is a non-positive integer")
    if z == 0.0:
        return 1.0 + 0.0j
    if z > -0.5:
        return _series_2f1(complex(a), complex(b), complex(c), z, z)
    # Pfaff map: 1 - z > 1 here, so the prefactor power is principal and real
    # based.
    w = z / (z - 1.0)
    pre = cmath.exp(-complex(a) * math.log1p(-z))
    try:
        return pre * _series_2f1(complex(a), complex(c) - complex(b), complex(c), w, z)
    except NonConvergenceError as err:   # a partial value of the caller's function
        raise NonConvergenceError(str(err), pre * err.partial, abs(pre) * err.est_error) from None


def _minus_sinh_sq(t: float) -> float:
    """-sinh(t)^2, the blocks' argument; DomainError where it overflows (|t| >~ 355)."""
    try:
        return -math.sinh(t) ** 2
    except OverflowError:
        raise DomainError(f"-sinh({t!r})^2 is not a finite double") from None


def jacobi_phi(alpha: float, beta: float, lam, t: float) -> complex:
    """Even hypergeometric eigenfunction of the hyperbolic Jacobi operator.

    phi_lam^{alpha,beta}(t) = 2F1((r + i lam)/2, (r - i lam)/2; alpha + 1;
    -sinh^2 t) with r = alpha + beta + 1.  Invariant under lam -> -lam.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError(f"non-finite spectral parameter {lam!r}")
    r = complex(alpha) + complex(beta) + 1.0
    zz = _minus_sinh_sq(t)
    return hyp2f1((r + 1j * lam) / 2, (r - 1j * lam) / 2, complex(alpha) + 1.0, zz)


def opdam_G(k: Multiplicity, lam, x: float) -> complex:
    """Eigenfunction G_{i lam} deforming the exponential e^{i lam x}.

    Built from the two hypergeometric blocks
        F1 = 2F1(rho + i lam, rho - i lam; k1 + k2 + 1/2; -sinh^2(x/2))
        F2 = 2F1(rho + 1 + i lam, rho + 1 - i lam; k1 + k2 + 3/2; -sinh^2(x/2))
    with rho = k1/2 + k2, as
        G = F1 + (rho + i lam) / (2 k1 + 2 k2 + 1) * sinh(x) * F2.
    Normalized so G(0) = 1 for every admissible parameter pair.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError(f"non-finite spectral parameter {lam!r}")
    k1, k2 = complex(k.k1), complex(k.k2)
    s = k1 + k2
    rho = k.rho
    zz = _minus_sinh_sq(x / 2.0)
    f1 = hyp2f1(rho + 1j * lam, rho - 1j * lam, s + 0.5, zz)
    f2 = hyp2f1(rho + 1.0 + 1j * lam, rho + 1.0 - 1j * lam, s + 1.5, zz)
    return f1 + (rho + 1j * lam) / (2.0 * s + 1.0) * math.sinh(x) * f2
