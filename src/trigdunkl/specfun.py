"""Gamma, Gauss hypergeometric, Jacobi, and Opdam special functions.

All evaluators are pure functions of their arguments and safe to call
concurrently.  The hypergeometric evaluator accepts complex upper and lower
parameters but only a real argument Z < 1, which is all the hyperbolic
substitution Z = -sinh^2(x/2) ever produces.  ``hyp2f1``, ``jacobi_phi``
and ``opdam_G`` take one series path (``_gauss_2f1``): one loop over the
terms, one Pfaff map, one error bar and one NonConvergenceError.
"""

import cmath
import math
import sys

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
_EPS = sys.float_info.epsilon


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


def hyp2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; z) for complex a, b, c and real z < 1.

    One series (``_gauss_2f1``): in z for -1/2 < z < 1, and after Pfaff's
    transformation in w = z/(z-1) in [1/3, 1) for z <= -1/2.  a and b go
    there sorted by (real, imag) part, so the Pfaff branch's exponent -a,
    and with it the value, does not depend on their order.  Raises
    NonConvergenceError (carrying the partial value and a bar for its
    rounding and the dropped tail) if ``NUMERICS.series_max_terms`` terms do
    not converge, as from about z = 0.998 on (2F1(1, 1; 2; 0.999)); no
    caller in the package passes z > 0.
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
    a, b = sorted((complex(a), complex(b)), key=lambda v: (v.real, v.imag))
    return _gauss_2f1(a, b, complex(c), z)[0]


def _minus_sinh_sq(t: float) -> float:
    """-sinh(t)^2, the blocks' argument; DomainError where it is not finite (|t| >~ 355)."""
    try:
        z = -math.sinh(t) ** 2
    except OverflowError:
        z = math.inf
    if not math.isfinite(z):
        raise DomainError(f"-sinh({t!r})^2 is not a finite double")
    return z


def jacobi_phi(alpha: float, beta: float, lam, t: float) -> complex:
    """Even hypergeometric eigenfunction of the hyperbolic Jacobi operator.

    phi_lam^{alpha,beta}(t) = 2F1((r + i lam)/2, (r - i lam)/2; alpha + 1;
    -sinh^2 t) with r = alpha + beta + 1.  Invariant under lam -> -lam,
    exactly: that swaps the upper parameters, which ``hyp2f1`` sorts.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError(f"non-finite spectral parameter {lam!r}")
    r = complex(alpha) + complex(beta) + 1.0
    zz = _minus_sinh_sq(t)
    return hyp2f1((r + 1j * lam) / 2, (r - 1j * lam) / 2, complex(alpha) + 1.0, zz)


# Rounding per step of ``_block_sums``, first order in u = eps/2, for
# parameters with positive real parts (in G: real lam, Re k > 0).  Forming
# the ratio and the term: 14.5 u.  That is 1 u for each shifted parameter
# (a + m, c + m, and b + m or b + n), 5 u for the quotient by c + m
# (CPython's scaled division, measured at most 2.8 u), and three products
# and w / m: in the direct form a complex product in g (sqrt(5) u), w / m
# and g q (1 u each); in the Pfaff form (b + n) w / m (2 u) and g q
# (sqrt(5) u); then the product into the term (sqrt(5) u).
# The inputs: a, b (or c - b) and c are each off by a few roundings, and
# with positive real parts |p + n| >= |p|, so each adds at most 3 u per
# factor (9 u); w, from -sinh^2(x/2) and Pfaff-mapped or not, is off by at
# most 5.5 u, and w^n carries that n times.  That is 29 u per step, so term
# n is off by at most 15 eps n |t_n|; each partial sum rounds by at most u
# of its magnitude.
_STEP_ROUNDING = 15.0
# The blocks' weight, a / (2 k1 + 2 k2 + 1) sinh(x) or a / c tanh(x/2), is
# off by at most 12 u (2 u each for a and the divisor, 5 u for the quotient,
# 3 u for sinh or tanh and the product); with its product by the second sum
# and the addition that is at most 16 u of |s1| + |weight s2|.
_COMBINE_ROUNDING = 8.0


def _block_sums(a, b, c, w, pfaff):
    """The two Gauss series of ``_gauss_2f1`` from one loop over their terms.

    Direct (``pfaff`` false): F(a, b; c; w) and F(a + 1, b + 1; c + 1; w),
    whose term ratios at step n are g_n w/(n+1) and g_{n+1} w/(n+1) with
    g_n = (a + n)(b + n)/(c + n).  Pfaff: F(a, b; c; w) and F(a + 1, b;
    c + 1; w), with ratios g_n (b + n) w/(n+1) and g_{n+1} (b + n) w/(n+1)
    and g_n = (a + n)/(c + n).  Each step forms one new quotient g_{n+1}
    and divides by nothing but c + n + 1 and n + 1.  The loop stops once
    both terms have stayed below 1e-17 of their sums for three steps, or at
    ``NUMERICS.series_max_terms`` steps.

    Returns (s1, s2, e1, e2, converged): e_i bounds the rounding of s_i
    (``_STEP_ROUNDING`` per step for each term, u per partial sum and
    ``_COMBINE_ROUNDING`` eps of the summed term magnitudes for the caller's
    combination) plus the dropped tail |t| r/(1 - r), with r the larger of
    |w| and the last term ratio (inf if r >= 1).
    """
    g = a / c if pfaff else a * b / c
    s1 = s2 = t1 = t2 = 1.0 + 0.0j
    # summed |t_i|, and the sum of those running sums, sum_i (N + 1 - i) |t_i|
    m1 = m2 = c1 = c2 = 1.0
    streak = 0
    for n in range(NUMERICS.series_max_terms):
        m = n + 1
        if pfaff:
            gn = (a + m) / (c + m)
            q = (b + n) * w / m
        else:
            gn = (a + m) * (b + m) / (c + m)
            q = w / m
        r1 = g * q
        r2 = gn * q
        t1 *= r1
        t2 *= r2
        s1 += t1
        s2 += t2
        a1 = abs(t1)
        a2 = abs(t2)
        m1 += a1
        m2 += a2
        c1 += m1
        c2 += m2
        if a1 <= 1e-17 * abs(s1) and a2 <= 1e-17 * abs(s2):
            streak += 1
            if streak >= 3:
                break
        else:
            streak = 0
        g = gn
    bars = []
    for mags, cum, last, ratio in ((m1, c1, a1, r1), (m2, c2, a2, r2)):
        r = max(abs(w), abs(ratio))
        tail = last * r / (1.0 - r) if r < 1.0 else math.inf
        # sum_i i |t_i| = (N + 1) mags - cum for terms t_0 .. t_N
        weighted = (m + 1) * mags - cum
        bars.append(_EPS * (_STEP_ROUNDING * weighted + 0.5 * cum + _COMBINE_ROUNDING * mags)
                    + tail)
    return s1, s2, bars[0], bars[1], streak >= 3


def _gauss_2f1(a, b, c, z, weight=None):
    """2F1(a, b; c; z), or two blocks of it, for real z < 1 as (value, est_error).

    The one series path of ``hyp2f1``, ``jacobi_phi`` and ``opdam_G``.  For
    -1/2 < z < 1 the series in z; for z <= -1/2 Pfaff's transformation (DLMF
    15.8.1) onto w = z/(z - 1) in [1/3, 1), 2F1(a, b; c; z) = (1 - z)^{-a}
    2F1(a, c - b; c; w), so every z < 1 takes one convergent series.
    ``_block_sums`` gives that block and the second one, 2F1(a + 1, b + 1;
    c + 1; z) or 2F1(a + 1, c - b; c + 1; w).  ``weight``, a function of the
    branch (true for Pfaff), gives the second block's weight there; the value
    is pre (F1 + weight F2), with pre = 1 or (1 - z)^{-a}.  Without
    ``weight`` the second block is not used.

    The bar is ``_block_sums``' bars combined with those weights, times
    |pre|, plus the prefactor's rounding times |value|: the exponent
    a log(1 - z) is off by at most u (5 |a| + 4 |a| log(1 - z)), through the
    rounding of z (5 u), of a (2 u), of the log and of the product; the
    exponential and the final product add 4 u.  Raises NonConvergenceError,
    naming z and the Pfaff-mapped w and carrying the partial value and its
    bar, where ``NUMERICS.series_max_terms`` steps do not converge.
    """
    pfaff = z <= -0.5
    if pfaff:   # 1 - z > 1, so the prefactor power is principal and real based
        w, b = z / (z - 1.0), c - b
        log_1mz = math.log1p(-z)
        pre = cmath.exp(-a * log_1mz)
        pre_rounding = _EPS * (abs(a) * (2.5 + 2.0 * log_1mz) + 2.0)
    else:
        w, pre, pre_rounding = z, 1.0, 0.0
    f1, f2, e1, e2, converged = _block_sums(a, b, c, w, pfaff)
    if weight is not None:
        wt = weight(pfaff)
        f1, e1 = f1 + wt * f2, e1 + abs(wt) * e2
    value = pre * f1
    bar = abs(pre) * e1 + pre_rounding * abs(value)
    if not converged:
        at = f"z={z}, Pfaff-mapped to w={w}" if pfaff else f"z={z}"
        raise NonConvergenceError(
            f"2F1 series did not converge within {NUMERICS.series_max_terms} terms ({at})",
            partial=value, est_error=bar)
    return value, bar


def opdam_G(k: Multiplicity, lam, x: float) -> complex:
    """Eigenfunction G_{i lam} deforming the exponential e^{i lam x}.

    Built from the two hypergeometric blocks
        F1 = 2F1(a, b; c; z),  F2 = 2F1(a + 1, b + 1; c + 1; z)
    with rho = k1/2 + k2, a = rho + i lam, b = rho - i lam, c = k1 + k2 + 1/2
    and z = -sinh^2(x/2), as
        G = F1 + a / (2 k1 + 2 k2 + 1) * sinh(x) * F2.
    Normalized so G(0) = 1 for every admissible parameter pair.

    Both blocks come from ``hyp2f1``'s series path (``_gauss_2f1``), in one
    loop; for z <= -1/2 Pfaff's transformation onto w = z/(z - 1) gives
    G = (1 - z)^{-a} (H + (a/c) tanh(x/2) P) with H = 2F1(a, c - b; c; w)
    and P = 2F1(a + 1, c - b; c + 1; w).  F2 is not taken from the
    derivative identity F2 = c/(ab) dF1/dz (DLMF 15.5.1), which divides by
    b = rho - i lam, and b vanishes at lam = -i rho; the loop divides by
    nothing that can vanish for Re k > 0.  Raises NonConvergenceError
    carrying G's partial value and its bar where the series do not converge
    (from about |x| = 8, where w is near 1); ``_opdam_G`` also returns the
    bar.
    """
    return _opdam_G(k, lam, x)[0]


def _opdam_G(k: Multiplicity, lam, x: float):
    """(G_{i lam}(x), est_error) as in ``opdam_G``."""
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError(f"non-finite spectral parameter {lam!r}")
    s = complex(k.k1) + complex(k.k2)
    a, b, c = k.rho + 1j * lam, k.rho - 1j * lam, s + 0.5

    def weight(pfaff):
        # a / c tanh(x/2) equals a / (2s + 1) sinh(x) / (1 - z) but rounds
        # differently; and sinh(x) is formed only where z > -1/2, since it
        # overflows from |x| = 711 on
        return a / c * math.tanh(x / 2.0) if pfaff else a / (2.0 * s + 1.0) * math.sinh(x)

    return _gauss_2f1(a, b, c, _minus_sinh_sq(x / 2.0), weight)
