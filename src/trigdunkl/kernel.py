"""Intertwining kernel and its building blocks, all from one integral.

The main kernel is the density of the operator that intertwines the plain
derivative with the differential-difference operator: for |y| < |x|,

    K(x, y) = (c/4) A(x)^{-1} * integral over z in (|y|, |x|) of
              sigma(x, y, z) (cosh(z/2) - cosh(y/2))^{k1-1}
              (cosh x - cosh z)^{k2-1} sinh(z/2) dz.

An independent route assembles K from the kernel of the hyperbolic-cosine
(Jacobi) setting, its antiderivative Ktilde (three equal forms) and the
y-derivative of Ktilde; the two routes serve as mutual oracles.

With u = cosh(z/2) (u = cosh z for the cosine-setting pieces) each of these
is one call of ``_cosh_gap_integral``, the Jacobi-weighted integral

    J(alpha, beta; q) = integral over u in (b, a) = (cosh Y, cosh X) of
                        (2 (a^2 - u^2))^alpha (u - b)^beta q(u - b) du,

with q affine in v = u - b (cosh 2X - cosh 2Z = 2 (a^2 - u^2); written in
u, K's factor sigma is a difference of two numbers near 2 that cancel at
small |x| and near y = -x).  Euler's integral and Pfaff's transformation
(DLMF 15.6.1, 15.8.1) give it in closed form, with d = a - b =
2 sinh((X+Y)/2) sinh((X-Y)/2) and w = d / (2a) < 1/2:

    J' = J / (2^{3 alpha + beta + 1} B(beta+1, alpha+1))
       = (d/2)^{alpha+beta+1} a^alpha [q(0) F(-alpha, alpha+1; alpha+beta+2; w)
         + (q(d) - q(0)) (beta+1)/(alpha+beta+2) F(-alpha, alpha+1; alpha+beta+3; w)],

two Gauss series summed to rounding, with no quadrature rule.  In each
form's constant c 2^{3 alpha + beta + 1} B the Gamma(k1) Gamma(k2) of c
cancel, leaving D = 2^{4k1+6k2-4} Gamma(s+1/2) / (sqrt(pi) Gamma(s)),
s = k1 + k2, times a rational factor:

    K              = D sign x / A(x)      J'(k2-1, k1-1; 2 e^{(x-y)/2} sinh((x+y)/2) - 2 e^{-y/2} v)
                     at X = |x|/2, Y = |y|/2
    cosine kernel  = 4D |sinh 2x| / A(2x) J'(k2-1, k1-1; 1)
    Ktilde direct  = 16D / s              J'(k2,   k1-1; 1)
    Ktilde byparts = 16D / s              J'(k2-1, k1;   b + v)
    dKtilde/dy     = -8D sinh y           J'(k2-1, k1-1; b + v)

All forms share log D, and the power of d/2 enters as log sinh((X+Y)/2) +
log sinh((X-Y)/2), so tiny gaps stay representable.  Real and complex k
differ only in how log D is formed.  Every value carries an error bar: the
rounding of its exponent's log parts and of the series (the sum of its
terms' magnitudes), plus the series' last term, which bounds the dropped
tail.  ``kernel_K`` and the oracle forms take scalars or broadcasting
arrays; a non-finite value raises ``EvaluationError``.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .params import KernelPoint, Multiplicity
from .quadrature import _EPS, _TS_FULL_GAP, EvalResult, _outer_sums, _point_result
from .specfun import _loggamma_parts, gamma_real

# inner method of every kernel value, as ``operators`` and point results name it
METHOD = "euler-2f1"

_SQRT_PI = math.sqrt(math.pi)
_LOG2 = math.log(2.0)
_LOG_TAIL = math.log(1e-17)     # series terms below this share of the first are dropped
_C_MINUS_1 = np.array([[1.0], [2.0]])   # c - 1 - alpha - beta of the two series


@lru_cache(maxsize=256)
def _k12(k: Multiplicity):
    """(k1, k2) as floats on the real path, as complex numbers otherwise."""
    if k.real_positive:
        return complex(k.k1).real, complex(k.k2).real
    return complex(k.k1), complex(k.k2)


def _log_weight(k: Multiplicity, x):
    """log A(x), principal branch for complex parameters; -inf at x = 0."""
    k1, k2 = _k12(k)
    xa = np.abs(x)
    return 2.0 * k1 * np.log(2.0 * np.sinh(xa / 2.0)) + 2.0 * k2 * np.log(2.0 * np.sinh(xa))


def weight_A(k: Multiplicity, x):
    """Measure density |2 sinh(x/2)|^{2 k1} |2 sinh x|^{2 k2}; even in x.

    Accepts scalars or numpy arrays; vanishes at x = 0 since Re(k1+k2) > 0.
    """
    xarr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(xarr == 0.0, 0.0, np.exp(_log_weight(k, xarr)))
    return out.item() if np.ndim(x) == 0 else out


def constant_c(k: Multiplicity) -> float:
    """Normalizing constant 2^{3k1+3k2} Gamma(k1+k2+1/2) / (sqrt(pi) Gamma(k1) Gamma(k2)).

    Restricted to real positive parameters; the kernels use c B(k1, k2)
    instead, in which Gamma(k1) Gamma(k2) cancel.
    """
    if not k.real_positive:
        raise DomainError(f"constant_c needs real k1, k2 > 0, got ({k.k1}, {k.k2})")
    k1, k2 = _k12(k)
    return (
        2.0 ** (3.0 * (k1 + k2))
        * gamma_real(k1 + k2 + 0.5)
        / (_SQRT_PI * gamma_real(k1) * gamma_real(k2))
    )


@lru_cache(maxsize=256)     # every kernel call needs both, this one 12 us for complex k
def _log_constant(k: Multiplicity):
    """(log D, the magnitude its rounding scales with); D as in the module docstring.

    For complex k each log-Gamma is a difference of two parts about 25 in
    size near Re s = 0, so their magnitudes enter the rounding, not the
    result's.
    """
    k1, k2 = _k12(k)
    s = k1 + k2
    if k.real_positive:
        log_d = math.log(2.0 ** (4.0 * k1 + 6.0 * k2 - 4.0) * math.gamma(s + 0.5)
                         / (_SQRT_PI * math.gamma(s)))
        return log_d, abs(log_d)
    parts = (*_loggamma_parts(s + 0.5), *_loggamma_parts(s))
    log_pow2 = (4.0 * k1 + 6.0 * k2 - 4.0) * _LOG2
    log_d = log_pow2 + (parts[0] - parts[1]) - (parts[2] - parts[3]) - math.log(_SQRT_PI)
    return log_d, abs(log_pow2) + sum(abs(p) for p in parts) + math.log(_SQRT_PI)


def sigma(x, y, z):
    """Sign-corrected affine factor sign(x) {e^{x/2} 2cosh(x/2) - e^{-y/2} 2cosh(z/2)}.

    Strictly positive whenever |x| > z > |y|.  Scalar or array arguments.
    Evaluated as the kernel does, from e^x - e^{-y} and cosh(z/2) - cosh(y/2).
    """
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    v = 2.0 * np.sinh((z + y) / 4.0) * np.sinh((z - y) / 4.0)     # cosh(z/2) - cosh(y/2)
    val = 2.0 * np.sign(x) * (np.exp((x - y) / 2.0) * np.sinh((x + y) / 2.0)
                              - np.exp(-y / 2.0) * v)
    return val.item() if val.ndim == 0 else val


def _cosh_gap_integral(k: Multiplicity, xa, gap, alpha, beta, q=None, log_pref=()):
    """D exp(sum of log_pref) J'(alpha, beta; q) over (cosh(xa - gap), cosh xa), broadcasting.

    Returns (values, error bars).  ``q(f1, f2)`` gives the integrand
    factor's value at v = 0 and its rise over the gap d = 2 f1 f2, with f1 =
    sinh((xa + ya)/2), f2 = sinh(gap/2) passed separately so that callers
    can form the rise without overflow; it defaults to 1.  ``gap`` = xa -
    (lower end) is passed separately so callers that know it without
    cancellation keep it exact.
    """
    a = np.cosh(xa)
    half = gap / 2.0
    f1, f2 = np.sinh(xa - half), np.sinh(half)     # (xa + ya)/2, gap/2
    log_f = np.log(f1) + np.log(f2)
    log_d, size_d = _log_constant(k)
    log_scale = sum(log_pref, log_d + (alpha + beta + 1.0) * log_f)
    # each log part rounds where it is formed and where it is added; the
    # power alpha + beta + 1 is only as exact as its parts, and log f2 only
    # as exact as gap/2, which keeps few bits when subnormal (0 if fully lost)
    ulp = np.spacing(half)
    size_f = np.abs(log_f) + ulp / np.maximum(half, ulp) / (2.0 * _EPS)
    size = sum((np.abs(p) for p in log_pref),
               size_d + (abs(alpha) + abs(beta) + 1.0) * size_f)
    q0, rise = (1.0, 0.0) if q is None else q(f1, f2)
    w = f1 * f2 / a
    w_max = float(w.max(initial=0.0))
    n = 4 + (int(_LOG_TAIL / math.log(w_max)) if w_max > 0.0 else 0)
    # F(-alpha, alpha+1; c; w) for c = alpha+beta+2 and c+1: both rows of
    # coefficients 1..n-1 (the 0th is 1) and their magnitudes against one
    # matrix of powers of w
    i = np.arange(1.0, n)
    coef = np.cumprod(((i - 1.0) - alpha) * (i + alpha)
                      / (i * (i + (alpha + beta + _C_MINUS_1))), axis=1)
    # magnitudes times 2 eps bound the series' rounding; the last term, which
    # bounds the dropped tail, counts in full
    mag = np.abs(coef)
    mag[:, -1] *= 1.0 + 0.5 / _EPS
    powers = w.reshape(-1) ** i[:, None]
    sums = (1.0 + np.concatenate((coef, mag)) @ powers).reshape((4,) + w.shape)
    slope = rise * ((beta + 1.0) / (alpha + beta + 2.0))
    factor = np.exp(log_scale) * a ** alpha
    values = factor * (q0 * sums[0] + slope * sums[1])
    series = np.abs(q0) * sums[2].real + np.abs(slope) * sums[3].real
    # small factors first: values near the largest double keep finite bars
    bars = _EPS * (8.0 + 2.0 * size) * np.abs(values) + 2.0 * _EPS * series * np.abs(factor)
    return values, bars


def _points(x, y):
    """Admissible kernel points as float arrays of one (broadcast) shape."""
    KernelPoint(x, y)
    return np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def _ktilde_point(k, x, y, alpha, beta, pref, log_pref=(), times_u=False):
    """(values, bars) of pref D exp(sum log_pref) J'(alpha, beta; u if times_u else 1)."""
    q = (lambda f1, f2: (np.cosh(y), 2.0 * f1 * f2)) if times_u else None
    value, bar = _cosh_gap_integral(k, np.abs(x), np.abs(x) - np.abs(y), alpha, beta, q, log_pref)
    return pref * value, abs(pref) * bar


def _kernel_values(k: Multiplicity, x, y, *, gap=None):
    """Kernel values and their error bars, broadcasting over x and y.

    ``gap`` optionally supplies |x| - |y| computed without cancellation; it
    is what the endpoint power actually depends on, so integrators that know
    the gap exactly (double-exponential tails) must pass it.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    # one point goes in numpy scalars whatever its shape, so that it rounds
    # alike: numpy rounds complex products of scalars and of arrays differently
    shape = max(x.shape, y.shape, key=len) if gap is None and x.size == y.size == 1 else ()
    if shape:
        x, y = x.reshape(()), y.reshape(())
    xa = np.abs(x)
    if gap is None:
        gap = xa - np.abs(y)
    # sigma / |x| at u = cosh(y/2), and its rise over the gap d = 2 f1 f2,
    # formed as (2 f1 / |x|) f2 so that nothing overflows at tiny |x|; |x|
    # goes into the exponent, where the scale ~ |x|^{-2} would overflow
    e_fwd = 2.0 * np.exp((x - y) / 2.0) * np.sinh((x + y) / 2.0) / xa
    e_bwd = 2.0 * np.exp(-y / 2.0)
    k1, k2 = _k12(k)
    # one exponent: A(x) ~ |x|^{2(k1+k2)} near 0 and the radius power near
    # y = -/+ x stay inside double range only in combination
    values, bars = _cosh_gap_integral(
        k, xa / 2.0, np.asarray(gap, dtype=float) / 2.0, k2 - 1.0, k1 - 1.0,
        lambda f1, f2: (e_fwd, -(2.0 * f1 / xa) * f2 * e_bwd),
        (-_log_weight(k, x), np.log(xa)),
    )
    values = np.sign(x) * values
    return (values.reshape(shape), bars.reshape(shape)) if shape else (values, bars)


@np.errstate(all="ignore")   # a non-finite value raises instead
def kernel_K(k: Multiplicity, x, y) -> EvalResult:
    """Main kernel with error bars at admissible x, y: scalars or broadcasting arrays."""
    KernelPoint(x, y)
    return _point_result(*_kernel_values(k, x, y), METHOD)


def _limit_kernel(k: float, x: float, y: float, name: str) -> float:
    if isinstance(k, complex) or not math.isfinite(k) or k <= 0:
        raise DomainError(f"require real {name} > 0, got {k!r}")
    KernelPoint(x, y)
    xa, ya = abs(x), abs(y)
    cosh_gap = 2.0 * math.sinh((xa + ya) / 2.0) * math.sinh((xa - ya) / 2.0)
    return (
        2.0 ** (k - 1.0)
        * gamma_real(k + 0.5) / (_SQRT_PI * gamma_real(k))
        * abs(math.sinh(x)) ** (-2.0 * k)
        * cosh_gap ** (k - 1.0)
        * math.copysign(1.0, x)
        * (math.exp(x) - math.exp(-y))
    )


def kernel_K_limit_k1zero(k2: float, x: float, y: float) -> float:
    """Closed-form kernel in the vanishing-k1 limit (k2 > 0 real)."""
    return _limit_kernel(k2, x, y, "k2")


def kernel_K_limit_k2zero(k1: float, x: float, y: float) -> float:
    """Closed-form kernel in the vanishing-k2 limit (k1 > 0 real).

    It is the vanishing-k1 form at half arguments, halved.
    """
    return 0.5 * _limit_kernel(k1, x / 2.0, y / 2.0, "k1")


def _cosine_terms(k, x, gap, *, with_density=False):
    """(values, error bars) of the cosine-setting kernel at (x, |x| - gap).

    ``with_density`` multiplies by the measure density A(2x), which cancels
    the kernel's normalizing division where either alone would overflow.
    """
    k1, k2 = _k12(k)
    # |sinh 2x| goes into the exponent too: at the nested route's inner
    # end it is tiny while the radius power alone overflows
    log_pref = (np.log(np.abs(np.sinh(2.0 * x))),)
    if not with_density:
        log_pref += (-_log_weight(k, 2.0 * x),)
    values, bars = _cosh_gap_integral(k, np.abs(x), gap, k2 - 1.0, k1 - 1.0, None, log_pref)
    return 4.0 * values, 4.0 * bars


@np.errstate(all="ignore")   # a non-finite value raises instead
def jacobi_kernel(k: Multiplicity, x, y) -> EvalResult:
    """Kernel of the intertwining operator in the hyperbolic-cosine setting."""
    x, y = _points(x, y)
    return _point_result(*_cosine_terms(k, x, np.abs(x) - np.abs(y)), METHOD)


def _ktilde_defining(k, x, y):
    # nested route: integrate the cosine-setting kernel against its measure,
    # summing over point indices, by which a batch finds its |y| and half-widths
    ya = np.abs(y).ravel()
    half = 0.5 * (np.abs(x).ravel() - ya)

    def integrand(batch, t, glo, ghi):
        # inner endpoint w -> |y| carries the (w - |y|)^{k1+k2-1} singularity,
        # resolved down to gap 1e-280 (at small Re(k1+k2) a shallower cut
        # would drop a visible share)
        i = batch.astype(int)
        gaps = half[i, None] * glo
        vals, bars = _cosine_terms(k, ya[i, None] + gaps, gaps, with_density=True)
        return vals[None], bars[None], half[i]

    k1, k2 = _k12(k)
    values, est, rule = _outer_sums(np.arange(x.size).reshape(x.shape), np.ones(x.size), 0.0,
                                    integrand, (k1 + k2).real, _TS_FULL_GAP)
    return _point_result(values, est, f"nested {rule} x {METHOD}")


_KTILDE_FORMS = ("direct", "byparts", "defining")


@np.errstate(all="ignore")   # a non-finite value raises instead
def ktilde(k: Multiplicity, x, y, form: str = "direct") -> EvalResult:
    """Antiderivative-in-|x| of the cosine-setting kernel against its measure.

    Three algebraically equal routes: ``direct`` carries the full power of
    the outer cosh difference, ``byparts`` trades it for a full power of the
    inner one, ``defining`` integrates the kernel itself (nested quadrature).
    """
    x, y = _points(x, y)
    if form not in _KTILDE_FORMS:
        raise DomainError(f"form must be one of {_KTILDE_FORMS}, got {form!r}")
    if form == "defining":
        return _ktilde_defining(k, x, y)
    k1, k2 = _k12(k)
    alpha, beta = (k2, k1 - 1.0) if form == "direct" else (k2 - 1.0, k1)
    return _point_result(*_ktilde_point(k, x, y, alpha, beta, 16.0 / (k1 + k2),
                                        times_u=form == "byparts"), METHOD)


@np.errstate(all="ignore")   # a non-finite value raises instead
def dktilde_dy(k: Multiplicity, x, y) -> EvalResult:
    """Same-variable y-derivative of the antiderivative; odd in y, zero at y = 0."""
    x, y = _points(x, y)
    k1, k2 = _k12(k)
    return _point_result(*_ktilde_point(k, x, y, k2 - 1.0, k1 - 1.0, -8.0 * np.sinh(y),
                                        times_u=True), METHOD)


@np.errstate(all="ignore")   # a non-finite value raises instead
def kernel_K_mourou(k: Multiplicity, x, y) -> EvalResult:
    """Main kernel assembled from the cosine-setting pieces at half arguments.

    The assembly takes the y-derivative of y -> Ktilde(x/2, y/2); the
    half-angle substitution contributes a factor 1/2, so the same-variable
    derivative integral enters with coefficient 1/4.  This choice is the one
    that reproduces the direct kernel, and the equality is enforced on the
    verification grid.
    """
    x, y = _points(x, y)
    xh, yh = x / 2.0, y / 2.0
    k1, k2 = _k12(k)
    # 1/A(x) and |sinh(y/2)| enter the exponents, which stay in range at tiny |x|;
    # sign(y) zeroes the derivative term at y = 0, where sinh(x/2) stands in
    log_ainv = -_log_weight(k, x)
    log_sinh = np.log(np.abs(np.sinh(np.where(y == 0.0, xh, yh))))
    # 4 times: Jacobi kernel / 4, sign x (k1/4 + k2/2) Ktilde / A, -sign x dKtilde/dy / (4A)
    values, bars = zip(
        _cosine_terms(k, xh, np.abs(xh) - np.abs(yh)),
        _ktilde_point(k, xh, yh, k2, k1 - 1.0, np.sign(x) * (16.0 * k1 + 32.0 * k2) / (k1 + k2),
                      (log_ainv,)),
        _ktilde_point(k, xh, yh, k2 - 1.0, k1 - 1.0, 8.0 * np.sign(x) * np.sign(y),
                      (log_ainv, log_sinh), times_u=True))
    return _point_result(0.25 * sum(values), 0.25 * sum(bars), f"mourou[{METHOD}]")
