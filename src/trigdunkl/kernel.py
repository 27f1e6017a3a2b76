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

times its own constant (cosh 2X - cosh 2Z = 2 (a^2 - u^2)).  q is a function of
v = u - b: written in u, K's factor sigma is a difference of two numbers near 2
that cancel at small |x| and near y = -x.

    K              = (c/2) sign x / A(x)  J(k2-1, k1-1; 2 e^{(x-y)/2} sinh((x+y)/2) - 2 e^{-y/2} v)
                     at X = |x|/2, Y = |y|/2
    cosine kernel  = 2c |sinh 2x| / A(2x) J(k2-1, k1-1; 1)
    Ktilde direct  = (c/k2)               J(k2,   k1-1; 1)
    Ktilde byparts = (4c/k1)              J(k2-1, k1;   b + v)
    dKtilde/dy     = -4c sinh y           J(k2-1, k1-1; b + v)

On v = rad (1 + t), rad = (a - b)/2, the endpoint powers become the weight
(1-t)^alpha (1+t)^beta, which the rule absorbs (Gauss-Jacobi for real k,
tanh-sinh weights times the weight at exact endpoint distances for complex
k).  The radius enters as log sinh((X+Y)/2) + log sinh((X-Y)/2), so tiny
gaps stay representable.  Point and batched values are one sum over one rule;
a point evaluation also sums against the rule's coarser companion from
``quadrature`` (n/2 beside n Gauss-Jacobi nodes, or the tanh-sinh level
below).  Rule sizes come from ``NUMERICS`` alone.  A point result's error bar
never falls below the rounding of its value, exponent included, and a
non-finite value raises ``EvaluationError`` instead of being returned.
"""

import cmath
import math

import numpy as np

from .config import NUMERICS
from .errors import DomainError, EvaluationError
from .params import KernelPoint, Multiplicity
from .quadrature import (EvalResult, _as_scalar, _gauss_jacobi_arrays, _gauss_jacobi_pair,
                         _tanh_sinh_full)
from .specfun import gamma_real, loggamma_right_half

_SQRT_PI = math.sqrt(math.pi)
_LOG2 = math.log(2.0)
_EPS = np.finfo(float).eps


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

    Restricted to real positive parameters; the kernels use its logarithm,
    which ``_log_c`` also gives for complex parameters.
    """
    if not k.real_positive:
        raise DomainError(f"constant_c needs real k1, k2 > 0, got ({k.k1}, {k.k2})")
    k1, k2 = _k12(k)
    return (
        2.0 ** (3.0 * (k1 + k2))
        * gamma_real(k1 + k2 + 0.5)
        / (_SQRT_PI * gamma_real(k1) * gamma_real(k2))
    )


def _log_c(k: Multiplicity):
    if k.real_positive:
        return math.log(constant_c(k))
    k1, k2 = _k12(k)
    return (
        3.0 * (k1 + k2) * _LOG2
        + loggamma_right_half(k1 + k2 + 0.5)
        - 0.5 * math.log(math.pi)
        - loggamma_right_half(k1)
        - loggamma_right_half(k2)
    )


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


def rule_label(k: Multiplicity, refined=False) -> str:
    """Name of the rule ``_cosh_gap_integral`` uses, with its companion if ``refined``."""
    if not k.real_positive:
        lv = NUMERICS.tanh_sinh_level
        return f"tanh-sinh(level={lv - 1}->{lv})" if refined else f"tanh-sinh(level={lv})"
    n = NUMERICS.jacobi_nodes
    return f"gauss-jacobi(n={n // 2}->{n})" if refined else f"gauss-jacobi(n={n})"


def _rule(k: Multiplicity, alpha, beta, refine: bool):
    """Node distances 1 + t from -1 and weights absorbing (1-t)^alpha (1+t)^beta.

    With ``refine`` a second vector over the same nodes is the coarser
    companion's (n/2 Gauss-Jacobi nodes, or the tanh-sinh level below);
    otherwise it is None.
    """
    if k.real_positive:
        n = NUMERICS.jacobi_nodes
        t, w, wc = (_gauss_jacobi_pair(n // 2, alpha, beta) if refine
                    else (*_gauss_jacobi_arrays(n, alpha, beta), None))
        return 1.0 + t, w, wc
    _, w, glo, ghi, wc = _tanh_sinh_full(NUMERICS.tanh_sinh_level)
    power = np.exp(alpha * np.log(ghi) + beta * np.log(glo))
    return glo, w * power, (wc * power if refine else None)


def _cosh_gap_integral(k: Multiplicity, xa, gap, alpha, beta, q=None, log_pref=(), *, refine=False):
    """exp(sum of log_pref) J(alpha, beta; q) over (cosh(xa - gap), cosh xa), broadcasting.

    Returns (scale, size, fine, coarse) with the product = scale * fine,
    the logarithms of J's constant and of the caller's factors ``log_pref``
    summed into one exponent; ``size`` is the summed magnitude of its parts,
    as ``_point_result`` takes it.  ``q`` maps the offset v = u - cosh(xa -
    gap) >= 0 (with a trailing node axis) to the integrand's factor and
    defaults to 1.  ``coarse`` is the companion rule's sum under ``refine``
    and None otherwise.  ``gap`` = xa - (lower end) is passed separately so
    callers that know it without cancellation keep it exact.
    """
    ya = xa - gap
    a, b = np.cosh(xa), np.cosh(ya)
    f1, f2 = np.sinh((xa + ya) / 2.0), np.sinh(gap / 2.0)
    log_f = np.log(f1) + np.log(f2)
    log_scale = sum(log_pref, alpha * _LOG2 + (alpha + beta + 1.0) * log_f)
    # the power alpha + beta + 1 is only as exact as its parts
    size = sum((np.abs(p) for p in log_pref),
               abs(alpha * _LOG2) + (abs(alpha) + abs(beta) + 1.0) * np.abs(log_f))
    s, w, wc = _rule(k, alpha, beta, refine)
    v = (f1 * f2)[..., None] * s     # u - b = rad (1 + t), no cancellation
    # exp(alpha log) rather than a complex power, which is much slower;
    # in-place products keep the (points, nodes) temporaries few
    if k.real_positive:
        smooth = ((a + b)[..., None] + v) ** alpha
    else:
        smooth = np.exp(alpha * np.log((a + b)[..., None] + v))
    if q is not None:
        smooth *= q(v)
    return np.exp(log_scale), size, smooth @ w, (smooth @ wc if refine else None)


def _point_result(k, scale, size, fine, coarse, method=None) -> EvalResult:
    """scale * fine, with an error bar floored at its rounding; raises if not finite.

    The floor is 8 eps for the sum plus 2 eps per unit of ``size``: each log
    part of the exponent rounds where it is formed and where it is added.
    """
    value = _as_scalar(scale * fine)
    est = float(abs(scale * (fine - coarse)) + _EPS * (8.0 + 2.0 * size) * abs(value))
    method = method or rule_label(k, refined=True)
    if not (cmath.isfinite(value) and math.isfinite(est)):
        raise EvaluationError(f"{method} gave the non-finite value {value!r}")
    return EvalResult(value, est, method)


def _ktilde_point(k, x, y, alpha, beta, q, pref) -> EvalResult:
    """pref * c * J(alpha, beta; q) over (cosh y, cosh x), with its error bar."""
    scale, size, fine, coarse = _cosh_gap_integral(
        k, abs(x), abs(x) - abs(y), alpha, beta, q, (_log_c(k),), refine=True,
    )
    return _point_result(k, pref * scale, size, fine, coarse)


def _kernel_terms(k, x, y, gap, refine):
    """(scale, size, fine, coarse) of K: the kernel is scale * fine."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xa = np.abs(x)
    if gap is None:
        gap = xa - np.abs(y)
    # sigma / |x| at u = cosh(y/2), (e^x - e^{-y}) / |x|, and its slope in v:
    # |x| goes into the exponent, where the scale ~ |x|^{-2} would overflow
    e_fwd = (2.0 * np.exp((x - y) / 2.0) * np.sinh((x + y) / 2.0) / xa)[..., None]
    d_bwd = (2.0 * np.exp(-y / 2.0) / xa)[..., None]
    k1, k2 = _k12(k)
    # one exponent: A(x) ~ |x|^{2(k1+k2)} near 0 and the radius power near
    # y = -/+ x stay inside double range only in combination
    scale, size, fine, coarse = _cosh_gap_integral(
        k, xa / 2.0, np.asarray(gap, dtype=float) / 2.0, k2 - 1.0, k1 - 1.0,
        lambda v: e_fwd - d_bwd * v, (_log_c(k), -_log_weight(k, x), np.log(xa)), refine=refine,
    )
    return 0.5 * np.sign(x) * scale, size, fine, coarse


def _kernel_values(k: Multiplicity, x, y, *, gap=None):
    """Kernel values, broadcasting over x and y.

    ``gap`` optionally supplies |x| - |y| computed without cancellation; it
    is what the endpoint power actually depends on, so integrators that know
    the gap exactly (double-exponential tails) must pass it.
    """
    scale, _, fine, _ = _kernel_terms(k, x, y, gap, False)
    return scale * fine


def kernel_K(k: Multiplicity, x: float, y: float) -> EvalResult:
    """Main kernel at one admissible point: the ``_kernel_values`` sum, with its error bar."""
    KernelPoint(x, y)
    return _point_result(k, *_kernel_terms(k, x, y, None, True))


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


def _cosine_terms(k, x, gap, refine, *, with_density=False):
    """(scale, size, fine, coarse) of the cosine-setting kernel at (x, |x| - gap).

    ``with_density`` multiplies by the measure density A(2x), which cancels
    the kernel's normalizing division where either alone would overflow.
    """
    k1, k2 = _k12(k)
    # |sinh 2x| goes into the exponent too: at the nested route's inner
    # end it is tiny while the radius power alone overflows
    log_pref = (_log_c(k), np.log(np.abs(np.sinh(2.0 * x))))
    if not with_density:
        log_pref += (-_log_weight(k, 2.0 * x),)
    scale, size, fine, coarse = _cosh_gap_integral(
        k, np.abs(x), gap, k2 - 1.0, k1 - 1.0, None, log_pref, refine=refine,
    )
    return 2.0 * scale, size, fine, coarse


def jacobi_kernel(k: Multiplicity, x: float, y: float) -> EvalResult:
    """Kernel of the intertwining operator in the hyperbolic-cosine setting."""
    KernelPoint(x, y)
    return _point_result(k, *_cosine_terms(k, x, abs(x) - abs(y), True))


def _ktilde_defining(k, x, y):
    # nested route: integrate the cosine-setting kernel against its measure
    lv = NUMERICS.nested_level
    xa, ya = abs(x), abs(y)
    t, w, glo, ghi, wc = _tanh_sinh_full(lv)
    half = 0.5 * (xa - ya)
    # inner endpoint w -> |y| carries the (w - |y|)^{k1+k2-1} singularity
    scale, size, fine, _ = _cosine_terms(k, ya + half * glo, half * glo, False, with_density=True)
    vals = scale * fine
    # each inner value brings its own exponent's rounding into the sum
    size = (np.abs(vals) * size) @ w / abs(vals @ w)
    return _point_result(k, half, size, vals @ w, vals @ wc,
                         f"nested tanh-sinh(level={lv}) x {rule_label(k)}")


_KTILDE_FORMS = ("direct", "byparts", "defining")


def ktilde(k: Multiplicity, x: float, y: float, form: str = "direct") -> EvalResult:
    """Antiderivative-in-|x| of the cosine-setting kernel against its measure.

    Three algebraically equal routes: ``direct`` carries the full power of
    the outer cosh difference, ``byparts`` trades it for a full power of the
    inner one, ``defining`` integrates the kernel itself (nested quadrature).
    """
    KernelPoint(x, y)
    if form not in _KTILDE_FORMS:
        raise DomainError(f"form must be one of {_KTILDE_FORMS}, got {form!r}")
    if form == "defining":
        return _ktilde_defining(k, x, y)
    k1, k2 = _k12(k)
    if form == "direct":
        return _ktilde_point(k, x, y, k2, k1 - 1.0, None, 1.0 / k2)
    return _ktilde_point(k, x, y, k2 - 1.0, k1, lambda v: math.cosh(y) + v, 4.0 / k1)


def dktilde_dy(k: Multiplicity, x: float, y: float) -> EvalResult:
    """Same-variable y-derivative of the antiderivative; odd in y, zero at y = 0."""
    KernelPoint(x, y)
    k1, k2 = _k12(k)
    return _ktilde_point(k, x, y, k2 - 1.0, k1 - 1.0, lambda v: math.cosh(y) + v,
                         -4.0 * math.sinh(y))


def kernel_K_mourou(k: Multiplicity, x: float, y: float) -> EvalResult:
    """Main kernel assembled from the cosine-setting pieces at half arguments.

    The assembly takes the y-derivative of y -> Ktilde(x/2, y/2); the
    half-angle substitution contributes a factor 1/2, so the same-variable
    derivative integral enters with coefficient 1/4.  This choice is the one
    that reproduces the direct kernel, and the equality is enforced on the
    verification grid.
    """
    KernelPoint(x, y)
    xh, yh = x / 2.0, y / 2.0
    kj = jacobi_kernel(k, xh, yh)
    kt = ktilde(k, xh, yh, "direct")
    dk = dktilde_dy(k, xh, yh)
    sgn = math.copysign(1.0, x)
    ainv = 1.0 / weight_A(k, x)
    coef_t = sgn * (k.k1 / 4.0 + k.k2 / 2.0) * ainv
    coef_d = -sgn * 0.25 * ainv
    value = 0.25 * kj.value + coef_t * kt.value + coef_d * dk.value
    est = 0.25 * kj.est_error + abs(coef_t) * kt.est_error + abs(coef_d) * dk.est_error
    return EvalResult(_as_scalar(value), float(est), f"mourou[{kj.method}]")
