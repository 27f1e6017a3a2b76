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
s = k1 + k2, times a factor.  Each row is a form of ``_cosh_gap_integral``,
which returns the row's final values and error bars: the factor's leading
sign or number (sign x, 4, 16/s, -8 sign y) is its ``pref``, and the rest
enters the exponent.  A form is named by its integer exponent shift
(da, db), alpha = k2 + da and beta = k1 + db: (-1, -1) for K, the cosine
kernel and dKtilde/dy, (0, -1) for Ktilde direct, (-1, 0) for by parts:

    K              = D sign x / A(x)      J'(k2-1, k1-1; 2 e^{(x-y)/2} sinh((x+y)/2) - 2 e^{-y/2} v)
                     at X = |x|/2, Y = |y|/2
    cosine kernel  = 4D |sinh 2x| / A(2x) J'(k2-1, k1-1; 1)
    Ktilde direct  = 16D / s              J'(k2,   k1-1; 1)
    Ktilde byparts = 16D / s              J'(k2-1, k1;   b + v)
    dKtilde/dy     = -8D sinh y           J'(k2-1, k1-1; b + v)

All forms share log D, and the power of d/2 enters as log sinh((X+Y)/2) +
log sinh((X-Y)/2), so tiny gaps stay representable.  The series parameters
come from k exactly: each factor of a coefficient and the slope's
(beta + 1)/c is an integer plus k1, k2 or s, so no k2 - 1 formed first
drops k2's low bits at small k (only the power alpha + beta + 1 and
a^alpha, whose rounding is absolute in the exponent, take alpha).  Every
value carries an error bar: the rounding of its exponent's log parts and of
the series (the sum of its terms' magnitudes, each scaled by 1 + (j - 1)/2
for the roundings of w^j), plus the series' last term, which bounds the
dropped tail, and exp's absolute rounding where the exponent underflows
before a^alpha multiplies it.

Each row is defined once: K's in ``_kernel_grid``, the others in
``_cosine_form``, ``_ktilde_form`` and ``_dktilde_form``, which take an
extra factor and exponent terms.  ``jacobi_kernel``, ``ktilde`` and
``dktilde_dy`` pass one row each to ``_cosine_setting``, the one-k call at
(|x|, |x| - |y|); ``kernel_K_mourou`` passes its three terms at half
arguments in one call and quarters their sum.  Only log D, alpha, beta and
the weights 2 k1, 2 k2 of A(x)'s logs depend on k, so ``_kernel_grid``
(which ``positivity_scan`` calls) takes a leading axis of multiplicities
and forms all their series from one product of stacked coefficient rows.
The Gamma ratio log(2^p Gamma(s+1/2) / (sqrt(pi) Gamma(s))) is formed in
``_log_gamma_ratio`` alone, the one step where real and complex k differ:
log D at p = 4 k1 + 6 k2 - 4, s = k1 + k2, the limit kernels' constant at
p = 0, s = k (their 2^k joins the power that k multiplies), and
``constant_c``'s at p = 3s, times 1/B(k1, k2).  It needs no
finite Gamma, so the limit kernels and ``constant_c`` return every value
that is a double, at any k and x, and raise ``EvaluationError`` beyond.
"""

import math
import sys
from contextlib import suppress
from functools import lru_cache

import numpy as np

from .errors import DomainError, EvaluationError
from .params import KernelPoint, Multiplicity, _number, _real_array
from .quadrature import _EPS, EvalResult, _outer_sums, _point_result
from .specfun import _loggamma_parts

# inner method of every kernel value, as ``operators`` and point results name it
METHOD = "euler-2f1"

_SQRT_PI = math.sqrt(math.pi)
_LOG2 = math.log(2.0)
_LOG_TAIL = math.log(1e-17)     # series terms below this share of the first are dropped
_LOG_TINY = -1022.0 * _LOG2     # exp below this is subnormal
_LOG_HUGE = math.log(sys.float_info.max)    # exp above this overflows
_C_MINUS_1 = np.array([[1.0], [2.0]])   # c - 1 - alpha - beta of the two series


def _log_weight(k1, k2, x):
    """log A(x) at k = (k1, k2), principal branch for complex parameters; -inf at x = 0."""
    xa = np.abs(x)
    return 2.0 * k1 * np.log(2.0 * np.sinh(xa / 2.0)) + 2.0 * k2 * np.log(2.0 * np.sinh(xa))


def weight_A(k: Multiplicity, x):
    """Measure density |2 sinh(x/2)|^{2 k1} |2 sinh x|^{2 k2}; even in x.

    Accepts scalars or numpy arrays; vanishes at x = 0 since Re(k1+k2) > 0.
    """
    xarr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(xarr == 0.0, 0.0, np.exp(_log_weight(k.k1, k.k2, xarr)))
    return out.item() if np.ndim(x) == 0 else out


def constant_c(k: Multiplicity) -> float:
    """Normalizing constant 2^{3k1+3k2} Gamma(k1+k2+1/2) / (sqrt(pi) Gamma(k1) Gamma(k2)).

    Restricted to real positive parameters; a value beyond double range
    raises ``EvaluationError``.
    """
    if not k.real_positive:
        raise DomainError(f"constant_c needs real k1, k2 > 0, got ({k.k1}, {k.k2})")
    s = k.k1 + k.k2
    # 1 / B(k1, k2) in log-Gammas, which overflow only past 2.5e305, far beyond c's range
    with suppress(OverflowError):
        return _exp_in_range(_log_gamma_ratio(3.0 * s, s)[0] + math.lgamma(s)
                             - math.lgamma(k.k1) - math.lgamma(k.k2), "constant_c")
    return _exp_in_range(math.inf, "constant_c")


def _exp_in_range(log_value, name):
    """exp(log_value); ``EvaluationError`` naming ``name`` where that is beyond double range."""
    if not log_value <= _LOG_HUGE:
        value = math.inf if log_value > _LOG_HUGE else math.nan
        raise EvaluationError(f"{name} gave the non-finite value {value!r}")
    return math.exp(log_value)


@lru_cache(maxsize=256)     # every kernel call needs log D, this one 12 us for complex k
def _log_gamma_ratio(p, s):
    """(log(2^p Gamma(s+1/2) / (sqrt(pi) Gamma(s))), the magnitude its rounding scales with).

    Real s takes the log from ``math.gamma`` where that is finite.  Elsewhere
    each log-Gamma is a difference of two parts, about 25 in size near
    Re s = 0, so their magnitudes enter the rounding, not the result's; past
    s = 171, where two log-Gammas of size s log s would cancel, the parts are
    (log(Gamma(s+1/2) / Gamma(s)), 0, 0, 0), from its asymptotic series,
    exact to rounding there.
    """
    real = not isinstance(s, complex)
    if real:
        with suppress(OverflowError):   # the power or a Gamma overflows past s = 171
            log_r = math.log(2.0 ** p * math.gamma(s + 0.5) / (_SQRT_PI * math.gamma(s)))
            if log_r < math.inf:
                return log_r, abs(log_r)
    if real and s > 1.0:
        parts = (0.5 * math.log(s) - (0.125 - (1 / 192 - 1 / (640 * s * s)) / (s * s)) / s, 0, 0, 0)
    else:
        parts = (*_loggamma_parts(s + 0.5), *_loggamma_parts(s))
    log_pow2 = p * _LOG2
    log_r = log_pow2 + (parts[0] - parts[1]) - (parts[2] - parts[3]) - math.log(_SQRT_PI)
    return (log_r.real if real else log_r,
            abs(log_pow2) + sum(abs(part) for part in parts) + math.log(_SQRT_PI))


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


# w < 1/2, so no series needs more terms than at w = 1/2
_MAX_TERMS = 4 + int(_LOG_TAIL / -_LOG2)
# a term's bar is 2 eps times its magnitude; w^j, a product of j factors,
# took j - 1 roundings of eps/2 each, which the factor 1 + (j - 1)/2 covers
_ROUNDINGS = 1.0 + 0.5 * np.arange(_MAX_TERMS - 1.0)


def _powers(w, m):
    """Rows w^1 .. w^m of the flattened w, each row a product of two lower ones.

    One point's powers are a running product instead, the same j - 1
    roundings per power in one numpy call.
    """
    if w.size == 1:
        return np.full((m, 1), w.reshape(-1)).cumprod(axis=0)
    powers = np.empty((m, w.size))
    powers[0] = w.reshape(-1)
    f = 1
    while f < m:
        t = min(f, m - f)
        np.multiply(powers[:t], powers[f - 1], out=powers[f:f + t])
        f += t
    return powers


@lru_cache(maxsize=256)
def _series_rows(k1, k2, shift):
    """Coefficients 1 .. _MAX_TERMS - 1 of F(-alpha, alpha+1; c; w) and of the series at c + 1
    (the 0th is 1), then their magnitudes times ``_ROUNDINGS``: a read-only (4, m) array.

    alpha = k2 + da and c = k1 + k2 + da + db + 2 for shift = (da, db).
    ``cumprod`` runs in order, so its first n - 1 columns are the rows of length n - 1.
    """
    da, db = shift
    i = np.arange(1.0, _MAX_TERMS)
    coef = np.cumprod(((i - 1.0 - da) - k2) * ((i + da) + k2)
                      / (i * ((i + (da + db) + _C_MINUS_1) + (k1 + k2))), axis=1)
    rows = np.concatenate((coef, np.abs(coef) * _ROUNDINGS))
    rows.setflags(write=False)
    return rows


def _cosh_gap_integral(kd, xa, gap, forms):
    """pref D exp(sum of log_pref) J'(alpha, beta; q) over (cosh(xa - gap), cosh xa) for each
    form (shift, pref, q, log_pref) in the tuple ``forms``, broadcasting.

    Returns one (values, error bars) pair per form, each a row of the module
    docstring's table with ``pref`` its factor; no caller rescales them.
    ``kd`` is ``_k_axis``'s triple (k1, k2, (log D, its rounding size)).
    ``q(f1, f2)`` gives the integrand factor's value at v = 0 and its rise
    over the gap d = 2 f1 f2, with f1 = sinh((xa + ya)/2), f2 = sinh(gap/2)
    passed separately so that callers can form the rise without overflow;
    None stands for 1.  ``gap`` = xa - (lower end) is passed separately so
    callers that know it without cancellation keep it exact.  The forms
    share the geometry, the term count and the powers of w, and forms of one
    shift share its series; each form's values and bars are those of its
    one-form call, bit for bit.  The value at v = 0 and ``pref`` may
    broadcast over leading axes that xa and gap lack, which then share one
    series, and so may the k axis of ``kd``.
    """
    k1, k2, (log_d, size_d) = kd
    a = np.cosh(xa)
    half = gap / 2.0
    f1, f2 = np.sinh(xa - half), np.sinh(half)     # (xa + ya)/2, gap/2
    log_f = np.log(f1) + np.log(f2)
    # each log part rounds where it is formed and where it is added; the
    # power alpha + beta + 1 is only as exact as its parts, and log f2 only
    # as exact as gap/2, which keeps few bits when subnormal (0 if fully lost)
    ulp = np.spacing(half)
    size_f = np.abs(log_f) + ulp / np.maximum(half, ulp) / (2.0 * _EPS)
    w = f1 * f2 / a
    w_max = float(w.max(initial=0.0))
    n = 4 + (int(_LOG_TAIL / math.log(w_max)) if w_max > 0.0 else 0)
    powers = _powers(w, n - 1)
    k_shape = getattr(k2, "shape", ())
    lead = k_shape[:len(k_shape) - w.ndim]      # the k axis, with the axes w lacks
    by_shift, results = {}, []
    for shift, pref, q, log_pref in forms:
        da, db = map(float, shift)      # numpy adds a float to an array faster than an int
        alpha, beta = k2 + da, k1 + db
        if shift not in by_shift:
            # both series' coefficients 1..n-1 and their magnitudes, each row
            # kind for every k, against the shared powers of w; magnitudes
            # times 2 eps bound the series' rounding, and the last term, which
            # bounds the dropped tail, counts in full
            if k_shape:
                rows = np.stack([_series_rows(*k12, shift)[:, :n - 1]
                                 for k12 in zip(k1.flat, k2.flat)], axis=1).reshape(-1, n - 1)
            else:
                rows = _series_rows(k1, k2, shift)[:, :n - 1].copy()
            rows[len(rows) // 2:, -1] *= 1.0 + 0.5 / _EPS
            by_shift[shift] = (1.0 + rows @ powers).reshape((4,) + lead + w.shape), a ** alpha
        sums, power = by_shift[shift]
        log_scale = sum(log_pref, log_d + (alpha + beta + 1.0) * log_f)
        size = sum((np.abs(p) for p in log_pref),
                   size_d + (abs(alpha) + abs(beta) + 1.0) * size_f)
        q0, rise = (1.0, 0.0) if q is None else q(f1, f2)
        # (beta + 1) / c, an integer plus k1 over an integer plus s, like the rows
        slope = rise * ((k1 + (db + 1.0)) / ((k1 + k2) + (da + db + 2.0)))
        factor = np.exp(log_scale) * power
        values = factor * (q0 * sums[0] + slope * sums[1])
        series = np.abs(q0) * sums[2].real + np.abs(slope) * sums[3].real
        # small factors first: values near the largest double keep finite bars
        bars = _EPS * (8.0 + 2.0 * size) * np.abs(values) + 2.0 * _EPS * series * np.abs(factor)
        if np.count_nonzero(log_scale.real < _LOG_TINY):
            # exp underflowed before the power multiplied it: its absolute rounding
            # ulp(0) counts too (only then, as subnormal arithmetic is slow)
            bars = bars + math.ulp(0.0) * series * np.abs(power)
        results.append((pref * values, abs(pref) * bars))
    return results


def _times_u(y):
    """q for the factor u = cosh y: its value at the lower end and its rise over the gap."""
    return lambda f1, f2: (np.cosh(y), 2.0 * f1 * f2)


def _end_power(k: Multiplicity):
    """The power at a kernel end that an outer sum may cut at: Re(k1 + k2), at most 1.

    Above 1 the kernel vanishes there, but an outer sum whose mass sits at
    that end (a nested tV sum with |y| near the support's edge) climbs
    levels when cut at eps^{1/Re(k1 + k2)}, so such an end counts as regular.
    """
    return min(1.0, (k.k1 + k.k2).real)


def _k_axis(ks, *cells):
    """k1, k2 and (log D, its rounding size) for the multiplicities ks, as
    ``_cosh_gap_integral`` takes them: numbers for one k, else arrays with a
    leading axis over ks in front of the axes of every array in ``cells``."""
    cols = [(k.k1, k.k2, *_log_gamma_ratio(4.0 * k.k1 + 6.0 * k.k2 - 4.0, k.k1 + k.k2))
            for k in ks]
    if len(ks) > 1:
        shape = (-1,) + (1,) * max(map(np.ndim, cells))
        cols = [[np.reshape(col, shape) for col in zip(*cols)]]
    k1, k2, log_d, size_d = cols[0]
    return k1, k2, (log_d, size_d)


def _kernel_grid(ks, x, y, *, gap=None, mirror=False, density=False):
    """Kernel values and their error bars for each multiplicity in the tuple
    ks along a leading axis (none for one k), broadcasting over the float
    arrays x and y.

    ``gap`` optionally supplies |x| - |y| computed without cancellation; it
    is what the endpoint power actually depends on, so integrators that know
    the gap exactly (double-exponential tails) must pass it.  With
    ``mirror`` x >= 0 stands for the pair x, -x along a new leading axis:
    the series and the even factors depend on |x| only and are formed once.
    With ``density`` the values are K(x, y) A(x):
    the exponent leaves out the -log A(x) that the density would cancel.
    """
    xa = np.abs(x)
    if gap is None:
        gap = xa - np.abs(y)
    if mirror:
        x = np.stack((x, -x))
    # sigma / |x| at u = cosh(y/2), and its rise over the gap d = 2 f1 f2,
    # formed as (2 f1 / |x|) f2 so that nothing overflows at tiny |x|; |x|
    # goes into the exponent, where the scale ~ |x|^{-2} would overflow
    e_fwd = 2.0 * np.exp((x - y) / 2.0) * np.sinh((x + y) / 2.0) / xa
    e_bwd = 2.0 * np.exp(-y / 2.0)
    kd = _k_axis(ks, x, y, gap)
    k1, k2, _ = kd
    # one exponent: A(x) ~ |x|^{2(k1+k2)} near 0 and the radius power near
    # y = -/+ x stay inside double range only in combination
    return _cosh_gap_integral(kd, xa / 2.0, gap / 2.0, ((
        (-1, -1), np.sign(x),
        lambda f1, f2: (e_fwd, -(2.0 * f1 / xa) * f2 * e_bwd),
        (np.log(xa),) if density else (-_log_weight(k1, k2, xa), np.log(xa)),
    ),))[0]


def _kernel_values(k: Multiplicity, x, y, *, gap=None, mirror=False, density=False):
    """``_kernel_grid`` at the one multiplicity k: values and bars of the shape of x and y."""
    return _kernel_grid((k,), x, y, gap=gap, mirror=mirror, density=density)


@np.errstate(all="ignore")   # a non-finite value raises instead
def _form(x, y, terms) -> EvalResult:
    """A public kernel form at real admissible x, y, scalars or broadcasting arrays.

    ``terms(x, y)`` gets the points as float arrays of one shape and returns
    (values, bars) or (values, bars, method), ``METHOD`` by default.  numpy
    rounds complex products of scalars and of arrays differently, so one
    point goes in 0-d arrays whatever its shape, which its values get back:
    a scalar call is the one-element array call, bit for bit.
    """
    x, y = _real_array("kernel point x", x), _real_array("kernel point y", y)
    KernelPoint(x, y)
    shape = ()
    if x.size == y.size == 1:
        shape = max(x.shape, y.shape, key=len)
        x, y = x.reshape(()), y.reshape(())
    elif x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    values, bars, *method = terms(x, y)
    if shape:
        values, bars = (np.reshape(a, np.shape(a) + shape) for a in (values, bars))
    return _point_result(values, bars, *method or (METHOD,))


def kernel_K(k: Multiplicity, x, y) -> EvalResult:
    """Main kernel with error bars at admissible x, y: scalars or broadcasting arrays."""
    return _form(x, y, lambda x, y: _kernel_values(k, x, y))


def _limit_kernel(k: float, x: float, y: float, name: str, scale: float = 1.0) -> float:
    """The vanishing-k1 form at (scale x, scale y), checked as the public forms check x, y."""
    k = _number(name, k, real=True)
    if k <= 0:
        raise DomainError(f"require {name} > 0, got {k!r}")
    x = scale * _real_array("kernel point x", x).item()     # Python floats overflow quietly
    y = scale * _real_array("kernel point y", y).item()
    KernelPoint(x, y)
    xa, ya = abs(x), abs(y)
    # 2^k (cosh x - cosh y)^{k-1} / sinh^{2k} x = r^k / (cosh x - cosh y) with
    # r = 4 (sinh((x+y)/2) / sinh x) (sinh((x-y)/2) / sinh x) < 4: k multiplies
    # log r, not three logs of size ~k that cancel to it.
    # e^x - e^{-y} = 2 e^{(x-y)/2} sinh((x+y)/2), and the powers enter as
    # logs: nothing cancels at small |x|, and no power over- or underflows at
    # tiny |x|.  sinh((x+y)/2) has the sign of x, so the value is positive
    log_r = 2.0 * _LOG2 + _log_sinh_ratio(xa + ya, xa) + _log_sinh_ratio(xa - ya, xa)
    return _exp_in_range(
        _log_gamma_ratio(0.0, k)[0] + k * log_r
        - (_LOG2 + _log_sinh_half(xa + ya) + _log_sinh_half(xa - ya))
        + (x - y) / 2.0 + _log_sinh_half(abs(x + y)), "the closed-form limit kernel")


def _log_sinh_ratio(t: float, xa: float) -> float:
    """log(sinh(t/2) / sinh xa) for 0 < t/2 <= xa: the log of one quotient
    while both sinh are normal doubles, else the difference of their logs."""
    if t >= 1e-300 and xa < 700.0:
        return math.log(math.sinh(t / 2.0) / math.sinh(xa))
    return _log_sinh_half(t) - _log_sinh_half(2.0 * xa)


def _log_sinh_half(t: float) -> float:
    """log sinh(t/2) for t > 0; below 1e-300, where t/2 may drop bits of a
    subnormal t, it is log t - log 2 (sinh(t/2) = t/2 in double precision),
    and above 1400, where sinh(t/2) nears overflow, t/2 - log 2."""
    if t > 1400.0:
        return t / 2.0 - _LOG2
    return math.log(t) - _LOG2 if t < 1e-300 else math.log(math.sinh(t / 2.0))


def kernel_K_limit_k1zero(k2: float, x: float, y: float) -> float:
    """Closed-form kernel in the vanishing-k1 limit (k2 > 0 real)."""
    return _limit_kernel(k2, x, y, "k2")


def kernel_K_limit_k2zero(k1: float, x: float, y: float) -> float:
    """Closed-form kernel in the vanishing-k2 limit (k1 > 0 real): k1 form at x/2, y/2, halved."""
    return 0.5 * _limit_kernel(k1, x, y, "k1", 0.5)


def _cosine_form(x, log_pref=()):
    """The cosine kernel's row at x; its division by A(2x) is the exponent term
    -log A(2x) in ``log_pref``, which a caller that multiplies by the density leaves out."""
    # |sinh 2x| goes into the exponent too: at the nested route's inner
    # end it is tiny while the radius power alone overflows
    return (-1, -1), 4.0, None, (np.log(np.abs(np.sinh(2.0 * x))), *log_pref)


def _ktilde_form(k, y, form, pref=1.0, log_pref=()):
    """Ktilde's ``direct`` or ``byparts`` row at y."""
    shift, q = ((0, -1), None) if form == "direct" else ((-1, 0), _times_u(y))
    return shift, 16.0 * pref / (k.k1 + k.k2), q, log_pref


def _dktilde_form(x, y, pref=1.0, log_pref=()):
    """dKtilde/dy's row at (x, y)."""
    # |sinh y| enters the exponent, which stays in range at tiny |x|;
    # sign(y) zeroes the value at y = 0, where sinh x stands in
    log_sinh = np.log(np.abs(np.sinh(np.where(y == 0.0, x, y))))
    return (-1, -1), -8.0 * pref * np.sign(y), _times_u(y), (*log_pref, log_sinh)


def _cosine_setting(k, x, y, *forms):
    """The (values, bars) pair of each cosine-setting row at the one k on the cell (|y|, |x|)."""
    return _cosh_gap_integral(_k_axis((k,)), np.abs(x), np.abs(x) - np.abs(y), forms)


def jacobi_kernel(k: Multiplicity, x, y) -> EvalResult:
    """Kernel of the intertwining operator in the hyperbolic-cosine setting."""
    return _form(x, y, lambda x, y: _cosine_setting(
        k, x, y, _cosine_form(x, (-_log_weight(k.k1, k.k2, 2.0 * x),)))[0])


_KTILDE_FORMS = ("direct", "byparts", "defining")


def ktilde(k: Multiplicity, x, y, form: str = "direct") -> EvalResult:
    """Antiderivative-in-|x| of the cosine-setting kernel against its measure.

    Three algebraically equal routes: ``direct`` carries the full power of
    the outer cosh difference, ``byparts`` trades it for a full power of the
    inner one, ``defining`` integrates the kernel itself (nested quadrature).
    """
    if form not in _KTILDE_FORMS:
        raise DomainError(f"form must be one of {_KTILDE_FORMS}, got {form!r}")

    def terms(x, y):
        if form != "defining":
            return _cosine_setting(k, x, y, _ktilde_form(k, y, form))[0]
        # nested route: integrate the cosine-setting kernel against its
        # measure over (|y|, |x|); the inner endpoint w -> |y| carries the
        # (w - |y|)^{k1+k2-1} singularity
        values, bars, level = _outer_sums(
            np.abs(y), np.abs(x),
            lambda i, s, d_lo, _: _cosh_gap_integral(_k_axis((k,)), s, d_lo, (_cosine_form(s),))[0],
            (_end_power(k), 1.0))
        return values, bars, f"nested tanh-sinh(level={level}) x {METHOD}"
    return _form(x, y, terms)


def dktilde_dy(k: Multiplicity, x, y) -> EvalResult:
    """Same-variable y-derivative of the antiderivative; odd in y, zero at y = 0."""
    return _form(x, y, lambda x, y: _cosine_setting(k, x, y, _dktilde_form(x, y))[0])


def kernel_K_mourou(k: Multiplicity, x, y) -> EvalResult:
    """Main kernel assembled from the cosine-setting pieces at half arguments.

    The assembly takes the y-derivative of y -> Ktilde(x/2, y/2); the
    half-angle substitution contributes a factor 1/2, so the same-variable
    derivative integral enters with coefficient 1/4.  This choice is the one
    that reproduces the direct kernel, and the equality is enforced on the
    verification grid.
    """
    def terms(x, y):
        xh, yh, sign = x / 2.0, y / 2.0, np.sign(x)
        # 1/A(x) enters the exponents, which stay in range at tiny |x|
        log_ainv = (-_log_weight(k.k1, k.k2, x),)
        # 4 times: Jacobi kernel / 4, sign x (k1/4 + k2/2) Ktilde / A, -sign x dKtilde/dy / (4A)
        values, bars = zip(*_cosine_setting(
            k, xh, yh, _cosine_form(xh, log_ainv),
            _ktilde_form(k, yh, "direct", sign * (k.k1 + 2.0 * k.k2), log_ainv),
            _dktilde_form(xh, yh, -sign, log_ainv)))
        return 0.25 * sum(values), 0.25 * sum(bars), f"mourou[{METHOD}]"
    return _form(x, y, terms)
