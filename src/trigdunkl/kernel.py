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
log sinh((X-Y)/2), so tiny gaps stay representable; so do the factors
|sinh 2x| and |sinh y|, which enter as logs too.  Real and complex k
differ only in how log D is formed.  The series parameters come from k
exactly: each factor of a coefficient and the slope's (beta + 1)/c is an
integer plus k1, k2 or s, so no k2 - 1 formed first drops k2's low bits at
small k (only the power alpha + beta + 1 and a^alpha, whose rounding is
absolute in the exponent, take alpha).  The coefficient rows depend only
on (k1, k2, shift) and are built once per triple, at the 59 terms that
w < 1/2 can need; a call slices them.  The powers w^j are products of lower
powers (at one point a running product), j - 1 roundings each.  Every
value carries an error bar: the rounding of its exponent's log parts and
of the series (the sum of its terms' magnitudes, each scaled by
1 + (j - 1)/2 for its power's roundings), plus the series' last term,
which bounds the dropped tail, and exp's absolute rounding where the
exponent underflows before a^alpha multiplies it.
Only log D, alpha, beta and the weights 2 k1, 2 k2 of A(x)'s logs depend
on k, so a call can take a leading axis of multiplicities: the cell
geometry and the powers of w are formed once, and all the series come
from one product of the stacked coefficient rows with the shared powers
(``_kernel_grid``, which ``positivity_scan`` calls; one k is the K = 1
case, with numbers in place of the axis).  Likewise one call takes a tuple
of forms at one geometry: ``kernel_K_mourou`` is one call of its three
terms at half arguments, which share the geometry and the powers of w (two
share their series too), and it quarters their sum.  ``kernel_K`` and the
oracle forms are each their own terms passed to ``_form``, which checks
that the points are real and admissible (``KernelPoint``), gives the terms
float arrays of one shape, a scalar call being the one-element array call
bit for bit, and raises ``EvaluationError`` for a non-finite value.
"""

import math
from contextlib import suppress
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .params import KernelPoint, Multiplicity, _real_array
from .quadrature import _EPS, EvalResult, _outer_sums, _point_result
from .specfun import _loggamma_parts, gamma_real

# inner method of every kernel value, as ``operators`` and point results name it
METHOD = "euler-2f1"

_SQRT_PI = math.sqrt(math.pi)
_LOG2 = math.log(2.0)
_LOG_TAIL = math.log(1e-17)     # series terms below this share of the first are dropped
_LOG_TINY = -1022.0 * _LOG2     # exp below this is subnormal
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

    Restricted to real positive parameters; the kernels use c B(k1, k2)
    instead, in which Gamma(k1) Gamma(k2) cancel.
    """
    if not k.real_positive:
        raise DomainError(f"constant_c needs real k1, k2 > 0, got ({k.k1}, {k.k2})")
    k1, k2 = k.k1, k.k2
    return (
        2.0 ** (3.0 * (k1 + k2))
        * gamma_real(k1 + k2 + 0.5)
        / (_SQRT_PI * gamma_real(k1) * gamma_real(k2))
    )


@lru_cache(maxsize=256)     # every kernel call needs both, this one 12 us for complex k
def _log_constant(k: Multiplicity):
    """(log D, the magnitude its rounding scales with); D as in the module docstring.

    Real k takes log D from ``math.gamma`` where that is finite; elsewhere each
    log-Gamma is a difference of two parts, about 25 in size near Re s = 0,
    so their magnitudes enter the rounding, not the result's.
    """
    k1, k2 = k.k1, k.k2
    s = k1 + k2
    if k.real_positive:
        with suppress(OverflowError):   # D or a Gamma overflows at large k
            log_d = math.log(2.0 ** (4.0 * k1 + 6.0 * k2 - 4.0) * math.gamma(s + 0.5)
                             / (_SQRT_PI * math.gamma(s)))
            if log_d < math.inf:
                return log_d, abs(log_d)
    parts = (*_loggamma_parts(s + 0.5), *_loggamma_parts(s))
    log_pow2 = (4.0 * k1 + 6.0 * k2 - 4.0) * _LOG2
    log_d = log_pow2 + (parts[0] - parts[1]) - (parts[2] - parts[3]) - math.log(_SQRT_PI)
    return (log_d.real if k.real_positive else log_d,
            abs(log_pow2) + sum(abs(p) for p in parts) + math.log(_SQRT_PI))


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

    alpha = k2 + da and c = k1 + k2 + da + db + 2 for shift = (da, db), so each
    factor is an integer plus k2 or k1 + k2.  ``cumprod`` runs in order, so its
    first n - 1 columns are the rows of length n - 1.
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
    ``kd`` is ``_k_axis``'s triple (k1, k2, (log D, its rounding size)), and
    a form's integer exponent shift (da, db) gives alpha = k2 + da,
    beta = k1 + db.  ``q(f1, f2)`` gives the integrand factor's value at
    v = 0 and its rise over the gap d = 2 f1 f2, with f1 = sinh((xa + ya)/2),
    f2 = sinh(gap/2) passed separately so that callers can form the rise
    without overflow; None stands for 1.  ``gap`` = xa - (lower end) is
    passed separately so callers that know it without cancellation keep it
    exact.  The forms share the geometry, the term count and the powers of
    w, and forms of one shift share its series; each form's values and bars
    are those of its one-form call, bit for bit.  The value at v = 0 and
    ``pref`` may broadcast over leading axes that xa and gap lack, which then
    share one series.  So may the multiplicity: the parts of ``kd`` are
    numbers for one k, or arrays of shape (K, 1, ..., 1), one entry per k in
    front of every other axis; the cell geometry and the powers of w are
    then formed once for all K.
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
    """k1, k2 and ``_log_constant``'s pair for the multiplicities ks, as
    ``_cosh_gap_integral`` takes them: numbers for one k, else arrays with a
    leading axis over ks in front of the axes of every array in ``cells``."""
    if len(ks) == 1:
        return ks[0].k1, ks[0].k2, _log_constant(ks[0])
    shape = (-1,) + (1,) * max(map(np.ndim, cells))
    k1, k2, log_d, size_d = (np.reshape(col, shape)
                             for col in zip(*((k.k1, k.k2, *_log_constant(k)) for k in ks)))
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
    Likewise everything but the exponents and the series coefficients is
    formed once for all ks.  With ``density`` the values are K(x, y) A(x):
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
    if isinstance(k, complex) or not math.isfinite(k) or k <= 0:
        raise DomainError(f"require real {name} > 0, got {k!r}")
    x = scale * _real_array("kernel point x", x)
    y = scale * _real_array("kernel point y", y)
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
    return 0.5 * _limit_kernel(k1, x, y, "k1", 0.5)


def _cosine_form(x, log_pref=()):
    """The cosine-setting kernel at x times exp(sum log_pref), as a form of
    ``_cosh_gap_integral`` at |x| and its gap.

    Its division by A(2x) is the exponent term -log A(2x), which a caller
    passes in ``log_pref``; one that multiplies by the density leaves it out.
    """
    # |sinh 2x| goes into the exponent too: at the nested route's inner
    # end it is tiny while the radius power alone overflows
    return (-1, -1), 4.0, None, (np.log(np.abs(np.sinh(2.0 * x))), *log_pref)


def jacobi_kernel(k: Multiplicity, x, y) -> EvalResult:
    """Kernel of the intertwining operator in the hyperbolic-cosine setting."""
    return _form(x, y, lambda x, y: _cosh_gap_integral(
        _k_axis((k,)), np.abs(x), np.abs(x) - np.abs(y),
        (_cosine_form(x, (-_log_weight(k.k1, k.k2, 2.0 * x),)),))[0])


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
        kd, xa = _k_axis((k,)), np.abs(x)
        if form == "defining":
            # nested route: integrate the cosine-setting kernel against its
            # measure over (|y|, |x|); the inner endpoint w -> |y| carries the
            # (w - |y|)^{k1+k2-1} singularity
            values, bars, rule = _outer_sums(
                np.abs(y), xa,
                lambda i, s, d_lo, d_hi: _cosh_gap_integral(kd, s, d_lo, (_cosine_form(s),))[0],
                (_end_power(k), 1.0))
            return values, bars, f"nested {rule} x {METHOD}"
        shift, q = ((0, -1), None) if form == "direct" else ((-1, 0), _times_u(y))
        return _cosh_gap_integral(kd, xa, xa - np.abs(y),
                                  ((shift, 16.0 / (k.k1 + k.k2), q, ()),))[0]
    return _form(x, y, terms)


def dktilde_dy(k: Multiplicity, x, y) -> EvalResult:
    """Same-variable y-derivative of the antiderivative; odd in y, zero at y = 0."""
    def terms(x, y):
        # |sinh y| enters the exponent, which stays in range at tiny |x|;
        # sign(y) zeroes the value at y = 0, where sinh x stands in
        log_sinh = np.log(np.abs(np.sinh(np.where(y == 0.0, x, y))))
        return _cosh_gap_integral(_k_axis((k,)), np.abs(x), np.abs(x) - np.abs(y),
                                  (((-1, -1), -8.0 * np.sign(y), _times_u(y), (log_sinh,)),))[0]
    return _form(x, y, terms)


def kernel_K_mourou(k: Multiplicity, x, y) -> EvalResult:
    """Main kernel assembled from the cosine-setting pieces at half arguments.

    The assembly takes the y-derivative of y -> Ktilde(x/2, y/2); the
    half-angle substitution contributes a factor 1/2, so the same-variable
    derivative integral enters with coefficient 1/4.  This choice is the one
    that reproduces the direct kernel, and the equality is enforced on the
    verification grid.
    """
    def terms(x, y):
        xh, yh = x / 2.0, y / 2.0
        xa, gap = np.abs(xh), np.abs(xh) - np.abs(yh)
        kd = _k_axis((k,))
        k1, k2, _ = kd
        # 1/A(x) and |sinh(y/2)| enter the exponents, which stay in range at tiny |x|;
        # sign(y) zeroes the derivative term at y = 0, where sinh(x/2) stands in
        log_ainv = -_log_weight(k1, k2, x)
        log_sinh = np.log(np.abs(np.sinh(np.where(y == 0.0, xh, yh))))
        # 4 times: Jacobi kernel / 4, sign x (k1/4 + k2/2) Ktilde / A, -sign x dKtilde/dy / (4A)
        values, bars = zip(*_cosh_gap_integral(kd, xa, gap, (
            _cosine_form(xh, (log_ainv,)),
            ((0, -1), np.sign(x) * (16.0 * k1 + 32.0 * k2) / (k1 + k2), None, (log_ainv,)),
            ((-1, -1), 8.0 * np.sign(x) * np.sign(y), _times_u(yh), (log_ainv, log_sinh)))))
        return 0.25 * sum(values), 0.25 * sum(bars), f"mourou[{METHOD}]"
    return _form(x, y, terms)
