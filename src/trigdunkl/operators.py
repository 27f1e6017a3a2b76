"""Differential-difference operator, intertwining operator, dual, and scans.

The intertwining operator V maps smooth functions to smooth functions,
turns d/dx into the differential-difference operator D, fixes the value at
the origin, and for nonzero x is the integral of the kernel against f over
(-|x|, |x|).  Its dual tV integrates the kernel times the measure density
over {|x| > |y|} and is truncated here to the declared compact support of
its argument.

V's kernel at x is the same for every test function, and its series depend
on |x| only, so ``apply_V`` and ``intertwine_gap`` take a tuple of functions
and evaluate them in one outer pass: each |x| asked for at both signs is one
interval of the kernel's mirror path, any other point one of its one-sign
path, and every (function, sign, point) output keeps its own level, value
and error bar.

Test inputs come from a small registry of vectorized functions rather than
arbitrary user callables, which keeps every operator evaluation
reproducible.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import config
from .config import NUMERICS
from .errors import ContractError, DomainError
from .kernel import METHOD, _end_power, _kernel_grid, _kernel_values, weight_A
from .params import KernelPoint, Multiplicity, _real_array
from .quadrature import EvalResult, _outer_sums, _point_result


@dataclass(frozen=True)
class TestFunction:
    """A registered analytic input to the operators.

    ``eval`` and ``deriv`` accept scalars or numpy arrays elementwise.
    ``support`` is the half-width a of a compact support [-a, a]; functions
    without it cannot be fed to the dual operator.
    """

    __test__ = False  # not a pytest collectable despite the name

    id: str
    eval: Callable
    deriv: Optional[Callable] = None
    support: Optional[float] = None


def _check_finite(name, v):
    if not cmath.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v!r}")


def plane_wave(lam) -> TestFunction:
    lam = complex(lam)
    _check_finite("plane_wave frequency", lam)
    if lam.imag == 0.0:
        lam = lam.real
    return TestFunction(
        id=f"plane_wave({lam})",
        eval=lambda y: np.exp(1j * lam * np.asarray(y, dtype=float)),
        deriv=lambda y: 1j * lam * np.exp(1j * lam * np.asarray(y, dtype=float)),
    )


def monomial(p: int) -> TestFunction:
    p = int(p)
    if p < 0:
        raise DomainError(f"monomial degree must be >= 0, got {p}")
    if p == 0:
        return TestFunction("monomial(0)", lambda y: np.ones_like(np.asarray(y, dtype=float)),
                            lambda y: np.zeros_like(np.asarray(y, dtype=float)))
    return TestFunction(
        id=f"monomial({p})",
        eval=lambda y: np.asarray(y, dtype=float) ** p,
        deriv=lambda y: p * np.asarray(y, dtype=float) ** (p - 1),
    )


def gaussian(width: float = 1.0) -> TestFunction:
    _check_finite("gaussian width", width)
    if width <= 0:
        raise DomainError(f"gaussian width must be > 0, got {width}")
    w2 = float(width) ** 2
    return TestFunction(
        id=f"gaussian({float(width)})",
        eval=lambda y: np.exp(-np.asarray(y, dtype=float) ** 2 / w2),
        deriv=lambda y: -2.0 * np.asarray(y, dtype=float) / w2
        * np.exp(-np.asarray(y, dtype=float) ** 2 / w2),
    )


def bump(a: float = config.BUMP_SUPPORT) -> TestFunction:
    """Smooth bump exp(-1 / (1 - (y/a)^2)) on (-a, a), zero outside."""
    a = float(a)
    _check_finite("bump support", a)
    if a <= 0:
        raise DomainError(f"bump support must be > 0, got {a}")

    def inside(form):
        # form(s, 1 - s^2) at s = y/a inside (-1, 1), zero outside
        def fn(y):
            s = np.asarray(y, dtype=float) / a
            mask = np.abs(s) < 1.0
            out = np.zeros(s.shape, dtype=float)
            si = s[mask]
            out[mask] = form(si, 1.0 - si * si)
            return out if out.ndim else out.item()
        return fn

    return TestFunction(id=f"bump({a})", eval=inside(lambda s, q: np.exp(-1.0 / q)),
                        deriv=inside(lambda s, q: np.exp(-1.0 / q) * (-2.0 * s / a) / (q * q)),
                        support=a)


_REGISTRY = {
    "plane_wave": (plane_wave, True),
    "monomial": (monomial, True),
    "gaussian": (gaussian, False),
    "bump": (bump, False),
}


def get_test_function(spec: str) -> TestFunction:
    """Build a registry function from ``name`` or ``name:param``."""
    name, _, param = spec.partition(":")
    if name not in _REGISTRY:
        raise DomainError(f"unknown test function {name!r}; known: {sorted(_REGISTRY)}")
    factory, requires_param = _REGISTRY[name]
    if not param:
        if requires_param:
            raise DomainError(f"{name} needs a parameter, e.g. {name}:1.5")
        return factory()
    try:
        value = int(param) if name == "monomial" else float(param)
    except ValueError:
        raise DomainError(f"bad parameter {param!r} for {name}") from None
    return factory(value)


_D_FORMS = ("regularized", "cothtanh")
_TINY = 2.0 ** -1022     # the smallest normal double


def cherednik_D(k: Multiplicity, f: TestFunction, x: float, form: str = "cothtanh"):
    """First-order differential-difference deformation of d/dx.

    ``regularized`` uses the exponential-difference coefficients and is
    undefined at x = 0; ``cothtanh`` uses the coth/tanh coefficients and at
    x = 0 evaluates the removable limit (1 + 2 k1 + 2 k2) f'(0) - (k1/2 +
    k2) f(0).  Both forms agree identically for x != 0.
    """
    if form not in _D_FORMS:
        raise DomainError(f"form must be one of {_D_FORMS}, got {form!r}")
    if f.deriv is None:
        raise ContractError(f"{f.id} has no derivative; the operator needs one")
    _check_finite("evaluation point", x)
    k1, k2 = k.k1, k.k2
    rho = k.rho
    if form == "regularized":
        if x == 0:
            raise DomainError("regularized form has a pole at x = 0; use cothtanh")
        # difference quotients before k: 1 - e^{-x} is 0 or subnormal at tiny
        # |x|, and e^{-x} overflows below x = -709, where the quotients vanish
        odd = f.eval(x) - f.eval(-x)
        with np.errstate(over="ignore"):
            q1, q2 = (_by_real(odd, -np.expm1(-t)) for t in (x, 2.0 * x))
        return f.deriv(x) + k1 * q1 + 2.0 * k2 * q2 - rho * f.eval(x)
    if x == 0:
        return (1.0 + 2.0 * (k1 + k2)) * f.deriv(0.0) - rho * f.eval(0.0)
    return _d_cothtanh(k, x, f.deriv(x), f.eval(x), f.eval(-x))


def _d_cothtanh(k: Multiplicity, x, deriv, fx, fmx):
    """D f(x), x != 0, in the coth/tanh form from f'(x), f(x) and f(-x); scalars or arrays."""
    th = np.tanh(np.divide(x, 2.0))
    odd = fx - fmx
    # the difference quotient before k, as coth(x/2) overflows at subnormal
    # x; there tanh(x/2) is x/2, which rounds, so it takes 2/x instead
    tiny = np.abs(x) < _TINY
    quotient = np.where(tiny, 2.0, 1.0) * _by_real(odd, np.where(tiny, x, th))
    return deriv + (k.k1 + k.k2) / 2.0 * quotient + k.k2 * th / 2.0 * odd - k.rho * fmx


def _by_real(num, den):
    """num / den for real den, part by part: numpy divides a complex num by
    multiplying with 1/den, which overflows for |den| < 5.6e-309."""
    if not np.iscomplexobj(num):
        return num / den
    out = np.empty(np.broadcast(num, den).shape, dtype=complex)
    out.real, out.imag = np.real(num) / den, np.imag(num) / den
    return out if out.ndim else out.item()


_SCAN_CHUNK = 4096  # scan cells times ks per kernel call, keeps temporaries ~3 MB
_MIRROR = np.array([1.0, -1.0])[:, None, None]   # an outer piece and its mirror image


def _eval_at(f: TestFunction, y, points):
    """f at the nodes y (pieces x points x nodes) of the points where the mask
    ``points`` is set, 0 at the others, which f is not evaluated at."""
    if points.all():
        return np.asarray(f.eval(y))
    out = np.zeros(y.shape)
    if points.any():
        part = np.asarray(f.eval(y[:, points]))
        out = out.astype(part.dtype)
        out[:, points] = part
    return out


@np.errstate(all="ignore")   # a non-finite value raises in _point_result
def _v_sums(k: Multiplicity, fs, x, u, per_row=True):
    """Weighted sums of V f at x, a scalar or an array, for each function f
    in the tuple fs and weights u of shape (len(fs), r) + x.shape: one row
    gives u[j, 0] V f_j(x), two rows u[j, 0] V f_j(x) and u[j, 1] V f_j(-x)
    for x >= 0, each an output of its own, or with ``per_row`` False their
    sum.  Returns the values and bars of shape (len(fs), r) + x.shape
    ((len(fs),) + x.shape for the sums), unchecked, and the method.

    One outer pass serves every output, each at its own level (see
    ``_outer_sums``).  The kernel's series depend on |x| only, so the pair's
    values at each node come from one series, the sign on its own axis, and
    each function is evaluated once per batch at the nodes s and -s, which
    serve both signs.  A point whose weights are all 0 is an empty interval,
    and a function whose weights at a point are 0 is not evaluated there;
    such an output's value and bar are 0.  At x = 0 the value is f(0) times
    the weight, the defining point evaluation.
    """
    x = _real_array("evaluation point", x)
    u = np.reshape(u, (len(fs), -1, x.size))
    rows = u.shape[1]
    wanted = u.any(1)       # (function, point)
    live = wanted.any(0).reshape(x.shape)

    def integrand(i, s, d_lo, d_hi):
        y = _MIRROR * s
        kv, kb = _kernel_values(k, x.flat[i][None, :, None], y, gap=d_hi, mirror=rows == 2)
        fy = np.array([_eval_at(f, y, at) for f, at in zip(fs, wanted[:, i])])
        fy = fy[:, None] * u[:, :, None, i, None]      # (function, row, piece, points, nodes)
        return kv * fy, kb * np.abs(fy)

    outputs = (len(fs), rows) if per_row else (len(fs),)
    # every argument by position, as a stand-in that records the calls takes them
    values, est, rule = _outer_sums(0.0, np.where(live, np.abs(x), 0.0), integrand,
                                    (1.0, _end_power(k)), outputs)
    zero = (x == 0.0) & live
    if zero.any():
        weights = u.reshape((len(fs), rows) + x.shape)
        for v, f, w in zip(values, fs, weights if per_row else weights.sum(1)):
            v[..., zero] = w[..., zero] * f.eval(0.0)
    return values, est, "point-evaluation" if zero.all() else f"{rule} x {METHOD}"


def _v_points(k: Multiplicity, fs, x, want):
    """V f at x, a float array, for each function f in the tuple fs where
    ``want`` (shape (len(fs),) + x.shape) is set, else 0: the values and bars
    of that shape, unchecked, and the method.

    Each |x| asked for at both signs is one interval of the mirror path, the
    signs separate outputs, in the order the |x| first appear; every other
    point is an interval of the one-sign path, in the order given.
    """
    flat = x.reshape(-1)
    xa = np.abs(flat)
    signs = {}      # |x| -> the signs asked for, in the order the |x| first appear
    for a, positive in zip(xa.tolist(), (flat > 0.0).tolist()):
        signs.setdefault(a, set()).add(positive)
    slot = {a: j for j, a in enumerate(a for a, both in signs.items() if len(both) == 2)}
    if not slot:    # one one-sign pass over x as given
        v, b, method = _v_sums(k, fs, x, np.reshape(want, (len(fs), 1) + x.shape))
        return v[:, 0], b[:, 0], method
    at = np.array([slot.get(a, -1) for a in xa.tolist()], dtype=int)
    mirror = at >= 0
    one = ~mirror
    want = np.reshape(want, (len(fs), -1))
    values, bars = np.zeros(want.shape, dtype=complex), np.zeros(want.shape)
    pos, row = at[mirror], (flat[mirror] < 0.0).astype(int)
    u = np.zeros((len(fs), 2, len(slot)))
    np.maximum.at(u, (slice(None), row, pos), want[:, mirror])
    v, b, method = _v_sums(k, fs, np.array(list(slot)), u)
    values[:, mirror], bars[:, mirror] = v[:, row, pos], b[:, row, pos]
    if one.any():
        v, b, single = _v_sums(k, fs, flat[one], want[:, None, one])
        values[:, one], bars[:, one] = v[:, 0], b[:, 0]
        # the higher rule: methods order by length, then by text
        method = max(method, single, key=lambda m: (len(m), m))
    shape = want.shape[:1] + x.shape
    return values.reshape(shape), bars.reshape(shape), method


@np.errstate(all="ignore")   # a non-finite value raises in _point_result
def _vt_sums(k: Multiplicity, g: TestFunction, y, u):
    """Weighted sums of tVg at y, a scalar or an array, for weights u of shape
    (r,) + y.shape: one row gives u[0] tVg(y), two rows u[0] tVg(y) + u[1]
    tVg(-y) for y >= 0, the pair's values at each node from one series.  A
    point whose weights are all 0 is an empty interval, as in ``_v_sums``.
    Returns the values and bars of the shape of y, unchecked, and the method.
    """
    if g.support is None:
        raise ContractError(f"{g.id} declares no compact support; the dual needs one")
    y = _real_array("evaluation point", y)
    u = np.reshape(u, (len(u), -1))
    signs = _MIRROR[:len(u), None]
    a = float(g.support)

    def integrand(i, s, d_lo, d_hi):
        # K(x, y) A(x): the kernel's series and the density are even in x,
        # formed on s once, and the density is left out of the exponent
        yi = signs * y.flat[i][:, None]     # (row, 1, points, 1)
        gu = np.asarray(g.eval(_MIRROR * s)) * u[:, i][:, None, :, None]
        kv, kb = _kernel_values(k, s, yi, gap=d_lo, mirror=True, density=True)
        return kv * gu, kb * np.abs(gu)

    ya = np.abs(y)
    hi = np.where(u.any(0).reshape(y.shape), np.maximum(ya, a), ya)
    values, est, rule = _outer_sums(ya, hi, integrand, (_end_power(k), 1.0))
    return values, est, f"{rule} x {METHOD}" if (ya < hi).any() else "empty-domain"


def apply_V(k: Multiplicity, f, x):
    """Intertwining operator applied to a registered function at x, a scalar or an array.

    Values and error bars have the shape of x: f(0) at x = 0, the defining
    point evaluation; elsewhere the kernel integral over (-|x|, |x|), split
    at 0 with a double-exponential rule per half so the algebraic vanishing
    of the kernel at y = -/+ x is resolved.  f may be a tuple of functions:
    the result is then a tuple of results, one per function, each with its
    own values, bars and type (real where its values are), from one outer
    pass that forms the kernel once for all of them; the method names the
    pass's highest rule.
    """
    fs = f if isinstance(f, tuple) else (f,)
    x = _real_array("evaluation point", x)
    values, bars, method = _v_points(k, fs, x, np.ones((len(fs),) + x.shape, dtype=bool))
    results = tuple(_point_result(v, b, method) for v, b in zip(values, bars))
    return results if isinstance(f, tuple) else results[0]


def apply_Vt(k: Multiplicity, g: TestFunction, y) -> EvalResult:
    """Dual operator: kernel integral against g and the measure over |x| > |y|.

    Truncated to the declared support [-a, a] of g: zero where |y| >= a,
    elsewhere integrated over (|y|, a) from its singular end |y|.  y is a
    scalar or an array, and the result has its shape.
    """
    return _point_result(*_vt_sums(k, g, y, np.ones((1,) + np.shape(y))))


def duality_gap(k: Multiplicity, f: TestFunction, g: TestFunction) -> float:
    """Normalized defect of the pairing identity between V and its dual.

    |LHS - RHS| / max(|LHS|, |RHS|, 1) with LHS the measure-weighted pairing
    of Vf with g over supp g and RHS the plain pairing of f with tVg.  Each
    side is one outer integral over s in (0, a) of the weighted operator
    values at s and -s, which share one nested kernel sum per node.  A node
    where both weights are 0 is an empty interval of that sum: its operator
    value is never formed, so it cannot raise there.  The left side's
    integrand vanishes like s^{2 Re(k1 + k2)} with the density at 0, so its
    outer rule stops short of 0 where that power leaves about eps.
    """
    if g.support is None:
        raise ContractError(f"{g.id} declares no compact support")
    a = float(g.support)

    def pairing(outer, sums, power):
        # integral of outer(x) op(x) over (0, a) and its mirror image, one
        # nested sum per node s for x = s, -s; ``power`` at the end 0
        def integrand(i, s, d_lo, d_hi):
            res = _point_result(*sums(s, outer(_MIRROR * s)))
            # complex, as the outer sum rounds a real matmul differently
            return np.asarray(res.value, dtype=complex), res.est_error
        return complex(_outer_sums(0.0, a, integrand, (power, 1.0))[0])

    # A(x) / |x|^{2 Re s} grows with |x|, so the power bounds the left side at 0
    lhs = pairing(lambda x: np.asarray(g.eval(x)) * weight_A(k, x),
                  lambda s, u: _v_sums(k, (f,), s, u[None], False),
                  1.0 + 2.0 * (k.k1 + k.k2).real)
    rhs = pairing(f.eval, lambda s, u: _vt_sums(k, g, s, u), 1.0)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _richardson_derivative(up, down, up2, down2, h):
    """Derivative from values at +-h and +-2h: (4 D_h - D_2h) / 3.

    Richardson's extrapolation of the centered differences D_h, D_2h cancels
    their h^2 term, leaving O(h^4) truncation.
    """
    return (8.0 * (up - down) - (up2 - down2)) / (12.0 * h)


def intertwine_gap(k: Multiplicity, f, x):
    """Defect |D(Vf)(x) - V(f')(x)| of the intertwining identity at x, a scalar or an array.

    D acts on Vf through ``_richardson_derivative`` with step
    1e-4 max(1, |x|), so the result is finite-difference limited.  Vf at
    x +- h, x +- 2h, x and -x and V(f') at x come from one outer pass; the
    gaps have the shape of x.  f may be a tuple of functions, which share
    that pass: the result is then a tuple of their gaps.
    """
    fs = f if isinstance(f, tuple) else (f,)
    shape = np.shape(x)
    # flat arrays throughout: numpy rounds complex scalars and arrays differently
    x = _real_array("evaluation point", x).reshape(-1)
    if (x == 0.0).any():
        raise DomainError("intertwining defect is evaluated away from x = 0")
    for fn in fs:
        if fn.deriv is None:
            raise ContractError(f"{fn.id} has no derivative")
    h = NUMERICS.fd_step_scale * np.maximum(1.0, np.abs(x))
    primes = tuple(TestFunction(id=f"{fn.id}'", eval=fn.deriv, support=fn.support) for fn in fs)
    points = np.stack((x + h, x - h, x + 2 * h, x - 2 * h, x, -x))
    want = np.ones((2 * len(fs),) + points.shape, dtype=bool)
    want[len(fs):, [0, 1, 2, 3, 5]] = False    # V(f') at x alone
    values, bars, method = _v_points(k, fs + primes, points, want)
    v = [_point_result(*vb, method).value for vb in zip(values, bars)]
    gaps = []
    for (*shifted, v_x, v_mx), v_prime in zip(v[:len(fs)], v[len(fs):]):
        lhs = _d_cothtanh(k, x, _richardson_derivative(*shifted, h), v_x, v_mx)
        gap = np.abs(lhs - v_prime[4]).reshape(shape)
        gaps.append(gap if shape else gap.item())
    return tuple(gaps) if isinstance(f, tuple) else gaps[0]


@dataclass(frozen=True)
class ScanReport:
    """Grid of kernel values with their minimum and its location."""

    cells: tuple            # (k1, k2, x, y, value) per cell, grid order
    min_value: float
    argmin: tuple           # (k1, k2, x, y)
    all_positive: bool      # every value exceeds its error bar; False for no cells


def positivity_scan(k_grid, x_grid, y_fraction_grid) -> ScanReport:
    """Kernel values over a (k, x, y = fraction |x|) grid, with their minimum.

    Restricted to real positive parameter pairs, where strict positivity is
    the expected outcome; fractions approaching -1 probe y near -x.  A cell
    counts as positive only when its value exceeds its error bar.  The
    cells are checked once and go to the kernel in chunks of arrays, each
    chunk with a group of ks that shares its geometry, at most
    ``_SCAN_CHUNK`` cells times ks per call; a group of one k is the
    ``kernel_K`` array call, so a one-cell scan equals the point call.  A
    cell outside |y| < |x| (also by rounding) raises DomainError, a
    non-finite value EvaluationError.
    """
    ks = tuple(Multiplicity(k1, k2) for k1, k2 in k_grid)
    for k in ks:
        if not k.real_positive:
            raise DomainError(f"positivity_scan needs real parameters, got k = ({k.k1}, {k.k2})")
    x_grid = tuple(float(x) for x in x_grid)
    fracs = tuple(float(fr) for fr in y_fraction_grid)
    xs = np.repeat(x_grid, len(fracs))
    ys = np.outer(np.abs(x_grid), fracs).ravel()
    KernelPoint(xs, ys)
    values, bars = np.empty((2, len(ks), xs.size))
    with np.errstate(all="ignore"):     # a non-finite value raises instead
        for i in range(0, xs.size, _SCAN_CHUNK):
            chunk = slice(i, i + _SCAN_CHUNK)
            group = max(1, _SCAN_CHUNK // xs[chunk].size)
            for j in range(0, len(ks), group):
                part = slice(j, j + group)
                values[part, chunk], bars[part, chunk] = _kernel_grid(
                    ks[part], xs[chunk], ys[chunk])
    _point_result(values, bars, METHOD)     # one finite check, with kernel_K's message
    xys = list(zip(xs.tolist(), ys.tolist()))
    cells = tuple((k.k1, k.k2, x, y, v) for k, row in zip(ks, values.tolist())
                  for (x, y), v in zip(xys, row))
    argmin, min_value = None, math.inf      # an empty grid has no minimum
    if cells:
        low = cells[int(np.argmin(values))]
        argmin, min_value = low[:4], low[4]
    return ScanReport(
        cells=cells,
        min_value=min_value,
        argmin=argmin,
        all_positive=bool(cells) and bool((values > bars).all()),
    )
