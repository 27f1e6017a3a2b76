"""Differential-difference operator, intertwining operator, dual, and scans.

The intertwining operator V maps smooth functions to smooth functions,
turns d/dx into the differential-difference operator D, fixes the value at
the origin, and for nonzero x is the integral of the kernel against f over
(-|x|, |x|).  Its dual tV integrates the kernel times the measure density
over {|x| > |y|} and is truncated here to the declared compact support of
its argument.  The duality pairing checks one against the other on
compactly supported functions; its sums skip the flat zone of g A at g's
support edge, where g A is below 1e-3 eps of its maximum
(``_flat_zone``), and form no kernel value there.

V's kernel at x is the same for every test function, and its series depend
on |x| only, so ``apply_V`` takes a tuple of functions, and it alone lays
out V's points: each |x| asked for at both signs is one interval of the
kernel's mirror path, any other point one of its one-sign path, each path
one outer pass per support that asks every function at every point, and
x = 0 takes f(0) as f returns it.  ``intertwine_gap`` reads V through it.
``_v_sums`` and ``_vt_sums`` are one support's weighted sums, one weight
per sign and point shared by every function; every (function, sign, point)
output keeps its own level, value and error bar, and both report the
highest level their outer sums integrated, from which each operator names
its method.  They trust their input and return their sums raw; each public
result (V, tV, each side of the duality pairing) is checked once, by
``_point_result``, which raises on a non-finite value or bar.  V's
integrand is smooth at y = 0, so its outer rule is centred there and
crowds its nodes only at the interval's ends +-min(|x|, a), a the
half-width of f's support; so does the right side of the duality pairing,
f tVg over (-a, a).

Test inputs come from a small registry of vectorized functions rather than
arbitrary user callables, which keeps every operator evaluation
reproducible.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import config
from .config import NUMERICS
from .errors import ContractError, DomainError
from .kernel import METHOD, _end_power, _kernel_grid, _kernel_values, weight_A
from .params import KernelPoint, Multiplicity, _number, _real_array
from .quadrature import _EPS, EvalResult, _outer_sums, _point_result


@dataclass(frozen=True)
class TestFunction:
    """A registered analytic input to the operators.

    ``eval`` and ``deriv`` accept scalars or numpy arrays elementwise.
    ``support`` is the half-width a of a compact support [-a, a]; functions
    without it cannot be fed to the dual operator.  ``eval`` must be smooth
    at 0: V's outer rule is centred there, and its error bar holds only for
    an integrand smooth inside (-|x|, |x|).
    """

    __test__ = False  # not a pytest collectable despite the name

    id: str
    eval: Callable
    deriv: Optional[Callable] = None
    support: Optional[float] = None


def plane_wave(lam) -> TestFunction:
    lam = _number("plane_wave frequency", lam)
    if lam.imag == 0.0:
        lam = lam.real
    return TestFunction(
        id=f"plane_wave({lam})",
        eval=lambda y: np.exp(1j * lam * np.asarray(y, dtype=float)),
        deriv=lambda y: 1j * lam * np.exp(1j * lam * np.asarray(y, dtype=float)),
    )


def monomial(p: int) -> TestFunction:
    degree = _number("monomial degree", p, real=True)
    if degree < 0 or not degree.is_integer():
        raise DomainError(f"monomial degree must be >= 0 and an integer, got {p!r}")
    p = int(degree)
    return TestFunction(
        id=f"monomial({p})",
        eval=lambda y: np.asarray(y, dtype=float) ** p,
        # p y^(p-1), with 0 y^0 = 0 for p = 0, also at y = 0
        deriv=lambda y: p * np.asarray(y, dtype=float) ** max(p - 1, 0),
    )


def gaussian(width: float = 1.0) -> TestFunction:
    width = _number("gaussian width", width, real=True)
    if width <= 0:
        raise DomainError(f"gaussian width must be > 0, got {width}")
    w2 = width ** 2
    return TestFunction(
        id=f"gaussian({width})",
        eval=lambda y: np.exp(-np.asarray(y, dtype=float) ** 2 / w2),
        deriv=lambda y: -2.0 * np.asarray(y, dtype=float) / w2
        * np.exp(-np.asarray(y, dtype=float) ** 2 / w2),
    )


def bump(a: float = config.BUMP_SUPPORT) -> TestFunction:
    """Smooth bump exp(-1 / (1 - (y/a)^2)) on (-a, a), zero outside."""
    a = _number("bump support", a, real=True)
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
    x = _number("evaluation point", x, real=True)
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


def _method(level, empty):
    """An operator's method from the highest level its outer sums integrated, ``empty`` for none."""
    return f"tanh-sinh(level={level}) x {METHOD}" if level else empty


@np.errstate(all="ignore")   # a non-finite value raises in _point_result
def _v_sums(k: Multiplicity, fs, x, u, per_row=True):
    """Weighted sums of V f at x, a scalar or an array, for each function f
    in the tuple fs, whose functions share one support, and weights u of
    shape (r,) + x.shape, which every function shares: one row gives u[0] V
    f(x), two rows u[0] V f(x) and u[1] V f(-x) for x >= 0, each an output
    of its own, or with ``per_row`` False their sum.  Returns the values and
    bars of shape (len(fs), r) + x.shape ((len(fs),) + x.shape for the
    sums), unchecked, and the highest level integrated (0 for none).

    One outer pass serves every output, each at its own level (see
    ``_outer_sums``): the integral over (-b, b), b = min(|x|, a) for the
    support [-a, a] (b = |x| without one), from the centred half rule on
    (0, b), whose nodes crowd only at b.  There the kernel vanishes like a
    power of its gap |x| - |y| if b = |x|; if b = a < |x| f vanishes instead
    and the kernel's gap is (|x| - a) + (b - s).  The end is cut at the
    kernel's power either way, which bounds the kernel's part beyond the cut
    also for an f that does not vanish at its support's edge.  The kernel's
    series depend on |x| only, so the pair's values at each node come from
    one series, the sign on its own axis, and each function is evaluated
    once per batch at the nodes s and -s, which serve both signs.  A point
    whose weights are all 0, or x = 0, is an empty interval, where no
    function is evaluated, and its outputs' values and bars are 0: V's
    point evaluation at 0 is ``apply_V``'s to write.
    """
    x = _real_array("evaluation point", x)
    u = np.reshape(u, (len(u), x.size))
    rows = len(u)
    xa = np.abs(x)
    a = fs[0].support
    b = np.where(u.any(0).reshape(x.shape), xa if a is None else np.minimum(xa, a), 0.0)
    beyond = xa - b     # the kernel's gap at b: 0 unless f's support ends first

    def integrand(i, s, d_lo, d_hi):
        y = _MIRROR * s
        kv, kb = _kernel_values(k, x.flat[i][None, :, None], y, gap=beyond.flat[i][:, None] + d_hi,
                                mirror=rows == 2)
        fy = np.array([np.asarray(f.eval(y)) for f in fs])
        fy = fy[:, None] * u[:, None, i, None]      # (function, row, piece, points, nodes)
        return kv * fy, kb * np.abs(fy)

    outputs = (len(fs), rows) if per_row else (len(fs),)
    # every argument by position, as a stand-in that records the calls takes them
    return _outer_sums(0.0, b, integrand, (None, _end_power(k)), outputs)


@np.errstate(all="ignore")   # a non-finite value raises in _point_result
def _vt_sums(k: Multiplicity, g: TestFunction, y, u, zone=0.0):
    """Weighted sums of tVg at y, a scalar or an array, for weights u of shape
    (r,) + y.shape: one row gives u[0] tVg(y), two rows u[0] tVg(y) + u[1]
    tVg(-y) for y >= 0, the pair's values at each node from one series.  A
    point whose weights are all 0 is an empty interval, as in ``_v_sums``.
    Returns the values and bars of the shape of y, unchecked, and the
    highest level integrated (0 for none).  g must declare its support;
    ``apply_Vt`` and the duality pairing check that it does.
    """
    y = _real_array("evaluation point", y)
    u = np.reshape(u, (len(u), y.size))
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
    return _outer_sums(ya, hi, integrand, (_end_power(k), 1.0), (), zone)


def apply_V(k: Multiplicity, f, x):
    """Intertwining operator applied to a registered function at x, a scalar or an array.

    Values and error bars have the shape of x: f(0) at x = 0, the defining
    point evaluation; elsewhere the kernel integral over (-|x|, |x|), cut to
    f's support where that ends first, with the t >= 0 half of a symmetric
    double-exponential rule centred at 0 for both signs of y, whose nodes
    crowd at the ends, so the algebraic vanishing of the kernel at y = -/+ x
    (or f's flat support edge) is resolved.  f must be smooth at 0, as
    every registry function is: at a kink or jump there the sums converge
    only algebraically, climb to level 12, and report the last two levels'
    difference, which is not a bound (for a jump it is about the error
    itself).  f may be a tuple of functions: the result is then a tuple of
    results, one per function, each with its own values, bars and type
    (real where its values are); the method names the highest level of the
    passes.  An empty array of points gives empty results, an empty tuple
    of functions ().

    V's points are laid out here and nowhere else.  Each |x| asked for at
    both signs is one interval of the kernel's mirror path, its signs two
    weight rows, in the order the |x| first appear; every other point is an
    interval of the one-sign path, in the order given.  Each path is one
    ``_v_sums`` pass per support, in the order the supports first appear,
    which forms the kernel once for all of its functions and asks each of
    them at every point of the pass; x = 0 then takes f(0).  A call with no
    pair and one support is one pass over x as given, with nothing to merge.
    """
    fs = f if isinstance(f, tuple) else (f,)
    x = _real_array("evaluation point", x)
    flat = x.reshape(-1)
    xa = np.abs(flat)
    signs = {}      # |x| -> the signs asked for, in the order the |x| first appear
    for a, positive in zip(xa.tolist(), (flat > 0.0).tolist()):
        signs.setdefault(a, set()).add(positive)
    slot = {a: j for j, a in enumerate(a for a, both in signs.items() if len(both) == 2)}
    supports = {}
    for j, fn in enumerate(fs):
        supports.setdefault(fn.support, []).append(j)
    if not slot and len(supports) == 1:     # one one-sign pass over x as given, no merge
        values, bars, level = _v_sums(k, fs, x, np.ones((1,) + x.shape))
        values, bars = values[:, 0], bars[:, 0]
    else:
        at = np.array([slot.get(a, -1) for a in xa.tolist()], dtype=int)
        mirror, one = np.flatnonzero(at >= 0), np.flatnonzero(at < 0)
        # each path's points and rows, the flat outputs it fills, and the (row, point) it reads
        paths = [(np.array(list(slot)), 2, mirror, (flat[mirror] < 0.0).astype(int), at[mirror]),
                 (flat[one], 1, one, 0, slice(None))]
        values = np.zeros((len(fs), flat.size), dtype=complex)
        bars = np.zeros(values.shape)
        level = 0
        for points, rows, out, row, pos in paths:
            if not out.size:
                continue
            u = np.ones((rows, points.size))
            for js in supports.values():
                v, b, top = _v_sums(k, tuple(fs[j] for j in js), points, u)
                values[np.ix_(js, out)], bars[np.ix_(js, out)] = v[:, row, pos], b[:, row, pos]
                level = max(level, top)
        shape = (len(fs),) + x.shape
        values, bars = values.reshape(shape), bars.reshape(shape)
    zero = x == 0.0
    if zero.any():
        values[:, zero] = np.array([fn.eval(0.0) for fn in fs])[:, None]
    method = _method(level, "point-evaluation")
    results = tuple(_point_result(v, b, method) for v, b in zip(values, bars))
    return results if isinstance(f, tuple) else results[0]


def apply_Vt(k: Multiplicity, g: TestFunction, y) -> EvalResult:
    """Dual operator: kernel integral against g and the measure over |x| > |y|.

    Truncated to the declared support [-a, a] of g: zero where |y| >= a,
    elsewhere integrated over (|y|, a) from its singular end |y|.  y is a
    scalar or an array, and the result has its shape.
    """
    if g.support is None:
        raise ContractError(f"{g.id} declares no compact support; the dual needs one")
    values, bars, level = _vt_sums(k, g, y, np.ones((1,) + np.shape(y)))
    return _point_result(values, bars, _method(level, "empty-domain"))


_FLAT_SHARE = 1e-3 * _EPS   # tau: g A below tau max|g A| counts as flat
# the flat zone's probes: distances from the support's edge over its half-width a
_ZONE_PROBES = np.geomspace(0.5 * _EPS * _EPS, 1.0, 1024)


def _flat_zone(k: Multiplicity, g: TestFunction, a: float) -> float:
    """The flat zone of g A at the edge a of g's support: the distance inside
    a within which |g(x) A(x)| <= tau max |g A| at both signs of x, 0 for none.

    It is measured on g A, not on g alone: the pairing's integrands carry g
    as g A, and A grows steeply toward a at large k, so a zone of g alone
    reaches where g A is not small (at k = (0.5, 20) up to 8e4 tau max).
    The probes lie at distances d from a, log-spaced from eps^2 a / 2 to a,
    at both signs; the threshold takes the largest probe value as max |g A|,
    whose underestimate only shrinks the zone.  The zone is the distance of
    the last probe before the first one above the threshold: it holds
    between the probes where |g A| rises inward, as at a flat edge.  No
    outer node the cut drops lies below eps a / 2, nor a nested tV node
    below eps zone / 2, so a zone of at least eps a holds at every node the
    cut drops, at every level; a smaller one is returned as 0.  So is any
    zone if a probe value is not finite: the sums then raise as uncut.  The
    zone stays within a / 2, so each outer sum keeps the nodes around its
    middle.
    """
    d = a * _ZONE_PROBES
    x = a - d
    with np.errstate(all="ignore"):
        ga = np.abs(g.eval(np.stack((x, -x)))).max(0) * np.abs(weight_A(k, x))
    if not np.isfinite(ga).all():
        return 0.0
    above = np.flatnonzero(ga > _FLAT_SHARE * ga.max())
    zone = d[above[0] - 1] if above.size and above[0] else 0.0
    return min(zone, 0.5 * a) if zone >= _EPS * a else 0.0


def _pairing_sides(k: Multiplicity, f: TestFunction, g: TestFunction):
    """The duality pairing's two sides as (value, error bar) pairs: the
    measure-weighted pairing of Vf with g over supp g, and the plain pairing
    of f with tVg.

    Each side is one outer integral over s in (0, a) of the weighted
    operator values at s and -s, which share one nested kernel sum per node.
    A node where both weights are 0 is an empty interval of that sum: its
    operator value is never formed, so it cannot raise there.  The nested
    sums reach the integrand raw, as ``_v_sums`` and ``_vt_sums`` return
    them, and each side's one outer sum is checked once: a non-finite
    operator value at any node makes it raise EvaluationError.  The left
    side's integrand vanishes like s^{2 Re(k1 + k2)} with the density at 0,
    so its outer rule stops short of 0 where that power leaves about eps;
    the right side's is smooth at 0 and takes the centred half rule over
    (-a, a), whose nodes crowd only at a.

    Both sides skip the flat zone of g A at a (``_flat_zone``), found once
    per call, where |g A| <= tau max |g A| with tau = 1e-3 eps.  No outer
    node within the zone of a forms a nested sum, as g A weighs the left
    side's V f and tVg is an integral of g A over (|y|, a); and no node of
    the right side's nested tV sums within it forms a kernel value.  The
    tails at the cut ends count the dropped parts in the bars.  The public
    ``apply_V`` and ``apply_Vt`` take no cut.
    """
    if g.support is None:
        raise ContractError(f"{g.id} declares no compact support")
    a = float(g.support)
    zone = _flat_zone(k, g, a)

    def pairing(outer, sums, power, cut):
        # integral of outer(x) op(x) over (0, a) and its mirror image, one
        # nested sum per node s for x = s, -s; ``power`` at the end 0, no
        # node within ``cut`` of a
        def integrand(i, s, d_lo, d_hi):
            return sums(s, outer(_MIRROR * s))[:2]
        # as in the nested sums, a non-finite value raises in _point_result, not as a warning
        with np.errstate(all="ignore"):
            value, bar, level = _outer_sums(0.0, a, integrand, (power, 1.0), (), cut)
            _point_result(value, bar, _method(level, "empty-domain"))
        return complex(value), float(bar)

    # A(x) / |x|^{2 Re s} grows with |x|, so the power bounds the left side at 0
    lhs = pairing(lambda x: np.asarray(g.eval(x)) * weight_A(k, x),
                  lambda s, u: _v_sums(k, (f,), s, u, False),
                  1.0 + 2.0 * (k.k1 + k.k2).real, zone)
    # f tVg is smooth at 0.  Its outer cut lies a relative 2^-20 beyond the
    # nested sums' one, so the zone leaves each nested interval (|y|, a) the
    # nodes within about 2^-20 of its width of |y|, and every level from 4
    # up has such nodes beyond the kernel's end cut there (at most eps)
    rhs = pairing(f.eval, lambda s, u: _vt_sums(k, g, s, u, zone), None,
                  zone * (1.0 + 2.0 ** -20))
    return lhs, rhs


def duality_gap(k: Multiplicity, f: TestFunction, g: TestFunction) -> float:
    """Normalized defect of the pairing identity between V and its dual.

    |LHS - RHS| / max(|LHS|, |RHS|, 1) with LHS the measure-weighted pairing
    of Vf with g over supp g and RHS the plain pairing of f with tVg, each
    one outer integral (see ``_pairing_sides``).
    """
    (lhs, _), (rhs, _) = _pairing_sides(k, f, g)
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
    1e-4 max(1, |x|), so the result is finite-difference limited.  Vf and
    V(f') at x +- h, x +- 2h, x and -x come from one ``apply_V`` call on
    the functions and their derivatives, which asks every function at all
    six points; the identity reads Vf at all six and V(f') at x.  The gaps
    have the shape of x.  f may be a tuple of functions, which share that
    call: the result is then a tuple of their gaps.
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
    v = [res.value for res in apply_V(k, fs + primes, points)]
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
