"""Differential-difference operator, intertwining operator, dual, and scans.

The intertwining operator V maps smooth functions to smooth functions,
turns d/dx into the differential-difference operator D, fixes the value at
the origin, and for nonzero x is the integral of the kernel against f over
(-|x|, |x|).  Its dual tV integrates the kernel times the measure density
over {|x| > |y|} and is truncated here to the declared compact support of
its argument.

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
from .kernel import METHOD, _kernel_values, kernel_K, weight_A
from .params import Multiplicity
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


def plane_wave(lam) -> TestFunction:
    lam = complex(lam)
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
    value = int(param) if name == "monomial" else float(param)
    return factory(value)


_D_FORMS = ("regularized", "cothtanh")


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
    k1, k2 = k.k1, k.k2
    rho = k.rho
    if form == "regularized":
        if x == 0:
            raise DomainError("regularized form has a pole at x = 0; use cothtanh")
        coeff = k1 / (1.0 - math.exp(-x)) + 2.0 * k2 / (1.0 - math.exp(-2.0 * x))
        return f.deriv(x) + coeff * (f.eval(x) - f.eval(-x)) - rho * f.eval(x)
    if x == 0:
        return (1.0 + 2.0 * (k1 + k2)) * f.deriv(0.0) - rho * f.eval(0.0)
    return _d_cothtanh(k, x, f.deriv(x), f.eval(x), f.eval(-x))


def _d_cothtanh(k: Multiplicity, x: float, deriv, fx, fmx):
    """D f(x), x != 0, in the coth/tanh form from f'(x), f(x) and f(-x)."""
    th = math.tanh(x / 2.0)
    coeff = (k.k1 + k.k2) / (2.0 * th) + k.k2 * th / 2.0
    return deriv + coeff * (fx - fmx) - k.rho * fmx


_SCAN_CHUNK = 4096  # scan cells per kernel call, keeps temporaries ~3 MB
_MIRROR = np.array([1.0, -1.0])[:, None, None]   # an outer piece and its mirror image


@np.errstate(all="ignore")   # a non-finite value raises instead
def apply_V(k: Multiplicity, f: TestFunction, x) -> EvalResult:
    """Intertwining operator applied to a registered function at x, a scalar or an array.

    Values and error bars have the shape of x: f(0) at x = 0, the defining
    point evaluation; elsewhere the kernel integral over (-|x|, |x|), split
    at 0 with a double-exponential rule per half so the algebraic vanishing
    of the kernel at y = -/+ x is resolved.
    """
    x = np.asarray(x, dtype=float)

    def integrand(xb, t, glo, ghi):
        xa = np.abs(xb)[:, None]
        y = _MIRROR * (0.5 * xa * glo)
        kv, kb = _kernel_values(k, xb[:, None], y, gap=0.5 * xa * ghi)
        fy = np.asarray(f.eval(y))
        return kv * fy, kb * np.abs(fy), 0.5 * xa[:, 0]

    nonzero = x != 0.0
    fill = 0.0 if nonzero.all() else f.eval(0.0)
    values, est, rule = _outer_sums(x, nonzero, fill, integrand, complex(k.k1 + k.k2).real)
    method = f"{rule} x {METHOD}" if nonzero.any() else "point-evaluation"
    return _point_result(values, est, method)


@np.errstate(all="ignore")   # a non-finite value raises instead
def apply_Vt(k: Multiplicity, g: TestFunction, y) -> EvalResult:
    """Dual operator: kernel integral against g and the measure over |x| > |y|.

    Truncated to the declared support [-a, a] of g: zero where |y| >= a,
    elsewhere integrated over (|y|, a) from its singular end |y|.  y is a
    scalar or an array, and the result has its shape.
    """
    if g.support is None:
        raise ContractError(f"{g.id} declares no compact support; the dual needs one")
    y = np.asarray(y, dtype=float)
    a = float(g.support)

    def integrand(yb, t, glo, ghi):
        ya = np.abs(yb)[:, None]
        span = a - ya
        # abscissae as exact offsets from the nearer end
        x = _MIRROR * np.where(t <= 0.0, ya + 0.5 * span * glo, a - 0.5 * span * ghi)
        kv, kb = _kernel_values(k, x, yb[:, None], gap=0.5 * span * glo)
        ga = np.asarray(g.eval(x)) * np.asarray(weight_A(k, x))
        return kv * ga, kb * np.abs(ga), 0.5 * span[:, 0]

    inside = np.abs(y) < a
    values, est, rule = _outer_sums(y, inside, 0.0, integrand, complex(k.k1 + k.k2).real)
    return _point_result(values, est, f"{rule} x {METHOD}" if inside.any() else "empty-domain")


def duality_gap(k: Multiplicity, f: TestFunction, g: TestFunction) -> float:
    """Normalized defect of the pairing identity between V and its dual.

    |LHS - RHS| / max(|LHS|, |RHS|, 1) with LHS the measure-weighted pairing
    of Vf with g over supp g and RHS the plain pairing of f with tVg.
    """
    if g.support is None:
        raise ContractError(f"{g.id} declares no compact support")
    a = float(g.support)

    def pairing(outer, op, fn):
        # integral of outer(x) op(k, fn, x) over (0, a) mapped from 0 and its mirror
        def integrand(_, t, glo, ghi):
            x = _MIRROR * (0.5 * a * glo)
            u = np.asarray(outer(x))
            v = op(k, fn, x)
            return u * v.value, np.abs(u) * v.est_error, 0.5 * a
        return _outer_sums([a], [True], 0.0, integrand)[0][0]

    lhs = pairing(lambda x: np.asarray(g.eval(x)) * weight_A(k, x), apply_V, f)
    rhs = pairing(f.eval, apply_Vt, g)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def intertwine_gap(k: Multiplicity, f: TestFunction, x: float) -> float:
    """Defect |D(Vf)(x) - V(f')(x)| of the intertwining identity.

    D acts on Vf through a centered difference with step 1e-4 max(1, |x|),
    so the result is finite-difference limited.
    """
    if x == 0:
        raise DomainError("intertwining defect is evaluated away from x = 0")
    if f.deriv is None:
        raise ContractError(f"{f.id} has no derivative")
    h = NUMERICS.fd_step_scale * max(1.0, abs(x))
    v_fwd, v_bwd, v_x, v_mx = apply_V(k, f, [x + h, x - h, x, -x]).value
    lhs = _d_cothtanh(k, x, (v_fwd - v_bwd) / (2.0 * h), v_x, v_mx)
    f_prime = TestFunction(id=f"{f.id}'", eval=f.deriv, support=f.support)
    rhs = apply_V(k, f_prime, x).value
    return abs(lhs - rhs)


@dataclass(frozen=True)
class ScanReport:
    """Grid of kernel values with their minimum and its location."""

    cells: tuple            # (k1, k2, x, y, value) per cell, grid order
    min_value: float
    argmin: tuple           # (k1, k2, x, y)
    all_positive: bool


def positivity_scan(k_grid, x_grid, y_fraction_grid) -> ScanReport:
    """Kernel values over a (k, x, y = fraction |x|) grid, with their minimum.

    Restricted to real positive parameter pairs, where strict positivity is
    the expected outcome; fractions approaching -1 probe y near -x.  Each
    k's cells go to ``kernel_K`` in chunks of arrays, so a one-cell scan
    equals the point call.  A cell outside |y| < |x| (also by rounding)
    raises DomainError, a non-finite value EvaluationError.
    """
    k_grid = tuple((float(k1), float(k2)) for k1, k2 in k_grid)
    x_grid = tuple(float(x) for x in x_grid)
    fracs = tuple(float(fr) for fr in y_fraction_grid)
    xs = np.repeat(x_grid, len(fracs))
    ys = np.outer(np.abs(x_grid), fracs).ravel()
    values = np.empty((len(k_grid), xs.size))
    for row, k in zip(values, [Multiplicity(k1, k2) for k1, k2 in k_grid]):
        for i in range(0, xs.size, _SCAN_CHUNK):
            chunk = slice(i, i + _SCAN_CHUNK)
            row[chunk] = kernel_K(k, xs[chunk], ys[chunk]).value
    xys = list(zip(xs.tolist(), ys.tolist()))
    cells = tuple((k1, k2, x, y, v) for (k1, k2), row in zip(k_grid, values.tolist())
                  for (x, y), v in zip(xys, row))
    argmin, min_value = None, math.inf      # an empty grid has no minimum
    if cells:
        low = cells[int(np.argmin(values))]
        argmin, min_value = low[:4], low[4]
    return ScanReport(
        cells=cells,
        min_value=min_value,
        argmin=argmin,
        all_positive=min_value > 0.0,
    )
