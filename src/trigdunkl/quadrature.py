"""Quadrature rules resolving algebraic endpoint singularities.

Two families serve the outer integrals of the operators, the nested form of
``ktilde`` and ``integrate``; kernel values are closed-form series and use
no rule:

* Gauss rules (Legendre and Jacobi) built by the Golub-Welsch method from
  the three-term recurrence of the weight ``(1-t)^alpha (1+t)^beta``.  The
  Jacobi rules absorb real endpoint powers exactly.
* tanh-sinh (double exponential) rules for everything else, in particular
  complex endpoint exponents, where a classical weight cannot absorb the
  singularity.

Tanh-sinh abscissae crowd the endpoints double-exponentially, far below the
resolution of ``1 - |t|`` in floating point.  ``_tanh_sinh_full`` keeps exact
endpoint distances (``gap_lo = 1 + t``, ``gap_hi = 1 - t``) down to a cut:
1e-280 by default, so integrable singularities like t^{p-1} with small
p > 0 are still resolved, and 1e-12 for public rules, whose node floats
stay distinct and inside (-1, 1).  Each rule comes with its coarser companion
(n beside 2n Gauss nodes; a tanh-sinh level's even-indexed nodes, which are
the level below) as a second weight vector ``wc`` on the same nodes, so every
integral forms its value and error estimate as ``vals @ w`` and ``vals @ wc``.

``_outer_sums``, the outer integral of V, tV, the duality pairing and the
nested ``ktilde`` form, picks the tanh-sinh level per point: from level 4
up, the first whose companion agrees to sqrt(eps) times the sum of
|integrand| w (each level roughly squares the error of the one below).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EvaluationError
from .specfun import gamma_real

_MAX_GAUSS_N = 512
_MAX_TS_LEVEL = 12
_TS_FULL_GAP = 1e-280   # keep tail nodes while 1-|t| stays comfortably normal
_TS_PUBLIC_GAP = 1e-12  # node floats are distinct and < 1 above this gap
_EPS = np.finfo(float).eps
# Outer integrands behave like gap^{k1+k2-1} times smooth factors, so the
# error estimate counts the O(1e-60^{Re(k1+k2)}) that a cut at gap 1e-60
# drops; the cut keeps the nested gap products (outer abscissa times inner
# endpoint distance) representable in double precision.
_OUTER_GAP = 1e-60
# points x nodes per outer batch (16 points at level 4): temporaries ~2 MB
# (~4 MB for complex k) at any level
_OUTER_NODES = 16 * 143


@dataclass(frozen=True)
class EvalResult:
    """A numeric value with an error estimate and the rule that produced it."""

    value: complex
    est_error: float
    method: str


def _point_result(value, bar, method) -> EvalResult:
    """Values with their error bars, scalars or arrays; raises if any is not finite.

    Values are real when no imaginary part is nonzero, scalars Python numbers.
    """
    value, bar = np.asarray(value), np.asarray(bar, dtype=float)
    if np.iscomplexobj(value) and not np.count_nonzero(value.imag):
        value = value.real
    finite = np.isfinite(value) & np.isfinite(bar)
    if np.count_nonzero(finite) < finite.size:
        raise EvaluationError(f"{method} gave the non-finite value {value[~finite][0].item()!r}")
    return EvalResult(*(v if v.ndim else v.item() for v in (value, bar)), method)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a concrete rule on the open interval (-1, 1).

    Gauss rules carry the exponents of their weight (1-t)^alpha (1+t)^beta
    (0, 0 for Legendre); tanh-sinh rules their ``level`` and the distances
    1 + t, 1 - t computed without cancellation (None for Gauss rules).
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    gap_lo: np.ndarray | None = None
    gap_hi: np.ndarray | None = None
    alpha: float = 0.0
    beta: float = 0.0
    level: int | None = None

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise DomainError(f"{self.kind}: nodes not strictly increasing")
        if np.any(self.weights <= 0):
            raise DomainError(f"{self.kind}: non-positive weight")
        if self.nodes[0] <= -1.0 or self.nodes[-1] >= 1.0:
            raise DomainError(f"{self.kind}: node outside (-1, 1)")


@lru_cache(maxsize=256)
def _gauss_jacobi_arrays(n: int, alpha: float, beta: float):
    """Golub-Welsch nodes/weights for the weight (1-t)^alpha (1+t)^beta."""
    apb = alpha + beta
    diag = np.zeros(n)
    if apb + 2.0 != 0.0:
        diag[0] = (beta - alpha) / (apb + 2.0)
    for m in range(1, n):
        diag[m] = (beta * beta - alpha * alpha) / ((2 * m + apb) * (2 * m + apb + 2.0))
    off = np.zeros(n - 1)
    for m in range(1, n):
        if m == 1:
            b2 = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((apb + 2.0) ** 2 * (apb + 3.0))
        else:
            b2 = (
                4.0 * m * (m + alpha) * (m + beta) * (m + apb)
                / ((2 * m + apb) ** 2 * (2 * m + apb + 1.0) * (2 * m + apb - 1.0))
            )
        off[m - 1] = math.sqrt(b2)
    jac = np.diag(diag)
    if n > 1:
        jac += np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    mu0 = (
        2.0 ** (apb + 1.0)
        * gamma_real(alpha + 1.0)
        * gamma_real(beta + 1.0)
        / gamma_real(apb + 2.0)
    )
    weights = mu0 * vecs[0, :] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _check_gauss_n(n):
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= _MAX_GAUSS_N:
        raise DomainError(f"node count must be an integer in 1..{_MAX_GAUSS_N}, got {n!r}")


def gauss_legendre(n: int) -> QuadratureRule:
    """Classical Gauss-Legendre rule on (-1, 1), exact to degree 2n - 1."""
    _check_gauss_n(n)
    nodes, weights = _gauss_jacobi_arrays(n, 0.0, 0.0)
    return QuadratureRule(f"legendre(n={n})", nodes, weights)


def gauss_jacobi(n: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss rule for the weight (1-t)^alpha (1+t)^beta, alpha, beta > -1.

    The weight function is absorbed into the weights: summing f over the
    nodes integrates f times the weight exactly for polynomial f of degree
    up to 2n - 1.
    """
    _check_gauss_n(n)
    for name, v in (("alpha", alpha), ("beta", beta)):
        if isinstance(v, complex) or not math.isfinite(v) or v <= -1.0:
            raise DomainError(f"{name} must be a finite real > -1, got {v!r}")
    nodes, weights = _gauss_jacobi_arrays(n, float(alpha), float(beta))
    return QuadratureRule(f"jacobi(n={n},alpha={alpha},beta={beta})", nodes, weights,
                          alpha=float(alpha), beta=float(beta))


@lru_cache(maxsize=32)
def _tanh_sinh_full(level: int, cut: float = _TS_FULL_GAP):
    """Double-exponential node set at step h = 2**-level.

    Returns (nodes, weights, gap_lo, gap_hi, companion) for the nodes whose
    endpoint gap min(1 + t, 1 - t) is at least ``cut``; ``companion`` is
    the next coarser level's weights on the same nodes (twice the weight on
    even-indexed nodes, zero elsewhere).  Near the ends callers must use
    the gap arrays, not 1 -/+ node.
    """
    h = 2.0 ** (-level)
    jmax = int(math.asinh(-math.log(_TS_FULL_GAP / 2.0) / math.pi) / h)
    j = np.arange(-jmax, jmax + 1)
    u = j * h
    sigma = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(sigma))
    gap_small = 2.0 * e / (1.0 + e)        # 1 - |t|
    gap_large = 2.0 / (1.0 + e)            # 1 + |t|
    nodes = np.sign(sigma) * (1.0 - gap_small)
    gap_hi = np.where(sigma >= 0, gap_small, gap_large)
    gap_lo = np.where(sigma >= 0, gap_large, gap_small)
    sech = 2.0 * np.exp(-np.abs(sigma)) / (1.0 + e)
    weights = h * 0.5 * math.pi * np.cosh(u) * sech * sech
    companion = np.where(j % 2 == 0, 2.0 * weights, 0.0)
    keep = gap_small >= cut
    out = tuple(a[keep] for a in (nodes, weights, gap_lo, gap_hi, companion))
    for a in out:
        a.setflags(write=False)
    return out


def tanh_sinh(level: int) -> QuadratureRule:
    """Double-exponential rule on (-1, 1); each level halves the step size."""
    if not isinstance(level, int) or isinstance(level, bool) or not 1 <= level <= _MAX_TS_LEVEL:
        raise DomainError(f"level must be an integer in 1..{_MAX_TS_LEVEL}, got {level!r}")
    nodes, weights, gap_lo, gap_hi, _ = _tanh_sinh_full(level, _TS_PUBLIC_GAP)
    return QuadratureRule(f"tanh-sinh(level={level})", nodes, weights, gap_lo, gap_hi,
                          level=level)


def _outer_sums(points, active, fill, integrand, power=1.0, cut=_OUTER_GAP):
    """Outer tanh-sinh integrals at the ``active`` ones of ``points``, each at its own level.

    ``integrand(batch, t, glo, ghi)`` returns the integrand at the abscissae
    of the rule cut at endpoint gap ``cut`` (pieces of the domain x points x
    nodes), its error bar and the pieces' half-width per point.  The rules
    are symmetric, so a piece's mirror image takes the same abscissae
    negated.  Each level is computed whole, ``_OUTER_NODES`` points x nodes
    a batch, until every point stops or ``_MAX_TS_LEVEL``.  Returns the
    values (``fill`` elsewhere) and error estimates in the shape of the
    (finite) ``points``, and the highest rule used.  An estimate is the
    difference from the level below, the integrand's rounding and the part
    beyond the cut: about gap |integrand| / power at the outermost nodes,
    for an integrand that goes like gap^{power-1} at an end.
    """
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise DomainError(f"non-finite evaluation point {points[~np.isfinite(points)][0].item()!r}")
    values = np.full(points.shape, fill, dtype=complex)
    est = np.zeros(points.shape)
    todo = np.flatnonzero(active)
    for level in range(4, _MAX_TS_LEVEL + 1):
        t, w, glo, ghi, wc = _tanh_sinh_full(level, cut)
        step = max(1, _OUTER_NODES // t.size)
        done = np.zeros(todo.size, dtype=bool)
        for i in range(0, todo.size, step):
            sl = todo[i:i + step]
            vals, bars, half = integrand(points.flat[sl], t, glo, ghi)
            fine = vals @ w
            diff = np.abs(fine - vals @ wc).sum(0) * half
            mags = (np.abs(vals) @ w).sum(0) * half
            tail = (glo[0] * np.abs(vals[..., 0]) + ghi[-1] * np.abs(vals[..., -1])).sum(0)
            # a NaN difference stops at once: no level makes it finite
            stop = ~(diff > math.sqrt(_EPS) * mags) | (level == _MAX_TS_LEVEL)
            values.flat[sl[stop]] = (fine.sum(0) * half)[stop]
            # products with f and the measure, and the sum, round each term
            est.flat[sl[stop]] = (diff + (bars @ w).sum(0) * half + 8.0 * _EPS * mags
                                  + tail * half / power)[stop]
            done[i:i + step] = stop
        todo = todo[~done]
        if not todo.size:
            break
    return values, est, f"tanh-sinh(level={level})"


def _gauss_jacobi_pair(n: int, alpha: float, beta: float):
    """The 2n-node Jacobi rule's nodes followed by the n-node rule's.

    Returns (nodes, weights, companion): the 2n-node weights (zero on the
    n-node part) and the n-node weights (zero on the 2n-node part).
    """
    t2, w2 = _gauss_jacobi_arrays(2 * n, alpha, beta)
    t, w = _gauss_jacobi_arrays(n, alpha, beta)
    return (np.concatenate((t2, t)), np.concatenate((w2, np.zeros(n))),
            np.concatenate((np.zeros(2 * n), w)))


def _eval_integrand(f, xs):
    vals = np.asarray([f(float(x)) for x in xs])
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = float(xs[np.argmax(bad)])
        raise EvaluationError(f"integrand is not finite at x={node!r}", node=node)
    return vals


def integrate(rule: QuadratureRule, f, interval) -> EvalResult:
    """Integrate f over a finite interval with the affinely mapped rule.

    The error estimate compares against the next refinement (2n nodes for
    Gauss rules, level + 1 for tanh-sinh) and the refined value is returned.
    Jacobi rules integrate f against the rule's endpoint weight transplanted
    onto the interval, i.e. f is only the smooth factor of the integrand.
    """
    lo, hi = interval
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integration interval must be finite, got {interval!r}")
    if not lo < hi:
        raise DomainError(f"require lo < hi, got ({lo}, {hi})")
    half = 0.5 * (hi - lo)
    if rule.level is not None:
        refined = min(rule.level + 1, _MAX_TS_LEVEL)
        t, w, gap_lo, gap_hi, wc = _tanh_sinh_full(refined)
        # abscissae as exact offsets from the nearer endpoint
        xs = np.where(t <= 0.0, lo + half * gap_lo, hi - half * gap_hi)
        method = f"{rule.kind}->level={refined}"
    else:
        # Gauss rule: the refined companion has the same weight exponents
        n = len(rule.nodes)
        t, w, wc = _gauss_jacobi_pair(n, rule.alpha, rule.beta)
        xs = 0.5 * (hi + lo) + half * t
        method = f"{rule.kind}->n={2 * n}"
    vals = _eval_integrand(f, xs)
    fine, coarse = (vals @ w) * half, (vals @ wc) * half
    return _point_result(fine, abs(fine - coarse), method)
