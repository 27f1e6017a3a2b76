"""Quadrature rules resolving algebraic endpoint singularities.

Two families serve ``integrate``; the outer integrals of the operators and
the nested form of ``ktilde`` use tanh-sinh alone, and kernel values are
closed-form series and use no rule:

* Gauss rules (Legendre and Jacobi) built by the Golub-Welsch method from
  the three-term recurrence of the weight ``(1-t)^alpha (1+t)^beta``.  The
  Jacobi rules absorb real endpoint powers exactly.
* tanh-sinh (double exponential) rules for everything else, in particular
  complex endpoint exponents, where a classical weight cannot absorb the
  singularity.

Tanh-sinh abscissae crowd the endpoints double-exponentially, far below the
resolution of ``1 - |t|`` in floating point.  ``_tanh_sinh_full`` keeps exact
endpoint distances (``gap_lo = 1 + t``, ``gap_hi = 1 - t``) down to 1e-280,
so integrable singularities like t^{p-1} with small p > 0 are still
resolved; ``_cut`` trims a level to a larger gap, 1e-12 for public rules,
whose node floats stay distinct and inside (-1, 1).  Each rule comes with
its coarser companion (n beside 2n Gauss nodes; a tanh-sinh level's
even-indexed nodes, which are the level below) as a second weight vector
``wc`` on the same nodes, so every integral forms its value and error
estimate as ``vals @ w`` and ``vals @ wc``.

``_outer_sums`` (V, tV, the duality pairing, the nested ``ktilde`` form) cuts
each end of the rule where that end's power leaves about eps, so a regular
end keeps only the nodes it needs, and picks the level per output: from
``_MIN_TS_LEVEL`` up, the first whose companion agrees to sqrt(eps) times the
sum of |integrand| w.  An interval whose integrand is smooth at its middle
(V over (-|x|, |x|), the pairing's f tVg over (-a, a)) passes its centre as
the lower end: its pieces at s and -s then share the t >= 0 half of one
symmetric rule, whose nodes crowd only at the outer end.  An interval may
carry several outputs (V of several functions, at x and -x), which share its
nodes and so its kernel values; it is evaluated while any of them is open,
and an output that stopped keeps its level's value and bar.  Every caller
but V's is the one-output case.  The duality pairing also cuts the hi end
of its sums at an absolute distance, the flat zone of g A at its support's
edge, where no node is evaluated.
"""

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EvaluationError
from .params import _number
from .specfun import gamma_real

_MAX_GAUSS_N = 512
_MIN_TS_LEVEL = 4       # the outer sums' first level
_MAX_TS_LEVEL = 12
_TS_FULL_GAP = 1e-280   # keep tail nodes while 1-|t| stays comfortably normal
_TS_PUBLIC_GAP = 1e-12  # node floats are distinct and < 1 above this gap
_EPS = np.finfo(float).eps
_OUTER_NODES = 2288     # points x nodes per outer batch: temporaries ~2 MB (~4 MB complex)


@dataclass(frozen=True)
class EvalResult:
    """A numeric value with an error estimate and the rule that produced it."""

    value: complex
    est_error: float
    method: str


def _point_result(value, bar, method) -> EvalResult:
    """Values with their error bars, scalars or arrays; raises if any is not finite.

    The message names the first non-finite value, else the first non-finite
    bar.  Values are real when no imaginary part is nonzero, scalars Python
    numbers.
    """
    value, bar = np.asarray(value), np.asarray(bar, dtype=float)
    if np.iscomplexobj(value) and not np.count_nonzero(value.imag):
        value = value.real
    finite = np.isfinite(value) & np.isfinite(bar)
    if np.count_nonzero(finite) < finite.size:
        if np.isfinite(value).all():
            raise EvaluationError(f"{method} gave the value {value[~finite][0].item()!r} with "
                                  f"the non-finite error bar {bar[~finite][0].item()!r}")
        raise EvaluationError(f"{method} gave the non-finite value "
                              f"{value[~np.isfinite(value)][0].item()!r}")
    return EvalResult(*(v if v.ndim else v.item() for v in (value, bar)), method)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a concrete rule on the open interval (-1, 1).

    Gauss rules carry the exponents of their weight (1-t)^alpha (1+t)^beta
    (0, 0 for Legendre); tanh-sinh rules their ``level`` and the distances
    1 + t, 1 - t computed without cancellation (None for Gauss rules).  The
    arrays may be given as any real sequences and are stored as float
    arrays; one that is not 1-d, is empty, has another length than the
    nodes or holds a non-finite number raises DomainError.
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
        for name in ("nodes", "weights", "gap_lo", "gap_hi"):
            given = getattr(self, name)
            if given is None and name.startswith("gap"):
                continue
            try:
                arr = np.asarray(given)
                real = arr.dtype.kind in "biuf"
            except ValueError:      # ragged nesting
                real = False
            if not (real and arr.ndim == 1 and 0 < arr.size == np.size(self.nodes)
                    and np.isfinite(arr).all()):
                raise DomainError(f"{self.kind}: {name} must be a 1-d array of finite real "
                                  f"numbers, one per node, got {given!r}")
            object.__setattr__(self, name, arr.astype(float, copy=False))
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
    diag[0] = (beta - alpha) / (apb + 2.0)     # apb > -2 for alpha, beta > -1
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


def _rule_size(name, v, top):
    """v as an int in 1..top; DomainError unless v is an integer of any type but bool."""
    n = operator.index(v) if isinstance(v, numbers.Integral) and not isinstance(v, bool) else 0
    if not 1 <= n <= top:
        raise DomainError(f"{name} must be an integer in 1..{top}, got {v!r}")
    return n


def gauss_legendre(n: int) -> QuadratureRule:
    """Classical Gauss-Legendre rule on (-1, 1), exact to degree 2n - 1."""
    n = _rule_size("node count", n, _MAX_GAUSS_N)
    nodes, weights = _gauss_jacobi_arrays(n, 0.0, 0.0)
    return QuadratureRule(f"legendre(n={n})", nodes, weights)


def gauss_jacobi(n: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss rule for the weight (1-t)^alpha (1+t)^beta, alpha, beta > -1.

    The weight function is absorbed into the weights: summing f over the
    nodes integrates f times the weight exactly for polynomial f of degree
    up to 2n - 1.
    """
    n = _rule_size("node count", n, _MAX_GAUSS_N)
    alpha, beta = _number("alpha", alpha, real=True), _number("beta", beta, real=True)
    if min(alpha, beta) <= -1.0:
        raise DomainError(f"alpha and beta must be > -1, got ({alpha}, {beta})")
    nodes, weights = _gauss_jacobi_arrays(n, alpha, beta)
    return QuadratureRule(f"jacobi(n={n},alpha={alpha},beta={beta})", nodes, weights,
                          alpha=alpha, beta=beta)


@lru_cache(maxsize=32)
def _tanh_sinh_full(level: int):
    """Double-exponential node set at step h = 2**-level.

    Returns (nodes, weights, gap_lo, gap_hi, companion) for the nodes whose
    endpoint gap min(1 + t, 1 - t) is at least 1e-280; ``companion`` is
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
    keep = gap_small >= _TS_FULL_GAP
    out = tuple(a[keep] for a in (nodes, weights, gap_lo, gap_hi, companion))
    for a in out:
        a.setflags(write=False)
    return out


def _cut(rule, cut_lo, cut_hi):
    """The arrays of a ``_tanh_sinh_full`` rule at the nodes whose gaps to the lower and
    the upper end are at least ``cut_lo`` and ``cut_hi``."""
    keep = (rule[2] >= cut_lo) & (rule[3] >= cut_hi)
    return tuple(a[keep] for a in rule)


def tanh_sinh(level: int) -> QuadratureRule:
    """Double-exponential rule on (-1, 1); each level halves the step size."""
    level = _rule_size("level", level, _MAX_TS_LEVEL)
    nodes, weights, gap_lo, gap_hi, _ = _cut(_tanh_sinh_full(level), _TS_PUBLIC_GAP, _TS_PUBLIC_GAP)
    return QuadratureRule(f"tanh-sinh(level={level})", nodes, weights, gap_lo, gap_hi,
                          level=level)


def _on_interval(lo, hi, t, glo, ghi):
    """Tanh-sinh nodes on (lo, hi) as exact offsets from the nearer end, and both end distances."""
    half = 0.5 * (hi - lo)
    d_lo, d_hi = half * glo, half * ghi
    return np.where(t <= 0.0, lo + d_lo, hi - d_hi), d_lo, d_hi


def _outer_sums(lo, hi, integrand, powers=(1.0, 1.0), outputs=(), zone=0.0):
    """Outer tanh-sinh integrals over the broadcast intervals (lo, hi), each output at its level.

    ``integrand(i, s, d_lo, d_hi)`` gets a batch's flat interval indices and
    the abscissae with their end distances (points x nodes), and returns the
    integrand there and its error bar, of shape ``outputs`` + pieces +
    (points, nodes): an output is the sum over its pieces of the domain (e.g.
    s and -s).  An empty interval gives 0 without the integrand.  Each level
    from ``_MIN_TS_LEVEL`` up is computed whole, ``_OUTER_NODES`` points x
    nodes a batch; an output stops at the first level whose companion agrees
    (or at ``_MAX_TS_LEVEL``) and keeps that level's value and bar, and an
    interval is evaluated while any of its outputs is open.  The stop state
    is one mask of the values' shape (outputs x intervals): a batch stores
    the outputs that stop in it and are not yet marked, then marks them,
    and the next level takes the intervals with an unmarked output.
    Returns the values and error estimates of shape ``outputs`` + the
    broadcast shape, and the highest level integrated, an int (0 when every
    interval is empty).  They are unchecked: the caller checks its result.
    ``powers`` are the ends' powers p: the integrand is at most about
    gap^{p-1} there, so each end is cut at gap eps^{1/p}, dropping about eps
    relative (a caller passes p <= 1 for an end it cannot bound so), but not
    below 1e-280 / (least half-width) while that is below eps, so no end
    distance underflows for intervals wider than about 1e-305.

    ``zone`` is an absolute cut at hi, for a caller whose integrand is
    negligible within that distance of hi (the flat edge of a support): no
    node within ``zone`` of hi is evaluated.  Each level's rule is cut for
    the widest interval, and a narrower one drops its own nodes in the zone:
    the integrand then gets the kept nodes alone, one per point, and the
    dropped ones count 0.  The dropped part counts in the bar through the
    tail at each interval's outermost kept node, which no level lowers, so
    an output also stops once its level difference is within that tail.  A
    cut that leaves a level with no node, in the rule or in one interval,
    raises DomainError naming the interval's ends.

    A lower power None makes lo a centre: (lo, hi) stands for (2 lo - hi,
    hi), whose two halves the pieces supply (s and its mirror 2 lo - s), and
    the rule is the t >= 0 half of the symmetric rule, with the centre's
    weight and its companion halved, as both pieces count that node.  Nodes
    then crowd only at hi, and there is no cut or tail at lo; ``d_lo`` is
    the distance to 2 lo - hi.  Each piece alone is not smooth at the
    centre, so an output's level difference is taken on the sum of its
    pieces, not piece by piece as for two ends.

    An estimate at level L is min(d, m (d/m)^{2(L-1)/L}), d the difference
    from the level below and m the integral of |integrand| (d itself at the
    last level if the levels never agreed: an integrand that is not smooth
    inside the interval converges only algebraically), plus the integrand's
    rounding and the parts beyond the cuts, about gap |integrand| / p at each
    cut end's outermost node.  A level about squares the relative error
    where the integrand is analytic; where it is flat and not analytic at an
    end (the edge of a compact support, as f at |x| beyond it in V, or g A
    at a in the duality pairing) double-exponential sums converge only like
    exp(-c / (h log(1/h))), not exp(-c / h).  At the step h = 2^-L the log
    of that error at level L is 2(L-1)/L times the one at level L-1, so the
    model's power is 1.5 at level 4, 1.6 at level 5 and tends to 2; the
    powers seen from level 3 to 4 at the bump's edge were 1.61-1.77.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    ends = np.concatenate((lo.ravel(), hi.ravel()))
    if not np.isfinite(ends).all():
        raise DomainError(f"non-finite evaluation point {ends[~np.isfinite(ends)][0].item()!r}")
    centred = powers[0] is None
    if centred:
        lo = 2.0 * lo - hi
    n_out = math.prod(outputs)
    values = np.zeros((n_out, lo.size), dtype=complex)
    est = np.zeros((n_out, lo.size))
    done = np.zeros(values.shape, dtype=bool)     # the outputs that stopped
    todo = np.flatnonzero(lo < hi)
    half_min = 0.5 * np.min(hi.flat[todo] - lo.flat[todo], initial=np.inf)
    floor = min(_EPS, _TS_FULL_GAP / half_min)
    # a centre keeps the nodes at gap 1 + t >= 1 from the lower end: t >= 0
    cut_lo, cut_hi = (1.0 if p is None else max(_EPS ** (1.0 / p), floor) for p in powers)
    top = 0     # the highest level integrated
    for level in range(_MIN_TS_LEVEL, _MAX_TS_LEVEL + 1):
        if not todo.size:
            break
        top = level
        widest = todo[np.argmax(hi.flat[todo] - lo.flat[todo])]
        t, w, glo, ghi, wc = _cut(_tanh_sinh_full(level), cut_lo,
                                  max(cut_hi, zone / (0.5 * (hi.flat[widest] - lo.flat[widest]))))
        if not t.size:
            _no_node(level, lo.flat[widest], hi.flat[widest])
        if centred:     # fresh arrays from _cut; node 0 is the centre t = 0
            w[0] *= 0.5
            wc[0] *= 0.5
        step = max(1, _OUTER_NODES // t.size)
        for j in range(0, todo.size, step):
            i = todo[j:j + step]
            half = 0.5 * (hi.flat[i] - lo.flat[i])
            s, d_lo, d_hi = _on_interval(lo.flat[i][:, None], hi.flat[i][:, None], t, glo, ghi)
            # the nodes beyond the zone, a prefix of each interval's (d_hi falls along the rule)
            keep = d_hi >= zone
            last = np.count_nonzero(keep, 1) - 1
            if (last < 0).any():
                empty = i[np.argmin(last)]
                _no_node(level, lo.flat[empty], hi.flat[empty])
            if keep.all():
                vals, bars = (np.reshape(v, (n_out, -1) + s.shape)
                              for v in integrand(i, s, d_lo, d_hi))
            else:   # the integrand at the kept nodes alone, one per point; 0 in the zone
                kept = integrand(i[np.nonzero(keep)[0]],
                                 *(a[keep][:, None] for a in (s, d_lo, d_hi)))
                vals, bars = (_scatter(np.reshape(v, (n_out, -1, v.shape[-2])), keep)
                              for v in kept)
            fine = vals @ w
            diff = fine - vals @ wc
            diff = (np.abs(diff.sum(1)) if centred else np.abs(diff).sum(1)) * half
            mags = (np.abs(vals) @ w).sum(1) * half
            # the hi end's tail at each interval's outermost kept node
            hi_tail = ghi[last] / powers[1] * np.abs(vals[..., np.arange(i.size), last])
            tail = hi_tail if centred else glo[0] / powers[0] * np.abs(vals[..., 0]) + hi_tail
            tail = tail.sum(1)
            # a NaN difference stops at once: no level makes it finite
            agree = ~(diff > math.sqrt(_EPS) * mags)
            stop = agree | (level == _MAX_TS_LEVEL)
            if zone:
                # no level lowers the tail of a cut at the zone: an output whose
                # difference is within it stops, with that difference in its bar
                stop |= diff <= hi_tail.sum(1) * half
            now = stop & ~done[:, i]
            values[:, i] = np.where(now, fine.sum(1) * half, values[:, i])
            # m >= d, so m = 0 (pieces outside a support) only with d = 0;
            # the floor keeps 0/0 out; the power model holds once levels agree:
            # m (d/m)^{2(L-1)/L} = d (d/m)^{(L-2)/L}
            level_err = np.where(agree, diff * np.minimum(
                1.0, (diff / np.maximum(mags, math.ulp(0.0))) ** ((level - 2) / level)), diff)
            # products with f and the measure, and the sum, round each term
            est[:, i] = np.where(now, level_err + (bars @ w).sum(1) * half + 8.0 * _EPS * mags
                                 + tail * half, est[:, i])
            done[:, i] |= stop
        todo = todo[~done[:, todo].all(0)]
    shape = outputs + lo.shape
    return values.reshape(shape), est.reshape(shape), top


def _no_node(level, lo, hi):
    raise DomainError(f"the end cuts leave no level-{level} node in the interval "
                      f"({float(lo)!r}, {float(hi)!r})")


def _scatter(part, keep):
    """Values at the nodes ``keep`` marks, (..., kept nodes), spread onto the
    (..., points, nodes) layout of ``keep`` with zeros elsewhere."""
    out = np.zeros(part.shape[:-1] + keep.shape, dtype=part.dtype)
    out[..., keep] = part
    return out


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


def _end_part(d, f):
    """The integral of |f| between an end and the node nearest it, from the
    nodes' end distances d (ascending) and values f: d[0] |f[0]| / p for
    |f| ~ d^{p-1}, the power p at most 1 and read off the nearest node and
    the next at another distance (inf for p <= 0, where the integral diverges)."""
    f, j = np.abs(f), np.argmax(d > d[0])     # j = 0 if all nodes round to one distance
    p = 1.0 + math.log(f[0] / f[j]) / math.log(d[0] / d[j]) if f[0] > f[j] > 0.0 else 1.0
    return d[0] * f[0] / p if p > 0.0 else math.inf


def integrate(rule: QuadratureRule, f, interval) -> EvalResult:
    """Integrate f over a finite interval with the affinely mapped rule.

    The error estimate compares against the next refinement (2n nodes for
    Gauss rules, level + 1 for tanh-sinh) and the refined value is returned;
    it adds 8 eps times the integral of |f| for the rounding of the sum.
    A tanh-sinh node that would round onto an end is cut, and the estimate
    adds the parts between each end and its nearest node (``_end_part``).
    Jacobi rules integrate f against the rule's endpoint weight transplanted
    onto the interval, i.e. f is only the smooth factor of the integrand.
    The refinement needs the rule's generator: a rule that ``gauss_legendre``,
    ``gauss_jacobi`` or ``tanh_sinh`` did not build raises DomainError.
    """
    try:
        twin = (tanh_sinh(rule.level) if rule.level is not None
                else gauss_jacobi(len(rule.nodes), rule.alpha, rule.beta))
    except DomainError:
        twin = None
    if twin is None or not (np.array_equal(twin.nodes, rule.nodes)
                            and np.array_equal(twin.weights, rule.weights)):
        raise DomainError(f"integrate needs a rule from gauss_legendre, gauss_jacobi or "
                          f"tanh_sinh, got the hand-built {rule.kind!r}")
    lo, hi = (_number("integration interval", end, real=True) for end in interval)
    if not lo < hi:
        raise DomainError(f"require lo < hi, got ({lo}, {hi})")
    half = 0.5 * (hi - lo)
    if rule.level is not None:
        refined = min(rule.level + 1, _MAX_TS_LEVEL)
        t, w, gap_lo, gap_hi, wc = _tanh_sinh_full(refined)
        xs = _on_interval(lo, hi, t, gap_lo, gap_hi)[0]
        inside = (xs > lo) & (xs < hi)      # end offsets below half an ulp round onto the end
        xs, w, wc = xs[inside], w[inside], wc[inside]
        method = f"{rule.kind}->level={refined}"
    else:
        # Gauss rule: the refined companion has the same weight exponents
        n = len(rule.nodes)
        t, w, wc = _gauss_jacobi_pair(n, rule.alpha, rule.beta)
        xs = 0.5 * (hi + lo) + half * t
        method = f"{rule.kind}->n={2 * n}"
    vals = _eval_integrand(f, xs)
    fine, coarse = (vals @ w) * half, (vals @ wc) * half
    ends = 0.0 if rule.level is None else (_end_part(xs - lo, vals)
                                            + _end_part(hi - xs[::-1], vals[::-1]))
    # the products with the weights and their sum round each term, as in _outer_sums
    rounding = 8.0 * _EPS * (np.abs(vals) @ w) * half
    return _point_result(fine, abs(fine - coarse) + ends + rounding, method)
