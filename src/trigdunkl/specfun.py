"""Gamma, Gauss hypergeometric, Jacobi, and Opdam special functions.

All evaluators are pure functions of their arguments and safe to call
concurrently.  The hypergeometric evaluator accepts complex upper and lower
parameters but only a real argument Z < 1, which is all the hyperbolic
substitution Z = -sinh^2(x/2) ever produces.  ``hyp2f1``, ``jacobi_phi``
and ``opdam_G`` share one evaluator (``_gauss_2f1``) with three branches:
the series in Z, Pfaff's map onto Z/(Z - 1), and the connection formula in
1/(1 - Z) for Z < -1 and upper parameters a long way apart (large lam in
G).  Each branch is a set of terms (``_direct_terms``, ``_pfaff_terms``,
``_connection_terms``): a prefactor, the second block's scale, their
rounding, and the parameters of two series that one loop sums
(``_block_sums``).  ``_gauss_2f1`` picks the branch, and one sum
(``_sum_terms``) adds its terms into F1 = 2F1(a, b; c; Z) and (1 - Z) F2,
with F2 = 2F1(a + 1, b + 1; c + 1; Z), weights the second (by a number, 0
outside G), forms the error bar and raises one NonConvergenceError.
"""

import cmath
import math
import sys

from .config import NUMERICS
from .errors import DomainError, NonConvergenceError
from .params import Multiplicity, _number

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
    x = _number("gamma_real argument", x, real=True)
    if x <= 0:
        raise DomainError(f"gamma_real is restricted to x > 0, got {x}")
    return math.gamma(x)


def loggamma_right_half(w) -> complex:
    """Principal log-Gamma for Re w > 0: shifted Stirling series, no reflection."""
    w = _number("loggamma_right_half argument", w)
    if w.real <= 0:
        raise DomainError(f"loggamma_right_half needs Re w > 0, got {w!r}")
    stirling, shift = _loggamma_parts(w)
    return stirling - shift


def _loggamma_parts(w):
    """``loggamma_right_half(w)`` as (Stirling value at w + m, sum of log(w + j), j < m).

    Unchecked: its callers pass Re w > 0 by construction (the connection
    branch's gate, ``Multiplicity``'s Re k > 0).
    """
    w = complex(w)
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


def hyp2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; z) for complex a, b, c and real z < 1.

    ``_gauss_2f1``'s branches: the series in z for -1/2 < z < 1; after
    Pfaff's transformation the series in w = z/(z-1) in [1/3, 1) for
    z <= -1/2; and for z < -1 with Re a = Re b, |a - b| >= 6 and a, b, c,
    c - a, c - b of positive real part, the connection formula's two series
    in u = 1/(1 - z) < 1/2.  a and b go there sorted by (real, imag) part,
    so the value does not depend on their order.  Raises
    NonConvergenceError (carrying the partial value and a bar for its
    rounding and the dropped tail) if ``NUMERICS.series_max_terms`` terms do
    not converge: on the direct branch from about z = 0.998 on
    (2F1(1, 1; 2; 0.999)), where no caller in the package goes, and on the
    Pfaff branch where w is near 1 (2F1(1, 1; 2; -5000)).
    """
    z = _number("hyp2f1 argument", z, real=True)
    if z >= 1.0:
        raise DomainError(f"hyp2f1 requires real z < 1, got {z}")
    a, b, c = (_number(f"hyp2f1 parameter {name}", v) for name, v in zip("abc", (a, b, c)))
    if c.imag == 0.0 and c.real <= 0.0 and c.real.is_integer():
        raise DomainError(f"hyp2f1 lower parameter c={c.real} is a non-positive integer")
    if z == 0.0:
        return 1.0 + 0.0j
    a, b = sorted((a, b), key=lambda v: (v.real, v.imag))
    return _gauss_2f1(a, b, c, z)[0]


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
    alpha, beta = _number("alpha", alpha), _number("beta", beta)
    lam = _number("spectral parameter", lam)
    r = alpha + beta + 1.0
    zz = _minus_sinh_sq(_number("evaluation point", t, real=True))
    return hyp2f1((r + 1j * lam) / 2, (r - 1j * lam) / 2, alpha + 1.0, zz)


# Rounding per step of ``_block_sums``, first order in u = eps/2, for
# parameters with positive real parts (in G: real lam, Re k > 0).  Forming
# the ratio and the term: at most 15.5 u.  That is 1 u for each shifted
# parameter (a, b and c plus m or n), 5 u for the one complex quotient
# (CPython's scaled division, measured at most 2.8 u), and three products
# and w / m: in the direct form a complex product in g (sqrt(5) u), w / m
# and g q (1 u each); in the Pfaff form (b + n) w / m (2 u) and g q
# (sqrt(5) u); in the connection form the quotient times w / m (2 u),
# (a + n) q (sqrt(5) u) and, for the second block, r1 + q (1 u); then the
# product into the term (sqrt(5) u).
# The inputs: a, b (or c - b) and c (or a - b + 1) are each off by a few
# roundings, and with positive real parts |p + n| >= |p|, so each adds at
# most 3 u per factor (9 u); w, from -sinh^2(x/2) and mapped to z/(z - 1)
# or 1/(1 - z) or not, is off by at most 5.5 u, and w^n carries that n
# times.  That is at most 30 u per step, so term n is off by at most
# 15 eps n |t_n|; each partial sum rounds by at most u of its magnitude.
_STEP_ROUNDING = 15.0
# The caller's combination F1 + weight (1 - z) F2.  G's weight a / c tanh(x/2)
# is off by at most 12 u (2 u each for a and c, 5 u for the quotient, 3 u for
# tanh and the product).  The Pfaff and connection terms count their scale's
# rounding in their rate.  The direct term's scale 1 - z is off by 2.8 u (1 u,
# and z's 5.5 u times |z| / (1 - z) < 1/3) and its product with s2 by 1 u;
# both round the second block only.  With the product by the weight
# (sqrt(5) u) and the addition that is 19.1 u of |weight (1 - z) s2|, 16.9 u
# with the quotient's measured 2.8 u, and 1 u of |s1|.  The bar counts 16 u of each
# block's summed term magnitudes here, and 2.7 u more in the loop's last
# three partial sums, counted at u each though their terms are below 1e-17 of
# the sum: 18.7 u, which covers the measured figure.
_COMBINE_ROUNDING = 8.0


def _block_sums(a, b, c, w, form):
    """The two Gauss series of ``_gauss_2f1`` from one loop over their terms.

    ``form`` "direct": F(a, b; c; w) and F(a + 1, b + 1; c + 1; w), whose
    term ratios at step n are g_n w/(n+1) and g_{n+1} w/(n+1) with g_n =
    (a + n)(b + n)/(c + n).  "pfaff": F(a, b; c; w) and F(a + 1, b; c + 1;
    w), with ratios g_n (b + n) w/(n+1) and g_{n+1} (b + n) w/(n+1) and g_n
    = (a + n)/(c + n).  "connection": F(a, b; c; w) and F(a + 1, b; c; w),
    with ratios (a + n) q_n and (a + n + 1) q_n and q_n = (b + n)/(c + n)
    w/(n+1).  Each step forms one complex quotient, by c + n + 1 or c + n,
    and divides by nothing else but n + 1.  The loop stops once both terms
    have stayed below 1e-17 of their sums for three steps, or at
    ``NUMERICS.series_max_terms`` steps.

    Returns (s1, s2, e1, e2, steps, converged): e_i bounds the rounding of
    s_i (``_STEP_ROUNDING`` per step for each term, u per partial sum and
    ``_COMBINE_ROUNDING`` eps of the summed term magnitudes for the caller's
    combination) plus the dropped tail |t| r/(1 - r), with r the larger of
    |w| and the last term ratio (inf if r >= 1).
    """
    direct, connection = form == "direct", form == "connection"
    g = a * b / c if direct else a / c
    s1 = s2 = t1 = t2 = 1.0 + 0.0j
    # summed |t_i|, and the sum of those running sums, sum_i (N + 1 - i) |t_i|
    m1 = m2 = c1 = c2 = 1.0
    streak = 0
    for n in range(NUMERICS.series_max_terms):
        m = n + 1
        if connection:
            q = (b + n) / (c + n) * (w / m)
            r1 = (a + n) * q
            r2 = r1 + q
        else:
            if direct:
                gn = (a + m) * (b + m) / (c + m)
                q = w / m
            else:
                gn = (a + m) / (c + m)
                q = (b + n) * w / m
            r1 = g * q
            r2 = gn * q
            g = gn
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
    bars = []
    for mags, cum, last, ratio in ((m1, c1, a1, r1), (m2, c2, a2, r2)):
        r = max(abs(w), abs(ratio))
        tail = last * r / (1.0 - r) if r < 1.0 else math.inf
        # sum_i i |t_i| = (N + 1) mags - cum for terms t_0 .. t_N
        weighted = (m + 1) * mags - cum
        bars.append(_EPS * (_STEP_ROUNDING * weighted + 0.5 * cum + _COMBINE_ROUNDING * mags)
                    + tail)
    return s1, s2, bars[0], bars[1], m, streak >= 3


# Where ``_gauss_2f1`` takes the connection branch.  u = 1/(1 - z) below
# 1/2 (z < -1) is where u is smaller than Pfaff's w = z/(z - 1) = 1 - u.
# The parameter gap |a - b| from 6 on (lam >= 3 in G) is where the
# connection route becomes the more accurate one.  Against 40-digit mpmath
# on G at 1.77 <= |x| <= 3, real and complex k (Re k in [0.1, 3]), 60
# points per lam band, the median relative errors of the Pfaff series and
# of the connection terms were 7.3e-16 and 6.0e-15 at lam in [1, 2],
# 2.9e-15 and 6.1e-15 in [2, 3], 1.6e-14 and 7.1e-15 in [3, 4], 4.0e-13
# and 9.9e-15 in [4, 6], and 2.5e-11 and 8.7e-15 in [6, 8]: the Pfaff
# series cancel more as lam grows, while the connection terms' Gamma
# factors cost a fixed few digits.
_CONNECTION_MAX_U = 0.5
_CONNECTION_MIN_GAP = 6.0
# Rounding of ``_loggamma_parts`` per unit of |Stirling value| + |shift|, in
# eps.  Against 40-digit mpmath on four sets of 4,000 arguments in the
# connection branch's range (numpy default_rng seeds 0-3, Re w uniform in
# (0, 4], Im w in [-80, 80]) the largest error per set is 1.89-2.21 eps of
# the two parts before their final subtraction rounds and 1.93-2.21 eps
# after it (1.4-1.7e-13 absolute); it is largest where |Im w| is large,
# since the product (w - 1/2) log w, of about the Stirling value's size,
# takes the rounding of log w times |w|.  That leaves about 0.3 eps of 2.5
# for the argument (c - p or 1 + q - p) being off by u |w|, which moves the
# value by about u |w log w|, up to u = 0.5 eps of the Stirling value: the
# sum stays within 2.5 unless both are near their largest at one w.
_LOGGAMMA_ROUNDING = 2.5


def _power_rounding(a, log_1mz):
    """Relative rounding of (1 - z)^{-a} = exp(-a log(1 - z)), times a product.

    The exponent is off by at most u (5 |a| + 4 |a| log(1 - z)), through the
    rounding of z (5 u), of a (2 u), of the log and of the product; the
    exponential and one product add 4 u.
    """
    return _EPS * (abs(a) * (2.5 + 2.0 * log_1mz) + 2.0)


def _direct_terms(a, b, c, z):
    """``_gauss_2f1``'s direct branch, (method, argument, terms): the series in z itself.

    Its one term sums F(a, b; c; z) and F(a + 1, b + 1; c + 1; z); the
    scale 1 - z makes the second block (1 - z) F2, as on the other branches.
    Its rate is 0: 1 - z and its product round the second block only, and
    ``_COMBINE_ROUNDING`` counts them.
    """
    return "direct", z, ((1.0, 1.0 - z, 0.0, a, b, c),)


def _pfaff_terms(a, b, c, z):
    """``_gauss_2f1``'s Pfaff branch, (method, argument, terms), for z < 1.

    Pfaff's transformation (DLMF 15.8.1) onto w = z/(z - 1) in [1/3, 1) for
    z <= -1/2: 2F1(a, b; c; z) = (1 - z)^{-a} 2F1(a, c - b; c; w), and
    (1 - z) 2F1(a + 1, b + 1; c + 1; z) = (1 - z)^{-a} 2F1(a + 1, c - b;
    c + 1; w).  Its one term has the prefactor (1 - z)^{-a}, rounded by
    ``_power_rounding``, and scale 1.
    """
    log_1mz = math.log1p(-z)    # 1 - z > 0, so the power is principal and real based
    pre = cmath.exp(-a * log_1mz)
    return "pfaff", z / (z - 1.0), ((pre, 1.0, _power_rounding(a, log_1mz), a, c - b, c),)


def _connection_terms(a, b, c, z):
    """``_gauss_2f1``'s connection branch, (method, argument, terms), for z < 0.

    A&S 15.3.8: 2F1(a, b; c; z) is the sum over (p, q) = (a, b) and (b, a)
    of C_p (1 - z)^{-p} 2F1(p, c - q; p - q + 1; u) in u = 1/(1 - z), with
    C_p = Gamma(c) Gamma(q - p) / (Gamma(q) Gamma(c - p)) and Gamma(q - p)
    taken as Gamma(1 + q - p) / (q - p), so that every log-Gamma argument
    has a positive real part.  (1 - z) 2F1(a + 1, b + 1; c + 1; z) is the
    same sum with (c/q) C_p (1 - z)^{-p} 2F1(p + 1, c - q; p - q + 1; u), so
    each term has the prefactor C_p (1 - z)^{-p} and scale c/q.  Where
    b = conj(a) and c is real the (b, a) term is the conjugate of the
    (a, b) term, and only that one is returned: ``_sum_terms`` doubles its
    real parts.

    A term's rate is the prefactor's rounding: ``_LOGGAMMA_ROUNDING`` per
    unit of each log-Gamma's two parts, u per partial sum of the exponent,
    ``_power_rounding`` for the power of 1 - z (and the product into the
    first block), and 7 eps for c/q (8 u), its two products into the second
    block (4.5 u) and the sum of the terms (1 u).
    """
    log_1mz = math.log1p(-z)
    pairs = ((a, b),) if b == a.conjugate() and c.imag == 0.0 else ((a, b), (b, a))
    gamma_c = _loggamma_parts(c)
    terms = []
    for p, q in pairs:
        # the largest log-Gamma first: the next two cancel most of its
        # imaginary part, so the partial sums, each rounded by u, shrink
        log_pre = rounding = 0.0
        for (stirling, shift), sign in ((_loggamma_parts(1.0 + q - p), 1.0),
                                        (_loggamma_parts(q), -1.0),
                                        (_loggamma_parts(c - p), -1.0), (gamma_c, 1.0)):
            log_pre += sign * (stirling - shift)
            rounding += _LOGGAMMA_ROUNDING * (abs(stirling) + abs(shift)) + 0.5 * abs(log_pre)
        log_rest = cmath.log(q - p) + p * log_1mz
        log_pre -= log_rest
        rate = (_EPS * (rounding + 0.5 * (abs(log_rest) + abs(log_pre)) + 7.0)
                + _power_rounding(p, log_1mz))
        terms.append((cmath.exp(log_pre), c / q, rate, p, c - q, p - q + 1.0))
    return "connection", 1.0 / (1.0 - z), terms


def _gauss_2f1(a, b, c, z, weight=0.0):
    """F1 + weight (1 - z) F2, F1 = 2F1(a, b; c; z) and F2 = 2F1(a + 1, b + 1; c + 1; z).

    For real z < 1; the one evaluator of ``hyp2f1``, ``jacobi_phi``
    (weight 0: F1 alone) and ``opdam_G`` (weight a/c tanh(x/2)).  It takes
    the connection branch (``_connection_terms``) where u = 1/(1 - z) <
    ``_CONNECTION_MAX_U`` (z < -1), Re a = Re b, |a - b| >=
    ``_CONNECTION_MIN_GAP``, and a, b, c, c - a and c - b have positive real
    parts; everywhere else the direct branch (``_direct_terms``) for
    z > -1/2 and Pfaff's (``_pfaff_terms``) below.  ``_sum_terms`` adds up
    the branch's terms and returns (value, est_error, method, steps).
    """
    connection = (1.0 / (1.0 - z) < _CONNECTION_MAX_U and a.real == b.real
                  and abs(a - b) >= _CONNECTION_MIN_GAP
                  and min(a.real, c.real, (c - a).real, (c - b).real) > 0.0)
    branch = _connection_terms if connection else _direct_terms if z > -0.5 else _pfaff_terms
    return _sum_terms(z, weight, *branch(a, b, c, z))


def _sum_terms(z, weight, method, w, terms):
    """F1 + weight (1 - z) F2 from one branch's terms, the one sum of ``_gauss_2f1``.

    The branch (``_direct_terms``, ``_pfaff_terms`` or ``_connection_terms``)
    gives its method, its argument w (z, z/(z - 1) or 1/(1 - z)) and its
    terms (pre, scale, rate, p, q, r).  Returns (value, est_error, method,
    steps): the branch's name, "direct", "pfaff" or "connection", and the
    steps of its series loops.

    ``_block_sums`` sums each term's two series, S1 and S2, in the branch's
    form at (p, q, r; w) in one loop.  The term adds pre S1 to F1 and
    pre scale S2 to (1 - z) F2, and to each bar its series' bar times the
    size of its factor plus ``rate`` (the factors' relative rounding) times
    the size of its product.  A weight of 0 leaves F1's value and bar as
    they are.

    Raises NonConvergenceError, naming z and the mapped argument and
    carrying the partial value and its bar, where
    ``NUMERICS.series_max_terms`` steps do not converge: on the direct
    branch near z = 1, and on the Pfaff branch where w is near 1 (large
    |z|: G at lam < 3 from about |x| = 8).  The connection branch's
    argument is below 1/2; its series converge within the cap unless |a|
    or |b| is in the thousands.
    """
    f1 = f2 = -0j       # adds nothing, not even to a negative zero
    e1 = e2 = 0.0
    steps, converged = 0, True
    for pre, scale, rate, p, q, r in terms:
        s1, s2, b1, b2, n, done = _block_sums(p, q, r, w, method)
        steps, converged = steps + n, converged and done
        t1, t2 = pre * s1, pre * scale * s2
        f1, f2 = f1 + t1, f2 + t2
        e1 += abs(pre) * b1 + rate * abs(t1)
        e2 += abs(pre * scale) * b2 + rate * abs(t2)
    if method == "connection" and len(terms) == 1:      # a conjugate pair's term
        f1, f2, e1, e2 = 2.0 * f1.real + 0j, 2.0 * f2.real + 0j, 2.0 * e1, 2.0 * e2
    if weight:
        f1, e1 = f1 + weight * f2, e1 + abs(weight) * e2
    if not converged:
        mapped = {"pfaff": f", Pfaff-mapped to w={w}", "connection": f", mapped to u={w}"}
        raise NonConvergenceError(
            f"2F1 series did not converge within {NUMERICS.series_max_terms} terms "
            f"(z={z}{mapped.get(method, '')})", partial=f1, est_error=e1)
    return f1, e1, method, steps


def opdam_G(k: Multiplicity, lam, x: float) -> complex:
    """Eigenfunction G_{i lam} deforming the exponential e^{i lam x}.

    Built from the two hypergeometric blocks
        F1 = 2F1(a, b; c; z),  F2 = 2F1(a + 1, b + 1; c + 1; z)
    with rho = k1/2 + k2, a = rho + i lam, b = rho - i lam, c = k1 + k2 + 1/2
    and z = -sinh^2(x/2), as
        G = F1 + a / (2 k1 + 2 k2 + 1) * sinh(x) * F2
          = F1 + (a/c) tanh(x/2) (1 - z) F2.
    Normalized so G(0) = 1 for every admissible parameter pair.

    Both blocks come from ``hyp2f1``'s evaluator (``_gauss_2f1``), in one
    loop, the second scaled by 1 - z on every branch, so G's weight is the
    one number (a/c) tanh(x/2).  For z <= -1/2 Pfaff's transformation onto
    w = z/(z - 1) gives F1 = (1 - z)^{-a} H and (1 - z) F2 = (1 - z)^{-a} P
    with H = 2F1(a, c - b; c; w) and P = 2F1(a + 1, c - b; c + 1; w).
    Beyond |x| = 2 asinh(1) = 1.76 (z < -1) at real lam >= 3 the connection
    formula takes its place, in u = 1/(1 - z) = 1/cosh^2(x/2): there the
    Pfaff series cancel and lose digits as lam grows, and the connection
    terms do not.  F2 is not taken from the derivative identity
    F2 = c/(ab) dF1/dz (DLMF 15.5.1), which divides by b = rho - i lam, and
    b vanishes at lam = -i rho; the loops divide by nothing that can vanish
    for Re k > 0.  Raises NonConvergenceError carrying G's partial value and
    its bar where the Pfaff series do not converge (lam < 3 or not real,
    from about |x| = 8, where w is near 1); ``_opdam_G`` also returns the
    bar, the branch and its series steps.
    """
    return _opdam_G(k, lam, x)[0]


def _opdam_G(k: Multiplicity, lam, x: float):
    """(G_{i lam}(x), est_error, method, steps) as in ``opdam_G`` and ``_gauss_2f1``."""
    lam = _number("spectral parameter", lam)
    x = _number("evaluation point", x, real=True)
    s = complex(k.k1) + complex(k.k2)
    a, b, c = k.rho + 1j * lam, k.rho - 1j * lam, s + 0.5
    # a / (2s + 1) sinh(x) F2 = a / c tanh(x/2) (1 - z) F2, and tanh does
    # not overflow where sinh does (from |x| = 711 on)
    return _gauss_2f1(a, b, c, _minus_sinh_sq(x / 2.0), a / c * math.tanh(x / 2.0))
