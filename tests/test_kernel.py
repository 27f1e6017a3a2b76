import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from trigdunkl import (
    DomainError,
    EvaluationError,
    KernelPoint,
    Multiplicity,
    apply_V,
    apply_Vt,
    bump,
    constant_c,
    dktilde_dy,
    jacobi_kernel,
    kernel_K,
    kernel_K_limit_k1zero,
    kernel_K_limit_k2zero,
    kernel_K_mourou,
    ktilde,
    plane_wave,
    sigma,
    weight_A,
)
from trigdunkl import kernel
from trigdunkl.kernel import (_MAX_TERMS, _cosh_gap_integral, _k_axis, _kernel_values, _powers,
                              _series_rows, _times_u)
from trigdunkl.quadrature import _gauss_jacobi_arrays, _tanh_sinh_full

K_GRID = [(a, b) for a in (0.3, 0.7, 1.5) for b in (0.3, 0.7, 1.5)]
X_GRID = (0.6, -0.6, 1.3, -1.3, 2.4, -2.4)
Y_FRACS = (0.0, 0.2, -0.2, 0.7, -0.7, 0.95, -0.95)
# both components small and unequal, down to k1 + k2 below eps
SMALL_K = [(3e-5, 2e-5), (1e-6, 3e-7), (1e-8, 3e-9), (1e-12, 7e-13), (1e-15, 5e-16),
           (1e-16, 5e-17), (1e-17, 1e-17)]


class TestMultiplicity:
    def test_derived_rho(self):
        k = Multiplicity(0.5, 1.0)
        assert k.rho == 1.25
        assert k.real_positive

    def test_complex_flagged(self):
        assert not Multiplicity(0.5 + 0.2j, 1.0).real_positive

    def test_stored_types(self):
        # float when the imaginary part is 0, complex otherwise, whatever came in
        k = Multiplicity(1, 2)
        assert type(k.k1) is float and k.k1 == 1.0 and type(k.k2) is float
        k = Multiplicity(0.5 + 0j, 1)
        assert k.real_positive and type(k.k1) is float and k.k1 == 0.5
        k = Multiplicity(0.5 + 0.2j, 1)
        assert type(k.k1) is complex and type(k.k2) is float and not k.real_positive
        assert type(Multiplicity(np.complex128(0.5 - 0.2j), 1.0).k1) is complex

    @pytest.mark.parametrize("k1, k2", [(0.0, 1.0), (-0.5, 1.0), (1.0, -2.0),
                                        (math.nan, 1.0), (-0.1 + 1j, 0.5)])
    def test_nonpositive_real_part_rejected(self, k1, k2):
        with pytest.raises(DomainError):
            Multiplicity(k1, k2)


class TestKernelPoint:
    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (0.5, 0.7)])
    def test_rejects_boundary(self, x, y):
        with pytest.raises(DomainError):
            KernelPoint(x, y)

    def test_accepts_interior(self):
        KernelPoint(-1.5, 1.2)


class TestWeightA:
    def test_zero_at_origin(self):
        assert weight_A(Multiplicity(0.5, 0.5), 0.0) == 0.0

    def test_hand_value(self):
        val = 2.0 * math.sinh(0.5) * 2.0 * math.sinh(1.0)
        assert weight_A(Multiplicity(0.5, 0.5), 1.0) == pytest.approx(val, rel=1e-14)

    def test_even(self):
        k = Multiplicity(0.8, 1.7)
        for x in (0.3, 1.1, 2.9):
            assert weight_A(k, x) == pytest.approx(weight_A(k, -x), rel=1e-14)

    def test_complex_parameters(self):
        val = weight_A(Multiplicity(0.5 + 0.3j, 0.7), 1.2)
        assert isinstance(val, complex)
        assert abs(val) > 0


class TestConstantC:
    def test_half_half(self):
        assert constant_c(Multiplicity(0.5, 0.5)) == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_one_one(self):
        assert constant_c(Multiplicity(1.0, 1.0)) == pytest.approx(48.0, rel=1e-12)

    def test_positive_on_grid(self):
        for k1, k2 in K_GRID:
            assert constant_c(Multiplicity(k1, k2)) > 0

    def test_complex_rejected(self):
        with pytest.raises(DomainError):
            constant_c(Multiplicity(0.5 + 0.1j, 0.5))

    def test_log_grid_against_mpmath(self):
        # finite wherever c is a double, also where a Gamma overflows
        mp = pytest.importorskip("mpmath")
        grid = np.geomspace(0.02, 400.0, 25).tolist()
        finite = 0
        for k1 in grid:
            for k2 in grid:
                with mp.workdps(30):
                    want = (mp.mpf(2) ** (3 * (mp.mpf(k1) + k2)) * mp.gamma(mp.mpf(k1) + k2 + 0.5)
                            / (mp.sqrt(mp.pi) * mp.gamma(k1) * mp.gamma(k2)))
                if want > sys.float_info.max:
                    with pytest.raises(EvaluationError, match="constant_c gave the non-finite"):
                        constant_c(Multiplicity(k1, k2))
                else:
                    finite += 1
                    assert constant_c(Multiplicity(k1, k2)) == pytest.approx(float(want), rel=1e-12)
        assert finite == 562
        assert constant_c(Multiplicity(100, 100)) == pytest.approx(1.498019135604324e242, rel=1e-12)

    def test_beyond_lgamma_range_raises(self):
        with pytest.raises(EvaluationError):
            constant_c(Multiplicity(1e308, 1e308))


class TestSigma:
    def test_hand_values(self):
        assert sigma(1.0, 0.0, 0.0) == pytest.approx(math.e - 1.0, rel=1e-14)
        assert sigma(-1.0, 0.0, 0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_positive_on_ordered_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0)
            if x == 0.0:
                continue
            z = rng.uniform(0.0, abs(x))
            y = rng.uniform(-z, z)
            assert sigma(x, y, z) > 0.0


class TestKernelK:
    def test_vanishes_as_y_reaches_x(self):
        k = Multiplicity(1.0, 1.0)
        res = kernel_K(k, 1.0, 1.0 - 1e-12)
        assert 0 <= res.value < 1e-6

    def test_matches_assembled_kernel(self):
        k = Multiplicity(0.5, 0.5)
        direct = kernel_K(k, 1.0, 0.3)
        assembled = kernel_K_mourou(k, 1.0, 0.3)
        assert abs(direct.value - assembled.value) <= 1e-8 * abs(direct.value)

    def test_oracle_equivalence_grid(self):
        for k1, k2 in K_GRID:
            k = Multiplicity(k1, k2)
            for x in X_GRID:
                for fr in Y_FRACS:
                    y = fr * abs(x)
                    direct = kernel_K(k, x, y).value
                    assembled = kernel_K_mourou(k, x, y).value
                    assert abs(direct - assembled) <= 1e-7 * abs(direct), (k1, k2, x, y)

    def test_positive_on_grid(self):
        k = Multiplicity(0.5, 0.5)
        for x in X_GRID:
            for fr in Y_FRACS:
                assert kernel_K(k, x, fr * abs(x)).value > 0

    def test_complex_parameters_continuity(self):
        # a vanishing imaginary part lands on the real-path value
        x, y = 1.1, 0.4
        real_val = kernel_K(Multiplicity(0.8, 0.6), x, y).value
        near_val = kernel_K(Multiplicity(0.8 + 1e-8j, 0.6), x, y).value
        assert abs(near_val - real_val) <= 1e-6 * abs(real_val)
        assert abs(near_val.imag) <= 1e-6 * abs(real_val)

    def test_complex_parameters_continuity_operators(self):
        # the operators' inner rule switches from Gauss-Jacobi to tanh-sinh
        real_k, near_k = Multiplicity(0.5, 0.7), Multiplicity(0.5 + 1e-8j, 0.7)
        for op, fn in ((apply_V, plane_wave(1.5)), (apply_Vt, bump(2.0))):
            real_val = op(real_k, fn, 0.5).value
            near_val = op(near_k, fn, 0.5).value
            assert abs(near_val - real_val) <= 1e-6 * abs(real_val), op.__name__

    def test_complex_parameters_oracle(self):
        k = Multiplicity(0.9 + 0.25j, 0.7 - 0.1j)
        direct = kernel_K(k, 1.2, -0.5)
        assembled = kernel_K_mourou(k, 1.2, -0.5)
        assert abs(direct.value - assembled.value) <= 1e-7 * abs(direct.value)

    def test_point_validation(self):
        with pytest.raises(DomainError):
            kernel_K(Multiplicity(0.5, 0.5), 1.0, 1.5)

    @pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
    def test_point_value_is_batch_value(self, imag):
        # one sum over one rule: the point call adds only the error bar
        rng = np.random.default_rng(20261018)
        for _ in range(100):
            k = Multiplicity(rng.uniform(0.05, 3.0) + 1j * imag * rng.uniform(-1.0, 1.0),
                             rng.uniform(0.05, 3.0))
            x = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 3.0)
            y = rng.uniform(-0.9999, 0.9999) * abs(x)
            res = kernel_K(k, x, y)
            assert (res.value, res.est_error) == _kernel_values(k, x, y), (k, x, y)

    @pytest.mark.parametrize("k", [Multiplicity(0.7, 0.4), Multiplicity(0.5 + 0.2j, 0.7)],
                             ids=["real", "complex"])
    def test_no_quadrature_rule(self, k):
        # closed form: no rule is built or looked up (the nested "defining"
        # form of ktilde keeps its outer rule)
        before = (_gauss_jacobi_arrays.cache_info(), _tanh_sinh_full.cache_info())
        kernel_K(k, 1.2, -0.5)
        jacobi_kernel(k, 1.2, 0.5)
        _kernel_values(k, np.array([0.7, -2.0]), np.array([0.3, 1.1]))
        ktilde(k, 1.2, 0.5, "direct")
        ktilde(k, 1.2, 0.5, "byparts")
        dktilde_dy(k, 1.2, 0.5)
        kernel_K_mourou(k, 1.2, -0.5)
        assert (_gauss_jacobi_arrays.cache_info(), _tanh_sinh_full.cache_info()) == before

    def test_non_finite_value_raises(self):
        # the true value ~7.5e308 exceeds the largest double
        with pytest.raises(EvaluationError):
            kernel_K(Multiplicity(0.5, 0.5), 1e-309, 5e-310)

    @pytest.mark.parametrize("k1, k2", SMALL_K)
    def test_small_k_routes_agree_within_error_bars(self, k1, k2):
        # independent of mpmath: the direct and assembled kernels, and the
        # two closed Ktilde forms, each agree within the sum of their bars
        k = Multiplicity(k1, k2)
        x = np.repeat([0.5, 1.5, 3.0, -2.2], 5)
        y = np.tile([0.0, 0.5, -0.9, 0.99, -0.9999], 4) * np.abs(x)
        for one, other in ((kernel_K(k, x, y), kernel_K_mourou(k, x, y)),
                           (ktilde(k, x, y, "direct"), ktilde(k, x, y, "byparts"))):
            gap = np.abs(one.value - other.value)
            assert np.all(gap <= one.est_error + other.est_error)


def _kernel_reference(k1, k2, x, y):
    """K(x, y) from its defining integral at 50 digits.

    With u = cosh(z/2) = b + (a - b) s the endpoint powers become
    s^{k1-1} (1-s)^{k2-1}, and a - b = 2 sinh((X+Y)/2) sinh((X-Y)/2) keeps
    the interval length free of cancellation.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        k1, k2, x, y = (mp.mpf(v) for v in (k1, k2, x, y))
        xh, yh = abs(x) / 2, abs(y) / 2
        a, b = mp.cosh(xh), mp.cosh(yh)
        d = 2 * mp.sinh((xh + yh) / 2) * mp.sinh((xh - yh) / 2)
        c = (2 ** (3 * (k1 + k2)) * mp.gamma(k1 + k2 + 0.5)
             / (mp.sqrt(mp.pi) * mp.gamma(k1) * mp.gamma(k2)))
        weight = abs(2 * mp.sinh(x / 2)) ** (2 * k1) * abs(2 * mp.sinh(x)) ** (2 * k2)

        def integrand(s):
            u = b + d * s
            sig = mp.exp(x) + 1 - 2 * mp.exp(-y / 2) * u
            return sig * (a + u) ** (k2 - 1) * s ** (k1 - 1) * (1 - s) ** (k2 - 1)

        integral = mp.quad(integrand, [0, 0.5, 1])
        return float(mp.sign(x) * c / (2 * weight) * 2 ** (k2 - 1) * d ** (k1 + k2 - 1)
                     * integral)


def _kernel_closed_form(k1, k2, x, y):
    """``_kernel_reference`` at 40 digits, with the integral in closed form.

    With z = d / (a + b), Euler's integral gives
    integral of s^{k1-1+j} (1-s)^{k2-1} (1 + z s)^{k2-1} ds
    = B(k1+j, k2) 2F1(1-k2, k1+j; k1+k2+j; -z), j = 0, 1, and sigma is
    s0 - s1 s with s0 = 2 e^{(x-y)/2} sinh((x+y)/2), s1 = 2 e^{-y/2} d.
    Complex k1, k2 take principal powers; the result is complex then.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        value = complex(_kernel_mp(mp, k1, k2, mp.mpf(x), mp.mpf(y)))
        return value.real if value.imag == 0.0 else value


def _kernel_mp(mp, k1, k2, x, y, gap=None):
    """``_kernel_closed_form`` as an mpmath number at the working precision.

    ``gap`` is |x| - |y| if given, so that points next to |x| = |y| keep it.
    """
    k1, k2 = mp.mpmathify(k1), mp.mpmathify(k2)
    xh, yh = abs(x) / 2, abs(y) / 2
    a, b = mp.cosh(xh), mp.cosh(yh)
    d = 2 * mp.sinh((xh + yh) / 2) * mp.sinh((xh - yh) / 2 if gap is None else gap / 4)
    c = (2 ** (3 * (k1 + k2)) * mp.gamma(k1 + k2 + 0.5)
         / (mp.sqrt(mp.pi) * mp.gamma(k1) * mp.gamma(k2)))
    weight = abs(2 * mp.sinh(x / 2)) ** (2 * k1) * abs(2 * mp.sinh(x)) ** (2 * k2)
    z = d / (a + b)
    s0 = 2 * mp.exp((x - y) / 2) * mp.sinh((x + y) / 2)
    s1 = 2 * mp.exp(-y / 2) * d
    integral = (a + b) ** (k2 - 1) * (
        s0 * mp.beta(k1, k2) * mp.hyp2f1(1 - k2, k1, k1 + k2, -z)
        - s1 * mp.beta(k1 + 1, k2) * mp.hyp2f1(1 - k2, k1 + 1, k1 + k2 + 1, -z))
    return mp.sign(x) * c / (2 * weight) * 2 ** (k2 - 1) * d ** (k1 + k2 - 1) * integral


class TestKernelReference:
    # y -> -x and tiny |x|, where the affine factor sigma is a small
    # difference of two numbers near 2
    @pytest.mark.parametrize("k1, k2", [(0.5, 0.5), (1.5, 0.3)])
    @pytest.mark.parametrize("x, fr", [(2.4, -0.9999), (0.3, -0.9999), (1e-4, -0.9),
                                       (1e-6, 0.5)])
    def test_matches_mpmath(self, k1, k2, x, fr):
        y = fr * abs(x)
        ref = _kernel_reference(k1, k2, x, y)
        res = kernel_K(Multiplicity(k1, k2), x, y)
        assert abs(res.value - ref) <= 1e-13 * abs(ref)
        assert abs(res.value - ref) <= res.est_error

    @pytest.mark.parametrize("k1, k2", [(0.5, 0.5), (1.5, 0.3)])
    def test_subnormal_gap_within_error_bar(self, k1, k2):
        # the gap |x| - |y| ~ 2e-312 is subnormal, so halving it rounds it
        x = 2e-308
        y = -0.9999 * x
        pytest.importorskip("mpmath")
        ref = _kernel_closed_form(k1, k2, x, y)
        res = kernel_K(Multiplicity(k1, k2), x, y)
        assert abs(res.value - ref) <= res.est_error
        assert res.est_error <= 1e-10 * abs(ref)

    def test_error_bars_cover_reference(self):
        # scan-like points, where the exponent's rounding exceeds 8 eps
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(611)
        for fr in (0.9999, -0.9999, 0.99, -0.99, None) * 48:
            k1, k2 = rng.uniform(0.1, 3.0, 2)
            x = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
            y = (rng.uniform(-0.95, 0.95) if fr is None else fr) * abs(x)
            ref = _kernel_closed_form(k1, k2, x, y)
            res = kernel_K(Multiplicity(k1, k2), x, y)
            assert abs(res.value - ref) <= res.est_error, (k1, k2, x, y)

    def test_error_bars_cover_reference_complex_k(self):
        # the constant's log-Gamma parts cancel, so their size is in the bar
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(612)
        for fr in (0.9999, -0.9999, 0.99, -0.99, None) * 24:
            k1 = complex(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0))
            k2 = rng.uniform(0.1, 3.0)
            x = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
            y = (rng.uniform(-0.95, 0.95) if fr is None else fr) * abs(x)
            ref = _kernel_closed_form(k1, k2, x, y)
            res = kernel_K(Multiplicity(k1, k2), x, y)
            assert abs(res.value - ref) <= res.est_error, (k1, k2, x, y)

    @pytest.mark.parametrize("k1, k2", [(0.5, 20.5), (10.0, 10.0), (20.0, 0.5), (0.3, 10.3),
                                        (0.5, 100.0), (200.0, 0.5)])
    def test_error_bars_cover_reference_large_k(self, k1, k2):
        # for large k2 the series alternates and cancels; the bar counts it.
        # From k2 ~ 92 at k1 = 0.5 (k1 ~ 109 at k2 = 0.5) the constant D
        # overflows, and from k1 + k2 ~ 171 so does Gamma: log D comes from
        # log-Gamma parts
        pytest.importorskip("mpmath")
        for x in (0.5, 1.5, 3.0, -2.2):
            for fr in (0.0, 0.5, -0.9, 0.99, -0.9999):
                y = fr * abs(x)
                ref = _kernel_closed_form(k1, k2, x, y)
                res = kernel_K(Multiplicity(k1, k2), x, y)
                assert abs(res.value - ref) <= res.est_error, (x, y)

    @pytest.mark.parametrize("k1, k2", SMALL_K)
    def test_error_bars_cover_reference_small_k(self, k1, k2):
        # every series parameter comes from k itself, so none loses k's low bits
        pytest.importorskip("mpmath")
        for x in (0.5, 1.5, 3.0, -2.2):
            for fr in (0.0, 0.5, -0.9, 0.99, -0.9999):
                y = fr * abs(x)
                ref = _kernel_closed_form(k1, k2, x, y)
                res = kernel_K(Multiplicity(k1, k2), x, y)
                assert abs(res.value - ref) <= res.est_error, (x, y)

    @pytest.mark.parametrize("k2", [200.0, 200.0 + 1e-300j], ids=["real", "complex"])
    def test_underflowing_exponent_within_error_bar(self, k2):
        # the exponent's exp underflows before a^alpha ~ 1e74 multiplies it,
        # so the value rounds to 0; the bar covers the true value ~1.5e-257
        mp = pytest.importorskip("mpmath")
        x, y = 3.0, -2.7
        with mp.workdps(60):
            ref = complex(_kernel_mp(mp, 0.5, k2, mp.mpf(x), mp.mpf(y)))
        res = kernel_K(Multiplicity(0.5, k2), x, y)
        assert abs(ref) > 1e-258
        assert abs(res.value - ref) <= res.est_error


def _jacobi_kernel_reference(k1, k2, x, y):
    """jacobi_kernel from its defining integral at 30 digits:

    2 c |sinh 2x| / A(2x) times the integral over z in (|y|, |x|) of
    (cosh 2x - cosh 2z)^{k2-1} (cosh z - cosh y)^{k1-1} sinh z dz.

    With u = cosh z = b + (a - b) s the integrand is (2 (a^2 - u^2))^{k2-1}
    (u - b)^{k1-1}, and a - b = 2 sinh((X+Y)/2) sinh((X-Y)/2) as in
    ``_kernel_reference``.  s = t^{1/Re k1} near 0 and 1 - s = t^{1/Re k2}
    near 1 take out the endpoint powers, which plain tanh-sinh resolves only
    to about 1e-11 at 30 digits.  Complex k1, k2 take principal powers.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        k1, k2 = mp.mpmathify(k1), mp.mpmathify(k2)
        x, y = mp.mpf(x), mp.mpf(y)
        xa, ya = abs(x), abs(y)
        a, b = mp.cosh(xa), mp.cosh(ya)
        d = 2 * mp.sinh((xa + ya) / 2) * mp.sinh((xa - ya) / 2)
        c = (2 ** (3 * (k1 + k2)) * mp.gamma(k1 + k2 + 0.5)
             / (mp.sqrt(mp.pi) * mp.gamma(k1) * mp.gamma(k2)))
        weight = abs(2 * mp.sinh(x)) ** (2 * k1) * abs(2 * mp.sinh(2 * x)) ** (2 * k2)

        r1, r2 = mp.re(k1), mp.re(k2)

        def near_0(t):
            s = t ** (1 / r1)
            return (2 * (1 - s) * (a + b + d * s)) ** (k2 - 1) * t ** (k1 / r1 - 1) / r1

        def near_1(t):
            s = 1 - t ** (1 / r2)
            return (2 * (a + b + d * s)) ** (k2 - 1) * s ** (k1 - 1) * t ** (k2 / r2 - 1) / r2

        half = mp.mpf(0.5)
        integral = d ** (k1 + k2 - 1) * (mp.quad(near_0, [0, half ** r1])
                                         + mp.quad(near_1, [0, half ** r2]))
        value = complex(2 * c * abs(mp.sinh(2 * x)) / weight * integral)
        return value.real if value.imag == 0.0 else value


class TestJacobiKernelReference:
    @pytest.mark.parametrize("k1, k2", [(0.5, 0.5), (1.5, 0.3), (0.3, 2.2),
                                        (0.5 + 0.3j, 0.7), (0.2 - 0.5j, 1.1 + 0.2j)])
    def test_within_error_bar(self, k1, k2):
        # independent of the package: the integral by mpmath quadrature,
        # the constant and the density in mpmath
        pytest.importorskip("mpmath")
        k = Multiplicity(k1, k2)
        for x in (0.3, -1.1, 2.4):
            for fr in (0.0, 0.5, -0.9, 0.9999, -0.9999):
                y = fr * abs(x)
                ref = _jacobi_kernel_reference(k1, k2, x, y)
                res = jacobi_kernel(k, x, y)
                assert abs(res.value - ref) <= res.est_error, (x, y)
                assert abs(res.value - ref) <= 1e-12 * abs(ref), (x, y)


def _apply_vt_reference(k1, k2, a, y):
    """tV of bump(a) at y from its defining integral at 25 digits.

    The integral of K(s', y) g(s') A(s') over |y| < |s'| < a, s' = s and -s,
    with the kernel from ``_kernel_mp``.  s = |y| + (a - |y|) u^{1/p},
    p = Re(k1 + k2), takes out the endpoint power of K at s = |y|, and the
    gap s - |y| goes to the kernel as it is, free of cancellation.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        k1, k2, y, a = mp.mpmathify(k1), mp.mpmathify(k2), mp.mpf(y), mp.mpf(a)
        span, p = a - abs(y), mp.re(k1 + k2)

        def bump_at(x):
            q = 1 - (x / a) ** 2
            return mp.exp(-1 / q) if q > 0 else mp.mpf(0)

        def integrand(u):
            gap = span * u ** (1 / p)
            s = abs(y) + gap
            density = abs(2 * mp.sinh(s / 2)) ** (2 * k1) * abs(2 * mp.sinh(s)) ** (2 * k2)
            pieces = sum(_kernel_mp(mp, k1, k2, sign * s, y, gap) * bump_at(sign * s)
                         for sign in (1, -1))
            return pieces * density * span / p * u ** (1 / p - 1)

        value = complex(mp.quad(integrand, [0, 1]))
        return value.real if value.imag == 0.0 else value


class TestApplyVtReference:
    @pytest.mark.parametrize("k1, k2", [(0.5, 0.5), (1.5, 0.3), (0.3, 2.2),
                                        (0.5 + 0.3j, 0.7), (0.2 - 0.5j, 1.1 + 0.2j)])
    def test_within_error_bar(self, k1, k2):
        # independent of the package's outer rule and kernel series
        pytest.importorskip("mpmath")
        k, g = Multiplicity(k1, k2), bump(2.0)
        for y in (0.7, -1.3):
            ref = _apply_vt_reference(k1, k2, g.support, y)
            res = apply_Vt(k, g, y)
            assert abs(res.value - ref) <= res.est_error, y
            assert abs(res.value - ref) <= 1e-13 * abs(ref), y
            # the bar tracks the level returned, not the one below it
            assert res.est_error <= 1e-12 * abs(ref), y


class TestSeriesPieces:
    # the ids name the rows' (alpha, beta) = (k2 + da, k1 + db)
    @pytest.mark.parametrize("k1, k2, shift", [(0.5, 0.3, (-1, -1)), (0.7, 1.5, (0, -1)),
                                               (0.1 - 0.2j, 0.5 + 0.3j, (-1, 0))],
                             ids=["-0.7--0.5", "1.5--0.3", "(-0.5+0.3j)-(0.1-0.2j)"])
    def test_cached_rows_are_fresh_cumprod(self, k1, k2, shift):
        # a slice of the longest rows is the short rows, bit for bit
        rows = _series_rows(k1, k2, shift)
        da, db = shift
        for n in (4, 17, 33, _MAX_TERMS):
            i = np.arange(1.0, n)
            denom = (i + (da + db) + np.array([[1.0], [2.0]])) + (k1 + k2)
            coef = np.cumprod(((i - 1.0 - da) - k2) * ((i + da) + k2) / (i * denom), axis=1)
            assert rows[:2, :n - 1].tobytes() == np.ascontiguousarray(coef).tobytes(), n

    def test_rows_exact_at_small_k(self):
        # the first coefficient (1 - k2) k2 / (s + j) keeps k2's low bits,
        # which alpha = k2 - 1 formed first would lose
        k1, k2 = 1e-15, 5e-16
        rows = _series_rows(k1, k2, (-1, -1))
        fk2, s = Fraction(k2), Fraction(k1) + Fraction(k2)
        eps = Fraction(np.finfo(float).eps)
        for j in (0, 1):
            exact = (1 - fk2) * fk2 / (s + j)
            assert abs(Fraction(rows[j, 0]) - exact) <= 2 * eps * exact, j

    def test_longest_series_fits_the_rows(self):
        # w < 1/2 everywhere, so no call needs more than _MAX_TERMS terms
        w = np.nextafter(0.5, 0.0)
        assert 4 + int(math.log(1e-17) / math.log(w)) <= _MAX_TERMS

    @pytest.mark.parametrize("points", [1, 50], ids=["one-point", "array"])
    def test_power_rows_within_their_roundings(self, points):
        # w^j is a product of j factors, whether a running product (one
        # point) or of two lower powers: j - 1 roundings of 2^-53 at most
        w = np.random.default_rng(615).uniform(0.0, 0.5, 2000)
        m = _MAX_TERMS - 1      # the most powers a call takes
        powers = np.hstack([_powers(chunk.reshape(()) if points == 1 else chunk, m)
                            for chunk in w.reshape(-1, points)])
        assert powers.shape == (m, w.size)
        # |p - w^j| <= (j - 1) u (1 + j u) w^j with u = 2^-53, times 2^106 den^j q
        # for w = num/den and p = r/q: exact integers, as Fraction is too slow here
        for wi, row in zip(w.tolist(), powers.T.tolist()):
            num, den = wi.as_integer_ratio()
            num_j, den_j = num, den
            for j, p in enumerate(row[1:], start=2):
                num_j, den_j = num_j * num, den_j * den
                r, q = p.as_integer_ratio()
                assert (abs(r * den_j - num_j * q) << 106
                        <= (j - 1) * ((1 << 53) + j) * num_j * q), (wi, j)
            assert row[0] == wi

    @pytest.mark.parametrize("k", [Multiplicity(0.7, 0.4), Multiplicity(0.5 + 0.2j, 0.7)],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("xa, frac", [(1.3, 0.3), ([[0.05, 1.3, 2.9]], [[-0.8], [0.3], [0.9]])],
                             ids=["0-d", "array"])
    def test_forms_match_their_one_form_calls(self, k, xa, frac):
        # the forms of one call share its geometry and powers, and those of
        # one shift its series; each form's values and bars are its own
        # call's, bit for bit, in any order and company
        xa, frac = np.broadcast_arrays(np.asarray(xa), np.asarray(frac))
        y = frac * xa
        gap = xa - np.abs(y)
        sign = np.where(y < 0.0, -1.0, 1.0)
        log_pref = (np.log(np.sinh(xa)),)
        forms = [((-1, -1), 4.0, None, ()),
                 ((-1, -1), -8.0 * sign, _times_u(y), log_pref),
                 ((0, -1), 16.0 / (k.k1 + k.k2), None, log_pref),
                 ((0, -1), sign, _times_u(y), ()),
                 ((-1, 0), 2.5, None, ()),
                 ((-1, 0), -sign, _times_u(y), (-xa, log_pref[0]))]
        kd = _k_axis((k,))
        with np.errstate(all="raise"):
            alone = [_cosh_gap_integral(kd, xa, gap, (form,)) for form in forms]
            together = _cosh_gap_integral(kd, xa, gap, tuple(forms))
            reversed_ = _cosh_gap_integral(kd, xa, gap, tuple(forms[::-1]))[::-1]
        for i, ((want,), got, got_reversed) in enumerate(zip(alone, together, reversed_)):
            for w, g, r in zip(want, got, got_reversed):
                assert np.shape(g) == xa.shape and np.all(np.isfinite(g)), i
                assert g.tobytes() == w.tobytes() == r.tobytes(), i

    def test_cached_rows_read_only(self):
        rows = _series_rows(0.5, 0.5, (-1, -1))
        with pytest.raises(ValueError):
            rows[0, 0] = 2.0
        with pytest.raises(ValueError):
            rows[:, :3] *= 2.0
        assert _series_rows(0.5, 0.5, (-1, -1)) is rows
        assert _series_rows(0.5, 0.5, (0, -1)) is not rows

    @pytest.mark.parametrize("k", [Multiplicity(0.7, 0.4), Multiplicity(0.5 + 0.2j, 0.7)],
                             ids=["real", "complex"])
    def test_mirror_shares_the_series(self, k):
        # x >= 0 with mirror=True is the pair (x, -x), and y rows of both signs
        # on one more axis give the four pieces (+-s, +-y), as the dual takes
        # them: one series, each piece its one-sign call
        s = np.array([[0.4, 1.1, 1.9], [0.8, 1.2, 1.6]])
        y = np.array([[0.3], [-0.7]])
        gap = s - np.abs(y)
        four = _kernel_values(k, s, np.stack((y, -y))[:, None], gap=gap, mirror=True)
        assert all(got.shape == (2, 2, 2, 3) for got in four)
        for y_flip, x_flip in np.ndindex(2, 2):
            alone = _kernel_values(k, (1 - 2 * x_flip) * s, (1 - 2 * y_flip) * y, gap=gap)
            for got, want in zip(four, alone):
                assert np.allclose(got[y_flip, x_flip], want, rtol=4e-16, atol=0.0), (y_flip, x_flip)


class TestLimitKernels:
    def test_k1zero_hand_value(self):
        val = kernel_K_limit_k1zero(0.5, 1.0, 0.0)
        expected = (1.0 / (math.sqrt(2.0) * math.pi)) / math.sinh(1.0) \
            * (math.cosh(1.0) - 1.0) ** -0.5 * (math.e - 1.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_k2zero_hand_value(self):
        val = kernel_K_limit_k2zero(1.0, 2.0, 0.0)
        assert val == pytest.approx(0.25 * math.sinh(1.0) ** -2 * (math.e - 1.0), rel=1e-12)

    def test_positive_both_signs(self):
        for x in (0.9, -0.9, 2.1, -2.1):
            for fr in (-0.8, 0.0, 0.8):
                y = fr * abs(x)
                assert kernel_K_limit_k1zero(0.6, x, y) > 0
                assert kernel_K_limit_k2zero(0.6, x, y) > 0

    @pytest.mark.parametrize("x, fr", [(0.8, 0.0), (1.5, 0.5), (2.2, -0.6)])
    def test_continuity_in_k(self, x, fr):
        y = fr * x
        near1 = kernel_K(Multiplicity(1e-4, 0.75), x, y).value
        assert near1 == pytest.approx(kernel_K_limit_k1zero(0.75, x, y), rel=1e-3)
        near2 = kernel_K(Multiplicity(0.75, 1e-4), x, y).value
        assert near2 == pytest.approx(kernel_K_limit_k2zero(0.75, x, y), rel=1e-3)

    @pytest.mark.parametrize("x", [1.0, 1e-4, 1e-12, 1e-16, 1e-100, 1e-200, 1e-300])
    @pytest.mark.parametrize("fr", [0.3, -0.9])
    def test_against_richardson_kernel(self, x, fr):
        # the limit is 2 K(k=1e-6) - K(k=2e-6) up to O(k^2); the closed form
        # must neither cancel at small |x| nor over- or underflow at tiny |x|
        y = fr * x
        for limit, at in ((kernel_K_limit_k1zero, lambda t: Multiplicity(t, 0.7)),
                          (kernel_K_limit_k2zero, lambda t: Multiplicity(0.7, t))):
            want = 2.0 * kernel_K(at(1e-6), x, y).value - kernel_K(at(2e-6), x, y).value
            assert limit(0.7, x, y) == pytest.approx(want, rel=1e-11), limit.__name__

    def test_subnormal_gap(self):
        # |x| - |y| is the smallest subnormal, whose half rounds to 0; the
        # value, about 1.5e297, is finite
        mp = pytest.importorskip("mpmath")
        x = 1e-310
        y = math.nextafter(x, 0.0)
        with mp.workprec(200):
            want = self._closed_form(mp, 2.0, x, y)
        assert kernel_K_limit_k1zero(2.0, x, y) == pytest.approx(float(want), rel=1e-12)

    @staticmethod
    def _closed_form(mp, k, x, y):
        """The vanishing-k1 form in mpmath."""
        k, x, y = mp.mpf(k), mp.mpf(x), mp.mpf(y)
        xa, ya = abs(x), abs(y)
        return (2 ** k * mp.gamma(k + 0.5) / (mp.sqrt(mp.pi) * mp.gamma(k)) * mp.sinh(xa) ** (-2 * k)
                * (2 * mp.sinh((xa + ya) / 2) * mp.sinh((xa - ya) / 2)) ** (k - 1)
                * mp.exp((x - y) / 2) * mp.sinh(abs(x + y) / 2))

    def test_k_past_gamma_overflow(self):
        # Gamma(k + 1/2) overflows past k = 171; the constant comes from its
        # log, and the values stay within rounding of the closed form
        mp = pytest.importorskip("mpmath")
        # abs=0: approx's default absolute 1e-12 would pass any value this small
        assert kernel_K_limit_k1zero(171.3, 1.0, 0.3) == pytest.approx(6.4402682764318376e-24,
                                                                       rel=1e-12, abs=0.0)
        checked = 0
        for k in (171.0, 171.3, 250.0, 600.0, 1000.0, 1500.0, 2000.0):
            for x, y in ((1.0, 0.3), (2.2, -1.3), (0.8, 0.0)):
                with mp.workdps(40):
                    want1 = self._closed_form(mp, k, x, y)
                    want2 = self._closed_form(mp, k, x / 2, y / 2) / 2
                # k multiplies the log of a ratio of sinh, not logs of size ~2.5 k
                for limit, want, rel in ((kernel_K_limit_k1zero, want1, 1e-12),
                                         (kernel_K_limit_k2zero, want2, 1e-12)):
                    if sys.float_info.min <= want <= sys.float_info.max:
                        checked += 1
                        assert limit(k, x, y) == pytest.approx(float(want), rel=rel,
                                                               abs=0.0), (k, x, y)
        assert checked >= 30

    @pytest.mark.filterwarnings("error")
    def test_numpy_float_k(self):
        # the constant's 2^k joins the power, so no numpy scalar power overflows
        for limit in (kernel_K_limit_k1zero, kernel_K_limit_k2zero):
            assert limit(np.float64(1500.0), 1.0, 0.3) == limit(1500.0, 1.0, 0.3) > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("limit, half, x", [(kernel_K_limit_k1zero, 1.0, 800.0),
                                                (kernel_K_limit_k2zero, 0.5, 1500.0)],
                             ids=["k1zero", "k2zero"])
    def test_x_past_sinh_overflow(self, limit, half, x):
        # sinh overflows past 710; the value there is tiny, not an OverflowError
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = float(half * self._closed_form(mp, 0.5, half * x, half))
        assert want > 0.0 and limit(0.5, x, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert limit(0.5, -1e300, 1.0) == 0.0

    def test_beyond_double_range_raises(self):
        # the value here is about 4.8e313
        x = 1e-300
        for limit in (kernel_K_limit_k1zero, kernel_K_limit_k2zero):
            with pytest.raises(EvaluationError, match="non-finite value inf"):
                limit(0.05, x, math.nextafter(x, 0.0))

    def test_k_domain(self):
        with pytest.raises(DomainError):
            kernel_K_limit_k1zero(-0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            kernel_K_limit_k2zero(0.0, 1.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("limit", [kernel_K_limit_k1zero, kernel_K_limit_k2zero],
                             ids=["k1zero", "k2zero"])
    @pytest.mark.parametrize("x, y", [(1.3 + 0.5j, 0.2), (1.3, 0.2 + 0.1j), ("1.3", 0.2)],
                             ids=["complex-x", "complex-y", "string"])
    def test_non_real_point_raises(self, limit, x, y):
        # as the public forms do: no modulus taken, no text parsed
        with pytest.raises(DomainError, match="must be real"):
            limit(0.5, x, y)


class TestJacobiSettingPieces:
    def test_jacobi_kernel_positive_and_shrinking(self):
        assert jacobi_kernel(Multiplicity(0.7, 0.4), 1.2, 0.5).value > 0
        # vanishing rate is gap^(k1+k2-1), so probe where the exponent is 1
        tiny = jacobi_kernel(Multiplicity(1.0, 1.0), 1.0, 1.0 - 1e-12).value
        assert 0 <= tiny < 1e-6

    @pytest.mark.parametrize("k, x, y", [
        (Multiplicity(0.7, 0.4), 1.2, 0.5),
        (Multiplicity(0.5 + 0.2j, 0.7), 1.2, 0.5),
        # the nested route's inner end sees radius factors ~1e-280 each
        (Multiplicity(0.05 + 0.2j, 0.05), 2.4, 0.0),
    ], ids=["real", "complex", "complex-small-k"])
    def test_ktilde_forms_agree(self, k, x, y):
        direct = ktilde(k, x, y, "direct").value
        byparts = ktilde(k, x, y, "byparts").value
        defining = ktilde(k, x, y, "defining").value
        assert abs(direct - byparts) <= 1e-8 * abs(direct)
        assert abs(direct - defining) <= 1e-6 * abs(direct)

    def test_ktilde_forms_agree_on_grid(self):
        for k1, k2 in K_GRID:
            k = Multiplicity(k1, k2)
            for x, fr in ((0.9, 0.3), (1.8, -0.6), (2.4, 0.0)):
                y = fr * x
                direct = ktilde(k, x, y, "direct").value
                byparts = ktilde(k, x, y, "byparts").value
                assert abs(direct - byparts) <= 1e-8 * abs(direct)

    @pytest.mark.parametrize("k", [*K_GRID, (0.5 + 0.2j, 0.7), (0.9 + 0.25j, 0.7 - 0.1j)])
    def test_ktilde_forms_within_error_bars(self, k):
        # every point result carries at least the rounding of its value; at
        # tiny |x| the nested route's end distances stay representable
        k = Multiplicity(*k)
        for x, y in ((2.4, 0.48), (0.9, 0.3), (1.8, -0.6), (2.4, 0.0), (1.3, -0.91),
                     (1e-60, 3e-61), (-1e-70, -2e-71)):
            direct = ktilde(k, x, y, "direct")
            defining = ktilde(k, x, y, "defining")
            budget = direct.est_error + defining.est_error
            assert abs(direct.value - defining.value) <= budget, (x, y)

    def test_ktilde_vanishes_at_collapse(self):
        assert ktilde(Multiplicity(0.7, 0.4), 1.0, 1.0 - 1e-12, "direct").value < 1e-6

    def test_bad_form(self):
        with pytest.raises(DomainError):
            ktilde(Multiplicity(0.7, 0.4), 1.2, 0.5, "series")

    def test_derivative_zero_at_origin(self):
        assert dktilde_dy(Multiplicity(0.7, 0.4), 1.2, 0.0).value == 0.0

    def test_derivative_odd_in_y(self):
        k = Multiplicity(0.7, 0.4)
        plus = dktilde_dy(k, 1.2, 0.5).value
        minus = dktilde_dy(k, 1.2, -0.5).value
        assert plus == pytest.approx(-minus, rel=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [Multiplicity(0.0734, 0.2869), Multiplicity(0.0807 + 0.38j, 0.2258)],
                             ids=["real", "complex"])
    def test_derivative_power_law_at_tiny_x(self, k):
        # |sinh y| sits in the exponent, so the value stays finite down to
        # |x| = 1e-300, where the factor exp(log scale) alone overflows; there
        # dKtilde/dy(x, c x) is C |x|^(2(k1 + k2) - 1), decade to decade
        x = 10.0 ** -np.arange(200.0, 301.0, 10.0)
        res = dktilde_dy(k, x, -0.9329 * x)
        assert np.all(np.isfinite(res.value)) and np.all(res.est_error > 0.0)
        rel = res.est_error / np.abs(res.value)
        law = (x[1:] / x[:-1]) ** (2.0 * (k.k1 + k.k2) - 1.0)
        err = np.abs(res.value[1:] / res.value[:-1] / law - 1.0)
        assert np.all(err <= rel[1:] + rel[:-1]), err / (rel[1:] + rel[:-1])
        zero = dktilde_dy(k, [1.4, -0.3, 1e-155, -1e-300], 0.0)
        assert np.all(zero.value == 0.0) and np.all(zero.est_error == 0.0)

    def test_derivative_matches_finite_difference(self):
        h = 1e-5
        for k in (Multiplicity(0.7, 0.4), Multiplicity(0.5 + 0.2j, 0.7)):
            for x, y in ((1.2, 0.5), (2.0, -0.9), (0.8, 0.3)):
                exact = dktilde_dy(k, x, y).value
                fd = (ktilde(k, x, y + h, "byparts").value
                      - ktilde(k, x, y - h, "byparts").value) / (2.0 * h)
                assert abs(exact - fd) <= 1e-5 * abs(exact), (k, x, y)


class TestMourouAssembly:
    def test_derivative_term_drops_at_y_zero(self):
        # at y = 0 the assembled kernel reduces to the first two terms
        k = Multiplicity(0.6, 0.9)
        x = 1.4
        kj = jacobi_kernel(k, x / 2, 0.0).value
        kt = ktilde(k, x / 2, 0.0, "direct").value
        expected = 0.25 * kj + (0.6 / 4 + 0.9 / 2) / weight_A(k, x) * kt
        assert kernel_K_mourou(k, x, 0.0).value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [Multiplicity(0.6, 0.9), Multiplicity(2.5, 0.05),
                                   Multiplicity(0.5 + 0.3j, 0.7), Multiplicity(0.2 - 0.5j, 1.1)],
                             ids=["real", "real-small-k2", "complex", "complex-both"])
    def test_assembly_identity(self, k):
        # K(x, y) = Kj/4 + sign x (k1/4 + k2/2) Kt / A(x) - sign x dKt/dy / (4 A(x)),
        # the pieces at (x/2, y/2), within the summed bars at y != 0
        x = np.repeat(X_GRID, 7)
        y = np.tile((0.2, -0.2, 0.5, -0.5, 0.9, -0.9, 1e-9), 6) * np.abs(x)
        assembled = kernel_K_mourou(k, x, y)
        kj = jacobi_kernel(k, x / 2, y / 2)
        kt = ktilde(k, x / 2, y / 2, "direct")
        dkt = dktilde_dy(k, x / 2, y / 2)
        a, sign = weight_A(k, x), np.sign(x)
        coef = sign * (k.k1 / 4 + k.k2 / 2)
        expected = 0.25 * kj.value + coef * kt.value / a - sign * dkt.value / (4 * a)
        bars = (assembled.est_error + 0.25 * kj.est_error + np.abs(coef) * kt.est_error / np.abs(a)
                + dkt.est_error / (4 * np.abs(a)))
        assert np.all(dkt.value != 0.0)
        assert np.all(np.abs(assembled.value - expected) <= bars)

    @pytest.mark.parametrize("k", [Multiplicity(0.6, 0.9), Multiplicity(0.5 + 0.3j, 0.7)],
                             ids=["real", "complex"])
    def test_smallest_subnormal_y(self, k):
        # y/2 rounds to 0: the derivative term drops, as at y = 0, and the bars stay finite
        x = np.array([1.3, -0.4, 2.9])
        for y in (5e-324, -5e-324):
            direct, assembled = kernel_K(k, x, y), kernel_K_mourou(k, x, y)
            gap = np.abs(direct.value - assembled.value)
            assert np.all(gap <= direct.est_error + assembled.est_error)

    def test_positive_on_grid(self):
        k = Multiplicity(0.3, 1.5)
        for x in X_GRID:
            for fr in Y_FRACS:
                assert kernel_K_mourou(k, x, fr * abs(x)).value > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [Multiplicity(1.5, 0.7), Multiplicity(0.5, 0.5),
                                   Multiplicity(0.5 + 0.3j, 0.7), Multiplicity(0.2 - 0.5j, 1.1)],
                             ids=["real", "real-half", "complex", "complex-both"])
    def test_tiny_x_matches_direct(self, k):
        # 1/A(x) and sinh(y/2) stay inside the exponents, where A(x) ~
        # |x|^{2(k1+k2)} no longer underflows
        mag = 10.0 ** -np.arange(3.0, 301.0)
        for x in (mag, -mag):
            for fr in (0.5, 0.0, -0.9999):
                y = fr * mag
                direct, assembled = kernel_K(k, x, y), kernel_K_mourou(k, x, y)
                gap = np.abs(direct.value - assembled.value)
                assert np.all(gap <= direct.est_error + assembled.est_error), fr

    @pytest.mark.filterwarnings("error")
    def test_derivative_term_exactly_zero_at_y_zero(self, monkeypatch):
        # the assembly's one _cosh_gap_integral call: its third form is the y-derivative term
        terms, cosh_gap_integral = [], kernel._cosh_gap_integral
        monkeypatch.setattr(kernel, "_cosh_gap_integral",
                            lambda *a, **kw: terms.append(cosh_gap_integral(*a, **kw)) or terms[-1])
        for i, k in enumerate((Multiplicity(1.5, 0.7), Multiplicity(0.5 + 0.3j, 0.7))):
            res = kernel_K_mourou(k, [1.4, -0.3, 1e-155, -1e-300], 0.0)
            assert len(terms) == i + 1 and len(terms[-1]) == 3
            values, bars = terms[-1][2]
            assert np.all(values == 0.0) and np.all(bars == 0.0)
            assert np.all(np.isfinite(res.value)) and np.all(res.est_error > 0.0)


@pytest.mark.parametrize("call", [
    lambda k: kernel_K_mourou(k, 1e-309, 5e-310),
    lambda k: kernel_K_mourou(k, -1e-309, [5e-310, 0.0]),
    lambda k: kernel_K_mourou(k, 800.0, 1.0),
    lambda k: jacobi_kernel(k, 800.0, 1.0),
    lambda k: ktilde(k, 800.0, 1.0, "direct"),
    lambda k: ktilde(k, 800.0, 1.0, "byparts"),
    lambda k: ktilde(k, [1.0, 800.0], 0.5, "defining"),
    lambda k: dktilde_dy(k, [1.0, 800.0], 0.5),
], ids=["mourou-tiny", "mourou-tiny-array", "mourou-800", "jacobi_kernel-800", "ktilde-direct-800",
        "ktilde-byparts-800", "ktilde-defining-800", "dktilde_dy-800"])
def test_oracle_non_finite_value_raises_without_warnings(call):
    # every kernel entry runs under np.errstate and reports the overflow once
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError):
            call(Multiplicity(0.5, 0.5))
