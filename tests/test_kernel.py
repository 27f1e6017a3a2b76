import math
import warnings

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
from trigdunkl.kernel import _kernel_values
from trigdunkl.quadrature import _gauss_jacobi_arrays, _tanh_sinh_full

K_GRID = [(a, b) for a in (0.3, 0.7, 1.5) for b in (0.3, 0.7, 1.5)]
X_GRID = (0.6, -0.6, 1.3, -1.3, 2.4, -2.4)
Y_FRACS = (0.0, 0.2, -0.2, 0.7, -0.7, 0.95, -0.95)


class TestMultiplicity:
    def test_derived_rho(self):
        k = Multiplicity(0.5, 1.0)
        assert k.rho == 1.25
        assert k.real_positive

    def test_complex_flagged(self):
        assert not Multiplicity(0.5 + 0.2j, 1.0).real_positive

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
        k1, k2 = mp.mpmathify(k1), mp.mpmathify(k2)
        x, y = mp.mpf(x), mp.mpf(y)
        xh, yh = abs(x) / 2, abs(y) / 2
        a, b = mp.cosh(xh), mp.cosh(yh)
        d = 2 * mp.sinh((xh + yh) / 2) * mp.sinh((xh - yh) / 2)
        c = (2 ** (3 * (k1 + k2)) * mp.gamma(k1 + k2 + 0.5)
             / (mp.sqrt(mp.pi) * mp.gamma(k1) * mp.gamma(k2)))
        weight = abs(2 * mp.sinh(x / 2)) ** (2 * k1) * abs(2 * mp.sinh(x)) ** (2 * k2)
        z = d / (a + b)
        s0 = 2 * mp.exp((x - y) / 2) * mp.sinh((x + y) / 2)
        s1 = 2 * mp.exp(-y / 2) * d
        integral = (a + b) ** (k2 - 1) * (
            s0 * mp.beta(k1, k2) * mp.hyp2f1(1 - k2, k1, k1 + k2, -z)
            - s1 * mp.beta(k1 + 1, k2) * mp.hyp2f1(1 - k2, k1 + 1, k1 + k2 + 1, -z))
        value = complex(mp.sign(x) * c / (2 * weight) * 2 ** (k2 - 1) * d ** (k1 + k2 - 1)
                        * integral)
        return value.real if value.imag == 0.0 else value


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

    @pytest.mark.parametrize("k1, k2", [(0.5, 20.5), (10.0, 10.0), (20.0, 0.5), (0.3, 10.3)])
    def test_error_bars_cover_reference_large_k(self, k1, k2):
        # for large k2 the series alternates and cancels; the bar counts it
        pytest.importorskip("mpmath")
        for x in (0.5, 1.5, 3.0, -2.2):
            for fr in (0.0, 0.5, -0.9, 0.99, -0.9999):
                y = fr * abs(x)
                ref = _kernel_closed_form(k1, k2, x, y)
                res = kernel_K(Multiplicity(k1, k2), x, y)
                assert abs(res.value - ref) <= res.est_error, (x, y)


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

    def test_k_domain(self):
        with pytest.raises(DomainError):
            kernel_K_limit_k1zero(-0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            kernel_K_limit_k2zero(0.0, 1.0, 0.0)


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
        # every point result carries at least the rounding of its value
        k = Multiplicity(*k)
        for x, y in ((2.4, 0.48), (0.9, 0.3), (1.8, -0.6), (2.4, 0.0), (1.3, -0.91)):
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
        # the last _ktilde_point of the assembly is the y-derivative term
        terms, ktilde_point = [], kernel._ktilde_point
        monkeypatch.setattr(kernel, "_ktilde_point",
                            lambda *a, **kw: terms.append(ktilde_point(*a, **kw)) or terms[-1])
        for k in (Multiplicity(1.5, 0.7), Multiplicity(0.5 + 0.3j, 0.7)):
            res = kernel_K_mourou(k, [1.4, -0.3, 1e-155, -1e-300], 0.0)
            values, bars = terms[-1]
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
