import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from trigdunkl import (DomainError, Multiplicity, NonConvergenceError, gamma_real, hyp2f1,
                       jacobi_phi, opdam_G, specfun)
from trigdunkl.config import NUMERICS
from trigdunkl.specfun import loggamma_right_half


class TestGammaReal:
    @pytest.mark.parametrize("x, expected", [
        (0.5, math.sqrt(math.pi)),
        (1.0, 1.0),
        (5.0, 24.0),
        (1.5, math.sqrt(math.pi) / 2.0),
        (10.5, 1133278.3889487855673),  # Gamma(21/2) = 654729075 sqrt(pi) / 2^10
    ])
    def test_known_values(self, x, expected):
        assert gamma_real(x) == pytest.approx(expected, rel=1e-13)

    def test_recurrence(self):
        for x in (0.1, 0.37, 2.6, 7.3):
            assert gamma_real(x + 1.0) == pytest.approx(x * gamma_real(x), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            gamma_real(bad)


class TestLogGamma:
    def test_matches_real_gamma(self):
        for x in (0.3, 1.0, 4.7, 11.2):
            assert cmath.exp(loggamma_right_half(x)).real == pytest.approx(
                gamma_real(x), rel=1e-12)

    def test_functional_equation_complex(self):
        # log Gamma(w+1) = log Gamma(w) + log w, exactly in the right half-plane
        for w in (0.4 + 1.3j, 2.0 - 0.7j, 0.05 + 0.05j):
            lhs = loggamma_right_half(w + 1)
            rhs = loggamma_right_half(w) + cmath.log(w)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_left_half_rejected(self):
        with pytest.raises(DomainError):
            loggamma_right_half(-1.0 + 1j)


class TestHyp2F1:
    def test_argument_zero(self):
        assert hyp2f1(2.3 + 1j, -0.7, 0.9, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        for z in (-1.0, -0.25, 0.4, -7.0, 0.5, 0.7, 0.9):
            assert hyp2f1(1, 1, 2, z) == pytest.approx(-math.log1p(-z) / z, rel=1e-12)

    def test_binomial_identity(self):
        # 2F1(a,b;b;z) = (1-z)^{-a}
        assert hyp2f1(0.7, 0.3, 0.3, -0.5) == pytest.approx(1.5 ** -0.7, rel=1e-12)
        a = 0.4 + 1.1j
        assert hyp2f1(a, 2.0, 2.0, -2.0) == pytest.approx(cmath.exp(-a * math.log(3.0)))

    def test_parameter_swap_exact(self):
        a, b = 0.8 + 0.6j, 0.8 - 0.6j
        assert hyp2f1(a, b, 1.3, -2.1) == hyp2f1(b, a, 1.3, -2.1)

    @staticmethod
    def _with_doubled_cap(monkeypatch, *args):
        """hyp2f1 at the configured term cap and at twice that cap."""
        v1 = hyp2f1(*args)
        doubled = replace(NUMERICS, series_max_terms=2 * NUMERICS.series_max_terms)
        with monkeypatch.context() as m:
            m.setattr(specfun, "NUMERICS", doubled)
            return v1, hyp2f1(*args)

    def test_term_cap_doubling_stable(self, monkeypatch):
        val, val2 = self._with_doubled_cap(monkeypatch, 0.95 + 2.5j, 0.95 - 2.5j, 1.8, -4.5)
        assert abs(val - val2) <= 1e-12 * abs(val)

    def test_term_cap_doubling_on_acceptance_grid(self, monkeypatch):
        # the exact parameter combinations the eigenfunction evaluator uses
        for k1 in (0.3, 0.7, 1.5):
            for k2 in (0.3, 0.7, 1.5):
                rho, c = k1 / 2 + k2, k1 + k2 + 0.5
                for lam in (0.0, 1.0, 2.5):
                    for x in (0.5, 2.0):
                        z = -math.sinh(x / 2) ** 2
                        args = (rho + 1j * lam, rho - 1j * lam, c, z)
                        v1, v2 = self._with_doubled_cap(monkeypatch, *args)
                        assert abs(v1 - v2) <= 1e-12 * abs(v1)

    def test_euler_transformation(self):
        # 2F1(a,b;c;z) = (1-z)^{c-a-b} 2F1(c-a,c-b;c;z), an independent identity
        a, b, c = 0.45 + 0.8j, 0.45 - 0.8j, 1.65
        for z in (-0.3, -2.5):
            lhs = hyp2f1(a, b, c, z)
            rhs = cmath.exp((c - a - b) * math.log1p(-z)) * hyp2f1(c - a, c - b, c, z)
            assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    @pytest.mark.parametrize("bad_c", [0, -1, -3.0])
    def test_pole_rejected(self, bad_c):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, bad_c, -0.3)

    def test_non_convergence_near_one(self):
        # 2F1(1, 1; 2; z) = -log(1 - z) / z; at z = 0.999 the terms fall too
        # slowly for the term cap, and the partial sum stays below the value
        with pytest.raises(NonConvergenceError) as info:
            hyp2f1(1, 1, 2, 0.999)
        partial, est = info.value.partial, info.value.est_error
        assert 0.0 < partial.real < -math.log1p(-0.999) / 0.999 and partial.imag == 0.0
        assert 0.0 < est < math.inf

    def test_z_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 0.3 + 0.2j)


class TestJacobiPhi:
    def test_value_at_zero(self):
        assert jacobi_phi(0.7, -0.2, 1.9, 0.0) == 1.0

    def test_cosine_closed_form(self):
        # alpha = beta = -1/2 reduces to cos(lam * t)
        for lam, t in ((2.0, 0.7), (0.5, 1.3), (3.2, 0.25)):
            assert jacobi_phi(-0.5, -0.5, lam, t) == pytest.approx(
                math.cos(lam * t), abs=1e-12)

    def test_spectral_sign_symmetry(self):
        for lam in (0.8, 2.4):
            plus = jacobi_phi(1.2, 0.3, lam, 0.9)
            minus = jacobi_phi(1.2, 0.3, -lam, 0.9)
            assert abs(plus - minus) <= 1e-15 * (1.0 + abs(plus))

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            jacobi_phi(-1.0, 0.0, 1.0, 0.5)


class TestOpdamG:
    def test_normalization_at_origin(self):
        for k1, k2 in ((0.3, 0.3), (0.7, 1.5), (2.0, 0.4)):
            for lam in (0.0, 1.0, 3.5, 1.0 + 0.5j):
                assert opdam_G(Multiplicity(k1, k2), lam, 0.0) == 1.0

    def test_conjugation_symmetry(self):
        k = Multiplicity(0.6, 1.1)
        for lam in (0.7, 2.2):
            for x in (0.4, -1.3):
                g_plus = opdam_G(k, lam, x)
                g_minus = opdam_G(k, -lam, x)
                assert abs(g_minus - g_plus.conjugate()) <= 1e-12

    def test_not_even_in_x(self):
        # the sinh term makes the eigenfunction asymmetric
        k = Multiplicity(0.5, 0.5)
        g_plus = opdam_G(k, 0.0, 1.0)
        g_minus = opdam_G(k, 0.0, -1.0)
        assert abs(g_plus - g_minus) > 1e-3
        sinh_term = g_plus - g_minus  # twice the odd part
        assert sinh_term.real > 0  # odd part carries the sign of sinh(x)

    @pytest.mark.parametrize("x", [800.0, -1500.0, math.inf, math.nan])
    def test_overflowing_argument_rejected(self, x):
        # -sinh^2(x/2) is not a finite double
        with pytest.raises(DomainError):
            opdam_G(Multiplicity(0.5, 0.5), 1.0, x)
        with pytest.raises(DomainError):
            jacobi_phi(0.5, 0.5, 1.0, x / 2.0)

    def test_complex_multiplicity_accepted(self):
        val = opdam_G(Multiplicity(0.5 + 0.1j, 0.8), 1.0, 0.7)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
