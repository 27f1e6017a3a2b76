import cmath
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from test_operators import eigen_reference
from trigdunkl import (DomainError, Multiplicity, NonConvergenceError, apply_V, config,
                       gamma_real, hyp2f1, jacobi_phi, opdam_G, plane_wave, specfun)
from trigdunkl.config import NUMERICS
from trigdunkl.specfun import (_block_sums, _connection_terms, _direct_terms, _gauss_2f1, _opdam_G,
                               _pfaff_terms, _sum_terms, loggamma_right_half)


def _hyp2f1_branch(a, b, c, z):
    """(value, bar, method) of the branch that ``hyp2f1`` takes, a and b in its order."""
    a, b = sorted((complex(a), complex(b)), key=lambda v: (v.real, v.imag))
    val, bar, method, _ = _gauss_2f1(a, b, complex(c), z)
    assert val == hyp2f1(a, b, c, z)
    return val, bar, method


class TestGammaReal:
    @pytest.mark.parametrize("x, expected", [
        (0.5, math.sqrt(math.pi)),
        (1.0, 1.0),
        (5.0, 24.0),
        (1.5, math.sqrt(math.pi) / 2.0),
        (10.5, 1133278.3889487855673),  # Gamma(21/2) = 654729075 sqrt(pi) / 2^10
    ])
    def test_known_values(self, x, expected):
        assert gamma_real(x) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_recurrence(self):
        for x in (0.1, 0.37, 2.6, 7.3):
            assert gamma_real(x + 1.0) == pytest.approx(x * gamma_real(x), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            gamma_real(bad)


class TestLogGamma:
    def test_matches_real_gamma(self):
        for x in (0.3, 1.0, 4.7, 11.2):
            assert cmath.exp(loggamma_right_half(x)).real == pytest.approx(
                gamma_real(x), rel=1e-12, abs=0.0)

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
            assert hyp2f1(1, 1, 2, z) == pytest.approx(-math.log1p(-z) / z, rel=1e-12, abs=0.0)

    def test_binomial_identity(self):
        # 2F1(a,b;b;z) = (1-z)^{-a}
        assert hyp2f1(0.7, 0.3, 0.3, -0.5) == pytest.approx(1.5 ** -0.7, rel=1e-12, abs=0.0)
        a = 0.4 + 1.1j
        assert hyp2f1(a, 2.0, 2.0, -2.0) == pytest.approx(cmath.exp(-a * math.log(3.0)),
                                                          rel=1e-12, abs=0.0)
        # c = b has c - b = 0: no connection branch, the Pfaff series as before
        assert _hyp2f1_branch(a, 2.0, 2.0, -2.0)[2] == "pfaff"

    def test_parameter_swap_exact(self):
        # on both branches: the Pfaff branch's exponent -a is taken from a
        # and b in one order, whichever order they are passed in
        a, b = 0.8 + 0.6j, 0.8 - 0.6j
        for z in (-0.3, 0.5, -0.5, -0.7, -2.1, -3.3, -9.0, -19.9):
            assert hyp2f1(a, b, 1.3, z) == hyp2f1(b, a, 1.3, z), z

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

    @pytest.mark.parametrize("a, b, c, z", [
        (0.6 + 5j, 0.6 - 5j, 1.7, -9.0),            # b = conj(a), c real: one term, doubled
        (0.6 + 5j, 0.6 - 2j, 1.7 + 0.3j, -1.5),     # both terms
        (2.5 - 20j, 2.5 + 20j, 4.0, -400.0),
    ])
    def test_connection_branch_against_reference(self, a, b, c, z):
        # Re a = Re b, |a - b| >= 6, positive real parts and z < -1
        mp = pytest.importorskip("mpmath")
        val, bar, method = _hyp2f1_branch(a, b, c, z)
        assert method == "connection"
        with mp.workdps(40):
            ref = complex(mp.hyp2f1(a, b, c, z))
        assert abs(val - ref) <= min(bar, 1e-13 * abs(ref))
        assert hyp2f1(b, a, c, z) == val

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

    def test_non_convergence_partial_on_pfaff_branch(self):
        # the partial value and its bar carry the Pfaff prefactor (1 - z)^{-a}
        with pytest.raises(NonConvergenceError) as info:
            hyp2f1(1, 1, 2, -5000.0)
        value = math.log(5001.0) / 5000.0
        assert abs(info.value.partial - value) <= 1e-3 * value
        assert 0.0 < info.value.est_error < 1e-3 * value

    @pytest.mark.parametrize("z", [-5000.0, 0.999, 0.9995])
    def test_non_convergence_bar_bounds_the_tail(self, z):
        # 2F1(1, 1; 2; z) = -log(1 - z) / z; the terms fall like w^n / n,
        # so the dropped tail is far larger than the last term
        with pytest.raises(NonConvergenceError) as info:
            hyp2f1(1, 1, 2, z)
        value = -math.log1p(-z) / z
        err = abs(info.value.partial - value)
        assert err <= info.value.est_error <= 10.0 * err

    def test_non_convergence_names_callers_argument(self):
        # z = -5000 goes through the Pfaff map onto w = 5000/5001, where the
        # series does not converge; the message gives z and then w
        with pytest.raises(NonConvergenceError, match=r"\(z=-5000\.0, Pfaff-mapped to "
                                                      r"w=0\.9998000399920016\)"):
            hyp2f1(1, 1, 2, -5000.0)
        with pytest.raises(NonConvergenceError, match=r"\(z=0\.999\)$"):
            hyp2f1(1, 1, 2, 0.999)

    def test_z_domain(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, 2.0, 0.3 + 0.2j)

    def test_complex_argument_on_real_axis(self):
        # a complex z with zero imaginary part is its real part
        assert hyp2f1(0.7, 0.3, 1.9, complex(0.5, 0.0)) == hyp2f1(0.7, 0.3, 1.9, 0.5)

    @pytest.mark.parametrize("params", [(math.nan, 1.0, 2.0), (1.0, complex(1.0, math.nan), 2.0),
                                        (1.0, 1.0, math.inf)], ids=["a", "b", "c"])
    def test_non_finite_parameter_rejected(self, params):
        with pytest.raises(DomainError, match="must be finite"):
            hyp2f1(*params, -0.3)

    def test_error_bar_covers_reference(self):
        # complex a, b, real c, both branches: no point is ever dropped
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(18)
        with mp.workdps(30):
            for i in range(600):
                a, b = (rng.uniform(-2.0, 3.0, 2) + 1j * rng.uniform(-5.0, 5.0, 2)).tolist()
                c = rng.uniform(0.2, 4.0)
                z = rng.uniform(-20.0, -0.5) if i % 2 else rng.uniform(-0.5, 0.9)
                val, bar, _ = _hyp2f1_branch(a, b, c, z)
                assert abs(val - complex(mp.hyp2f1(a, b, c, z))) <= bar, (a, b, c, z)


class TestJacobiPhi:
    def test_value_at_zero(self):
        assert jacobi_phi(0.7, -0.2, 1.9, 0.0) == 1.0

    def test_cosine_closed_form(self):
        # alpha = beta = -1/2 reduces to cos(lam * t); a = i lam / 2 has no
        # positive real part, so no point takes the connection branch
        for lam, t in ((2.0, 0.7), (0.5, 1.3), (3.2, 0.25), (7.0, 1.3)):
            assert jacobi_phi(-0.5, -0.5, lam, t) == pytest.approx(
                math.cos(lam * t), rel=0.0, abs=1e-12)
            z = -math.sinh(t) ** 2
            assert _hyp2f1_branch(0.5j * lam, -0.5j * lam, 0.5, z)[2] != "connection"

    def test_spectral_sign_symmetry(self):
        # exact: lam -> -lam swaps hyp2f1's a and b, which it sorts
        rng = np.random.default_rng(155)
        points = [(1.2, 0.3, 0.8, 0.9), (1.2, 0.3, 2.4, 0.9)]
        points += [(*rng.uniform(-0.9, 3.0, 2), rng.uniform(0.0, 10.0), rng.uniform(0.0, 3.0))
                   for _ in range(400)]
        for alpha, beta, lam, t in points:
            assert jacobi_phi(alpha, beta, lam, t) == jacobi_phi(alpha, beta, -lam, t)

    def test_large_lam_on_connection_branch(self):
        # the Pfaff series cancel here (off by 2.7e-4); the connection terms do not
        mp = pytest.importorskip("mpmath")
        alpha, beta, lam, t = 0.2, -0.3, 30.0, 1.5
        r = alpha + beta + 1.0
        assert _hyp2f1_branch((r + 1j * lam) / 2, (r - 1j * lam) / 2, alpha + 1.0,
                              -math.sinh(t) ** 2)[2] == "connection"
        with mp.workdps(40):
            ref = complex(mp.hyp2f1((r + 1j * mp.mpf(lam)) / 2, (r - 1j * mp.mpf(lam)) / 2,
                                    alpha + 1, -mp.sinh(t) ** 2))
        assert abs(jacobi_phi(alpha, beta, lam, t) - ref) <= 1e-13

    def test_error_bar_covers_reference(self):
        # lam <= 30, t <= 3, against phi at the exact parameters
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(30)
        points = [(0.2, -0.3, 30.0, 1.5)]
        points += [(*rng.uniform(-0.5, 2.0, 2), rng.uniform(0.0, 30.0), rng.uniform(0.0, 3.0))
                   for _ in range(299)]
        with mp.workdps(30):
            for alpha, beta, lam, t in points:
                r = alpha + beta + 1.0
                a, b = (r + 1j * lam) / 2, (r - 1j * lam) / 2
                val, bar, _ = _hyp2f1_branch(a, b, alpha + 1.0, -math.sinh(t) ** 2)
                assert val == jacobi_phi(alpha, beta, lam, t)
                r, lam = mp.mpf(alpha) + beta + 1, mp.mpf(lam)
                ref = complex(mp.hyp2f1((r + 1j * lam) / 2, (r - 1j * lam) / 2, alpha + 1,
                                        -mp.sinh(t) ** 2))
                assert abs(val - ref) <= bar, (alpha, beta, lam, t)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            jacobi_phi(-1.0, 0.0, 1.0, 0.5)


class TestOpdamG:
    def test_normalization_at_origin(self):
        for k1, k2 in ((0.3, 0.3), (0.7, 1.5), (2.0, 0.4)):
            for lam in (0.0, 1.0, 3.5, 1.0 + 0.5j):
                assert opdam_G(Multiplicity(k1, k2), lam, 0.0) == 1.0

    def test_conjugation_symmetry(self):
        # on all three branches (lam = 5, |x| = 2.5: connection)
        k = Multiplicity(0.6, 1.1)
        for lam in (0.7, 2.2, 5.0):
            for x in (0.4, -1.3, 2.5):
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

    @pytest.mark.parametrize("lam", [math.nan, complex(1.0, math.inf)], ids=["nan", "inf-imag"])
    def test_non_finite_lam_rejected(self, lam):
        with pytest.raises(DomainError, match="spectral parameter must be finite"):
            opdam_G(Multiplicity(0.5, 0.5), lam, 0.7)
        with pytest.raises(DomainError, match="spectral parameter must be finite"):
            jacobi_phi(0.5, 0.5, lam, 0.35)

    @staticmethod
    def _multiplicities(st):
        # real and complex pairs, Re k in [0.05, 3] and Im k in [-1, 1]
        part = st.floats(-1.0, 1.0)
        return st.builds(lambda k1, k2, i1, i2, cx: Multiplicity(complex(k1, cx * i1),
                                                                 complex(k2, cx * i2)),
                         st.floats(0.05, 3.0), st.floats(0.05, 3.0), part, part, st.booleans())

    def test_property_one_at_origin(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        lams = st.one_of(st.floats(-30.0, 30.0),
                         st.complex_numbers(max_magnitude=30.0, allow_nan=False,
                                            allow_infinity=False))

        @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=50)
        @hyp.given(self._multiplicities(st), lams)
        def check(k, lam):
            assert opdam_G(k, lam, 0.0) == 1.0

        check()

    def test_property_conjugation_within_bars(self):
        # G_{-lam} for conj k is conj G_lam for real lam, on all three branches
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, deadline=None, database=None, max_examples=100)
        @hyp.given(self._multiplicities(st), st.floats(0.0, 30.0), st.floats(-3.0, 3.0))
        def check(k, lam, x):
            conj = Multiplicity(complex(k.k1).conjugate(), complex(k.k2).conjugate())
            g, bar = _opdam_G(k, lam, x)[:2]
            g_conj, bar_conj = _opdam_G(conj, -lam, x)[:2]
            assert abs(g_conj - g.conjugate()) <= bar + bar_conj

        check()

    def test_complex_multiplicity_accepted(self):
        val = opdam_G(Multiplicity(0.5 + 0.1j, 0.8), 1.0, 0.7)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    @pytest.mark.parametrize("k1, k2", [*config.K_GRID, (0.5 + 0.4j, 0.8 - 0.3j)])
    def test_block_sums_match_hyp2f1(self, k1, k2):
        # one loop gives both blocks as two 30-digit 2F1 would, in all three
        # forms.  Direct and Pfaff: to 1e-13 at lam <= 1, else to 1e-13 or
        # the loop's own bar, since from lam = 2.5 at large |x| the Pfaff
        # series cancel and keep only that many digits.  Connection, where
        # z < -1: F(a, c - b; a - b + 1; u) and F(a + 1, c - b; a - b + 1; u)
        # with u = 1/(1 - z), to 1e-13 and within the bar at every lam
        mp = pytest.importorskip("mpmath")
        k = Multiplicity(k1, k2)
        rho, c = k.rho, k1 + k2 + 0.5
        for lam in (0.0, 1.0, 2.5, 5.0, 8.0):
            a, b = rho + 1j * lam, rho - 1j * lam
            for x in (0.3, 1.0, 2.0, 3.0):
                z = -math.sinh(x / 2.0) ** 2
                pfaff = z <= -0.5
                bb, w = (c - b, z / (z - 1.0)) if pfaff else (b, z)
                s1, s2, e1, e2, _, converged = _block_sums(a, bb, c, w,
                                                           "pfaff" if pfaff else "direct")
                with mp.workdps(30):
                    h1 = complex(mp.hyp2f1(a, bb, c, w))
                    h2 = complex(mp.hyp2f1(a + 1, bb if pfaff else bb + 1, c + 1, w))
                assert converged
                assert abs(s1 - h1) <= 1e-13 * abs(h1) + e1, (lam, x)
                assert abs(s2 - h2) <= 1e-13 * abs(h2) + e2, (lam, x)
                if lam <= 1.0:
                    assert abs(s1 - h1) <= 1e-13 * abs(h1) and abs(s2 - h2) <= 1e-13 * abs(h2)
                if z < -1.0:
                    u, d = 1.0 / (1.0 - z), a - b + 1.0
                    s1, s2, e1, e2, _, converged = _block_sums(a, c - b, d, u, "connection")
                    with mp.workdps(30):
                        h1 = complex(mp.hyp2f1(a, c - b, d, u))
                        h2 = complex(mp.hyp2f1(a + 1, c - b, d, u))
                    assert converged
                    for err, h, e in ((abs(s1 - h1), h1, e1), (abs(s2 - h2), h2, e2)):
                        assert err <= min(e, 1e-13 * abs(h)), (lam, x)

    @pytest.mark.parametrize("k1, k2", [(0.3, 0.7), (1.5, 0.3), (0.5 + 0.4j, 0.8 - 0.3j),
                                        (0.005, 0.005)])
    def test_vanishing_second_parameter(self, k1, k2):
        # lam = -i rho makes b = rho - i lam = 0, where a derivative identity
        # for the second block would divide by zero
        k = Multiplicity(k1, k2)
        lam = -1j * k.rho
        for x in (-3.0, -1.0, -0.2, 0.5, 1.2, 3.0):
            ref = eigen_reference(k1, k2, lam, x)
            val, _, method, _ = _opdam_G(k, lam, x)
            assert abs(val - ref) <= 1e-14 * max(1.0, abs(ref)), x
            # a - b = 2 rho is real: never the connection branch
            assert method == ("direct" if abs(x) < 1.4 else "pfaff")

    @pytest.mark.parametrize("k1, k2", [(0.005, 0.005), (0.01, 0.002)])
    def test_tiny_multiplicity(self, k1, k2):
        k = Multiplicity(k1, k2)
        for lam in (0.0, 1.0, 2.0):
            for x in (-3.0, -2.2, -1.3, -0.7, -0.1, 0.1, 0.7, 1.3, 2.2, 3.0):
                ref = eigen_reference(k1, k2, lam, x)
                assert abs(opdam_G(k, lam, x) - ref) <= 1e-14, (lam, x)

    @pytest.mark.parametrize("x", [1e-300, -1e-300])
    def test_tiny_argument_gives_one(self, x):
        for k, lam in ((Multiplicity(0.3, 1.5), 2.5), (Multiplicity(0.5 + 0.2j, 1.5), 20.0)):
            assert abs(opdam_G(k, lam, x) - 1.0) <= sys.float_info.epsilon

    def test_term_cap_doubling_on_acceptance_grid(self, monkeypatch):
        doubled = replace(NUMERICS, series_max_terms=2 * NUMERICS.series_max_terms)
        for k1, k2 in config.K_GRID:
            k = Multiplicity(k1, k2)
            for lam in config.EIGEN_LAMBDAS:
                for x in (-2.0, -0.5, 0.5, 2.0):
                    v1 = opdam_G(k, lam, x)
                    with monkeypatch.context() as m:
                        m.setattr(specfun, "NUMERICS", doubled)
                        v2 = opdam_G(k, lam, x)
                    assert abs(v1 - v2) <= 1e-12 * abs(v1)

    def test_error_bar_covers_reference(self):
        # real, complex and tiny k, lam up to 20: no point is ever dropped
        rng = np.random.default_rng(17)
        for i in range(240):
            if i % 3 == 0:
                ks = rng.uniform(0.1, 3.0, 2)
            elif i % 3 == 1:
                ks = rng.uniform(0.1, 3.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
            else:
                ks = rng.uniform(0.001, 0.02, 2)
            (k1, k2), lam, x = ks.tolist(), rng.uniform(0.0, 20.0), rng.uniform(-3.0, 3.0)
            ref = eigen_reference(k1, k2, lam, x)
            val, bar, _, _ = _opdam_G(Multiplicity(k1, k2), lam, x)
            assert abs(val - ref) <= bar, (k1, k2, lam, x)

    @pytest.mark.parametrize("lam, bar_rel", [(8.0, 1e-12), (12.0, 1e-12), (20.0, 1e-12),
                                              (30.0, 2e-12)])
    def test_large_lam_at_x_3(self, lam, bar_rel):
        # the Pfaff series were off by 2.4e-10, 1.3e-6, 107 and 3.0e11 here;
        # the connection terms keep 13 digits.  The bar is the first-order
        # bound on four log-Gammas (their parts sum to 560 at lam = 30) and
        # on series whose largest term is 15 times their sum
        ref = eigen_reference(0.3, 0.3, lam, 3.0)
        val, bar, method, _ = _opdam_G(Multiplicity(0.3, 0.3), lam, 3.0)
        assert method == "connection"
        assert abs(val - ref) <= 1e-13 * abs(ref)
        assert abs(val - ref) <= bar <= bar_rel * abs(ref)

    @pytest.mark.parametrize("k1, k2", [(0.3, 0.3), (1.5, 0.7), (0.5 + 0.3j, 0.7)])
    def test_within_summed_bars_of_apply_v(self, k1, k2):
        # V e^{i lam .} = G_lam at large lam, one x a side on each branch:
        # |x| = 1 direct, 1.5 Pfaff, 2.5 connection.  Where the direct and
        # Pfaff series cancel, G's bar exceeds 10 only at lam = 30, |x| = 1.5
        # (54 to 6.7e3) while V's stays below 1e-13: ROADMAP item 1's open part
        k = Multiplicity(k1, k2)
        for lam in (8.0, 20.0, 30.0):
            for x in (1.0, -1.0, 1.5, -1.5, 2.5, -2.5):
                g, g_bar, method, _ = _opdam_G(k, lam, x)
                v = apply_V(k, plane_wave(lam), x)
                assert method == {1.0: "direct", 1.5: "pfaff", 2.5: "connection"}[abs(x)]
                assert abs(g - v.value) <= g_bar + v.est_error, (lam, x)
                assert v.est_error < 1e-13, (lam, x)
                assert (g_bar > 10.0) == (lam == 30.0 and abs(x) == 1.5), (lam, x, g_bar)

    def test_non_convergence_carries_partial_value_of_G(self):
        # at x = 10 the Pfaff-mapped argument is 0.99982 and the series stop
        # at the term cap; the partial value is G's, with a bar covering it
        with pytest.raises(NonConvergenceError, match=r"z=-5506\.116.*w=0\.99981") as info:
            opdam_G(Multiplicity(0.5, 0.5), 1.0, 10.0)
        ref = eigen_reference(0.5, 0.5, 1.0, 10.0)
        assert abs(info.value.partial - ref) <= info.value.est_error < abs(ref)


def _opdam_routes(k, lam, x, branches):
    """G's (value, bar, method, steps) from each term set in ``branches``."""
    s = complex(k.k1) + complex(k.k2)
    a, b, c = k.rho + 1j * lam, k.rho - 1j * lam, s + 0.5
    z, weight = -math.sinh(x / 2.0) ** 2, a / c * math.tanh(x / 2.0)
    return [_sum_terms(z, weight, *branch(a, b, c, z)) for branch in branches]


class TestTermSets:
    """``_sum_terms``, the one sum over each branch's terms."""

    @pytest.mark.parametrize("k1, k2", [(0.3, 0.3), (1.5, 0.7), (0.5 + 0.4j, 0.8 - 0.3j)])
    def test_routes_agree_at_the_pfaff_switch(self, k1, k2):
        # x_half = 2 asinh(1/sqrt 2) is where z = -1/2.  Just either side of
        # it the direct and the Pfaff series agree within the sum of their
        # bars, and _gauss_2f1 takes the direct branch only for z > -1/2
        k = Multiplicity(k1, k2)
        x_half = 2.0 * math.asinh(math.sqrt(0.5))
        for lam in (0.0, 2.5, 8.0):
            for x in (x_half - 1e-9, x_half + 1e-9, -x_half + 1e-9, -x_half - 1e-9):
                (vd, bd, m_d, _), (vp, bp, m_p, _) = _opdam_routes(k, lam, x,
                                                                   (_direct_terms, _pfaff_terms))
                assert (m_d, m_p) == ("direct", "pfaff")
                assert abs(vd - vp) <= bd + bp, (lam, x)
                z = -math.sinh(x / 2.0) ** 2
                assert _opdam_G(k, lam, x)[2] == ("direct" if z > -0.5 else "pfaff"), (lam, x)
                assert (z > -0.5) == (abs(x) < x_half), (lam, x)

    @pytest.mark.parametrize("a, b, c, z, method", [
        (0.7, 1.3, 1.9, 0.4, "direct"),
        (0.8 + 0.6j, 0.8 - 0.6j, 1.3, -2.1, "pfaff"),
        (0.6 + 5j, 0.6 - 5j, 1.7, -9.0, "connection"),
    ])
    def test_weight_zero_ignores_second_block(self, monkeypatch, a, b, c, z, method):
        # with weight 0 the value and bar are F1's, even where the second
        # block's sum and bar are not finite: no 0 * inf turns them into nan
        value, bar, taken = _hyp2f1_branch(a, b, c, z)
        assert taken == method and math.isfinite(bar)
        block_sums = specfun._block_sums

        def broken_second_block(*args):
            s1, _, e1, _, steps, converged = block_sums(*args)
            return s1, complex(math.inf, math.nan), e1, math.inf, steps, converged

        monkeypatch.setattr(specfun, "_block_sums", broken_second_block)
        assert _hyp2f1_branch(a, b, c, z) == (value, bar, method)


class TestConnectionBranch:
    """G and 2F1 where u = 1/(1 - z) < 1/2 and |a - b| >= 6 (lam >= 3 in G)."""

    def test_error_bar_covers_reference(self):
        # lam in [3, 40], 1.77 <= |x| <= 20, real and complex k down to
        # Re k = 0.05: every point takes the branch, and none is dropped
        rng = np.random.default_rng(32)
        for i in range(320):
            ks = rng.uniform(0.05, 3.0, 2)
            if i % 2:
                ks = ks + 1j * rng.uniform(-1.0, 1.0, 2)
            (k1, k2), lam = ks.tolist(), rng.uniform(3.0, 40.0)
            x = rng.choice((-1.0, 1.0)) * rng.uniform(1.77, 20.0)
            ref = eigen_reference(k1, k2, lam, x)
            val, bar, method, _ = _opdam_G(Multiplicity(k1, k2), lam, x)
            assert method == "connection", (k1, k2, lam, x)
            assert abs(val - ref) <= bar, (k1, k2, lam, x)

    @pytest.mark.parametrize("k1, k2", [(0.3, 0.3), (1.5, 0.7), (0.5 + 0.4j, 0.8 - 0.3j)])
    def test_routes_agree_at_the_switch(self, k1, k2):
        # x_half = 2 asinh(1) is where z = -1 and u = 1/2; lam = 3 is where
        # |a - b| = 6.  Just either side of each, the Pfaff series and the
        # connection terms agree within the sum of their bars, and
        # _gauss_2f1 takes the connection branch only inside both thresholds
        k = Multiplicity(k1, k2)
        x_half = 2.0 * math.asinh(1.0)
        for lam, x, inside in ((3.0, x_half + 1e-9, True), (3.0, x_half - 1e-9, False),
                               (3.0 - 1e-9, 2.5, False), (3.0 + 1e-9, 2.5, True),
                               (3.0, 2.5, True), (2.9, -2.5, False)):
            (vs, bs, ms, _), (vc, bc, mc, _) = _opdam_routes(k, lam, x,
                                                             (_pfaff_terms, _connection_terms))
            assert (ms, mc) == ("pfaff", "connection")
            assert abs(vs - vc) <= bs + bc, (lam, x)
            assert _opdam_G(k, lam, x)[2] == ("connection" if inside else "pfaff"), (lam, x)

    def test_non_convergence_names_u_and_carries_partial_value(self, monkeypatch):
        # at 8 terms the connection series in u = 0.1807 stop short; the
        # message gives z and u, and the partial value is G's with a bar
        # covering it
        monkeypatch.setattr(specfun, "NUMERICS", replace(NUMERICS, series_max_terms=8))
        with pytest.raises(NonConvergenceError, match=r"z=-4\.5338.*mapped to u=0\.18070") as info:
            opdam_G(Multiplicity(0.3, 0.3), 8.0, 3.0)
        ref = eigen_reference(0.3, 0.3, 8.0, 3.0)
        assert abs(info.value.partial - ref) <= info.value.est_error < 1e-5 * abs(ref)
