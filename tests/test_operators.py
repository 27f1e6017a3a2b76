
import warnings

import numpy as np
import pytest

from trigdunkl import (
    ContractError,
    DomainError,
    EvaluationError,
    Multiplicity,
    TestFunction,
    apply_V,
    apply_Vt,
    bump,
    cherednik_D,
    dktilde_dy,
    duality_gap,
    gaussian,
    get_test_function,
    intertwine_gap,
    jacobi_kernel,
    kernel_K,
    kernel_K_mourou,
    ktilde,
    monomial,
    opdam_G,
    plane_wave,
    positivity_scan,
)
from trigdunkl import config, operators
from trigdunkl.verify import run_suite

K_GRID = [(a, b) for a in (0.3, 0.7, 1.5) for b in (0.3, 0.7, 1.5)]


def eigen_reference(k1, k2, lam, x):
    """G_{i lam}(x) from two mpmath 2F1 at 30 digits; V(e^{i lam .}) equals it."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        mk1, mk2, mlam, mx = (mp.mpmathify(v) for v in (k1, k2, lam, x))
        s, rho, z = mk1 + mk2, mk1 / 2 + mk2, -mp.sinh(mx / 2) ** 2
        f1 = mp.hyp2f1(rho + 1j * mlam, rho - 1j * mlam, s + 0.5, z)
        f2 = mp.hyp2f1(rho + 1 + 1j * mlam, rho + 1 - 1j * mlam, s + 1.5, z)
        return complex(f1 + (rho + 1j * mlam) / (2 * s + 1) * mp.sinh(mx) * f2)


def opdam_function(k, lam):
    """Eigenfunction as a registry-style input with a numeric derivative."""
    def ev(x):
        return opdam_G(k, lam, float(x))

    def dv(x):
        h = 1e-5 * max(1.0, abs(x))
        return (ev(x + h) - ev(x - h)) / (2.0 * h)

    return TestFunction(id=f"eigen({lam})", eval=ev, deriv=dv)


class TestRegistry:
    def test_ids_and_support(self):
        assert plane_wave(1.5).id == "plane_wave(1.5)"
        assert bump(2.0).support == 2.0
        assert gaussian().support is None

    def test_derivatives_match_finite_differences(self):
        h = 1e-6
        for f in (plane_wave(1.3), monomial(3), gaussian(0.8), bump(2.0)):
            for x in (-1.4, -0.3, 0.9, 1.7):
                fd = (f.eval(x + h) - f.eval(x - h)) / (2.0 * h)
                assert abs(f.deriv(x) - fd) <= 1e-6 * (1.0 + abs(fd))

    def test_bump_vanishes_outside(self):
        g = bump(2.0)
        assert g.eval(2.0) == 0.0
        assert g.eval(-2.5) == 0.0
        assert g.deriv(2.1) == 0.0
        assert g.eval(np.array([-3.0, 0.0, 3.0]))[2] == 0.0

    def test_parser(self):
        assert get_test_function("plane_wave:2.5").id == "plane_wave(2.5)"
        assert get_test_function("bump:1.5").support == 1.5
        assert get_test_function("gaussian").id == "gaussian(1.0)"
        with pytest.raises(DomainError):
            get_test_function("sinc")
        with pytest.raises(DomainError):
            get_test_function("plane_wave")


class TestCherednikD:
    def test_constant_function(self):
        k = Multiplicity(0.7, 0.4)
        val = cherednik_D(k, monomial(0), 0.9)
        assert val == pytest.approx(-(0.7 / 2 + 0.4), rel=1e-14)

    def test_forms_agree_random_samples(self):
        rng = np.random.default_rng(20260809)
        for _ in range(100):
            k = Multiplicity(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
            x = rng.uniform(0.05, 2.5) * rng.choice([-1.0, 1.0])
            c0, c1, c2, c3 = rng.standard_normal(4)
            f = TestFunction(
                "smooth",
                eval=lambda t, c0=c0, c1=c1, c2=c2, c3=c3:
                    c0 + c1 * t + c2 * t * t + c3 * np.cos(t),
                deriv=lambda t, c1=c1, c2=c2, c3=c3: c1 + 2 * c2 * t - c3 * np.sin(t),
            )
            a = cherednik_D(k, f, x, "regularized")
            b = cherednik_D(k, f, x, "cothtanh")
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_eigenfunction_equation(self):
        for k1, k2, lam, x in ((0.5, 0.5, 1.3, 0.8), (0.3, 1.5, 2.0, -1.2),
                               (1.5, 0.7, 0.5, 1.9)):
            k = Multiplicity(k1, k2)
            f = opdam_function(k, lam)
            val = cherednik_D(k, f, x)
            target = 1j * lam * f.eval(x)
            assert abs(val - target) <= 1e-5 * (1.0 + abs(target))

    def test_origin_limit_mode(self):
        k = Multiplicity(0.6, 0.9)
        f = plane_wave(2.0)
        val = cherednik_D(k, f, 0.0, "cothtanh")
        expected = (1.0 + 2.0 * 1.5) * 2.0j - (0.6 / 2 + 0.9)
        assert val == pytest.approx(expected, rel=1e-12)
        # consistency with the eigen-equation at the origin
        g = opdam_function(k, 1.1)
        assert abs(cherednik_D(k, g, 0.0) - 1.1j) <= 1e-5

    def test_regularized_pole_at_origin(self):
        with pytest.raises(DomainError):
            cherednik_D(Multiplicity(0.5, 0.5), plane_wave(1.0), 0.0, "regularized")

    def test_requires_derivative(self):
        f = TestFunction("no-deriv", eval=lambda t: t)
        with pytest.raises(ContractError):
            cherednik_D(Multiplicity(0.5, 0.5), f, 1.0)


class TestApplyV:
    def test_plane_wave_reproduces_eigenfunction(self):
        for k in (Multiplicity(0.5, 0.5), Multiplicity(0.5 + 0.2j, 0.7)):
            res = apply_V(k, plane_wave(1.5), 1.0)
            target = opdam_G(k, 1.5, 1.0)
            assert abs(res.value - target) <= 1e-6 * (1.0 + abs(target)), k

    def test_method_names_inner_rule(self):
        # the kernel is a closed-form series for real and complex k alike;
        # the outer rule names the highest level its stop rule needed
        for k in (Multiplicity(0.5, 0.7), Multiplicity(0.5 + 0.2j, 0.7)):
            assert apply_V(k, plane_wave(1.5), 1.0).method == "tanh-sinh(level=4) x euler-2f1"
            assert apply_Vt(k, bump(2.0), 0.5).method == "tanh-sinh(level=4) x euler-2f1"
            assert kernel_K(k, 1.0, 0.3).method == "euler-2f1"

    @pytest.mark.parametrize("x", [3.0, -3.0])
    def test_level_above_start_within_error(self, x):
        # e^{20 i y} needs more than level 4 over (-3, 3); the level reached
        # keeps |V - G| within the reported error
        ref = eigen_reference(0.5, 0.5, 20, x)
        res = apply_V(Multiplicity(0.5, 0.5), plane_wave(20.0), x)
        assert res.method != "tanh-sinh(level=4) x euler-2f1"
        assert abs(res.value - ref) <= res.est_error

    @pytest.mark.parametrize("op, f, at", [(apply_V, plane_wave(1.0), 800.0),
                                           (apply_Vt, bump(800.0), 1.0)],
                             ids=["apply_V", "apply_Vt"])
    def test_non_finite_value_raises(self, op, f, at):
        # far out the kernel's weight overflows; no NaN is returned
        with pytest.raises(EvaluationError):
            op(Multiplicity(0.5, 0.5), f, at)

    def test_error_bars_cover_reference(self):
        # the bar carries the outer rule's error, each kernel value's bar
        # and the integrand's rounding
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(150)
        for i in range(150):
            k1, k2 = rng.uniform(0.1, 3.0, 2)
            if i % 3 == 2:
                k1 = complex(k1, rng.uniform(-1.0, 1.0))
            lam = rng.uniform(0.0, 5.0)
            x = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
            ref = eigen_reference(k1, k2, lam, x)
            res = apply_V(Multiplicity(k1, k2), plane_wave(lam), x)
            assert abs(res.value - ref) <= res.est_error, (k1, k2, lam, x)

    @pytest.mark.parametrize("k1, k2", [(0.05, 0.05), (0.02, 0.03)])
    def test_small_k_error_bar_counts_cut_tail(self, k1, k2):
        # the outer rule stops at gap 1e-60, where at Re(k1 + k2) <= 0.1 the
        # integrand ~ gap^{k1+k2-1} still leaves 1e-6 .. 1e-3 of the integral
        ref = eigen_reference(k1, k2, 1.0, 1.0)
        res = apply_V(Multiplicity(k1, k2), plane_wave(1.0), 1.0)
        assert abs(res.value - ref) <= res.est_error

    def test_constant_function_gives_lambda_zero(self):
        k = Multiplicity(0.7, 1.1)
        for x in (0.5, -1.7):
            res = apply_V(k, monomial(0), x)
            target = opdam_G(k, 0.0, x)
            assert abs(res.value - target) <= 1e-6 * (1.0 + abs(target))

    def test_point_evaluation_at_origin(self):
        k = Multiplicity(0.5, 0.5)
        assert apply_V(k, gaussian(), 0.0).value == 1.0
        assert apply_V(k, plane_wave(2.0), 0.0).value == 1.0

    def test_origin_continuity(self):
        # Vf(x) -> f(0) linearly; constant fitted at the coarse end with a
        # safety margin covering the curvature term
        k = Multiplicity(0.7, 0.4)
        f = gaussian()
        gaps = [abs(apply_V(k, f, x).value - 1.0) for x in (0.1, 0.01, 0.001)]
        assert gaps[0] > gaps[1] > gaps[2]
        c_bound = 3.0 * gaps[0] / 0.1
        assert gaps[1] <= c_bound * 0.01
        assert gaps[2] <= c_bound * 0.001


def _at_y(form, *args):
    """form(k, x, -0.4 x, *args) as a function of (k, x)."""
    return lambda k, x: form(k, x, np.multiply(-0.4, x), *args)


class TestArrayInputs:
    """kernel_K, its oracle forms, apply_V and apply_Vt take a scalar or an array of points."""

    CALLS = {   # op(k, points) for scalar or array points; kernel_K at y = -0.4 x
        "kernel_K": _at_y(kernel_K),
        "apply_V": lambda k, x: apply_V(k, plane_wave(1.5), x),
        "apply_Vt": lambda k, y: apply_Vt(k, bump(2.0), y),
    }
    ORACLES = {     # a one-element array rounds as arrays do, not as the scalar
        "jacobi_kernel": _at_y(jacobi_kernel),
        "ktilde-direct": _at_y(ktilde, "direct"),
        "ktilde-byparts": _at_y(ktilde, "byparts"),
        "ktilde-defining": _at_y(ktilde, "defining"),
        "dktilde_dy": _at_y(dktilde_dy),
        "kernel_K_mourou": _at_y(kernel_K_mourou),
    }
    ANY = {**CALLS, **ORACLES}
    POINTS = (1.3, -0.5, 2.4, 0.6)      # 2.4 lies outside the bump's support
    KS = [Multiplicity(0.7, 0.4), Multiplicity(0.5 + 0.2j, 0.7)]
    by_call = pytest.mark.parametrize("name", sorted(CALLS))
    by_any = pytest.mark.parametrize("name", sorted(CALLS) + sorted(ORACLES))
    by_k = pytest.mark.parametrize("k", KS, ids=["real", "complex"])

    @by_call
    @by_k
    def test_scalar_is_one_element_array(self, name, k):
        for p in self.POINTS:
            one, arr = self.CALLS[name](k, p), self.CALLS[name](k, [p])
            assert arr.value.shape == arr.est_error.shape == (1,)
            assert np.asarray(one.value).tobytes() == arr.value.tobytes(), p
            assert np.asarray(one.est_error).tobytes() == arr.est_error.tobytes(), p
            assert one.method == arr.method

    @by_any
    @by_k
    def test_array_matches_scalars_within_bars(self, name, k):
        arr = self.ANY[name](k, self.POINTS)
        for p, value, est in zip(self.POINTS, arr.value, arr.est_error):
            one = self.ANY[name](k, p)
            assert abs(value - one.value) <= est + one.est_error, p

    @by_any
    def test_2d_input_keeps_shape(self, name):
        k = self.KS[0]
        flat = self.ANY[name](k, self.POINTS)
        res = self.ANY[name](k, np.reshape(self.POINTS, (2, 2)))
        assert res.value.shape == res.est_error.shape == (2, 2)
        assert np.array_equal(res.value.ravel(), flat.value)
        assert np.array_equal(res.est_error.ravel(), flat.est_error)

    def test_apply_v_zeros_take_point_value(self):
        k, f = Multiplicity(0.5, 0.5), gaussian()
        res = apply_V(k, f, [0.0, 1.0, 0.0, -0.5])
        assert list(res.value[[0, 2]]) == [1.0, 1.0]
        assert list(res.est_error[[0, 2]]) == [0.0, 0.0]
        assert res.method == "tanh-sinh(level=4) x euler-2f1"
        assert apply_V(k, f, [0.0, -0.0]).method == "point-evaluation"
        assert apply_V(k, f, 0.0).method == "point-evaluation"

    def test_apply_vt_outside_support_is_zero(self):
        k, g = Multiplicity(0.5, 0.5), bump(2.0)
        res = apply_Vt(k, g, [0.5, 2.0, -3.7, 1.9])
        assert list(res.value[[1, 2]]) == [0.0, 0.0]
        assert list(res.est_error[[1, 2]]) == [0.0, 0.0]
        assert res.value[0] > 0 and res.value[3] > 0
        assert res.method == "tanh-sinh(level=4) x euler-2f1"
        assert apply_Vt(k, g, [2.0, -3.7]).method == "empty-domain"
        assert apply_Vt(k, g, 2.0).method == "empty-domain"

    @pytest.mark.parametrize("call, match", [
        (lambda k: kernel_K(k, [1.0, 1.0], [0.5, 1.0]), r"x=1.0, y=1.0"),
        (lambda k: kernel_K(k, [1.0, 0.0], [0.5, 0.0]), "x != 0"),
        (lambda k: kernel_K(k, [[1.0, np.nan]], 0.5), "non-finite"),
        (lambda k: apply_V(k, plane_wave(1.0), [1.0, np.inf]), "inf"),
        (lambda k: apply_Vt(k, bump(2.0), [0.5, np.nan]), "nan"),
        (lambda k: jacobi_kernel(k, [1.0, 1.0], [0.5, -1.0]), r"x=1.0, y=-1.0"),
        (lambda k: ktilde(k, [[1.0], [0.0]], 0.0, "direct"), "x != 0"),
        (lambda k: ktilde(k, [1.0, 2.0], [0.5, np.inf], "byparts"), "non-finite"),
        (lambda k: ktilde(k, [1.0, -2.0], [0.5, 2.5], "defining"), r"x=-2.0, y=2.5"),
        (lambda k: dktilde_dy(k, [1.0, np.nan], 0.5), "non-finite"),
        (lambda k: kernel_K_mourou(k, [1.0, 0.0], [0.5, 0.0]), "x != 0"),
    ], ids=["kernel-outside", "kernel-zero", "kernel-nan", "apply_V-inf", "apply_Vt-nan",
            "jacobi_kernel-outside", "ktilde-direct-zero", "ktilde-byparts-inf",
            "ktilde-defining-outside", "dktilde_dy-nan", "kernel_K_mourou-zero"])
    def test_one_bad_element_raises(self, call, match):
        with pytest.raises(DomainError, match=match):
            call(Multiplicity(0.5, 0.5))


@pytest.mark.parametrize("call", [
    lambda k: kernel_K(k, 1e-309, 5e-310),
    lambda k: kernel_K(k, [1.0, 1e-309], [0.3, 5e-310]),
    lambda k: apply_V(k, plane_wave(1.0), 800.0),
    lambda k: apply_V(k, plane_wave(1.0), [1.0, 800.0]),
    lambda k: apply_Vt(k, bump(800.0), 1.0),
    lambda k: positivity_scan([(k.k1, k.k2)], [1e-309], [0.5]),
], ids=["kernel_K", "kernel_K-array", "apply_V", "apply_V-array", "apply_Vt", "scan"])
def test_non_finite_value_raises_without_warnings(call):
    # the overflow behind a non-finite value is reported once, as the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError):
            call(Multiplicity(0.5, 0.5))


class TestApplyVt:
    def test_requires_support(self):
        with pytest.raises(ContractError):
            apply_Vt(Multiplicity(0.5, 0.5), gaussian(), 0.3)

    def test_zero_outside_support(self):
        k = Multiplicity(0.5, 0.5)
        g = bump(2.0)
        assert apply_Vt(k, g, 2.0).value == 0.0
        assert apply_Vt(k, g, -3.7).value == 0.0

    def test_zero_function(self):
        k = Multiplicity(0.5, 0.5)
        zero = TestFunction("zero", eval=lambda x: np.zeros_like(np.asarray(x, float)),
                            support=1.0)
        assert apply_Vt(k, zero, 0.2).value == 0.0

    def test_positive_for_positive_input(self):
        k = Multiplicity(0.7, 0.4)
        assert apply_Vt(k, bump(2.0), 0.5).value > 0


class TestDuality:
    def test_zero_function_gap(self):
        k = Multiplicity(0.5, 0.5)
        zero = TestFunction("zero", eval=lambda x: np.zeros_like(np.asarray(x, float)),
                            support=2.0)
        assert duality_gap(k, zero, bump(2.0)) == 0.0

    def test_bump_pair(self):
        gap = duality_gap(Multiplicity(0.7, 0.4), bump(2.0), bump(2.0))
        assert gap <= 1e-6

    def test_mixed_pair(self):
        gap = duality_gap(Multiplicity(0.3, 1.5), plane_wave(1.0), bump(2.0))
        assert gap <= 1e-6


class TestIntertwine:
    @pytest.mark.parametrize("f_name", ["plane_wave:1.5", "monomial:2"])
    def test_gap_small(self, f_name):
        f = get_test_function(f_name)
        for k1, k2, x in ((1.0, 1.0, 1.0), (0.3, 0.7, -0.5), (1.5, 0.3, 2.0),
                          (0.7, 0.3, 1e-4), (0.7, 0.3, -1e-4)):
            assert intertwine_gap(Multiplicity(k1, k2), f, x) <= 1e-4

    def test_linearity_scaling(self):
        k = Multiplicity(0.7, 0.4)
        f1 = monomial(2)
        f2 = TestFunction("2y^2", eval=lambda y: 2.0 * np.asarray(y, float) ** 2,
                          deriv=lambda y: 4.0 * np.asarray(y, float))
        g1 = intertwine_gap(k, f1, 1.0)
        g2 = intertwine_gap(k, f2, 1.0)
        assert g2 <= 2.0 * g1 + 1e-9

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            intertwine_gap(Multiplicity(0.5, 0.5), monomial(2), 0.0)


class TestPositivityScan:
    def test_verify_suite_rows(self):
        # one row per cell of the built-in grid, then the minimum
        rows = run_suite("positivity")
        cells, min_row = rows[:-1], rows[-1]
        assert len(cells) == 9 * 6 * 9
        assert {r["check"] for r in cells} == {"kernel_positive"}
        assert min_row["check"] == "scan_min_positive"
        assert all(r["pass"] for r in rows)
        report = positivity_scan(config.K_GRID, config.POSITIVITY_X, config.POSITIVITY_FRACS)
        k1, k2, x, y = report.argmin
        assert min_row["point"] == f"k1={k1!r} k2={k2!r} x={x!r} y={y!r}"
        assert min_row["lhs"] == report.min_value == min(r["lhs"] for r in cells)

    def test_single_cell_matches_kernel(self):
        report = positivity_scan([(0.5, 0.5)], [1.0], [0.3])
        assert len(report.cells) == 1
        direct = kernel_K(Multiplicity(0.5, 0.5), 1.0, 0.3).value
        assert report.cells[0][4] == direct
        assert report.min_value == direct
        assert report.all_positive

    def test_full_grid_positive(self):
        report = positivity_scan(
            K_GRID, (0.6, -0.6, 1.3, -1.3, 2.4, -2.4),
            (0.0, 0.5, -0.5, 0.9, -0.9, 0.99, -0.99, 0.9999, -0.9999))
        assert report.all_positive
        assert report.min_value > 0
        assert len(report.cells) == 9 * 6 * 9

    def test_near_negative_diagonal_positive(self):
        # positive x with y approaching -x, the historically contested regime
        report = positivity_scan([(0.5, 0.5), (1.5, 1.5)], [0.6, 1.3, 2.4], [-0.9999])
        assert report.all_positive

    def test_argmin_consistency(self):
        report = positivity_scan([(0.3, 0.3)], [0.6, 1.3], [0.0, -0.99])
        values = [c[4] for c in report.cells]
        assert report.min_value == min(values)
        k1, k2, x, y = report.argmin
        match = [c for c in report.cells if c[2] == x and c[3] == y]
        assert match[0][4] == report.min_value

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            positivity_scan([(0.0, 0.5)], [1.0], [0.0])
        with pytest.raises(DomainError):
            positivity_scan([(0.5, 0.5)], [0.0], [0.0])
        with pytest.raises(DomainError):
            positivity_scan([(0.5, 0.5)], [1.0], [1.0])
        with pytest.raises(DomainError):  # 0.9 * 5e-324 rounds to 5e-324 = |x|
            positivity_scan([(0.5, 0.5)], [5e-324], [0.9])

    def test_non_finite_cell_raises(self):
        with pytest.raises(EvaluationError):
            positivity_scan([(0.5, 0.5)], [1e-309], [0.5])

    @pytest.mark.parametrize("x", [1e-155, 1e-200, 1e-300, 1e-308])
    def test_tiny_x_finite(self, x):
        # sigma ~ |x| enters the exponent, where the scale ~ |x|^-2 would overflow
        report = positivity_scan([(0.5, 0.5)], [x], [0.5])
        assert report.min_value == kernel_K(Multiplicity(0.5, 0.5), x, 0.5 * x).value
        assert x * report.min_value == pytest.approx(0.75, rel=1e-11)

    def test_tiny_x_positive(self):
        # near 0 the kernel grows like 0.75 / x at k = (0.5, 0.5)
        report = positivity_scan([(0.5, 0.5)], [1e-20], [0.5])
        assert report.all_positive
        assert report.min_value == pytest.approx(7.5e19, rel=1e-6)

    @staticmethod
    def _assert_cells_match_kernel(report):
        for k1, k2, x, y, value in report.cells:
            direct = kernel_K(Multiplicity(k1, k2), x, y).value
            assert abs(value - direct) <= 4 * np.finfo(float).eps * abs(direct), (k1, k2, x, y)

    def test_config_grid_matches_kernel(self):
        self._assert_cells_match_kernel(positivity_scan(
            config.K_GRID, config.POSITIVITY_X, config.POSITIVITY_FRACS))

    def test_random_grid_matches_kernel_across_chunks(self, monkeypatch):
        # a small chunk puts chunk boundaries inside every k's grid
        monkeypatch.setattr(operators, "_SCAN_CHUNK", 7)
        rng = np.random.default_rng(20261018)
        ks = rng.uniform(0.05, 3.0, size=(3, 2))
        xs = rng.choice((-1.0, 1.0), 8) * rng.uniform(0.01, 3.0, 8)
        fracs = rng.uniform(-0.9999, 0.9999, 9)
        report = positivity_scan(ks, xs, fracs)
        assert len(report.cells) == 3 * 8 * 9
        self._assert_cells_match_kernel(report)
