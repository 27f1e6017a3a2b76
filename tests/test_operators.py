import math
import warnings

import numpy as np
import pytest

from trigdunkl import (
    ContractError,
    DomainError,
    EvaluationError,
    KernelPoint,
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
    integrate,
    intertwine_gap,
    jacobi_kernel,
    kernel_K,
    kernel_K_mourou,
    ktilde,
    monomial,
    opdam_G,
    plane_wave,
    positivity_scan,
    tanh_sinh,
    weight_A,
)
from trigdunkl import config, operators, quadrature
from trigdunkl.quadrature import _point_result
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


def split_at_origin(k, f, x):
    """V f(x) from ``integrate`` over (-|x|, 0) and (0, |x|) on kernel_K's values,
    so that a kink of f at 0 is an end of each rule."""
    a = abs(x)
    return sum(integrate(tanh_sinh(6), lambda y: kernel_K(k, x, y).value * f.eval(y), ends).value
               for ends in ((-a, 0.0), (0.0, a)))


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

    @pytest.mark.parametrize("spec", ["bump:nan", "bump:inf", "gaussian:nan", "gaussian:inf",
                                      "plane_wave:nan", "plane_wave:inf", "plane_wave:-inf"])
    def test_non_finite_parameter_rejected(self, spec):
        with pytest.raises(DomainError, match="must be finite"):
            get_test_function(spec)

    @pytest.mark.parametrize("factory, param", [
        (bump, float("nan")), (gaussian, float("inf")), (plane_wave, complex(1.0, float("nan"))),
    ])
    def test_non_finite_factory_argument_rejected(self, factory, param):
        with pytest.raises(DomainError, match="must be finite"):
            factory(param)

    @pytest.mark.parametrize("spec", ["bump:abc", "monomial:1.5", "monomial:nan"])
    def test_unparseable_parameter_rejected(self, spec):
        with pytest.raises(DomainError, match="bad parameter"):
            get_test_function(spec)

    @pytest.mark.parametrize("p", [2.7, -0.5, -1, "3", 2 + 1j, np.array([2])])
    def test_monomial_degree_not_a_nonnegative_integer_rejected(self, p):
        # no degree is rounded, clipped or parsed into another
        with pytest.raises(DomainError, match="monomial degree must be"):
            monomial(p)

    def test_monomial_degree_of_any_integral_value(self):
        square = monomial(2)
        for p in (2.0, np.int64(2), np.float32(2.0)):
            f = monomial(p)
            assert f.id == "monomial(2)"
            assert f.eval(1.5) == square.eval(1.5) and f.deriv(1.5) == square.deriv(1.5)

    @pytest.mark.parametrize("spec, match", [("monomial:-1", "degree must be >= 0"),
                                             ("gaussian:0", "width must be > 0"),
                                             ("bump:-1", "support must be > 0")],
                             ids=["monomial:-1", "gaussian:0", "bump:-1"])
    def test_out_of_range_parameter_rejected(self, spec, match):
        with pytest.raises(DomainError, match=match):
            get_test_function(spec)


class TestCherednikD:
    def test_constant_function(self):
        k = Multiplicity(0.7, 0.4)
        val = cherednik_D(k, monomial(0), 0.9)
        assert val == pytest.approx(-(0.7 / 2 + 0.4), rel=1e-14, abs=0.0)

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
        assert val == pytest.approx(expected, rel=1e-12, abs=0.0)
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

    def test_unknown_form_rejected(self):
        with pytest.raises(DomainError, match="form must be one of"):
            cherednik_D(Multiplicity(0.5, 0.5), plane_wave(1.0), 1.0, "trigonometric")

    # 1.5e-323 and 5e-324 are subnormals with an odd last bit, where x/2 rounds
    @pytest.mark.parametrize("x", [1e-320, -1e-320, 1e-300, -1e-300, 800.0, -800.0,
                                   1.5e-323, -5e-324])
    def test_forms_agree_at_extreme_points(self, x):
        # 1 - e^{-x} and tanh(x/2) are 0 or subnormal at tiny |x|, and e^{-x}
        # overflows at x = -800; the difference quotients stay finite
        for k in (Multiplicity(0.5, 0.5), Multiplicity(1.5, 0.7)):
            f = plane_wave(1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                a = cherednik_D(k, f, x, "regularized")
                b = cherednik_D(k, f, x, "cothtanh")
            assert np.isfinite(a) and np.isfinite(b)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
            if abs(x) < 1.0:    # the removable limit at 0, to rounding
                assert b == pytest.approx(cherednik_D(k, f, 0.0), rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("form", ["regularized", "cothtanh"])
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_point_raises(self, form, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                cherednik_D(Multiplicity(0.5, 0.5), plane_wave(1.0), x, form)


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
            assert ktilde(k, 1.3, 0.4, "defining").method == (
                "nested tanh-sinh(level=4) x euler-2f1")

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
        # and the integrand's rounding; the last 90 points take tiny k, where
        # the integrand ~ gap^{k1+k2-1} converges slowest, and |x| down to 1e-6
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(150)
        for i in range(240):
            k1, k2 = rng.uniform(*((0.1, 3.0) if i < 150 else (0.01, 0.1)), 2)
            if i % 3 == 2:
                k1 = complex(k1, rng.uniform(-1.0, 1.0))
            lam = rng.uniform(0.0, 5.0)
            x = rng.choice((-1.0, 1.0)) * (rng.uniform(0.3, 3.0) if i < 150
                                           else 10.0 ** rng.uniform(-6.0, 0.5))
            ref = eigen_reference(k1, k2, lam, x)
            res = apply_V(Multiplicity(k1, k2), plane_wave(lam), x)
            assert abs(res.value - ref) <= res.est_error, (k1, k2, lam, x)

    @pytest.mark.parametrize("k1, k2", [(0.05, 0.05), (0.02, 0.03)])
    def test_small_k_error_bar_counts_cut_tail(self, k1, k2):
        # the integrand ~ gap^{k1+k2-1} leaves gap^{k1+k2} beyond an end cut,
        # 1e-6 .. 1e-3 of the integral for a cut at gap 1e-60 at
        # Re(k1 + k2) <= 0.1: the cut must follow the power
        ref = eigen_reference(k1, k2, 1.0, 1.0)
        res = apply_V(Multiplicity(k1, k2), plane_wave(1.0), 1.0)
        assert abs(res.value - ref) <= min(res.est_error, 1e-12)

    @pytest.mark.parametrize("k1, k2", [(0.5, 0.5), (1.5, 0.7)])
    @pytest.mark.parametrize("x", [1e-270, -1e-300])
    def test_tiny_x_within_error_bar(self, k1, k2, x):
        # the outer end distances 0.5 |x| gap stay representable
        ref = eigen_reference(k1, k2, 1.0, x)
        res = apply_V(Multiplicity(k1, k2), plane_wave(1.0), x)
        assert abs(res.value - ref) <= res.est_error

    def test_kink_at_origin_within_error_bar(self):
        # |y| breaks the smoothness at 0 that apply_V asks of f: the sums
        # converge only algebraically, and their bar is the difference of
        # the last two levels, which covers a kink's error but is no bound
        f = TestFunction("abs", eval=lambda y: np.abs(np.asarray(y, dtype=float)))
        k = Multiplicity(0.5, 0.3)
        for x in (1.0, -2.0):
            res = apply_V(k, f, x)
            ref = split_at_origin(k, f, x)
            assert abs(res.value - ref) <= res.est_error < 1e-6

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

    def test_point_evaluation_is_f_itself(self):
        # f(0) as f returns it, the sign of a zero imaginary part included:
        # e^{-1.5 i 0} is 1 - 0j
        f = plane_wave(-1.5)
        value = apply_V(Multiplicity(0.5, 0.5), f, [0.0, 1.3]).value[0]
        assert np.signbit(np.imag(f.eval(0.0)))
        assert value.tobytes() == np.complex128(f.eval(0.0)).tobytes()

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


KERNEL_FORMS = {    # the seven public kernel calls, form(k, x, y)
    "kernel_K": kernel_K,
    "jacobi_kernel": jacobi_kernel,
    "ktilde-direct": lambda k, x, y: ktilde(k, x, y, "direct"),
    "ktilde-byparts": lambda k, x, y: ktilde(k, x, y, "byparts"),
    "ktilde-defining": lambda k, x, y: ktilde(k, x, y, "defining"),
    "dktilde_dy": dktilde_dy,
    "kernel_K_mourou": kernel_K_mourou,
}


def _at_y(form):
    """form(k, x, -0.4 x) as a function of (k, x)."""
    return lambda k, x: form(k, x, np.multiply(-0.4, x))


class TestArrayInputs:
    """kernel_K, its oracle forms, apply_V and apply_Vt take a scalar or an array of points."""

    CALLS = {   # op(k, points) for scalar or array points; the kernels at y = -0.4 x
        "apply_V": lambda k, x: apply_V(k, plane_wave(1.5), x),
        "apply_Vt": lambda k, y: apply_Vt(k, bump(2.0), y),
        **{name: _at_y(form) for name, form in KERNEL_FORMS.items()},
    }
    POINTS = (1.3, -0.5, 2.4, 0.6)      # 2.4 lies outside the bump's support
    # mostly negative: V at negative x and tV at negative y take the mirror
    # pieces with the other sign; -2.6 lies outside the bump's support
    MIXED = (-1.3, 0.9, -2.6, -0.2, -2.9)
    KS = [Multiplicity(0.7, 0.4), Multiplicity(0.5 + 0.2j, 0.7)]
    by_name = pytest.mark.parametrize("name", sorted(CALLS))
    by_k = pytest.mark.parametrize("k", KS, ids=["real", "complex"])
    by_points = pytest.mark.parametrize("points", [POINTS, MIXED], ids=["points", "mixed-signs"])

    @by_name
    @by_k
    @by_points
    def test_scalar_is_one_element_array(self, name, k, points):
        for p in points:
            one, arr = self.CALLS[name](k, p), self.CALLS[name](k, [p])
            assert arr.value.shape == arr.est_error.shape == (1,)
            assert np.asarray(one.value).tobytes() == arr.value.tobytes(), p
            assert np.asarray(one.est_error).tobytes() == arr.est_error.tobytes(), p
            assert one.method == arr.method

    @by_name
    @by_k
    @by_points
    def test_array_matches_scalars_within_bars(self, name, k, points):
        arr = self.CALLS[name](k, points)
        for p, value, est in zip(points, arr.value, arr.est_error):
            one = self.CALLS[name](k, p)
            assert abs(value - one.value) <= est + one.est_error, p

    @by_name
    def test_2d_input_keeps_shape(self, name):
        k = self.KS[0]
        flat = self.CALLS[name](k, self.POINTS)
        res = self.CALLS[name](k, np.reshape(self.POINTS, (2, 2)))
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

    @pytest.mark.parametrize("points", [[], np.zeros((2, 0))], ids=["flat", "2d"])
    def test_empty_points_give_empty_results(self, points):
        # V and the intertwining defect accept no points as tV and the kernel forms do
        k = Multiplicity(0.5, 0.5)
        fs = (plane_wave(1.0), bump(2.0))
        for res in (apply_V(k, fs[0], points), apply_Vt(k, fs[1], points),
                    kernel_K(k, points, points), *apply_V(k, fs, points)):
            assert res.value.shape == res.est_error.shape == np.shape(points)
        for gap in (intertwine_gap(k, fs[0], points), *intertwine_gap(k, fs, points)):
            assert gap.shape == np.shape(points)

    def test_no_functions_give_no_results(self):
        k = Multiplicity(0.5, 0.5)
        assert apply_V(k, (), 1.0) == () and apply_V(k, (), [1.0, -1.0]) == ()
        assert intertwine_gap(k, (), 1.0) == ()
        with pytest.raises(DomainError, match="must be real"):
            apply_V(k, (), 1.0 + 0.5j)

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

    # each point argument in turn is non-real; a kernel's other one is y = 0.2 or x = 1.3
    NON_REAL_CALLS = {
        **{f"{name}-x": lambda k, p, form=form: form(k, p, 0.2)
           for name, form in KERNEL_FORMS.items()},
        **{f"{name}-y": lambda k, p, form=form: form(k, 1.3, p)
           for name, form in KERNEL_FORMS.items()},
        "apply_V": CALLS["apply_V"],
        "apply_Vt": CALLS["apply_Vt"],
        "intertwine_gap": lambda k, x: intertwine_gap(k, plane_wave(1.5), x),
    }

    @pytest.mark.parametrize("name", sorted(NON_REAL_CALLS))
    @pytest.mark.parametrize("point", [np.array([1.3 + 0.5j]), 1.3 + 0.5j, "1.3"],
                             ids=["complex-array", "complex", "string"])
    def test_non_real_point_raises(self, name, point):
        # no imaginary part is dropped and no text parsed: a DomainError, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be real"):
                self.NON_REAL_CALLS[name](self.KS[0], point)


class TestKernelFormContract:
    """Every public kernel form checks its points as KernelPoint does and broadcasts them."""

    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    @pytest.mark.parametrize("x, y", [(0.0, 0.0), (1.0, -1.0), (-1.0, 1.5), (np.nan, 0.2),
                                      (1.0, np.inf), (np.inf, 0.2)],
                             ids=["zero", "edge", "outside", "nan", "inf-y", "inf-x"])
    def test_inadmissible_point_raises_kernel_point_message(self, name, x, y):
        with pytest.raises(DomainError) as expected:
            KernelPoint(x, y)
        with pytest.raises(DomainError) as err:
            KERNEL_FORMS[name](Multiplicity(0.5, 0.5), x, y)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("name", sorted(KERNEL_FORMS))
    @pytest.mark.parametrize("k", TestArrayInputs.KS, ids=["real", "complex"])
    def test_mixed_shapes_are_broadcast_arrays(self, name, k):
        x, y = np.array([[1.3], [-0.8]]), np.array([0.5, -0.2, 0.0])
        res = KERNEL_FORMS[name](k, x, y)
        ref = KERNEL_FORMS[name](k, *np.broadcast_arrays(x, y))
        assert res.value.shape == res.est_error.shape == (2, 3)
        assert res.value.tobytes() == ref.value.tobytes()
        assert res.est_error.tobytes() == ref.est_error.tobytes()
        assert res.method == ref.method


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


def test_non_finite_error_bar_named():
    # a finite value with a non-finite error bar is named as such
    with pytest.raises(EvaluationError) as err:
        _point_result(np.array([1.0, 2.0]), np.array([0.0, np.nan]), "nested tanh-sinh")
    message = str(err.value)
    assert "non-finite error bar nan" in message
    assert "non-finite value" not in message


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


def _error_over_bar(monkeypatch, call):
    """|call() - reference| / call()'s bar, the reference being the same outer
    sums started at level 8 (levels 5 to 12 agree to about 2 ulp)."""
    res = call()
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_MIN_TS_LEVEL", 8)
        ref = call()
    return np.abs(res.value - ref.value) / res.est_error


def _outer_level8(monkeypatch):
    """Patch ``operators._outer_sums`` to start the outermost sum of a call at
    level 8 while the sums inside its integrand keep their own level."""
    outer, first = operators._outer_sums, quadrature._MIN_TS_LEVEL

    def patched(lo, hi, integrand, *rest):
        def inner(*args):
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_MIN_TS_LEVEL", first)
                m.setattr(operators, "_outer_sums", outer)
                return integrand(*args)
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_MIN_TS_LEVEL", 8)
            return outer(lo, hi, inner, *rest)

    monkeypatch.setattr(operators, "_outer_sums", patched)


class TestOuterBarsAgainstLevel8:
    def test_apply_v_within_bars(self, monkeypatch):
        # k log-uniform in [0.05, 5], every fourth k1 complex; 320 points
        rng = np.random.default_rng(20261019)
        for i in range(40):
            k1, k2 = np.exp(rng.uniform(math.log(0.05), math.log(5.0), 2))
            if i % 4 == 3:
                k1 = complex(k1, rng.uniform(-1.0, 1.0))
            k, f = Multiplicity(k1, k2), plane_wave(rng.uniform(0.0, 3.0))
            x = rng.uniform(-3.0, 3.0, 8)
            ratio = _error_over_bar(monkeypatch, lambda: apply_V(k, f, x))
            assert ratio.max() <= 1.0, (k, f.id, x[ratio.argmax()], ratio.max())

    def test_apply_v_functions_and_support_edge_within_bars(self, monkeypatch):
        # 1,200 points: four functions at ten points per k, two of them at
        # |x| in [1e-6, 1e-1], three beyond the bump's edge at 2 and two
        # within 1e-3 of it, where f is flat but not analytic
        rng = np.random.default_rng(20261020)
        worst = 0.0
        for i in range(30):
            k1, k2 = np.exp(rng.uniform(math.log(0.05), math.log(5.0), 2))
            if i % 4 == 3:
                k1 = complex(k1, rng.uniform(-1.0, 1.0))
            k = Multiplicity(k1, k2)
            fs = (plane_wave(rng.uniform(0.0, 3.0)), monomial(i % 4), gaussian(), bump(2.0))
            magnitudes = np.concatenate((
                10.0 ** rng.uniform(-6.0, -1.0, 2), rng.uniform(0.0, 3.0, 3),
                rng.uniform(2.0, 3.0, 3), 2.0 + rng.uniform(-1e-3, 1e-3, 2)))
            x = rng.choice((-1.0, 1.0), 10) * magnitudes
            results = apply_V(k, fs, x)
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_MIN_TS_LEVEL", 8)
                refs = apply_V(k, fs, x)
            for f, res, ref in zip(fs, results, refs):
                ratio = np.abs(res.value - ref.value) / res.est_error
                assert ratio.max() <= 1.0, (k, f.id, x[ratio.argmax()], ratio.max())
                worst = max(worst, ratio.max())
        assert worst > 0.05     # the references differ: the check can fail

    @pytest.mark.parametrize("k1, k2", K_GRID + [(5.0, 5.0), (0.5, 20.0), (0.5 + 0.3j, 0.7)])
    def test_pairing_sides_within_bars(self, k1, k2, monkeypatch):
        # each side's outer sum against the same sum started at level 8; the
        # nested operator sums, whose bars the outer bar carries, are as in the call
        k, f, g = Multiplicity(k1, k2), bump(2.0), bump(2.0)
        sides = operators._pairing_sides(k, f, g)
        _outer_level8(monkeypatch)
        refs = operators._pairing_sides(k, f, g)
        for (value, bar), (ref, _) in zip(sides, refs):
            assert abs(value - ref) <= bar, (value, ref, bar)

    def test_apply_vt_small_y_within_bar(self, monkeypatch):
        # from level 3 to 4 the error fell only to about the power 1.4 of the
        # one before, not 2: the error was 2.35 times the squaring bar
        # min(d, 10 d^2 / m), and is below the bar min(d, m (d/m)^1.5)
        k = Multiplicity(0.0901, 2.953)
        assert _error_over_bar(monkeypatch, lambda: apply_Vt(k, bump(2.0), -0.00588)) <= 1.0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7: near the "
                       "bump's edge tV's integrand is the bump's own rounding, which no bar "
                       "counts; error/bar is 486 here")
    def test_apply_vt_near_support_edge_within_bar(self, monkeypatch):
        k, y = Multiplicity(2.083806868215754, 0.060618412340017566), 1.9983366386284847
        assert _error_over_bar(monkeypatch, lambda: apply_Vt(k, bump(2.0), y)) <= 1.0


def _uncut(monkeypatch):
    """Turn the duality pairing's flat-zone cut off."""
    monkeypatch.setattr(operators, "_flat_zone", lambda k, g, a: 0.0)


def _kernel_points(monkeypatch, call):
    """The kernel values formed by call(), mirror pairs counted twice."""
    kernel_values, points = operators._kernel_values, []

    def counted(*args, **kwargs):
        values, bars = kernel_values(*args, **kwargs)
        points.append(values.size)
        return values, bars

    with monkeypatch.context() as m:
        m.setattr(operators, "_kernel_values", counted)
        call()
    return sum(points)


class TestFlatZone:
    """The duality pairing skips g A's flat zone at the support's edge."""

    @pytest.mark.parametrize("k1, k2", K_GRID + [(5.0, 5.0), (0.5, 20.0), (0.5 + 0.3j, 0.7),
                                                 (0.05, 0.05)])
    @pytest.mark.parametrize("f, g", [(bump(2.0), bump(2.0)), (plane_wave(0.7), bump(1.5))],
                             ids=["bumps", "plane_wave"])
    def test_sides_within_bars_of_uncut_level8(self, k1, k2, f, g, monkeypatch):
        # each cut side against the uncut side started at level 8, within its
        # bar, and the cut loosens no bar by more than 1%
        k = Multiplicity(k1, k2)
        sides = operators._pairing_sides(k, f, g)
        with monkeypatch.context() as m:
            _uncut(m)
            uncut = operators._pairing_sides(k, f, g)
            _outer_level8(m)
            refs = operators._pairing_sides(k, f, g)
        for (value, bar), (_, uncut_bar), (ref, _) in zip(sides, uncut, refs):
            assert abs(value - ref) <= bar, (value, ref, bar)
            assert bar <= 1.01 * uncut_bar, (bar, uncut_bar)

    @pytest.mark.parametrize("k1, k2", [(0.3, 0.3), (0.5, 20.0), (5.0, 5.0)])
    def test_zone_is_flat_for_g_times_density(self, k1, k2):
        # within the zone |g A| <= tau max |g A| on a fine grid, and 1.2 times
        # beyond it no longer; at (0.5, 20) A grows steeply toward a, and the
        # zone of g alone would reach where g A is 8e4 times the threshold
        k, g, a = Multiplicity(k1, k2), bump(2.0), 2.0
        zone = operators._flat_zone(k, g, a)
        x = np.linspace(0.0, a, 200001)
        ga = np.abs(g.eval(x)) * weight_A(k, x)
        threshold = 1e-3 * np.finfo(float).eps * ga.max()
        assert 0.005 < zone < 0.05
        assert ga[x > a - zone].max() <= threshold
        assert ga[x > a - 1.2 * zone].max() > threshold

    def test_non_finite_probe_skips_cut(self):
        def inf_inside(y):
            y = np.asarray(y, dtype=float)
            return np.where(np.abs(y) < 0.5, np.inf, bump(2.0).eval(y))

        bad = TestFunction("inf inside", eval=inf_inside, support=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert operators._flat_zone(Multiplicity(0.5, 0.5), bad, 2.0) == 0.0

    def test_no_node_in_the_zone(self, monkeypatch):
        # no nested V or tV sum at an outer node inside the zone, and no
        # kernel value of a nested tV sum at an inner node inside it; uncut,
        # both the outer and the inner nodes reach into it
        k, f, g, a = Multiplicity(0.7, 0.4), bump(2.0), bump(2.0), 2.0
        zone = operators._flat_zone(k, g, a)
        v_sums, vt_sums, kernel_values = (operators._v_sums, operators._vt_sums,
                                          operators._kernel_values)

        def deepest(cut):
            outer, inner = [], []

            def nested(sums):
                def recorded(k, fn, x, u, *rest):
                    outer.append(np.abs(x).max())
                    return sums(k, fn, x, u, *rest)
                return recorded

            def kernel(k, x, y, **kwargs):
                if kwargs.get("density"):
                    inner.append(np.abs(x).max())
                return kernel_values(k, x, y, **kwargs)

            with monkeypatch.context() as m:
                if not cut:
                    _uncut(m)
                m.setattr(operators, "_v_sums", nested(v_sums))
                m.setattr(operators, "_vt_sums", nested(vt_sums))
                m.setattr(operators, "_kernel_values", kernel)
                operators._pairing_sides(k, f, g)
            return max(outer), max(inner)

        assert max(deepest(True)) <= a - zone
        assert min(deepest(False)) > a - zone

    def test_fewer_kernel_values(self, monkeypatch):
        # the cut drops about 38% of the kernel values here
        k, f, g = Multiplicity(0.7, 0.4), bump(2.0), bump(2.0)
        cut = _kernel_points(monkeypatch, lambda: duality_gap(k, f, g))
        with monkeypatch.context() as m:
            _uncut(m)
            uncut = _kernel_points(m, lambda: duality_gap(k, f, g))
        assert cut <= 0.7 * uncut, (cut, uncut)

    @pytest.mark.parametrize("y", [1.99, -1.99])
    def test_apply_vt_in_the_zone_is_uncut(self, y):
        # the public dual takes no cut, also at a point inside the zone
        k, g = Multiplicity(0.5, 0.3), bump(2.0)
        assert 2.0 - abs(y) < operators._flat_zone(k, g, 2.0)
        values, bars, level = operators._vt_sums(k, g, y, np.ones(1))
        res = apply_Vt(k, g, y)
        assert (res.value, res.est_error) == (values.real.item(), bars.item())
        assert values.imag.item() == 0.0 and level >= 4


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

    def test_suite_gaps_at_rounding(self):
        # far below the suite's tolerance: a partly cancelling mix-up of the
        # two sides' sign axes would still pass the tolerance
        gaps = [row["gap"] for row in run_suite("duality")]
        assert len(gaps) == 9
        assert max(gaps) <= 1e-12

    def test_kernel_consistency_gaps_at_rounding(self):
        # the two kernel routes and the two closed Ktilde forms agree to
        # rounding, far below the suite's tolerances
        gaps = {}
        for row in run_suite("kernel-consistency"):
            gaps.setdefault(row["check"], []).append(row["gap"])
        assert len(gaps["kernel_direct_vs_assembled"]) == len(gaps["ktilde_direct_vs_byparts"]) == 378
        assert max(gaps["kernel_direct_vs_assembled"]) <= 1e-12
        assert max(gaps["ktilde_direct_vs_byparts"]) <= 1e-14

    def test_zero_weight_nodes_skip_the_operator(self):
        points = []

        def counted(y):
            points.append(np.size(y))
            return bump(2.0).eval(y)

        f = TestFunction("counted bump", eval=counted, support=2.0)
        zero = TestFunction("zero", eval=lambda x: np.zeros_like(np.asarray(x, float)),
                            support=2.0)
        assert duality_gap(Multiplicity(0.5, 0.5), f, zero) == 0.0
        # only the outer nodes of the right side: V f is never formed
        assert 0 < sum(points) < 1000

    @pytest.mark.parametrize("side", ["f", "g"])
    def test_nan_inside_support_raises(self, side):
        def nan_inside(y):
            y = np.asarray(y, dtype=float)
            return np.where(np.abs(y) < 0.5, np.nan, bump(2.0).eval(y))

        bad = TestFunction("nan inside", eval=nan_inside, support=2.0)
        f, g = (bad, bump(2.0)) if side == "f" else (bump(2.0), bad)
        with pytest.raises(EvaluationError):
            duality_gap(Multiplicity(0.5, 0.5), f, g)

    @pytest.mark.parametrize("side", ["f", "g"])
    @pytest.mark.parametrize("inf", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_inf_inside_support_raises(self, side, inf):
        # the infinity turns the side's sum non-finite, which raises once,
        # as the error and not as a warning
        def inf_inside(y):
            y = np.asarray(y, dtype=float)
            return np.where(np.abs(y) < 0.5, inf, bump(2.0).eval(y))

        bad = TestFunction("inf inside", eval=inf_inside, support=2.0)
        f, g = (bad, bump(2.0)) if side == "f" else (bump(2.0), bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                duality_gap(Multiplicity(0.5, 0.5), f, g)

    def test_requires_support(self):
        with pytest.raises(ContractError, match="declares no compact support"):
            duality_gap(Multiplicity(0.5, 0.5), bump(2.0), gaussian())

    @pytest.mark.parametrize("k", [Multiplicity(1.5, 1.5), Multiplicity(0.5 + 0.3j, 0.7)],
                             ids=["real", "complex"])
    def test_each_side_checked_once(self, k, monkeypatch):
        # the nested operator sums reach the pairing raw, and only the two
        # sides' outer sums are checked; here one side (at (1.5, 1.5) both)
        # climbs to level 5, so a check per node batch would count 3 or 4
        calls = []

        def counted(*args):
            calls.append(args[2])
            return _point_result(*args)

        monkeypatch.setattr(operators, "_point_result", counted)
        assert duality_gap(k, plane_wave(6.0), bump(2.0)) <= 1e-13
        assert len(calls) == 2

    @pytest.mark.parametrize("k1, k2", [(0.5 + 0.3j, 0.7), (0.2 - 0.4j, 1.1), (0.05, 0.05),
                                        (1e-3, 0.5)])
    @pytest.mark.parametrize("f, g", [(bump(2.0), bump(2.0)), (plane_wave(0.7), bump(1.5))],
                             ids=["bumps", "plane_wave"])
    def test_complex_and_small_k(self, k1, k2, f, g):
        # for complex k the left side's weights g A are complex
        assert duality_gap(Multiplicity(k1, k2), f, g) <= 1e-13

    @pytest.mark.parametrize("k1, k2", [(5.0, 5.0), (0.5, 20.0)])
    def test_large_k_keeps_low_levels(self, k1, k2, monkeypatch):
        # kernel ends with Re(k1 + k2) > 1 count as regular: cut at
        # eps^{1/Re(k1 + k2)}, the nested tV sums with |y| near the bump's
        # edge, which carry their mass at that end, climb to level 12
        levels = []
        outer_sums = operators._outer_sums

        def recording(*args):
            values, est, level = outer_sums(*args)
            levels.append(level)
            return values, est, level

        monkeypatch.setattr(operators, "_outer_sums", recording)
        assert duality_gap(Multiplicity(k1, k2), bump(2.0), bump(2.0)) <= 1e-13
        assert levels and max(levels) <= 6


class TestMirrorPairs:
    """The operator sums' weight rows: two rows are the weighted operators at s and -s,
    one-hot rows the operator itself, and a point weighted 0 forms no value."""

    KS = [Multiplicity(0.3, 1.5), Multiplicity(0.5 + 0.3j, 0.7), Multiplicity(0.05, 0.05)]

    @staticmethod
    def _v_sums(k, f, x, u):
        # one function, the rows summed into one output, as the duality pairing takes them
        values, bars, level = operators._v_sums(k, (f,), x, u, False)
        return _point_result(values[0], bars[0], operators._method(level, "point-evaluation"))

    @staticmethod
    def _vt_sums(k, g, y, u):
        values, bars, level = operators._vt_sums(k, g, y, u)
        return _point_result(values, bars, operators._method(level, "empty-domain"))

    @staticmethod
    def _check(sums, op, k, fn, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.0, 2.0, 7)
        u = rng.normal(size=(2, s.size))
        pair = sums(k, fn, s, u)
        plus, minus = op(k, fn, s), op(k, fn, -s)
        expected = u[0] * plus.value + u[1] * minus.value
        bars = pair.est_error + np.abs(u[0]) * plus.est_error + np.abs(u[1]) * minus.est_error
        assert np.all(np.abs(pair.value - expected) <= bars)

    @pytest.mark.parametrize("k", KS, ids=["real", "complex", "small"])
    @pytest.mark.parametrize("f", [bump(2.0), plane_wave(1.0)], ids=["bump", "plane_wave"])
    def test_v_pair(self, k, f):
        self._check(self._v_sums, apply_V, k, f, 11)

    @pytest.mark.parametrize("k", KS, ids=["real", "complex", "small"])
    @pytest.mark.parametrize("f", [bump(2.0), plane_wave(1.0)], ids=["bump", "plane_wave"])
    def test_vt_pair(self, k, f):
        # the dual needs a support: the plane wave is cut to [-2, 2]
        g = f if f.support else TestFunction(f.id, eval=f.eval, support=2.0)
        self._check(self._vt_sums, apply_Vt, k, g, 12)

    @staticmethod
    def _check_one_hot(sums, op, k, fn, points):
        # rows (1, 0) at x >= 0 and (0, 1) at x < 0 give the operator at x itself
        u = np.stack((points >= 0.0, points < 0.0)).astype(float)
        pair, plain = sums(k, fn, np.abs(points), u), op(k, fn, points)
        for a, b in ((pair.value, plain.value), (pair.est_error, plain.est_error)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k", KS, ids=["real", "complex", "small"])
    @pytest.mark.parametrize("f", [bump(2.0), plane_wave(1.0)], ids=["bump", "plane_wave"])
    def test_v_one_hot_rows(self, k, f):
        # no x = 0: there the sums' interval is empty, and apply_V writes f(0)
        x = np.concatenate(([1e-200, -2.9],
                            np.random.default_rng(13).uniform(-3, 3, 6)))
        self._check_one_hot(self._v_sums, apply_V, k, f, x)

    @pytest.mark.parametrize("k", KS, ids=["real", "complex", "small"])
    @pytest.mark.parametrize("f", [bump(2.0), plane_wave(1.0)], ids=["bump", "plane_wave"])
    def test_vt_one_hot_rows(self, k, f):
        g = f if f.support else TestFunction(f.id, eval=f.eval, support=2.0)
        # |y| >= 2 is outside the support
        y = np.concatenate(([0.0, -0.0, 2.0, -2.5], np.random.default_rng(14).uniform(-2, 2, 6)))
        self._check_one_hot(self._vt_sums, apply_Vt, k, g, y)

    @pytest.mark.parametrize("k", KS, ids=["real", "complex", "small"])
    def test_v_zero_weight_forms_no_value(self, k):
        def cos_or_nan(y):
            y = np.asarray(y, dtype=float)
            return np.where(np.abs(y) > 1.5, np.nan, np.cos(y))

        f = TestFunction("cos, NaN beyond 1.5", eval=cos_or_nan)
        res = self._v_sums(k, f, [1.0, 2.0], [[1.0, 0.0]])
        one = apply_V(k, f, 1.0)
        assert np.asarray(res.value[0]).tobytes() == np.asarray(one.value).tobytes()
        assert np.float64(res.est_error[0]).tobytes() == np.float64(one.est_error).tobytes()
        assert res.value[1] == 0.0 and res.est_error[1] == 0.0
        with pytest.raises(EvaluationError):
            self._v_sums(k, f, [1.0, 2.0], [[1.0, 1.0]])

    @pytest.mark.parametrize("k", KS, ids=["real", "complex", "small"])
    def test_vt_zero_weight_adds_no_evaluations(self, k):
        points = []

        def counted(y):
            points.append(np.size(y))
            return bump(2.0).eval(y)

        g = TestFunction("counted bump", eval=counted, support=2.0)
        res = self._vt_sums(k, g, [0.5, 1.0], [[1.0, 0.0]])
        with_zero = sum(points)
        points.clear()
        one = apply_Vt(k, g, 0.5)
        assert with_zero == sum(points) > 0
        assert np.asarray(res.value[0]).tobytes() == np.asarray(one.value).tobytes()
        assert res.value[1] == 0.0 and res.est_error[1] == 0.0


class TestSharedPass:
    """A tuple of functions shares one outer pass, and a |x| asked for at both signs one
    mirror interval; every (function, sign, point) output keeps its own level."""

    KS = [Multiplicity(0.7, 0.4), Multiplicity(0.5 + 0.2j, 0.7)]
    by_k = pytest.mark.parametrize("k", KS, ids=["real", "complex"])
    MIXED = (plane_wave(1.5), plane_wave(0.0), gaussian(), monomial(2), bump(2.0))

    @staticmethod
    def _same(a, b):
        """Equal values (of one type) and bars, bit for bit."""
        return all(np.asarray(p).dtype == np.asarray(q).dtype
                   and np.asarray(p).tobytes() == np.asarray(q).tobytes()
                   for p, q in ((a.value, b.value), (a.est_error, b.est_error)))

    @by_k
    @pytest.mark.parametrize("fs", [(plane_wave(1.5), plane_wave(0.0), plane_wave(20.0)),
                                    (gaussian(), monomial(2), bump(2.0))],
                             ids=["complex-values", "real-values"])
    @pytest.mark.parametrize("x", [1.3, -0.5, 2.9, 1e-3, 0.0])
    def test_one_point_matches_each_call_bit_for_bit(self, k, fs, x):
        # one interval, so the pass forms the same kernel values at each level
        results = apply_V(k, fs, x)
        assert isinstance(results, tuple) and len(results) == len(fs)
        for f, res in zip(fs, results):
            assert self._same(res, apply_V(k, f, x)), f.id

    @by_k
    def test_points_match_each_call_within_bars(self, k):
        # real and complex functions together; the batches follow the open
        # intervals, so values move by rounding only
        x = np.array([-1.3, 0.9, -2.6, 1.3, 0.0, -0.9, 2.0])
        for f, res in zip(self.MIXED, apply_V(k, self.MIXED, x)):
            one = apply_V(k, f, x)
            assert res.value.shape == res.est_error.shape == x.shape
            assert np.all(np.abs(res.value - one.value) <= res.est_error + one.est_error), f.id

    @by_k
    @pytest.mark.parametrize("x", [1.3, 2.9, 1e-3, 1e-200])
    def test_pair_matches_one_sign_calls(self, k, x, monkeypatch):
        mirror = []
        kernel_values = operators._kernel_values

        def recording(*args, **kwargs):
            mirror.append(kwargs["mirror"])
            return kernel_values(*args, **kwargs)

        monkeypatch.setattr(operators, "_kernel_values", recording)
        for f in self.MIXED:
            pair = apply_V(k, f, [x, -x])
            assert mirror and all(mirror)
            mirror.clear()
            for res in pair.value, pair.est_error:
                assert res.shape == (2,)
            for at, value, bar in zip((x, -x), pair.value, pair.est_error):
                one = apply_V(k, f, at)
                assert not any(mirror)      # one sign asked for: the one-sign kernel
                mirror.clear()
                assert np.asarray(value).tobytes() == np.asarray(one.value).tobytes()
                assert np.float64(bar).tobytes() == np.float64(one.est_error).tobytes()

    @by_k
    def test_layout_one_sums_pass_per_path_and_support(self, k, monkeypatch):
        # apply_V lays out the points: the pairs' |x| on the mirror path, the
        # rest on the one-sign path, each path one _v_sums pass per support in
        # the order the supports first appear; x = 0 takes f(0) afterwards
        calls = []
        v_sums = operators._v_sums

        def recording(k, fs, x, u, per_row=True):
            calls.append(([f.id for f in fs], np.shape(x), np.shape(u)))
            return v_sums(k, fs, x, u, per_row)

        monkeypatch.setattr(operators, "_v_sums", recording)
        fs = (gaussian(), bump(2.0), plane_wave(1.5), bump(1.0))
        results = apply_V(k, fs, [1.3, -0.4, 0.0, -1.3, 2.0])
        assert calls == [(["gaussian(1.0)", "plane_wave(1.5)"], (1,), (2, 1)),
                         (["bump(2.0)"], (1,), (2, 1)), (["bump(1.0)"], (1,), (2, 1)),
                         (["gaussian(1.0)", "plane_wave(1.5)"], (3,), (1, 3)),
                         (["bump(2.0)"], (3,), (1, 3)), (["bump(1.0)"], (3,), (1, 3))]
        for f, res in zip(fs, results):
            assert res.value[2] == f.eval(0.0) and res.est_error[2] == 0.0
        # no pair and one support: one pass over x as given
        calls.clear()
        apply_V(k, (plane_wave(1.5), gaussian()), np.full((2, 3), 0.7))
        assert calls == [(["plane_wave(1.5)", "gaussian(1.0)"], (2, 3), (1, 2, 3))]

    @by_k
    def test_intertwine_reads_v_through_apply_v(self, k, monkeypatch):
        calls = []

        def recording(k, f, x):
            calls.append(([fn.id for fn in f], np.shape(x)))
            return apply_V(k, f, x)

        monkeypatch.setattr(operators, "apply_V", recording)
        intertwine_gap(k, (plane_wave(1.5), bump(2.0)), [0.7, -1.1])
        # f and f' at x +- h, x +- 2h, x and -x, in one call
        assert calls == [(["plane_wave(1.5)", "bump(2.0)", "plane_wave(1.5)'", "bump(2.0)'"],
                          (6, 2))]

    @by_k
    @pytest.mark.parametrize("x", [2.5, -2.5, [2.5, -2.5]])
    def test_climbing_output_leaves_the_other_alone(self, k, x):
        slow, fast = plane_wave(0.1), plane_wave(40.0)
        low, high = apply_V(k, (slow, fast), x)
        alone = apply_V(k, slow, x)
        assert alone.method == "tanh-sinh(level=4) x euler-2f1"
        # the method names the highest level of the pass, which the fast wave needs
        assert high.method == low.method == apply_V(k, fast, x).method == (
            "tanh-sinh(level=7) x euler-2f1")
        assert self._same(low, alone)
        assert self._same(high, apply_V(k, fast, x))

    def test_real_values_stay_real(self):
        k = Multiplicity(0.7, 0.4)
        res = apply_V(k, (plane_wave(0.0), plane_wave(1.0), monomial(2)), config.EIGEN_X)
        assert [r.value.dtype.kind for r in res] == ["f", "c", "f"]
        lam0 = [row for row in run_suite("eigen") if " lam=0.0 " in row["point"]]
        assert len(lam0) == 54 and all(type(row["lhs"]) is float for row in lam0)

    @by_k
    def test_intertwine_tuple_matches_each_call(self, k):
        fs = (plane_wave(1.5), monomial(2))
        gaps = intertwine_gap(k, fs, config.EIGEN_X)
        assert isinstance(gaps, tuple) and len(gaps) == 2
        for f, gap in zip(fs, gaps):
            # the difference quotient magnifies the batches' rounding by about 1/h
            alone = intertwine_gap(k, f, config.EIGEN_X)
            assert gap.shape == (6,) and np.all(np.abs(gap - alone) <= 0.05 * config.TOL_INTERTWINE)
        one = intertwine_gap(k, fs, 1.3)
        assert all(isinstance(gap, float) for gap in one)

    @by_k
    def test_intertwine_asks_derivative_at_every_point(self, k):
        # the pass shares one weight per sign and point among its functions:
        # f' is evaluated on the same node batches as f, the four shifted
        # one-sign points included
        seen = {"f": [], "f'": []}

        def counting(name, fn):
            def ev(y):
                seen[name].append(np.shape(y))
                return fn(y)
            return ev

        f = TestFunction("counted", eval=counting("f", plane_wave(1.5).eval),
                         deriv=counting("f'", plane_wave(1.5).deriv))
        assert intertwine_gap(k, f, 0.7) == intertwine_gap(k, plane_wave(1.5), 0.7)
        assert seen["f"] == seen["f'"] and max(shape[1] for shape in seen["f"]) == 4


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

    def test_requires_derivative(self):
        f = TestFunction("no-deriv", eval=lambda t: np.asarray(t, float))
        with pytest.raises(ContractError, match="has no derivative"):
            intertwine_gap(Multiplicity(0.5, 0.5), (monomial(2), f), 1.0)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            intertwine_gap(Multiplicity(0.5, 0.5), monomial(2), 0.0)
        with pytest.raises(DomainError):
            intertwine_gap(Multiplicity(0.5, 0.5), monomial(2), [1.0, 0.0])

    KS = [Multiplicity(0.7, 0.4), Multiplicity(0.5 + 0.2j, 0.7)]

    @pytest.mark.parametrize("k", KS, ids=["real", "complex"])
    @pytest.mark.parametrize("f_name", ["plane_wave:1.5", "monomial:2"])
    def test_scalar_is_one_element_array(self, k, f_name):
        f = get_test_function(f_name)
        for x in (-2.0, 0.5, 1.3, 1e-4):
            one, arr = intertwine_gap(k, f, x), intertwine_gap(k, f, [x])
            assert isinstance(one, float) and arr.shape == (1,)
            assert np.float64(one).tobytes() == arr.tobytes(), x

    @pytest.mark.parametrize("k1, k2", [(0.3, 0.3), (1.5, 0.3), (0.5 + 0.2j, 0.7)])
    def test_array_matches_scalars(self, k1, k2):
        # the kernel's series length follows the batch, and the difference
        # quotient magnifies that rounding by about 1/h; it stays far inside
        # the verify tolerance
        k = Multiplicity(k1, k2)
        for f in (plane_wave(1.5), monomial(2)):
            arr = intertwine_gap(k, f, np.reshape(config.EIGEN_X, (2, 3)))
            assert arr.shape == (2, 3)
            for x, gap in zip(config.EIGEN_X, arr.ravel()):
                assert abs(gap - intertwine_gap(k, f, x)) <= 0.05 * config.TOL_INTERTWINE, x


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

    @pytest.mark.parametrize("pair", [(0.5 + 0.1j, 0.5), (0.5, np.complex128(0.7 - 0.2j))])
    def test_complex_parameters_rejected(self, pair):
        with pytest.raises(DomainError, match=r"real parameters, got k = \(.*j\)"):
            positivity_scan([(0.5, 0.5), pair], [1.0], [0.5])

    def test_non_finite_cell_raises(self):
        with pytest.raises(EvaluationError):
            positivity_scan([(0.5, 0.5)], [1e-309], [0.5])

    @pytest.mark.parametrize("x", [1e-155, 1e-200, 1e-300, 1e-308])
    def test_tiny_x_finite(self, x):
        # sigma ~ |x| enters the exponent, where the scale ~ |x|^-2 would overflow
        report = positivity_scan([(0.5, 0.5)], [x], [0.5])
        assert report.min_value == kernel_K(Multiplicity(0.5, 0.5), x, 0.5 * x).value
        assert x * report.min_value == pytest.approx(0.75, rel=1e-11, abs=0.0)

    def test_tiny_x_positive(self):
        # near 0 the kernel grows like 0.75 / x at k = (0.5, 0.5)
        report = positivity_scan([(0.5, 0.5)], [1e-20], [0.5])
        assert report.all_positive
        assert report.min_value == pytest.approx(7.5e19, rel=1e-6, abs=0.0)

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

    @pytest.mark.parametrize("chunk", [7, 25])
    @pytest.mark.parametrize("n_pairs", [1, 5])
    def test_k_groups_match_per_k_calls(self, monkeypatch, chunk, n_pairs):
        # 10 cells per k: at chunk 7 the cells split 7 + 3 and the 3-cell
        # chunk takes ks two at a time; at 25 every call takes two ks
        monkeypatch.setattr(operators, "_SCAN_CHUNK", chunk)
        calls, grid = [], operators._kernel_grid

        def recording(ks, x, y):
            calls.append((ks, x, y, *grid(ks, x, y)))
            return calls[-1][3:]

        monkeypatch.setattr(operators, "_kernel_grid", recording)
        rng = np.random.default_rng(20261019)
        pairs = [tuple(p) for p in rng.uniform(0.05, 3.0, size=(4, 2))]
        pairs = (pairs + pairs[1:2])[:n_pairs]      # the fifth repeats the second
        xs = rng.choice((-1.0, 1.0), 2) * rng.uniform(0.01, 3.0, 2)
        fracs = rng.uniform(-0.9999, 0.9999, 5)
        report = positivity_scan(pairs, xs, fracs)
        assert len(report.cells) == n_pairs * 10
        assert max(len(ks) for ks, *_ in calls) == min(2, n_pairs)
        scan_bars = {}
        for ks, x, y, _, bars in calls:
            for k, row in zip(ks, np.reshape(bars, (len(ks), -1))):
                scan_bars.update(((k.k1, k.k2, xc, yc), b)
                                 for xc, yc, b in zip(x.tolist(), y.tolist(), row.tolist()))
        for i, (k1, k2) in enumerate(pairs):
            cells = report.cells[10 * i:10 * (i + 1)]
            direct = kernel_K(Multiplicity(k1, k2), [c[2] for c in cells],
                              [c[3] for c in cells]).value
            for (_, _, x, y, value), want in zip(cells, direct.tolist()):
                gap = abs(value - want)
                assert gap <= 4 * np.finfo(float).eps * abs(want), (k1, k2, x, y)
                assert gap <= scan_bars[(k1, k2, x, y)], (k1, k2, x, y)

    @pytest.mark.parametrize("grid", [([], [1.0], [0.5]), ([(0.5, 0.5)], [], [0.5]),
                                      ([(0.5, 0.5)], [1.0], [])], ids=["k", "x", "fraction"])
    def test_empty_grid(self, grid):
        # no cell is no evidence of positivity
        report = positivity_scan(*grid)
        assert report.cells == ()
        assert report.min_value == math.inf
        assert report.argmin is None
        assert report.all_positive is False

    def test_positive_only_beyond_error_bar(self, monkeypatch):
        # a value inside its own error bar of 0 does not certify positivity;
        # the per-cell rows still judge the value's sign alone
        monkeypatch.setattr(operators, "_kernel_grid", lambda ks, x, y: (
            np.full((len(ks), x.size), 1e-300), np.full((len(ks), x.size), 1e-290)))
        report = positivity_scan([(0.5, 0.5), (0.7, 0.3)], [1.0, 2.0], [0.5, -0.5])
        assert report.min_value == 1e-300
        assert report.all_positive is False
        *cells, min_row = run_suite("positivity")
        assert all(r["pass"] for r in cells)
        assert min_row["check"] == "scan_min_positive" and not min_row["pass"]
