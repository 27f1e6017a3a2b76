"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them) and
asserts the criterion, so the suite is both the human-readable report and
the hard gate.
"""

import time

import numpy as np
import pytest

import trigdunkl.config as config
from trigdunkl import (
    Multiplicity,
    TestFunction,
    apply_V,
    cherednik_D,
    gamma_real,
    gauss_jacobi,
    gauss_legendre,
    integrate,
    opdam_G,
    positivity_scan,
    tanh_sinh,
)
from trigdunkl.verify import (
    suite_duality,
    suite_eigen,
    suite_intertwine,
    suite_kernel_consistency,
    suite_limits,
)

_T0 = time.perf_counter()


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def kernel_rows():
    start = time.perf_counter()
    rows = suite_kernel_consistency()
    return rows, time.perf_counter() - start


def test_c01_eigenfunction_identity():
    start = time.perf_counter()
    rows = suite_eigen()
    elapsed = time.perf_counter() - start
    worst = max(r["gap"] / r["tol"] for r in rows)
    ok = all(r["pass"] for r in rows) and elapsed <= 30.0
    _report(1, "eigenfunction identity", ok,
            f"{len(rows)} points, worst gap/tol {worst:.2e}, {elapsed:.1f}s <= 30s")


def test_c02_kernel_oracle_equivalence(kernel_rows):
    rows, elapsed = kernel_rows
    rows = [r for r in rows if r["check"] == "kernel_direct_vs_assembled"]
    worst = max(r["gap"] for r in rows)
    ok = all(r["pass"] for r in rows) and elapsed <= 10.0
    _report(2, "kernel oracle equivalence", ok,
            f"{len(rows)} points, worst rel gap {worst:.2e} <= 1e-7, {elapsed:.1f}s <= 10s")


def test_c03_byparts_and_derivative_identities(kernel_rows):
    rows, _ = kernel_rows
    byparts = [r for r in rows if r["check"] == "ktilde_direct_vs_byparts"]
    deriv = [r for r in rows if r["check"] == "dktilde_vs_finite_difference"]
    ok = all(r["pass"] for r in byparts) and all(r["pass"] for r in deriv)
    _report(3, "integration-by-parts and derivative identities", ok,
            f"byparts worst {max(r['gap'] for r in byparts):.2e} <= 1e-8, "
            f"derivative worst {max(r['gap'] for r in deriv):.2e} <= 1e-8")


def test_c04_limit_consistency():
    rows = suite_limits()
    assert len(rows) == 18  # 9 grid points per vanishing parameter
    worst = max(r["gap"] for r in rows)
    _report(4, "vanishing-multiplicity limits", all(r["pass"] for r in rows),
            f"worst rel gap {worst:.2e} <= 1e-6 at 9+9 points")


def test_c05_positivity():
    report = positivity_scan(config.K_GRID, config.POSITIVITY_X,
                             config.POSITIVITY_FRACS)
    near_diagonal = [
        value for k1, k2, x, y, value in report.cells
        if x > 0 and y < 0 and abs(y) >= 0.9999 * x
    ]
    ok = report.all_positive and near_diagonal and min(near_diagonal) > 0
    _report(5, "kernel strict positivity", bool(ok),
            f"{len(report.cells)} cells, min {report.min_value:.3e} at "
            f"{report.argmin}, {len(near_diagonal)} cells with y near -x all positive")


def test_c06_duality():
    rows = suite_duality()
    worst = max(r["gap"] for r in rows)
    _report(6, "duality pairing", all(r["pass"] for r in rows),
            f"bump pair, a=2, worst gap {worst:.2e} <= 1e-6 at each of {len(rows)} k")


def test_c07_intertwining():
    rows = suite_intertwine()
    worst = max(r["gap"] for r in rows)
    _report(7, "intertwining identity", all(r["pass"] for r in rows),
            f"plane wave and monomial, worst gap {worst:.2e} <= 1e-10 over {len(rows)} points")


def test_c08_cherednik_consistency():
    rng = np.random.default_rng(config.CHEREDNIK_SEED)
    worst_forms = 0.0
    for _ in range(config.CHEREDNIK_SAMPLES):
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
        worst_forms = max(worst_forms, abs(a - b) / max(abs(a), 1.0))

    worst_eigen = 0.0
    for k1, k2 in config.K_GRID:
        k = Multiplicity(k1, k2)
        for lam in (1.0, 2.5):
            def ev(t, k=k, lam=lam):
                return opdam_G(k, lam, float(t))

            def dv(t):
                h = 1e-5 * max(1.0, abs(t))
                return (ev(t + h) - ev(t - h)) / (2.0 * h)

            f = TestFunction("eigen", eval=ev, deriv=dv)
            for x in (0.8, -1.3):
                gap = abs(cherednik_D(k, f, x) - 1j * lam * ev(x))
                worst_eigen = max(worst_eigen, gap / (1.0 + abs(lam * ev(x))))

    ok = worst_forms <= 1e-12 and worst_eigen <= 1e-5
    _report(8, "difference-operator consistency", ok,
            f"form agreement worst {worst_forms:.2e} <= 1e-12 over "
            f"{config.CHEREDNIK_SAMPLES} samples, eigen-equation worst "
            f"{worst_eigen:.2e} <= 1e-5")


def test_c09_origin_behaviour():
    worst_ratio = 0.0
    ok = True
    for k1, k2 in ((0.3, 0.3), (0.7, 0.4), (1.5, 1.5)):
        k = Multiplicity(k1, k2)
        f = TestFunction("gauss", eval=lambda y: np.exp(-np.asarray(y, float) ** 2))
        gaps = [abs(apply_V(k, f, x).value - 1.0) for x in config.DELTA_X]
        decreasing = gaps[0] > gaps[1] > gaps[2]
        c_bound = config.DELTA_MARGIN * gaps[0] / config.DELTA_X[0]
        bounded = all(g <= c_bound * x for g, x in zip(gaps, config.DELTA_X))
        ok = ok and decreasing and bounded
        worst_ratio = max(worst_ratio, *(g / x for g, x in zip(gaps, config.DELTA_X)))
    _report(9, "origin point-evaluation behaviour", ok,
            f"gap decreasing and <= C|x| with margin {config.DELTA_MARGIN}, "
            f"worst gap/x {worst_ratio:.3f}")


def test_c10_quadrature_self_tests():
    rng = np.random.default_rng(7)
    ok = True
    details = []

    # Gauss-Legendre exactness at degree 2n-1
    worst = 0.0
    for n in (4, 16, 64):
        coeffs = rng.standard_normal(2 * n)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.0) - poly.integ()(-1.0)
        rule = gauss_legendre(n)
        approx = float((poly(rule.nodes) * rule.weights).sum())
        worst = max(worst, abs(approx - exact) / max(abs(exact), 1.0))
    ok = ok and worst <= 1e-12
    details.append(f"legendre exactness {worst:.2e} <= 1e-12")

    # Gauss-Jacobi total mass against the Euler Beta integral
    worst = 0.0
    for alpha in (-0.7, -0.3, 0.0, 0.5, 2.0):
        for beta in (-0.7, -0.3, 0.0, 0.5, 2.0):
            mass = gauss_jacobi(24, alpha, beta).weights.sum()
            exact = (2.0 ** (alpha + beta + 1.0) * gamma_real(alpha + 1.0)
                     * gamma_real(beta + 1.0) / gamma_real(alpha + beta + 2.0))
            worst = max(worst, abs(mass - exact) / exact)
    ok = ok and worst <= 1e-12
    details.append(f"jacobi mass {worst:.2e} <= 1e-12")

    # double-exponential endpoint family
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 1.0):
        val = integrate(tanh_sinh(8), lambda t: t ** (p - 1.0), (0.0, 1.0)).value
        worst = max(worst, abs(val - 1.0 / p) * p)
    ok = ok and worst <= 1e-9
    details.append(f"tanh-sinh singular family {worst:.2e} <= 1e-9")

    elapsed = time.perf_counter() - _T0
    ok = ok and elapsed < 60.0
    details.append(f"acceptance wall-clock {elapsed:.1f}s < 60s")
    _report(10, "quadrature self-tests", ok, "; ".join(details))
