"""Built-in verification suites over the acceptance grids.

Each suite returns a list of row dicts {check, point, lhs, rhs, gap, tol,
pass}; the CLI serializes them and turns the aggregate into an exit code.
The tolerance argument, when given, replaces the suite's default for every
row.
"""

from . import config
from .kernel import (
    dktilde_dy,
    kernel_K,
    kernel_K_limit_k1zero,
    kernel_K_limit_k2zero,
    kernel_K_mourou,
    ktilde,
)
from .operators import (
    _richardson_derivative,
    apply_V,
    bump,
    duality_gap,
    intertwine_gap,
    monomial,
    plane_wave,
    positivity_scan,
)
from .params import Multiplicity
from .specfun import opdam_G


def _pt(**kw):
    return " ".join(f"{name}={value!r}" for name, value in kw.items())


def _row(check, point, lhs, rhs, gap, tol):
    return {
        "check": check,
        "point": point,
        "lhs": lhs,
        "rhs": rhs,
        "gap": float(gap),
        "tol": float(tol),
        "pass": bool(gap <= tol),
    }


def suite_eigen(tol=None):
    base = config.TOL_EIGEN if tol is None else tol
    rows = []
    for k1, k2 in config.K_GRID:
        k = Multiplicity(k1, k2)
        # one pass for every lam: the kernel is the same for each
        results = apply_V(k, tuple(map(plane_wave, config.EIGEN_LAMBDAS)), config.EIGEN_X)
        for lam, res in zip(config.EIGEN_LAMBDAS, results):
            for x, lhs in zip(config.EIGEN_X, res.value.tolist()):
                rhs = opdam_G(k, lam, x)
                gap = abs(lhs - rhs)
                rows.append(_row(
                    "eigenfunction", _pt(k1=k1, k2=k2, lam=lam, x=x),
                    lhs, rhs, gap, base * (1.0 + abs(rhs)),
                ))
    return rows


def suite_kernel_consistency(tol=None):
    h = 1e-5
    points = [(x, fr * abs(x)) for x in config.KERNEL_X for fr in config.KERNEL_Y_FRACS]
    xs, ys = zip(*points)
    rows = []
    for k1, k2 in config.K_GRID:
        k = Multiplicity(k1, k2)
        # one call per form, plus the by-parts form at y +- h, y +- 2h
        columns = (res.value.tolist() for res in (
            kernel_K(k, xs, ys), kernel_K_mourou(k, xs, ys),
            ktilde(k, xs, ys, "direct"), ktilde(k, xs, ys, "byparts"), dktilde_dy(k, xs, ys),
            *(ktilde(k, xs, [y + step for y in ys], "byparts") for step in (h, -h, 2 * h, -2 * h))))
        for (x, y), direct, assembled, td, tb, dk, *shifted in zip(points, *columns):
            checks = [("kernel_direct_vs_assembled", direct, assembled, config.TOL_KERNEL),
                      ("ktilde_direct_vs_byparts", td, tb, config.TOL_BYPARTS)]
            if y != 0.0:
                checks.append(("dktilde_vs_finite_difference", dk,
                               _richardson_derivative(*shifted, h), config.TOL_DERIV))
            for check, lhs, rhs, default in checks:     # gaps relative to lhs
                rows.append(_row(check, _pt(k1=k1, k2=k2, x=x, y=y), lhs, rhs,
                                 abs(lhs - rhs) / abs(lhs), default if tol is None else tol))
    return rows


def suite_limits(tol=None):
    base = config.TOL_LIMITS if tol is None else tol
    eps = config.LIMIT_EPS
    other = config.LIMIT_K_OTHER
    rows = []
    for check, k, closed_form in (
        ("kernel_limit_k1_to_zero", lambda e: Multiplicity(e, other), kernel_K_limit_k1zero),
        ("kernel_limit_k2_to_zero", lambda e: Multiplicity(other, e), kernel_K_limit_k2zero),
    ):
        points = [(x, fr * x) for x in config.LIMIT_X for fr in config.LIMIT_FRACS]
        xs, ys = zip(*points)
        # Richardson at eps and 2 eps: the kernel is first order in the multiplicity
        values = 2.0 * kernel_K(k(eps), xs, ys).value - kernel_K(k(2.0 * eps), xs, ys).value
        for (x, y), near in zip(points, values.tolist()):
            closed = closed_form(other, x, y)
            gap = abs(near - closed) / abs(closed)
            rows.append(_row(check, _pt(x=x, y=y), near, closed, gap, base))
    return rows


def suite_positivity(tol=None):
    # gap is the amount by which a cell fails strict positivity
    rows = []
    report = positivity_scan(config.K_GRID, config.POSITIVITY_X, config.POSITIVITY_FRACS)
    for k1, k2, x, y, value in report.cells:
        point = _pt(k1=k1, k2=k2, x=x, y=y)
        gap = max(0.0, -value)
        row = _row("kernel_positive", point, value, 0.0, gap, 0.0)
        row["pass"] = bool(value > 0.0)
        rows.append(row)
    min_row = _row("scan_min_positive", _pt(k1=report.argmin[0], k2=report.argmin[1],
                                            x=report.argmin[2], y=report.argmin[3]),
                   report.min_value, 0.0, max(0.0, -report.min_value), 0.0)
    min_row["pass"] = report.all_positive
    rows.append(min_row)
    return rows


def suite_duality(tol=None):
    base = config.TOL_DUALITY if tol is None else tol
    f = bump(config.BUMP_SUPPORT)
    g = bump(config.BUMP_SUPPORT)
    rows = []
    for k1, k2 in config.K_GRID:
        k = Multiplicity(k1, k2)
        gap = duality_gap(k, f, g)
        rows.append(_row("duality_pairing", _pt(k1=k1, k2=k2, a=g.support),
                         gap, 0.0, gap, base))
    return rows


def suite_intertwine(tol=None):
    base = config.TOL_INTERTWINE if tol is None else tol
    rows = []
    for k1, k2 in config.K_GRID:
        k = Multiplicity(k1, k2)
        fs = (plane_wave(1.5), monomial(2))
        for f, gaps in zip(fs, intertwine_gap(k, fs, config.EIGEN_X)):
            for x, gap in zip(config.EIGEN_X, gaps.tolist()):
                rows.append(_row("intertwine_derivative", _pt(k1=k1, k2=k2, x=x, f=f.id),
                                 gap, 0.0, gap, base))
    return rows


SUITES = {
    "eigen": suite_eigen,
    "duality": suite_duality,
    "intertwine": suite_intertwine,
    "kernel-consistency": suite_kernel_consistency,
    "positivity": suite_positivity,
    "limits": suite_limits,
}


def run_suite(name: str, tol=None):
    if name == "all":
        return [row for suite in SUITES.values() for row in suite(tol)]
    return SUITES[name](tol)
