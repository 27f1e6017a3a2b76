import math

import numpy as np
import pytest

from trigdunkl import (
    DomainError,
    EvaluationError,
    QuadratureRule,
    gamma_real,
    gauss_jacobi,
    gauss_legendre,
    integrate,
    tanh_sinh,
)
from trigdunkl import quadrature
from trigdunkl.quadrature import _cut, _gauss_jacobi_pair, _outer_sums, _tanh_sinh_full


def beta_moment(alpha, beta):
    # total mass of (1-t)^alpha (1+t)^beta over (-1, 1)
    return (2.0 ** (alpha + beta + 1.0) * gamma_real(alpha + 1.0)
            * gamma_real(beta + 1.0) / gamma_real(alpha + beta + 2.0))


class TestGaussLegendre:
    def test_midpoint_rule(self):
        rule = gauss_legendre(1)
        # the node is 0, where only an absolute tolerance means anything
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0], rel=1e-15, abs=0.0)

    def test_two_point_rule(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)],
                                           rel=1e-15, abs=0.0)
        assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-15, abs=0.0)

    def test_quadratic_exact_with_two_points(self):
        res = integrate(gauss_legendre(2), lambda t: t * t, (-1.0, 1.0))
        assert res.value == pytest.approx(2.0 / 3.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [3, 8, 17, 40])
    def test_polynomial_exactness(self, n):
        rng = np.random.default_rng(1234 + n)
        coeffs = rng.standard_normal(2 * n)  # degree 2n - 1
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.0) - poly.integ()(-1.0)
        rule = gauss_legendre(n)
        approx = float((poly(rule.nodes) * rule.weights).sum())
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_rule_invariants(self):
        rule = gauss_legendre(64)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert rule.nodes[0] > -1 and rule.nodes[-1] < 1
        assert len(rule.nodes) == 64

    @pytest.mark.parametrize("n", [0, -3, 513, 2.5])
    def test_bad_order(self, n):
        with pytest.raises(DomainError):
            gauss_legendre(n)


class TestGaussJacobi:
    def test_reduces_to_legendre(self):
        gj = gauss_jacobi(12, 0.0, 0.0)
        gl = gauss_legendre(12)
        assert gj.nodes == pytest.approx(gl.nodes, abs=1e-14)
        assert gj.weights == pytest.approx(gl.weights, abs=1e-14)

    def test_inverse_sqrt_mass(self):
        # integral of (1-t)^{-1/2} over (-1,1) is 2 sqrt(2)
        rule = gauss_jacobi(8, -0.5, 0.0)
        assert rule.weights.sum() == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha", [-0.7, -0.3, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("beta", [-0.7, -0.3, 0.0, 0.5, 2.0])
    def test_weight_sum_beta_identity(self, alpha, beta):
        rule = gauss_jacobi(24, alpha, beta)
        assert rule.weights.sum() == pytest.approx(beta_moment(alpha, beta), rel=1e-12, abs=0.0)

    def test_weighted_polynomial_exactness(self):
        # degree 2n-1 against the weight, via the n+1 rule as reference
        alpha, beta = -0.4, 1.3
        rng = np.random.default_rng(77)
        coeffs = rng.standard_normal(11)  # degree 10 <= 2*6 - 1
        poly = np.polynomial.Polynomial(coeffs)
        r6 = gauss_jacobi(6, alpha, beta)
        r40 = gauss_jacobi(40, alpha, beta)
        v6 = float((poly(r6.nodes) * r6.weights).sum())
        v40 = float((poly(r40.nodes) * r40.weights).sum())
        assert v6 == pytest.approx(v40, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, beta", [(-1.0, 0.0), (0.0, -1.2), (math.nan, 0.0)])
    def test_bad_exponents(self, alpha, beta):
        with pytest.raises(DomainError):
            gauss_jacobi(8, alpha, beta)


class TestTanhSinh:
    def test_unit_mass(self):
        res = integrate(tanh_sinh(5), lambda t: 1.0, (-1.0, 1.0))
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_inverse_sqrt_endpoint(self):
        res = integrate(tanh_sinh(7), lambda t: t ** -0.5, (0.0, 1.0))
        assert res.value == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("f, interval", [
        (lambda t: (1.0 - t) ** -0.5, (0.0, 1.0)),
        (lambda t: np.power(1.0 - t, -0.5), (0.0, 1.0)),
        (lambda t: (t + 3.0) ** -0.5, (-3.0, -2.0)),
    ], ids=["upper-end", "upper-end-numpy", "lower-end-off-zero"])
    def test_nodes_rounding_onto_an_end(self, f, interval):
        # the refined rule's end offsets reach 1e-280 half-widths: nodes that
        # would round onto an end other than 0 are cut, and the parts between
        # the ends and their nearest nodes enter the bar
        res = integrate(tanh_sinh(6), f, interval)
        assert abs(res.value - 2.0) <= res.est_error <= 1e-6

    def test_divergent_end_raises(self):
        with pytest.raises(EvaluationError, match="non-finite error bar"):
            integrate(tanh_sinh(6), lambda t: 1.0 / t, (0.0, 1.0))

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 1.0])
    def test_algebraic_endpoint_family(self, p):
        res = integrate(tanh_sinh(8), lambda t: t ** (p - 1.0), (0.0, 1.0))
        assert res.value == pytest.approx(1.0 / p, rel=1e-9, abs=0.0)

    def test_est_error_decreases_with_level(self):
        ests = [integrate(tanh_sinh(level), math.exp, (0.0, 1.0)).est_error
                for level in (1, 2, 3, 4)]
        for coarse, fine in zip(ests, ests[1:]):
            assert fine <= coarse * 1.05 + 5e-16

    def test_rule_invariants(self):
        rule = tanh_sinh(8)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert rule.nodes[0] > -1 and rule.nodes[-1] < 1
        assert rule.gap_hi is not None and np.all(rule.gap_hi > 0)

    @pytest.mark.parametrize("level", [0, 13, -1])
    def test_bad_level(self, level):
        with pytest.raises(DomainError):
            tanh_sinh(level)


@pytest.mark.parametrize("build, top", [(gauss_legendre, 512),
                                        (lambda n: gauss_jacobi(n, 0.5, 0.0), 512),
                                        (tanh_sinh, 12)],
                         ids=["legendre", "jacobi", "tanh-sinh"])
def test_rule_size_takes_any_integer_type(build, top):
    rule = build(4)
    for n in (np.int64(4), np.uint8(4)):
        other = build(n)
        assert other.kind == rule.kind and np.array_equal(other.nodes, rule.nodes)
    for bad in (True, 4.0, np.float64(4.0), "4", 0, top + 1):
        with pytest.raises(DomainError, match=r"must be an integer in 1\.\."):
            build(bad)


class TestCompanionRules:
    @pytest.mark.parametrize("level", [4, 6, 8])
    @pytest.mark.parametrize("cut", [1e-280, 1e-60, 1e-12])
    def test_tanh_sinh_cut_and_masses(self, level, cut):
        nodes, w, gap_lo, gap_hi, wc = _cut(_tanh_sinh_full(level), cut, cut)
        assert np.all(np.minimum(gap_lo, gap_hi) >= cut)
        assert len(nodes) == len(w) == len(wc)
        # the dropped tails carry at most 2 * cut of the mass
        assert w.sum() == pytest.approx(2.0, abs=1e-12 + 2.0 * cut)
        assert wc.sum() == pytest.approx(2.0, abs=1e-12 + 2.0 * cut)

    @pytest.mark.parametrize("n, alpha, beta", [(8, 0.0, 0.0), (24, -0.7, 0.5), (64, 2.0, -0.3)])
    def test_gauss_jacobi_pair_masses(self, n, alpha, beta):
        nodes, w, wc = _gauss_jacobi_pair(n, alpha, beta)
        assert len(nodes) == 3 * n
        assert np.count_nonzero(w) == 2 * n and np.count_nonzero(wc) == n
        assert w.sum() == pytest.approx(beta_moment(alpha, beta), rel=1e-12, abs=0.0)
        assert wc.sum() == pytest.approx(beta_moment(alpha, beta), rel=1e-12, abs=0.0)


class TestIntegrate:
    def test_constant(self):
        res = integrate(gauss_legendre(4), lambda t: 1.0, (0.0, 3.0))
        assert res.value == pytest.approx(3.0, rel=1e-14, abs=0.0)

    def test_sine_arch(self):
        res = integrate(gauss_legendre(32), math.sin, (0.0, math.pi))
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.est_error < 1e-10

    def test_largest_rule_refines_to_twice_its_nodes(self):
        res = integrate(gauss_legendre(512), math.exp, (0.0, 1.0))
        assert res.method.endswith("->n=1024")
        assert res.value == pytest.approx(math.e - 1.0, rel=1e-14, abs=0.0)

    def test_complex_integrand(self):
        res = integrate(gauss_legendre(32), lambda t: complex(math.cos(t), math.sin(t)),
                        (0.0, 1.0))
        assert res.value == pytest.approx(complex(math.sin(1.0), 1.0 - math.cos(1.0)),
                                          rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("rule, f, interval, exact", [
        (tanh_sinh(6), lambda t: 1.0, (-1.0, 1.0), 2.0),
        (tanh_sinh(12), lambda t: t ** -0.5, (0.0, 1.0), 2.0),
        (tanh_sinh(8), lambda t: t ** -0.9, (0.0, 1.0), 10.0),
        (gauss_legendre(16), math.exp, (0.0, 1.0), math.e - 1.0),
    ], ids=["constant", "inverse-sqrt-level-12", "t^-0.9-level-8", "legendre-exp"])
    def test_bar_covers_rounding(self, rule, f, interval, exact):
        # the level difference can vanish where the sum's rounding does not
        res = integrate(rule, f, interval)
        assert abs(res.value - exact) <= res.est_error <= 1e-13 * exact

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate(gauss_legendre(4), lambda t: 1.0, (1.0, 1.0))
        with pytest.raises(DomainError):
            integrate(gauss_legendre(4), lambda t: 1.0, (2.0, 1.0))

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)],
                             ids=["inf-hi", "inf-lo", "nan-lo"])
    def test_infinite_interval_rejected(self, interval):
        with pytest.raises(DomainError, match="interval must be finite"):
            integrate(gauss_legendre(4), lambda t: 1.0, interval)

    @pytest.mark.parametrize("rule", [
        QuadratureRule("mine", np.array([-0.5, 0.0, 0.5]), np.array([0.6, 0.8, 0.6])),
        QuadratureRule("mine", gauss_legendre(3).nodes, np.array([0.6, 0.8, 0.6])),
        QuadratureRule("mine", tanh_sinh(2).nodes, tanh_sinh(2).weights, level=3),
        QuadratureRule("mine", tanh_sinh(2).nodes, tanh_sinh(2).weights, level=99),
        QuadratureRule("mine", np.linspace(-0.9, 0.9, 600), np.ones(600)),
    ], ids=["own-nodes", "own-weights", "wrong-level", "bad-level", "too-many-nodes"])
    def test_hand_built_rule_rejected(self, rule):
        # the refinement would come from a generator's rule, not from this one
        with pytest.raises(DomainError, match="hand-built 'mine'"):
            integrate(rule, lambda t: t ** 4, (-1.0, 1.0))

    def test_hand_built_rule_takes_lists(self):
        rule = QuadratureRule("mine", [-.5, 0, .5], [.6, .8, .6])
        assert rule.nodes.dtype == rule.weights.dtype == np.float64
        assert list(rule.nodes) == [-0.5, 0.0, 0.5] and list(rule.weights) == [0.6, 0.8, 0.6]
        with pytest.raises(DomainError, match="hand-built 'mine'"):
            integrate(rule, lambda t: t ** 4, (-1.0, 1.0))

    @pytest.mark.parametrize("args", [
        ([-.5, 0, .5], [.6, .8]),
        ([[-.5, 0, .5]], [.6, .8, .6]),
        ([], []),
        ([[-.5, 0], [.5]], [.6, .8, .6]),
        ([-.5, 0, "a"], [.6, .8, .6]),
        ([-.5, 0, .5j], [.6, .8, .6]),
        ([-.5, 0, math.nan], [.6, .8, .6]),
        ([-.5, 0, .5], [.6, math.inf, .6]),
        ([-.5, 0, .5], [.6, .8, .6], [0.5, 1.0]),
        (None, [.6, .8, .6]),
        ([.5, 0, -.5], [.6, .8, .6]),
        ([-.5, 0, .5], [.6, 0.0, .6]),
        ([-1.0, 0, .5], [.6, .8, .6]),
        ([-.5, 0, 1.0], [.6, .8, .6]),
    ], ids=["short-weights", "2d-nodes", "empty", "ragged", "text", "complex", "nan-node",
            "inf-weight", "short-gap", "none", "decreasing", "zero-weight", "node-at-minus-one",
            "node-at-one"])
    def test_bad_hand_built_rule_raises_domain_error(self, args):
        # a DomainError, which the CLI maps to exit code 2
        with pytest.raises(DomainError, match="mine"):
            QuadratureRule("mine", *args)

    @pytest.mark.parametrize("rule, mass", [
        (gauss_legendre(3), 2.0), (gauss_jacobi(5, 0.5, -0.3), beta_moment(0.5, -0.3)),
        (tanh_sinh(3), 2.0),
    ], ids=["legendre", "jacobi", "tanh-sinh"])
    def test_generated_rules_accepted(self, rule, mass):
        value = integrate(rule, lambda t: 1.0, (-1.0, 1.0)).value
        assert value == pytest.approx(mass, rel=1e-10, abs=0.0)

    def test_nonfinite_integrand_identified(self):
        with pytest.raises(EvaluationError) as err:
            integrate(gauss_legendre(8), lambda t: math.inf if t > 0.5 else 1.0,
                      (0.0, 1.0))
        assert err.value.node is not None
        assert err.value.node > 0.5


class TestOuterSums:
    @staticmethod
    def _recording(calls):
        def integrand(i, s, d_lo, d_hi):
            calls.append(i.copy())
            return np.ones(s.shape), np.zeros(s.shape)
        return integrand

    def test_empty_and_reversed_intervals_skip_integrand(self):
        calls = []
        values, est, level = _outer_sums([1.0, 2.0, 0.5], [1.0, 1.0, 2.0], self._recording(calls))
        assert type(level) is int and level == 4
        assert values[:2].tolist() == [0.0, 0.0] and est[:2].tolist() == [0.0, 0.0]
        assert values[2] == pytest.approx(1.5, rel=1e-14, abs=0.0)
        assert calls and all(i.tolist() == [2] for i in calls)

    def test_all_empty_never_calls_integrand(self):
        calls = []
        values, est, level = _outer_sums(np.zeros((2, 3)), [[0.0], [-1.0]], self._recording(calls))
        assert calls == []
        assert type(level) is int and level == 0     # no level integrated
        assert values.shape == est.shape == (2, 3)
        assert not values.any() and not est.any()

    @pytest.mark.parametrize("lo, hi, bad", [
        ([0.0, np.nan], 1.0, "nan"),
        (0.0, [1.0, np.inf], "inf"),
        (-np.inf, 0.0, "-inf"),
    ])
    def test_non_finite_end_raises(self, lo, hi, bad):
        calls = []
        with pytest.raises(DomainError, match=f"non-finite evaluation point {bad}"):
            _outer_sums(lo, hi, self._recording(calls))
        assert calls == []

    @pytest.mark.parametrize("lo, hi, p", [
        pytest.param(1.0, 1.001, 0.3, id="1.0-1.001"),
        pytest.param(-2.0, 0.5, 0.3, id="-2.0-0.5"),
        pytest.param(1.0, 1.001, 0.05, id="1.0-1.001-p0.05"),
        pytest.param(-2.0, 0.5, 0.05, id="-2.0-0.5-p0.05"),
    ])
    def test_endpoint_distances_resolve_beta_integral(self, lo, hi, p):
        # integral of d_lo^{p-1} d_hi^{p-1} over (lo, hi) = (hi - lo)^{2p-1} B(p, p);
        # both ends are singular, and near them only the distances resolve
        # the nodes: the abscissae round onto the ends.  At p = 0.05 the
        # part beyond gap 1e-60 would be about 1e-3 of the integral

        def integrand(i, s, d_lo, d_hi):
            assert np.all((lo <= s) & (s <= hi) & (d_lo > 0.0) & (d_hi > 0.0))
            return d_lo ** (p - 1.0) * d_hi ** (p - 1.0), np.zeros(s.shape)

        values, est, _ = _outer_sums(lo, hi, integrand, (p, p))
        exact = (hi - lo) ** (2.0 * p - 1.0) * math.gamma(p) ** 2 / math.gamma(2.0 * p)
        assert values.shape == est.shape == ()
        assert abs(values.item() - exact) <= est.item()
        assert est.item() < 1e-12 * exact

    @pytest.mark.parametrize("p", [0.3, 1.0, 2.2, 7.0])
    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_each_end_cut_at_its_own_power(self, p, end):
        # integral of gap^{p-1} over (0, 1) = 1/p with the power at one end;
        # the other end is regular and keeps every node down to gap eps, and
        # a power above 1 drops nodes at its own end
        regular, nodes = [], []

        def integrand(i, s, d_lo, d_hi):
            gap, other = (d_lo, d_hi) if end == "lo" else (d_hi, d_lo)
            regular.append(other.min())
            nodes.append(s.shape[-1])
            return gap ** (p - 1.0), np.zeros(s.shape)

        values, est, _ = _outer_sums(0.0, 1.0, integrand, (p, 1.0) if end == "lo" else (1.0, p))
        assert abs(values.item() - 1.0 / p) <= est.item() <= 1e-14 / p
        eps = np.finfo(float).eps
        gaps = np.minimum(*_tanh_sinh_full(4)[2:4])     # each level-4 node to its nearer end
        assert regular[0] == 0.5 * gaps[gaps >= eps].min()
        assert (nodes[0] < np.count_nonzero(gaps >= eps)) == (p > 1.0)

    @staticmethod
    def _centred(pieces):
        """An integrand whose pieces at s and -s are pieces(s) and whose bars are 0."""
        def integrand(i, s, d_lo, d_hi):
            vals = np.stack(pieces(s))
            return vals, np.zeros(vals.shape)
        return integrand

    def test_centred_constant_counts_the_centre_once(self):
        # (0, 1) with a centre at 0 stands for (-1, 1); both pieces hold the
        # node s = 0, whose weight each takes half of
        values, est, level = _outer_sums(
            0.0, 1.0, self._centred(lambda s: (np.ones(s.shape),) * 2), (None, 1.0))
        assert values.item() == pytest.approx(2.0, rel=4.0 * np.finfo(float).eps, abs=0.0)
        assert abs(values.item() - 2.0) <= est.item() < 1e-14
        assert level == 4

    def test_centred_exponential_stops_at_first_level(self):
        # e^y over (-1, 1) from the pieces e^s and e^-s; the level difference
        # of each piece alone is large, as neither is smooth at the centre
        seen = []

        def integrand(i, s, d_lo, d_hi):
            seen.append(s.min())
            vals = np.stack((np.exp(s), np.exp(-s)))
            return vals, np.zeros(vals.shape)

        values, est, level = _outer_sums(0.0, 1.0, integrand, (None, 1.0))
        assert abs(values.item() - 2.0 * math.sinh(1.0)) <= est.item() < 1e-14
        assert level == 4 and seen == [0.0]

    def test_centred_odd_pair_sums_to_zero(self):
        # the pieces s^3 and (-s)^3 cancel node by node, and the bar stays
        # finite: the rounding and tail terms of the integral of |y|^3
        values, est, _ = _outer_sums([0.0, 0.0], [1.0, 2.5],
                                     self._centred(lambda s: (s ** 3, -(s ** 3))), (None, 1.0))
        assert values.tolist() == [0.0, 0.0]
        assert np.all(np.isfinite(est)) and np.all(est < 1e-12)

    def test_centred_end_at_hi_resolves_its_power(self):
        # (1 - y^2)^{p-1} over (-1, 1), smooth at the centre, has the
        # integral B(1/2, p); only hi is cut, at its power
        p = 0.3

        def integrand(i, s, d_lo, d_hi):
            assert np.all(d_lo >= 1.0)      # the mirrored lower end is 2 lo - hi = -1
            vals = np.stack(((d_hi * (2.0 - d_hi)) ** (p - 1.0),) * 2)
            return vals, np.zeros(vals.shape)

        values, est, _ = _outer_sums(0.0, 1.0, integrand, (None, p))
        exact = math.gamma(0.5) * math.gamma(p) / math.gamma(p + 0.5)
        assert abs(values.item() - exact) <= est.item() < 1e-13 * exact

    @staticmethod
    def _flat_edge(c, w):
        """exp(-c / (1 - y^2)) cos(w y) over (-1, 1) from centred pieces: flat
        but not analytic at the ends, as at the edge of a compact support."""
        def integrand(i, s, d_lo, d_hi):
            e = np.exp(-c / (d_hi * (2.0 - d_hi))) * np.cos(w * s)
            vals = np.stack((e, e))
            return vals, np.zeros(vals.shape)
        return integrand

    @staticmethod
    def _flat_edge_sum(c, w, monkeypatch, first=4, last=12):
        """The flat-edge sum's value, bar and level, from levels first to last."""
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_MIN_TS_LEVEL", first)
            m.setattr(quadrature, "_MAX_TS_LEVEL", last)
            value, est, level = _outer_sums(0.0, 1.0, TestOuterSums._flat_edge(c, w), (None, 1.0))
        return value.real.item(), est.item(), level

    def test_flat_edge_stop_near_threshold_within_bar(self, monkeypatch):
        # the bump's profile stops at level 4 with d/m = 1.26e-8, just inside
        # sqrt(eps): the bar there is m (d/m)^1.5 = 1.4e-12 m, the model's
        # power 2(L-1)/L at L = 4; the error, 1.0e-14 m, fell from level 3
        # to 4 to the power 1.77.  The integrand is positive, so m is the value
        value, est, level = self._flat_edge_sum(1.0, 0.0, monkeypatch)
        below = self._flat_edge_sum(1.0, 0.0, monkeypatch, 3, 3)[0]
        ref = self._flat_edge_sum(1.0, 0.0, monkeypatch, 8)[0]
        assert level == 4
        assert 1e-8 * value < abs(value - below) < math.sqrt(np.finfo(float).eps) * value
        assert abs(value - ref) <= est < 2e-12 * value

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="a flat edge sharper than "
                       "the bump's converges slower than the bar's model at level 4; ROADMAP item 7")
    def test_sharp_flat_edge_stop_within_bar(self, monkeypatch):
        # exp(-0.08 / (1 - y^2)) falls from 1 to 0 within about 0.04 of the
        # ends; from level 2 to 3 its error fell to the power 1.55 and from 3
        # to 4 to 1.41, so the level-4 stop at d/m = 2.2e-9 misses its bar by 6.3x
        value, est, level = self._flat_edge_sum(0.08, 1.25, monkeypatch)
        ref = self._flat_edge_sum(0.08, 1.25, monkeypatch, 8)[0]
        assert level == 4
        assert abs(value - ref) <= est

    @pytest.mark.parametrize("powers, zone", [((1.0, 1.0), 1.0), ((None, 1.0), 1.5),
                                              ((1e300, 1.0), 0.9)],
                             ids=["zone-over-interval", "zone-over-centred", "zone-meets-lo-cut"])
    def test_cut_leaving_no_node_raises(self, powers, zone):
        # a level with no node has no sum: the zone reaches the other end's cut
        calls = []
        with pytest.raises(DomainError, match=r"no level-4 node in the interval \(-?[01]\.0, 1\.0\)"):
            _outer_sums(0.0, 1.0, self._recording(calls), powers, (), zone)
        assert calls == []

    def test_interval_inside_zone_within_bar(self):
        # the zone is one cut sized on the widest interval: the one it covers
        # keeps nodes down to 0.02 x 0.005 / 0.5 of its hi, and its value,
        # short of the dropped part, lies within its bar
        calls = []
        values, est, _ = _outer_sums([0.0, 0.5], [1.0, 0.51], self._recording(calls),
                                     (1.0, 1.0), (), 0.02)
        assert any(1 in i for i in calls)
        assert np.all(np.abs(values - [1.0, 0.01]) <= est)

    @pytest.mark.parametrize("centred", [False, True])
    def test_zone_drops_nodes_and_counts_tail(self, centred):
        # exp(-1 / (d_hi (2 - d_hi))) over (0, 1) and (0, 0.7), or centred:
        # with an absolute cut at 0.03 the wider interval sees no node within
        # it of hi, the narrower one none within 0.03 x 0.35 / 0.5 but some
        # within 0.03; the dropped parts, the wider one's above 1e-11 of its
        # integral, are within the bars through the tail at the outermost node
        seen = {0: [], 1: []}

        def integrand(i, s, d_lo, d_hi):
            for j, d in zip(i.tolist(), d_hi.min(1).tolist()):
                seen[j].append(d)
            e = np.exp(-1.0 / (d_hi * (2.0 - d_hi)))
            vals = np.stack((e, e)) if centred else e
            return vals, np.zeros(vals.shape)

        powers = (None, 1.0) if centred else (1.0, 1.0)
        lo, hi = [0.0, 0.0], [1.0, 0.7]
        full, full_est, _ = _outer_sums(lo, hi, integrand, powers)
        seen = {0: [], 1: []}
        cut, cut_est, _ = _outer_sums(lo, hi, integrand, powers, (), 0.03)
        assert min(seen[0]) >= 0.03
        assert 0.03 * 0.7 * (1.0 - 1e-15) <= min(seen[1]) < 0.03
        dropped = np.abs(cut - full)
        assert dropped[0] > 1e-11 * abs(full[0]) and np.all(dropped <= cut_est)
        assert np.all(cut_est < 1e-6 * np.abs(full))

    @pytest.mark.parametrize("powers", [(1.0, 1.0), (None, 1.0)], ids=["ends", "centred"])
    def test_zone_keeps_the_full_layout(self, powers):
        # under a zone every batch gets distinct intervals and every node of
        # the level's rule at each of them, also an interval the zone covers
        layouts = []

        def integrand(i, s, d_lo, d_hi):
            layouts.append((i.copy(), s.shape, d_lo.shape, d_hi.shape, d_hi / half[i][:, None]))
            return np.ones(s.shape), np.zeros(s.shape)

        lo, hi = np.array([0.0, 0.0, 0.5]), np.array([1.0, 0.7, 0.51])
        half = hi - lo if powers[0] is None else 0.5 * (hi - lo)
        _outer_sums(lo, hi, integrand, powers, (), 0.03)
        assert layouts
        for i, *shapes, gaps in layouts:
            assert np.unique(i).size == i.size
            assert shapes == [(i.size, gaps.shape[1])] * 3
            # one rule for all: the same relative gaps at every interval
            assert np.allclose(gaps, gaps[0], rtol=1e-14, atol=0.0)

    def test_zone_tail_stops_the_level(self):
        # a constant cut 0.3 short of its end: the sum of the kept nodes
        # converges to no level's precision, the tail at the outermost kept
        # node, at least 0.3, bounds what no level lowers, and the sum stops
        # at the first level with the dropped part in its bar
        def integrand(i, s, d_lo, d_hi):
            return np.ones(s.shape), np.zeros(s.shape)

        value, est, level = _outer_sums(0.0, 1.0, integrand, (1.0, 1.0), (), 0.3)
        assert level == 4
        assert abs(value.item() - 1.0) <= est.item() < 0.5

    def test_outputs_keep_their_own_levels(self):
        # two outputs on each of three intervals: a constant, which stops at
        # the first level, and cos(40 s), which climbs; each equals its
        # one-output pass bit for bit, as every interval keeps its nodes
        def integrand(outputs):
            def fn(i, s, d_lo, d_hi):
                both = np.stack((np.ones(s.shape), np.cos(40.0 * s)))
                return both[outputs], np.zeros((len(outputs),) + s.shape)
            return fn

        lo, hi = [0.0, -1.0, 0.5], [1.0, 2.0, 0.5]
        values, est, level = _outer_sums(lo, hi, integrand([0, 1]), (1.0, 1.0), (2,))
        assert values.shape == est.shape == (2, 3)
        assert level > 4
        for out in (0, 1):
            one, one_est, one_level = _outer_sums(lo, hi, integrand([out]), (1.0, 1.0), (1,))
            assert values[out].tobytes() == one[0].tobytes()
            assert est[out].tobytes() == one_est[0].tobytes()
            assert (one_level == 4) == (out == 0)
        assert values[:, 2].tolist() == [0.0, 0.0]
        exact = [(np.sin(40.0 * b) - np.sin(40.0 * a)) / 40.0 for a, b in zip(lo, hi)]
        assert np.all(np.abs(values[0] - np.subtract(hi, lo)) <= est[0])
        assert np.all(np.abs(values[1] - exact) <= est[1])
