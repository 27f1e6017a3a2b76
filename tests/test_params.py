import math
from fractions import Fraction

import numpy as np
import pytest

from trigdunkl import (DomainError, Multiplicity, bump, cherednik_D, gaussian, jacobi_phi,
                       kernel_K_limit_k1zero, opdam_G, plane_wave, positivity_scan)
from trigdunkl.params import _number
from trigdunkl.quadrature import gauss_jacobi, integrate, tanh_sinh
from trigdunkl.specfun import gamma_real, hyp2f1, loggamma_right_half

K = Multiplicity(0.5, 0.3)


class TestNumber:
    @pytest.mark.parametrize("v, value", [
        (0.5, 0.5), (2, 2.0), (True, 1.0), (np.int64(2), 2.0), (np.float32(0.5), 0.5),
        (np.array(0.5), 0.5), (np.array(3), 3.0), (Fraction(1, 4), 0.25), (complex(0.5, 0.0), 0.5),
    ])
    def test_real_accepted(self, v, value):
        out = _number("v", v, real=True)
        assert type(out) is float and out == value
        assert _number("v", v) == complex(value) and type(_number("v", v)) is complex

    def test_complex_accepted(self):
        assert _number("v", np.complex64(0.5 - 1j)) == 0.5 - 1j
        assert _number("v", np.array(1j)) == 1j

    @pytest.mark.parametrize("v, match", [
        ("1", "must be a number"), (b"1", "must be a number"), (None, "must be a number"),
        (np.array([0.5]), "must be a number"), ([0.5], "must be a number"),
        (np.array("1"), "must be a number"), (np.array("1", dtype=object), "must be a number"),
        (np.True_, "must be a number"), (math.nan, "must be finite"),
        (complex(1.0, math.inf), "must be finite"), (np.float64(-math.inf), "must be finite"),
    ])
    def test_rejected(self, v, match):
        for real in (False, True):
            with pytest.raises(DomainError, match=f"^v {match}"):
                _number("v", v, real)

    def test_imaginary_part_rejected_where_real(self):
        for v in (1j, 0.5 + 1e-300j, np.complex128(2.0 + 1.0j)):
            with pytest.raises(DomainError, match="must be real"):
                _number("v", v, real=True)


# a scalar argument that is text, None, an array, or complex where a real is asked
BAD_CALLS = {
    "hyp2f1-a-text": lambda: hyp2f1("1", 1, 2, 0.5),
    "hyp2f1-z-text": lambda: hyp2f1(1, 1, 2, "0.5"),
    "hyp2f1-a-none": lambda: hyp2f1(None, 1, 2, 0.5),
    "opdam_G-lam-text": lambda: opdam_G(K, "1.5", 1.0),
    "opdam_G-x-text": lambda: opdam_G(K, 1.5, "1.0"),
    "opdam_G-x-complex": lambda: opdam_G(K, 1.5, 1j),
    "jacobi_phi-lam-text": lambda: jacobi_phi(0.5, 0.3, "1", 0.5),
    "jacobi_phi-t-array": lambda: jacobi_phi(0.5, 0.3, 1.0, np.array([0.5])),
    "gamma_real-text": lambda: gamma_real("2"),
    "loggamma_right_half-text": lambda: loggamma_right_half("1"),
    "cherednik_D-x-text": lambda: cherednik_D(K, plane_wave(1.0), "1.0"),
    "limit-k-text": lambda: kernel_K_limit_k1zero("0.5", 1.0, 0.3),
    "gauss_jacobi-alpha-text": lambda: gauss_jacobi(4, "0.5", 0.0),
    "integrate-end-text": lambda: integrate(tanh_sinh(4), lambda t: t, ("0", 1.0)),
    "gaussian-complex": lambda: gaussian(1j),
    "bump-complex": lambda: bump(1 + 1j),
    "Multiplicity-array": lambda: Multiplicity(np.array([0.5]), 0.3),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_bad_scalar_raises_domain_error(name):
    with pytest.raises(DomainError):
        BAD_CALLS[name]()


def test_numpy_scalars_accepted():
    for k1 in (np.int64(1), np.float32(0.5), np.array(0.5)):
        assert Multiplicity(k1, 0.3) == Multiplicity(float(k1), 0.3)
    assert (positivity_scan(np.array([[1, 1]]), [1.0], [0.5]).cells
            == positivity_scan([(1.0, 1.0)], [1.0], [0.5]).cells)
    assert kernel_K_limit_k1zero(np.array(0.5), 1.0, 0.3) == kernel_K_limit_k1zero(0.5, 1.0, 0.3)
