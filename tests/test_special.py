"""The modified Bessel wrappers: their values, identities and error contract."""

import math

import numpy as np
import pytest
import scipy.special as sps

from parasym import special
from parasym.expr import DomainError


class TestAgainstScipy:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 7.0, -0.5,
                                    -1.5, 13.0, 20.0])
    @pytest.mark.parametrize("z", [1e-8, 0.1, 1.0, 5.0, 20.0, 50.0])
    def test_bessel_i(self, nu, z):
        assert special.iv(nu, z) == pytest.approx(
            float(sps.iv(nu, z)), rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("z", [0.5, 5.0, 80.0, 400.0, 5000.0])
    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 6.5])
    def test_scaled_no_cap(self, nu, z):
        assert special.ive(nu, z) == pytest.approx(
            float(sps.ive(nu, z)), rel=1e-10)


class TestIdentities:
    def test_recurrence(self):
        # I_{nu-1}(z) - I_{nu+1}(z) = 2 nu I_nu(z) / z
        for nu in (1.0, 2.5):
            for z in (0.7, 3.0, 12.0):
                lhs = special.iv(nu - 1, z) - special.iv(nu + 1, z)
                rhs = 2 * nu * special.iv(nu, z) / z
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_small_argument_leading_order(self):
        # I_nu(z) ~ (z/2)^nu / Gamma(nu+1)
        nu, z = 1.5, 1e-6
        want = (z / 2) ** nu / math.gamma(nu + 1)
        assert special.iv(nu, z) == pytest.approx(want, rel=1e-6)


class TestRangeHandling:
    def test_negative_arg_fractional_order(self):
        with pytest.raises(DomainError):
            special.iv(0.5, -1.0)

    def test_iv_overflow_is_domain_error(self):
        with pytest.raises(DomainError):
            special.iv(0.0, 1e6)

    def test_at_zero(self):
        assert special.ive(0.0, 0.0) == 1.0
        assert special.ive(2.0, 0.0) == 0.0


class TestArrays:
    def test_elementwise_equals_the_float_calls(self):
        z = np.array([0.0, 0.3, 2.0, 40.0, 700.0])
        for f in (special.iv, special.ive):
            got = f(1.5, z)
            assert isinstance(got, np.ndarray) and got.shape == z.shape
            assert got.tolist() == [f(1.5, v) for v in z.tolist()]
            assert type(f(1.5, 2.0)) is float

    def test_errors_name_the_first_bad_argument(self):
        with pytest.raises(DomainError, match="z >= 0"):
            special.ive(0.5, np.array([1.0, -1e-3]))
        with pytest.raises(DomainError, match="z=800") as exc:
            special.iv(0.0, np.array([1.0, 800.0, 900.0]))
        assert isinstance(exc.value.__cause__, OverflowError)
