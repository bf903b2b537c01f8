"""Heat-kernel catalog verification, cross-checks between independently
stated kernels, and heat polynomials."""

import math
from fractions import Fraction

import numpy as np
import pytest

from parasym import kernels as K

ALL_NAMES = K.list_kernels()


class TestCatalogShape:
    def test_twelve_entries(self):
        assert len(ALL_NAMES) == 12

    def test_unknown_kernel(self):
        with pytest.raises(K.UnknownKernel):
            K.kernel("nosuch")

    def test_unknown_constant(self):
        with pytest.raises(K.ConstraintViolation):
            K.kernel("heat_1d", {"zeta": 1.0})

    def test_constraint_enforced(self):
        with pytest.raises(K.ConstraintViolation):
            K.kernel("second_canonical", {"mu": 1.0})  # needs mu <= 1/4

    def test_entry_metadata(self):
        e = K.kernel("black_scholes")
        assert e.equation
        assert e.description
        assert e.domain[0] == 0.0


class TestCatalogVerification:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_entry_passes(self, name):
        rep = K.verify_entry(name)
        assert rep["residual"] <= 1e-9
        assert max(rep["normalization"]) <= 1e-6
        deltas = rep["delta_limit"]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] <= 1e-3
        assert rep["pass"]

    def test_black_scholes_other_constants(self):
        rep = K.verify_entry("black_scholes", {"sigma": 0.25, "r": 0.03})
        assert rep["pass"]

    def test_ou_fp_other_constants(self):
        rep = K.verify_entry("ou_fp", {"b": 0.7, "sigma": 1.3})
        assert rep["pass"]


class TestGenericVerifier:
    """Check values of the generic verifier against closed forms."""

    def test_heat2d_delta_limit(self):
        # Gaussians of variance 2s in x and 2s/(t0 t) in y, s = t - t0,
        # against the product bump exp(-d^2/(2 w^2)) of width w = 1
        t0, w2 = 0.5, 1.0
        entry = K.kernel("heat2d_timedep", {"t0": t0})
        want = []
        for t in entry.delta_t_list:
            vx = 2 * (t - t0)
            vy = 2 * (t - t0) / (t0 * t)
            want.append(1.0 - w2 / math.sqrt((w2 + vx) * (w2 + vy)))
        got = K.verify_delta_limit(entry)
        assert got == pytest.approx(want, rel=0, abs=1e-7)

    def test_linear_potential_nd_delta_limit(self):
        # per axis, int exp(-A d^2 + B d) dd = sqrt(pi/A) exp(B^2/(4A)) with
        # A = 1/(4t) + 1/(2 w^2), B = b t/2, and the factor
        # exp(b t y + b^2 t^3/12) of the offset-free exponent terms
        b, y, w = (1.0, 0.7), (0.3, -0.2), 0.5
        entry = K.kernel("linear_potential_nd", {"n": 2, "b": b, "y": y})
        want = []
        for t in entry.delta_t_list:
            A = 1 / (4 * t) + 1 / (2 * w * w)
            prod = 1.0
            for bk, yk in zip(b, y):
                B = bk * t / 2
                prod *= (math.sqrt(math.pi / A / (4 * math.pi * t))
                         * math.exp(B * B / (4 * A) + bk * t * yk
                                    + bk * bk * t ** 3 / 12))
            want.append(abs(prod - 1.0))
        got = K.verify_delta_limit(entry)
        assert got == pytest.approx(want, rel=0, abs=1e-7)

    def test_second_canonical_normalization(self):
        # mass = 1 + mu t / y^2 + O((t/y^2)^2) on the half line
        mu, y = -2.0, 1.0
        entry = K.kernel("second_canonical", {"mu": mu, "y": y})
        want = [abs(mu) * t / (y * y) for t in entry.norm_t_list]
        got = K.verify_normalization(entry)
        assert got == pytest.approx(want, rel=0, abs=1e-9)


def _gl_quad(f, lo, hi):
    """One axis of the nested scalar Gauss-Legendre rule over the full node
    grid, the reference that heat2d's per-axis mass must match."""
    x = (0.5 * (hi - lo) * K._GL_NODES + 0.5 * (hi + lo)).tolist()
    w = (0.5 * (hi - lo) * K._GL_WEIGHTS).tolist()
    return float(sum(wi * f(xi) for xi, wi in zip(x, w)))


def _heat2d_reference_mass(entry, t, phi=None):
    """heat2d's mass by the nested rule over scalar evaluation."""
    c = entry.constants
    t0, x0, y0 = c["t0"], c["x0"], c["y0"]
    wx = 25 * math.sqrt(t - t0)
    wy = 25 * math.sqrt((t - t0) / (t0 * t))

    def fy(yv):
        def fx(xv):
            v = entry.evaluate(xv, yv, t)
            return v * (phi(xv - x0) * phi(yv - y0)) if phi else v
        return _gl_quad(fx, x0 - wx, x0 + wx)
    return _gl_quad(fy, y0 - wy, y0 + wy)


# the default, the known defect t0 = 0.33, a source far from the origin,
# and 5 draws in the benchmark's ranges
_HEAT2D_DRAWS = [{}, {"t0": 0.33}, {"x0": 1e10, "y0": -1e9}] + [
    dict(zip(("t0", "x0", "y0"), v)) for v in np.round(
        np.random.default_rng(14).uniform((0.4, -1.0, -1.0), (2.0, 1.0, 1.0),
                                          (5, 3)), 3).tolist()]


class TestTensorQuadrature:
    @pytest.mark.parametrize("constants", _HEAT2D_DRAWS,
                             ids=lambda c: ",".join("%s=%g" % kv
                                                    for kv in c.items())
                             or "default")
    def test_heat2d_mass_matches_nested_scalar_rule(self, constants):
        entry = K.kernel("heat2d_timedep", constants)
        bump = K._bump(entry.delta_width)
        for t, phi in ([(t, None) for t in entry.norm_t_list]
                       + [(t, bump) for t in entry.delta_t_list]):
            want = _heat2d_reference_mass(entry, t, phi)
            assert abs(entry.mass(t, phi) - want) <= 1e-13


class TestCrossChecks:
    def test_mehler_matches_transformed_heat_kernel(self):
        spread, _scale = K.mehler_transform_consistency()
        assert spread <= 1e-7

    def test_radial_kernels_from_canonical_form(self):
        assert K.radial_from_canonical_consistency() <= 1e-9

    @pytest.mark.parametrize("name", ["heat_1d", "ou_fp"])
    def test_semigroup_property(self, name):
        assert K.semigroup_check(name) <= 1e-6

    def test_varadhan_small_time_limit(self):
        errs = K.varadhan_check()
        assert errs[0] <= 2e-2
        assert errs[1] <= 2e-3

    def test_invariant_solutions_solve_their_equations(self):
        report = K.invariant_solution_checks()
        assert max(report.values()) <= 1e-9


class TestHeatPolynomials:
    def test_closed_form_exact(self):
        # u_0..u_4 against hand-expanded forms
        expected = {
            0: {(0, 0): 1},
            1: {(1, 0): 1},
            2: {(2, 0): 1, (0, 1): 2},
            3: {(3, 0): 1, (1, 1): 6},
            4: {(4, 0): 1, (2, 1): 12, (0, 2): 12},
        }
        for n, coeffs in expected.items():
            un = K.heat_polynomial(n)
            assert un.coefficients == {k: Fraction(v)
                                       for k, v in coeffs.items()}

    @pytest.mark.parametrize("n", range(11))
    def test_solves_heat_equation_exactly(self, n):
        un = K.heat_polynomial(n)
        # d/dt u_n = d2/dx2 u_n termwise on exact coefficients
        lhs = {}
        for (i, j), c in un.coefficients.items():
            if j >= 1:
                lhs[(i, j - 1)] = lhs.get((i, j - 1), 0) + c * j
        rhs = {}
        for (i, j), c in un.coefficients.items():
            if i >= 2:
                rhs[(i - 2, j)] = rhs.get((i - 2, j), 0) + c * i * (i - 1)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(11))
    def test_parabolic_homogeneity(self, n):
        # u_n(lam x, lam^2 t) = lam^n u_n(x, t), exact on coefficients
        un = K.heat_polynomial(n)
        for (i, j) in un.coefficients:
            assert i + 2 * j == n

    def test_degree_cap(self):
        with pytest.raises(K.ConstraintViolation):
            K.heat_polynomial(31)

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("n", range(6))
    def test_biorthogonality(self, m, n):
        val = K.biorthogonality(m, n)
        want = 2.0 ** n * math.factorial(n) if m == n else 0.0
        assert abs(val - want) <= 1e-6 * 2.0 ** n * math.factorial(n)

    def test_associated_function_solves_heat_equation(self):
        v3 = K.associated_function(3)
        h = 1e-5
        for x in (0.4, 1.2):
            for t in (0.6, 1.1):
                ut = (v3(x, t + h) - v3(x, t - h)) / (2 * h)
                uxx = (v3(x + h, t) - 2 * v3(x, t) + v3(x - h, t)) / (h * h)
                assert ut == pytest.approx(uxx, rel=1e-4, abs=1e-7)


class TestRuntime:
    def test_catalog_within_budget(self):
        import time
        t0 = time.time()
        for name in ALL_NAMES:
            assert K.verify_entry(name)["pass"]
        assert time.time() - t0 <= 60.0
