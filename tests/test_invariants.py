"""The invariant triple (I, J, K), Fokker-Planck assembly, and
time-direction normalization."""

import math

import pytest

from parasym import expr as E
from parasym.invariants import (NonparabolicError, ParabolicEquation,
                                UnsupportedCoefficient, base_point,
                                compute_invariants, fokker_planck_equation,
                                normalize, probe_window)
from parasym.parser import parse, parse_expression as P


def eq(a, b="0", c="0", domain=(-math.inf, math.inf)):
    return ParabolicEquation(P(a), P(b), P(c), domain=domain)


class TestKnownTriples:
    def test_brownian(self):
        inv = compute_invariants(eq("(1 + x^2)^2"))
        # s = 1 + x^2, J = 2x, K = 1, I = arctan x
        assert E.is_num(E.simplify(E.add(inv.J, E.neg(P("2*x")))), 0)
        assert E.is_num(E.simplify(E.add(inv.K, E.num(-1))), 0)
        assert inv.symbolic_I
        for x in (-1.0, 0.3, 2.0):
            assert inv.I(x) == pytest.approx(math.atan(x), rel=1e-12)

    def test_radial_drift(self):
        k = 5.0
        inv = compute_invariants(eq("1", "5/x", domain=(0.0, math.inf)))
        # I = x (up to gauge), J = -k/x, K = -k(k-2)/(4 x^2)
        for x in (0.5, 1.0, 2.0):
            assert E.evaluate(inv.J, {"x": x}) == pytest.approx(-k / x)
            assert E.evaluate(inv.K, {"x": x}) == pytest.approx(
                -k * (k - 2) / (4 * x * x))

    def test_heat(self):
        inv = compute_invariants(eq("1"))
        assert E.is_num(E.simplify(inv.K), 0)
        assert inv.I(1.5) - inv.I(0.5) == pytest.approx(1.0)

    def test_harmonic_potential(self):
        inv = compute_invariants(eq("1", "0", "-(x^2)"))
        for x in (0.0, 1.0, -2.0):
            assert E.evaluate(inv.K, {"x": x}) == pytest.approx(-x * x)


class TestQuadratureFallback:
    def test_nonpattern_diffusion_uses_quadrature(self):
        inv = compute_invariants(eq("1 + exp(x)"))
        assert not inv.symbolic_I
        # I' = 1/sqrt(a) by central difference
        h = 1e-6
        for x in (-1.0, 0.5, 2.0):
            want = 1.0 / math.sqrt(1 + math.exp(x))
            got = (inv.I(x + h) - inv.I(x - h)) / (2 * h)
            assert got == pytest.approx(want, rel=1e-7)


class TestFokkerPlanck:
    def test_assembly(self):
        fp = fokker_planck_equation(P("x^2"), P("3*x"), domain=(0.0, 2.0))
        # a = p, b = p' + q, c = q'
        assert E.is_num(E.simplify(E.add(fp.a, E.neg(P("x^2")))), 0)
        assert E.is_num(E.simplify(E.add(fp.b, E.neg(P("5*x")))), 0)
        assert E.is_num(E.simplify(E.add(fp.c, E.num(-3))), 0)


class TestNormalization:
    def test_backward_equation_flipped(self):
        backward = eq("-1", "x", "2")
        a, b, c, flipped = normalize(backward)
        assert flipped
        assert E.is_num(a, 1)
        assert E.is_num(E.simplify(E.add(b, P("x"))), 0)
        assert E.is_num(c, -2)
        assert compute_invariants(backward).flipped

    def test_sign_change_rejected(self):
        with pytest.raises(NonparabolicError):
            normalize(eq("x"))  # a changes sign on (-inf, inf)

    @pytest.mark.parametrize("a, domain, where", [
        ("x^2", (-math.inf, math.inf), "x=0"),
        ("x^2 - 100", (-math.inf, math.inf), "x=-10"),   # outside the window
        ("(3*x - 1)^2", (-math.inf, math.inf), "x=0.333333"),
        ("(x - 1/2)^4", (0.0, 1.0), "x=0.5"),
    ])
    def test_interior_zero_of_polynomial_a_rejected(self, a, domain, where):
        with pytest.raises(NonparabolicError, match=where):
            compute_invariants(eq(a, domain=domain))

    @pytest.mark.parametrize("a, domain", [
        ("x^2", (0.0, math.inf)),
        ("(1 - x^2)^2", (-1.0, 1.0)),
        ("x^2 + 1", (-math.inf, math.inf)),
    ])
    def test_endpoint_zero_of_a_accepted(self, a, domain):
        normalize(eq(a, domain=domain))

    def test_time_dependent_coefficient_rejected(self):
        with pytest.raises(UnsupportedCoefficient):
            normalize(ParabolicEquation(P("1 + t"), P("0"), P("0")))

    def test_unbound_symbol_rejected(self):
        with pytest.raises(E.UnboundIdentifier):
            normalize(eq("k*x^2"))

    def test_bindings_substituted(self):
        e = ParabolicEquation(P("k^2"), P("0"), P("0"), bindings={"k": 3.0})
        a, _, _, flipped = normalize(e)
        assert not flipped
        assert E.evaluate(a, {}) == pytest.approx(9.0)


class TestWindows:
    def test_probe_window_inside_domain(self):
        for dom in [(-math.inf, math.inf), (0.0, math.inf),
                    (-math.inf, 1.0), (0.0, 1.0)]:
            lo, hi = probe_window(dom)
            assert dom[0] < lo < hi < dom[1]
            assert math.isfinite(lo) and math.isfinite(hi)

    def test_base_point_inside_domain(self):
        for dom in [(-math.inf, math.inf), (0.0, math.inf), (0.0, 1.0)]:
            assert dom[0] < base_point(dom) < dom[1]


class TestProgramBridge:
    def test_from_program_renames_variable(self):
        prog = parse("var s\na = (1 + s^2)^2\nb = 0\nc = 0")
        e = ParabolicEquation.from_program(prog)
        assert "x" in E.free_symbols(e.a)

    def test_missing_coefficient(self):
        prog = parse("var x\na = 1\nb = 0")
        with pytest.raises(UnsupportedCoefficient):
            ParabolicEquation.from_program(prog)
