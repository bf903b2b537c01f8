"""The invariant triple (I, J, K), Fokker-Planck assembly, and
time-direction normalization."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parasym import expr as E
from parasym.invariants import (KNOT_PANELS, MAX_POLY_DEGREE, Fn1,
                                NonparabolicError, ParabolicEquation,
                                UnsupportedCoefficient, base_point,
                                compute_invariants, normalize, numeric_poly,
                                probe_window, quadrature_fn1, values_at)
from parasym.parser import parse, parse_expression as P
from test_classify import fokker_planck_equation


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

    # the knot sampler of 1/sqrt(1 + k^2 x^2), k = 2, against its
    # antiderivative asinh(k x)/k
    K = 2.0
    DOMAIN = (-math.inf, math.inf)

    def asinh_sampler(self, x_ref=0.0):
        return quadrature_fn1(P("1/sqrt(1 + 4*x^2)"), self.DOMAIN, x_ref)

    @pytest.mark.parametrize("x_ref", [0.0, 0.3])
    def test_knot_sampler_matches_closed_form(self, x_ref):
        # x_ref = 0 is a panel end of the window (-4, 4); 0.3 is not
        I = self.asinh_sampler(x_ref)
        lo, hi = probe_window(self.DOMAIN)
        panel = (hi - lo) / KNOT_PANELS
        assert I(x_ref) == 0.0
        for x in (lo + 3 * panel, lo + 3.37 * panel, lo - 1.3, hi + 2.7):
            want = (math.asinh(self.K * x) - math.asinh(self.K * x_ref)) \
                / self.K
            assert abs(I(x) - want) <= 1e-13, x

    def test_values_do_not_depend_on_call_order(self):
        xs = [-5.3, -4.0, -1.1, 0.0, 0.26, 2.5, 3.99, 6.7]
        forward, backward = self.asinh_sampler(), self.asinh_sampler()
        got = [forward(x) for x in xs]
        assert [backward(x) for x in xs[::-1]][::-1] == got
        assert [forward(x) for x in xs] == got


class TestValuesAt:
    XS = [-1.0, 0.0, 2.0]

    def test_values_by_point_then_function(self):
        got = values_at([("I", P("2*x")), ("K", Fn1(E.ONE, expr=P("x^2")))],
                        self.XS)
        assert got.tolist() == [[-2.0, 1.0], [0.0, 0.0], [4.0, 4.0]]

    def test_earlier_point_wins_over_earlier_function(self):
        # I fails only at x = 2, K already at x = -1
        with pytest.raises(E.DomainError) as exc:
            values_at([("I", P("sqrt(1 - x)")), ("K", P("log(x + 0.5)"))],
                      self.XS)
        assert str(exc.value) == "K undefined at x=-1: log of non-positive"
        assert exc.value.x == -1.0

    def test_first_function_named_at_one_point(self):
        with pytest.raises(E.DomainError) as exc:
            values_at([("I", P("sqrt(1 - x)")), ("K", P("log(1.5 - x)"))],
                      self.XS)
        assert str(exc.value) == ("I undefined at x=2: negative base with "
                                  "fractional exponent")

    def test_zero_of_a_before_an_undefined_point_is_named(self):
        # a = 0 at a probe point of (-4, 4); a is undefined from x = 3.9 on
        e = eq("(x - (-3.766176260732083))*sqrt(3.9 - x)")
        with pytest.raises(NonparabolicError) as exc:
            normalize(e)
        assert str(exc.value) == "a vanishes at x=-3.76618"

    def test_many_is_the_pointwise_values(self):
        xs = [-5.3, -4.0, -1.1, 0.0, 0.26, 2.5, 3.99, 6.7]
        inv = compute_invariants(eq("(1 + x^2)^2"))
        assert inv.symbolic_I
        want = [E.evaluate(inv.I.expr, {"x": x}).hex() for x in xs]
        assert [v.hex() for v in inv.I.many(xs)] == want
        inv = compute_invariants(eq("1 + exp(x)"))
        assert not inv.symbolic_I
        # a fresh sampler for each point: no value depends on the others
        fresh = [quadrature_fn1(inv.I.derivative, inv.domain, inv.I.x_ref)
                 for _ in xs]
        want = [f(x).hex() for f, x in zip(fresh, xs)]
        assert [v.hex() for v in inv.I.many(xs)] == want


# The earlier coefficient-tree path of numeric_poly, kept as the reference:
# one Expr per coefficient, simplified, then evaluated.

def _tree_poly_mul(p, q):
    if len(p) + len(q) - 2 > MAX_POLY_DEGREE:
        return None
    out = [[] for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j].append(E.mul(a, b))
    return [E.Expr("add", terms) if terms else E.ZERO for terms in out]


def _tree_poly(e, var):
    if not E.contains_symbol(e, var):
        return [e]
    k = e.kind
    if k == "sym":
        return [E.ZERO, E.ONE]
    if k == "add":
        parts = []
        for a in e.args:
            p = _tree_poly(a, var)
            if p is None:
                return None
            parts.append(p)
        n = max(len(p) for p in parts)
        return [E.Expr("add", [p[i] for p in parts if i < len(p)])
                for i in range(n)]
    if k == "mul":
        acc = [E.ONE]
        for a in e.args:
            p = _tree_poly(a, var)
            if p is None:
                return None
            acc = _tree_poly_mul(acc, p)
            if acc is None:
                return None
        return acc
    if k == "pow":
        b, ex = e.args
        if not (E.is_num(ex) and isinstance(ex.value, Fraction)
                and ex.value.denominator == 1 and ex.value >= 0):
            return None
        n = int(ex.value)
        if n > MAX_POLY_DEGREE:
            return None
        p = _tree_poly(b, var)
        if p is None:
            return None
        acc = [E.ONE]
        for _ in range(n):
            acc = _tree_poly_mul(acc, p)
            if acc is None:
                return None
        return acc
    return None


def tree_numeric_poly(e):
    coeffs = _tree_poly(E.simplify(e), "x")
    if coeffs is None:
        return None
    out = []
    for c in (E.simplify(c) for c in coeffs):
        if c.kind == "num":
            out.append(c.value)
        elif not E.free_symbols(c) - set(E.DEFAULT_BINDINGS):
            try:
                out.append(E.evaluate(c, {}))
            except E.DomainError:
                return None
        else:
            return None
    return out


def _same(u, v):
    """u and v are the same number: equal type, value and sign of zero."""
    return type(u) is type(v) and (
        u == v and math.copysign(1, u) == math.copysign(1, v)
        or u != u and v != v)


def _numbers_only(e):
    """Every x-free subtree of the simplified tree e is a number.  A leaf
    such as pi or 3^65, which simplify does not fold, enters a coefficient
    tree that simplify rearranges and evaluate sums by fsum, so the last
    bits of such a coefficient may differ."""
    if not E.contains_symbol(e, "x"):
        return e.kind == "num"
    return all(_numbers_only(a) for a in e.args)


def assert_same_coefficients(e):
    """numeric_poly(e) is what the coefficient trees give: the same numbers
    when _numbers_only, else within 1e-12 of the largest magnitude."""
    want, got = tree_numeric_poly(e), numeric_poly(e)
    exact = _numbers_only(E.simplify(e))
    if want is None and got is not None and not exact:
        # evaluate refuses a coefficient tree whose value leaves the floats,
        # while numeric_poly multiplies the leaf's value and keeps the inf
        assert not all(map(math.isfinite, got)), got
        return
    assert (got is None) == (want is None)
    if got is None:
        return
    assert len(got) == len(want)
    if exact:
        assert all(_same(u, v) for u, v in zip(got, want)), (got, want)
    else:
        scale = max(abs(v) for v in want)
        assert all(_same(u, v) or abs(u - v) <= 1e-12 * scale
                   for u, v in zip(got, want)), (got, want)


_HUGE = [1e300, -1e300, 1e-300, -1e-300]


def _coefficients(pi):
    plain = st.one_of(
        st.integers(1, 4), st.integers(-4, 0),
        st.fractions(-3, 3, max_denominator=7),
        st.floats(0.1, 9), st.floats(-9, 9), st.just(0.0), st.just(-0.0))
    if pi:
        # moderate, so that no coefficient leaves the floats
        return st.one_of(plain, plain.map(lambda c: E.mul(c, E.sym("pi"))),
                         st.just(E.sym("pi")))
    return st.one_of(plain, st.sampled_from(_HUGE))


@st.composite
def _polynomial_trees(draw, pi=False):
    """A product of 1-3 factors, each a sum of c x^k terms or a power of
    one, reaching degree 65 and beyond; with pi only up to degree 45, as
    the coefficient trees of pi grow too fast to simplify beyond."""
    x = E.sym("x")
    coef = _coefficients(pi)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        terms = [E.mul(draw(coef), E.pow_(x, draw(st.integers(1, 3))))
                 for _ in range(draw(st.integers(1, 3)))]
        factor = E.add(draw(coef), *terms)
        n = draw(st.sampled_from([1, 1, 2, 3, 5] if pi else
                                 [1, 1, 2, 3, 5, 11, 21, 32, 33, 64, 65]))
        factors.append(factor if n == 1 else E.pow_(factor, n))
    return E.mul(*factors)


class TestNumericPoly:
    """numeric_poly gives the numbers the coefficient trees simplified to."""

    @given(_polynomial_trees())
    @settings(max_examples=150, deadline=None)
    def test_same_numbers_as_the_coefficient_trees(self, e):
        assert_same_coefficients(e)

    @given(_polynomial_trees(pi=True))
    @settings(max_examples=80, deadline=None)
    def test_pi_coefficients_agree_to_rounding(self, e):
        assert_same_coefficients(e)

    @pytest.mark.parametrize("text", [
        "x^64", "x^65", "(x + 1)^33*(x + 2)^32", "(x + 1)^32*(x + 2)^32",
        "0*x + 0.0*x^2 + 1", "0.0*x", "-0.0", "2.5*x", "(1e300*x + 1)^2",
        "(1e-300*x)^2 + x", "(0.5*x - 0.5*x^2)*(x + 1)", "x^2.0",
        "exp(x)*x", "sqrt(2)*x^2 + x", "k*x", "log(-1)*x + 1",
        "(x + 1)^3*3^65", "(2 + 0*x)^65*(1e300 + x)",
        "pi*x^2 + 2*pi*(x + 1)^2",
    ])
    def test_edge_cases(self, text):
        assert_same_coefficients(P(text))

    def test_degree_cap(self):
        assert numeric_poly(P("x^64")) == [0] * 64 + [1]
        assert numeric_poly(P("x^65")) is None
        assert numeric_poly(P("(x + 1)^33*(x + 2)^32")) is None

    def test_zero_product_is_exact(self):
        # c1 = 1*2 + 0.5*0: the float times zero adds an exact 0
        got = numeric_poly(P("(0.5*x + 1)*(2*x - 0.25*x^2)"))
        assert got == [0, 2, 0.75, -0.125]
        assert [type(c) for c in got] == [Fraction, Fraction, float, float]


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
