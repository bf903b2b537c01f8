"""Property suites: derivative-vs-finite-difference agreement, simplifier
idempotence, print/parse fixpoint, gauge invariance of K, and
classification shift invariance."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from parasym import expr as E
from parasym.classify import classify
from parasym.invariants import ParabolicEquation, compute_invariants
from parasym.parser import parse_expression as P

# ---------------------------------------------------------------------------
# random expression trees

_FUNCS = ["exp", "sin", "cos", "tanh", "arctan"]


def _tree(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.25:
        choice = rng.random()
        if choice < 0.5:
            return E.sym("x")
        if choice < 0.8:
            return E.num(rng.randint(-3, 3))
        return E.num(round(rng.uniform(-2.5, 2.5), 2))
    kind = rng.choice(["add", "mul", "neg", "pow", "div", "fn"])
    if kind == "add":
        return E.add(_tree(rng, depth - 1), _tree(rng, depth - 1))
    if kind == "mul":
        return E.mul(_tree(rng, depth - 1), _tree(rng, depth - 1))
    if kind == "neg":
        return E.neg(_tree(rng, depth - 1))
    if kind == "div":
        return E.div(_tree(rng, depth - 1), _tree(rng, depth - 1))
    if kind == "pow":
        return E.pow_(_tree(rng, depth - 1), rng.randint(-3, 3))
    return E.fn(rng.choice(_FUNCS), _tree(rng, depth - 1))


def _corpus(n=200, seed=20250823):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        try:
            out.append(E.simplify(_tree(rng, rng.randint(2, 6))))
        except E.DomainError:
            continue
    return out


CORPUS = _corpus()
POINTS = [random.Random(1).uniform(-2.0, 2.0) for _ in range(20)]


class TestDerivativeVsFiniteDifference:
    def test_corpus(self):
        checked = 0
        for e in CORPUS:
            try:
                d = E.differentiate(e)
            except E.DomainError:
                continue
            for x in POINTS:
                h = 1e-6
                try:
                    fp = E.evaluate(e, {"x": x + h})
                    fm = E.evaluate(e, {"x": x - h})
                    dv = E.evaluate(d, {"x": x})
                except (E.DomainError, OverflowError):
                    continue
                if max(abs(fp), abs(fm), abs(dv)) > 1e6:
                    continue  # FD step underresolves steep regions
                fd = (fp - fm) / (2 * h)
                assert abs(dv - fd) <= 1e-5 * (1.0 + abs(dv) + abs(fd) / h * 1e-6)
                checked += 1
        assert checked >= 1000  # plenty of informative samples


def _fresh(e):
    """An equal tree of new nodes, so no node carries simplify's memo."""
    return E.Expr(e.kind, [_fresh(a) for a in e.args], e.value)


class TestSimplifyIdempotence:
    def test_corpus(self):
        # simplify runs again on the copy; the text keeps 1 and 1.0 apart
        for e in CORPUS:
            assert E.to_sexpr(E.simplify(_fresh(e))) == E.to_sexpr(e)


class TestPrintParseFixpoint:
    def test_corpus(self):
        structural = 0
        for e in CORPUS:
            text = E.to_text(e)
            try:
                e2 = E.simplify(P(text))
            except Exception as exc:  # any parse failure is a real bug
                pytest.fail("could not re-parse %r: %s" % (text, exc))
            if e2 == e:
                structural += 1
                continue
            # equal as functions even when association differs structurally
            for x in POINTS:
                try:
                    v1 = E.evaluate(e, {"x": x})
                    v2 = E.evaluate(e2, {"x": x})
                except (E.DomainError, OverflowError):
                    continue
                assert abs(v1 - v2) <= 1e-9 * (1.0 + abs(v1))
        assert structural >= 150  # round trip is structural for most trees


class TestGaugeInvarianceOfK:
    """u -> theta(x) u changes (b, c) but must not change K."""

    BASES = [("1", "tanh(x/2)", "0"), ("(1 + x^2)^2", "0", "0"),
             ("1", "x", "-(x^2)")]

    def test_twenty_random_gauges(self):
        rng = random.Random(20250823)
        xs = [rng.uniform(-1.5, 1.5) for _ in range(9)]
        for trial in range(20):
            a_s, b_s, c_s = self.BASES[trial % len(self.BASES)]
            a, b, c = P(a_s), P(b_s), P(c_s)
            # theta = exp(p(x)) with a random small polynomial p
            p = P("%r + %r*x + %r*x^2"
                  % (rng.uniform(-1, 1), rng.uniform(-0.5, 0.5),
                     rng.uniform(-0.3, 0.3)))
            pd = E.differentiate(p)
            pdd = E.differentiate(pd)
            # substituting u = theta u~:  b~ = b + 2 a p', and
            # c~ = c + a (p'' + p'^2) + b p'
            b2 = E.simplify(E.add(b, E.mul(E.num(2), a, pd)))
            c2 = E.simplify(E.add(c, E.mul(a, E.add(pdd, E.pow_(pd, 2))),
                                  E.mul(b, pd)))
            K1 = compute_invariants(ParabolicEquation(a, b, c)).K
            K2 = compute_invariants(ParabolicEquation(a, b2, c2)).K
            for x in xs:
                v1 = E.evaluate(K1, {"x": x})
                v2 = E.evaluate(K2, {"x": x})
                assert abs(v1 - v2) <= 1e-6 * (1.0 + abs(v1))


class TestShiftInvariance:
    @given(st.floats(min_value=-5.0, max_value=5.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_dim6_verdict_stable(self, s):
        inv = compute_invariants(
            ParabolicEquation(P("1"), P("tanh(x/2)"), P("0")))
        cls = classify(inv, i_offset=s)
        assert cls.dim == 6
        assert cls.constants["c0"] == pytest.approx(-0.25, abs=1e-7)

    @given(st.floats(min_value=-1e3, max_value=1e3,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_dim4_verdict_stable(self, s):
        inv = compute_invariants(
            ParabolicEquation(P("1"), P("5/x"), P("0"),
                              domain=(0.0, math.inf)))
        cls = classify(inv, i_offset=s)
        assert cls.dim == 4
        assert cls.constants["mu"] == pytest.approx(-3.75, abs=1e-7)
