"""Expression-tree construction, simplification, differentiation,
evaluation, zero-testing and polynomial matching."""

import gc
import glob
import math
import os
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parasym import expr as E
from parasym import special
from parasym.invariants import ParabolicEquation, compute_invariants
from parasym.parser import parse_expression as P, parse_file

EQDIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "equations")


def ev(e, **env):
    return E.evaluate(e, env)


class TestConstruction:
    def test_numbers_are_exact_rationals(self):
        e = P("1/3 + 1/6")
        assert E.is_num(e)
        assert e.value == Fraction(1, 2)

    def test_float_literals_stay_float(self):
        e = P("0.5")
        assert isinstance(e.value, float)

    def test_known_functions_only(self):
        for name in E.FUNCTIONS:
            E.fn(name, E.sym("x"))
        with pytest.raises(Exception):
            E.fn("nosuchfn", E.sym("x"))


class TestSimplify:
    def test_collects_like_terms(self):
        assert E.is_num(E.simplify(P("x + x - 2*x")), 0)

    def test_power_collapse(self):
        e = E.simplify(P("x^2 * x^3"))
        assert E.to_text(e) == "x^5"

    def test_idempotent_on_examples(self):
        # a new copy of the result carries no memo, so the simplifier runs
        # again; the text keeps 1 and 1.0 apart where == would not
        for src in ["(1 + x)^2/(1 + x)", "exp(x)*exp(-x)", "sin(x)^2*0",
                    "x/x", "sqrt(x^2 + 2*x + 1)"]:
            e = E.simplify(P(src))
            assert E.to_sexpr(E.simplify(_rebuilt(e))) == E.to_sexpr(e)

    def test_structural_equality_after_roundtrip(self):
        e = E.simplify(P("(1 + k^2*x^2)^2"))
        assert E.simplify(P(E.to_text(e))) == e


def _unmemoized(e):
    """`simplify` without the per-node memo, the reference for it."""
    return e if e.kind in ("num", "sym") else E._simplify(e)


def _derived(e):
    """to_sexpr of e's simplified form and first two derivatives."""
    out = []
    for f in (E.simplify, E.differentiate,
              lambda t: E.differentiate(t, order=2)):
        try:
            out.append(E.to_sexpr(f(e)))
        except E.ExprError as exc:
            out.append((type(exc), str(exc)))
    return out


class TestSimplifyMemo:
    def test_float_constant_keeps_its_text(self):
        E.simplify(E.num(1))
        assert E.to_text(E.simplify(E.num(1.0))) == "1.0"
        x = E.sym("x")
        exact = E.Expr("mul", (E.num(2), E.Expr("sin", (x,))))
        floating = E.Expr("mul", (E.num(2.0), E.Expr("sin", (x,))))
        assert exact == floating and hash(exact) == hash(floating)
        assert E.to_sexpr(E.simplify(exact)) == "(* 2 (sin x))"
        assert E.to_sexpr(E.simplify(floating)) == "(* 2.0 (sin x))"
        # equal and alike-hashing larger trees keep their own constants
        assert (E.to_sexpr(E.simplify(E.Expr("add", (x, exact))))
                == "(+ x (* 2 (sin x)))")
        assert (E.to_sexpr(E.simplify(E.Expr("add", (x, floating))))
                == "(+ x (* 2.0 (sin x)))")
        assert (E.to_sexpr(E.differentiate(E.add(x, floating)))
                == "(+ 1 (* 2.0 (cos x)))")

    def test_corpus_trees_match_unmemoized(self, monkeypatch):
        from test_properties import CORPUS
        memo = [_derived(e) for e in CORPUS]
        copies = [_rebuilt(e) for e in CORPUS]
        monkeypatch.setattr(E, "simplify", _unmemoized)
        assert [_derived(e) for e in copies] == memo

    def test_corpus_invariants_match_unmemoized(self, monkeypatch):
        def trees():
            out = []
            for path in sorted(glob.glob(os.path.join(EQDIR, "*.eq"))):
                eq = ParabolicEquation.from_program(parse_file(path))
                inv = compute_invariants(eq)
                out.append([E.to_sexpr(t) for t in
                            (inv.a, inv.b, inv.c, inv.J, inv.K)])
            return out

        memo = trees()
        assert len(memo) == 19
        monkeypatch.setattr(E, "simplify", _unmemoized)
        assert trees() == memo

    def test_simplified_nodes_are_not_cycles(self):
        def work():
            x, k = E.sym("x"), E.sym("k")
            e = E.add(E.div(E.pow_(E.fn("sin", E.mul(k, x)), 2),
                            E.add(1, E.pow_(x, 2))),
                      E.mul(E.exp_(E.neg(E.pow_(x, 2))), x, x))
            s = E.simplify(e)
            E.simplify(e)
            E.differentiate(s, order=2)

        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            work()
            found = gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        assert found == 0


class TestDifferentiate:
    def test_power_rule(self):
        assert E.to_text(E.differentiate(P("x^2"))) == "2*x"

    def test_arctan_chain(self):
        d = E.differentiate(P("arctan(k*x)"))
        for x in (0.3, 1.0, 2.1):
            want = 1.0 / (1 + (0.7 * x) ** 2) * 0.7
            assert ev(d, x=x, k=0.7) == pytest.approx(want, rel=1e-12)

    def test_sqrt_value_at_point(self):
        # d/dx (1 + k^2 x^2)^(1/2) at x = k = 1 is 1/sqrt(2)
        d = E.differentiate(P("sqrt(1 + k^2*x^2)"))
        assert ev(d, x=1.0, k=1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-8)

    def test_higher_order(self):
        d3 = E.differentiate(P("x^5"), order=3)
        assert ev(d3, x=2.0) == pytest.approx(60 * 4.0)

    def test_bessel_recurrence(self):
        z = P("x")
        e = E.besseli(E.num(1), z)
        d = E.differentiate(e)
        h = 1e-6
        for x in (0.5, 2.0, 5.0):
            fd = (E.evaluate(e, {"x": x + h}) - E.evaluate(e, {"x": x - h})) / (2 * h)
            assert E.evaluate(d, {"x": x}) == pytest.approx(fd, rel=1e-8)

    @pytest.mark.parametrize("nu", [0.5, 1.3, 2])
    def test_bessel_of_a_symbolic_order(self, nu):
        # (I_{nu-1}(z) + I_{nu+1}(z))/2 * z' with nu +- 1 computed at
        # evaluation equals the derivative of the numeric order, and the
        # numeric order still gives the recurrence's tree
        z = P("x^2/3 + x")
        numeric = E.differentiate(E.besseli(E.num(nu), z))
        symbolic = E.differentiate(E.besseli(E.sym("nu"), z))
        assert numeric == E.simplify(E.mul(E.HALF, E.add(
            E.besseli(E.num(nu - 1), z), E.besseli(E.num(nu + 1), z)),
            E.differentiate(z)))
        for x in (0.05, 0.4, 1.7, 3.1, 6.0):
            want = E.evaluate(numeric, {"x": x})
            got = E.evaluate(symbolic, {"x": x, "nu": nu})
            assert abs(got - want) <= 1e-14 * abs(want), x

    def test_bessel_order_in_the_variable_is_refused(self):
        with pytest.raises(E.ExprError, match="must not depend on x"):
            E.differentiate(E.besseli(P("x + 1"), P("x")))


class TestEvaluate:
    def test_square(self):
        assert ev(P("x^2"), x=3.0) == 9.0

    def test_division_by_zero_is_domain_error(self):
        with pytest.raises(E.DomainError):
            ev(P("1/x"), x=0.0)

    def test_log_of_nonpositive_is_domain_error(self):
        with pytest.raises(E.DomainError):
            ev(P("log(x)"), x=-1.0)

    def test_gaussian_value(self):
        assert ev(P("exp(-(x^2/4))"), x=2.0) == pytest.approx(math.exp(-1.0))

    def test_unbound_symbol_rejected(self):
        with pytest.raises(E.ExprError):
            ev(P("x + y"), x=1.0)


class TestSerialization:
    def test_sexpr_shape(self):
        s = E.to_sexpr(E.simplify(P("(1 + k^2*x^2)^2")))
        assert s.startswith("(^ (+ 1")

    def test_text_parses_back(self):
        e = E.simplify(P("exp(-(x^2/(4*t)))/sqrt(4*pi*t)"))
        e2 = E.simplify(P(E.to_text(e)))
        for x, t in [(0.3, 0.2), (1.5, 0.9)]:
            assert E.evaluate(e, {"x": x, "t": t}) == pytest.approx(
                E.evaluate(e2, {"x": x, "t": t}), rel=1e-14)


# ---------------------------------------------------------------------------
# the compiled evaluator against a reference tree walker

_MATH = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "arctan": math.atan,
}


def _walk(e, env):
    """Reference: direct recursive evaluation of one node."""
    k = e.kind
    if k == "num":
        return float(e.value)
    if k == "sym":
        try:
            return float(env[e.value])
        except KeyError:
            raise E.UnboundIdentifier(e.value) from None
    if k == "add":
        return math.fsum([_walk(a, env) for a in e.args])
    if k == "mul":
        r = 1.0
        for a in e.args:
            r *= _walk(a, env)
        return r
    if k == "pow":
        b = _walk(e.args[0], env)
        ex = _walk(e.args[1], env)
        if b == 0.0 and ex < 0:
            raise E.DomainError("0^negative")
        if b < 0:
            if ex != round(ex):
                raise E.DomainError("negative base with fractional exponent")
            return b ** int(round(ex))
        return b ** ex
    if k == "neg":
        return -_walk(e.args[0], env)
    if k == "div":
        n, d = _walk(e.args[0], env), _walk(e.args[1], env)
        if d == 0.0:
            raise E.DomainError("division by zero")
        return n / d
    if k == "log":
        u = _walk(e.args[0], env)
        if u <= 0.0:
            raise E.DomainError("log of non-positive")
        return math.log(u)
    if k == "sqrt":
        u = _walk(e.args[0], env)
        if u < 0.0:
            raise E.DomainError("sqrt of negative")
        return math.sqrt(u)
    if k == "abs":
        return abs(_walk(e.args[0], env))
    if k == "arctanh":
        u = _walk(e.args[0], env)
        if abs(u) >= 1.0:
            raise E.DomainError("arctanh outside (-1,1)")
        return math.atanh(u)
    if k == "besseli":
        return special.iv(_walk(e.args[0], env), _walk(e.args[1], env))
    if k in _MATH:
        return _MATH[k](_walk(e.args[0], env))
    raise E.ExprError("cannot evaluate node kind %r" % k)


def _reference(e, bindings):
    env = dict(E.DEFAULT_BINDINGS, **bindings)
    try:
        v = _walk(e, env)
    except (OverflowError, ValueError) as exc:
        raise E.DomainError(*exc.args[-1:]) from exc
    if not math.isfinite(v):
        raise E.DomainError("non-finite result")
    return v


def _outcome(f, *args):
    try:
        v = f(*args)
    except Exception as exc:  # compared by type and message
        return ("raises", type(exc), str(exc))
    return ("value", type(v), v, math.copysign(1.0, v))


def _point_major(trees, envs):
    """The reference walker over each env in turn, every tree at each: the
    outcome of the first fault, or each value's outcome."""
    rows = []
    for env in envs:
        row = [_outcome(_reference, e, env) for e in trees]
        faults = [o for o in row if o[0] == "raises"]
        if faults:
            return faults[0]
        rows.append(row)
    return rows


def _many_outcome(trees, envs):
    try:
        rows = E.evaluate_many(trees, envs)
    except Exception as exc:  # compared by type and message
        return ("raises", type(exc), str(exc))
    return [[_outcome(lambda: v) for v in row] for row in rows]


_leaves = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6).map(E.num),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 1e308, -3.0]).map(E.num),
    st.sampled_from(["x", "y", "z", "pi"]).map(E.sym),
)


def _nodes(children):
    unary = st.sampled_from(("neg",) + E.FUNCTIONS)
    return st.one_of(
        st.lists(children, max_size=4).map(lambda a: E.Expr("add", a)),
        st.lists(children, max_size=4).map(lambda a: E.Expr("mul", a)),
        st.tuples(children, children).map(lambda a: E.Expr("pow", a)),
        st.tuples(children, children).map(lambda a: E.Expr("div", a)),
        st.tuples(unary, children).map(lambda a: E.Expr(a[0], (a[1],))),
        st.tuples(st.integers(0, 2), children).map(
            lambda a: E.besseli(E.num(a[0]), E.Expr("abs", (a[1],)))),
        # one object, or an equal copy, in two places: computed once
        children.map(lambda a: E.Expr("div", (a, a))),
        children.map(lambda a: E.Expr("mul", (a, E.Expr("add", (a, a))))),
        children.map(lambda a: E.Expr("div", (_rebuilt(a), a))),
        children.map(lambda a: E.Expr("add", (a, E.neg(_rebuilt(a))))),
        # different operations on equal operands stay apart
        st.tuples(unary, unary, children).map(lambda u: E.Expr("add", (
            E.Expr(u[0], (u[2],)), E.Expr(u[1], (_rebuilt(u[2]),))))),
        st.tuples(children, children).map(lambda p: E.Expr("add", [
            E.Expr(k, p) for k in ("mul", "add", "pow", "div")])),
    )


def _rebuilt(e):
    """An equal tree made of new nodes."""
    return E.Expr(e.kind, [_rebuilt(a) for a in e.args], e.value)


_trees = st.recursive(_leaves, _nodes, max_leaves=24)

# Both children of a binary node fault, with different messages: the left
# child is computed first, so its message is the one raised.
_FAULTS = ((E.log_("x"), "log of non-positive"),
           (E.sqrt_("y"), "sqrt of negative"))
_TWO_FAULTS = [
    pytest.param(E.Expr(k, (left, right)), {"x": -1.0, "y": -1.0},
                 E.DomainError, message, id="%s-%s-first" % (k, message))
    for k in ("add", "mul", "div", "pow")
    for (left, message), (right, _) in (_FAULTS, _FAULTS[::-1])]
_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 700.0]),
                    st.floats(-50.0, 50.0))


def _kinds(e):
    yield e.kind
    for a in e.args:
        yield from _kinds(a)


class TestSimplifiedKinds:
    @given(_trees)
    @settings(max_examples=250, deadline=None)
    def test_no_neg_div_or_sqrt_node(self, e):
        # differentiate simplifies first, so expr._d never meets these kinds
        assert not {"neg", "div", "sqrt"} & set(_kinds(E.simplify(e)))


class TestCompiledEvaluator:
    @given(_trees, _values, _values, st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_matches_reference_walker(self, e, x, y, bind_z):
        env = {"x": x, "y": y}
        if bind_z:
            env["z"] = -2.5
        want = _outcome(_reference, e, env)
        assert _outcome(E.evaluate, e, env) == want
        # the second call runs the stored function
        assert _outcome(E.evaluate, e, env) == want

    @pytest.mark.parametrize("e, env, kind, message", [
        # the numerator is computed before the denominator is checked
        (E.div(E.log_("x"), "y"), {"x": -1.0, "y": 0.0}, E.DomainError,
         "log of non-positive"),
        (E.div(E.log_("x"), "y"), {"x": -1.0, "y": 1.0}, E.DomainError,
         "log of non-positive"),
        (E.add(E.sqrt_("x"), "w"), {"x": -1.0}, E.DomainError,
         "sqrt of negative"),
        # a sum computes all its terms before it adds them
        (E.add("x", "x", E.log_("y")), {"x": 1e308, "y": -1.0},
         E.DomainError, "log of non-positive"),
        (E.add("x", "x", E.log_("y")), {"x": 1.0, "y": -1.0},
         E.DomainError, "log of non-positive"),
        (E.add("w", E.sqrt_("x")), {"x": -1.0}, E.UnboundIdentifier, "w"),
        (E.exp_("x"), {"x": 1000.0}, E.DomainError, "math range error"),
        (E.pow_("x", "y"), {"x": -2.0, "y": 0.5}, E.DomainError,
         "negative base with fractional exponent"),
        (E.pow_("x", -0.5), {"x": 0.0}, E.DomainError, "0^negative"),
        (E.pow_("x", E.num(Fraction(10) ** 400)), {"x": 2.0}, E.DomainError,
         "integer division result too large for a float"),
        (E.div(E.log_("x"), "y"), {"x": 1.0, "y": 0.0}, E.DomainError,
         "division by zero"),
        (E.add("x", "x", E.log_("y")), {"x": 1e308, "y": 1.0},
         E.DomainError, "intermediate overflow in fsum"),
        # a ValueError, and an OverflowError of ** without its errno
        (E.add(E.mul("x", 1e308), E.mul("x", -1e308)), {"x": 2.0},
         E.DomainError, "-inf + inf in fsum"),
        (E.fn("sin", E.mul(1e308, "x")), {"x": 4.0}, E.DomainError,
         "math domain error"),
        (E.pow_("x", "y"), {"x": 10.0, "y": 400.0}, E.DomainError,
         "Numerical result out of range"),
    ] + _TWO_FAULTS)
    def test_first_error_in_evaluation_order(self, e, env, kind, message):
        with pytest.raises(kind) as exc:
            E.evaluate(e, env)
        assert str(exc.value) == message
        assert _outcome(E.evaluate, e, env) == _outcome(_reference, e, env)

    @given(st.lists(_trees, min_size=1, max_size=4),
           st.lists(st.tuples(_values, _values, st.booleans()), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_many_matches_reference_point_major(self, trees, points):
        envs = [dict({"x": x, "y": y}, **({"z": -2.5} if bind_z else {}))
                for x, y, bind_z in points]
        assert _many_outcome(trees, envs) == _point_major(trees, envs)
        assert E.evaluate_many(trees, []) == []

    @given(_trees, st.sampled_from(["x", "y", "z", "pi"]),
           st.lists(_values, min_size=1, max_size=6),
           st.one_of(st.none(), _values), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_function_of_matches_evaluate_call_after_call(self, e, name, vs,
                                                          y, bind_z):
        # one bound function at several values in a row: a raised error
        # leaves nothing behind for the next call
        bindings = dict({} if y is None else {"y": y},
                        **({"z": -2.5} if bind_z else {}))
        before = dict(bindings)
        f = E.function_of(e, name, bindings or None)
        for v in vs:
            assert (_outcome(f, v)
                    == _outcome(E.evaluate, e, {**bindings, name: v}))
        assert bindings == before

    def test_function_of_after_a_raised_error(self):
        f = E.function_of(E.div(E.log_("x"), "y"), "x", {"y": 2.0})
        for x in (4.0, -1.0, 4.0, 0.0, 1e308, -0.0, 9.0):
            assert (_outcome(f, x)
                    == _outcome(E.evaluate, E.div(E.log_("x"), "y"),
                                {"y": 2.0, "x": x}))
        with pytest.raises(E.DomainError, match="log of non-positive"):
            f(-1.0)
        assert f(math.e) == 0.5
        with pytest.raises(E.UnboundIdentifier, match="y"):
            E.function_of(E.mul("x", "y"), "x")(1.0)

    @pytest.mark.parametrize("envs, message", [
        # the second tree faults at the first point before the first tree
        # does at the second
        ([{"x": 1.0, "y": -1.0}, {"x": -1.0, "y": 1.0}], "sqrt of negative"),
        ([{"x": -1.0, "y": 1.0}, {"x": 1.0, "y": -1.0}],
         "log of non-positive"),
        # the root's value is checked before the next tree runs
        ([{"x": 1e308, "y": -1.0}], "non-finite result"),
    ])
    def test_many_raises_at_the_first_point_and_tree(self, envs, message):
        trees = [E.mul(E.log_("x"), E.mul("x", 10.0)), E.sqrt_("y")]
        with pytest.raises(E.DomainError) as exc:
            E.evaluate_many(trees, envs)
        assert str(exc.value) == message
        assert _many_outcome(trees, envs) == _point_major(trees, envs)

    def test_pi_defaults_and_bindings_are_not_mutated(self):
        pi = E.sym("pi")
        assert E.evaluate(pi) == math.pi
        assert E.evaluate(pi, {"pi": 3.0}) == 3.0
        env = {"x": 2.0}
        assert E.evaluate(E.mul("x", pi), env) == 2.0 * math.pi
        envs = [{"x": 1.0}, {"x": 1.0, "pi": 0.5}]
        assert E.evaluate_many([pi, E.mul("x", pi)], envs) == [
            [math.pi, math.pi], [0.5, 0.5]]
        assert env == {"x": 2.0}
        assert envs == [{"x": 1.0}, {"x": 1.0, "pi": 0.5}]

    def test_tree_lists_equal_up_to_constants_share_one_code(self,
                                                            monkeypatch):
        monkeypatch.setattr(E, "_CODES", {})
        x = E.sym("x")
        for c in (2.0, 3.0):
            trees = [E.add(E.mul(x, c), 1.0), E.exp_(E.mul(x, c))]
            assert E.evaluate_many(trees, [{"x": 0.5}]) == [
                [c * 0.5 + 1.0, math.exp(c * 0.5)]]
        assert len(E._CODES) == 1

    def test_signed_zeros_are_different_constants(self):
        x = E.sym("x")
        e = E.mul(E.mul(x, E.num(-0.0)), E.mul(x, E.num(0.0)))
        v = E.evaluate(e, {"x": 1.0})
        assert v == 0.0 and math.copysign(1.0, v) == -1.0

    def test_trees_equal_up_to_constants_share_one_code_object(self):
        x = E.sym("x")
        e1 = E.add(E.mul(x, 2.0), 1.0)
        e2 = E.add(E.mul(x, 3.0), 5.0)
        assert E.evaluate(e1, {"x": 2.0}) == 5.0
        assert E.evaluate(e2, {"x": 2.0}) == 11.0
        assert e1._fn.__code__ is e2._fn.__code__

    @pytest.mark.parametrize("step", [1, -1], ids=["forward", "reversed"])
    @pytest.mark.parametrize("trees", [
        [E.pow_("x", 2), E.pow_("x", 3), E.pow_("x", 2.5), E.pow_("x", -1)],
        [E.div("x", 2.0), E.div("x", 0.0)],
        [E.mul("x", E.num(Fraction(10) ** 400)), E.mul("x", 2.0),
         E.pow_("x", E.num(Fraction(10) ** 400)), E.pow_("x", 2.0)],
        # signed zeros are different constants
        [E.mul(E.mul("x", -0.0), E.mul("x", 0.0)),
         E.mul(E.mul("x", 0.0), E.mul("x", -0.0)),
         E.mul("x", 0.0), E.mul("x", -0.0)],
    ], ids=["pow-guards", "div", "overflowing-constant", "signed-zeros"])
    def test_shared_code_never_changes_a_result(self, monkeypatch, trees,
                                                step):
        monkeypatch.setattr(E, "_CODES", {})
        for e in trees[::step]:
            e = _rebuilt(e)               # compiled afresh, in this order
            for x in (-2.0, 0.0, 1.0):
                assert (_outcome(E.evaluate, e, {"x": x})
                        == _outcome(_reference, e, {"x": x}))

    def test_deep_tree(self):
        e, want = E.sym("x"), 0.25
        for i in range(600):
            e = E.Expr("add", (E.Expr("mul", (E.num(Fraction(1, 2)), e)),
                               E.num(i % 3)))
            want = math.fsum((0.5 * want, float(i % 3)))
        assert E.evaluate(e, {"x": 0.25}) == want

    def test_compiled_functions_do_not_accumulate(self):
        def run(n, offset):
            for i in range(offset, offset + n):
                E.evaluate(E.neg(E.num(i)))

        gc_was_enabled = gc.isenabled()
        gc.disable()                      # garbage in cycles would stay
        try:
            run(500, 0)
            tracemalloc.start()
            try:
                run(5000, 500)
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        finally:
            if gc_was_enabled:
                gc.enable()
        assert retained < 64 * 1024

    def test_underflow_gives_zero(self):
        assert E.evaluate(E.exp_(E.neg(E.sym("x"))), {"x": 800.0}) == 0.0
