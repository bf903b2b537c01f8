"""Tokenizer, expression grammar, and equation-file programs."""

import math

import pytest

from parasym import expr as E
from parasym import parser
from parasym.parser import (SyntaxError as EqSyntaxError,
                            UndeclaredIdentifier, parse, parse_expression)


class TestExpressionGrammar:
    def test_structure_of_quadratic(self):
        e = parse_expression("(1 + k^2*x^2)^2")
        assert e.kind == "pow"
        base, exponent = e.args
        assert base.kind == "add"
        assert E.is_num(exponent, 2)

    def test_power_right_associative(self):
        # x^2^3 == x^(2^3) == x^8
        e = parse_expression("x^2^3")
        assert E.evaluate(e, {"x": 2.0}) == 256.0

    def test_unary_minus_binds_tighter_than_power(self):
        # the documented grammar: -x^2 is (-x)^2
        assert E.evaluate(parse_expression("-x^2"), {"x": 2.0}) == 4.0
        assert E.evaluate(parse_expression("-(x^2)"), {"x": 2.0}) == -4.0

    def test_unary_minus_looser_than_call(self):
        assert E.evaluate(parse_expression("-exp(x)"), {"x": 0.0}) == -1.0

    def test_binary_minus_unaffected(self):
        assert E.evaluate(parse_expression("1 - x^2"), {"x": 2.0}) == -3.0

    def test_negative_exponent(self):
        assert E.evaluate(parse_expression("2^(-3)"), {}) == 0.125

    def test_implicit_simplification(self):
        assert E.to_text(parse_expression("x + 0")) == "x"

    def test_symbolic_exponent(self):
        e = parse_expression("sigma*x^(2*gamma)")
        assert E.evaluate(e, {"sigma": 2.0, "x": 3.0, "gamma": 1.0}) == 18.0

    def test_unknown_function_rejected(self):
        with pytest.raises(EqSyntaxError):
            parse_expression("sinc(x)")

    def test_undeclared_identifier_with_declared_set(self):
        with pytest.raises(UndeclaredIdentifier):
            parse_expression("x + y", declared={"x"})

    def test_error_carries_position(self):
        with pytest.raises(EqSyntaxError) as err:
            parse_expression("1 + $")
        assert err.value.line == 1
        assert err.value.col == 5

    def test_trailing_input_rejected(self):
        with pytest.raises(EqSyntaxError):
            parse_expression("1 + 2 3")


class TestPrintParseRoundTrip:
    @pytest.mark.parametrize("src", [
        "-x^2", "-(x^2)", "(-x)^3", "x^(3/2)", "1/(1 + x^2)",
        "exp(-(x^2/(4*t)))", "-3*x^2", "tanh(x/2)", "2 - x^2 - t",
    ])
    def test_value_preserved(self, src):
        e = E.simplify(parse_expression(src))
        e2 = E.simplify(parse_expression(E.to_text(e)))
        for x, t in [(0.7, 0.4), (1.9, 1.2)]:
            assert E.evaluate(e, {"x": x, "t": t}) == pytest.approx(
                E.evaluate(e2, {"x": x, "t": t}), rel=1e-13)


class TestPrograms:
    SRC = """
    # a comment
    var x
    const k = 1.0
    a = (1 + k^2*x^2)^2
    b = 0
    c = 0
    domain = (-inf, inf)
    """

    def test_full_program(self):
        prog = parse(self.SRC)
        assert prog.variables == ["x"]
        assert prog.constants == {"k": 1.0}
        assert set(prog.assignments) == {"a", "b", "c"}
        assert prog.domain == (-math.inf, math.inf)

    def test_semicolon_separated(self):
        prog = parse("var x; a = 1; b = 0; c = 0; domain = (0, 1)")
        assert prog.domain == (0.0, 1.0)

    def test_const_expression(self):
        prog = parse("const k = 2^3 + 1")
        assert prog.constants["k"] == 9.0

    def test_const_must_be_constant(self):
        with pytest.raises(EqSyntaxError):
            parse("var x; const k = x + 1")

    def test_duplicate_name_rejected(self):
        with pytest.raises(EqSyntaxError):
            parse("var x; const x = 1")

    def test_empty_domain_rejected(self):
        with pytest.raises(EqSyntaxError):
            parse("domain = (1, 1)")

    def test_reserved_names_not_assignable(self):
        with pytest.raises(EqSyntaxError):
            parse("exp = 3")

    def test_parse_file(self, tmp_path):
        f = tmp_path / "e.eq"
        f.write_text("var x\na = 1\nb = 0\nc = 0\n")
        prog = parser.parse_file(str(f))
        assert E.is_num(prog.assignments["a"], 1)


class TestConstantFolding:
    def test_number_constants_and_bounds_are_read_not_compiled(self,
                                                              monkeypatch):
        text = ("var x\nconst k = 3/7\nconst m = 0.1\na = 1\nb = k*x\n"
                "c = m\ndomain = %s\n")
        domains = {"(-2/3, 1e3)": (-2 / 3, 1e3),
                   "(-inf, inf)": (-math.inf, math.inf)}
        want = [parse(text % d) for d in domains]
        calls = []
        evaluate = E.evaluate
        monkeypatch.setattr(E, "evaluate",
                            lambda e, env=None: calls.append(e) or
                            evaluate(e, env))
        got = [parse(text % d) for d in domains]
        assert calls == []
        for g, w, domain in zip(got, want, domains.values()):
            assert g.constants == w.constants == {"k": 3 / 7, "m": 0.1}
            assert g.domain == w.domain == domain

    def test_derived_constants_and_infinite_bounds_still_evaluate(self):
        prog = parse("var x\nconst k = 2\nconst m = k*pi\na = 1\nb = 0\n"
                     "c = m\ndomain = (-inf, k)\n")
        assert prog.constants["m"] == 2 * math.pi
        assert prog.domain == (-math.inf, 2.0)
