"""Tokenizer, expression grammar, and equation-file programs."""

import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parasym import cli
from parasym import expr as E
from parasym import parser
from parasym.expr import ParasymError
from parasym.parser import (MAX_NESTING, ParsedProgram, Token,
                            SyntaxError as EqSyntaxError,
                            UndeclaredIdentifier, parse, parse_expression)


def reference_tokenize(source):
    """The character loop the token table replaced, kept as the reference
    for ASCII input; it reads `inf` as a name."""
    _SINGLE = {"+": "op", "-": "op", "*": "op", "/": "op", "^": "op",
               "(": "lparen", ")": "rparen", ",": "comma", ";": "sep",
               "=": "eq", "\n": "sep"}
    toks = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if ch == "\n":
            toks.append(Token("sep", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _SINGLE:
            toks.append(Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            if text.count(".") > 1:
                raise EqSyntaxError("malformed number %r" % text, line, col)
            toks.append(Token("num", text, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(Token("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        raise EqSyntaxError("unexpected character %r" % ch, line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def _lexed(tokenize, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]
    except EqSyntaxError as exc:
        return str(exc)


class TestTokenTable:
    @settings(max_examples=600, deadline=None)
    @given(st.one_of(
        st.text(st.characters(max_codepoint=127), max_size=40),
        st.text("0123456789..eE+-*/^(),;=# \t\r\n_xinf$", max_size=40)))
    def test_matches_the_character_loop_on_ascii(self, source):
        want = _lexed(reference_tokenize, source)
        if not isinstance(want, str):     # inf is a number now
            want = [("num",) + t[1:] if t[:2] == ("ident", "inf") else t
                    for t in want]
        assert _lexed(parser.tokenize, source) == want

    def test_unicode_letters_name_and_decimal_digits_count(self):
        assert _lexed(parser.tokenize, "σ2 ٣\n x²") == [
            ("ident", "σ2", 1, 1), ("num", "٣", 1, 4), ("sep", "\n", 1, 5),
            ("ident", "x²", 2, 2), ("eof", "", 2, 4)]
        assert E.is_num(parse_expression("٣٣"), 33)

    @pytest.mark.parametrize("source, message", [
        ("a = 1 + 3²*x^2", "trailing input '²' (line 1, col 10)"),
        ("a = 1 + ²", "undeclared identifier '²' (line 1, col 9)"),
        ("a = 1 + 1" + "0" * 5000, "integer literal too long (line 1, col 9)"),
    ], ids=["digit-after-number", "digit-alone", "long-integer"])
    def test_non_decimal_and_overlong_numbers_are_refused(self, source,
                                                          message):
        with pytest.raises(ParasymError) as err:
            parse("var x\n" + source)
        assert str(err.value) == message.replace("line 1", "line 2")


class TestNesting:
    FORMS = {"paren": ("(", ")"), "call": ("sin(", ")"), "minus": ("-", ""),
             "power": ("x^", "")}

    @pytest.mark.parametrize("form", FORMS)
    def test_limit(self, form):
        left, right = self.FORMS[form]
        nested = lambda n: left * n + "x" + right * n
        parse_expression(nested(MAX_NESTING - 1))
        with pytest.raises(EqSyntaxError) as err:
            parse_expression(nested(1000))
        assert str(err.value) == (
            "expression nested deeper than %d levels (line 1, col %d)"
            % (MAX_NESTING, len(left) * MAX_NESTING + 1))

    @pytest.mark.parametrize("op", ["+", "-", "*", "/"])
    def test_long_chains_are_not_nesting(self, op):
        e = parse_expression("1 %s " % op + (" %s " % op).join(["x"] * 3000))
        want = {"+": "1 + 3000*x", "-": "1 - 3000*x", "*": "x^3000",
                "/": "1/(x^3000)"}[op]
        assert E.to_text(e) == want


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

    @pytest.mark.parametrize("source, message", [
        # a name the equation does not read would be dropped without a word
        ("var x; a = 1; b = 0; c = 0; d = x^2",
         "'d' cannot be assigned: only a, b and c can (line 1, col 29)"),
        ("var x\nx = 1", "'x' cannot be assigned: only a, b and c can "
                         "(line 2, col 1)"),
        ("exp = 3", "'exp' cannot be assigned: only a, b and c can "
                    "(line 1, col 1)"),
        ("var x\na = 1\nb = 0\nc = 0\nb = x",
         "b is assigned twice (line 5, col 1)"),
    ])
    def test_only_a_b_and_c_are_assigned_once(self, source, message):
        with pytest.raises(EqSyntaxError) as err:
            parse(source)
        assert str(err.value) == message

    def test_parse_file(self, tmp_path):
        f = tmp_path / "e.eq"
        f.write_text("var x\na = 1\nb = 0\nc = 0\n")
        prog = parser.parse_file(str(f))
        assert E.is_num(prog.assignments["a"], 1)


class TestInf:
    def test_inf_is_a_float_number(self):
        assert E.to_sexpr(parse_expression("-inf")) == "-inf"
        assert parse_expression("2*inf").value == math.inf
        assert parse_expression("3").value == Fraction(3)
        assert parse_expression("3.0").value == 3.0

    @pytest.mark.parametrize("domain, want", [
        ("(0, 2*inf)", (0.0, math.inf)), ("(-inf, 1e400)", (-math.inf, math.inf)),
    ])
    def test_infinite_bounds(self, domain, want):
        assert parse("domain = %s" % domain).domain == want

    @pytest.mark.parametrize("source, message", [
        ("var inf", "expected ident, got 'inf' (line 1, col 5)"),
        ("const k = inf", "const k is not a constant: non-finite result "
                          "(line 1, col 7)"),
        ("domain = (0, inf - inf)", "empty domain (0, nan) (line 1, col 1)"),
        ("inf = 1", "expected a statement, got 'inf' (line 1, col 1)"),
    ])
    def test_refusals(self, source, message):
        with pytest.raises(EqSyntaxError) as err:
            parse(source)
        assert str(err.value) == message


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


# ---------------------------------------------------------------------------
# the front door: any text ends in a program or one ParasymError, and
# `parasym analyze` in exit 0, 1 or 2 with at most one line on stderr

_FRAGMENTS = (list("0123456789.eE+-*/^(),;=# \n") + ["²", "٣", "σ"]
              + ["inf", "pi", "x", "k", "var x", "const k =", "domain =",
                 "a =", "b =", "c ="] + [f + "(" for f in E.FUNCTIONS])


def _nested(form, n):
    left, right = TestNesting.FORMS[form]
    return left * n + "x" + right * n


# every form at depths past the limit; calls deep in `a` take long to
# analyze, so only the cheap forms sit just under it
_DEEP = st.one_of(
    st.builds(_nested, st.sampled_from(sorted(TestNesting.FORMS)),
              st.sampled_from([5, 20, MAX_NESTING, 1000])),
    st.builds(_nested, st.sampled_from(["paren", "minus", "power"]),
              st.just(MAX_NESTING - 1)))
_TEXT = st.lists(st.one_of(st.sampled_from(_FRAGMENTS), _DEEP),
                 max_size=25).map("".join)
# well-formed expressions, so that analyses run past the parser; one leaf
# in four is deeply nested
_ATOM = st.sampled_from(["x", "1", "0.5", "٣", "inf", "pi", "1e400"])
_EXPR = st.recursive(
    st.one_of(_ATOM, _ATOM, _ATOM, _DEEP),
    lambda e: st.one_of(
        st.builds("({}) {} ({})".format, e, st.sampled_from("+-*/^"), e),
        st.builds("{}({})".format, st.sampled_from(E.FUNCTIONS), e)),
    max_leaves=6)


class TestFrontDoor:
    @settings(max_examples=300, deadline=None)
    @given(_TEXT)
    def test_parse_gives_a_program_or_a_parasym_error(self, source):
        try:
            assert isinstance(parse(source), ParsedProgram)
        except ParasymError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(_EXPR, _EXPR, _TEXT), min_size=3, max_size=3),
           st.sampled_from(["", "domain = (-1, 1)\n", "domain = (0, inf)\n"]))
    def test_analyze_ends_in_an_exit_code_and_one_line(self, coefs, domain):
        text = "var x\n%s" % domain + "".join(
            "%s = %s\n" % kv for kv in zip("abc", coefs))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "case.eq")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(["analyze", path])
        assert rc in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1
