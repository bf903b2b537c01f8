"""Pratt parser for the small expression grammar and for equation files.

Equation files are newline- or semicolon-separated statements:

    var x
    const k = 1.0
    a = (1 + k^2*x^2)^2
    b = 0
    c = 0
    domain = (-inf, inf)

Operators ``+ - * / ^`` with ``^`` right-associative; unary minus binds
tighter than a ``^`` base but looser than a function call, so ``-x^2``
is ``(-x)^2`` and ``-f(x)`` is ``-(f(x))``.
``#`` starts a comment running to end of line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import expr as E
from .expr import ParasymError


class SyntaxError(ParasymError):  # noqa: A001 - contract name; carries position
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, col %d)" % (message, line, col))
        self.line = line
        self.col = col


class UndeclaredIdentifier(ParasymError):
    def __init__(self, name, line, col):
        super().__init__("undeclared identifier %r (line %d, col %d)"
                         % (name, line, col))


@dataclass
class ParsedProgram:
    variables: list
    constants: dict            # name -> float
    assignments: dict          # name -> Expr
    domain: tuple | None       # (lo, hi) as floats, may be +-inf


# ---------------------------------------------------------------------------
# tokenizer

_SINGLE = {"+": "op", "-": "op", "*": "op", "/": "op", "^": "op",
           "(": "lparen", ")": "rparen", ",": "comma", ";": "sep",
           "=": "eq", "\n": "sep"}


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(source):
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
            isfloat = False
            while j < n and (source[j].isdigit() or source[j] == "."):
                if source[j] == ".":
                    isfloat = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    isfloat = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            if text.count(".") > 1:
                raise SyntaxError("malformed number %r" % text, line, col)
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
        raise SyntaxError("unexpected character %r" % ch, line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Pratt expression parser

_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_MINUS_RBP = 35  # tighter than ^: -x^2 == (-x)^2, looser than call


class _Parser:
    def __init__(self, tokens, declared=None):
        self.toks = tokens
        self.i = 0
        self.declared = declared  # None = accept any identifier

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise SyntaxError("expected %s, got %r" % (kind, t.text or "end of input"),
                              t.line, t.col)
        return t

    def skip_seps(self):
        while self.peek().kind == "sep":
            self.next()

    # expression grammar -----------------------------------------------
    def expression(self, min_bp=0):
        left = self.nud()
        while True:
            t = self.peek()
            if t.kind != "op":
                break
            bp = _LBP[t.text]
            if bp < min_bp:
                break
            self.next()
            if t.text == "^":
                right = self.expression(bp)  # right-assoc
            else:
                right = self.expression(bp + 1)
            left = {"+": E.add, "-": lambda a, b: E.add(a, E.neg(b)),
                    "*": E.mul, "/": E.div, "^": E.pow_}[t.text](left, right)
        return left

    def nud(self):
        t = self.next()
        if t.kind == "num":
            if "." in t.text or "e" in t.text or "E" in t.text:
                return E.num(float(t.text))
            return E.num(Fraction(int(t.text)))
        if t.kind == "op" and t.text == "-":
            return E.neg(self.expression(_UNARY_MINUS_RBP))
        if t.kind == "op" and t.text == "+":
            return self.expression(_UNARY_MINUS_RBP)
        if t.kind == "lparen":
            e = self.expression(0)
            self.expect("rparen")
            return e
        if t.kind == "ident":
            if self.peek().kind == "lparen":
                if t.text not in E.FUNCTIONS:
                    raise SyntaxError("unknown function %r" % t.text, t.line, t.col)
                self.next()
                arg = self.expression(0)
                self.expect("rparen")
                return E.fn(t.text, arg)
            if self.declared is not None and t.text not in self.declared:
                raise UndeclaredIdentifier(t.text, t.line, t.col)
            return E.sym(t.text)
        raise SyntaxError("unexpected token %r" % (t.text or "end of input"),
                          t.line, t.col)


_BUILTIN_NAMES = {"pi", "inf"}


def parse_expression(source, declared=None):
    """Parse a single expression.  `declared=None` accepts any identifier;
    otherwise identifiers must be in `declared` (builtins always allowed)."""
    toks = [t for t in tokenize(source) if t.kind != "sep"]
    allowed = None if declared is None else set(declared) | _BUILTIN_NAMES
    p = _Parser(toks, allowed)
    e = p.expression(0)
    t = p.peek()
    if t.kind != "eof":
        raise SyntaxError("trailing input %r" % t.text, t.line, t.col)
    return E.simplify(e)


# ---------------------------------------------------------------------------
# equation-file parser

def parse(source):
    """Parse an equation program into a ParsedProgram.

    Statements: ``var NAME``; ``const NAME = numeric-expr``;
    ``NAME = expr``; ``domain = (lo, hi)``.  Separated by newlines or ``;``.
    """
    toks = tokenize(source)
    p = _Parser(toks)
    variables = []
    constants = {}
    assignments = {}
    domain = None
    declared = set(_BUILTIN_NAMES)

    while True:
        p.skip_seps()
        t = p.peek()
        if t.kind == "eof":
            break
        if t.kind != "ident":
            raise SyntaxError("expected a statement, got %r" % t.text, t.line, t.col)
        if t.text == "var":
            p.next()
            name = p.expect("ident")
            if name.text in declared or name.text in FORBIDDEN_NAMES:
                raise SyntaxError("name %r already in use" % name.text,
                                  name.line, name.col)
            variables.append(name.text)
            declared.add(name.text)
        elif t.text == "const":
            p.next()
            name = p.expect("ident")
            if name.text in declared or name.text in FORBIDDEN_NAMES:
                raise SyntaxError("name %r already in use" % name.text,
                                  name.line, name.col)
            p.expect("eq")
            e = _statement_expr(p, declared)
            try:
                constants[name.text] = _constant(e, constants)
            except E.ExprError as exc:
                raise SyntaxError("const %s is not a constant: %s" % (name.text, exc),
                                  name.line, name.col) from exc
            declared.add(name.text)
        elif t.text == "domain":
            p.next()
            p.expect("eq")
            p.expect("lparen")
            lo = _bound(p, declared, constants)
            p.expect("comma")
            hi = _bound(p, declared, constants)
            p.expect("rparen")
            if not lo < hi:
                raise SyntaxError("empty domain (%g, %g)" % (lo, hi), t.line, t.col)
            domain = (lo, hi)
        else:
            name = p.next()
            if name.text in FORBIDDEN_NAMES:
                raise SyntaxError("%r cannot be assigned" % name.text,
                                  name.line, name.col)
            p.expect("eq")
            assignments[name.text] = _statement_expr(p, declared)
        # statement must end at a separator or eof
        t = p.peek()
        if t.kind not in ("sep", "eof"):
            raise SyntaxError("trailing input %r" % t.text, t.line, t.col)

    return ParsedProgram(variables, constants, assignments, domain)


FORBIDDEN_NAMES = set(E.FUNCTIONS) | {"var", "const", "domain"}


def _statement_expr(p, declared):
    e = _checked_expression(p, declared)
    if p.peek().kind not in ("sep", "eof", "comma", "rparen"):
        t = p.peek()
        raise SyntaxError("trailing input %r" % t.text, t.line, t.col)
    return E.simplify(e)


def _checked_expression(p, declared):
    p2 = _Parser(p.toks, declared)
    p2.i = p.i
    e = p2.expression(0)
    p.i = p2.i
    return e


def _constant(e, env):
    """Value of a constant expression.  A number node is read directly
    rather than compiled for a single evaluation; anything else, and a
    number with no finite float value, goes through E.evaluate."""
    if e.kind == "num":
        try:
            v = float(e.value)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
    return E.evaluate(e, env)


def _bound(p, declared, constants):
    e = E.simplify(_checked_expression(p, declared))
    env = dict(constants)
    env["inf"] = math.inf
    return _eval_allow_inf(e, env)


def _eval_allow_inf(e, env):
    """+-inf is a legal bound, but evaluate rejects non-finite results."""
    if e.kind == "sym" and e.value == "inf":
        return math.inf
    if e.kind == "mul" and len(e.args) == 2 and E.is_num(e.args[0], -1):
        return -_eval_allow_inf(e.args[1], env)
    if e.kind == "neg":
        return -_eval_allow_inf(e.args[0], env)
    return _constant(e, env)


# ---------------------------------------------------------------------------

def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
