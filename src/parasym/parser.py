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
``#`` starts a comment running to end of line.  ``inf`` is a number: an
integer literal is exact, any other literal is a float.  An expression
nests at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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

@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


# One named group per token kind, tried in this order.  \d and \w are the
# Unicode classes: a letter such as σ starts a name, and a digit that is not
# decimal, such as ², is no number.
_TOKEN = re.compile(r"""
    (?P<skip>   [ \t\r]+ | \#[^\n]* )
  | (?P<num>    (?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)? | inf(?!\w) )
  | (?P<ident>  [^\W\d]\w* )
  | (?P<op>     [-+*/^] )
  | (?P<lparen> \( )
  | (?P<rparen> \) )
  | (?P<comma>  , )
  | (?P<eq>     = )
  | (?P<sep>    [;\n] )
  | (?P<bad>    . )
""", re.VERBOSE | re.DOTALL)


def tokenize(source):
    toks = []
    line, start = 1, 0                    # start: offset of the line
    for m in _TOKEN.finditer(source):
        kind, text, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "bad":
            raise SyntaxError("unexpected character %r" % text, line, col)
        if kind == "num" and text.count(".") > 1:
            raise SyntaxError("malformed number %r" % text, line, col)
        if kind != "skip":
            toks.append(Token(kind, text, line, col))
        if text == "\n":
            line, start = line + 1, m.end()
    toks.append(Token("eof", "", line, len(source) - start + 1))
    return toks


# ---------------------------------------------------------------------------
# Pratt expression parser

_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_MINUS_RBP = 35  # tighter than ^: -x^2 == (-x)^2, looser than call

# Deepest nesting of parentheses, calls, unary signs and powers: every
# later stage (simplify, differentiate, printing) recurses per level.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, declared=None):
        self.toks = tokens
        self.i = 0
        self.depth = 0
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
        self.depth += 1
        if self.depth > MAX_NESTING:
            t = self.peek()
            raise SyntaxError("expression nested deeper than %d levels"
                              % MAX_NESTING, t.line, t.col)
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
        self.depth -= 1
        return left

    def nud(self):
        t = self.next()
        if t.kind == "num":
            if t.text.isdecimal():
                try:
                    return E.num(int(t.text))
                except ValueError:        # past int's digit limit
                    raise SyntaxError("integer literal too long",
                                      t.line, t.col) from None
            return E.num(float(t.text))
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


def parse_expression(source, declared=None):
    """Parse a single expression.  `declared=None` accepts any identifier;
    otherwise identifiers must be in `declared` (pi always allowed)."""
    toks = [t for t in tokenize(source) if t.kind != "sep"]
    p = _Parser(toks, None if declared is None else {*declared, "pi"})
    e = p.expression(0)
    t = p.peek()
    if t.kind != "eof":
        raise SyntaxError("trailing input %r" % t.text, t.line, t.col)
    return E.simplify(e)


# ---------------------------------------------------------------------------
# equation-file parser

def parse(source):
    """Parse an equation program into a ParsedProgram.

    Statements: ``var NAME``; ``const NAME = numeric-expr``; ``a = expr``,
    ``b = expr`` and ``c = expr``, each at most once; ``domain = (lo, hi)``.
    Separated by newlines or ``;``.
    """
    p = _Parser(tokenize(source), {"pi"})
    variables = []
    constants = {}
    assignments = {}
    domain = None

    while True:
        p.skip_seps()
        t = p.peek()
        if t.kind == "eof":
            break
        if t.kind != "ident":
            raise SyntaxError("expected a statement, got %r" % t.text, t.line, t.col)
        if t.text in ("var", "const"):
            p.next()
            name = p.expect("ident")
            if name.text in p.declared or name.text in FORBIDDEN_NAMES:
                raise SyntaxError("name %r already in use" % name.text,
                                  name.line, name.col)
            if t.text == "var":
                variables.append(name.text)
            else:
                p.expect("eq")
                e = _statement_expr(p)
                try:
                    constants[name.text] = _constant(e, constants)
                except E.ExprError as exc:
                    raise SyntaxError("const %s is not a constant: %s"
                                      % (name.text, exc),
                                      name.line, name.col) from exc
            p.declared.add(name.text)
        elif t.text == "domain":
            p.next()
            p.expect("eq")
            p.expect("lparen")
            lo = _bound(p, constants)
            p.expect("comma")
            hi = _bound(p, constants)
            p.expect("rparen")
            if not lo < hi:
                raise SyntaxError("empty domain (%g, %g)" % (lo, hi), t.line, t.col)
            domain = (lo, hi)
        else:
            name = p.next()
            if name.text not in COEFFICIENTS:
                raise SyntaxError("%r cannot be assigned: only a, b and c "
                                  "can" % name.text, name.line, name.col)
            if name.text in assignments:
                raise SyntaxError("%s is assigned twice" % name.text,
                                  name.line, name.col)
            p.expect("eq")
            assignments[name.text] = _statement_expr(p)
        # statement must end at a separator or eof
        t = p.peek()
        if t.kind not in ("sep", "eof"):
            raise SyntaxError("trailing input %r" % t.text, t.line, t.col)

    return ParsedProgram(variables, constants, assignments, domain)


FORBIDDEN_NAMES = set(E.FUNCTIONS) | {"var", "const", "domain"}
COEFFICIENTS = ("a", "b", "c")      # the only names a statement assigns


def _statement_expr(p):
    e = p.expression(0)
    if p.peek().kind not in ("sep", "eof", "comma", "rparen"):
        t = p.peek()
        raise SyntaxError("trailing input %r" % t.text, t.line, t.col)
    return E.simplify(e)


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


def _bound(p, constants):
    """A domain end: a float number, +-inf included, is read as it is."""
    e = E.simplify(p.expression(0))
    if e.kind == "num" and isinstance(e.value, float):
        return e.value
    return _constant(e, constants)


# ---------------------------------------------------------------------------

def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
