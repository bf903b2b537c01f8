"""Immutable symbolic expression trees with the small closed grammar used
throughout the package: rational/float constants, named constants, one or more
variables, +, *, ^, and a fixed set of elementary functions.

Everything here is a pure function of immutable values; trees are safe to share
between threads.  `simplify` produces a canonical-ish normal form (sums and
products flattened, numeric parts folded, children sorted by a deterministic
key) and is idempotent.
"""

from __future__ import annotations

import builtins
import itertools
import math
import types
from fractions import Fraction
from typing import NamedTuple


class ParasymError(Exception):
    """Base class of every error parasym raises."""


class ExprError(ParasymError):
    pass


class DomainError(ExprError):
    """Evaluation left the real domain (log of non-positive, 0^negative, ...)."""


class UnboundIdentifier(ExprError):
    pass


class NonconvergentQuadrature(ParasymError):
    """A quadrature failed to reach its tolerance, or its window or nodes
    cannot be told apart in floats."""


class Check(NamedTuple):
    """One criterion: a number compared with its bound.  It is ok only
    when value <= bound, so a nan never passes."""
    name: str
    value: float
    bound: float
    ok = property(lambda self: self.value <= self.bound)


FUNCTIONS = (
    "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh",
    "arctan", "arctanh", "sqrt", "abs",
)

_KIND_RANK = {"num": 0, "sym": 1}


class Expr:
    """One node of an expression tree.

    kind: 'num' | 'sym' | 'add' | 'mul' | 'pow' | 'neg' | 'div' | one of
    FUNCTIONS | 'besseli' (internal, not parseable).
    """

    # `_simp` is the node's simplified form once `simplify` has run on it,
    # or _SIMPLIFIED on a node that `simplify` returned.  It is a slot, not a
    # dict keyed by Expr: num(1) and num(1.0) are equal and hash alike but
    # print as 1 and 1.0, so a dict would hand one the other's result.
    __slots__ = ("kind", "args", "value", "_hash", "_key", "_fn", "_simp")

    def __init__(self, kind, args=(), value=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_fn", None)
        object.__setattr__(self, "_simp", None)

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.kind, self.args, self.value))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return (self.kind == other.kind and self.value == other.value
                and self.args == other.args)

    def __repr__(self):
        return "Expr<%s>" % to_text(self)

    # convenience arithmetic for building trees in code
    def __add__(self, other):
        return add(self, to_expr(other))

    def __sub__(self, other):
        return add(self, mul(num(-1), to_expr(other)))

    def __mul__(self, other):
        return mul(self, to_expr(other))

    def __truediv__(self, other):
        return div(self, to_expr(other))

    def __pow__(self, other):
        return pow_(self, to_expr(other))


# ---------------------------------------------------------------------------
# constructors

def num(v):
    if isinstance(v, bool):
        raise TypeError("bool is not a number")
    if isinstance(v, int):
        v = Fraction(v)
    if isinstance(v, Fraction) or isinstance(v, float):
        return Expr("num", (), v)
    raise TypeError("unsupported numeric payload %r" % (v,))


ZERO = num(0)
ONE = num(1)
MINUS_ONE = num(-1)
HALF = num(Fraction(1, 2))


def sym(name):
    return Expr("sym", (), name)


def to_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, str):
        return sym(v)
    return num(v)


def add(*args):
    return Expr("add", [to_expr(a) for a in args])


def mul(*args):
    return Expr("mul", [to_expr(a) for a in args])


def pow_(b, e):
    return Expr("pow", (to_expr(b), to_expr(e)))


def neg(e):
    return Expr("neg", (to_expr(e),))


def div(a, b):
    return Expr("div", (to_expr(a), to_expr(b)))


def fn(name, arg):
    if name not in FUNCTIONS:
        raise ValueError("unknown function %r" % name)
    return Expr(name, (to_expr(arg),))


def exp_(e):
    return fn("exp", e)


def log_(e):
    return fn("log", e)


def sqrt_(e):
    return fn("sqrt", e)


def besseli(nu, z):
    """Modified Bessel I_nu(z) node (internal; its order may be a number or
    a tree free of the variable it is differentiated in)."""
    return Expr("besseli", (to_expr(nu), to_expr(z)))


def is_num(e, v=None):
    if e.kind != "num":
        return False
    return True if v is None else e.value == v


# ---------------------------------------------------------------------------
# deterministic ordering

def sort_key(e):
    k = object.__getattribute__(e, "_key")
    if k is None:
        if e.kind == "num":
            k = (0, "", float(e.value), ())
        elif e.kind == "sym":
            k = (1, e.value, 0.0, ())
        else:
            k = (2, e.kind, 0.0, tuple(sort_key(a) for a in e.args))
        object.__setattr__(e, "_key", k)
    return k


# ---------------------------------------------------------------------------
# simplification

def _fold_pow(b, e):
    """Exact numeric power, or None if it cannot be done exactly/safely."""
    bv, ev = b.value, e.value
    if isinstance(bv, Fraction) and isinstance(ev, Fraction):
        if ev.denominator == 1:
            n = int(ev)
            if abs(n) > 64:
                return None
            if bv == 0 and n < 0:
                return None
            try:
                return num(bv ** n)
            except (OverflowError, ZeroDivisionError):
                return None
        # fractional exponent: exact only for perfect roots of nonnegatives
        if bv < 0:
            return None
        root = _exact_root(bv, ev.denominator)
        if root is None:
            return None
        return _fold_pow(num(root), num(Fraction(ev.numerator)))
    # at least one float: fold numerically
    try:
        r = float(bv) ** float(ev)
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    if isinstance(r, complex) or not math.isfinite(r):
        return None
    return num(r)


def _exact_root(q, n):
    """q**(1/n) as an exact Fraction, or None."""
    def iroot(m):
        if m < 0:
            return None
        r = round(m ** (1.0 / n)) if m > 0 else 0
        for cand in (r - 1, r, r + 1):
            if cand >= 0 and cand ** n == m:
                return cand
        return None

    a = iroot(q.numerator)
    b = iroot(q.denominator)
    if a is None or b is None:
        return None
    return Fraction(a, b)


def _make_pow(b, e):
    """pow with local rewrites; children already simplified."""
    if is_num(e):
        if e.value == 0:
            return ONE
        if e.value == 1:
            return b
    if is_num(b):
        if b.value == 1:
            return ONE
        if b.value == 0 and is_num(e) and e.value > 0:
            return ZERO
        if is_num(e):
            folded = _fold_pow(b, e)
            if folded is not None:
                return folded
    if b.kind == "pow" and is_num(b.args[1]) and is_num(e):
        inner = b.args[1]
        # (u^p)^q -> u^(pq) when q is an integer (always valid)
        if isinstance(e.value, Fraction) and e.value.denominator == 1:
            return _make_pow(b.args[0], _mul_nums(inner, e))
    if (b.kind == "mul" and b.args and is_num(b.args[0]) and is_num(e)
            and isinstance(e.value, Fraction) and e.value.denominator == 1):
        # (c*rest)^n -> c^n * rest^n for integer n
        c = _fold_pow(b.args[0], e)
        if c is not None:
            rest = b.args[1:]
            rest_e = rest[0] if len(rest) == 1 else Expr("mul", rest)
            return _simplify_mul([c, _make_pow(rest_e, e)])
    return Expr("pow", (b, e))


def _mul_nums(a, b):
    v = a.value * b.value
    if isinstance(v, Fraction):
        return num(v)
    return num(float(v))


def _coeff_split(t):
    """term -> (numeric coefficient, rest Expr or None for pure numbers)."""
    if t.kind == "num":
        return t.value, None
    if t.kind == "mul" and t.args and is_num(t.args[0]):
        rest = t.args[1:]
        if not rest:
            return t.args[0].value, None
        return t.args[0].value, (rest[0] if len(rest) == 1 else Expr("mul", rest))
    return Fraction(1), t


def _num_add(a, b):
    r = a + b
    return r if isinstance(r, Fraction) else float(r)


def _rebuild_term(coeff, rest):
    if rest is None:
        return num(coeff)
    if coeff == 1:
        return rest
    if coeff == 0:
        return ZERO
    if rest.kind == "mul":
        return Expr("mul", (num(coeff),) + rest.args)
    return Expr("mul", (num(coeff), rest))


def _simplify_add(args):
    terms = []
    const = Fraction(0)
    for a in args:
        if a.kind == "add":
            terms.extend(a.args)
        else:
            terms.append(a)
    coeffs = {}
    order = []
    for t in terms:
        if t.kind == "num":
            const = _num_add(const, t.value)
            continue
        c, rest = _coeff_split(t)
        if rest is None:
            const = _num_add(const, c)
            continue
        if rest not in coeffs:
            coeffs[rest] = c
            order.append(rest)
        else:
            coeffs[rest] = _num_add(coeffs[rest], c)
    out = []
    for rest in order:
        c = coeffs[rest]
        if c == 0:
            continue
        out.append(_rebuild_term(c, rest))
    out.sort(key=sort_key)
    if const != 0 or not out:
        out.insert(0, num(const))
    if len(out) == 1:
        return out[0]
    return Expr("add", out)


def _simplify_mul(args):
    factors = []
    const = Fraction(1)
    stack = list(args)
    while stack:
        a = stack.pop(0)
        if a.kind == "mul":
            stack = list(a.args) + stack
        elif a.kind == "num":
            v = const * a.value
            const = v if isinstance(v, Fraction) else float(v)
        else:
            factors.append(a)
    if const == 0:
        return ZERO
    # merge powers of equal bases
    exps = {}
    order = []
    for f in factors:
        if f.kind == "pow":
            base, e = f.args
        else:
            base, e = f, ONE
        if base not in exps:
            exps[base] = [e]
            order.append(base)
        else:
            exps[base].append(e)
    out = []
    for base in order:
        es = exps[base]
        etot = es[0] if len(es) == 1 else simplify(Expr("add", es))
        p = _make_pow(base, etot)
        if p.kind == "num":
            v = const * p.value
            const = v if isinstance(v, Fraction) else float(v)
        elif p.kind == "mul":
            # constant split out by _make_pow
            for g in p.args:
                if g.kind == "num":
                    v = const * g.value
                    const = v if isinstance(v, Fraction) else float(v)
                else:
                    out.append(g)
        else:
            out.append(p)
    if const == 0:
        return ZERO
    out.sort(key=sort_key)
    if not out:
        return num(const)
    if const != 1:
        out.insert(0, num(const))
    if len(out) == 1:
        return out[0]
    return Expr("mul", out)


_FN_ZERO_VALUES = {
    "exp": ONE, "log": None, "sin": ZERO, "cos": ONE, "tan": ZERO,
    "sinh": ZERO, "cosh": ONE, "tanh": ZERO, "arctan": ZERO, "arctanh": ZERO,
}


def _simplify_fn(kind, a):
    if kind == "sqrt":
        return _make_pow(a, HALF)
    if kind == "abs":
        if a.kind == "num":
            return num(abs(a.value))
        if a.kind == "abs":
            return a
        if a.kind == "pow" and is_num(a.args[1]):
            e = a.args[1].value
            if isinstance(e, Fraction) and e.denominator == 1 and e % 2 == 0:
                return a
        if a.kind == "mul" and is_num(a.args[0]) and a.args[0].value < 0:
            rest = a.args[1:]
            rest_e = rest[0] if len(rest) == 1 else Expr("mul", rest)
            return _simplify_mul([num(abs(a.args[0].value)), Expr("abs", (rest_e,))])
        return Expr("abs", (a,))
    if is_num(a, 0) and _FN_ZERO_VALUES.get(kind) is not None:
        return _FN_ZERO_VALUES[kind]
    if kind == "exp" and a.kind == "log":
        return a.args[0]
    if kind == "log":
        if is_num(a, 1):
            return ZERO
        if a.kind == "exp":
            return a.args[0]
    return Expr(kind, (a,))


# Marks a node that `simplify` returned: a sentinel rather than the node
# itself, so that a simplified node is not a reference cycle.
_SIMPLIFIED = object()


def simplify(e):
    """The simplified form of `e`, computed once per node."""
    if e.kind in ("num", "sym"):
        return e
    s = e._simp
    if s is _SIMPLIFIED:
        return e
    if s is None:
        s = _simplify(e)
        object.__setattr__(e, "_simp", s)
        if s is e or s._simp is None:
            object.__setattr__(s, "_simp", _SIMPLIFIED)
    return s


def _simplify(e):
    args = [simplify(a) for a in e.args]
    k = e.kind
    if k == "neg":
        return _simplify_mul([MINUS_ONE, args[0]])
    if k == "div":
        return _simplify_mul([args[0], _make_pow(args[1], MINUS_ONE)])
    if k == "add":
        return _simplify_add(args)
    if k == "mul":
        return _simplify_mul(args)
    if k == "pow":
        return _make_pow(args[0], args[1])
    if k == "besseli":
        return Expr("besseli", args)
    return _simplify_fn(k, args[0])


# ---------------------------------------------------------------------------
# differentiation

_FN_DERIV = {
    "exp": lambda u: fn("exp", u),
    "log": lambda u: div(ONE, u),
    "sin": lambda u: fn("cos", u),
    "cos": lambda u: neg(fn("sin", u)),
    "tan": lambda u: add(ONE, pow_(fn("tan", u), 2)),
    "sinh": lambda u: fn("cosh", u),
    "cosh": lambda u: fn("sinh", u),
    "tanh": lambda u: add(ONE, neg(pow_(fn("tanh", u), 2))),
    "arctan": lambda u: div(ONE, add(ONE, pow_(u, 2))),
    "arctanh": lambda u: div(ONE, add(ONE, neg(pow_(u, 2)))),
}


def _d(e, var):
    # e is simplified (differentiate simplifies first), so it holds no neg,
    # div or sqrt node
    k = e.kind
    if k == "num":
        return ZERO
    if k == "sym":
        return ONE if e.value == var else ZERO
    if k == "add":
        return Expr("add", [_d(a, var) for a in e.args])
    if k == "mul":
        terms = []
        for i, a in enumerate(e.args):
            da = _d(a, var)
            if is_num(da, 0):
                continue
            terms.append(Expr("mul", e.args[:i] + (da,) + e.args[i + 1:]))
        return Expr("add", terms) if terms else ZERO
    if k == "pow":
        b, ex = e.args
        db, dex = _d(b, var), _d(ex, var)
        terms = []
        if not is_num(db, 0):
            terms.append(mul(ex, pow_(b, add(ex, MINUS_ONE)), db))
        if not is_num(dex, 0):
            terms.append(mul(e, fn("log", b), dex))
        return Expr("add", terms) if terms else ZERO
    if k == "abs":
        u = e.args[0]
        return mul(u, pow_(fn("abs", u), MINUS_ONE), _d(u, var))
    if k == "besseli":
        nu, z = e.args
        if contains_symbol(nu, var):
            raise ExprError("besseli order must not depend on %s" % var)
        if nu.kind == "num":
            lower, upper = num(nu.value - 1), num(nu.value + 1)
        else:
            lower, upper = add(nu, MINUS_ONE), add(nu, ONE)
        return mul(HALF, add(besseli(lower, z), besseli(upper, z)),
                   _d(z, var))
    if k in _FN_DERIV:
        u = e.args[0]
        return mul(_FN_DERIV[k](u), _d(u, var))
    raise ExprError("cannot differentiate node kind %r" % k)


def differentiate(e, var="x", order=1):
    if order < 1:
        raise ValueError("order must be >= 1")
    out = simplify(e)
    for _ in range(order):
        out = simplify(_d(out, var))
    return out


# ---------------------------------------------------------------------------
# evaluation
#
# Trees are compiled into one Python function of a sequence of environments,
# f(envs), which loops over them and returns, for each, the list of the
# trees' values.  A single tree's function is kept in its node's `_fn` slot;
# `evaluate` is its call on one environment.  The loop body is straight-line,
# one assignment per node, so deep trees stay within the parser's nesting
# limit.  It runs the trees in turn, each in the order of a recursive walk:
# for each node its children left to right, then its guard, then its
# operation, and last the check that the root's value is finite.  It does
# that walk's float arithmetic: sums by math.fsum of all their terms,
# products as a left fold, constants converted once with float().  Equal
# subtrees and repeated symbols are computed once per environment, at their
# first place in that order, also across trees: the arithmetic is
# deterministic, so the copies would give the same floats and raise the
# same errors.  A symbol of DEFAULT_BINDINGS falls back to its default when
# the environment lacks it.  Constants are default arguments, one per
# distinct value, so functions that differ only in their constants have the
# same source and share one code object from `_CODES`.  `_run` maps what
# the code raises besides its guards.

DEFAULT_BINDINGS = {"pi": math.pi}

_FN_EVAL = {
    "exp": math.exp, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "arctan": math.atan, "log": math.log, "sqrt": math.sqrt,
    "arctanh": math.atanh, "abs": abs,
}

# (condition on the argument, message) of the guarded functions
_FN_GUARD = {
    "log": ("%s <= 0.0", "log of non-positive"),
    "sqrt": ("%s < 0.0", "sqrt of negative"),
    "arctanh": ("abs(%s) >= 1.0", "arctanh outside (-1,1)"),
}

# The generated functions share these globals and never write to them, so a
# function refers to nothing but its code and defaults, and dies with its node.
_CODE_GLOBALS = dict(
    {"_" + k: f for k, f in _FN_EVAL.items()},
    __builtins__=builtins, _fsum=math.fsum, _isfinite=math.isfinite,
    _DomainError=DomainError, _ExprError=ExprError)

# generated source -> its code object, kept for the life of the process
_CODES = {}


def evaluate(e, bindings=None):
    """The value of `e` with its symbols bound by `bindings`."""
    return _run(_function((e,)), (bindings or {},))[0][0]


def evaluate_many(trees, envs):
    """[[evaluate(e, env) for e in trees] for env in envs] in one compiled
    call, raising the first error those loops would raise."""
    return evaluator(trees)(envs)


def evaluator(trees):
    """envs -> evaluate_many(trees, envs), by one function compiled here."""
    f = _function(tuple(trees))
    return lambda envs: _run(f, envs)


def function_of(e, name, bindings=None):
    """v -> evaluate(e, {**bindings, name: v}) by e's compiled function, on
    one environment copied here once and reused by every call."""
    f, env = _function((e,)), dict(bindings or {})
    def at(v):
        env[name] = v
        return _run(f, (env,))[0][0]
    return at


def _function(trees):
    """The compiled function of `trees`, kept in the node of a single tree."""
    if len(trees) != 1:
        return _compile(trees)
    f = trees[0]._fn
    if f is None:
        f = _compile(trees)
        object.__setattr__(trees[0], "_fn", f)
    return f


def _run(f, envs):
    try:
        return f(envs)
    except KeyError as exc:               # only env[name] raises it
        raise UnboundIdentifier(exc.args[0]) from None
    except (OverflowError, ValueError) as exc:
        # the reason alone: an OverflowError of ** also carries its errno
        raise DomainError(*exc.args[-1:]) from exc


def _compile(roots):
    """One function envs -> [[value of each root] per env], as described
    above."""
    lines = []      # the loop body, one physical line each
    ref = {}        # id(node) -> its local or default-argument name
    seen = {}       # (kind, value, operand names) -> local; checks emitted
    names = {}      # repr of a constant -> its default-argument name
    defaults = {}   # default-argument name -> value
    count = itertools.count()

    def local():
        return "t%d" % next(count)

    def const(v):
        r = repr(v)                       # keeps 0.0 and -0.0 apart
        if r not in names:
            names[r] = "k%d" % len(names)
            defaults[names[r]] = v
        return names[r]

    def emit(line, *guard):
        if guard:
            check = "if %s: raise _DomainError(%r)" % guard
            if check not in seen:         # the same check on the same value
                seen[check] = None
                lines.append(check)
        if line:
            lines.append(line)

    stack = []                            # (node, its children are done)
    for root in reversed(roots):          # None: its value is to be checked
        stack += [(root, None), (root, False)]
    while stack:
        e, ready = stack.pop()
        k = e.kind
        if ready is None:
            emit(None, "not _isfinite(%s)" % ref[id(e)], "non-finite result")
            continue
        if not ready:
            if id(e) not in ref:
                stack.append((e, True))
                stack += [(a, False) for a in reversed(e.args)]
            continue
        if k == "num":
            try:
                ref[id(e)] = const(float(e.value))
            except OverflowError:         # raised where the walk reaches it
                ref[id(e)] = t = local()
                emit("%s = float(%s)" % (t, const(e.value)))
            continue
        if k == "mul" and len(e.args) < 2:
            ref[id(e)] = ref[id(e.args[0])] if e.args else const(1.0)
            continue
        a = [ref[id(c)] for c in e.args]
        key = (k, e.value, *a)
        if key in seen:                   # an equal subtree computed before
            ref[id(e)] = seen[key]
            continue
        ref[id(e)] = seen[key] = t = local()
        if k == "sym" and e.value in DEFAULT_BINDINGS:
            emit("%s = float(env.get(%r, %s))"
                 % (t, e.value, const(DEFAULT_BINDINGS[e.value])))
        elif k == "sym":
            emit("%s = float(env[%r])" % (t, e.value))
        elif k == "add":
            emit("%s = _fsum((%s))" % (t, "".join(x + ", " for x in a)))
        elif k == "mul":
            emit("%s = %s" % (t, " * ".join(a)))
        elif k == "neg":
            emit("%s = -%s" % (t, a[0]))
        elif k == "div":
            emit("%s = %s / %s" % (t, a[0], a[1]), "%s == 0.0" % a[1],
                 "division by zero")
        elif k == "pow":
            _emit_pow(emit, t, a[0], defaults.get(a[1]), a[1])
        elif k == "besseli":
            from . import special
            emit("%s = %s(%s, %s)" % (t, const(special.iv), a[0], a[1]))
        elif k in _FN_GUARD:
            cond, msg = _FN_GUARD[k]
            emit("%s = _%s(%s)" % (t, k, a[0]), cond % a[0], msg)
        elif k in _FN_EVAL:
            emit("%s = _%s(%s)" % (t, k, a[0]))
        else:
            emit("raise _ExprError(%r)" % ("cannot evaluate node kind %r" % k))
    src = "\n".join(
        ["def f(envs%s):" % "".join(", " + n for n in defaults),
         "    out = []",
         "    for env in envs:"]
        + ["        " + line for line in lines]
        + ["        out.append([%s])" % ", ".join(ref[id(r)] for r in roots),
           "    return out\n"])
    code = _CODES.get(src)
    if code is None:            # the def's code is the module's first constant
        code = compile(src, "<parasym.expr>", "exec").co_consts[0]
        _CODES[src] = code
    return types.FunctionType(code, _CODE_GLOBALS, "f",
                              tuple(defaults.values()))


def _emit_pow(emit, t, b, c, x):
    """t = b ** x with the real-domain guards, where c is the exponent's
    value if it is a constant.  Every value is a Python float, and for those
    b ** x equals b ** int(x) at an integral x."""
    if c is not None and math.isfinite(c):   # decide the exponent's part now
        if c < 0:
            emit(None, "%s == 0.0" % b, "0^negative")
        if c != round(c):
            emit(None, "%s < 0" % b, "negative base with fractional exponent")
    else:
        emit(None, "%s == 0.0 and %s < 0" % (b, x), "0^negative")
        emit(None, "%s < 0 and %s != round(%s)" % (b, x, x),
             "negative base with fractional exponent")
    emit("%s = %s ** %s" % (t, b, x))


# ---------------------------------------------------------------------------
# structural helpers

def free_symbols(e):
    if e.kind == "sym":
        return {e.value}
    out = set()
    for a in e.args:
        out |= free_symbols(a)
    return out


def contains_symbol(e, name):
    if e.kind == "sym":
        return e.value == name
    return any(contains_symbol(a, name) for a in e.args)


def substitute(e, mapping):
    """Replace symbols by expressions; result simplified."""
    return simplify(_subst(e, {k: to_expr(v) for k, v in mapping.items()}))


def _subst(e, mapping):
    if e.kind == "sym":
        return mapping.get(e.value, e)
    if not e.args:
        return e
    return Expr(e.kind, [_subst(a, mapping) for a in e.args], e.value)


# ---------------------------------------------------------------------------
# probe points

def chebyshev_points(lo, hi, n):
    """The n Chebyshev nodes of [lo, hi] in ascending order."""
    pts = []
    for i in range(n):
        theta = math.pi * (2 * i + 1) / (2 * n)
        pts.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * math.cos(theta))
    return sorted(pts)


def grid(lo, hi, n):
    """The n evenly spaced points of [lo, hi], ends included (n >= 2)."""
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# ---------------------------------------------------------------------------
# printing

def _num_text(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return "%d/%d" % (v.numerator, v.denominator)
    return repr(v)


_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_NEG, _PREC_ATOM = 10, 20, 30, 35, 100


def _prec(e):
    k = e.kind
    if k == "add":
        return _PREC_ADD
    if k in ("mul", "div"):
        return _PREC_MUL
    if k == "neg":
        return _PREC_NEG
    if k == "pow":
        return _PREC_POW
    if k == "num":
        return _PREC_ATOM if (isinstance(e.value, float) and e.value >= 0) \
            or (isinstance(e.value, Fraction) and e.value >= 0
                and e.value.denominator == 1) else _PREC_MUL
    return _PREC_ATOM


def _paren(e, minprec):
    s = to_text(e)
    if _prec(e) < minprec:
        return "(" + s + ")"
    return s


def to_text(e):
    """Pretty infix form; re-parses to the same simplified tree."""
    k = e.kind
    if k == "num":
        return _num_text(e.value)
    if k == "sym":
        return e.value
    if k == "add":
        parts = [to_text(e.args[0])]
        for t in e.args[1:]:
            c, rest = _coeff_split(t)
            if c < 0:
                tt = _rebuild_term(-c, rest)
                parts.append(" - " + _paren(tt, _PREC_ADD + 1))
            else:
                parts.append(" + " + _paren(t, _PREC_ADD + 1))
        return "".join(parts)
    if k == "mul":
        numer, denom = [], []
        for f in e.args:
            if (f.kind == "pow" and is_num(f.args[1])
                    and f.args[1].value < 0):
                inv = _make_pow(f.args[0], num(-f.args[1].value))
                denom.append(inv)
            else:
                numer.append(f)
        neg_prefix = ""
        if numer and is_num(numer[0]) and numer[0].value == -1 and len(numer) > 1:
            neg_prefix = "-"
            numer = numer[1:]
        if not numer:
            ns = "1"
        else:
            # a "-" prefix acts as unary minus, which binds tighter than ^:
            # the leading factor needs parens if it is itself a power
            first_min = _PREC_NEG if neg_prefix else _PREC_MUL
            ns = "*".join(_paren(f, first_min if i == 0 else _PREC_MUL)
                          for i, f in enumerate(numer))
        if not denom:
            return neg_prefix + ns
        if len(denom) == 1 and _prec(denom[0]) >= _PREC_POW:
            ds = _paren(denom[0], _PREC_POW + 1)
        else:
            ds = "(" + "*".join(_paren(f, _PREC_MUL) for f in denom) + ")"
        return neg_prefix + ns + "/" + ds
    if k == "div":
        return _paren(e.args[0], _PREC_MUL) + "/" + _paren(e.args[1], _PREC_MUL + 1)
    if k == "neg":
        return "-" + _paren(e.args[0], _PREC_NEG)
    if k == "pow":
        b, ex = e.args
        if is_num(ex) and ex.value == Fraction(1, 2):
            return "sqrt(" + to_text(b) + ")"
        if is_num(ex) and ex.value == -1:
            return "1/" + _paren(b, _PREC_POW + 1)
        if is_num(ex) and ex.value < 0:
            inv = _make_pow(b, num(-ex.value))
            return "1/" + _paren(inv, _PREC_POW + 1)
        bs = _paren(b, _PREC_POW + 1)
        es = _paren(ex, _PREC_POW)
        return bs + "^" + es
    if k == "besseli":
        return "besseli(%s, %s)" % (to_text(e.args[0]), to_text(e.args[1]))
    return k + "(" + to_text(e.args[0]) + ")"


def to_sexpr(e):
    """Lisp-style serialization for machine diffing."""
    k = e.kind
    if k == "num":
        return _num_text(e.value)
    if k == "sym":
        return e.value
    op = {"add": "+", "mul": "*", "pow": "^", "neg": "neg", "div": "/"}.get(k, k)
    return "(" + " ".join([op] + [to_sexpr(a) for a in e.args]) + ")"
