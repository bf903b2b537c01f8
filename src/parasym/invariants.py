"""Semi-invariants of u_t = a(x) u_xx + b(x) u_x + c(x) u.

With s(x) = sqrt(a), the three quantities are

    I(x) = integral dx / s(x)
    J(x) = s'(x) - b(x)/s(x)
    K(x) = (1/2) s J' - (1/4) J^2 + c

J and K are always produced symbolically.  I is symbolic when 1/s matches a
small antiderivative pattern table (reciprocal quadratic, power of a linear
factor, exponential); otherwise it is an adaptive-quadrature sampler anchored
at a base point: it integrates once between fixed knots across the probe
window, then from the knot nearest each x.  The additive constant of I is a
free gauge; downstream classification is invariant under I -> I + s0.
values_at samples functions of x at a list of points for every caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expr as E
from .expr import Expr, DomainError, ParasymError, chebyshev_points
from .parser import COEFFICIENTS


class NonparabolicError(ParasymError):
    """Diffusion coefficient vanishes or changes sign on the domain."""


class UnsupportedCoefficient(ParasymError):
    """Coefficient outside the time-autonomous class handled here."""


class DegenerateTransform(ParasymError):
    """The time map's derivative T' is not positive at a probed time."""


class IllConditionedFit(ParasymError):
    """The probe grid cannot carry the (I, K) fit: I is nearly constant
    on it, or the domain or I is too large for floats."""


VAR = "x"
KNOT_PANELS = 16               # probe-window panels between quadrature knots


# ---------------------------------------------------------------------------
# equations

@dataclass
class ParabolicEquation:
    """The triple (a, b, c) with an open spatial domain.

    `bindings` maps named constants appearing in the coefficient expressions
    to numeric values; they are substituted before any numeric work.
    Backward-parabolic input (a < 0 on the domain) is normalized to forward
    by t -> -t, i.e. (a, b, c) -> (-a, -b, -c).
    """

    a: Expr
    b: Expr
    c: Expr
    domain: tuple = (-math.inf, math.inf)
    bindings: dict = field(default_factory=dict)

    def bound_coefficients(self):
        return tuple(E.substitute(E.to_expr(e), self.bindings)
                     for e in (self.a, self.b, self.c))

    @staticmethod
    def from_program(prog):
        """Build from a ParsedProgram (see parser module)."""
        missing = [k for k in COEFFICIENTS if k not in prog.assignments]
        if missing:
            raise UnsupportedCoefficient(
                "equation file must assign a, b, c (missing %s)" % ", ".join(missing))
        var = prog.variables[0] if prog.variables else VAR
        sub = {} if var == VAR else {var: E.sym(VAR)}
        a, b, c = (E.substitute(prog.assignments[k], sub) for k in COEFFICIENTS)
        domain = prog.domain or (-math.inf, math.inf)
        return ParabolicEquation(a, b, c, domain, dict(prog.constants))


def probe_window(domain):
    """Finite sampling window inset from the domain boundaries."""
    lo, hi = domain
    if math.isinf(lo) and math.isinf(hi):
        return (-4.0, 4.0)
    if math.isinf(hi):
        return (lo + 0.15, lo + 5.0)
    if math.isinf(lo):
        return (hi - 5.0, hi - 0.15)
    w = hi - lo
    if math.isinf(w):
        raise IllConditionedFit("domain (%g, %g) is wider than the largest "
                                "float" % domain)
    return (lo + 0.05 * w, hi - 0.05 * w)


def base_point(domain):
    lo, hi = domain
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(hi):
        return lo + 1.0
    if math.isinf(lo):
        return hi - 1.0
    return 0.5 * (lo + hi)


def normalize(eq):
    """Substitute bindings and normalize time direction.

    Returns (a, b, c, flipped) with a > 0 on the probe window.
    Raises NonparabolicError if a vanishes or changes sign at the 32 sample
    points, or has a polynomial factor with a root inside the open domain;
    UnsupportedCoefficient on time dependence or unbound symbols.
    """
    a, b, c = eq.bound_coefficients()
    for e in (a, b, c):
        free = E.free_symbols(e) - {VAR} - set(E.DEFAULT_BINDINGS)
        if "t" in free:
            raise UnsupportedCoefficient(
                "time-dependent coefficients are outside the time-autonomous class")
        if free:
            raise E.UnboundIdentifier(", ".join(sorted(free)))
    xs = chebyshev_points(*probe_window(eq.domain), 32)
    try:
        av, undefined = values_at([("a", a)], xs)[:, 0], None
    except DomainError as exc:    # a zero at an earlier x is still named
        av, undefined = values_at([("a", a)], xs[:xs.index(exc.x)])[:, 0], exc
    for x, v in zip(xs, av):
        if v == 0.0:
            raise NonparabolicError("a vanishes at x=%g" % x)
    if undefined is not None:
        raise NonparabolicError(str(undefined)) from undefined
    if (av > 0).any() and (av < 0).any():
        raise NonparabolicError("a changes sign on the domain")
    root = _interior_root(a, eq.domain)
    if root is not None:
        raise NonparabolicError("a vanishes at x=%g" % root)
    flipped = bool(av[0] < 0)
    if flipped:
        # backward equation: t -> -t
        a, b, c = (E.simplify(E.mul(E.MINUS_ONE, e)) for e in (a, b, c))
    return a, b, c, flipped


# A computed root of multiplicity m is off by about eps^(1/m): double roots
# come out as complex pairs or real pairs about 1e-8 apart.
ROOT_TOL = 1e-6


def _interior_root(a, domain):
    """A real root inside the open domain of a polynomial with numeric
    coefficients that divides a: a itself, a factor of a product, or the
    base of such a factor's positive literal power; else None.  Roots
    within ROOT_TOL of the real axis count as real, and roots within
    ROOT_TOL of an endpoint as the endpoint."""
    lo, hi = domain
    for f in a.args if a.kind == "mul" else (a,):
        if f.kind == "pow" and E.is_num(f.args[1]) and f.args[1].value > 0:
            f = f.args[0]
        poly = numeric_poly(f) or [1]
        for r in np.roots([float(c) for c in reversed(poly)]):
            x, tol = float(r.real), ROOT_TOL * max(1.0, abs(r))
            if abs(r.imag) <= tol and lo + tol < x < hi - tol:
                return x + 0.0                # -0.0 prints as "-0"
    return None


# ---------------------------------------------------------------------------
# one-variable function values (symbolic or sampled)

class Fn1:
    """A function of x with a symbolic derivative: a symbolic Expr, or a
    quadrature sampler of the derivative anchored at x_ref (see
    quadrature_fn1).  Pure: a value depends on x alone, so concurrent
    evaluation equals serial evaluation."""

    def __init__(self, derivative, expr=None, sampler=None, x_ref=None):
        if expr is None and sampler is None:
            raise ValueError("Fn1 needs an expression or a sampler")
        self.expr = expr
        self._sampler = sampler
        self.derivative = derivative
        self.x_ref = x_ref

    def __call__(self, x):
        return self.many([x])[0]

    def many(self, xs):
        """[self(x) for x in xs]: one compiled call when symbolic."""
        if self.expr is not None:
            return [row[0] for row in E.evaluate_many(
                (self.expr,), [{VAR: float(x)} for x in xs])]
        return [self._sampler(float(x)) for x in xs]

    def d(self, x):
        """First derivative value."""
        return E.evaluate(self.derivative, {VAR: float(x)})

    def __repr__(self):
        if self.expr is not None:
            return "Fn1<%s>" % E.to_text(self.expr)
        return "Fn1<quadrature from x_ref=%g>" % self.x_ref


def values_at(named, xs):
    """The array [[f(x) for each f] for x in xs] of the (label, Expr or Fn1)
    pairs `named`, one batched call per function.  On a DomainError the
    points are rerun in order, and the error names the first x, and the
    first function there, that is undefined; it carries that x as `.x`."""
    fns = [(label, f if isinstance(f, Fn1) else Fn1(None, expr=f))
           for label, f in named]
    try:
        return np.array([f.many(xs) for _, f in fns], dtype=float).T
    except DomainError:
        for x in xs:
            for label, f in fns:
                try:
                    f(x)
                except DomainError as exc:
                    err = DomainError("%s undefined at x=%g: %s"
                                      % (label, x, exc))
                    err.x = x
                    raise err from exc
        raise


def quadrature_fn1(derivative_expr, domain, x_ref):
    """Antiderivative in x of `derivative_expr` from x_ref by adaptive
    quadrature (abs tol 1e-10), insetting 1e-8 from singular domain
    endpoints.

    The knots are x_ref and the KNOT_PANELS + 1 panel ends of the probe
    window.  The first call integrates from x_ref to every knot, one
    interval at a time; each call then adds one short integral from the
    knot nearest x, so a value depends on x alone, not on the calls
    before it."""
    lo, hi = domain
    inset_lo = lo + 1e-8 if math.isfinite(lo) else -math.inf
    inset_hi = hi - 1e-8 if math.isfinite(hi) else math.inf

    f = E.function_of(derivative_expr, VAR)

    def integral(a, b):
        from scipy.integrate import quad
        val, _, _, *warning = quad(f, a, b, epsabs=1e-10, epsrel=1e-10,
                                   limit=200, full_output=1)
        if warning:                 # raised where quad would print it
            raise E.NonconvergentQuadrature(
                "quadrature of %s from %g to %g: %s" % (E.to_text(
                    derivative_expr), a, b, " ".join(warning[0].split())))
        return val

    @functools.cache
    def knot_values():
        knots = sorted({x_ref, *np.linspace(*probe_window(domain),
                                            KNOT_PANELS + 1).tolist()})
        k = knots.index(x_ref)
        values = [0.0] * len(knots)
        for i in range(k, len(knots) - 1):
            values[i + 1] = values[i] + integral(knots[i], knots[i + 1])
        for i in range(k, 0, -1):
            values[i - 1] = values[i] + integral(knots[i], knots[i - 1])
        return knots, values

    def sampler(x):
        x = min(max(x, inset_lo), inset_hi)
        knots, values = knot_values()
        i = min(range(len(knots)), key=lambda j: abs(knots[j] - x))
        return values[i] + integral(knots[i], x)

    return Fn1(derivative_expr, sampler=sampler, x_ref=x_ref)


# ---------------------------------------------------------------------------
# sqrt(a) in structural form

def symbolic_sqrt(a, window):
    """An Expr s with s^2 = a and s > 0 on the window, unwrapping powers and
    products where the sign can be decided by sampling."""
    a = E.simplify(a)
    s = _sqrt_try(a, window)
    if s is None:
        s = E.simplify(E.pow_(a, E.HALF))
    return s


def _sign_on(e, window):
    try:
        v = values_at([("e", e)], chebyshev_points(*window, 9))
    except DomainError:
        return 0
    return 1 if (v > 0).all() else -1 if (v < 0).all() else 0


def _half(ev):
    return E.num(ev.value / 2)            # exact for a Fraction


def _sqrt_try(a, window):
    if a.kind == "num":
        if a.value < 0:
            return None
        return E.simplify(E.pow_(a, E.HALF))
    if a.kind == "pow" and E.is_num(a.args[1]):
        u, ev = a.args
        sgn = _sign_on(u, window)
        if sgn > 0:
            return E.simplify(E.pow_(u, _half(ev)))
        if sgn < 0:
            v = ev.value
            even = isinstance(v, Fraction) and v.denominator == 1 and v % 2 == 0
            if even:
                return E.simplify(E.pow_(E.mul(E.MINUS_ONE, u), _half(ev)))
        return None
    if a.kind == "mul":
        parts = []
        for f in a.args:
            sf = _sqrt_try(f, window)
            if sf is None:
                return None
            parts.append(sf)
        return E.simplify(Expr("mul", parts))
    sgn = _sign_on(a, window)
    if sgn > 0:
        return E.simplify(E.pow_(a, E.HALF))
    return None


# ---------------------------------------------------------------------------
# antiderivative pattern table for 1/s

MAX_POLY_DEGREE = 64


def numeric_poly(e):
    """Coefficients [c0, c1, ...] of e as a polynomial in x of degree at most
    MAX_POLY_DEGREE, exact where the tree's are, or None unless each is a
    number.  The arithmetic is what `simplify` does to numbers: sums from
    Fraction(0) in term order, products in factor order, a zero product
    as Fraction(0)."""
    return _poly(E.simplify(e))


def _poly(e):
    if not E.contains_symbol(e, VAR):
        if e.kind == "num":
            return [e.value]
        if E.free_symbols(e) - set(E.DEFAULT_BINDINGS):
            return None
        try:
            return [E.evaluate(e, {})]
        except DomainError:
            return None
    if e.kind == "sym":
        return [Fraction(0), Fraction(1)]
    n = e.args[1].value if e.kind == "pow" and E.is_num(e.args[1]) else None
    if e.kind in ("add", "mul"):
        parts = [_poly(a) for a in e.args]
    elif (isinstance(n, Fraction) and n.denominator == 1
          and 0 <= n <= MAX_POLY_DEGREE):
        parts = [_poly(e.args[0])] * int(n)
    else:
        return None
    if None in parts:
        return None
    if e.kind == "add":
        return [sum((p[i] for p in parts if i < len(p)), Fraction(0))
                for i in range(max(map(len, parts)))]
    acc = [Fraction(1)]
    for p in parts:
        if len(acc) + len(p) - 2 > MAX_POLY_DEGREE:
            return None
        acc = [sum((acc[i] * p[k - i] or Fraction(0) for i in range(len(acc))
                    if 0 <= k - i < len(p)), Fraction(0))
               for k in range(len(acc) + len(p) - 1)]
    return acc


def _sqrt_value(v):
    """Exact sqrt when possible, else float."""
    if isinstance(v, Fraction):
        r = E._exact_root(v, 2)
        if r is not None:
            return E.num(r)
    return E.num(math.sqrt(float(v)))


def antiderivative_recip(s, window):
    """F(x) with F' = 1/s(x), from the pattern table, or None.

    Covers: s a polynomial of degree <= 2, s = C*(alpha x + beta)^g, and
    s = C*exp(lambda x + m).
    """
    s = E.simplify(s)
    x = E.sym(VAR)
    poly = numeric_poly(s)
    if poly is not None and len(poly) <= 3:
        return _recip_poly_antideriv(poly, x)
    C, core = _split_constant(s)
    if core.kind == "pow" and E.is_num(core.args[1]):
        lin = numeric_poly(core.args[0])
        if lin is not None and len(lin) == 2 and lin[1] != 0:
            return _recip_power_antideriv(C, lin, core.args[1].value, core.args[0], x)
    if core.kind == "exp":
        lin = numeric_poly(core.args[0])
        if lin is not None and len(lin) == 2 and lin[1] != 0:
            lam = lin[1]
            # int dx / (C e^{lam x + m}) = -exp(-(lam x + m)) / (C lam)
            inner = E.simplify(E.mul(E.MINUS_ONE, core.args[0]))
            return E.simplify(E.div(E.mul(E.MINUS_ONE, E.exp_(inner)),
                                    E.mul(E.num(C), E.num(lam))))
    return None


def _split_constant(s):
    if s.kind == "mul":
        const_parts, rest = [], []
        for f in s.args:
            if not E.free_symbols(f) - set(E.DEFAULT_BINDINGS):
                const_parts.append(f)
            else:
                rest.append(f)
        if const_parts and rest:
            try:
                C = E.evaluate(Expr("mul", const_parts), {})
            except DomainError:
                return Fraction(1), s
            core = rest[0] if len(rest) == 1 else Expr("mul", rest)
            return C, core
    return Fraction(1), s


def _recip_poly_antideriv(poly, x):
    if len(poly) == 1:
        (g,) = poly
        return E.simplify(E.div(x, E.num(g)))
    if len(poly) == 2:
        g, bco = poly
        # int dx/(b x + g) = log|b x + g| / b
        u = E.simplify(E.add(E.mul(E.num(bco), x), E.num(g)))
        return E.simplify(E.div(E.log_(E.fn("abs", u)), E.num(bco)))
    g, bco, al = poly
    if al == 0:
        return _recip_poly_antideriv([g, bco], x)
    disc = bco * bco - 4 * al * g
    w = E.simplify(E.add(E.mul(E.num(2 * al), x), E.num(bco)))  # 2a x + b
    if disc == 0:
        return E.simplify(E.div(E.num(-2), w))
    if (disc < 0) if not isinstance(disc, float) else disc < 0:
        rt = _sqrt_value(-disc)
        return E.simplify(E.mul(E.div(E.num(2), rt),
                                E.fn("arctan", E.div(w, rt))))
    rt = _sqrt_value(disc)
    ratio = E.div(E.add(w, E.neg(rt)), E.add(w, rt))
    return E.simplify(E.div(E.log_(E.fn("abs", ratio)), rt))


def _recip_power_antideriv(C, lin, g, u, x):
    beta, alpha = lin
    if (isinstance(g, Fraction) and g == 1) or g == 1.0:
        return E.simplify(E.div(E.log_(E.fn("abs", u)),
                                E.mul(E.num(C), E.num(alpha))))
    one_minus_g = (1 - g) if isinstance(g, Fraction) else 1.0 - g
    denom = E.mul(E.num(C), E.num(alpha), E.num(one_minus_g))
    return E.simplify(E.div(E.pow_(u, E.num(one_minus_g)), denom))


# ---------------------------------------------------------------------------
# the invariant triple

@dataclass
class InvariantTriple:
    I: Fn1
    J: Expr
    K: Expr
    symbolic_I: bool
    sqrt_a: Expr
    a: Expr
    b: Expr
    c: Expr
    domain: tuple
    flipped: bool


def compute_invariants(eq):
    """I, J, K of a time-autonomous parabolic equation.

    J and K are symbolic; I is symbolic when 1/sqrt(a) matches the pattern
    table, otherwise a quadrature sampler anchored at the domain base point.
    """
    a, b, c, flipped = normalize(eq)
    window = probe_window(eq.domain)
    s = symbolic_sqrt(a, window)
    sp = E.differentiate(s, VAR)
    J = E.simplify(E.add(sp, E.neg(E.div(b, s))))
    Jp = E.differentiate(J, VAR)
    K = E.simplify(E.add(E.mul(E.HALF, s, Jp),
                         E.mul(E.num(Fraction(-1, 4)), E.pow_(J, 2)),
                         c))
    recip = E.simplify(E.div(E.ONE, s))
    F = antiderivative_recip(s, window)
    if F is not None:
        I = Fn1(recip, expr=F)
    else:
        I = quadrature_fn1(recip, eq.domain, base_point(eq.domain))
    return InvariantTriple(I=I, J=J, K=K, symbolic_I=F is not None,
                           sqrt_a=s, a=a, b=b, c=c, domain=eq.domain,
                           flipped=flipped)

