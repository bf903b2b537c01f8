"""Semi-invariants of u_t = a(x) u_xx + b(x) u_x + c(x) u.

With s(x) = sqrt(a), the three quantities are

    I(x) = integral dx / s(x)
    J(x) = s'(x) - b(x)/s(x)
    K(x) = (1/2) s J' - (1/4) J^2 + c

J and K are always produced symbolically.  I is symbolic when 1/s matches a
small antiderivative pattern table (reciprocal quadratic, power of a linear
factor, exponential); otherwise it is an adaptive-quadrature sampler anchored
at a base point.  The additive constant of I is a free gauge; downstream
classification is invariant under I -> I + s0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from . import expr as E
from .expr import Expr, DomainError, ParasymError, chebyshev_points


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
        sub = dict(self.bindings)
        out = []
        for e in (self.a, self.b, self.c):
            out.append(E.substitute(E.to_expr(e), sub))
        return tuple(out)

    @staticmethod
    def from_program(prog):
        """Build from a ParsedProgram (see parser module)."""
        missing = [k for k in ("a", "b", "c") if k not in prog.assignments]
        if missing:
            raise UnsupportedCoefficient(
                "equation file must assign a, b, c (missing %s)" % ", ".join(missing))
        var = prog.variables[0] if prog.variables else VAR
        sub = {} if var == VAR else {var: E.sym(VAR)}
        a, b, c = (E.substitute(prog.assignments[k], sub) for k in ("a", "b", "c"))
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
    points, or is a polynomial with a root inside the open domain;
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
    lo, hi = probe_window(eq.domain)
    signs = set()
    for x in chebyshev_points(lo, hi, 32):
        try:
            v = E.evaluate(a, {VAR: x})
        except DomainError as exc:
            raise NonparabolicError("a undefined at x=%g: %s" % (x, exc)) from exc
        if v == 0.0:
            raise NonparabolicError("a vanishes at x=%g" % x)
        signs.add(v > 0)
    if len(signs) != 1:
        raise NonparabolicError("a changes sign on the domain")
    root = _interior_root(a, eq.domain)
    if root is not None:
        raise NonparabolicError("a vanishes at x=%g" % root)
    flipped = not signs.pop()
    if flipped:
        # backward equation: t -> -t
        a, b, c = (E.simplify(E.mul(E.MINUS_ONE, e)) for e in (a, b, c))
    return a, b, c, flipped


# A computed root of multiplicity m is off by about eps^(1/m): double roots
# come out as complex pairs or real pairs about 1e-8 apart.
ROOT_TOL = 1e-6


def _interior_root(a, domain):
    """A real root of a inside the open domain when a is a polynomial with
    numeric coefficients, else None.  Roots within ROOT_TOL of the real
    axis count as real, and roots within ROOT_TOL of an endpoint as the
    endpoint."""
    poly = numeric_poly(a)
    if poly is None:
        return None
    lo, hi = domain
    for r in np.roots([float(c) for c in reversed(poly)]):
        x, tol = float(r.real), ROOT_TOL * max(1.0, abs(r))
        if abs(r.imag) <= tol and lo + tol < x < hi - tol:
            return x + 0.0                    # -0.0 prints as "-0"
    return None


def fokker_planck_equation(p, q, domain=(-math.inf, math.inf)):
    """u_t = (p u_x)_x + (q u)_x as a ParabolicEquation:
    a = p, b = p' + q, c = q'."""
    p = E.to_expr(p)
    q = E.to_expr(q)
    b = E.simplify(E.add(E.differentiate(p, VAR), q))
    c = E.differentiate(q, VAR)
    return ParabolicEquation(E.simplify(p), b, c, domain)


# ---------------------------------------------------------------------------
# one-variable function values (symbolic or sampled)

class Fn1:
    """A function of x with a symbolic derivative: a symbolic Expr, or a
    quadrature sampler of the derivative anchored at x_ref.  Pure:
    concurrent evaluation equals serial evaluation."""

    def __init__(self, derivative, expr=None, sampler=None, x_ref=None):
        if expr is None and sampler is None:
            raise ValueError("Fn1 needs an expression or a sampler")
        self.expr = expr
        self._sampler = sampler
        self.derivative = derivative
        self.x_ref = x_ref

    def __call__(self, x):
        if self.expr is not None:
            return E.evaluate(self.expr, {VAR: float(x)})
        return self._sampler(float(x))

    def d(self, x):
        """First derivative value."""
        return E.evaluate(self.derivative, {VAR: float(x)})

    def __repr__(self):
        if self.expr is not None:
            return "Fn1<%s>" % E.to_text(self.expr)
        return "Fn1<quadrature from x_ref=%g>" % self.x_ref


def quadrature_fn1(derivative_expr, domain, x_ref):
    """Antiderivative in x of `derivative_expr` from x_ref by adaptive
    quadrature (abs tol 1e-10), insetting 1e-8 from singular domain
    endpoints."""
    lo, hi = domain
    inset_lo = lo + 1e-8 if math.isfinite(lo) else -math.inf
    inset_hi = hi - 1e-8 if math.isfinite(hi) else math.inf

    def f(x):
        return E.evaluate(derivative_expr, {VAR: x})

    def sampler(x):
        x = min(max(x, inset_lo), inset_hi)
        val, _err = quad(f, x_ref, x, epsabs=1e-10, epsrel=1e-10, limit=200)
        return val

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
    lo, hi = window
    signs = set()
    for x in chebyshev_points(lo, hi, 9):
        try:
            v = E.evaluate(e, {VAR: x})
        except DomainError:
            return 0
        if v == 0:
            return 0
        signs.add(v > 0)
    if len(signs) != 1:
        return 0
    return 1 if signs.pop() else -1


def _half(ev):
    v = ev.value
    if isinstance(v, Fraction):
        return E.num(v / 2)
    return E.num(v / 2.0)


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

def numeric_poly(e):
    """Coefficients [c0, c1, ...] of e as a polynomial in x, exact where the
    tree's are, or None unless each is a number."""
    coeffs = E.as_polynomial(e, VAR)
    if coeffs is None:
        return None
    out = []
    for c in coeffs:
        if c.kind == "num":
            out.append(c.value)
        elif not E.free_symbols(c) - set(E.DEFAULT_BINDINGS):
            try:
                out.append(E.evaluate(c, {}))
            except DomainError:
                return None
        else:
            return None
    return out


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

