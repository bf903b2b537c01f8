"""Construction of the point transformation mapping a 6-dimensional equation
to the heat equation.

With K = c2 I^2 + c1 I + c0 and (q2, q1, q0) = (-c2, -c1, -c0), the
transformation is

    t~ = T(t),   x~ = sqrt(T') (I(x) + omega(t)),   u~ = theta(x, t) u,

where T solves the Schwarzian equation {T; t} = -8 q2 (a Moebius ratio over a
two-dimensional solution basis of Omega'' - 4 q2 Omega = 0), omega solves
omega'' - 4 q2 omega = -2 q1, and

    theta = nu(t) exp[-G(x)/2 - A(t) I^2 - (omega' + 4 A omega) I / 2],
    nu(t) = T'^{-1/4} exp[-A omega^2
                          - (1/4) int_0^t (4 q2 omega^2 + omega'^2 - 4 q0) ds],
    A(t)  = T''/(8 T'),   G(x) = int J/sqrt(a) dx.

If u~ solves the heat equation u~_t = u~_xx then u = u~/theta solves the
original equation; the pullback residual test below is the ground truth for
all sign conventions used here.

Every factor has a closed-form derivative, so the pullback's derivatives come
from the chain rule.  Write E = -G/2 - A I^2 - (omega' + 4 A omega) I/2 (the
exponent of theta), m = e^{-E}/nu and X = x~; with the jet (v, v_X, v_XX,
v_T) of the heat solution v = u~ at (X, T(t)),

    u_x  = m (v_X X_x - v E_x),
    u_xx = m (v_XX X_x^2 + v_X X_xx - 2 v_X X_x E_x + v (E_x^2 - E_xx)),
    u_t  = m (v_X X_t + v_T T' - v (E_t + (ln nu)')),

where X_x = sqrt(T') I', X_t = sqrt(T') (4 A (I + omega) + omega'),
I' = 1/sqrt(a), G' = J/sqrt(a), A' = (T''' T' - T''^2)/(8 T'^2),
omega'' = 4 q2 omega - 2 q1 and

    (ln nu)' = -T''/(4 T') - A' omega^2 - 2 A omega omega'
               - (4 q2 omega^2 + omega'^2 - 4 q0)/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.integrate import quad

from . import expr as E
from .expr import Expr, ParasymError, chebyshev_points
from .invariants import (DegenerateTransform, Fn1, base_point, numeric_poly,
                         probe_window, quadrature_fn1)


class NotReducible(ParasymError):
    """Equation is not 6-dimensional: no transformation to the heat equation."""


class SingularOnInterval(ParasymError):
    """No admissible Moebius branch free of singularities on the interval."""


T = "t"


# ---------------------------------------------------------------------------
# Schwarzian solutions

@dataclass
class MobiusMap:
    """T(t) = (k1 W1 + k2 W2)/(k3 W1 + k4 W2) over the Omega basis (W1, W2)
    of Omega'' = 4 q2 Omega, satisfying {T; t} = -8 q2 wherever T' != 0.

    branch: 'rational' (q2 = 0, basis (t, 1)), 'exponential' (q2 > 0, basis
    (e^{2 kappa t}, e^{-2 kappa t})), 'trigonometric' (q2 < 0, basis
    (sin 2 kappa t, cos 2 kappa t))."""

    k: tuple
    branch: str
    q2: float
    t_interval: tuple
    expr: Expr = field(default=None)
    _d1: Expr = field(default=None, repr=False)
    _d2: Expr = field(default=None, repr=False)
    _d3: Expr = field(default=None, repr=False)

    def __post_init__(self):
        k1, k2, k3, k4 = self.k
        if abs(k1 * k4 - k2 * k3) < 1e-14:
            raise SingularOnInterval("Moebius determinant vanishes")
        w1, w2 = _omega_basis(self.branch, self.q2)
        num = E.add(E.mul(E.num(k1), w1), E.mul(E.num(k2), w2))
        den = E.add(E.mul(E.num(k3), w1), E.mul(E.num(k4), w2))
        self.expr = E.simplify(E.div(num, den))
        self._d1 = E.differentiate(self.expr, T)
        self._d2 = E.differentiate(self._d1, T)
        self._d3 = E.differentiate(self._d2, T)

    def __call__(self, t):
        return E.evaluate(self.expr, {T: t})

    def d(self, t, order=1):
        e = (self._d1, self._d2, self._d3)[order - 1]
        return E.evaluate(e, {T: t})

    def schwarzian(self, t):
        d1, d2, d3 = self.d(t, 1), self.d(t, 2), self.d(t, 3)
        return d3 / d1 - 1.5 * (d2 / d1) ** 2

    def check(self):
        """Max |{T;t} + 8 q2| and min T' over 16 sample times."""
        lo, hi = self.t_interval
        worst, tp_min = 0.0, math.inf
        for t in chebyshev_points(lo, hi, 16):
            worst = max(worst, abs(self.schwarzian(t) + 8.0 * self.q2))
            tp_min = min(tp_min, self.d(t, 1))
        return worst, tp_min


def _omega_basis(branch, q2):
    t = E.sym(T)
    if branch == "rational":
        return t, E.ONE
    kappa = math.sqrt(abs(q2))
    arg = E.mul(E.num(2.0 * kappa), t)
    if branch == "exponential":
        return E.exp_(arg), E.exp_(E.neg(arg))
    if branch == "trigonometric":
        return E.fn("sin", arg), E.fn("cos", arg)
    raise ValueError("unknown branch %r" % branch)


def solve_schwarzian(q2, mode="default"):
    """A MobiusMap with {T; t} = -8 q2 and T' > 0 on its time window: (0.05,
    1) in kernel mode, else (-0.5, 0.5); when q2 < 0, +-0.45 pi/(8 kappa),
    or (0.05, min(1, 0.9 pi/(2 kappa))) in kernel mode.

    mode='default' gives the everywhere-regular representative (T = t,
    tanh(2 kappa t)/(2 kappa) or tan(2 kappa t)/(2 kappa)); mode='kernel'
    gives the pole-at-zero representative used for fundamental-solution
    construction (q2 > 0: T = -coth(2 kappa t)/(2 kappa) on t > 0; q2 < 0:
    T = -cot(2 kappa t)/(2 kappa) on 0 < t < pi/(2 kappa); q2 = 0:
    T = -1/t, the Appell inversion).  Raises SingularOnInterval when that
    representative fails its check on the window, or the window is empty.
    """
    q2 = float(q2)
    t_interval = (0.05, 1.0) if mode == "kernel" else (-0.5, 0.5)
    if q2 > 0:
        kappa = math.sqrt(q2)
        if mode == "kernel":
            # -coth(2 kappa t)/(2 kappa): T' = csch^2 > 0, pole at t=0
            k = (-1 / (2 * kappa), -1 / (2 * kappa), 1.0, -1.0)
        else:
            # tanh(2 kappa t)/(2 kappa): T' = sech^2 > 0 everywhere
            k = (1 / (2 * kappa), -1 / (2 * kappa), 1.0, 1.0)
        branch = "exponential"
    elif q2 < 0:
        kappa = math.sqrt(-q2)
        if mode == "kernel":
            # -cot(2 kappa t)/(2 kappa) over the basis (sin 2kt, cos 2kt):
            # T' = csc^2 > 0, poles at t = 0 and t = pi/(2 kappa)
            t_interval = (0.05, min(1.0, 0.9 * math.pi / (2 * kappa)))
            if t_interval[1] <= t_interval[0]:
                raise SingularOnInterval(
                    "no admissible branch: the kernel window (0.05, %.3g) "
                    "is empty" % t_interval[1])
            k = (0.0, -1 / (2 * kappa), 1.0, 0.0)
        else:
            width = math.pi / (8 * kappa)
            t_interval = (-0.45 * width, 0.45 * width)
            # tan(2 kappa t)/(2 kappa) over the basis (sin 2kt, cos 2kt)
            k = (1 / (2 * kappa), 0.0, 0.0, 1.0)
        branch = "trigonometric"
    else:
        # T = -1/t in kernel mode, else T = t
        k = (0.0, -1.0, 1.0, 0.0) if mode == "kernel" else (1.0, 0.0, 0.0, 1.0)
        branch = "rational"

    try:
        m = MobiusMap(k, branch, q2, t_interval)
        worst, tp_min = m.check()
    except (E.DomainError, ZeroDivisionError) as exc:
        raise SingularOnInterval("no admissible branch on %s: %s"
                                 % (t_interval, exc)) from exc
    if worst <= 1e-8 * (1 + 8 * abs(q2)) and tp_min > 0:
        return m
    raise SingularOnInterval(
        "no admissible branch on %s (residual/T'min: %s)"
        % (t_interval, (worst, tp_min)))


# ---------------------------------------------------------------------------
# antiderivatives in x for the multiplier exponent

def antiderivative_x(e):
    """Closed-form antiderivative of e in x from a small rule table,
    or None."""
    e = E.simplify(e)
    out = _anti(e)
    return E.simplify(out) if out is not None else None


def _anti(e):
    x = E.sym("x")
    if not E.contains_symbol(e, "x"):
        return E.mul(e, x)
    if e.kind == "add":
        parts = []
        for a in e.args:
            p = _anti(a)
            if p is None:
                return None
            parts.append(p)
        return Expr("add", parts)
    if e.kind == "mul":
        const, rest = [], []
        for f in e.args:
            (const if not E.contains_symbol(f, "x") else rest).append(f)
        if const and rest:
            inner = rest[0] if len(rest) == 1 else Expr("mul", rest)
            p = _anti(E.simplify(inner))
            if p is None:
                return None
            return Expr("mul", const + [p])
        return _anti_line(e, x)
    if e.kind == "sym":
        return E.mul(E.HALF, E.pow_(x, 2))
    if e.kind == "pow":
        b, ex = e.args
        lin = _line(b)
        if lin is None or not E.is_num(ex):
            return _anti_line(e, x)
        alpha = lin[1]
        g = ex.value
        if g == -1:
            return E.div(E.log_(E.fn("abs", b)), E.num(alpha))
        gp1 = g + 1 if not isinstance(g, float) else g + 1.0
        return E.div(E.pow_(b, E.num(gp1)), E.mul(E.num(alpha), E.num(gp1)))
    if e.kind in ("exp", "sin", "cos", "sinh", "cosh", "tanh"):
        lin = _line(e.args[0])
        if lin is None:
            return None
        alpha = lin[1]
        inner = e.args[0]
        table = {
            "exp": E.exp_(inner),
            "sin": E.neg(E.fn("cos", inner)),
            "cos": E.fn("sin", inner),
            "sinh": E.fn("cosh", inner),
            "cosh": E.fn("sinh", inner),
            "tanh": E.log_(E.fn("cosh", inner)),
        }
        return E.div(table[e.kind], E.num(alpha))
    return _anti_line(e, x)


def _line(e):
    """[const, slope] as floats when e is linear in x with numeric
    coefficients and a nonzero slope, else None."""
    poly = numeric_poly(e)
    if poly is None or len(poly) != 2 or poly[1] == 0:
        return None
    return [float(v) for v in poly]


def _anti_line(e, x):
    """beta x + alpha x^2/2 when e = beta + alpha x as in _line, else None."""
    lin = _line(e)
    if lin is None:
        return None
    beta, alpha = lin
    return E.add(E.mul(E.num(beta), x),
                 E.mul(E.num(alpha), E.HALF, E.pow_(x, 2)))


# ---------------------------------------------------------------------------
# the transform object

def _omega_exprs(q2, q1, source_I0=None):
    """omega(t) solving omega'' - 4 q2 omega = -2 q1; with a source point,
    homogeneous terms are added so omega(0) = -I0 and omega'(0) = 0."""
    t = E.sym(T)
    if q2 != 0:
        wp = q1 / (2.0 * q2)
        omega = E.num(wp)
        if source_I0 is not None:
            amp = -source_I0 - wp
            kappa = math.sqrt(abs(q2))
            arg = E.mul(E.num(2.0 * kappa), t)
            osc = E.fn("cosh", arg) if q2 > 0 else E.fn("cos", arg)
            omega = E.add(omega, E.mul(E.num(amp), osc))
    else:
        omega = E.mul(E.num(-float(q1)), E.pow_(t, 2)) if q1 else E.ZERO
        if source_I0 is not None:
            omega = E.add(omega, E.num(-source_I0))
    return E.simplify(omega)


class HeatTransform:
    """Immutable transformation (T, omega, nu, theta) to the heat equation.

    Built from a dim-6 classification; `source_point` seeds omega for
    fundamental-solution construction (omega(0) = -I(y), omega'(0) = 0).
    The factors of t alone and of x alone are computed once per distinct
    point and kept on the instance, so they live as long as it does.
    """

    def __init__(self, cls, inv, mode="default", source_point=None):
        if cls.dim != 6:
            raise NotReducible("dim=%d equation cannot be mapped to the heat "
                               "equation" % cls.dim)
        c2 = cls.constants.get("c2", 0.0)
        c1 = cls.constants.get("c1", 0.0)
        c0 = cls.constants.get("c0", 0.0)
        self.q = (-c2, -c1, -c0)
        self.inv = inv
        q2, q1, q0 = self.q
        self.mobius = solve_schwarzian(q2, mode)
        self.t_interval = self.mobius.t_interval
        I0 = None if source_point is None else inv.I(source_point)
        self.omega_expr = _omega_exprs(q2, q1, I0)
        self.domega_expr = E.differentiate(self.omega_expr, T) \
            if E.contains_symbol(self.omega_expr, T) else E.ZERO
        # nu-exponent integrand 4 q2 w^2 + w'^2 - 4 q0, as an Expr in t
        self.nu_integrand = E.simplify(E.add(
            E.mul(E.num(4.0 * q2), E.pow_(self.omega_expr, 2)),
            E.pow_(self.domega_expr, 2),
            E.num(-4.0 * q0)))
        self._nu_int_poly = E.as_polynomial(self.nu_integrand, T)
        if self._nu_int_poly is not None and \
                any(E.free_symbols(c) for c in self._nu_int_poly):
            self._nu_int_poly = None
        # G(x) = int J/sqrt(a) dx
        integrand = E.simplify(E.div(inv.J, inv.sqrt_a))
        Gexpr = antiderivative_x(integrand)
        if Gexpr is not None:
            self.G = Fn1(integrand, expr=Gexpr)
        else:
            self.G = quadrature_fn1(integrand, inv.domain,
                                    base_point(inv.domain))
        self._d2I = E.differentiate(inv.I.derivative)
        self._d2G = E.differentiate(integrand)
        self._t_records = {}
        self._x_records = {}

    # -- scalar pieces ----------------------------------------------------
    def _at_t(self, t):
        """(T, sqrt T', A, omega, omega', nu, T', A', omega'', (ln nu)') at
        t."""
        rec = self._t_records.get(t)
        if rec is None:
            rec = self._t_records[t] = self._time_factors(t)
        return rec

    def _at_x(self, x):
        """(I, G, I', I'', G', G'') at x."""
        rec = self._x_records.get(x)
        if rec is None:
            env = {"x": x}
            rec = self._x_records[x] = (
                self.inv.I(x), self.G(x),
                self.inv.I.d(x), E.evaluate(self._d2I, env),
                self.G.d(x), E.evaluate(self._d2G, env))
        return rec

    def _time_factors(self, t):
        mob = self.mobius
        dT = mob.d(t, 1)
        if dT <= 0:
            raise DegenerateTransform("T'(%g) = %g <= 0" % (t, dT))
        d2T, d3T = mob.d(t, 2), mob.d(t, 3)
        A = d2T / (8.0 * dT)
        dA = (d3T * dT - d2T * d2T) / (8.0 * dT * dT)
        w = E.evaluate(self.omega_expr, {T: t})
        dw = E.evaluate(self.domega_expr, {T: t}) \
            if self.domega_expr is not E.ZERO else 0.0
        q2, q1, _ = self.q
        d2w = 4.0 * q2 * w - 2.0 * q1
        nu = dT ** -0.25 * math.exp(-A * w * w - 0.25 * self._Q(t))
        dlog_nu = (-d2T / (4.0 * dT) - dA * w * w - 2.0 * A * w * dw
                   - 0.25 * E.evaluate(self.nu_integrand, {T: t}))
        return mob(t), math.sqrt(dT), A, w, dw, nu, dT, dA, d2w, dlog_nu

    def _Q(self, t):
        """int_0^t of the nu-exponent integrand."""
        if self._nu_int_poly is not None:
            total = 0.0
            for n, cexpr in enumerate(self._nu_int_poly):
                total += E.evaluate(cexpr, {}) * t ** (n + 1) / (n + 1)
            return total
        f = lambda s: E.evaluate(self.nu_integrand, {T: s})
        val, _ = quad(f, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
        return val

    def t_tilde(self, t):
        return self._at_t(t)[0]

    def x_tilde(self, x, t):
        _, sqrt_dT, _, w, *_ = self._at_t(t)
        return sqrt_dT * (self._at_x(x)[0] + w)

    def theta(self, x, t):
        _, _, At, w, dw, nu, *_ = self._at_t(t)
        Iv, Gv, *_ = self._at_x(x)
        expo = (-0.5 * Gv - At * Iv * Iv - 0.5 * (dw + 4.0 * At * w) * Iv)
        return nu * math.exp(expo)

    def pullback_jet(self, v_jet):
        """(x, t) -> (u, u_x, u_xx, u_t) of u = v(x~, t~)/theta, by the chain
        rule of the module docstring, where v_jet(X, T) gives (v, v_X, v_XX,
        v_T) of a heat solution v."""
        def jet(x, t):
            Tt, s, A, w, dw, nu, dT, dA, d2w, dlog_nu = self._at_t(t)
            Iv, Gv, dI, d2I, dG, d2G = self._at_x(x)
            v, vX, vXX, vT = v_jet(s * (Iv + w), Tt)
            B = dw + 4.0 * A * w
            Ex = -0.5 * dG - 2.0 * A * Iv * dI - 0.5 * B * dI
            Exx = -0.5 * d2G - 2.0 * A * (dI * dI + Iv * d2I) - 0.5 * B * d2I
            Et = -dA * Iv * Iv - 0.5 * (d2w + 4.0 * (dA * w + A * dw)) * Iv
            m = math.exp(0.5 * Gv + A * Iv * Iv + 0.5 * B * Iv) / nu
            Xx, Xxx = s * dI, s * d2I
            Xt = s * (4.0 * A * (Iv + w) + dw)
            return (m * v,
                    m * (vX * Xx - v * Ex),
                    m * (vXX * Xx * Xx + vX * Xxx - 2.0 * vX * Xx * Ex
                         + v * (Ex * Ex - Exx)),
                    m * (vX * Xt + vT * dT - v * (Et + dlog_nu)))
        return jet

    def describe(self):
        parts = {
            "T": E.to_text(self.mobius.expr),
            "omega": E.to_text(self.omega_expr),
            "branch": self.mobius.branch,
            "q2": self.q[0], "q1": self.q[1], "q0": self.q[2],
        }
        if self.G.expr is not None:
            parts["G"] = E.to_text(self.G.expr)
        return parts


def build_heat_transform(cls, inv, mode="default", source_point=None):
    """Construct the transformation for a dim-6 classification.

    Raises NotReducible when cls.dim != 6.
    """
    return HeatTransform(cls, inv, mode=mode, source_point=source_point)


def map_solution(ht, u_tilde):
    """Pull a heat-equation solution u~(x~, t~) back to a solution
    u(x, t) = u~(x~(x,t), T(t)) / theta(x, t) of the original equation."""
    def u(x, t):
        return u_tilde(ht.x_tilde(x, t), ht.t_tilde(t)) / ht.theta(x, t)
    return u


# ---------------------------------------------------------------------------
# pullback verification

def _exp_jet(x, t):
    v = math.exp(x + t)
    return v, v, v, v


# heat solutions v(X, T) as jets (v, v_X, v_XX, v_T)
HEAT_SOLUTIONS = (
    ("1", lambda x, t: (1.0, 0.0, 0.0, 0.0)),
    ("x", lambda x, t: (x, 1.0, 0.0, 0.0)),
    ("x^2+2t", lambda x, t: (x * x + 2.0 * t, 2.0 * x, 2.0, 2.0)),
    ("exp(x+t)", _exp_jet),
)


def pde_residual(inv, jet, n=21, t_interval=(0.05, 0.45)):
    """Max relative residual of u_t - a u_xx - b u_x - c u on an n-by-n grid,
    where `jet(x, t)` gives (u, u_x, u_xx, u_t) and a, b, c and the domain
    are the normalized ones held by the invariant triple `inv`."""
    a, b, c = inv.a, inv.b, inv.c
    lo, hi = probe_window(inv.domain)
    t0, t1 = t_interval
    worst = 0.0
    for i in range(n):
        x = lo + (hi - lo) * i / (n - 1)
        av = E.evaluate(a, {"x": x})
        bv = E.evaluate(b, {"x": x})
        cv = E.evaluate(c, {"x": x})
        for j in range(n):
            t = t0 + (t1 - t0) * j / (n - 1)
            uv, ux, uxx, ut = jet(x, t)
            resid = ut - av * uxx - bv * ux - cv * uv
            scale = abs(ut) + abs(av * uxx) + abs(bv * ux) + abs(cv * uv) \
                + abs(uv) + 1.0
            worst = max(worst, abs(resid) / scale)
    return worst


def verify_pullback(ht, n=21):
    """Map each heat solution of HEAT_SOLUTIONS through the transform and
    measure the PDE residual of the result from its exact jet, against the
    equation the transform was built from.  Returns {name: residual}.

    Raises DomainError when a pulled-back solution overflows on the grid, or
    its multiplier's normalization underflows to 0."""
    lo, hi = ht.t_interval
    span = hi - lo
    t_int = (lo + 0.25 * span, hi - 0.25 * span)
    out = {}
    for name, v_jet in HEAT_SOLUTIONS:
        try:
            out[name] = pde_residual(ht.inv, ht.pullback_jet(v_jet), n=n,
                                     t_interval=t_int)
        except (OverflowError, ZeroDivisionError) as exc:
            raise E.DomainError("pullback of the heat solution %s: %s"
                                % (name, exc)) from exc
    return out
