"""Closed-form heat-kernel catalog with uniform numeric verification.

Twelve catalog entries, each given as data: the kernel as a symbolic
expression, the coefficients of the PDE it solves, the points where that PDE is
checked, an analytic normalization target, and a mass function.  A builder
states only what differs between entries: the formula, coefficients, grids,
source and an integration window.  The trees hold an entry's constants as
symbols (`y`, `beta`, `sigma`, ..., radial's half-dimension `h`), so each
formula's kernel and coefficient trees are built once per process, on its
first draw, and a draw only binds the values: `KernelEntry.bindings` joins
every environment in which the trees are evaluated.  The PDE residual
therefore differentiates and compiles each formula once.  Nine entries
integrate along one axis through `_line_mass`, the two separable ones axis
by axis through `_product_mass`, and black_scholes in log space.  A mass
binds its tree once per time by `expr.function_of` (heat2d_timedep's rule:
one `evaluate_many` call per axis); radial, second_canonical and ou_nonfp,
whose trees over- or underflow at small t, integrate a stable pointwise form
(scaled Bessel function, cosh split into two Gaussians).  One generic
verifier covers them all: symbolic PDE residual at the sample points,
quadrature normalization at several times, and a delta-initial-condition
limit with a Gaussian test bump.  `appell_spread` derives the five
one-dimensional whole-line kernels of APPELL_ENTRIES a second way, by the
Appell route: the constant heat solution pulled back through the
kernel-mode heat transform of the entry's own equation, whose coefficients
get the draw's constants substituted.

Where the source formulas were internally inconsistent, the implemented
variant is the one that passes the residual and delta-limit checks:

- linear potential (1-D and n-D): the (x+y) exponent term carries the same
  sign as the potential coefficient (kernel for u_t = u_xx + beta*x*u has
  +beta*t*(x+y)/2);
- Ornstein-Uhlenbeck transition density: the mean decays, exp(-b t) * y;
- Mehler kernels: the hyperbolic form solves u_t = u_xx - x^2 u and the
  trigonometric form solves u_t = u_xx + x^2 u;
- 2-D time-dependent kernel: both squared differences in the exponent are
  divided by 4(t - t0).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as E
from .expr import Check, Expr, NonconvergentQuadrature, ParasymError
from .special import ive
from .invariants import ParabolicEquation, compute_invariants
from .classify import classify
from .transform import build_heat_transform, map_solution
from .parser import parse_expression


class UnknownKernel(ParasymError):
    """No catalog entry under that name."""


class ConstraintViolation(ParasymError):
    """Entry-specific parameter constraint violated."""


class OutOfFloatRange(ParasymError):
    """An entry's formulas overflow, or divide by zero, in floats at its
    constants."""


_SEED = 20250823


def _quad(f, lo, hi, points=None):
    # the ends' rounding must leave the width within 2^-10 of itself
    if not hi - lo > 1024 * math.ulp(max(abs(lo), abs(hi))):
        raise NonconvergentQuadrature(
            "window [%.17g, %.17g] is too narrow for its floats" % (lo, hi))
    kw = {"epsabs": 1e-11, "epsrel": 1e-11, "limit": 300}
    if points:
        pts = [p for p in points if lo < p < hi]
        if pts:
            kw["points"] = pts
    from scipy.integrate import quad
    # full_output makes quad return its warning, if any, not print it
    val, err, _, *warning = quad(f, lo, hi, full_output=1, **kw)
    if warning or not (math.isfinite(val) and err <= 1e-7 * (1 + abs(val))):
        raise NonconvergentQuadrature(
            "quadrature error %.2e for value %.6g%s" % (err, val, "".join(
                ": " + " ".join(w.split()) for w in warning)))
    return val


def _mass_quad(f, phi, source, lo, hi, points):
    """Integral of f over [lo, hi]; with a test bump phi, of f times phi at
    the offset from the source."""
    if phi is None:
        return _quad(f, lo, hi, points)
    return _quad(lambda v: f(v) * phi(v - source), lo, hi, points)


@functools.cache
def _gl_rule():
    """Nodes and weights of the 120-node Gauss-Legendre rule on [-1, 1],
    computed on first use."""
    return np.polynomial.legendre.leggauss(120)


def _gl_mass(K, s, env, phi, source, lo, hi):
    """_mass_quad's integral along s by the fixed 120-node Gauss-Legendre
    rule.  Nodes that overflow or collapse in floats are refused."""
    nodes, weights = _gl_rule()
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    if not np.isfinite(x).all():
        raise OverflowError("nodes on [%g, %g] overflow" % (lo, hi))
    if not (np.diff(x) > 0).all():
        raise NonconvergentQuadrature(
            "quadrature nodes on [%.17g, %.17g] collapse in floats"
            % (lo, hi))
    w = 0.5 * (hi - lo) * weights
    # Python floats, not numpy scalars: the same IEEE sums, done faster
    rows = E.evaluate_many((K,), [{**env, s: v} for v in x.tolist()])
    return sum(wi * (fi * phi(xi - source) if phi else fi)
               for (fi,), xi, wi in zip(rows, x.tolist(), w.tolist()))


def _line_mass(f, source, window, bindings=()):
    """mass(t, phi=None) of a tree f in x and t, its constants bound by
    `bindings`, or of a stable form f(v, t), by _mass_quad over the (lo, hi,
    breakpoints) that window(t, phi) gives."""
    def mass(t, phi=None):
        g = (E.function_of(f, "x", dict(bindings, t=t)) if isinstance(f, Expr)
             else lambda v: f(v, t))
        return _mass_quad(g, phi, source, *window(t, phi))
    return mass


def _product_mass(K, bindings, source, window, rule):
    """mass(t, phi=None) of a kernel K, its constants bound by `bindings`,
    that is a product of one factor per axis of `source` (symbol -> source
    value) and a factor of t: integrate one axis at a time through the
    source by rule(K, axis, environment, phi, source value, *limits), with
    window(t, phi) giving the limits per axis, then divide out the other
    axes' factors there."""
    def mass(t, phi=None):
        at = dict(bindings, **source, t=t)
        total = 1.0
        for (s, s0), limits in zip(source.items(), window(t, phi)):
            total *= rule(K, s, at, phi, s0, *limits)
        return total / E.evaluate(K, at) ** (len(source) - 1)
    return mass


def _bump(width):
    """Gaussian test bump of an offset; exactly 1.0 at offset 0."""
    s2 = 2.0 * width * width

    def phi(d):
        return math.exp(-d ** 2 / s2)

    return phi


def _grid_points(names, *axes):
    """Every combination of the axis values as an environment, the last axis
    varying fastest."""
    return [dict(zip(names, p)) for p in itertools.product(*axes)]


# catalog key -> the trees its build() returned, kept for the process
_TREES = {}


def _once(key, build):
    """The trees of a catalog formula: build() on the first use of `key`,
    the same trees on every later draw."""
    trees = _TREES.get(key)
    if trees is None:
        trees = _TREES[key] = build()
    return trees


_X = E.sym("x")


# ---------------------------------------------------------------------------
# entry type

@dataclass
class KernelEntry:
    """One catalog entry.  The kernel solves

        u_t = sum over s of (a_s u_ss + b_s u_s) + c u

    with `diffusion` mapping each spatial symbol s to (a_s, b_s) and
    `potential` holding c; any coefficient may depend on t.  The trees hold
    the draw's constants as symbols, and `bindings` gives their values."""
    name: str
    description: str
    constants: dict
    expr: Expr                     # closed-form kernel
    bindings: dict                 # constant symbol -> value, in every
                                   # environment of expr and the coefficients
    equation: str                  # human-readable PDE
    residual_points: list          # environments where the PDE is checked
    norm_t_list: tuple
    mass: object                   # (t, phi=None) -> integral of the kernel,
                                   # times phi(offset from the source)
    domain: tuple = (-math.inf, math.inf)
    diffusion: dict = field(default_factory=lambda: {"x": (E.ONE, E.ZERO)})
    potential: Expr = E.ZERO
    normalization_target: object = lambda t: 1.0  # t -> expected mass; at
                                   # t = 0, the delta initial value's weight
    args: tuple = ("x", "t")       # evaluate's positional arguments
    stable: object = None          # pointwise form in `args` for a tree that
                                   # over- or underflows at small t
    delta_t_list: tuple = (1e-2, 1e-3, 1e-4)
    delta_width: float = 0.5       # test-bump width for the delta limit

    def evaluate(self, *args):
        """The kernel at the values of `args`: by the stable form where the
        entry has one, else from the tree."""
        if self.stable:
            return self.stable(*args)
        return E.evaluate(self.expr,
                          {**self.bindings, **dict(zip(self.args, args))})


# ---------------------------------------------------------------------------
# catalog builders

def _build_heat_1d(c):
    y = c["y"]
    Kb = _once("heat_1d", lambda: parse_expression(
        "(4*pi*t)^(-1/2) * exp(-((x - y)^2 / (4*t)))",
        declared=("x", "t", "y")))
    bind = {"y": y}
    return KernelEntry(
        name="heat_1d",
        description="fundamental solution of the heat equation",
        constants=dict(c), expr=Kb, bindings=bind, equation="u_t = u_xx",
        residual_points=_grid_points(("t", "x"), E.grid(0.1, 2.0, 7),
                                     E.grid(y - 3, y + 3, 9)),
        norm_t_list=(0.01, 0.1, 1.0),
        mass=_line_mass(Kb, y, lambda t, phi: (
            y - 40 * math.sqrt(t) - 2, y + 40 * math.sqrt(t) + 2, [y]), bind))


def _build_linear_potential(c):
    beta, y = c["beta"], c["y"]
    Kb, potential = _once("linear_potential", lambda: (parse_expression(
        "(4*pi*t)^(-1/2) * exp(-((x - y)^2/(4*t)) + beta^2*t^3/12"
        " + beta*t*(x + y)/2)", declared=("x", "t", "y", "beta")),
        E.sym("beta") * _X))
    bind = {"beta": beta, "y": y}

    def window(t, phi):
        # the bump confines the delta integral to a few widths of the source
        if phi:
            return y - 3, y + 3, [y]
        return y - 40 * math.sqrt(t) - 3, y + 40 * math.sqrt(t) + 3, [y]

    return KernelEntry(
        name="linear_potential",
        description="heat kernel with linear potential",
        constants=dict(c), expr=Kb, bindings=bind,
        equation="u_t = u_xx + beta*x*u", potential=potential,
        residual_points=_grid_points(("t", "x"), E.grid(0.1, 1.0, 7),
                                     E.grid(y - 3, y + 3, 9)),
        normalization_target=lambda t: math.exp(
            beta * beta * t ** 3 / 3 + beta * t * y),
        norm_t_list=(0.05, 0.2, 0.5),
        mass=_line_mass(Kb, y, window, bind))


def _mehler(c, trig):
    y = c["y"]
    if trig:
        src = ("(2*pi*sin(2*t))^(-1/2) * "
               "exp(-(cos(2*t)*(x^2 + y^2) - 2*x*y)/(2*sin(2*t)))")
        sign, name = 1.0, "mehler_trigonometric"
        equation = "u_t = u_xx + x^2 u"

        def target(t):
            return math.cos(2 * t) ** -0.5 * math.exp(
                y * y * math.tan(2 * t) / 2)

        t_res = E.grid(0.05, 0.7, 7)       # the kernel holds for t < pi/4
        t_norm = (0.05, 0.15, 0.3)
    else:
        src = ("(2*pi*sinh(2*t))^(-1/2) * "
               "exp(-(cosh(2*t)*(x^2 + y^2) - 2*x*y)/(2*sinh(2*t)))")
        sign, name = -1.0, "mehler_hyperbolic"
        equation = "u_t = u_xx - x^2 u"

        def target(t):
            return math.cosh(2 * t) ** -0.5 * math.exp(
                -y * y * math.tanh(2 * t) / 2)

        t_res = E.grid(0.1, 1.5, 7)
        t_norm = (0.05, 0.2, 0.5)
    Kb, potential = _once(name, lambda: (
        parse_expression(src, declared=("x", "t", "y")),
        E.num(sign) * _X * _X))
    bind = {"y": y}
    return KernelEntry(
        name=name, description="Mehler kernel (quadratic potential)",
        constants=dict(c), expr=Kb, bindings=bind, equation=equation,
        potential=potential,
        residual_points=_grid_points(("t", "x"), t_res,
                                     E.grid(-2.5, 2.5, 9)),
        normalization_target=target, norm_t_list=t_norm,
        # the bump confines the delta integral to a few widths of the source
        mass=_line_mass(Kb, y, lambda t, phi: (
            (y - 3, y + 3, [y]) if phi else (y - 45, y + 45, [y, 0.0])),
            bind))


def _linear_potential_nd_trees(n):
    """Kernel, diffusion and potential in x1..xn, t and the constants
    b1..bn, y1..yn."""
    ks = range(1, n + 1)
    terms = " + ".join("-((x%d - y%d)^2/(4*t)) + b%d^2*t^3/12"
                       " + b%d*t*(x%d + y%d)/2" % ((k,) * 6) for k in ks)
    names = ["t"] + ["%s%d" % (s, k) for k in ks for s in "xby"]
    return (parse_expression("(4*pi*t)^(-%d/2) * exp(%s)" % (n, terms),
                             declared=names),
            {"x%d" % k: (E.ONE, E.ZERO) for k in ks},
            E.add(*(E.sym("b%d" % k) * E.sym("x%d" % k) for k in ks)))


def _build_linear_potential_nd(c):
    if c["n"] not in (1, 2, 3, 4):
        raise ConstraintViolation("linear_potential_nd needs an integer n "
                                  "in 1..4, got %r" % (c["n"],))
    n = int(c["n"])
    bs, ys = (v if isinstance(v, tuple) else (v,) for v in (c["b"], c["y"]))
    if min(len(bs), len(ys)) < n:
        raise ConstraintViolation("linear_potential_nd with n = %d needs %d "
                                  "comma-separated values of b and of y"
                                  % (n, n))
    bs = tuple(float(v) for v in bs)[:n]
    ys = tuple(float(v) for v in ys)[:n]
    xsyms = tuple("x%d" % (k + 1) for k in range(n))
    K, diffusion, potential = _once(("linear_potential_nd", n),
                                    lambda: _linear_potential_nd_trees(n))
    bind = {"%s%d" % (s, k + 1): v for s, vs in (("b", bs), ("y", ys))
            for k, v in enumerate(vs)}

    def window(t, phi):
        w = 4 if phi else 25        # the bump confines the delta integral
        return [(yk - w, yk + w, [yk]) for yk in ys]

    rng = np.random.default_rng(_SEED)
    points = []
    for t in E.grid(0.1, 0.8, 4):
        for _ in range(12):
            p = {s: yk + rng.uniform(-2, 2) for s, yk in zip(xsyms, ys)}
            p["t"] = t
            points.append(p)

    def target(t):
        return math.exp(sum(bk * bk * t ** 3 / 3 + bk * t * yk
                            for bk, yk in zip(bs, ys)))

    return KernelEntry(
        name="linear_potential_nd",
        description="n-dimensional heat kernel with linear potential",
        constants=dict(c), expr=K, bindings=bind,
        equation="u_t = Lap u + (sum b_k x_k) u",
        diffusion=diffusion, potential=potential, residual_points=points,
        normalization_target=target, norm_t_list=(0.05, 0.15, 0.3),
        mass=_product_mass(K, bind, dict(zip(xsyms, ys)), window,
                           lambda K, s, env, *rest: _mass_quad(
                               E.function_of(K, s, env), *rest)),
        args=xsyms + ("t",))


def _radial_gaussian_trees():
    """Kernel, diffusion and the kernel times S_k x^k in x, t and the
    constants k and S_k."""
    Kb = parse_expression("(4*pi*t)^(-(k + 1)/2) * exp(-(x^2/(4*t)))",
                          declared=("x", "t", "k"))
    k = E.sym("k")
    return Kb, {"x": (E.ONE, k / _X)}, E.mul(Kb, E.sym("S_k"), E.pow_(_X, k))


def _build_radial_gaussian(c):
    k = float(c["k"])
    if k <= 0:
        raise ConstraintViolation("radial_gaussian needs k > 0")
    n = k + 1.0
    Kb, diffusion, weighted = _once("radial_gaussian", _radial_gaussian_trees)
    # the mass is taken against the surface measure S_k x^k dx of R^(k+1)
    bind = {"k": k, "S_k": 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)}
    return KernelEntry(
        name="radial_gaussian",
        description="origin-source elementary kernel of the radial heat "
                    "equation",
        constants=dict(c), expr=Kb, bindings=bind,
        equation="u_t = u_xx + (k/x) u_x", domain=(0.0, math.inf),
        diffusion=diffusion,
        residual_points=_grid_points(("t", "x"), E.grid(0.1, 1.0, 7),
                                     E.grid(0.2, 3.0, 9)),
        norm_t_list=(0.05, 0.2, 0.5),
        mass=_line_mass(weighted, 0.0, lambda t, phi: (
            1e-12, 40 * math.sqrt(t) + 1, [math.sqrt(t)]), bind),
        delta_width=0.8)


def _radial_trees():
    """Kernel and diffusion in x, t, y and the half-dimension h = n/2."""
    x, t, y, h = map(E.sym, ("x", "t", "y", "h"))
    K = Expr("mul", (
        E.div(E.ONE, E.mul(E.num(2), t)),
        E.pow_(x, E.add(E.ONE, E.neg(h))),
        E.pow_(y, h),
        E.exp_(E.div(E.neg(E.add(E.pow_(x, 2), E.pow_(y, 2))),
                     E.mul(E.num(4), t))),
        E.besseli(E.add(h, E.MINUS_ONE),
                  E.div(E.mul(y, x), E.mul(E.num(2), t)))))
    return E.simplify(K), {"x": (E.ONE, (E.num(2) * h - 1.0) / _X)}


def _build_radial(c):
    n, y, x0 = float(c["n"]), float(c["y"]), float(c["x"])
    if n < 2:
        raise ConstraintViolation("radial (Bessel) entry needs n >= 2")
    if y <= 0 or x0 <= 0:
        raise ConstraintViolation("points x and y must be positive")
    nu = n / 2.0 - 1.0
    K, diffusion = _once("radial", _radial_trees)

    def ev2(x, t, yv):
        # scaled-Bessel form, stable for small t
        z = x * yv / (2.0 * t)
        return (x ** (1.0 - n / 2.0) * yv ** (n / 2.0) / (2.0 * t)
                * ive(nu, z) * math.exp(-(x - yv) ** 2 / (4.0 * t)))

    def window(t, phi):
        w = 40 * math.sqrt(t) + 1
        return max(1e-12, x0 - w), x0 + w, [x0]

    return KernelEntry(
        name="radial",
        description="fundamental solution of the n-dimensional radial "
                    "heat equation (Bessel form)",
        constants=dict(c), expr=K, bindings={"h": n / 2.0},
        equation="u_t = u_xx + ((n-1)/x) u_x", domain=(0.0, math.inf),
        diffusion=diffusion,
        residual_points=_grid_points(("t", "x", "y"), E.grid(0.15, 0.8, 5),
                                     E.grid(0.3, 2.5, 9), [y]),
        norm_t_list=(0.05, 0.2, 0.5),
        # conservation holds in the source variable: the kernel averages
        # initial data, so constants are preserved exactly
        mass=_line_mass(lambda yv, t: ev2(x0, t, yv), x0, window),
        args=("x", "t", "y"), stable=ev2)


def _second_canonical_trees():
    """Kernel and potential in x, t and the constants y, nu, mu."""
    x, t, y, nu = map(E.sym, ("x", "t", "y", "nu"))
    K = Expr("mul", (
        E.div(E.sqrt_(E.mul(x, y)), E.mul(E.num(2), t)),
        E.exp_(E.div(E.neg(E.add(E.pow_(x, 2), E.pow_(y, 2))),
                     E.mul(E.num(4), t))),
        E.besseli(nu, E.div(E.mul(y, x), E.mul(E.num(2), t)))))
    return E.simplify(K), E.sym("mu") / (_X * _X)


def _build_second_canonical(c):
    mu, y = float(c["mu"]), float(c["y"])
    if mu > 0.25:
        raise ConstraintViolation("second_canonical needs mu <= 1/4")
    if y <= 0:
        raise ConstraintViolation("source point y must be positive")
    nu = math.sqrt(1.0 - 4.0 * mu) / 2.0
    K, potential = _once("second_canonical", _second_canonical_trees)

    def ev(x, t):
        z = x * y / (2.0 * t)
        return (math.sqrt(x * y) / (2.0 * t) * ive(nu, z)
                * math.exp(-(x - y) ** 2 / (4.0 * t)))

    def window(t, phi):
        w = 40 * math.sqrt(t) + 0.5
        return max(1e-14, y - w), y + w, [y]

    return KernelEntry(
        name="second_canonical",
        description="fundamental solution of the second canonical form "
                    "(inverse-square potential)",
        constants=dict(c), expr=K, bindings={"nu": nu, "mu": mu, "y": y},
        equation="u_t = u_xx + (mu/x^2) u", domain=(0.0, math.inf),
        potential=potential,
        residual_points=_grid_points(("t", "x"), E.grid(0.15, 0.8, 5),
                                     E.grid(0.3, 2.5, 9)),
        # for mu != 0 the half-line kernel loses mass at rate O(t/y^2):
        # the mass is 1 only in the limit t -> 0
        norm_t_list=(2.5e-7, 1e-7, 5e-8),
        delta_t_list=(1e-4, 1e-5, 1e-6),
        mass=_line_mass(ev, y, window), stable=ev)


def _black_scholes_trees():
    """Kernel, diffusion and potential in x, y, t and the constants sigma,
    r and l = r - sigma^2/2."""
    sigma, r = E.sym("sigma"), E.sym("r")
    Kb = parse_expression("exp(-r*t) / (sigma*y*(2*pi*t)^(1/2)) * "
                          "exp(-((log(x/y) + l*t)^2 / (2*sigma^2*t)))",
                          declared=("x", "y", "t", "sigma", "r", "l"))
    # K solves the forward equation in (x, t) at fixed y
    return (Kb, {"x": (sigma * sigma * _X * _X / 2.0, r * _X)},
            E.neg(r))


def _build_black_scholes(c):
    sigma, r, x = float(c["sigma"]), float(c["r"]), float(c["x"])
    if sigma <= 0:
        raise ConstraintViolation("black_scholes needs sigma > 0")
    if x <= 0:
        raise ConstraintViolation("evaluation point x must be positive")
    ell = r - sigma * sigma / 2.0
    Kb, diffusion, potential = _once("black_scholes", _black_scholes_trees)
    bind = {"sigma": sigma, "r": r, "l": ell}

    def mass(t, phi=None):
        # the density in y without its exp(-r t) discount, in log space
        w0 = math.log(x) + ell * t
        wspan = 40 * sigma * math.sqrt(t) + 1
        k = E.function_of(Kb, "y", dict(bind, x=x, t=t))
        ert = math.exp(r * t)

        def f(w):
            yv = math.exp(w)
            v = ert * k(yv) * yv
            return v * phi(yv - x) if phi else v
        return _quad(f, w0 - wspan, w0 + wspan, points=[w0])

    return KernelEntry(
        name="black_scholes",
        description="forward Black-Scholes kernel",
        constants=dict(c), expr=Kb, bindings=bind,
        equation="u_t = (sigma^2/2) x^2 u_xx + r x u_x - r u",
        domain=(0.0, math.inf), diffusion=diffusion, potential=potential,
        residual_points=_grid_points(("t", "x", "y"), E.grid(0.1, 1.0, 7),
                                     E.grid(0.5, 2.0, 9), [1.0]),
        norm_t_list=(0.1, 0.5, 1.0),
        mass=mass, args=("x", "t", "y"))


def _ou_diffusion():
    """(sigma^2/2, b x), the diffusion of both Ornstein-Uhlenbeck forms."""
    sigma = E.sym("sigma")
    return {"x": (sigma * sigma / 2.0, E.sym("b") * _X)}


def _build_ou_fp(c):
    b, sigma, y = float(c["b"]), float(c["sigma"]), float(c["y"])
    if b <= 0 or sigma <= 0:
        raise ConstraintViolation("ou_fp needs b > 0 and sigma > 0")
    Kb, diffusion, potential = _once("ou_fp", lambda: (parse_expression(
        "(b/(pi*sigma^2))^(1/2) * (1 - exp(-2*b*t))^(-1/2) * "
        "exp(-b*(x - y*exp(-b*t))^2 / (sigma^2*(1 - exp(-2*b*t))))",
        declared=("x", "t", "y", "b", "sigma")), _ou_diffusion(), E.sym("b")))
    bind = {"b": b, "sigma": sigma, "y": y}

    def window(t, phi):
        m = y * math.exp(-b * t)
        w = 40 * math.sqrt(t) * sigma + 3
        return m - w, m + w, [m]

    return KernelEntry(
        name="ou_fp",
        description="Ornstein-Uhlenbeck transition density "
                    "(Fokker-Planck form)",
        constants=dict(c), expr=Kb, bindings=bind,
        equation="u_t = (sigma^2/2) u_xx + b x u_x + b u",
        diffusion=diffusion, potential=potential,
        residual_points=_grid_points(("t", "x"), E.grid(0.1, 1.5, 7),
                                     E.grid(y - 3, y + 3, 9)),
        norm_t_list=(0.1, 0.5, 1.0),
        mass=_line_mass(Kb, y, window, bind))


def _build_ou_nonfp(c):
    b, sigma, x = float(c["b"]), float(c["sigma"]), float(c["x"])
    if b <= 0 or sigma <= 0:
        raise ConstraintViolation("ou_nonfp needs b > 0 and sigma > 0")
    Kb, diffusion = _once("ou_nonfp", lambda: (parse_expression(
        "(2/sigma)*(b/pi)^(1/2)*(exp(2*b*t) - 1)^(-1/2) * "
        "exp(-b*((2/sigma^2)*exp(2*b*t)*x^2 + y^2)/(2*(exp(2*b*t) - 1)))"
        " * cosh(2^(1/2)*b/sigma * exp(b*t)*x*y/(exp(2*b*t) - 1))",
        declared=("x", "y", "t", "b", "sigma")), _ou_diffusion()))
    # over y > 0 the kernel integrates to sqrt(2)/sigma, 1 at the default
    target_mass = math.sqrt(2.0) / sigma

    def ev(xv, t, yv):
        # cosh split into two exponentials with completed squares: each
        # exponent is a nonpositive Gaussian, stable for small t
        e2 = math.expm1(2.0 * b * t)
        pref = (2.0 / sigma) * math.sqrt(b / math.pi) / math.sqrt(e2)
        xs = math.sqrt(2.0) * math.exp(b * t) * xv / sigma
        return 0.5 * pref * (
            math.exp(-b * (yv - xs) ** 2 / (2.0 * e2))
            + math.exp(-b * (yv + xs) ** 2 / (2.0 * e2)))

    def window(t, phi):
        # density in y on the half line; peak of the Gaussian-cosh profile
        y_star = math.sqrt(2.0) * x * math.exp(b * t) / sigma
        w = 40 * math.sqrt((math.exp(2 * b * t) - 1.0) / b) + 6
        return 0.0, y_star + w, [y_star]

    return KernelEntry(
        name="ou_nonfp",
        description="Ornstein-Uhlenbeck kernel, non-conservative form "
                    "(half-line cosh kernel)",
        constants=dict(c), expr=Kb, bindings={"b": b, "sigma": sigma},
        equation="u_t = (sigma^2/2) u_xx + b x u_x",
        domain=(0.0, math.inf), diffusion=diffusion,
        residual_points=_grid_points(("t", "x", "y"), E.grid(0.1, 1.0, 7),
                                     E.grid(-2.0, 2.0, 9), [0.8]),
        normalization_target=lambda t: target_mass,
        norm_t_list=(0.1, 0.5, 1.0),
        mass=_line_mass(lambda yv, t: ev(x, t, yv),
                        math.sqrt(2.0) * x / sigma, window),
        args=("x", "t", "y"), stable=ev)


def _build_heat2d_timedep(c):
    t0, x0, y0 = float(c["t0"]), float(c["x0"]), float(c["y0"])
    if t0 <= 0:
        raise ConstraintViolation("heat2d_timedep needs t0 > 0")
    Kb, diffusion = _once("heat2d_timedep", lambda: (parse_expression(
        "(t0*t)^(1/2)/(4*pi*(t - t0)) * "
        "exp(-((x - x0)^2/(4*(t - t0))) - t0*t*(y - y0)^2/(4*(t - t0)))",
        declared=("x", "y", "t", "x0", "y0", "t0")),
        {"x": (E.ONE, E.ZERO), "y": (E.sym("t") ** -2, E.ZERO)}))
    bind = {"x0": x0, "y0": y0, "t0": t0}

    def window(t, phi):
        s = t - t0
        # ~18 Gaussian widths: wide enough for full mass, narrow enough
        # that the fixed-order rule still resolves the peak at small s
        wx = 25 * math.sqrt(s)
        wy = 25 * math.sqrt(s / (t0 * t))
        return (x0 - wx, x0 + wx), (y0 - wy, y0 + wy)

    return KernelEntry(
        name="heat2d_timedep",
        description="kernel of the 2-D heat equation with 1/t^2 "
                    "diffusion in y",
        constants=dict(c), expr=Kb, bindings=bind,
        equation="u_t = u_xx + t^-2 u_yy  (t > t0)", diffusion=diffusion,
        residual_points=_grid_points(
            ("t", "x", "y"), E.grid(t0 + 0.1, t0 + 1.0, 5),
            E.grid(x0 - 1.5, x0 + 1.5, 5), E.grid(y0 - 1.5, y0 + 1.5, 5)),
        norm_t_list=(t0 + 0.1, t0 + 0.5, t0 + 1.0),
        delta_t_list=(t0 + 1e-2, t0 + 1e-3, t0 + 1e-4),
        delta_width=1.0,
        mass=_product_mass(Kb, bind, {"x": x0, "y": y0}, window, _gl_mass),
        args=("x", "y", "t"))


_CATALOG = {
    "heat_1d": (_build_heat_1d, {"y": 0.0}),
    "linear_potential": (_build_linear_potential, {"beta": 1.0, "y": 0.0}),
    "mehler_hyperbolic": (lambda c: _mehler(c, trig=False), {"y": 0.5}),
    "mehler_trigonometric": (lambda c: _mehler(c, trig=True), {"y": 0.5}),
    "linear_potential_nd": (_build_linear_potential_nd,
                            {"n": 2, "b": (1.0, 0.7, -0.5, 0.3),
                             "y": (0.3, -0.2, 0.1, 0.4)}),
    "radial_gaussian": (_build_radial_gaussian, {"k": 2.0}),
    "radial": (_build_radial, {"n": 2.0, "y": 1.0, "x": 1.0}),
    "second_canonical": (_build_second_canonical, {"mu": -2.0, "y": 1.0}),
    "black_scholes": (_build_black_scholes,
                      {"sigma": 0.4, "r": 0.06, "x": 1.0}),
    "ou_fp": (_build_ou_fp, {"b": 1.0, "sigma": 1.0, "y": 0.5}),
    "ou_nonfp": (_build_ou_nonfp,
                 {"b": 1.0, "sigma": math.sqrt(2.0), "x": 0.6}),
    "heat2d_timedep": (_build_heat2d_timedep,
                       {"t0": 0.5, "x0": 0.2, "y0": -0.3}),
}


def list_kernels():
    return sorted(_CATALOG)


def kernel(name, constants=None):
    """Catalog lookup with defaults applied and constraints enforced."""
    if name not in _CATALOG:
        raise UnknownKernel("no kernel named %r; available: %s"
                            % (name, ", ".join(list_kernels())))
    builder, defaults = _CATALOG[name]
    c = dict(defaults)
    if constants:
        unknown = set(constants) - set(defaults)
        if unknown:
            raise ConstraintViolation(
                "unknown constants for %s: %s" % (name, sorted(unknown)))
        c.update(constants)
    for key, v in c.items():
        if isinstance(v, tuple) and not isinstance(defaults[key], tuple):
            raise ConstraintViolation("constant %s of %s takes one value, "
                                      "got %r" % (key, name, v))
        if not all(map(math.isfinite, v if isinstance(v, tuple) else (v,))):
            raise ConstraintViolation("constant %s of %s must be finite, "
                                      "got %r" % (key, name, v))
    return builder(c)


# ---------------------------------------------------------------------------
# uniform verification

@functools.cache
def _residual_function(K, diffusion, potential):
    """The compiled function of K_t and, for each term of the PDE whose
    coefficient is not the number 0, the coefficient and its derivative of
    K: derived and compiled once per formula, as its trees live for the
    process.  `diffusion` is the items of the entry's dict."""
    terms = []
    for s, (a, b) in diffusion:
        Ks = E.differentiate(K, s)
        terms += [(a, E.differentiate(Ks, s)), (b, Ks)]
    terms.append((potential, K))
    return E.evaluator([E.differentiate(K, "t")] + [
        f for coef, d in terms if not E.is_num(coef, 0) for f in (coef, d)])


def _pde_residual(K, diffusion, potential, points, bindings=()):
    """max |K_t - sum(a K_ss + b K_s) - c K| / (1 + |K_t|) over the points,
    with symbolic derivatives and the constants bound by `bindings`; terms
    with a zero coefficient are skipped.  Raises DomainError naming the
    first point where the residual is not finite."""
    f = _residual_function(K, tuple(diffusion.items()), potential)
    envs = [dict(bindings, **p) for p in points]
    try:
        rows = f(envs)
    except E.ExprError:
        # point by point, so that a non-finite residual at an earlier point
        # is still the error raised
        rows = (f([env])[0] for env in envs)
    worst = 0.0
    for p, (kt, *vals) in zip(points, rows):
        r = kt
        for cv, dv in zip(vals[::2], vals[1::2]):
            r -= cv * dv
        if not math.isfinite(r):
            raise E.DomainError("non-finite PDE residual at %s" % ", ".join(
                "%s = %g" % kv for kv in sorted(p.items())))
        worst = max(worst, abs(r) / (1.0 + abs(kt)))
    return worst


def verify_pde_residual(entry):
    """Max scaled PDE residual of the closed form at its sample points."""
    return _pde_residual(entry.expr, entry.diffusion, entry.potential,
                         entry.residual_points, entry.bindings)


def verify_normalization(entry):
    """|computed mass / target - 1| at each normalization time."""
    out = []
    for t in entry.norm_t_list:
        target = entry.normalization_target(t)
        out.append(abs(entry.mass(t) - target) / abs(target))
    return out


def verify_delta_limit(entry):
    """Deviation of the kernel integrated against a test bump around the
    source from the weight of the delta initial condition, at a decreasing
    sequence of times.  The bump is 1 at the source, so that weight is the
    normalization target at t = 0."""
    bump = _bump(entry.delta_width)
    want = entry.normalization_target(0.0)
    return [abs(entry.mass(t, bump) - want) for t in entry.delta_t_list]


def verify_entry(name, constants=None):
    """Full per-entry report: residual, normalization, delta-limit and the
    records of their bounds ("checks").  It passes when every record is ok
    and the delta-limit sequence strictly decreases.  An overflow, also one
    inside a tree, or a division by zero on the way raises OutOfFloatRange,
    naming the entry and its constants."""
    try:
        entry = kernel(name, constants)
        resid = verify_pde_residual(entry)
        norm = verify_normalization(entry)
        delta = verify_delta_limit(entry)
    except (OverflowError, ZeroDivisionError, E.DomainError) as exc:
        # expr's evaluator turns an OverflowError into a DomainError
        cause = exc.__cause__ or exc
        if not isinstance(cause, (OverflowError, ZeroDivisionError)):
            raise
        c = {**_CATALOG[name][1], **(constants or {})}
        # the reason alone: an OverflowError of ** also carries its errno
        raise OutOfFloatRange("%s with %s: %s: %s" % (
            name, ", ".join("%s = %r" % kv for kv in sorted(c.items())),
            type(cause).__name__, exc.args[-1])) from exc
    checks = [Check("PDE residual", resid, 1e-9),
              Check("normalization", max(norm), 1e-6),
              Check("delta limit", delta[-1], 1e-3)]
    return {"name": name, "constants": {k: (list(v) if isinstance(v, tuple)
                                            else v)
                                        for k, v in entry.constants.items()},
            "residual": resid, "normalization": norm, "delta_limit": delta,
            "checks": checks,
            "pass": (all(c.ok for c in checks)
                     and all(a > b for a, b in zip(delta, delta[1:])))}


# ---------------------------------------------------------------------------
# cross checks

# the one-dimensional whole-line entries whose source is a point y
APPELL_ENTRIES = ("heat_1d", "linear_potential", "mehler_hyperbolic",
                  "mehler_trigonometric", "ou_fp")


def appell_spread(name):
    """The Appell route to a catalog kernel: the constant heat solution
    pulled back through the kernel-mode transform of the entry's own
    equation, seeded at the source y = 0.5, is the entry's kernel up to a
    constant factor.  Returns the spread max |ratio/mean - 1| of their ratio
    at t = 0.15, 0.3, 0.45 and four x in y +- 1.5."""
    y = 0.5
    entry = kernel(name, {"y": y})
    (a, b), = entry.diffusion.values()
    inv = compute_invariants(ParabolicEquation(
        a, b, entry.potential, domain=entry.domain, bindings=entry.bindings))
    ht = build_heat_transform(classify(inv), inv, mode="kernel",
                              source_point=y)
    xs, ts = E.grid(y - 1.5, y + 1.5, 4), E.grid(0.15, 0.45, 3)
    u = map_solution(ht, lambda X, T: 1.0)(np.array(xs)[:, None],
                                             np.array(ts))
    ratios = u / np.array([[entry.evaluate(x, t) for t in ts] for x in xs])
    return float(np.max(np.abs(ratios / ratios.mean() - 1.0)))
