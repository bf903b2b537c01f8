"""Closed-form heat-kernel catalog with uniform numeric verification.

Twelve catalog entries, each given as data: the kernel as a symbolic
expression, the coefficients of the PDE it solves, the points where that PDE
is checked, an analytic normalization target, and a mass integrator that
holds the entry's numerical tricks.  One generic verifier covers them all:
symbolic PDE residual at the sample points, quadrature normalization at
several times, and a delta-initial-condition limit with a Gaussian test
bump.  Heat polynomials, their associated functions, and elementary
invariant solutions round out the module.

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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

from . import expr as E
from .expr import Expr, ParasymError
from .special import ive
from .invariants import ParabolicEquation, compute_invariants
from .classify import classify
from .transform import build_heat_transform, map_solution
from .parser import parse_expression


class UnknownKernel(ParasymError):
    """No catalog entry under that name."""


class ConstraintViolation(ParasymError):
    """Entry-specific parameter constraint violated."""


class NonconvergentQuadrature(ParasymError):
    """A quadrature failed to reach its tolerance, or its window or nodes
    cannot be told apart in floats."""


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
    val, err = integrate.quad(f, lo, hi, **kw)
    if err > 1e-7 * (1.0 + abs(val)):
        raise NonconvergentQuadrature(
            "quadrature error %.2e for value %.6g" % (err, val))
    return val


def _mass_quad(f, phi, source, lo, hi, points):
    """Integral of f over [lo, hi]; with a test bump phi, of f times phi at
    the offset from the source."""
    if phi is None:
        return _quad(f, lo, hi, points)
    return _quad(lambda v: f(v) * phi(v - source), lo, hi, points)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(120)


def _gl_mass(f, phi, source, lo, hi):
    """_mass_quad's integral by the fixed 120-node Gauss-Legendre rule.
    Nodes that collapse in floats are refused."""
    x = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
    if not (np.diff(x) > 0).all():
        raise NonconvergentQuadrature(
            "quadrature nodes on [%.17g, %.17g] collapse in floats"
            % (lo, hi))
    w = 0.5 * (hi - lo) * _GL_WEIGHTS
    g = (lambda v: f(v) * phi(v - source)) if phi else f
    # Python floats, not numpy scalars: the same IEEE sums, done faster
    return sum(wi * g(xi) for xi, wi in zip(x.tolist(), w.tolist()))


def _bump(width):
    """Gaussian test bump of an offset; exactly 1.0 at offset 0."""
    s2 = 2.0 * width * width

    def phi(d):
        return math.exp(-d ** 2 / s2)

    return phi


def _grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _grid_points(names, *axes):
    """Every combination of the axis values as an environment, the last axis
    varying fastest."""
    return [dict(zip(names, p)) for p in itertools.product(*axes)]


_X = E.sym("x")


# ---------------------------------------------------------------------------
# entry type

@dataclass
class KernelEntry:
    """One catalog entry.  The kernel solves

        u_t = sum over s of (a_s u_ss + b_s u_s) + c u

    with `diffusion` mapping each spatial symbol s to (a_s, b_s) and
    `potential` holding c; any coefficient may depend on t."""
    name: str
    description: str
    constants: dict
    expr: Expr                     # closed-form kernel
    equation: str                  # human-readable PDE
    domain: tuple
    diffusion: dict
    residual_points: list          # environments where the PDE is checked
    normalization_target: object   # t -> expected mass; at t = 0, the
                                   # weight of the delta initial condition
    norm_t_list: tuple
    mass: object                   # (t, phi=None) -> integral of the kernel,
                                   # times phi(offset from the source)
    evaluate: object               # pointwise evaluator
    potential: Expr = E.ZERO
    delta_t_list: tuple = (1e-2, 1e-3, 1e-4)
    delta_width: float = 0.5       # test-bump width for the delta limit
    note: str = ""
    evaluate_src: object = None    # (x, t, y) with movable source, if cheap


# ---------------------------------------------------------------------------
# catalog builders

def _build_heat_1d(c):
    y = c["y"]
    K = parse_expression(
        "(4*pi*t)^(-1/2) * exp(-((x - y)^2 / (4*t)))",
        declared={"x", "t", "y"})
    Kb = E.substitute(K, {"y": E.num(y)})

    def ev(x, t):
        return E.evaluate(Kb, {"x": x, "t": t})

    def mass(t, phi=None):
        return _mass_quad(lambda x: ev(x, t), phi, y,
                          y - 40 * math.sqrt(t) - 2,
                          y + 40 * math.sqrt(t) + 2, [y])

    return KernelEntry(
        name="heat_1d",
        description="fundamental solution of the heat equation",
        constants=dict(c), expr=Kb,
        equation="u_t = u_xx", domain=(-math.inf, math.inf),
        diffusion={"x": (E.ONE, E.ZERO)},
        residual_points=_grid_points(("t", "x"), _grid(0.1, 2.0, 7),
                                     _grid(y - 3, y + 3, 9)),
        normalization_target=lambda t: 1.0,
        norm_t_list=(0.01, 0.1, 1.0),
        mass=mass, evaluate=ev,
        evaluate_src=lambda xv, t, yv: E.evaluate(K, {"x": xv, "t": t,
                                                     "y": yv}))


def _build_linear_potential(c):
    beta, y = c["beta"], c["y"]
    K = parse_expression(
        "(4*pi*t)^(-1/2) * exp(-((x - y)^2/(4*t)) + beta^2*t^3/12"
        " + beta*t*(x + y)/2)",
        declared={"x", "t", "y", "beta"})
    Kb = E.substitute(K, {"y": E.num(y), "beta": E.num(beta)})

    def ev(x, t):
        return E.evaluate(Kb, {"x": x, "t": t})

    def mass(t, phi=None):
        # the bump confines the delta integral to a few widths of the source
        if phi:
            lo, hi = y - 3, y + 3
        else:
            lo, hi = y - 40 * math.sqrt(t) - 3, y + 40 * math.sqrt(t) + 3
        return _mass_quad(lambda x: ev(x, t), phi, y, lo, hi, [y])

    return KernelEntry(
        name="linear_potential",
        description="heat kernel with linear potential",
        constants=dict(c), expr=Kb,
        equation="u_t = u_xx + beta*x*u", domain=(-math.inf, math.inf),
        diffusion={"x": (E.ONE, E.ZERO)}, potential=E.num(beta) * _X,
        residual_points=_grid_points(("t", "x"), _grid(0.1, 1.0, 7),
                                     _grid(y - 3, y + 3, 9)),
        normalization_target=lambda t: math.exp(
            beta * beta * t ** 3 / 3 + beta * t * y),
        norm_t_list=(0.05, 0.2, 0.5),
        mass=mass, evaluate=ev)


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

        t_res = _grid(0.05, 0.7, 7)
        t_norm = (0.05, 0.15, 0.3)
        note = ("valid for 0 < t < pi/4; the hyperbolic/trigonometric "
                "pairing follows the residual check: the trigonometric "
                "form belongs to the +x^2 potential")
    else:
        src = ("(2*pi*sinh(2*t))^(-1/2) * "
               "exp(-(cosh(2*t)*(x^2 + y^2) - 2*x*y)/(2*sinh(2*t)))")
        sign, name = -1.0, "mehler_hyperbolic"
        equation = "u_t = u_xx - x^2 u"

        def target(t):
            return math.cosh(2 * t) ** -0.5 * math.exp(
                -y * y * math.tanh(2 * t) / 2)

        t_res = _grid(0.1, 1.5, 7)
        t_norm = (0.05, 0.2, 0.5)
        note = ("the hyperbolic form belongs to the -x^2 potential "
                "(residual check arbitrates the sign convention)")
    K = parse_expression(src, declared={"x", "t", "y"})
    Kb = E.substitute(K, {"y": E.num(y)})

    def ev(x, t):
        return E.evaluate(Kb, {"x": x, "t": t})

    def mass(t, phi=None):
        # the bump confines the delta integral to a few widths of the source
        lo, hi, pts = (y - 3, y + 3, [y]) if phi else (y - 45, y + 45,
                                                       [y, 0.0])
        return _mass_quad(lambda x: ev(x, t), phi, y, lo, hi, pts)

    return KernelEntry(
        name=name, description="Mehler kernel (quadratic potential)",
        constants=dict(c), expr=Kb,
        equation=equation, domain=(-math.inf, math.inf),
        diffusion={"x": (E.ONE, E.ZERO)}, potential=E.num(sign) * _X * _X,
        residual_points=_grid_points(("t", "x"), t_res,
                                     _grid(-2.5, 2.5, 9)),
        normalization_target=target, norm_t_list=t_norm, note=note,
        mass=mass, evaluate=ev)


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
    terms = " + ".join(
        "-((%s - (%r))^2/(4*t)) + (%r)^2*t^3/12 + (%r)*t*(%s + (%r))/2"
        % (s, yk, bk, bk, s, yk) for s, bk, yk in zip(xsyms, bs, ys))
    K = parse_expression("(4*pi*t)^(-%d/2) * exp(%s)" % (n, terms),
                         declared=set(xsyms) | {"t"})
    source = dict(zip(xsyms, ys))

    def mass(t, phi=None):
        # the kernel factorizes: integrate one axis at a time through the
        # source, then divide out the other axes' factors there
        w = 4 if phi else 25        # the bump confines the delta integral
        total = 1.0
        for s, yk in zip(xsyms, ys):
            def f(xk, s=s):
                return E.evaluate(K, dict(source, **{s: xk, "t": t}))
            total *= _mass_quad(f, phi, yk, yk - w, yk + w, [yk])
        center = E.evaluate(K, dict(source, t=t))
        return total / center ** (n - 1) if n > 1 else total

    rng = np.random.default_rng(_SEED)
    points = []
    for t in _grid(0.1, 0.8, 4):
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
        constants=dict(c), expr=K,
        equation="u_t = Lap u + (sum b_k x_k) u",
        domain=(-math.inf, math.inf),
        diffusion={s: (E.ONE, E.ZERO) for s in xsyms},
        potential=E.add(*(E.num(bk) * E.sym(s) for s, bk in zip(xsyms, bs))),
        residual_points=points,
        normalization_target=target, norm_t_list=(0.05, 0.15, 0.3),
        note="n <= 4; separable product of one-dimensional kernels",
        mass=mass, evaluate=lambda *xt: E.evaluate(
            K, dict(zip(xsyms + ("t",), xt))))


def _build_radial_gaussian(c):
    k = float(c["k"])
    if k <= 0:
        raise ConstraintViolation("radial_gaussian needs k > 0")
    n = k + 1.0
    K = parse_expression("(4*pi*t)^(-(k + 1)/2) * exp(-(x^2/(4*t)))",
                         declared={"x", "t", "k"})
    Kb = E.substitute(K, {"k": E.num(k)})
    surf = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)

    def ev(x, t):
        return E.evaluate(Kb, {"x": x, "t": t})

    def mass(t, phi=None):
        return _mass_quad(lambda x: ev(x, t) * surf * x ** k, phi, 0.0,
                          1e-12, 40 * math.sqrt(t) + 1, [math.sqrt(t)])

    return KernelEntry(
        name="radial_gaussian",
        description="origin-source elementary kernel of the radial heat "
                    "equation",
        constants=dict(c), expr=Kb,
        equation="u_t = u_xx + (k/x) u_x", domain=(0.0, math.inf),
        diffusion={"x": (E.ONE, E.num(k) / _X)},
        residual_points=_grid_points(("t", "x"), _grid(0.1, 1.0, 7),
                                     _grid(0.2, 3.0, 9)),
        normalization_target=lambda t: 1.0,
        norm_t_list=(0.05, 0.2, 0.5),
        note="normalized against the surface measure S_{k} x^k dx of "
             "R^(k+1); delta limit concentrates at the origin",
        mass=mass, delta_width=0.8, evaluate=ev)


def _build_radial(c):
    n = float(c["n"])
    y = float(c["y"])
    x0 = float(c["x"])
    if n < 2:
        raise ConstraintViolation("radial (Bessel) entry needs n >= 2")
    if y <= 0 or x0 <= 0:
        raise ConstraintViolation("points x and y must be positive")
    nu = n / 2.0 - 1.0
    K = Expr("mul", (
        E.div(E.ONE, E.mul(E.num(2), E.sym("t"))),
        E.pow_(E.sym("x"), E.num(1.0 - n / 2.0)),
        E.pow_(E.sym("y"), E.num(n / 2.0)),
        E.exp_(E.div(E.neg(E.add(E.pow_(E.sym("x"), 2),
                                 E.pow_(E.sym("y"), 2))),
                     E.mul(E.num(4), E.sym("t")))),
        E.besseli(E.num(nu), E.div(E.mul(E.sym("y"), E.sym("x")),
                                   E.mul(E.num(2), E.sym("t"))))))
    Kb = E.simplify(K)

    def ev2(x, t, yv):
        # scaled-Bessel form, stable for small t
        z = x * yv / (2.0 * t)
        return (x ** (1.0 - n / 2.0) * yv ** (n / 2.0) / (2.0 * t)
                * ive(nu, z) * math.exp(-(x - yv) ** 2 / (4.0 * t)))

    def mass(t, phi=None):
        # conservation holds in the source variable: the kernel averages
        # initial data, so constants are preserved exactly
        w = 40 * math.sqrt(t) + 1
        return _mass_quad(lambda yv: ev2(x0, t, yv), phi, x0,
                          max(1e-12, x0 - w), x0 + w, [x0])

    return KernelEntry(
        name="radial",
        description="fundamental solution of the n-dimensional radial "
                    "heat equation (Bessel form)",
        constants=dict(c), expr=Kb,
        equation="u_t = u_xx + ((n-1)/x) u_x", domain=(0.0, math.inf),
        diffusion={"x": (E.ONE, E.num(n - 1.0) / _X)},
        residual_points=_grid_points(("t", "x", "y"), _grid(0.15, 0.8, 5),
                                     _grid(0.3, 2.5, 9), [y]),
        normalization_target=lambda t: 1.0,
        norm_t_list=(0.05, 0.2, 0.5),
        note="integrates initial data over y: the exact unit mass is in "
             "the source variable at fixed x",
        mass=mass, evaluate=lambda x, t: ev2(x, t, y))


def _build_second_canonical(c):
    mu = float(c["mu"])
    y = float(c["y"])
    if mu > 0.25:
        raise ConstraintViolation("second_canonical needs mu <= 1/4")
    if y <= 0:
        raise ConstraintViolation("source point y must be positive")
    nu = math.sqrt(1.0 - 4.0 * mu) / 2.0
    K = Expr("mul", (
        E.div(E.sqrt_(E.mul(E.sym("x"), E.num(y))),
              E.mul(E.num(2), E.sym("t"))),
        E.exp_(E.div(E.neg(E.add(E.pow_(E.sym("x"), 2), E.num(y * y))),
                     E.mul(E.num(4), E.sym("t")))),
        E.besseli(E.num(nu), E.div(E.mul(E.num(y), E.sym("x")),
                                   E.mul(E.num(2), E.sym("t"))))))
    Kb = E.simplify(K)

    def ev(x, t):
        z = x * y / (2.0 * t)
        return (math.sqrt(x * y) / (2.0 * t) * ive(nu, z)
                * math.exp(-(x - y) ** 2 / (4.0 * t)))

    def mass(t, phi=None):
        w = 40 * math.sqrt(t) + 0.5
        return _mass_quad(lambda x: ev(x, t), phi, y,
                          max(1e-14, y - w), y + w, [y])

    return KernelEntry(
        name="second_canonical",
        description="fundamental solution of the second canonical form "
                    "(inverse-square potential)",
        constants=dict(c), expr=Kb,
        equation="u_t = u_xx + (mu/x^2) u", domain=(0.0, math.inf),
        diffusion={"x": (E.ONE, E.ZERO)}, potential=E.num(mu) / (_X * _X),
        residual_points=_grid_points(("t", "x"), _grid(0.15, 0.8, 5),
                                     _grid(0.3, 2.5, 9)),
        normalization_target=lambda t: 1.0,
        norm_t_list=(2.5e-7, 1e-7, 5e-8),
        delta_t_list=(1e-4, 1e-5, 1e-6),
        note="the mass is 1 only in the t -> 0 limit: for mu != 0 the "
             "half-line kernel loses mass at rate O(t/y^2), so the "
             "normalization check runs at very small times",
        mass=mass, evaluate=ev)


def _build_black_scholes(c):
    sigma, r, x = float(c["sigma"]), float(c["r"]), float(c["x"])
    if sigma <= 0:
        raise ConstraintViolation("black_scholes needs sigma > 0")
    if x <= 0:
        raise ConstraintViolation("evaluation point x must be positive")
    ell = r - sigma * sigma / 2.0
    K = parse_expression(
        "exp(-r*t) / (sigma*y*(2*pi*t)^(1/2)) * "
        "exp(-((log(x/y) + l*t)^2 / (2*sigma^2*t)))",
        declared={"x", "y", "t", "sigma", "r", "l"})
    Kb = E.substitute(K, {"sigma": E.num(sigma), "r": E.num(r),
                          "l": E.num(ell)})

    def ev(xv, t, yv):
        return E.evaluate(Kb, {"x": xv, "t": t, "y": yv})

    def mass(t, phi=None):
        # integrate over the y variable in log space
        w0 = math.log(x) + ell * t
        wspan = 40 * sigma * math.sqrt(t) + 1

        def f(w):
            yv = math.exp(w)
            v = math.exp(r * t) * ev(x, t, yv) * yv
            return v * phi(yv - x) if phi else v
        return _quad(f, w0 - wspan, w0 + wspan, points=[w0])

    return KernelEntry(
        name="black_scholes",
        description="forward Black-Scholes kernel",
        constants=dict(c), expr=Kb,
        equation="u_t = (sigma^2/2) x^2 u_xx + r x u_x - r u",
        domain=(0.0, math.inf),
        # K solves the forward equation in (x, t) at fixed y
        diffusion={"x": (E.num(sigma) * sigma * _X * _X / 2.0,
                         E.num(r) * _X)},
        potential=E.num(-r),
        residual_points=_grid_points(("t", "x", "y"), _grid(0.1, 1.0, 7),
                                     _grid(0.5, 2.0, 9), [1.0]),
        normalization_target=lambda t: 1.0,
        norm_t_list=(0.1, 0.5, 1.0),
        note="density in y; the probability check removes the exp(-rt) "
             "discount factor",
        mass=mass, evaluate=ev)


def _build_ou_fp(c):
    b, sigma, y = float(c["b"]), float(c["sigma"]), float(c["y"])
    if b <= 0 or sigma <= 0:
        raise ConstraintViolation("ou_fp needs b > 0 and sigma > 0")
    K = parse_expression(
        "(b/(pi*sigma^2))^(1/2) * (1 - exp(-2*b*t))^(-1/2) * "
        "exp(-b*(x - y*exp(-b*t))^2 / (sigma^2*(1 - exp(-2*b*t))))",
        declared={"x", "t", "y", "b", "sigma"})
    Kb = E.substitute(K, {"y": E.num(y), "b": E.num(b),
                          "sigma": E.num(sigma)})

    def ev(x, t):
        return E.evaluate(Kb, {"x": x, "t": t})

    def mass(t, phi=None):
        m = y * math.exp(-b * t)
        w = 40 * math.sqrt(t) * sigma + 3
        return _mass_quad(lambda x: ev(x, t), phi, y, m - w, m + w, [m])

    return KernelEntry(
        name="ou_fp",
        description="Ornstein-Uhlenbeck transition density "
                    "(Fokker-Planck form)",
        constants=dict(c), expr=Kb,
        equation="u_t = (sigma^2/2) u_xx + b x u_x + b u",
        domain=(-math.inf, math.inf),
        diffusion={"x": (E.num(sigma * sigma / 2.0), E.num(b) * _X)},
        potential=E.num(b),
        residual_points=_grid_points(("t", "x"), _grid(0.1, 1.5, 7),
                                     _grid(y - 3, y + 3, 9)),
        normalization_target=lambda t: 1.0,
        norm_t_list=(0.1, 0.5, 1.0),
        note="mean exp(-b t) y (the decaying sign passes the residual "
             "check)",
        mass=mass, evaluate=ev,
        evaluate_src=lambda xv, t, yv: E.evaluate(
            K, {"x": xv, "t": t, "y": yv, "b": b, "sigma": sigma}))


def _build_ou_nonfp(c):
    b, sigma, x = float(c["b"]), float(c["sigma"]), float(c["x"])
    if b <= 0 or sigma <= 0:
        raise ConstraintViolation("ou_nonfp needs b > 0 and sigma > 0")
    K = parse_expression(
        "(2/sigma)*(b/pi)^(1/2)*(exp(2*b*t) - 1)^(-1/2) * "
        "exp(-b*((2/sigma^2)*exp(2*b*t)*x^2 + y^2)/(2*(exp(2*b*t) - 1)))"
        " * cosh(2^(1/2)*b/sigma * exp(b*t)*x*y/(exp(2*b*t) - 1))",
        declared={"x", "y", "t", "b", "sigma"})
    Kb = E.substitute(K, {"b": E.num(b), "sigma": E.num(sigma)})
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

    def mass(t, phi=None):
        # density in y on the half line; peak of the Gaussian-cosh profile
        y_star = math.sqrt(2.0) * x * math.exp(b * t) / sigma
        w = 40 * math.sqrt((math.exp(2 * b * t) - 1.0) / b) + 6
        return _mass_quad(lambda yv: ev(x, t, yv), phi,
                          math.sqrt(2.0) * x / sigma,
                          0.0, y_star + w, [y_star])

    return KernelEntry(
        name="ou_nonfp",
        description="Ornstein-Uhlenbeck kernel, non-conservative form "
                    "(half-line cosh kernel)",
        constants=dict(c), expr=Kb,
        equation="u_t = (sigma^2/2) u_xx + b x u_x",
        domain=(0.0, math.inf),
        diffusion={"x": (E.num(sigma * sigma / 2.0), E.num(b) * _X)},
        residual_points=_grid_points(("t", "x", "y"), _grid(0.1, 1.0, 7),
                                     _grid(-2.0, 2.0, 9), [0.8]),
        normalization_target=lambda t: target_mass,
        norm_t_list=(0.1, 0.5, 1.0),
        note="stated for y on the half line only; the printed form "
             "integrates to sqrt(2)/sigma, which is the normalization "
             "target used here (equal to 1 when sigma = sqrt(2))",
        mass=mass, evaluate=ev)


def _build_heat2d_timedep(c):
    t0, x0, y0 = float(c["t0"]), float(c["x0"]), float(c["y0"])
    if t0 <= 0:
        raise ConstraintViolation("heat2d_timedep needs t0 > 0")
    K = parse_expression(
        "(t0*t)^(1/2)/(4*pi*(t - t0)) * "
        "exp(-((x - x0)^2/(4*(t - t0))) - t0*t*(y - y0)^2/(4*(t - t0)))",
        declared={"x", "y", "t", "x0", "y0", "t0"})
    Kb = E.substitute(K, {"x0": E.num(x0), "y0": E.num(y0),
                          "t0": E.num(t0)})

    def ev(xv, yv, t):
        return E.evaluate(Kb, {"x": xv, "y": yv, "t": t})

    def mass(t, phi=None):
        s = t - t0
        # ~18 Gaussian widths: wide enough for full mass, narrow enough
        # that the fixed-order rule still resolves the peak at small s
        wx = 25 * math.sqrt(s)
        wy = 25 * math.sqrt(s / (t0 * t))
        # the kernel is P(t) f(x) g(y): integrate one axis at a time
        # through the source, then divide out the factor counted twice
        mx = _gl_mass(lambda xv: ev(xv, y0, t), phi, x0, x0 - wx, x0 + wx)
        my = _gl_mass(lambda yv: ev(x0, yv, t), phi, y0, y0 - wy, y0 + wy)
        return mx * my / ev(x0, y0, t)

    return KernelEntry(
        name="heat2d_timedep",
        description="kernel of the 2-D heat equation with 1/t^2 "
                    "diffusion in y",
        constants=dict(c), expr=Kb,
        equation="u_t = u_xx + t^-2 u_yy  (t > t0)",
        domain=(-math.inf, math.inf),
        diffusion={"x": (E.ONE, E.ZERO),
                   "y": (E.sym("t") ** -2, E.ZERO)},
        residual_points=_grid_points(
            ("t", "x", "y"), _grid(t0 + 0.1, t0 + 1.0, 5),
            _grid(x0 - 1.5, x0 + 1.5, 5), _grid(y0 - 1.5, y0 + 1.5, 5)),
        normalization_target=lambda t: 1.0,
        norm_t_list=(t0 + 0.1, t0 + 0.5, t0 + 1.0),
        delta_t_list=(t0 + 1e-2, t0 + 1e-3, t0 + 1e-4),
        delta_width=1.0,
        note="both exponent terms divided by 4(t - t0): that variant has "
             "unit mass and passes the delta-limit test",
        mass=mass, evaluate=ev)


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
        if not all(map(math.isfinite, v if isinstance(v, tuple) else (v,))):
            raise ConstraintViolation("constant %s of %s must be finite, "
                                      "got %r" % (key, name, v))
    return builder(c)


# ---------------------------------------------------------------------------
# uniform verification

def _pde_residual(K, diffusion, potential, points):
    """max |K_t - sum(a K_ss + b K_s) - c K| / (1 + |K_t|) over the points,
    with symbolic derivatives; terms with a zero coefficient are skipped."""
    terms = []
    for s, (a, b) in diffusion.items():
        Ks = E.differentiate(K, s)
        terms += [(a, E.differentiate(Ks, s)), (b, Ks)]
    terms.append((potential, K))
    terms = [(coef, d) for coef, d in terms if not E.is_num(coef, 0)]
    Kt = E.differentiate(K, "t")
    worst = 0.0
    for env in points:
        kt = E.evaluate(Kt, env)
        r = kt
        for coef, d in terms:
            r -= E.evaluate(coef, env) * E.evaluate(d, env)
        worst = max(worst, abs(r) / (1.0 + abs(kt)))
    return worst


def verify_pde_residual(entry):
    """Max scaled PDE residual of the closed form at its sample points."""
    return _pde_residual(entry.expr, entry.diffusion, entry.potential,
                         entry.residual_points)


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
    """Full per-entry report: residual, normalization, delta-limit."""
    entry = kernel(name, constants)
    resid = verify_pde_residual(entry)
    norm = verify_normalization(entry)
    delta = verify_delta_limit(entry)
    ok = (resid <= 1e-9 and max(norm) <= 1e-6
          and all(a > b for a, b in zip(delta, delta[1:]))
          and delta[-1] <= 1e-3)
    return {"name": name, "constants": {k: (list(v) if isinstance(v, tuple)
                                            else v)
                                        for k, v in entry.constants.items()},
            "residual": resid, "normalization": norm,
            "delta_limit": delta, "note": entry.note, "pass": ok}


# ---------------------------------------------------------------------------
# cross checks

def mehler_transform_consistency():
    """map_solution(harmonic transform, u~=1) with source point 0.5 against
    the catalog Mehler kernel: the pointwise ratio must be constant.
    Returns (ratio spread, ratio)."""
    y = 0.5
    eq = ParabolicEquation(a=E.ONE, b=E.ZERO,
                           c=E.neg(E.pow_(E.sym("x"), 2)),
                           domain=(-math.inf, math.inf))
    inv = compute_invariants(eq)
    ht = build_heat_transform(classify(inv), inv, mode="kernel",
                              source_point=y)
    u = map_solution(ht, lambda xt, tt: 1.0)
    entry = kernel("mehler_hyperbolic", {"y": y})
    ratios = []
    for t in _grid(0.15, 0.45, 3):
        for x in _grid(-1.5, 1.5, 4):
            ratios.append(u(x, t) / entry.evaluate(x, t))
    ratios = np.array(ratios)
    mean = float(ratios.mean())
    spread = float(np.max(np.abs(ratios / mean - 1.0)))
    return spread, mean


def radial_from_canonical_consistency():
    """Pointwise identity radial_n = (x/y)^((1-n)/2) * second_canonical with
    mu = -(n-1)(n-3)/4, for n = 2, 4, 5.  Returns max relative deviation."""
    worst = 0.0
    for n in (2, 4, 5):
        mu = -(n - 1) * (n - 3) / 4.0
        y = 1.0
        rad = kernel("radial", {"n": float(n), "y": y})
        can = kernel("second_canonical", {"mu": mu, "y": y})
        for t in (0.2, 0.6):
            for x in _grid(0.4, 2.2, 7):
                a = rad.evaluate(x, t)
                b = (x / y) ** ((1 - n) / 2.0) * can.evaluate(x, t)
                worst = max(worst, abs(a - b) / (abs(a) + 1e-300))
    return worst


def semigroup_check(name):
    """Chapman-Kolmogorov spot check, at 5 seeded draws of (x, t, s, y), for
    kernels with a movable source."""
    k = kernel(name).evaluate_src
    if k is None:
        raise ConstraintViolation(
            "%s has no movable-source evaluator" % name)
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(5):
        t = rng.uniform(0.1, 0.6)
        s = rng.uniform(0.1, 0.6)
        y = rng.uniform(-1.0, 1.0)
        x = rng.uniform(-1.0, 1.0)
        lhs = _quad(lambda z: k(x, t, z) * k(z, s, y),
                    -30.0, 30.0, points=[y, x])
        rhs = k(x, t + s, y)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return worst


def _log_evaluate(e, env):
    """ln of a positive expression, evaluated without underflow by pushing
    the log through products, powers, quotients and exp nodes."""
    if e.kind == "mul":
        return sum(_log_evaluate(a, env) for a in e.args)
    if e.kind == "div":
        return _log_evaluate(e.args[0], env) - _log_evaluate(e.args[1], env)
    if e.kind == "pow":
        return E.evaluate(e.args[1], env) * _log_evaluate(e.args[0], env)
    if e.kind == "exp":
        return E.evaluate(e.args[0], env)
    if e.kind == "sqrt":
        return 0.5 * _log_evaluate(e.args[0], env)
    return math.log(E.evaluate(e, env))


def varadhan_check():
    """-4 t ln K(x,t,0) -> x^2 as t drops, at x = 2.5 and t = 1e-2, 1e-3.

    The prefactor contributes a 2t ln(1/(4 pi t)) / x^2 relative error, so
    the probe sits away from the source point; at that distance the kernel
    value underflows for small t and ln K is taken in the log domain."""
    x = 2.5
    entry = kernel("heat_1d", {"y": 0.0})
    return [abs(-4 * t * _log_evaluate(entry.expr, {"x": x, "t": t}) - x * x)
            / (x * x) for t in (1e-2, 1e-3)]


# ---------------------------------------------------------------------------
# heat polynomials

@dataclass
class HeatPolynomial:
    coefficients: dict             # (i, j) -> Fraction, term x^i t^j
    expr: Expr

    def __call__(self, x, t):
        return float(sum(c * x ** i * t ** j
                         for (i, j), c in self.coefficients.items()))


def heat_polynomial(n):
    """u_n(x,t) = n! sum_j x^(n-2j)/(n-2j)! * t^j/j! with exact
    coefficients."""
    if not 0 <= n <= 30:
        raise ConstraintViolation("heat_polynomial supports 0 <= n <= 30")
    coeffs = {}
    nf = math.factorial(n)
    for j in range(n // 2 + 1):
        i = n - 2 * j
        coeffs[(i, j)] = Fraction(nf, math.factorial(i) * math.factorial(j))
    x, t = E.sym("x"), E.sym("t")
    terms = [E.mul(E.num(c), E.pow_(x, E.num(i)), E.pow_(t, E.num(j)))
             for (i, j), c in sorted(coeffs.items())]
    return HeatPolynomial(coefficients=coeffs,
                          expr=E.simplify(Expr("add", terms)))


def associated_function(n):
    """v_n(x,t) = K(x,t) u_n(x,-t) t^-n with K the origin heat kernel."""
    if not 0 <= n <= 15:
        raise ConstraintViolation("associated_function supports 0 <= n <= 15")
    un = heat_polynomial(n)

    def v(x, t):
        K = (4 * math.pi * t) ** -0.5 * math.exp(-x * x / (4 * t))
        return K * un(x, -t) * t ** -n
    return v


def biorthogonality(m, n):
    """Integral u_m(x,-1) v_n(x,1) dx by Gauss-Hermite; the exact value is
    2^n n! when m == n and 0 otherwise."""
    um, un = heat_polynomial(m), heat_polynomial(n)
    s_nodes, s_weights = np.polynomial.hermite.hermgauss(40)
    total = 0.0
    for s, w in zip(s_nodes, s_weights):
        total += w * um(2.0 * s, -1.0) * un(2.0 * s, -1.0)
    return total * math.pi ** -0.5


def invariant_solution_checks():
    """Residuals of the printed elementary invariant solutions."""
    heat = {"x": (E.ONE, E.ZERO)}
    inverse_square = E.div(E.num(-2.0), E.mul(_X, _X))
    report = {}

    # scale-invariant elementary solution, mu = -2(a+1)(2a+1), a = -3/2
    u = parse_expression("x^2 * t^(-5/2) * exp(-(x^2/(4*t)))")
    half_line = _grid_points(("t", "x"), _grid(0.2, 1.0, 5),
                             _grid(0.4, 2.5, 9))
    report["elementary_scale_invariant"] = _pde_residual(
        u, heat, inverse_square, half_line)
    a = -1.25
    mu = -2.0 * (a + 1.0) * (2 * a + 1.0)
    u2 = parse_expression("x^(3/2) * t^(-2) * exp(-(x^2/(4*t)))")
    report["elementary_scale_invariant_a=-5/4"] = _pde_residual(
        u2, heat, E.div(E.num(mu), E.mul(_X, _X)), half_line)
    report["constraint_mu"] = abs(mu - (-2 * (a + 1) * (2 * a + 1)))

    # trigonometric solution at mu = -2
    for tag, src in (("cos", "exp(-t)*(cos(x) - sin(x)/x)"),
                     ("sin", "exp(-t)*(sin(x) + cos(x)/x)")):
        u3 = parse_expression(src)
        report["trigonometric_mu=-2_" + tag] = _pde_residual(
            u3, heat, inverse_square,
            _grid_points(("t", "x"), _grid(0.1, 1.0, 5), _grid(0.4, 2.8, 9)))

    # heat polynomial solves the heat equation
    u4 = heat_polynomial(3).expr
    report["heat_polynomial_u3"] = _pde_residual(
        u4, heat, E.ZERO,
        _grid_points(("t", "x"), _grid(0.1, 1.0, 5), _grid(-2.0, 2.0, 7)))
    return report
