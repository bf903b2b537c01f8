"""Symmetry generators of u_t = a u_xx + b u_x + c u, their determining
equations, Lie brackets, commutator tables, and the delta-initial-condition
subalgebra.

Generators have the form X = tau(t) d_t + xi(x,t) d_x + phi(x,t) u d_u.
For a dim-4/6 classification every generator comes from three scalar
functions of t via

    xi  = sqrt(a) (tau'(t) I / 2 + rho(t)),
    phi = -tau'' I^2 / 8 - rho' I / 2 + tau' I J / 4 + rho J / 2 + sigma(t),

where (tau, rho, sigma) solve

    tau''' + 16 c2 tau' = 0,
    rho''  +  4 c2 rho  = -3 c1 tau',      (rho = 0 for dim 4)
    sigma' = -tau''/4 + c0 tau' + c1 rho.

The emitted bases integrate this system in closed form per sign of c2.  The
bracket of two such fields is again one, and its triple follows from the
two triples alone (no I, a or c enter):

    tau   = tau_v tau_w' - tau_w tau_v',
    rho   = tau_v rho_w' - tau_w rho_v' + (rho_v tau_w' - rho_w tau_v')/2,
    sigma = tau_v sigma_w' - tau_w sigma_v' - (rho_v rho_w' - rho_w rho_v')/2,

with M = u d_u the triple (0, 0, 1).  The structure constants come from
these triples, and the published table, transcribed as data, is compared
against them, with any line that cannot be reproduced reported as a flagged
discrepancy rather than an error.

Every structured field comes from field_from_scalars, which keeps the jet
(tau, tau', tau'', tau''', rho, rho', rho'', sigma, sigma') of its simplified
triple; the brackets, the determining check and the boundary subalgebra read
the jet's values and take no t-derivative.  xi, phi and their x- and
t-derivatives have closed forms in the jet and a fixed set of functions of x
(s = sqrt(a), I, J, a, b, c and their derivatives, with I' = 1/s), each
evaluated once per basis (check_determining).  The printed coefficients use
the extra symbol `Ivar` for I(x), which may be quadrature-defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as E
from .expr import Expr, ParasymError, chebyshev_points
from .invariants import InvariantTriple, probe_window


class RankDeficiency(ParasymError):
    """Boundary-subalgebra constraint system is degenerate."""


IVAR = "Ivar"
X, T = "x", "t"


@dataclass
class VectorField:
    """tau d_t + xi d_x + phi u d_u with Expr coefficients over {x, t, Ivar}."""

    tau: Expr
    xi: Expr
    phi: Expr
    label: str = ""
    jet: tuple = None          # JET Exprs in t when structured
    inv: InvariantTriple = None
    i_offset: float = 0.0

    def env(self, x, t):
        env = {X: x, T: t}
        if self.inv is not None:
            env[IVAR] = self.inv.I(x) + self.i_offset
        return env

    def describe(self):
        return {"label": self.label, "tau": E.to_text(self.tau),
                "xi": E.to_text(self.xi), "phi": E.to_text(self.phi)}


def _dt(e):
    return E.differentiate(e, T)


def _value(e, env):
    return E.evaluate(e, env) if e is not E.ZERO else 0.0


JET = ("tau", "tau1", "tau2", "tau3", "rho", "rho1", "rho2", "sigma",
       "sigma1")                   # tau1 = tau', tau2 = tau'', ...


def _jet_values(vf, rows, ts):
    """The jet rows of vf named in `rows` at the times ts, as an array of
    shape (len(rows), len(ts))."""
    return np.array([[_value(vf.jet[JET.index(r)], {T: t}) for t in ts]
                     for r in rows])


# ---------------------------------------------------------------------------
# basis construction

def _scalar_families(dim, c2, c1, c0):
    """[(tau, rho, sigma)] in closed form for v1..v_{dim-1}; M appended later.
    Exprs in the symbol t."""
    t = E.sym(T)
    n = E.num
    zero = E.ZERO
    out = [(E.ONE, zero, zero)]  # v1 = d_t
    if dim == 4:
        c1 = 0.0
    if c2 == 0:
        if dim == 6:
            out.append((t, E.mul(n(-1.5 * c1), t ** 2),
                        E.simplify(n(c0) * t - n(0.5 * c1 * c1) * t ** 3)))
            out.append((t ** 2, E.mul(n(-float(c1)), t ** 3),
                        E.simplify(n(-0.5) * t + n(c0) * t ** 2
                                   - n(0.25 * c1 * c1) * t ** 4)))
            out.append((zero, t, E.simplify(n(0.5 * c1) * t ** 2)))
            out.append((zero, E.ONE, E.simplify(n(float(c1)) * t)))
        else:
            out.append((t, zero, E.simplify(n(c0) * t)))
            out.append((t ** 2, zero, E.simplify(n(-0.5) * t + n(c0) * t ** 2)))
    elif c2 < 0:
        k = math.sqrt(-c2)
        ep = E.exp_(E.mul(n(4 * k), t))
        em = E.exp_(E.mul(n(-4 * k), t))
        if dim == 6:
            out.append((ep, E.simplify(n(-c1 / k) * ep),
                        E.simplify(n(c0 - k - c1 * c1 / (4 * k * k)) * ep)))
            out.append((em, E.simplify(n(c1 / k) * em),
                        E.simplify(n(c0 + k - c1 * c1 / (4 * k * k)) * em)))
            hp = E.exp_(E.mul(n(2 * k), t))
            hm = E.exp_(E.mul(n(-2 * k), t))
            out.append((zero, hp, E.simplify(n(c1 / (2 * k)) * hp)))
            out.append((zero, hm, E.simplify(n(-c1 / (2 * k)) * hm)))
        else:
            out.append((ep, zero, E.simplify(n(c0 - k) * ep)))
            out.append((em, zero, E.simplify(n(c0 + k) * em)))
    else:
        k = math.sqrt(c2)
        cs = E.fn("cos", E.mul(n(4 * k), t))
        sn = E.fn("sin", E.mul(n(4 * k), t))
        if dim == 6:
            s0 = c0 + c1 * c1 / (4 * k * k)
            out.append((cs, E.simplify(n(-c1 / k) * sn),
                        E.simplify(n(k) * sn + n(s0) * cs)))
            out.append((sn, E.simplify(n(c1 / k) * cs),
                        E.simplify(n(-k) * cs + n(s0) * sn)))
            h_s = E.fn("sin", E.mul(n(2 * k), t))
            h_c = E.fn("cos", E.mul(n(2 * k), t))
            out.append((zero, h_s, E.simplify(n(-c1 / (2 * k)) * h_c)))
            out.append((zero, h_c, E.simplify(n(c1 / (2 * k)) * h_s)))
        else:
            out.append((cs, zero, E.simplify(n(k) * sn + n(c0) * cs)))
            out.append((sn, zero, E.simplify(n(-k) * cs + n(c0) * sn)))
    return out


def field_from_scalars(tau, rho, sigma, inv, label="", i_offset=0.0):
    """The field of the scalar triple: (tau, xi, phi) and the triple's jet."""
    tau, rho, sigma = E.simplify(tau), E.simplify(rho), E.simplify(sigma)
    tau1, rho1 = _dt(tau), _dt(rho)
    tau2 = _dt(tau1)
    jet = (tau, tau1, tau2, _dt(tau2), rho, rho1, _dt(rho1), sigma,
           _dt(sigma))
    Iv = E.sym(IVAR)
    xi = E.simplify(E.mul(inv.sqrt_a, E.add(E.mul(E.HALF, tau1, Iv), rho)))
    phi = E.simplify(E.add(
        E.mul(E.num(-0.125), tau2, E.pow_(Iv, 2)),
        E.mul(E.num(-0.5), rho1, Iv),
        E.mul(E.num(0.25), tau1, Iv, inv.J),
        E.mul(E.HALF, rho, inv.J),
        sigma))
    return VectorField(tau=tau, xi=xi, phi=phi, label=label, jet=jet,
                       inv=inv, i_offset=i_offset)


def emit_basis(cls, inv):
    """The dim-4 or dim-6 generator basis (always ends with M = u d_u).

    For dim 4 the fields are expressed in the shifted gauge I + s from the
    classification, so that K = mu/I^2 + c2 I^2 + c0 holds exactly.
    """
    if cls.dim not in (4, 6):
        raise ValueError("emit_basis requires dim 4 or 6, got %d" % cls.dim)
    c2 = cls.constants.get("c2", 0.0)
    c1 = cls.constants.get("c1", 0.0) if cls.dim == 6 else 0.0
    c0 = cls.constants.get("c0", 0.0)
    i_offset = float(cls.shift or 0.0) if cls.dim == 4 else 0.0
    fam = _scalar_families(cls.dim, c2, c1, c0) + [(E.ZERO, E.ZERO, E.ONE)]
    return [field_from_scalars(tau, rho, sigma, inv, label="v%d" % (i + 1),
                               i_offset=i_offset)
            for i, (tau, rho, sigma) in enumerate(fam)]


# ---------------------------------------------------------------------------
# determining equations

DETERMINING_TOL = 1e-8     # largest scaled residual of an accepted generator


def _scaled(*terms):
    """max over the grid of |sum terms| / (sum |terms| + 1)."""
    u = np.stack(np.broadcast_arrays(*terms))
    return float((np.abs(u.sum(axis=0)) / (np.abs(u).sum(axis=0) + 1.0)).max())


def check_determining(inv, basis, n=16):
    """Residuals of each field of `basis` in the two determining equations
    and the xi equation, one dict per field, on an n-by-n grid (n >= 2) of
    the probe window times [0.05, 0.45], each scaled by the magnitude of its
    terms, |sum| / (sum |term| + 1):

    deteq1: 8 a^2 phi_x + (a' - 2b)(xi a' - a tau') - a [2 xi a'' - 4 xi_t
            - 4 xi b'] = 0
    deteq2: c tau' - phi_t + xi c' + b phi_x + a phi_xx = 0
    xieq:   xi_x - a'/(2a) xi - tau'/2 = 0

    The fields enter through their jets.  The x-functions s, s', I, J, J',
    J'', a, a', a'', b, b', c, c' are evaluated once at the grid x, each
    jet once at the grid t, and with I' = 1/s

        xi_x   = s' (tau' I/2 + rho) + tau'/2,   xi_t = s (tau'' I/2 + rho'),
        phi_x  = A/s + J' B,   A = -tau'' I/4 - rho'/2 + tau' J/4,
                               B = tau' I/4 + rho/2,
        phi_xx = (-tau''/(4s) + tau' J'/4)/s - A s'/s^2 + J'' B + J' tau'/(4s),
        phi_t  = -tau''' I^2/8 - rho'' I/2 + tau'' I J/4 + rho' J/2 + sigma'.

    "tree" compares the printed tau, xi and phi with these formulas at the n
    diagonal points (x_j, t_j), |w - v| / (|w| + |v| + 1), so a simplifier
    fault in what the report prints still shows.
    """
    lo, hi = probe_window(inv.domain)
    xs = chebyshev_points(lo, hi, n)
    t0, t1 = 0.05, 0.45
    ts = [t0 + (t1 - t0) * j / (n - 1) for j in range(n)]
    d = lambda e: E.differentiate(e, X)
    sp, Jp, ap = d(inv.sqrt_a), d(inv.J), d(inv.a)
    fx = (inv.sqrt_a, sp, inv.J, Jp, d(Jp), inv.a, ap, d(ap),
          inv.b, d(inv.b), inv.c, d(inv.c))
    # x runs down axis 0 and t along axis 1 of every grid array
    s, sp, J, Jp, Jpp, a, ap, app, b, bp, c, cp = (
        np.array([[_value(e, {X: x})] for x in xs]) for e in fx)
    I0 = np.array([[inv.I(x)] for x in xs])
    out = []
    for vf in basis:
        I = I0 + vf.i_offset
        tau, tau1, tau2, tau3, rho, rho1, rho2, sigma, sigma1 = \
            _jet_values(vf, JET, ts)
        xi = s * (tau1 * I / 2 + rho)
        xi_x = sp * (tau1 * I / 2 + rho) + tau1 / 2
        xi_t = s * (tau2 * I / 2 + rho1)
        A = -tau2 * I / 4 - rho1 / 2 + tau1 * J / 4
        B = tau1 * I / 4 + rho / 2
        phi = -tau2 * I ** 2 / 8 - rho1 * I / 2 + tau1 * I * J / 4 \
            + rho * J / 2 + sigma
        phi_x = A / s + Jp * B
        phi_xx = (-tau2 / (4 * s) + tau1 * Jp / 4) / s - A * sp / s ** 2 \
            + Jpp * B + Jp * tau1 / (4 * s)
        phi_t = -tau3 * I ** 2 / 8 - rho2 * I / 2 + tau2 * I * J / 4 \
            + rho1 * J / 2 + sigma1
        res = {
            "deteq1": _scaled(8 * a * a * phi_x,
                              (ap - 2 * b) * (xi * ap - a * tau1),
                              -a * (2 * xi * app - 4 * xi_t - 4 * xi * bp)),
            "deteq2": _scaled(c * tau1, -phi_t, xi * cp, b * phi_x,
                              a * phi_xx),
            "xieq": _scaled(xi_x, -ap / (2 * a) * xi, -tau1 / 2),
        }
        want = np.column_stack([tau, xi.diagonal(), phi.diagonal()])
        got = np.array([[_value(e, {X: x, T: t, IVAR: float(i)})
                         for e in (vf.tau, vf.xi, vf.phi)]
                        for x, t, i in zip(xs, ts, I[:, 0])])
        res["tree"] = float((np.abs(want - got)
                             / (np.abs(want) + np.abs(got) + 1.0)).max())
        res["max"] = max(res.values())
        out.append(res)
    return out


# ---------------------------------------------------------------------------
# commutator tables

BRACKET_TIMES = [0.07 + 0.34 * j / 9 for j in range(10)]


@dataclass
class CommutatorTable:
    dim: int
    structure: dict            # (i, j) -> {k: float}, 1-based, i < j
    residual: float = 0.0

    def coeff(self, i, j, k):
        if i == j:
            return 0.0
        sgn = 1.0
        if i > j:
            i, j, sgn = j, i, -1.0
        return sgn * self.structure.get((i, j), {}).get(k, 0.0)


# a stiff field's exp(+-k t) factors can overflow at BRACKET_TIMES: numpy
# stays silent, the residual reads nan, and the report says so
@np.errstate(over="ignore", invalid="ignore")
def commutator_table(basis):
    """Structure constants of the emitted basis: each bracket's scalar triple
    from the two fields' jets (module docstring), decomposed by least squares
    on the stacked basis triples at BRACKET_TIMES."""
    rows = ("tau", "rho", "sigma", "tau1", "rho1", "sigma1")
    vals = [_jet_values(vf, rows, BRACKET_TIMES) for vf in basis]
    A = np.column_stack([v[:3].T.ravel() for v in vals])
    n = len(basis)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = []
    for i, j in pairs:
        tv, rv, sv, tv1, rv1, sv1 = vals[i]
        tw, rw, sw, tw1, rw1, sw1 = vals[j]
        brackets.append(np.column_stack([
            tv * tw1 - tw * tv1,
            tv * rw1 - tw * rv1 + (rv * tw1 - rw * tv1) / 2,
            tv * sw1 - tw * sv1 - (rv * rw1 - rw * rv1) / 2]).ravel())
    Y = np.column_stack(brackets)
    coef, *_ = np.linalg.lstsq(A, Y, rcond=None)
    scale = 1.0 + np.abs(Y).max(axis=0)
    worst = float(np.max(np.abs(A @ coef - Y).max(axis=0) / scale))
    structure = {}
    for col, (i, j) in enumerate(pairs):
        entry = {k + 1: float(c) for k, c in enumerate(coef[:, col])
                 if abs(c) > 1e-9}
        if entry:
            structure[(i + 1, j + 1)] = entry
    return CommutatorTable(dim=n, structure=structure, residual=worst)


def jacobi_residual(table, n):
    """Max residual of the Jacobi identity in the computed structure
    constants."""
    C = np.zeros((n, n, n))    # C[i, j] = [X_i, X_j], antisymmetric in i, j
    for (i, j), entry in table.structure.items():
        for k, v in entry.items():
            C[i - 1, j - 1, k - 1] = v
            C[j - 1, i - 1, k - 1] = -v
    s = (np.einsum("jkl,ilm->ijkm", C, C) + np.einsum("kil,jlm->ijkm", C, C)
         + np.einsum("ijl,klm->ijkm", C, C))
    i, j, k = np.indices((n, n, n))
    return float(np.abs(s[(i < j) & (j < k)]).max(initial=0.0))


# ---------------------------------------------------------------------------
# published tables (transcribed as data)

def published_table(dim, c2, c1, c0):
    """The published structure constants for the matching basis family.

    Known publication typos are reproduced verbatim here; verify_table
    treats the bracket computed from the scalar triples as ground truth and
    flags any line it cannot reproduce.
    """
    k = math.sqrt(abs(c2)) if c2 != 0 else 0.0
    if dim == 4:
        if c2 == 0:
            s = {(1, 2): {1: 1.0, 4: c0},
                 (1, 3): {2: 2.0, 4: -0.5},
                 (2, 3): {3: 1.0}}
        elif c2 < 0:
            s = {(1, 2): {2: 4 * k},
                 (1, 3): {3: -4 * k},
                 (2, 3): {1: -8 * k, 4: -8 * c0 * k}}
        else:
            s = {(1, 2): {2: -4 * k},
                 (1, 3): {3: 4 * k},
                 (2, 3): {1: 4 * k, 4: 4 * c0 * k}}
    else:
        if c2 == 0:
            s = {(1, 2): {1: 1.0, 4: -3 * c1, 6: c0},
                 (1, 3): {2: 2.0, 6: -0.5},
                 (1, 4): {5: 1.0},
                 (1, 5): {6: 2 * c1},
                 (2, 3): {3: 1.0},
                 (2, 4): {4: 0.5},
                 (2, 5): {5: -0.5},
                 (3, 5): {4: -1.0},
                 (4, 5): {6: 0.5}}
        elif c2 < 0:
            p = c1 * c1 + 4 * c0 * k * k
            s = {(1, 2): {2: 4 * k},
                 (1, 3): {3: -4 * k},
                 (1, 4): {4: 2 * k},
                 (1, 5): {5: -2 * k},
                 (2, 3): {1: -8 * k, 6: -2 * p / k},
                 (2, 5): {4: -4 * k},
                 (3, 4): {5: 4 * k},
                 (4, 5): {6: 2 * k}}
        else:
            r = 4 * c0 * k - c1 * c1 / k
            s = {(1, 2): {3: -4 * k},
                 (1, 3): {2: 4 * k},
                 (1, 4): {5: -2 * k},
                 (1, 5): {4: 2 * k},
                 (2, 3): {1: 4 * k, 6: r},
                 (2, 4): {5: 2 * k},
                 (2, 5): {4: 2 * k},
                 (3, 4): {4: -2 * k},
                 (3, 5): {5: 2 * k},
                 (4, 5): {6: -k}}
    return CommutatorTable(dim=dim, structure=s)


@dataclass
class TableReport:
    matched: list
    flagged: list              # (i, j, expected {k: c}, computed {k: c}, diff)
    bracket_residual: float

    @property
    def ok(self):
        return not self.flagged


def verify_table(computed, expected):
    """Compare a computed CommutatorTable with an expected one.

    Lines that match within 1e-7 (1 + the largest expected constant) go to
    report.matched; mismatching lines are collected in report.flagged (not
    raised): the computed bracket is the ground truth and several published
    table lines contain typos.
    """
    matched, flagged = [], []
    n = computed.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            exp = expected.structure.get((i, j), {})
            got = computed.structure.get((i, j), {})
            keys = set(exp) | set(got)
            diff = max((abs(exp.get(kk, 0.0) - got.get(kk, 0.0))
                        for kk in keys), default=0.0)
            scale = 1.0 + max((abs(v) for v in exp.values()), default=0.0)
            if diff <= 1e-7 * scale:
                matched.append((i, j))
            else:
                flagged.append((i, j, exp, got, diff))
    return TableReport(matched=matched, flagged=flagged,
                       bracket_residual=computed.residual)


# ---------------------------------------------------------------------------
# delta-initial-condition subalgebra

def boundary_subalgebra(basis, x0):
    """The subspace of sum a_i v_i leaving the delta initial condition at
    x = x0 invariant; dimension 3 for a dim-6 basis (six fields), 1 for
    dim-4.  A singular value at most 1e-9 max(1, largest) counts as zero.
    Each member is field_from_scalars of the combined triple.

    Constraints on the scalar triple (tau, rho, sigma) at t = 0, with
    I0 = I(x0) (+ shift):
        dim 6:  tau(0) = 0,
                rho(0) + tau'(0) I0 / 2 = 0,
                sigma(0) - tau''(0) I0^2 / 8 - rho'(0) I0 / 2
                         + tau'(0) / 2 = 0.
        dim 4:  tau(0) = 0,  tau'(0) = 0,
                sigma(0) - tau''(0) I0^2 / 8 = 0.
    """
    inv, i_offset = basis[0].inv, basis[0].i_offset
    I0 = inv.I(x0) + i_offset
    dim6 = len(basis) == 6
    rows = []
    for vf in basis:
        t0v, td0, tdd0, r0, rd0, s0 = _jet_values(
            vf, ("tau", "tau1", "tau2", "rho", "rho1", "sigma"), [0.0])[:, 0]
        if dim6:
            rows.append([t0v,
                         r0 + 0.5 * td0 * I0,
                         s0 - 0.125 * tdd0 * I0 * I0 - 0.5 * rd0 * I0
                         + 0.5 * td0])
        else:
            rows.append([t0v, td0, s0 - 0.125 * tdd0 * I0 * I0])
    A = np.array(rows).T          # 3 x n constraint matrix
    u, sv, vt = np.linalg.svd(A)
    ns = [vt[irow] for irow in range(vt.shape[0])
          if irow >= len(sv) or sv[irow] <= 1e-9 * max(1.0, sv[0])]
    expected = 3 if dim6 else 1
    if len(ns) != expected:
        raise RankDeficiency(
            "expected a %d-dimensional subalgebra at x0=%g, got %d"
            % (expected, x0, len(ns)))
    return [field_from_scalars(*(_combine([vf.jet[JET.index(r)]
                                           for vf in basis], coefs)
                                 for r in ("tau", "rho", "sigma")),
                               inv, label="X%d" % (idx + 1),
                               i_offset=i_offset)
            for idx, coefs in enumerate(ns)]


def _combine(exprs, coefs):
    """sum_i coefs[i] exprs[i], left for field_from_scalars to simplify."""
    parts = [E.mul(E.num(float(cc)), ee) for cc, ee in zip(coefs, exprs)
             if abs(cc) > 1e-13 and ee is not E.ZERO]
    return Expr("add", parts) if parts else E.ZERO
