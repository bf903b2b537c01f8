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

Coefficient expressions use the extra symbol `Ivar` for I(x); differentiation
in x applies the chain rule d(Ivar)/dx = 1/sqrt(a), which keeps residuals at
machine precision even when I itself is quadrature-defined.
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
    scalars: tuple = None      # (tau, rho, sigma) Exprs in t when structured
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


def _dx(e, inv):
    """x-derivative with the chain rule for the Ivar symbol."""
    out = E.differentiate(e, X)
    if E.contains_symbol(e, IVAR):
        chain = E.simplify(E.div(E.ONE, inv.sqrt_a))
        out = E.simplify(E.add(out, E.mul(E.differentiate(e, IVAR), chain)))
    return out


def _dt(e):
    return E.differentiate(e, T)


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
    """Assemble (tau, xi, phi) from the scalar triple."""
    Iv = E.sym(IVAR)
    taud = _dt(tau)
    taudd = _dt(taud)
    rhod = _dt(rho)
    xi = E.simplify(E.mul(inv.sqrt_a,
                          E.add(E.mul(E.HALF, taud, Iv), rho)))
    phi = E.simplify(E.add(
        E.mul(E.num(-0.125), taudd, E.pow_(Iv, 2)),
        E.mul(E.num(-0.5), rhod, Iv),
        E.mul(E.num(0.25), taud, Iv, inv.J),
        E.mul(E.HALF, rho, inv.J),
        sigma))
    return VectorField(tau=E.simplify(tau), xi=xi, phi=phi, label=label,
                       scalars=(E.simplify(tau), E.simplify(rho),
                                E.simplify(sigma)),
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
    fields = []
    fam = _scalar_families(cls.dim, c2, c1, c0)
    for i, (tau, rho, sigma) in enumerate(fam):
        fields.append(field_from_scalars(tau, rho, sigma, inv,
                                         label="v%d" % (i + 1),
                                         i_offset=i_offset))
    m = VectorField(tau=E.ZERO, xi=E.ZERO, phi=E.ONE,
                    label="v%d" % (len(fam) + 1),
                    scalars=(E.ZERO, E.ZERO, E.ONE), inv=inv,
                    i_offset=i_offset)
    fields.append(m)
    return fields


# ---------------------------------------------------------------------------
# determining equations

def check_determining(inv, vf, n=16):
    """Residuals of the two determining equations and the xi equation on an
    n-by-n grid (n >= 2) of the probe window times [0.05, 0.45], scaled by
    the magnitude of the participating terms.

    deteq1: 8 a^2 phi_x + (a' - 2b)(xi a' - a tau') - a [2 xi a'' - 4 xi_t
            - 4 xi b'] = 0
    deteq2: c tau' - phi_t + xi c' + b phi_x + a phi_xx = 0
    xieq:   xi_x - a'/(2a) xi - tau'/2 = 0
    """
    a, b, c = inv.a, inv.b, inv.c
    ap = E.differentiate(a, X)
    app = E.differentiate(ap, X)
    bp = E.differentiate(b, X)
    cp = E.differentiate(c, X)
    taud = _dt(vf.tau)
    xi_x = _dx(vf.xi, inv)
    xi_t = _dt(vf.xi)
    phi_x = _dx(vf.phi, inv)
    phi_xx = _dx(phi_x, inv)
    phi_t = _dt(vf.phi)

    lo, hi = probe_window(inv.domain)
    xs = chebyshev_points(lo, hi, n)
    t0, t1 = 0.05, 0.45
    ts = [t0 + (t1 - t0) * j / (n - 1) for j in range(n)]
    worst = {"deteq1": 0.0, "deteq2": 0.0, "xieq": 0.0}
    for x in xs:
        # a, b, c, their derivatives and I depend on x only
        env = vf.env(x, ts[0])
        ev = lambda e: E.evaluate(e, env) if e is not E.ZERO else 0.0
        av, bv, cv = ev(a), ev(b), ev(c)
        apv, appv, bpv, cpv = ev(ap), ev(app), ev(bp), ev(cp)
        for t in ts:
            env[T] = t
            tdv, xv, xtv = ev(taud), ev(vf.xi), ev(xi_t)
            pxv, pxxv, ptv = ev(phi_x), ev(phi_xx), ev(phi_t)
            terms1 = (8 * av * av * pxv,
                      (apv - 2 * bv) * (xv * apv - av * tdv),
                      -av * (2 * xv * appv - 4 * xtv - 4 * xv * bpv))
            r1 = sum(terms1)
            s1 = sum(abs(u) for u in terms1) + 1.0
            terms2 = (cv * tdv, -ptv, xv * cpv, bv * pxv, av * pxxv)
            r2 = sum(terms2)
            s2 = sum(abs(u) for u in terms2) + 1.0
            terms3 = (ev(xi_x), -apv / (2 * av) * xv, -0.5 * tdv)
            r3 = sum(terms3)
            s3 = sum(abs(u) for u in terms3) + 1.0
            worst["deteq1"] = max(worst["deteq1"], abs(r1) / s1)
            worst["deteq2"] = max(worst["deteq2"], abs(r2) / s2)
            worst["xieq"] = max(worst["xieq"], abs(r3) / s3)
    worst["max"] = max(worst.values())
    return worst


# ---------------------------------------------------------------------------
# commutator tables

BRACKET_TIMES = [0.07 + 0.34 * j / 9 for j in range(10)]


def _triple_values(vf):
    """(tau, rho, sigma, tau', rho', sigma') of vf at BRACKET_TIMES, as an
    array of shape (len(BRACKET_TIMES), 6)."""
    exprs = list(vf.scalars) + [_dt(e) for e in vf.scalars]
    return np.array([[E.evaluate(e, {T: t}) if e is not E.ZERO else 0.0
                      for e in exprs] for t in BRACKET_TIMES])


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


def commutator_table(basis):
    """Structure constants of the emitted basis: each bracket's scalar triple
    from the two triples (module docstring), decomposed by least squares on
    the stacked basis triples at BRACKET_TIMES."""
    vals = [_triple_values(vf) for vf in basis]
    A = np.column_stack([v[:, :3].ravel() for v in vals])
    n = len(basis)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = []
    for i, j in pairs:
        tv, rv, sv, tv1, rv1, sv1 = vals[i].T
        tw, rw, sw, tw1, rw1, sw1 = vals[j].T
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

    Constraints on the scalar triple (tau, rho, sigma) at t = 0, with
    I0 = I(x0) (+ shift):
        dim 6:  tau(0) = 0,
                rho(0) + tau'(0) I0 / 2 = 0,
                sigma(0) - tau''(0) I0^2 / 8 - rho'(0) I0 / 2
                         + tau'(0) / 2 = 0.
        dim 4:  tau(0) = 0,  tau'(0) = 0,
                sigma(0) - tau''(0) I0^2 / 8 = 0.
    """
    inv = basis[0].inv
    I0 = inv.I(x0) + basis[0].i_offset
    dim6 = len(basis) == 6
    rows = []
    for vf in basis:
        tau, rho, sigma = vf.scalars
        taud = _dt(tau)
        taudd = _dt(taud)
        rhod = _dt(rho)
        at0 = lambda e: E.evaluate(e, {T: 0.0}) if e is not E.ZERO else 0.0
        t0v, td0, tdd0 = at0(tau), at0(taud), at0(taudd)
        r0, rd0, s0 = at0(rho), at0(rhod), at0(sigma)
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
    out = []
    for idx, coefs in enumerate(ns):
        tau = _combine([vf.tau for vf in basis], coefs)
        xi = _combine([vf.xi for vf in basis], coefs)
        phi = _combine([vf.phi for vf in basis], coefs)
        sc = tuple(_combine([vf.scalars[m] for vf in basis], coefs)
                   for m in range(3))
        out.append(VectorField(tau=tau, xi=xi, phi=phi,
                               label="X%d" % (idx + 1), scalars=sc,
                               inv=inv, i_offset=basis[0].i_offset))
    return out


def _combine(exprs, coefs):
    parts = [E.mul(E.num(float(cc)), ee) for cc, ee in zip(coefs, exprs)
             if abs(cc) > 1e-13 and ee is not E.ZERO]
    return E.simplify(Expr("add", parts)) if parts else E.ZERO
