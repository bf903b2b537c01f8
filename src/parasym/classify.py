"""Symmetry-dimension classification of u_t = a u_xx + b u_x + c u.

The nontrivial symmetry algebra has dimension 6, 4, or 2:

- dim 6  iff  K = c2 I^2 + c1 I + c0 for constants (c2, c1, c0),
- dim 4  iff  K = mu/(I+s)^2 + c2 (I+s)^2 + c0 with mu != 0 for some
  translation s of the antiderivative gauge of I,
- dim 2  otherwise.

The 6-dimensional form is tested first: mu -> 0 degenerates the second form
into the first, so testing order makes the verdicts disjoint.  A symbolic
path (polynomial matching of K against I) runs when I is symbolic; the
numeric path samples (I, K) at 64 Chebyshev points and fits by least squares,
with a golden-section search over the shift s for the 4-dimensional form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expr as E
from .expr import ParasymError, chebyshev_points
from .invariants import (InvariantTriple, ParabolicEquation,
                         compute_invariants, fokker_planck_equation,
                         probe_window)


class IllConditionedFit(ParasymError):
    """I is nearly constant on the probe grid — degenerate domain."""


@dataclass
class ClassifyConfig:
    n_points: int = 64
    tol: float = 1e-7
    mu_floor: float = 1e-8
    shift_range: tuple = (-10.0, 10.0)
    coarse_points: int = 41
    golden_iters: int = 80


@dataclass
class SymmetryClassification:
    dim: int
    constants: dict = field(default_factory=dict)
    shift: float | None = None
    residual: float = math.inf
    fit_mode: str = "numeric"

    def as_dict(self):
        out = {"dim": self.dim, "fit_mode": self.fit_mode,
               "residual": self.residual}
        out.update({k: float(v) for k, v in self.constants.items()})
        if self.shift is not None:
            out["shift"] = float(self.shift)
        return out


def _snap(v, tol=1e-7):
    """0 within 1e-7 (1 + |v|), else the nearest fraction of denominator
    <= 10^6 within tol (1 + |v|), else v."""
    if abs(v) <= 1e-7 * (1.0 + abs(v)):
        return 0.0
    fr = Fraction(v).limit_denominator(1_000_000)
    if abs(float(fr) - v) <= tol * (1.0 + abs(v)):
        return float(fr)
    return float(v)


def _samples(inv, config, i_offset=0.0):
    """(I, K) at the probe points.  Raises DomainError at the first point
    where I or K is undefined: the fit never silently drops a point."""
    lo, hi = probe_window(inv.domain)
    xs = chebyshev_points(lo, hi, config.n_points)
    Iv, Kv = [], []
    for x in xs:
        try:
            Iv.append(inv.I(x) + i_offset)
        except E.DomainError as exc:
            raise E.DomainError("I undefined at x=%g: %s" % (x, exc)) from exc
        try:
            Kv.append(E.evaluate(inv.K, {"x": x}))
        except E.DomainError as exc:
            raise E.DomainError("K undefined at x=%g: %s" % (x, exc)) from exc
    Iv = np.array(Iv)
    Kv = np.array(Kv)
    if Iv.max() - Iv.min() < 1e-8 * (1.0 + np.abs(Iv).max()):
        raise IllConditionedFit("I nearly constant on the probe grid")
    return Iv, Kv


def _fit_quadratic(Iv, Kv):
    A = np.column_stack([np.ones_like(Iv), Iv, Iv * Iv])
    coef, *_ = np.linalg.lstsq(A, Kv, rcond=None)
    resid = float(np.max(np.abs(A @ coef - Kv)))
    return coef, resid


def _fit_l4(Iv, Kv, s):
    g = Iv + s
    if np.min(np.abs(g)) < 1e-6:
        return None, math.inf
    A = np.column_stack([g ** -2.0, g * g, np.ones_like(g)])
    try:
        coef, *_ = np.linalg.lstsq(A, Kv, rcond=None)
    except np.linalg.LinAlgError:
        return None, math.inf
    resid = float(np.max(np.abs(A @ coef - Kv)))
    return coef, resid


def _golden_min(f, lo, hi, iters):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _symbolic_quadratic(inv):
    """Try to certify K = c2 I^2 + c1 I + c0 symbolically."""
    if not inv.symbolic_I:
        return None
    window = probe_window(inv.domain)
    coeffs = E.match_polynomial(inv.K, inv.I.expr, 2, interval=window)
    if coeffs is None:
        return None
    vals = []
    for ce in coeffs:
        if E.free_symbols(ce) - set(E.DEFAULT_BINDINGS):
            return None
        vals.append(E.evaluate(ce, {}))
    return vals  # [c0, c1, c2]


def classify(inv, config=None, i_offset=0.0):
    """Classify from an InvariantTriple (or a ParabolicEquation).

    `i_offset` adds a constant to the I gauge; the verdict must not depend
    on it (shift-invariance property).
    """
    if isinstance(inv, ParabolicEquation):
        inv = compute_invariants(inv)
    config = config or ClassifyConfig()
    Iv, Kv = _samples(inv, config, i_offset)
    scale = 1.0 + float(np.abs(Kv).max())

    coef6, resid6 = _fit_quadratic(Iv, Kv)
    if resid6 <= config.tol * scale:
        fit_mode = "numeric"
        sym = _symbolic_quadratic(inv)
        if sym is not None and i_offset == 0.0:
            fit_mode = "symbolic"
        # the generators built from these constants must pass the 1e-8
        # determining check, which a fraction within 1e-7 of an accurate fit
        # can fail (drift b = 0.567 x: c2 = -95/1182, 4e-10 off)
        c0, c1, c2 = (_snap(v, 1e-12) for v in coef6)
        return SymmetryClassification(
            dim=6, constants={"c2": c2, "c1": c1, "c0": c0},
            residual=resid6, fit_mode=fit_mode)

    lo, hi = config.shift_range

    def res(s):
        return _fit_l4(Iv, Kv, s)[1]

    coarse = np.linspace(lo, hi, config.coarse_points)
    rvals = [res(s) for s in coarse]
    i_best = int(np.argmin(rvals))
    step = (hi - lo) / (config.coarse_points - 1)
    s_lo = coarse[max(0, i_best - 1)]
    s_hi = coarse[min(len(coarse) - 1, i_best + 1)]
    if s_lo == s_hi:
        s_lo, s_hi = s_lo - step, s_hi + step
    s_best = _golden_min(res, s_lo, s_hi, config.golden_iters)
    coef4, resid4 = _fit_l4(Iv, Kv, s_best)
    if coef4 is not None and resid4 <= config.tol * scale \
            and abs(coef4[0]) > config.mu_floor:
        mu, c2, c0 = (_snap(v) for v in coef4)
        return SymmetryClassification(
            dim=4, constants={"mu": mu, "c2": c2, "c0": c0},
            shift=_snap(s_best), residual=resid4, fit_mode="numeric")

    return SymmetryClassification(
        dim=2, residual=min(resid6, resid4), fit_mode="numeric")


def check_fp_logdiffusion(A, B, config=None):
    """Classify u_t + [(4 x^2 ln x) u_x + (A x + B x ln x) u]_x = 0 on (0, 1).

    Its semi-invariant in the source's time orientation is

        K = -(A^2-4)/(16 ln x) - (B-4)^2 ln x / 16 - (A-4)(B-4)/8,

    so the symmetry algebra is 6-dimensional iff A = +-2 and 4-dimensional
    otherwise.  (A drift printed elsewhere as ``B ln x`` is inconsistent
    with that K formula and with the A=+-2 criterion; ``B x ln x`` is the
    drift that K actually belongs to, and is what this check classifies.)

    The divergence-form equation is forward-parabolic as written (its
    diffusion coefficient -4 x^2 ln x is positive on (0,1)); the source
    convention reads it with the opposite time orientation, which negates
    the constant term of K.  The generic pipeline classifies the honest
    forward equation and the report converts the constant term back, so
    (A,B)=(0,0) gives dim 4 with (mu, c2, c0) = (1/4, -1, -2).
    """
    x = E.sym("x")
    p = E.simplify(E.mul(E.num(-4), E.pow_(x, 2), E.log_(x)))
    q = E.simplify(E.neg(E.add(E.mul(E.num(A), x),
                               E.mul(E.num(B), x, E.log_(x)))))
    eq = fokker_planck_equation(p, q, domain=(0.0, 1.0))
    cls = classify(eq, config)
    if "c0" in cls.constants:
        cls.constants["c0"] = -cls.constants["c0"]
    return cls
