"""Symmetry-dimension classification of u_t = a u_xx + b u_x + c u.

The nontrivial symmetry algebra has dimension 6, 4, or 2:

- dim 6  iff  K = c2 I^2 + c1 I + c0 for constants (c2, c1, c0),
- dim 4  iff  K = mu/(I+s)^2 + c2 (I+s)^2 + c0 with mu != 0 for some
  translation s of the antiderivative gauge of I,
- dim 2  otherwise.

The 6-dimensional form is tested first: mu -> 0 degenerates the second form
into the first, so testing order makes the verdicts disjoint.  The verdict
and the constants come from least-squares fits of K against I at 64 Chebyshev
probe points; the shift s of the 4-dimensional form is fitted wherever it
lies, with (mu, c2, c0) solved for linearly at each s (variable projection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import least_squares

from . import expr as E
from .expr import chebyshev_points
from .invariants import (IllConditionedFit, ParabolicEquation,
                         compute_invariants, fokker_planck_equation,
                         probe_window)


N_POINTS = 64                  # probe points of the (I, K) fits
MU_FLOOR = 1e-8                # |mu| at or below this is not a dim-4 verdict


@dataclass
class SymmetryClassification:
    dim: int
    constants: dict = field(default_factory=dict)
    shift: float | None = None
    residual: float = math.inf


def _snap(v, tol=1e-7):
    """0 within 1e-7 (1 + |v|), else the nearest fraction of denominator
    <= 10^6 within tol (1 + |v|), else v."""
    if abs(v) <= 1e-7 * (1.0 + abs(v)):
        return 0.0
    fr = Fraction(v).limit_denominator(1_000_000)
    if abs(float(fr) - v) <= tol * (1.0 + abs(v)):
        return float(fr)
    return float(v)


def _samples(inv, i_offset):
    """(I, K) at the probe points.  Raises DomainError at the first point
    where I or K is undefined: the fit never silently drops a point."""
    lo, hi = probe_window(inv.domain)
    xs = chebyshev_points(lo, hi, N_POINTS)
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
    top = np.abs(Iv).max()
    if top >= 2.0 ** 512:                 # the I^2 column would overflow
        raise IllConditionedFit("I^2 overflows on the probe grid: |I| "
                                "reaches %g" % top)
    if Iv.max() - Iv.min() < 1e-8 * (1.0 + top):
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


def _shift(Iv, Kv):
    """The gauge shift s of the best dim-4 fit of Kv against Iv, or None.

    With z = (I - m)/h in [-1, 1], (z + (s+m)/h)^2 K is a quartic in z, so
    a linear fit of z^2 K on (z K, K, 1, z, ..., z^4) starts s from its z K
    coefficient -2 (s+m)/h.  That start cancels badly near a pole of K, so
    Levenberg-Marquardt refines s with (mu, c2, c0) projected out.  A
    floating-point fault, such as a probe point on the pole, is no fit.
    """
    m = (Iv.max() + Iv.min()) / 2.0
    h = (Iv.max() - Iv.min()) / 2.0
    z = (Iv - m) / h

    def projected(s):
        g = Iv + s[0]
        A = np.column_stack([g ** -2.0, g * g, np.ones_like(g)])
        return Kv - A @ np.linalg.lstsq(A, Kv, rcond=None)[0]

    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            A = np.column_stack([z * Kv, Kv] + [z ** k for k in range(5)])
            coef, *_ = np.linalg.lstsq(A, z * z * Kv, rcond=None)
            fit = least_squares(projected, [-h * coef[0] / 2.0 - m],
                                method="lm")
        except (FloatingPointError, np.linalg.LinAlgError):
            return None
    return float(fit.x[0])


def classify(inv, tol=1e-7, i_offset=0.0):
    """Classify from an InvariantTriple (or a ParabolicEquation).

    A fit is accepted when its worst residual is at most `tol` times
    1 + max |K|.  `i_offset` adds a constant to the I gauge; the verdict
    must not depend on it (shift-invariance property).
    """
    if isinstance(inv, ParabolicEquation):
        inv = compute_invariants(inv)
    Iv, Kv = _samples(inv, i_offset)
    scale = 1.0 + float(np.abs(Kv).max())

    coef6, resid6 = _fit_quadratic(Iv, Kv)
    if resid6 <= tol * scale:
        # the generators built from these constants must pass the 1e-8
        # determining check, which a fraction within 1e-7 of an accurate fit
        # can fail (drift b = 0.567 x: c2 = -95/1182, 4e-10 off)
        c0, c1, c2 = (_snap(v, 1e-12) for v in coef6)
        return SymmetryClassification(
            dim=6, constants={"c2": c2, "c1": c1, "c0": c0},
            residual=resid6)

    s = _shift(Iv, Kv)
    coef4, resid4 = (None, math.inf) if s is None else _fit_l4(Iv, Kv, s)
    if coef4 is not None and resid4 <= tol * scale \
            and abs(coef4[0]) > MU_FLOOR:
        mu, c2, c0 = (_snap(v) for v in coef4)
        return SymmetryClassification(
            dim=4, constants={"mu": mu, "c2": c2, "c0": c0},
            shift=_snap(s), residual=resid4)

    return SymmetryClassification(dim=2, residual=min(resid6, resid4))


def check_fp_logdiffusion(A, B):
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
    cls = classify(eq)
    if "c0" in cls.constants:
        cls.constants["c0"] = -cls.constants["c0"]
    return cls
