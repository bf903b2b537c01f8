"""Symmetry-dimension classification of u_t = a u_xx + b u_x + c u.

The nontrivial symmetry algebra has dimension 6, 4, or 2:

- dim 6  iff  K = c2 I^2 + c1 I + c0 for constants (c2, c1, c0),
- dim 4  iff  K = mu/(I+s)^2 + c2 (I+s)^2 + c0 with mu != 0 for some
  translation s of the antiderivative gauge of I,
- dim 2  otherwise.

The 6-dimensional form is tested first: mu -> 0 degenerates the second form
into the first, so testing order makes the verdicts disjoint.  The verdict
and the constants come from least-squares fits of K against I at 64 Chebyshev
probe points, sampled by invariants.values_at; the shift s of the
4-dimensional form is fitted wherever it lies, with (mu, c2, c0) solved for
linearly at each s (variable projection, Golub and Pereyra 1973) and s
refined by Gauss-Newton steps on the projected residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expr import chebyshev_points
from .invariants import (IllConditionedFit, ParabolicEquation,
                         compute_invariants, probe_window, values_at)


N_POINTS = 64                  # probe points of the (I, K) fits
MU_FLOOR = 1e-8                # |mu| at or below this is not a dim-4 verdict
# the shift fit stops at a relative step or drop in cost of SHIFT_TOL, or
# after SHIFT_STEPS residuals: scipy's Levenberg-Marquardt defaults
SHIFT_TOL = 1e-8
SHIFT_STEPS = 100


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
    xs = chebyshev_points(*probe_window(inv.domain), N_POINTS)
    Iv, Kv = values_at([("I", inv.I), ("K", inv.K)], xs).T
    Iv = Iv + i_offset
    top = np.abs(Iv).max()
    if top >= 2.0 ** 512:                 # the I^2 column would overflow
        raise IllConditionedFit("I^2 overflows on the probe grid: |I| "
                                "reaches %g" % top)
    if Iv.max() - Iv.min() < 1e-8 * (1.0 + top):
        raise IllConditionedFit("I nearly constant on the probe grid")
    return Iv, Kv


def _fit_quadratic(Iv, Kv):
    """(c0, c1, c2) of the fit K = c2 I^2 + c1 I + c0, and its worst
    residual.  The fit is made on z = (I - m)/h in [-1, 1] and mapped back,
    so the constants do not depend on the gauge offset of I."""
    m = (Iv.max() + Iv.min()) / 2.0
    h = (Iv.max() - Iv.min()) / 2.0
    z = (Iv - m) / h
    A = np.column_stack([np.ones_like(z), z, z * z])
    d, *_ = np.linalg.lstsq(A, Kv, rcond=None)
    resid = float(np.max(np.abs(A @ d - Kv)))
    u = m / h
    return (d[0] - d[1] * u + d[2] * u * u, (d[1] - 2 * d[2] * u) / h,
            d[2] / (h * h)), resid


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


def _projection(Iv, Kv, s):
    """The residual of Kv after projecting out the columns (g^-2, g^2, 1),
    g = Iv + s, and Kaufman's (1975) approximation of its derivative in s,
    -(1 - QQ^T) (dA/ds) c, both from one QR of the 64x3 matrix A."""
    g = Iv + s
    Q, R = np.linalg.qr(np.column_stack([g ** -2.0, g * g, np.ones_like(g)]))
    qk = Q.T @ Kv
    mu, c2, _ = np.linalg.solve(R, qk)
    dAc = 2.0 * (c2 * g - mu * g ** -3.0)
    return Kv - Q @ qk, Q @ (Q.T @ dAc) - dAc


def _shift(Iv, Kv):
    """The gauge shift s of the best dim-4 fit of Kv against Iv, or None.

    With z = (I - m)/h in [-1, 1], (z + (s+m)/h)^2 K is a quartic in z, so
    a linear fit of z^2 K on (z K, K, 1, z, ..., z^4) starts s from its z K
    coefficient -2 (s+m)/h.  That start cancels badly near a pole of K, so
    Gauss-Newton steps refine s with (mu, c2, c0) projected out.  A step
    that does not lower the cost |r|^2 is halved.  The fit stops when J is
    orthogonal to r, when a step is at most SHIFT_TOL times the distance
    from the pole -s to the nearest probe point or lowers the cost by at
    most SHIFT_TOL of it, when the pole has moved so far off that I + s no
    longer resolves I (a K with no finite best shift, such as a cubic,
    sends it there), or after SHIFT_STEPS residuals.  A floating-point fault,
    such as a probe point on the pole, is no fit.
    """
    m = (Iv.max() + Iv.min()) / 2.0
    h = (Iv.max() - Iv.min()) / 2.0
    z = (Iv - m) / h

    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            A = np.column_stack([z * Kv, Kv] + [z ** k for k in range(5)])
            coef, *_ = np.linalg.lstsq(A, z * z * Kv, rcond=None)
            s = -h * coef[0] / 2.0 - m
            r, J = _projection(Iv, Kv, s)
            cost, step = r @ r, None
            for _ in range(SHIFT_STEPS):
                if step is None:
                    jr, jj = J @ r, J @ J
                    if abs(jr) <= SHIFT_TOL * math.sqrt(jj * cost):
                        break           # J is orthogonal to r
                    step = -jr / jj
                r1, J1 = _projection(Iv, Kv, s + step)
                cost1 = r1 @ r1
                small = abs(step) <= SHIFT_TOL * np.abs(Iv + s).min()
                if cost1 >= cost:
                    if small:
                        break
                    step /= 2.0
                    continue
                s, r, J, drop, cost = s + step, r1, J1, cost - cost1, cost1
                if small or drop <= SHIFT_TOL * (cost + drop) \
                        or h <= SHIFT_TOL * abs(s + m):
                    break
                step = None
        except (FloatingPointError, np.linalg.LinAlgError):
            return None
    return float(s)


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
