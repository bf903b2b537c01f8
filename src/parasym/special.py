"""Modified Bessel function of the first kind, I_nu, from scipy.special.

`iv(nu, z)` is I_nu(z), and `ive(nu, z)` is exp(-z) I_nu(z), the scaled form
the kernel catalog uses where its argument x*y/(2t) grows large at small t.
Both take a real order and return a Python float.

Errors: `z < 0` raises DomainError, and so does `iv` when I_nu(z) is not a
finite float; I_0 overflows past z = 713.98.
"""

from __future__ import annotations

import math

import scipy.special

from .expr import DomainError


def iv(nu, z):
    """I_nu(z) for z >= 0."""
    v = float(scipy.special.iv(nu, _argument(z)))
    if not math.isfinite(v):
        raise DomainError("I_nu(z) is not finite at nu=%g, z=%g" % (nu, z))
    return v


def ive(nu, z):
    """exp(-z) * I_nu(z) for z >= 0."""
    return float(scipy.special.ive(nu, _argument(z)))


def _argument(z):
    z = float(z)
    if z < 0:
        raise DomainError("I_nu requires z >= 0")
    return z
