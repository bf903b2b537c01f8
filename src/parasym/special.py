"""Modified Bessel function of the first kind, I_nu, from scipy.special.

`iv(nu, z)` is I_nu(z), and `ive(nu, z)` is exp(-z) I_nu(z), the scaled form
the kernel catalog uses where its argument x*y/(2t) grows large at small t.
Both take a real order and return a Python float.

scipy.special is loaded on the first call of either function, not when this
module is imported: most equations are analysed without a Bessel value.

Errors: `z < 0` raises DomainError, and so does `iv` when I_nu(z) is not a
finite float, caused by an OverflowError if infinite (I_0 past z = 713.98).
"""

from __future__ import annotations

import functools
import math

from .expr import DomainError


@functools.cache
def _scipy_special():
    import scipy.special
    return scipy.special


def iv(nu, z):
    """I_nu(z) for z >= 0."""
    v = float(_scipy_special().iv(nu, _argument(z)))
    if not math.isfinite(v):
        raise DomainError("I_nu(z) is not finite at nu=%g, z=%g" % (nu, z)) \
            from (OverflowError("I_nu(z) overflows") if math.isinf(v) else None)
    return v


def ive(nu, z):
    """exp(-z) * I_nu(z) for z >= 0."""
    return float(_scipy_special().ive(nu, _argument(z)))


def _argument(z):
    z = float(z)
    if z < 0:
        raise DomainError("I_nu requires z >= 0")
    return z
