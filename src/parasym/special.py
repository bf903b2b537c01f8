"""Modified Bessel function of the first kind, I_nu, from scipy.special.

`iv(nu, z)` is I_nu(z), and `ive(nu, z)` is exp(-z) I_nu(z), the scaled form
the kernel catalog uses where its argument x*y/(2t) grows large at small t.
Both take a real order and return a Python float, or an array where nu or z
is one, elementwise.

scipy.special is loaded on the first call of either function, not when this
module is imported: most equations are analysed without a Bessel value.

Errors: `z < 0` raises DomainError, and so does `iv` when I_nu(z) is not a
finite float, caused by an OverflowError if infinite (I_0 past z = 713.98);
for arrays, the message names the first such argument.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import DomainError


@functools.cache
def _scipy_special():
    import scipy.special
    return scipy.special


def iv(nu, z):
    """I_nu(z) for z >= 0."""
    v = _scipy_special().iv(nu, _argument(z))
    if isinstance(v, np.ndarray):
        bad = ~np.isfinite(v)
        if not bad.any():
            return v
        nu, z, v = (np.broadcast_to(a, v.shape)[bad][0] for a in (nu, z, v))
    elif math.isfinite(v):
        return float(v)
    raise DomainError("I_nu(z) is not finite at nu=%g, z=%g" % (nu, z)) \
        from (OverflowError("I_nu(z) overflows") if math.isinf(v) else None)


def ive(nu, z):
    """exp(-z) * I_nu(z) for z >= 0."""
    v = _scipy_special().ive(nu, _argument(z))
    return v if isinstance(v, np.ndarray) else float(v)


def _argument(z):
    # a float is checked as a float: a numpy reduction costs microseconds,
    # and the PDE residual calls iv once per point
    if isinstance(z, float):
        negative = z < 0
    else:
        z = np.asarray(z, dtype=float)
        negative = (z < 0).any()
    if negative:
        raise DomainError("I_nu requires z >= 0")
    return z
