"""Modified Bessel function of the first kind, implemented from scratch.

Two layers:

- `bessel_i(nu, z)` — the public, range-validated entry point (|nu| <= 20,
  |z| <= 50), power series with a term-ratio stopping rule and an asymptotic
  expansion for large argument.
- `ive(nu, z)` / `iv(nu, z)` — internal exponentially-scaled / unscaled
  evaluators without the validated-range cap, used by the kernel catalog where
  the argument x*y/(2t) gets very large at small t.

The asymptotic expansion is only used where it actually converges
(z comfortably larger than nu^2); otherwise the positive-term power series is
used, which is cancellation-free for z >= 0 at any length.
"""

from __future__ import annotations

import math

from .expr import DomainError, ParasymError


class OutOfValidatedRange(ParasymError):
    """Argument outside the range this implementation is validated for."""


_MAX_NU = 20.0
_MAX_Z = 50.0
_TERM_RATIO_TOL = 1e-13


def bessel_i(nu, z):
    """I_nu(z), validated for |nu| <= 20 and |z| <= 50.

    Raises OutOfValidatedRange outside that box and DomainError for negative
    arguments with non-integer order (where the real function is undefined).
    """
    nu = float(nu)
    z = float(z)
    if abs(nu) > _MAX_NU or abs(z) > _MAX_Z:
        raise OutOfValidatedRange(
            "bessel_i validated for |nu|<=%g, |z|<=%g; got nu=%g z=%g"
            % (_MAX_NU, _MAX_Z, nu, z))
    if z < 0:
        if nu != round(nu):
            raise DomainError("I_nu at negative argument needs integer order")
        sign = -1.0 if int(round(nu)) % 2 else 1.0
        return sign * bessel_i(nu, -z)
    return iv(nu, z)


def iv(nu, z):
    """I_nu(z) for z >= 0, no range cap.  May overflow for very large z."""
    s = ive(nu, z)
    try:
        return s * math.exp(z)
    except OverflowError:
        raise DomainError("I_nu overflow at z=%g" % z) from None


def ive(nu, z):
    """exp(-z) * I_nu(z) for z >= 0, no range cap."""
    nu = float(nu)
    z = float(z)
    if z < 0:
        raise DomainError("scaled I_nu requires z >= 0")
    if nu < 0 and nu == round(nu):
        nu = -nu  # I_{-n} = I_n for integer n
    if z == 0.0:
        if nu == 0:
            return 1.0
        if nu > 0:
            return 0.0
        return math.inf  # negative non-integer order diverges at 0
    if z > max(30.0, 2.0 * nu * nu + 10.0):
        return _ive_asymptotic(nu, z)
    return _ive_series(nu, z)


def _ive_series(nu, z):
    # exp(-z) * (z/2)^nu * sum_k (z^2/4)^k / (k! Gamma(nu+k+1))
    x2 = 0.25 * z * z
    # leading factor in log space to dodge overflow for moderate z, large nu
    try:
        lg = math.lgamma(nu + 1.0)
    except ValueError:
        lg = math.inf  # pole: first term vanishes, handled via term recurrence
    if math.isinf(lg):
        # nu+1 is a non-positive integer pole; start the sum at the first
        # non-singular term k0 = -nu (integer nu handled by caller, so this
        # only occurs transiently and term recurrence below covers it)
        return _ive_series_pole(nu, z)
    term = _gamma_sign(nu + 1.0) * math.exp(nu * math.log(0.5 * z) - z - lg)
    total = term
    k = 0
    while True:
        k += 1
        term *= x2 / (k * (nu + k))
        total += term
        if abs(term) <= _TERM_RATIO_TOL * abs(total) and nu + k > 0:
            return total
        if k > 100000:
            raise DomainError("bessel series failed to converge")


def _gamma_sign(x):
    if x > 0:
        return 1.0
    return -1.0 if int(math.ceil(-x)) % 2 else 1.0


def _ive_series_pole(nu, z):
    # Gamma(nu+k+1) has a pole for small k: those terms are zero.
    k0 = int(math.ceil(-nu - 1.0 + 1e-12)) + 1
    x2 = 0.25 * z * z
    lg = math.lgamma(nu + k0 + 1.0)
    term = math.exp((nu + 2 * k0) * math.log(0.5 * z) - z
                    - math.lgamma(k0 + 1.0) - lg)
    total = term
    k = k0
    while True:
        k += 1
        term *= x2 / (k * (nu + k))
        total += term
        if term <= _TERM_RATIO_TOL * abs(total):
            return total
        if k > 100000:
            raise DomainError("bessel series failed to converge")


def _ive_asymptotic(nu, z):
    # exp(-z) I_nu(z) ~ (2 pi z)^{-1/2} sum_k (-1)^k a_k(nu) / z^k,
    # a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (8^k k!)
    mu = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev = abs(term)
    for k in range(1, 60):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * z)
        if abs(term) >= prev:
            break  # series started diverging; stop at the smallest term
        total += term
        prev = abs(term)
        if abs(term) <= 1e-16 * abs(total):
            break
    return total / math.sqrt(2.0 * math.pi * z)
