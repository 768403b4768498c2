"""Numerically stable Gaussian primitives.

Everything downstream (moment kernels, local-time densities, transform
checks) is built from five ingredients defined here:

* the heat kernel ``G_nu(t, x) = exp(-x^2 / (2 nu t)) / sqrt(2 pi nu t)``,
* the Brownian first-passage density ``h(t, r) = (r / t) G_1(t, r)``,
* the standard normal CDF ``Phi``,
* the product ``exp(c) * Phi(d)`` evaluated without overflow,
* the two-Gaussian product split used to collapse double integrals.

The ``exp(c) * Phi(d)`` pattern is the whole reason this module exists: the
moment formulas multiply enormous exponentials by tiny normal tails, and the
naive product dies in double precision exactly where the formulas get
interesting.  ``exp_phi`` adds the exponents instead of multiplying the
factors, with ``log Phi`` from ``scipy.special.log_ndtr``:

    exp(c) * Phi(d) = exp(c + log Phi(d)),

so neither factor is formed on its own.  The error is about
``|c| + d^2 / 2`` ulps, as for any evaluation from a rounded ``c`` and ``d``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError, KernelOverflowError
from .quadrature import integrate_1d

_LOG_DBL_MAX = 709.0  # log(DBL_MAX) rounded down
_TWO_PI = 2.0 * math.pi


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def heat_kernel(t: float, x, nu: float):
    """One-dimensional heat kernel ``G_nu(t, x)``, a Gaussian density with
    variance ``nu * t``.

    ``x`` may be an array; ``t`` and ``nu`` are scalars and must be positive.
    ``t = 0`` is a domain error by design: point-mass initial data is handled
    symbolically by the measure layer, never as a degenerate kernel.
    """
    if not (t > 0):
        raise DomainError(f"heat_kernel requires t > 0, got t={t}")
    var = nu * t
    if not (var > 0):  # nu <= 0, or nu * t underflowing to 0.0
        raise DomainError(f"heat_kernel requires nu * t > 0, got {nu} * {t}")
    if isinstance(x, (float, int)):
        return math.exp(-x * x / (2.0 * var)) / math.sqrt(_TWO_PI * var)
    x, scalar = _as_float_array(x)
    out = np.exp(-x * x / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return _ret(out, scalar)


def first_passage_density(t: float, r: float) -> float:
    """``h(t, r) = r / sqrt(2 pi t^3) exp(-r^2 / 2t) = (r / t) G_1(t, r)``,
    the density of the time a standard Brownian motion first reaches a level
    at distance ``r >= 0``.  As ``r G_1 <= exp(-1/2) / sqrt(2 pi)``, only the
    last division can overflow, and only where ``h`` itself does."""
    g = heat_kernel(t, r, 1.0)
    return 0.0 if g == 0.0 else r * g / t  # not inf * 0.0 at r = inf


def normal_cdf(x):
    """Standard normal CDF ``Phi(x) = erfc(-x / sqrt(2)) / 2``.

    Total on finite reals; deep-left-tail values underflow gracefully to
    subnormals, never to negative numbers.
    """
    x, scalar = _as_float_array(x)
    return _ret(special.ndtr(x), scalar)


def exp_phi(c, d):
    """``exp(c) * Phi(d)`` as ``exp(c + log Phi(d))``, which neither
    overflows for large ``c`` with ``d << 0`` nor underflows ``Phi(d)``.

    Floats give a Python float (QUADPACK callbacks stay on floats); anything
    else goes through numpy.  Raises KernelOverflowError when the *result*
    is not representable, reporting the offending log-value.
    """
    if isinstance(c, (float, int)) and isinstance(d, (float, int)):
        if not (math.isfinite(c) and math.isfinite(d)):
            raise DomainError("exp_phi requires finite c and d")
        log_val = c + float(special.log_ndtr(d))
        if log_val > _LOG_DBL_MAX:
            raise KernelOverflowError(
                "exp(c)*Phi(d) overflows double precision", exponent=log_val)
        return math.exp(log_val)

    c, c_scalar = _as_float_array(c)
    d, d_scalar = _as_float_array(d)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(d))):
        raise DomainError("exp_phi requires finite c and d")
    log_val = c + special.log_ndtr(d)
    if np.any(log_val > _LOG_DBL_MAX):
        raise KernelOverflowError(
            "exp(c)*Phi(d) overflows double precision",
            exponent=float(np.max(log_val)))
    return _ret(np.exp(log_val), c_scalar and d_scalar)


def gaussian_product_split(s: float, nu: float, y: float, z1: float, z2: float):
    """Split the product of two heat kernels sharing their first argument:

        G_nu(s, y - z1) * G_nu(s, y - z2)
            = G_{nu/2}(s, y - zbar) * G_nu(2 s, dz)

    with ``zbar = (z1 + z2) / 2`` and ``dz = z2 - z1``.  Returns the pair
    ``(G_{nu/2}(s, y - zbar), G_nu(2 s, dz))``.
    """
    zbar = 0.5 * (z1 + z2)
    dz = z2 - z1
    return heat_kernel(s, y - zbar, nu / 2.0), heat_kernel(2.0 * s, dz, nu)


def _moment_bound_args(name: str, s: float, t: float, ys):
    """``ys`` as floats and ``p = len(ys)``; requires p >= 1 and s, t > 0."""
    ys = [float(v) for v in ys]
    if not ys:
        raise DomainError(f"{name} requires at least one y")
    if not (s > 0 and t > 0):
        raise DomainError(f"{name} requires s > 0 and t > 0")
    return ys, len(ys)


def gaussian_product_moment_bound(s: float, t: float, x: float, ys):
    """Evaluate both sides of the Gaussian product-moment inequality

        ∫ G_1(s, x + z) Π_j G_1(t, z - y_j) dz
          <= (p+1)^{p/2} sqrt(t / (p s + t)) exp(p x^2 / (2 (p s + t)))
             Π_i G_1((p+1) t, y_i)

    with ``p = len(ys) >= 1``.  The left side is computed by adaptive
    quadrature (the independent route), the right side from the closed form.
    Returns ``(lhs, rhs)``; nothing here asserts that ``lhs <= rhs``.

    Both sides are Gaussian in ``v = (x, y_1..y_p)``, so
    ``log(lhs / rhs) = v^T Q(s, t, p) v`` with no constant term: the two
    sides are equal at ``x = ys = 0``.  The inequality therefore holds for
    every ``x`` and ``ys`` iff ``Q`` is negative semidefinite, which is
    exactly ``p s <= (p - 1) t / 2``.  Outside that region ``lhs / rhs`` is
    unbounded in ``v``; for ``p = 1`` that is every ``s > 0``, and
    p = 1, s = t = 1, x = -1, y = 2 gives ``lhs / rhs = sqrt(e)``.
    """
    ys, p = _moment_bound_args("gaussian_product_moment_bound", s, t, ys)

    # G_1(s, x + z) Π_j G_1(t, z - y_j) as one exponential.
    norm = 1.0 / (math.sqrt(_TWO_PI * s) * math.sqrt(_TWO_PI * t) ** p)
    two_s, two_t = 2.0 * s, 2.0 * t

    def integrand(z: float) -> float:
        expo = (x + z) ** 2 / two_s
        for yj in ys:
            expo += (z - yj) ** 2 / two_t
        return norm * math.exp(-expo)

    lhs = integrate_1d(integrand, -np.inf, np.inf)
    rhs = ((p + 1) ** (p / 2.0) * np.sqrt(t / (p * s + t))
           * np.exp(p * x * x / (2.0 * (p * s + t))))
    for yi in ys:
        rhs *= heat_kernel((p + 1) * t, yi, 1.0)
    return lhs, float(rhs)


def gaussian_product_moment_bound_repaired(s: float, t: float, x: float, ys):
    """A provable right side for the same product-moment integral:

        ∫ G_1(s, x + z) Π_j G_1(t, z - y_j) dz
          <= 2^{p/2} ((p s + t) / t)^{(p-1)/2}
             exp(p x^2 / (2 (p s + t))) Π_i G_1(2 (p s + t), y_i).

    The bound in :func:`gaussian_product_moment_bound` fails outside
    ``p s <= (p - 1) t / 2`` (e.g. p = 1, s = t = 1, x = -1, y = 2 exceeds
    it by a factor sqrt(e), 65%): its derivation trades the exponent
    ``-1/(4 (p s + t))`` for ``-1/(2 (p+1) t)``, which is only smaller when
    ``p s <= (p - 1) t / 2``.  Stopping the same argument one step earlier
    gives this version, which holds for all s, t > 0.  Returns ``rhs`` only
    (the lhs is shared).
    """
    ys, p = _moment_bound_args("gaussian_product_moment_bound_repaired",
                               s, t, ys)
    rhs = (2.0 ** (p / 2.0) * ((p * s + t) / t) ** ((p - 1) / 2.0)
           * np.exp(p * x * x / (2.0 * (p * s + t))))
    for yi in ys:
        rhs *= heat_kernel(2.0 * (p * s + t), yi, 1.0)
    return float(rhs)
