"""Numerically stable Gaussian primitives.

Everything downstream (moment kernels, local-time densities, transform
checks, the closed two-point form) is built from six ingredients defined
here:

* the heat kernel ``G_nu(t, x) = exp(-x^2 / (2 nu t)) / sqrt(2 pi nu t)``,
* the Brownian first-passage density ``h(t, r) = (r / t) G_1(t, r)``,
* the standard normal CDF ``Phi``,
* the product ``exp(c) * Phi(d)`` evaluated without overflow,
* the log of the bivariate normal CDF ``Phi2`` for correlation r <= 0,
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
from .quadrature import integrate_1d, panel_nodes

_LOG_DBL_MAX = 709.0  # log(DBL_MAX) rounded down
_TWO_PI = 2.0 * math.pi
_SQRT_TWO_PI = math.sqrt(_TWO_PI)


def root_two_pi_var(var: float) -> float:
    """``sqrt(2 pi var)``, a Gaussian's normaliser.  Where ``2 pi var``
    overflows but ``var`` is finite (var above ~2.9e307) it is taken as
    ``sqrt(2 pi) sqrt(var)``, which is finite; every other value is the
    single square root's."""
    root = math.sqrt(_TWO_PI * var)
    return _SQRT_TWO_PI * math.sqrt(var) if root == math.inf else root


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
    root = root_two_pi_var(var)
    if isinstance(x, (float, int)):
        return math.exp(-x * x / (2.0 * var)) / root
    x, scalar = _as_float_array(x)
    return _ret(np.exp(-x * x / (2.0 * var)) / root, scalar)


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


# The bivariate normal CDF below integrates over a window past which its
# integrand is below e^-_PHI2_TAIL (~3e-17) of its peak, with _PHI2_NODES
# Gauss-Legendre nodes on each side of the peak.
_PHI2_TAIL = 38.0
_PHI2_NODES = 24
_GL_T, _GL_W = panel_nodes([0.0, 1.0], _PHI2_NODES)
# Past y = max(h, 0) + _CLIFF_CAP the weight phi(h - y) holds less than
# e^-1250 of its mass on y >= 0, so a cliff further out may sit there.
_CLIFF_CAP = 50.0
# Phi(_PHI_ONE) = 1 in double precision.
_PHI_ONE = 40.0
_LOG_SQRT_2PI = 0.5 * math.log(_TWO_PI)
_TWO_TAIL = 2.0 * _PHI2_TAIL
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_MINUS_SQRT_HALF = -math.sqrt(0.5)


def _mills(u: float) -> float:
    """phi(u) / Phi(u) without overflow or cancellation; inf at u = -inf."""
    return _SQRT_2_OVER_PI / max(float(special.erfcx(u * _MINUS_SQRT_HALF)),
                                 1e-320)


def _window(h: float, p: float, q: float, lo: float, hi: float,
            kappa: float):
    """Where to put the nodes of ∫_lo^hi exp(h y - y²/2) Phi(p + q y) dy,
    for h <= 0, whose log is concave with curvature between ``kappa`` and
    at most twice that: the window [y - left, y + right] in [lo, hi], as
    ``(h - y, u, q, log Phi(u), log integrand at y, -left, right)`` with
    u = p + q y.

    y is one Newton step towards the peak from that of the Gaussian that
    log Phi(u) ~ -u²/2 gives.  On a side where the log falls at rate s >= 0
    from y (s = 0 both ways at an interior peak), it falls by at least
    s d + kappa d²/2 over a distance d: the window ends where that reaches
    _PHI2_TAIL.
    """
    qq = q * q
    y = min(max((h - p * q) / (1.0 + qq), lo), hi)
    u = p + q * y
    m = _mills(u)
    y = min(max(y + (h - y + q * m) / max(1.0 + qq * m * (m + u), 1.0),
                lo), hi)
    u = p + q * y
    slope = h - y + q * _mills(u)
    fall = abs(slope)
    near = _TWO_TAIL / (math.sqrt(fall * fall + kappa * _TWO_TAIL) + fall)
    far = math.sqrt(_TWO_TAIL / kappa)
    left, right = (near, far) if slope > 0 else (far, near)
    log_phi = float(special.log_ndtr(u))
    return (h - y, u, q, log_phi, (h - 0.5 * y) * y + log_phi,
            -min(left, y - lo), min(right, hi - y))


def _log_tilted_integrals(jobs) -> list[float]:
    """log ∫_lo^hi exp(h y - y²/2) Phi(p + q y) dy for every job
    ``(h, p, q, lo, hi, kappa)`` of :func:`_window`'s kind, all nodes in one
    numpy pass, relative to the integrand's log at the window's centre."""
    rows = np.array([_window(*job) for job in jobs])
    slope, u, q, log_phi, peak = rows[:, :5].T
    spans = rows[:, 5:].T  # -left, right
    # Inputs past ~1e8 may overflow here, to values that are masked below or
    # to a nan result.
    with np.errstate(all="ignore"):
        d = spans[..., None] * _GL_T
        logs = ((slope[:, None] - 0.5 * d) * d - log_phi[:, None]
                + special.log_ndtr(u[:, None] + q[:, None] * d))
        # Past |u| ~ 1e8 the logs carry no digit of their difference to the
        # peak; the caps keep such rows, whose integrals underflow, finite.
        sums = np.exp(np.minimum(logs, 1.0)) @ _GL_W
        return (peak + np.log(np.maximum(
            spans[1] * sums[1] - spans[0] * sums[0], 1e-300))).tolist()


def log_phi2_slope(points) -> list[float]:
    """``log ∫_0^inf phi(h - y) Phi(beta - b y) dy + min(h, 0)² / 2`` for
    every float triple ``(h, beta, b)`` in ``points``, with ``b >= 0``.

    The integral is ``Phi2(h, k, r)``, P(X < h, Y < k) for a standard
    bivariate normal, at ``r = -b / sqrt(1 + b²)`` and ``k = beta /
    sqrt(1 + b²)`` (see :func:`log_phi2`); the log is scaled by
    ``e^{min(h, 0)² / 2}`` like erfcx, so that callers can cancel ``-h²/2``
    against their own exponents exactly.  The log of the integrand is
    concave, with curvature between 1 and 1 + b²: for b <= 1 it is nearly
    a Gaussian and one Gauss-Legendre window covers it.  For b > 1, Phi's
    step at ``yc = beta / b`` is sharper than phi, and with nothing
    subtracted from a near-equal term the integral is

        ∫_yc^inf phi Phi(beta - b y)
          + ∫_0^yc phi - ∫_0^yc phi Phi(b y - beta),

    three integrals whose curvature varies by less than 1 + b² over
    1 + (2/pi) b² (Phi's argument is <= 0 on the first and last), the
    middle one, when yc > 0, at least twice the last.  The log is good to
    ~1e-15, and to a few ulps in the deep tails.  Each window is placed on
    floats; the nodes of all of them are evaluated in one numpy pass.

    Past b ~ 1e8, r = -1 in double precision.  Inputs past ~1e150 may give
    nan.
    """
    jobs, splits = [], []
    for h, beta, b in points:
        # In z = y - max(h, 0), phi(h - y) is e^{h₋ z - z²/2 - h₋²/2} / √2π.
        h_lo, h_hi = min(h, 0.0), max(h, 0.0)
        a = beta - b * h_hi
        if b > 1.0:
            kappa = 1.0 + (2.0 / math.pi) * b * b
            cliff = max(min(beta / b, h_hi + _CLIFF_CAP), 0.0)
        else:
            kappa, cliff = 1.0, 0.0
        jobs.append((h_lo, a, -b, cliff - h_hi, math.inf, kappa))
        if cliff > 0:
            jobs += [(h_lo, -a, b, -h_hi, cliff - h_hi, kappa),
                     (h_lo, _PHI_ONE, 0.0, -h_hi, cliff - h_hi, 1.0)]
        splits.append(cliff > 0)
    logs = iter(_log_tilted_integrals(jobs) if jobs else ())
    out = []
    for split in splits:
        outer = next(logs)
        if split:
            inner, gap = next(logs), next(logs)
            if inner < gap:  # log(e^outer + e^gap - e^inner)
                middle = gap + math.log(-math.expm1(inner - gap))
                top = max(outer, middle)
                outer = top + math.log1p(math.exp(-abs(outer - middle)))
        out.append(outer - _LOG_SQRT_2PI)
    return out


def log_phi2(h, k, r):
    """log P(X < h, Y < k) for a standard bivariate normal with correlation
    ``-1 < r <= 0``, elementwise over arrays, good to ~1e-15 or a few ulps
    of the log however deep the tails (see :func:`log_phi2_slope`)."""
    h, k, r = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                    for v in (h, k, r)))
    if not np.all((r > -1.0) & (r <= 0.0)):
        raise DomainError("log_phi2 requires -1 < r <= 0")
    s = np.sqrt((1.0 - r) * (1.0 + r))
    slopes = log_phi2_slope(zip(*(v.ravel().tolist() for v in (
        h, (k - r * h) / s, -r / s))))
    h_lo = np.minimum(h, 0.0)
    out = np.array(slopes).reshape(h.shape) - 0.5 * h_lo * h_lo
    return _ret(out, out.ndim == 0)


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
