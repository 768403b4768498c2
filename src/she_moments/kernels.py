"""Closed-form moment kernels of the multiplicative-noise stochastic heat
equation

    du/dt = (nu/2) u_xx + lambda * u * (space-time white noise),  x in R,

with measure initial data.  The equal-time two-point function
``E[u(t,x1) u(t,x2)]`` is a double integral of the initial measure against a
single explicit kernel; this module evaluates that kernel and its
specialisations.

Naming map (all functions take a :class:`KernelParams`):

* ``second_moment_kernel``      -- space-time kernel K(t, x) whose
  convolution with the squared mean field gives the second moment.
* ``second_moment_time_factor`` -- time profile H(t) with
  K(t,x) = lambda^2 * G_{nu/2}(t,x) * H(t).
* ``two_point_time_factor``     -- spatially offset profile Ht(t,x) with
  Ht(t,0) = H(t), appearing in the two-point derivation.
* ``covariance_kernel``         -- K_dag, the excess of the two-point kernel
  over the product of heat kernels (vanishes when lambda = 0).
* ``two_point_kernel``          -- K_star = G*G + K_dag, convolution form.
* ``two_point_kernel_at``       -- K_star of one query as a float function
  of the initial points (z1, z2), for scalar quadrature callbacks.
* ``two_point_kernel_centered`` -- the same kernel in centred coordinates
  (xbar - zbar, dx, dz); equals
  ``two_point_kernel(t, x1-z1, x2-z2, x1-x2)`` identically.

Every kernel carries the same exponential-times-CDF factor,
:func:`growth_tail`, evaluated through :func:`~she_moments.gaussian.exp_phi`;
the growth factor ``exp(lambda^4 t / (4 nu))`` overflows the naive product
near ``lambda^4 t / nu ~ 2800`` while the kernels themselves are still
modest.

The noise coupling enters only through ``lambda^2`` and ``lambda^4``, so a
negative ``lam`` is equivalent to ``|lam|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KernelOverflowError
from .gaussian import exp_phi, heat_kernel, normal_cdf


@dataclass(frozen=True)
class KernelParams:
    """Diffusion coefficient ``nu > 0`` and noise coupling ``lam``."""

    nu: float
    lam: float

    def __post_init__(self):
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise DomainError(
                f"KernelParams requires finite nu > 0, got {self.nu}")
        if not np.isfinite(self.lam):
            raise DomainError(f"KernelParams requires finite lam, got {self.lam}")

    @property
    def lam2(self) -> float:
        return self.lam * self.lam


@dataclass(frozen=True)
class TwoPointQuery:
    """Equal-time observation pair: time ``t > 0`` and points ``x1, x2``."""

    t: float
    x1: float
    x2: float

    def __post_init__(self):
        if not (self.t > 0):
            raise DomainError(f"TwoPointQuery requires t > 0, got {self.t}")
        if not all(map(math.isfinite, (self.t, self.x1, self.x2))):
            raise DomainError("TwoPointQuery requires finite t, x1 and x2, "
                              f"got ({self.t}, {self.x1}, {self.x2})")

    @property
    def x_bar(self) -> float:
        return 0.5 * (self.x1 + self.x2)

    @property
    def dx(self) -> float:
        return self.x2 - self.x1


@dataclass(frozen=True)
class MomentBoundParams:
    """Parameters of the p-th moment bounds for Lipschitz noise couplings.

    ``lip_upper`` is a constant with ``|rho(u)| <= lip_upper * |u|``, the
    caller's contract (it is not checkable pointwise).
    ``c_p`` is 1 exactly for p = 2 and 2 for p > 2; the upper bound uses the
    two-point kernel with coupling ``c_p^2 * sqrt(p/2) * lip_upper`` and an
    overall prefactor ``c_p``.
    """

    p: float
    lip_upper: float = 0.0

    def __post_init__(self):
        if not (self.p >= 2):
            raise DomainError(f"MomentBoundParams requires p >= 2, got {self.p}")
        if self.lip_upper < 0:
            raise DomainError("the Lipschitz constant must be nonnegative")

    @property
    def c_p(self) -> float:
        return 1.0 if self.p == 2 else 2.0

    @property
    def effective_lambda(self) -> float:
        return self.c_p ** 2 * np.sqrt(self.p / 2.0) * self.lip_upper


def require_finite(value, name: str):
    """``value``, or KernelOverflowError if an element is not finite: a
    growth tail that fits can overflow times its prefactor (or give nan).
    Floats, the per-point quadrature case, skip numpy's array machinery."""
    if not (math.isfinite(value) if isinstance(value, float)
            else np.all(np.isfinite(value))):
        raise KernelOverflowError(f"{name} is not finite: it overflows")
    return value


def growth_tail(t: float, w, nu: float, l2: float):
    """The factor every closed form here carries:

        e^{l2 (l2 t - 2 w) / 4 nu} Phi((l2 t - w) / sqrt(2 nu t)),

    with ``l2 = lam^2`` and ``w >= 0`` a distance (an array, or a float).
    A negative ``l2 = -lam^2`` gives the plus branch of the f1 Laplace pair.
    """
    return exp_phi(l2 / (4.0 * nu) * (l2 * t - 2.0 * w),
                   (l2 * t - w) / math.sqrt(2.0 * nu * t))


def second_moment_kernel(t: float, x, params: KernelParams):
    """K(t, x) = lam^2 H(t) G_{nu/2}(t, x): the kernel convolved against the
    squared mean field in the second-moment formula.  Identically zero when
    ``lam = 0``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(params.lam2 * second_moment_time_factor(t, params)
                              * heat_kernel(t, x, params.nu / 2.0), "K(t, x)")


def second_moment_time_factor(t: float, params: KernelParams) -> float:
    """H(t) = 1/sqrt(4 pi nu t) + (lam^2 / 2 nu) e^{lam^4 t / 4 nu}
    Phi(lam^2 sqrt(t / 2 nu)).

    Equal to ``two_point_time_factor(t, 0)``.
    """
    return float(two_point_time_factor(t, 0.0, params))


def two_point_time_factor(t: float, x, params: KernelParams):
    """Ht(t, x): the spatially offset time factor; Ht(t, 0) = H(t)."""
    nu, l2 = params.nu, params.lam2
    with np.errstate(over="ignore"):
        return require_finite(heat_kernel(t, x, 2.0 * nu) + l2 / (2.0 * nu)
                              * growth_tail(t, abs(x), nu, l2), "Ht(t, x)")


def covariance_kernel(t: float, z1, z2, y, params: KernelParams):
    """K_dag(t, z1, z2, y): the two-point kernel minus the heat-kernel
    product.  Nonnegative; zero when ``lam = 0``.
    """
    nu, l2 = params.nu, params.lam2
    # Extreme arguments overflow w, or growth_tail's arguments to inf - inf;
    # exp_phi then reports them as a DomainError.
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(y) + np.abs(y - (np.asarray(z1) - np.asarray(z2)))
        # heat_kernel checks t > 0 before growth_tail takes sqrt(2 nu t).
        g = heat_kernel(t, 0.5 * (np.asarray(z1) + np.asarray(z2)), nu / 2.0)
        val = growth_tail(t, w, nu, l2)
        return require_finite(l2 / (2.0 * nu) * g * val, "K_dag")


def two_point_kernel(t: float, z1, z2, y, params: KernelParams):
    """K_star(t, z1, z2, y) = G_nu(t, z1) G_nu(t, z2) + K_dag(t, z1, z2, y)."""
    return (heat_kernel(t, z1, params.nu) * heat_kernel(t, z2, params.nu)
            + covariance_kernel(t, z1, z2, y, params))


def two_point_kernel_at(q: TwoPointQuery, params: KernelParams):
    """The two-point kernel of one query as a function of the initial
    points: ``kernel(z1, z2) = two_point_kernel(t, x1 - z1, x2 - z2,
    x1 - x2)`` on Python floats, for scalar quadrature callbacks.

    Everything that depends only on the query is computed once, here; a
    call costs two ``math.exp`` and one :func:`growth_tail`.
    """
    nu, l2, t = params.nu, params.lam2, q.t
    x1, x2 = q.x1, q.x2
    adx = abs(x1 - x2)
    var = nu * t
    two_var = 2.0 * var
    # G_nu(t, a) G_nu(t, b) and (lam^2 / 2 nu) G_{nu/2}(t, u), less their
    # exponentials.
    prod_norm = 1.0 / (2.0 * math.pi * var)
    bar_norm = l2 / (2.0 * nu) / math.sqrt(math.pi * var)

    def kernel(z1: float, z2: float) -> float:
        a = x1 - z1
        b = x2 - z2
        u = 0.5 * (a + b)
        w = adx + abs(z1 - z2)
        val = (prod_norm * math.exp(-(a * a + b * b) / two_var)
               + bar_norm * math.exp(-u * u / var)
               * growth_tail(t, w, nu, l2))
        if math.isinf(val):
            raise KernelOverflowError("K_star overflows double precision")
        return val

    return kernel


def two_point_kernel_centered(t: float, x1, x2, z1, z2, params: KernelParams):
    """The two-point kernel in centred coordinates:

        G_{nu/2}(t, xbar - zbar) * [ G_{2 nu}(t, dx - dz)
            + (lam^2 / 2 nu) e^{-lam^2 (|dx| + |dz|) / 2 nu + lam^4 t / 4 nu}
              Phi(lam^2 sqrt(t / 2 nu) - (|dx| + |dz|) / sqrt(2 nu t)) ]

    Equal to ``two_point_kernel(t, x1 - z1, x2 - z2, x1 - x2)``.
    """
    nu, l2 = params.nu, params.lam2
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    xbar, dx = 0.5 * (x1 + x2), x2 - x1
    zbar, dz = 0.5 * (z1 + z2), z2 - z1
    tail = growth_tail(t, np.abs(dx) + np.abs(dz), nu, l2)
    bracket = heat_kernel(t, dx - dz, 2.0 * nu) + l2 / (2.0 * nu) * tail
    return heat_kernel(t, xbar - zbar, nu / 2.0) * bracket


def two_point_lebesgue(q: TwoPointQuery, params: KernelParams) -> float:
    """E[u(t,x1) u(t,x2)] for Lebesgue initial data (u0 == 1):

        2 e^{(lam^4 t - 2 lam^2 |dx|) / 4 nu}
          Phi((lam^2 t - |dx|) / sqrt(2 nu t))
        + 2 Phi(|dx| / sqrt(2 nu t)) - 1.

    Depends on the points only through ``|x1 - x2|``; equals 1 when lam = 0.
    """
    nu = params.nu
    adx = abs(q.dx)
    return float(2.0 * growth_tail(q.t, adx, nu, params.lam2)
                 + 2.0 * normal_cdf(adx / math.sqrt(2.0 * nu * q.t)) - 1.0)


def mgf_local_time(t: float, x: float, lam: float) -> float:
    """E[exp(lam^2 * L_t^x)] for the local time L_t^x of a standard Brownian
    motion at level ``x``:

        2 e^{lam^4 t / 2 - lam^2 |x|} Phi(lam^2 sqrt(t) - |x| / sqrt(t))
        + 2 Phi(|x| / sqrt(t)) - 1.

    Always >= 1, and <= 2 e^{lam^4 t / 2} + 1.  This is
    :func:`two_point_lebesgue` at ``nu = 1/2`` with ``|x1 - x2| = |x|``.
    """
    return two_point_lebesgue(TwoPointQuery(t=t, x1=0.0, x2=x),
                              KernelParams(nu=0.5, lam=lam))
