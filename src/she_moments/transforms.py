"""Laplace-transform pairs and time-convolution identities.

The two-point kernel derivation rests on a short table of Laplace pairs
(heat kernel, the time factor H, five partial-fraction pieces f1+/-, f2,
f3+/-, and the first-passage density kernel) plus two time-convolution
closed forms.  Each pair is one row of ``_PAIRS`` holding both sides:

* ``laplace_closed(case, z)``   -- the printed frequency-domain expression;
* ``case.time_fn()``            -- the matching time-domain function.

Verification always runs time -> frequency (numeric forward Laplace
transform against the closed form).  Numeric inversion is ill-posed and is
deliberately not provided.

The pairs whose time side grows like ``exp(lam^4 t / 4 nu)`` (the minus
branches, and all with the factor ``1 / (2 sqrt(nu z) - lam^2)``) have a
simple pole at ``z = lam^4 / (4 nu)``; evaluation inside a small relative
exclusion zone raises PoleError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from .errors import DomainError, PoleError
from .gaussian import first_passage_density, heat_kernel
from .kernels import (KernelParams, growth_tail, second_moment_time_factor,
                      two_point_time_factor)
from .quadrature import integrate_1d

__all__ = [
    "TransformCase", "CASE_NAMES", "laplace_closed", "laplace_numeric",
    "inverse_transform_f1", "inverse_transform_f2", "inverse_transform_f3",
    "conv_heat_time_factor", "conv_heat_offset_factor",
    "conv_heat_time_factor_quad", "conv_heat_offset_factor_quad",
    "time_factor_transform_summands",
]

_POLE_EXCLUSION = 1e-3


class _Pair(NamedTuple):
    time: Callable    # time(t, case, params)
    closed: Callable  # closed(case, z, w, decay, lam2), printed (see _PAIRS)
    grows: bool       # like exp(lam^4 t / 4 nu), so the transform has a pole


def _printed_h(nu: float, lam2: float, z: float):
    """L[H](z) as printed: three summands."""
    lam4 = lam2 * lam2
    w = np.sqrt(nu * z)
    return (lam2 / (4.0 * nu * z - lam4) + 1.0 / (2.0 * w)
            + lam4 / (2.0 * w * (4.0 * nu * z - lam4)))


# One row per pair; ``closed`` gets w = sqrt(nu z) and
# decay = exp(-|x| sqrt(z / nu)) from laplace_closed.
_PAIRS = {
    "LapG": _Pair(lambda t, c, p: heat_kernel(t, c.x, 2.0 * c.nu),
                  lambda c, z, w, decay, lam2: decay / (2.0 * w), False),
    "LapH": _Pair(lambda t, c, p: second_moment_time_factor(t, p),
                  lambda c, z, w, decay, lam2: _printed_h(c.nu, lam2, z),
                  True),
    "F1Plus": _Pair(lambda t, c, p: inverse_transform_f1(t, c.x, +1, p),
                    lambda c, z, w, decay, lam2:
                    decay / (4.0 * w * (2.0 * w + lam2)), False),
    "F1Minus": _Pair(lambda t, c, p: inverse_transform_f1(t, c.x, -1, p),
                     lambda c, z, w, decay, lam2:
                     decay / (4.0 * w * (2.0 * w - lam2)), True),
    "F2": _Pair(lambda t, c, p: inverse_transform_f2(t, c.x, p),
                lambda c, z, w, decay, lam2: decay / (4.0 * c.nu * z), False),
    "F3Plus": _Pair(lambda t, c, p: inverse_transform_f3(t, c.x, +1, p),
                    lambda c, z, w, decay, lam2:
                    lam2 * decay / (8.0 * c.nu * z * (2.0 * w + lam2)), False),
    "F3Minus": _Pair(lambda t, c, p: inverse_transform_f3(t, c.x, -1, p),
                     lambda c, z, w, decay, lam2:
                     lam2 * decay / (8.0 * c.nu * z * (2.0 * w - lam2)), True),
    # |a| t^{-3/2} e^{-a^2 / 2t}, the first-passage density times sqrt(2 pi)
    "LapGa": _Pair(lambda t, c, p: np.sqrt(2.0 * np.pi)
                   * first_passage_density(t, abs(c.a)),
                   lambda c, z, w, decay, lam2: np.sqrt(2.0 * np.pi)
                   * np.exp(-np.sqrt(2.0) * abs(c.a) * np.sqrt(z)), False),
    "ConvGH": _Pair(lambda t, c, p: conv_heat_time_factor(t, c.x, p),
                    lambda c, z, w, decay, lam2:
                    decay / (2.0 * w) * _printed_h(c.nu, lam2, z), True),
    "ConvGHtilde": _Pair(
        lambda t, c, p: conv_heat_offset_factor(t, c.x, c.x2, p),
        lambda c, z, w, decay, lam2:
        np.exp(-(abs(c.x) + abs(c.x2)) * np.sqrt(z / c.nu))
        / (2.0 * w * (2.0 * w - lam2)), True),
}
CASE_NAMES = tuple(_PAIRS)


@dataclass(frozen=True)
class TransformCase:
    """One transform pair; ``x2`` is only used by ConvGHtilde (second offset),
    ``a`` only by LapGa (first-passage level)."""

    name: str
    nu: float = 1.0
    lam: float = 0.0
    x: float = 0.0
    x2: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        if self.name not in _PAIRS:
            raise DomainError(f"unknown transform case {self.name!r}")
        if self.nu <= 0:
            raise DomainError("TransformCase requires nu > 0")

    @property
    def params(self) -> KernelParams:
        return KernelParams(nu=self.nu, lam=self.lam)

    def growth_rate(self) -> float:
        """Exponential growth bound of the time-domain partner."""
        return self.lam ** 4 / (4.0 * self.nu) if _PAIRS[self.name].grows else 0.0

    def time_fn(self) -> Callable[[float], float]:
        time, params = _PAIRS[self.name].time, self.params
        return lambda t: time(t, self, params)


def laplace_closed(case: TransformCase, z: float) -> float:
    """The printed frequency-domain expression of ``case`` at ``z > 0``."""
    if not (z > 0):
        raise DomainError(f"laplace_closed requires z > 0, got {z}")
    pair = _PAIRS[case.name]
    lam2 = case.lam * case.lam
    w = np.sqrt(case.nu * z)
    if pair.grows and lam2 > 0 and abs(2.0 * w - lam2) < _POLE_EXCLUSION * lam2:
        raise PoleError(
            f"{case.name} has a pole at z = lam^4 / (4 nu) = "
            f"{case.growth_rate():.6g}; z = {z} is inside the exclusion zone")
    decay = np.exp(-abs(case.x) * np.sqrt(z / case.nu))
    return float(pair.closed(case, z, w, decay, lam2))


def time_factor_transform_summands(nu: float, lam: float, z: float):
    """The three printed summands of L[H](z) and their partial-fraction
    recomposition; returns ``(printed_sum, recomposed)``.  They must agree
    to machine precision."""
    lam2 = lam * lam
    w = np.sqrt(nu * z)
    diff = 1.0 / (2.0 * w - lam2) - 1.0 / (2.0 * w + lam2)
    recomposed = 0.5 * diff + 1.0 / (2.0 * w) + lam2 / (4.0 * w) * diff
    return float(_printed_h(nu, lam2, z)), float(recomposed)


def _from_origin(p: Callable[[float], float], q: Callable[[float], float],
                 end: float, **tols) -> float:
    """∫_0^{end^2} p(s) q(s) ds in the variable s = w^2, that is
    ∫_0^end 2 w p(w^2) q(w^2) dw, so integrable s^{-1/2} singularities at
    the origin pose no problem.  ``tols`` go to :func:`integrate_1d`."""
    def integrand(wv: float) -> float:
        s = wv * wv
        return 2.0 * wv * p(s) * q(s)
    return integrate_1d(integrand, 0.0, end, **tols)


def laplace_numeric(time_fn: Callable[[float], float], z: float,
                    tail_bound: float = 0.0) -> float:
    """Forward numeric Laplace transform ``∫_0^∞ e^{-z t} f(t) dt``.

    ``tail_bound`` declares an exponential growth bound on ``f``
    (``f(t) e^{-tail_bound * t}`` bounded); requires ``z > tail_bound``.
    The near-origin piece integrates in the variable ``t = w^2`` so
    integrable ``t^{-1/2}`` singularities pose no problem; the tail is
    truncated where ``e^{-(z - tail_bound) t}`` falls below 1e-28.
    """
    if not (z > 0):
        raise DomainError(f"laplace_numeric requires z > 0, got {z}")
    if not (z > tail_bound):
        raise DomainError(f"laplace_numeric requires z > tail_bound = "
                          f"{tail_bound}, got z = {z}")
    t0 = min(1.0, 1.0 / z)
    t_max = t0 + 64.0 / (z - tail_bound)
    head_val = _from_origin(lambda t: np.exp(-z * t), time_fn, np.sqrt(t0),
                            abs_tol=1e-11, rel_tol=1e-10)
    tail_val = integrate_1d(lambda t: np.exp(-z * t) * time_fn(t), t0, t_max,
                            abs_tol=1e-11, rel_tol=1e-10)
    return head_val + tail_val


# ---------------------------------------------------------------------------
# Inverse transforms of the partial-fraction pieces (closed forms)
# ---------------------------------------------------------------------------

def inverse_transform_f1(t: float, x: float, sign: int,
                         params: KernelParams) -> float:
    """L^{-1}[f1_{+/-}](t) = (1/8 nu) e^{+/- lam^2 |x| / 2 nu + lam^4 t / 4 nu}
    Erfc(|x| / sqrt(4 nu t) +/- lam^2 sqrt(t / 4 nu)): the growth tail at
    ``l2 = -/+ lam^2`` over 4 nu, as Erfc(v) = 2 Phi(-sqrt(2) v)."""
    if not (t > 0):
        raise DomainError(f"inverse_transform_f1 requires t > 0, got {t}")
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    nu = params.nu
    return float(growth_tail(t, abs(x), nu, -sign * params.lam2) / (4.0 * nu))


def inverse_transform_f2(t: float, x: float, params: KernelParams) -> float:
    """L^{-1}[f2](t) = (1 / 4 nu) Erfc(|x| / sqrt(4 nu t))."""
    if not (t > 0):
        raise DomainError(f"inverse_transform_f2 requires t > 0, got {t}")
    return float(special.erfc(abs(x) / np.sqrt(4.0 * params.nu * t))
                 / (4.0 * params.nu))


def inverse_transform_f3(t: float, x: float, sign: int,
                         params: KernelParams) -> float:
    """L^{-1}[f3_{+/-}](t) = +/- (1/8 nu) [Erfc(|x| / sqrt(4 nu t))
    - e^{...} Erfc(...)] = +/- (f2 / 2 - f1_{+/-}) in the time domain."""
    plain = inverse_transform_f2(t, x, params) / 2.0
    grown = inverse_transform_f1(t, x, sign, params)
    return float(sign * (plain - grown))


# ---------------------------------------------------------------------------
# Time-convolution identities
# ---------------------------------------------------------------------------

def conv_heat_time_factor(t: float, dz: float, params: KernelParams) -> float:
    """Closed form of ``∫_0^t G_{2 nu}(s, dz) H(t - s) ds``:

        (1 / 2 nu) e^{-lam^2 |dz| / 2 nu + lam^4 t / 4 nu}
            Phi(lam^2 sqrt(t / 2 nu) - |dz| / sqrt(2 nu t)).

    Defined for ``lam != 0`` (the identity's stated domain).
    """
    if not (t > 0):
        raise DomainError(f"conv_heat_time_factor requires t > 0, got {t}")
    if params.lam == 0:
        raise DomainError("conv_heat_time_factor requires lam != 0")
    return float(growth_tail(t, abs(dz), params.nu, params.lam2)
                 / (2.0 * params.nu))


def conv_heat_offset_factor(t: float, dx: float, dz: float,
                            params: KernelParams) -> float:
    """Closed form of ``∫_0^t G_{2 nu}(t - r, dx) Ht(r, dz) dr``: the same
    expression as :func:`conv_heat_time_factor` with ``|dx| + |dz|`` in
    place of ``|dz|``.  Defined for ``lam != 0``."""
    return conv_heat_time_factor(t, abs(dx) + abs(dz), params)


def _split_time_convolution(t: float, left: Callable[[float], float],
                            right: Callable[[float], float]) -> float:
    """∫_0^t left(s) right(t - s) ds with integrable endpoint singularities:
    each half of [0, t] from the end it touches."""
    half = np.sqrt(t / 2.0)
    return (_from_origin(left, lambda s: right(t - s), half,
                         abs_tol=1e-12, rel_tol=1e-10)
            + _from_origin(lambda s: left(t - s), right, half,
                           abs_tol=1e-12, rel_tol=1e-10))


def conv_heat_time_factor_quad(t: float, dz: float,
                               params: KernelParams) -> float:
    """Quadrature evaluation of ``∫_0^t G_{2 nu}(s, dz) H(t - s) ds``; the
    independent companion of :func:`conv_heat_time_factor`."""
    return _split_time_convolution(
        t,
        lambda s: heat_kernel(s, dz, 2.0 * params.nu),
        lambda r: second_moment_time_factor(r, params))


def conv_heat_offset_factor_quad(t: float, dx: float, dz: float,
                                 params: KernelParams) -> float:
    """Quadrature evaluation of ``∫_0^t G_{2 nu}(t - r, dx) Ht(r, dz) dr``."""
    return _split_time_convolution(
        t,
        lambda r: float(two_point_time_factor(r, dz, params)),
        lambda s: heat_kernel(s, dx, 2.0 * params.nu))
