"""Laplace-transform pairs and time-convolution identities.

The two-point kernel derivation rests on a short table of Laplace pairs
(heat kernel, the time factor H, five partial-fraction pieces f1+/-, f2,
f3+/-, and the first-passage density kernel) plus two time-convolution
closed forms.  Each pair here carries both sides:

* ``laplace_closed(case, z)``   -- the printed frequency-domain expression;
* ``case.time_fn()``            -- the matching time-domain function.

Verification always runs time -> frequency (numeric forward Laplace
transform against the closed form).  Numeric inversion is ill-posed and is
deliberately not provided.

The minus-branch cases and everything containing the factor
``1 / (2 sqrt(nu z) - lam^2)`` have a simple pole at ``z = lam^4 / (4 nu)``;
evaluation inside a small relative exclusion zone raises PoleError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import DomainError, PoleError
from .gaussian import heat_kernel
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

CASE_NAMES = ("LapG", "LapH", "F1Plus", "F1Minus", "F2", "F3Plus", "F3Minus",
              "LapGa", "ConvGH", "ConvGHtilde")

_EXP_UNDERFLOW = 745.0
_POLE_EXCLUSION = 1e-3

_HAS_POLE = {"LapH", "F1Minus", "F3Minus", "ConvGH", "ConvGHtilde"}
_GROWING = _HAS_POLE  # the same cases grow like exp(lam^4 t / 4 nu)


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
        if self.name not in CASE_NAMES:
            raise DomainError(f"unknown transform case {self.name!r}")
        if self.nu <= 0:
            raise DomainError("TransformCase requires nu > 0")

    @property
    def params(self) -> KernelParams:
        return KernelParams(nu=self.nu, lam=self.lam)

    def growth_rate(self) -> float:
        """Exponential growth bound of the time-domain partner."""
        if self.name in _GROWING:
            return self.lam ** 4 / (4.0 * self.nu)
        return 0.0

    def pole(self) -> float | None:
        if self.name in _HAS_POLE and self.lam != 0.0:
            return self.lam ** 4 / (4.0 * self.nu)
        return None

    def time_fn(self) -> Callable[[float], float]:
        nu, lam, x, x2, a = self.nu, self.lam, self.x, self.x2, self.a
        params = self.params
        if self.name == "LapG":
            return lambda t: heat_kernel(t, x, 2.0 * nu)
        if self.name == "LapH":
            return lambda t: second_moment_time_factor(t, params)
        if self.name == "F1Plus":
            return lambda t: inverse_transform_f1(t, x, +1, params)
        if self.name == "F1Minus":
            return lambda t: inverse_transform_f1(t, x, -1, params)
        if self.name == "F2":
            return lambda t: inverse_transform_f2(t, x, params)
        if self.name == "F3Plus":
            return lambda t: inverse_transform_f3(t, x, +1, params)
        if self.name == "F3Minus":
            return lambda t: inverse_transform_f3(t, x, -1, params)
        if self.name == "LapGa":
            def g_a(t: float) -> float:
                expo = a * a / (2.0 * t)
                if expo > _EXP_UNDERFLOW:
                    return 0.0
                return abs(a) * t ** -1.5 * np.exp(-expo)
            return g_a
        if self.name == "ConvGH":
            return lambda t: conv_heat_time_factor(t, x, params)
        if self.name == "ConvGHtilde":
            return lambda t: conv_heat_offset_factor(t, x, x2, params)
        raise DomainError(self.name)


def _check_pole(case: TransformCase, z: float) -> None:
    lam2 = case.lam ** 2
    if case.name in _HAS_POLE and lam2 > 0:
        if abs(2.0 * np.sqrt(case.nu * z) - lam2) < _POLE_EXCLUSION * lam2:
            raise PoleError(
                f"{case.name} has a pole at z = lam^4 / (4 nu) = "
                f"{case.lam ** 4 / (4 * case.nu):.6g}; z = {z} is inside the "
                f"exclusion zone")


def laplace_closed(case: TransformCase, z: float) -> float:
    """The printed frequency-domain expression of ``case`` at ``z > 0``."""
    if not (z > 0):
        raise DomainError(f"laplace_closed requires z > 0, got {z}")
    _check_pole(case, z)
    nu, lam, x = case.nu, case.lam, case.x
    lam2 = lam * lam
    w = np.sqrt(nu * z)
    decay = np.exp(-abs(x) * np.sqrt(z / nu))
    if case.name == "LapG":
        return float(decay / (2.0 * w))
    if case.name == "LapH":
        lam4 = lam2 * lam2
        return float(lam2 / (4.0 * nu * z - lam4) + 1.0 / (2.0 * w)
                     + lam4 / (2.0 * w * (4.0 * nu * z - lam4)))
    if case.name == "F1Plus":
        return float(decay / (4.0 * w * (2.0 * w + lam2)))
    if case.name == "F1Minus":
        return float(decay / (4.0 * w * (2.0 * w - lam2)))
    if case.name == "F2":
        return float(decay / (4.0 * nu * z))
    if case.name == "F3Plus":
        return float(lam2 * decay / (8.0 * nu * z * (2.0 * w + lam2)))
    if case.name == "F3Minus":
        return float(lam2 * decay / (8.0 * nu * z * (2.0 * w - lam2)))
    if case.name == "LapGa":
        return float(np.sqrt(2.0 * np.pi) * np.exp(-np.sqrt(2.0) * abs(case.a)
                                                   * np.sqrt(z)))
    if case.name == "ConvGH":
        g = laplace_closed(TransformCase("LapG", nu=nu, x=x), z)
        h = laplace_closed(TransformCase("LapH", nu=nu, lam=lam), z)
        return g * h
    if case.name == "ConvGHtilde":
        dist = abs(x) + abs(case.x2)
        return float(np.exp(-dist * np.sqrt(z / nu))
                     / (2.0 * w * (2.0 * w - lam2)))
    raise DomainError(case.name)


def time_factor_transform_summands(nu: float, lam: float, z: float):
    """The three printed summands of L[H](z) and their partial-fraction
    recomposition; returns ``(printed_sum, recomposed)``.  They must agree
    to machine precision."""
    lam2 = lam * lam
    lam4 = lam2 * lam2
    w = np.sqrt(nu * z)
    printed = (lam2 / (4.0 * nu * z - lam4) + 1.0 / (2.0 * w)
               + lam4 / (2.0 * w * (4.0 * nu * z - lam4)))
    diff = 1.0 / (2.0 * w - lam2) - 1.0 / (2.0 * w + lam2)
    recomposed = 0.5 * diff + 1.0 / (2.0 * w) + lam2 / (4.0 * w) * diff
    return float(printed), float(recomposed)


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

    def head(wv: float) -> float:
        t = wv * wv
        return 2.0 * wv * np.exp(-z * t) * time_fn(t)

    head_val = integrate_1d(head, 0.0, np.sqrt(t0),
                            abs_tol=1e-11, rel_tol=1e-10)
    tail_val = integrate_1d(lambda t: np.exp(-z * t) * time_fn(t), t0, t_max,
                            abs_tol=1e-11, rel_tol=1e-10, limit=400)
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
    if params.lam == 0:
        raise DomainError("conv_heat_offset_factor requires lam != 0")
    return conv_heat_time_factor(t, abs(dx) + abs(dz), params)


def _split_time_convolution(t: float, left: Callable[[float], float],
                            right: Callable[[float], float]) -> float:
    """∫_0^t left(s) right(t - s) ds with integrable endpoint singularities,
    via the substitution s = w^2 on each half."""
    def head(wv: float) -> float:
        s = wv * wv
        return 2.0 * wv * left(s) * right(t - s)

    def tail(wv: float) -> float:
        s = wv * wv
        return 2.0 * wv * left(t - s) * right(s)

    half = np.sqrt(t / 2.0)
    return (integrate_1d(head, 0.0, half, abs_tol=1e-12, rel_tol=1e-10)
            + integrate_1d(tail, 0.0, half, abs_tol=1e-12, rel_tol=1e-10))


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
