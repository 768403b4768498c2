"""Joint law of a standard Brownian motion and its local time at a level.

For ``t > 0`` and level ``a``, the pair ``(B_t, L_t^a)`` has a mixed law:
a continuous density on ``R x (0, inf)``,

    f(y, v) = (|a| + |y - a| + v) / sqrt(2 pi t^3)
              * exp(-(|a| + |y - a| + v)^2 / (2 t)),

plus an atom at ``v = 0`` (paths that never reach the level) with profile

    g(y) = (exp(-y^2 / 2t) - exp(-(2a - y)^2 / 2t)) / sqrt(2 pi t)

supported on ``sign(a) * y <= |a|`` (with sign(0) = +1).  The atom carries
total mass ``2 Phi(|a| / sqrt(t)) - 1``.

Normalisation note: the continuous part is implemented with the
``sqrt(2 pi t^3)`` denominator.  Three independent consistency requirements
pin this down: the known a = 0 specialisation, the first-passage convolution
identity, and unit total mass (enforced by the test suite's quadrature).

The exact sampler uses no rejection.  Writing ``r = |a| + |y - a| + v``, the
continuous part in coordinates ``(r, w = |y - a|, side)`` has density
``r exp(-r^2 / 2t)`` with ``w`` uniform on ``[0, r - |a|]`` and the side of
``a`` symmetric; all three conditionals invert in closed form.  The atom
profile is the law of ``B_t`` restricted to ``{max_{s<=t} B_s < a}`` (for
``a > 0``), sampled by drawing the running maximum conditioned below ``a``
and then the endpoint via a Rayleigh tail.  Each sample consumes exactly
four uniforms, which is what lets the Monte Carlo engines address samples
by counter-based stream position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .gaussian import normal_cdf
from .quadrature import integrate_1d

__all__ = ["JointLocalTimeLaw", "first_passage_convolution",
           "first_passage_rhs_printed"]

_EXP_UNDERFLOW = 745.0


def _sign(a: float) -> float:
    return 1.0 if a >= 0 else -1.0


@dataclass(frozen=True)
class JointLocalTimeLaw:
    """Law of ``(B_t, L_t^a)`` for a standard Brownian motion."""

    t: float
    a: float

    def __post_init__(self):
        if not (self.t > 0):
            raise DomainError(f"JointLocalTimeLaw requires t > 0, got {self.t}")
        if not (math.isfinite(self.t) and math.isfinite(self.a)):
            raise DomainError(f"JointLocalTimeLaw requires finite t and a, "
                              f"got t={self.t}, a={self.a}")

    # -- densities -----------------------------------------------------

    def density_cont(self, y: float, v: float) -> float:
        """Continuous joint density at the point ``(y, v)``; requires
        ``v > 0``."""
        if v <= 0:
            raise DomainError("density_cont requires v > 0; the v = 0 "
                              "atom is handled by atom_profile")
        t = self.t
        r = abs(self.a) + abs(y - self.a) + v
        arg = r * r / (2.0 * t)
        if arg > _EXP_UNDERFLOW:
            return 0.0
        return r / math.sqrt(2.0 * math.pi * t ** 3) * math.exp(-arg)

    def atom_profile(self, y):
        """Defective density of ``B_t`` on the no-visit event ``{L_t^a = 0}``."""
        y = np.asarray(y, dtype=float)
        t, a = self.t, self.a
        val = (np.exp(-y * y / (2.0 * t))
               - np.exp(-(2.0 * a - y) ** 2 / (2.0 * t))) / np.sqrt(2.0 * np.pi * t)
        support = _sign(a) * y <= abs(a)
        out = np.where(support, np.maximum(val, 0.0), 0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def atom_mass(self) -> float:
        """P(L_t^a = 0) = 2 Phi(|a| / sqrt(t)) - 1."""
        return float(2.0 * normal_cdf(abs(self.a) / np.sqrt(self.t)) - 1.0)

    def marginal_local_time(self, v):
        """Marginal law of ``L_t^a``: returns ``(density(v), atom_at_zero)``.

        The continuous density is ``sqrt(2 / pi t) exp(-(v + |a|)^2 / 2t)``
        for ``v >= 0``; the atom is ``2 Phi(|a|/sqrt(t)) - 1``.
        """
        v_arr = np.asarray(v, dtype=float)
        if np.any(v_arr < 0):
            raise DomainError("marginal_local_time requires v >= 0")
        t = self.t
        dens = np.sqrt(2.0 / (np.pi * t)) * np.exp(-(v_arr + abs(self.a)) ** 2
                                                   / (2.0 * t))
        dens = float(dens) if dens.ndim == 0 else dens
        return dens, self.atom_mass

    def cell_probability(self, y_lo: float, y_hi: float,
                         v_lo: float, v_hi: float) -> float:
        """P(y_lo < B_t <= y_hi, v_lo < L_t^a <= v_hi) for ``v_lo >= 0``.

        Continuous part only (the atom is a separate component).  The inner
        v-integral is exact; the y-integral is adaptive quadrature.
        """
        if v_lo < 0:
            raise DomainError("cell_probability requires v_lo >= 0")
        t, a = self.t, self.a

        def y_integrand(y: float) -> float:
            c = abs(a) + abs(y - a)
            lo = (c + v_lo) ** 2 / (2.0 * t)
            upper = np.exp(-lo) if lo < _EXP_UNDERFLOW else 0.0
            if np.isfinite(v_hi):
                hi = (c + v_hi) ** 2 / (2.0 * t)
                upper -= np.exp(-hi) if hi < _EXP_UNDERFLOW else 0.0
            return upper / np.sqrt(2.0 * np.pi * t)

        return integrate_1d(y_integrand, y_lo, y_hi,
                            abs_tol=1e-12, rel_tol=1e-10)

    # -- sampling --------------------------------------------------------

    def sample_from_uniforms(self, u: np.ndarray):
        """Map uniforms of shape ``(n, 4)`` in [0, 1) to samples ``(y, v)``.

        Deterministic four-uniform schedule per sample: branch choice,
        then either (running max, Rayleigh tail) for the atom branch or
        (conditioned Gaussian, exponential split, side) for the continuous
        branch.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != 4:
            raise DomainError("sample_from_uniforms expects shape (n, 4)")
        t, a = self.t, self.a
        st = np.sqrt(t)
        aa = abs(a)
        p0 = self.atom_mass

        n = u.shape[0]
        y = np.empty(n)
        v = np.empty(n)

        atom = u[:, 0] < p0
        if np.any(atom):
            u1 = u[atom, 1]
            u2 = u[atom, 2]
            m = st * special.ndtri(0.5 * (1.0 + u1 * p0))
            e = -np.log1p(-u2)
            r = np.sqrt(m * m + 2.0 * t * e)
            y[atom] = _sign(a) * (2.0 * m - r)
            v[atom] = 0.0

        cont = ~atom
        if np.any(cont):
            u1 = 1.0 - u[cont, 1]          # in (0, 1]
            u2 = 1.0 - u[cont, 2]
            u3 = u[cont, 3]
            z = -st * special.ndtri(u1 * normal_cdf(-aa / st))
            vv = z - aa
            e = -np.log(u2)
            c = aa + vv
            r = np.sqrt(c * c + 2.0 * t * e)
            w = 2.0 * t * e / (r + c)
            side = np.where(u3 < 0.5, -1.0, 1.0)
            y[cont] = a + side * w
            v[cont] = vv

        return y, v

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw exact samples of ``(B_t, L_t^a)``.

        ``size=None`` returns a scalar pair; otherwise arrays of length
        ``size``.  The random source is never shared implicitly: callers own
        seeding and stream placement.
        """
        n = 1 if size is None else int(size)
        if n < 1:
            raise DomainError(f"sample requires size >= 1, got {size}")
        y, v = self.sample_from_uniforms(rng.random((n, 4)))
        if size is None:
            return float(y[0]), float(v[0])
        return y, v


def first_passage_convolution(t: float, a: float, b: float):
    """Both sides of the first-passage convolution identity.

    lhs = ∫_0^t |a b| (s (t - s))^{-3/2}
              exp(-a^2 / 2s - b^2 / 2(t - s)) ds       (quadrature)
    rhs = sqrt(2 pi) (|a| + |b|) t^{-3/2}
              exp(-(|a| + |b|)^2 / 2t)                  (closed form)

    The closed-form constant ``sqrt(2 pi)`` is pinned by the Laplace
    transform ``L[|a| t^{-3/2} e^{-a^2/2t}](z) = sqrt(2 pi) e^{-sqrt(2) |a|
    sqrt(z)}`` (so the product of two transforms gains one factor of
    ``sqrt(2 pi)``) and confirmed against the quadrature at (t, a, b) =
    (1, 1, 1); see also :func:`first_passage_rhs_printed`.
    Returns ``(lhs, rhs)``.
    """
    if not (t > 0):
        raise DomainError(f"first_passage_convolution requires t > 0, got {t}")
    if a == 0 or b == 0:
        raise DomainError("first_passage_convolution requires a != 0 and b != 0")
    aa, bb = abs(a), abs(b)

    def half(p: float, q: float) -> float:
        # ∫_0^{t/2} with s = t u^2; the u -> 0 boundary layer flattens out.
        def integrand(uu: float) -> float:
            u2 = uu * uu
            expo = p * p / (2.0 * t * u2) + q * q / (2.0 * t * (1.0 - u2))
            if expo > _EXP_UNDERFLOW:
                return 0.0
            return (2.0 * p * q / (t * t) / u2 / (1.0 - u2) ** 1.5
                    * math.exp(-expo))
        return integrate_1d(integrand, 0.0, 1.0 / np.sqrt(2.0),
                            abs_tol=1e-13, rel_tol=1e-11)

    lhs = half(aa, bb) + half(bb, aa)
    s = aa + bb
    rhs = np.sqrt(2.0 * np.pi) * s * t ** -1.5 * np.exp(-s * s / (2.0 * t))
    return float(lhs), float(rhs)


def first_passage_rhs_printed(t: float, a: float, b: float) -> float:
    """The identity's right side with the density-normalised constant
    ``1 / sqrt(2 pi t^3)``; differs from the integral by a factor ``2 pi``
    (the integrand carries no ``1 / 2 pi``).  Kept for the verification
    report, which records the discovered factor instead of asserting it."""
    s = abs(a) + abs(b)
    return float(s / np.sqrt(2.0 * np.pi * t ** 3) * np.exp(-s * s / (2.0 * t)))
