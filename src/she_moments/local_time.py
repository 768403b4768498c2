"""Joint law of a standard Brownian motion and its local time at a level.

For ``t > 0`` and level ``a``, the pair ``(B_t, L_t^a)`` has a mixed law:
a continuous density on ``R x (0, inf)``,

    f(y, v) = h(t, |a| + |y - a| + v),

with ``h(t, r) = r exp(-r^2 / 2t) / sqrt(2 pi t^3)`` the first-passage
density (:func:`~she_moments.gaussian.first_passage_density`),

plus an atom at ``v = 0`` (paths that never reach the level) with profile

    g(y) = (exp(-y^2 / 2t) - exp(-(2a - y)^2 / 2t)) / sqrt(2 pi t)

supported on ``sign(a) * y <= |a|`` (with sign(0) = +1).  The atom carries
total mass ``2 Phi(|a| / sqrt(t)) - 1``.

Normalisation note: the continuous part carries the ``sqrt(2 pi t^3)``
denominator of ``h``.  Three independent consistency requirements
pin this down: the known a = 0 specialisation, the first-passage convolution
identity, and unit total mass (enforced by the test suite's quadrature).

The exact sampler uses no rejection.  Writing ``r = |a| + |y - a| + v``, the
continuous part in coordinates ``(r, w = |y - a|, side)`` has density
``r exp(-r^2 / 2t)`` with ``w`` uniform on ``[0, r - |a|]`` and the side of
``a`` symmetric; all three conditionals invert in closed form.  The atom
profile is the law of ``B_t`` restricted to ``{max_{s<=t} B_s < a}`` (for
``a > 0``), sampled by drawing the running maximum conditioned below ``a``
and then the endpoint via a Rayleigh tail.  Each sample consumes exactly
three uniforms, the branch uniform also choosing the side, which is what
lets the Monte Carlo engines address samples by counter-based stream
position.  The local time alone takes the first two
(:meth:`JointLocalTimeLaw.local_time_from_uniforms`): the third sets only
the endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .gaussian import first_passage_density, normal_cdf
from .quadrature import integrate_1d

__all__ = ["JointLocalTimeLaw", "first_passage_convolution",
           "first_passage_rhs_printed"]

# first_passage_convolution's boundary layer at u ~ p / sqrt(t) is thinner
# than this only for t > 1e4 p²; verify's suite stays on the plain path.
_LAYER_MIN = 1e-2


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
        return first_passage_density(self.t,
                                     abs(self.a) + abs(y - self.a) + v)

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
        v-integral is exact; the y-integral is adaptive quadrature, split at
        the kink y = a.
        """
        if v_lo < 0:
            raise DomainError("cell_probability requires v_lo >= 0")
        t, a = self.t, self.a

        def y_integrand(y: float) -> float:
            c = abs(a) + abs(y - a)
            upper = np.exp(-(c + v_lo) ** 2 / (2.0 * t))
            if np.isfinite(v_hi):
                upper -= np.exp(-(c + v_hi) ** 2 / (2.0 * t))
            return upper / np.sqrt(2.0 * np.pi * t)

        return integrate_1d(y_integrand, y_lo, y_hi, a,
                            abs_tol=1e-12, rel_tol=1e-10)

    # -- sampling --------------------------------------------------------

    def _level(self, u0: np.ndarray, u1: np.ndarray):
        """The branch ``atom = u0 < P(L = 0)``, the level ``c`` and the local
        time ``v`` from uniforms 0 and 1.  ``c`` is the running maximum
        conditioned below ``|a|`` on the atom branch and ``|a| + v`` on the
        continuous one, through one shared ``ndtri``."""
        st = np.sqrt(self.t)
        aa = abs(self.a)
        p0 = self.atom_mass
        atom = u0 < p0
        q = special.ndtri(np.where(atom, 0.5 * (1.0 + u1 * p0),
                                   (1.0 - u1) * normal_cdf(-aa / st)))
        c = st * np.abs(q)
        return atom, c, np.where(atom, 0.0, c - aa)

    def local_time_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms of shape ``(n, 2)`` in [0, 1) to samples of ``L``
        alone: the ``v`` of :meth:`sample_from_uniforms` on the same first
        two uniforms, bit for bit."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != 2:
            raise DomainError("local_time_from_uniforms expects shape (n, 2)")
        return self._level(u[:, 0], u[:, 1])[2]

    def sample_from_uniforms(self, u: np.ndarray):
        """Map uniforms of shape ``(n, 3)`` in [0, 1) to samples ``(y, v)``.

        Uniforms 0 and 1 give the branch, ``c`` and ``v`` as in
        :meth:`_level`; on the continuous branch uniform 0, uniform on
        ``[P(L = 0), 1)`` there, also picks the side of ``a``.  Uniform 2
        gives the exponential that sets the distance ``g`` of the endpoint
        from ``c`` (atom, mirrored for ``a < 0``) or from ``a``
        (continuous).
        """
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != 3:
            raise DomainError("sample_from_uniforms expects shape (n, 3)")
        a = self.a
        u0 = u[:, 0]
        atom, c, v = self._level(u0, u[:, 1])
        te2 = 2.0 * self.t * -np.log1p(-u[:, 2])
        g = te2 / (np.sqrt(c * c + te2) + c)
        below = u0 < 0.5 * (1.0 + self.atom_mass)
        y = np.where(atom, _sign(a) * (c - g), a + np.where(below, -g, g))
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
        y, v = self.sample_from_uniforms(rng.random((n, 3)))
        if size is None:
            return float(y[0]), float(v[0])
        return y, v


def first_passage_convolution(t: float, a: float, b: float):
    """Both sides of the first-passage convolution identity.

    lhs = ∫_0^t |a b| (s (t - s))^{-3/2}
              exp(-a^2 / 2s - b^2 / 2(t - s)) ds       (quadrature)
    rhs = sqrt(2 pi) (|a| + |b|) t^{-3/2}
              exp(-(|a| + |b|)^2 / 2t)                  (closed form)
        = 2 pi h(t, |a| + |b|), with h the first-passage density

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
            # Never / (t * t): that is 0.0 below t ~ 1e-162.  Nor
            # 2pq / t / t, 0.0 above t ~ 1e162: there the layer puts u2 near
            # p² / t, so / u2 in between keeps every partial quotient finite.
            return (math.exp(-expo) * 2.0 * p * q / t / u2 / t
                    / (1.0 - u2) ** 1.5)
        layer = p / math.sqrt(t)
        if layer > _LAYER_MIN:
            return integrate_1d(integrand, 0.0, 1.0 / np.sqrt(2.0),
                                abs_tol=0.0, rel_tol=1e-11)
        # The layer at u ~ p / sqrt(t) is too thin for QUADPACK to find on
        # [0, 1/√2], and past it the integrand falls only like 1/u²: in
        # u = e^w both sides of a breakpoint at the layer are smooth.
        def in_log(w: float) -> float:
            uu = math.exp(w)  # where uu² underflows, exp(-expo) has too
            return integrand(uu) * uu if uu * uu > 0.0 else 0.0
        return integrate_1d(in_log, -math.inf, -0.5 * math.log(2.0),
                            math.log(layer), abs_tol=0.0, rel_tol=1e-11)

    lhs = half(aa, bb) + half(bb, aa)
    return float(lhs), 2.0 * math.pi * first_passage_density(t, aa + bb)


def first_passage_rhs_printed(t: float, a: float, b: float) -> float:
    """The identity's right side with the density-normalised constant
    ``1 / sqrt(2 pi t^3)``; differs from the integral by a factor ``2 pi``
    (the integrand carries no ``1 / 2 pi``).  Kept for the verification
    report, which records the discovered factor instead of asserting it."""
    return first_passage_density(t, abs(a) + abs(b))
