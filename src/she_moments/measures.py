"""Initial measures and the quadrature of the two-point formulas.

Admissible initial data are signed Borel measures integrating
``exp(-a x^2)`` for *every* ``a > 0`` (equivalently: heat smoothing is
finite for all positive times).  That condition is not decidable
numerically, so density measures must carry a growth certificate from a
family that implies it:

    |f(x)| <= amplitude * (1 + |x|)^degree * exp(rate * |x|^power)

is admissible iff ``power < 2``, or ``power == 2`` with ``rate <= 0``.
Certificates outside the family are rejected at construction.

The two-point correlation of the solution is

    E[u(t,x1) u(t,x2)] = ∬ mu(dz1) mu(dz2) K_star(t, x1-z1, x2-z2, x1-x2)

or, splitting off the mean-field product,

    E[u(t,x1) u(t,x2)] = J0(t,x1) J0(t,x2)
                         + ∬ mu(dz1) mu(dz2) K_dag(...).

The split form is the default: the covariance kernel decays exponentially
in the separation variable, which conditions the quadrature much better
than the full kernel.  Double integrals run in rotated coordinates
``zbar = (z1+z2)/2`` (outer) and ``dz = z2-z1`` (inner), where the kernel
factors into a Gaussian in ``zbar`` times a function of ``|dz|`` with one
kink, at ``dz = 0``.

Every measure a JSON file can describe is a list of components c N(m, V),
an atom having V = 0 and a Lebesgue term V = inf (:class:`InitialMeasure`),
and its J0 is exact: c N(x; m, V + nu t) per component, c for Lebesgue.

The two forms go through independent rules, so agreement between them
means something; both integrate a density over its declared ``support``
only.  The split form, and J0 of a library :class:`DensityMeasure` (one
without components), use panelled Gauss-Legendre
(:func:`~she_moments.quadrature.integrate_panels`) on whole arrays: a
panel edge sits on the kink (``dz = 0``, or ``z = atom``), and windows
from the kernels' decay and the growth certificate are cut to the
support.  The direct form runs nested adaptive QUADPACK on float
callbacks of ``kernels.two_point_kernel_at``, in pieces cut at each atom,
at ``dz = 0``, and at the peak of each Gaussian factor of the kernel and
10 widths either side of it.  Atom sums are one array kernel call under
both.

Measures parse from a declarative JSON object::

    {"type": "atoms", "atoms": [[x, m], ...]}
    {"type": "lebesgue", "scale": c}
    {"type": "gaussian", "mean": m, "var": v, "mass": c}
    {"type": "sum", "terms": [ ... ]}

Measures whose every component is an atom or a Gaussian also have a closed
form, :func:`mixture_two_point`: the covariance integral of any two
components is one bivariate normal CDF term
(:func:`~she_moments.gaussian.log_phi2_slope`) assembled in log space.
:func:`closed_two_point` chooses between it, the Lebesgue formula and the
split form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (DomainError, InadmissibleMeasureError,
                     KernelOverflowError, QuadratureError, SheMomentsError)
from .gaussian import (_LOG_DBL_MAX, heat_kernel, log_phi2_slope,
                       root_two_pi_var)
from .kernels import (KernelParams, TwoPointQuery, covariance_kernel,
                      require_finite, two_point_kernel, two_point_kernel_at,
                      two_point_lebesgue)
from .quadrature import integrate_1d, integrate_panels

__all__ = [
    "GrowthCertificate", "InitialMeasure", "DiracAtoms", "LebesgueScaled",
    "DensityMeasure", "GaussianDensity", "MeasureSum", "gaussian_density",
    "parse_measure", "mean_field", "second_moment", "two_point",
    "mixture_two_point", "closed_two_point", "check_membership",
]


@dataclass(frozen=True)
class GrowthCertificate:
    """Declared envelope |f(x)| <= amplitude (1+|x|)^degree exp(rate |x|^power)."""

    amplitude: float
    degree: float = 0.0
    rate: float = 0.0
    power: float = 0.0

    def __post_init__(self):
        if not (self.amplitude >= 0 and np.isfinite(self.amplitude)):
            raise DomainError("certificate amplitude must be finite and >= 0")
        if not (self.degree >= 0 and np.isfinite(self.degree)):
            raise DomainError("certificate degree must be finite and >= 0")
        if not np.isfinite(self.rate):
            raise DomainError("certificate rate must be finite")
        if not (0 <= self.power <= 2):
            raise DomainError("certificate power must lie in [0, 2]")

    @property
    def admissible(self) -> bool:
        """Whether the envelope implies Gaussian integrability for every a > 0."""
        return self.rate <= 0 or self.power < 2


class InitialMeasure:
    """Base class; see the concrete variants below.

    ``components``, built once when the measure is made, are rows (mass,
    location, variance) of a read-only array: atoms (variance 0) first,
    then Gaussians, then Lebesgue terms (variance inf, location 0), each in
    term order.  A library DensityMeasure, or a sum holding one, has none.
    """

    components: np.ndarray | None = None

    def _set_components(self, rows) -> None:
        rows = np.array(rows, dtype=float)
        rows.flags.writeable = False
        object.__setattr__(self, "components", rows)

    def primitive_terms(self) -> list["InitialMeasure"]:
        return [self]

    @property
    def is_nonnegative(self) -> bool:
        return bool((self.components[:, 0] >= 0).all())

    def total_variation(self) -> "InitialMeasure":
        raise NotImplementedError

    def support_extent(self) -> float:
        """Half-width of (effective) support, for simulation-domain sizing:
        here the largest |location| of a component."""
        return float(np.abs(self.components[:, 1]).max())


@dataclass(frozen=True)
class DiracAtoms(InitialMeasure):
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms",
                           tuple((float(x), float(m)) for x, m in self.atoms))
        if not self.atoms:
            raise DomainError("DiracAtoms requires at least one atom")
        self._set_components([(m, x, 0.0) for x, m in self.atoms])
        if not np.isfinite(self.components).all():
            raise InadmissibleMeasureError(
                "DiracAtoms requires finite locations and masses")

    def total_variation(self) -> "DiracAtoms":
        return DiracAtoms(tuple((x, abs(m)) for x, m in self.atoms))


@dataclass(frozen=True)
class LebesgueScaled(InitialMeasure):
    scale: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.scale):
            raise InadmissibleMeasureError(
                f"LebesgueScaled requires a finite scale, got {self.scale}")
        self._set_components([(self.scale, 0.0, math.inf)])

    def total_variation(self) -> "LebesgueScaled":
        return LebesgueScaled(abs(self.scale))

    # The constant density the quadrature routes read, as they read a
    # DensityMeasure's fields; the closed forms read ``scale``.
    def f(self, z):
        return self.scale

    @property
    def certificate(self) -> GrowthCertificate:
        return GrowthCertificate(abs(self.scale))

    support = (-math.inf, math.inf)


@dataclass(frozen=True)
class DensityMeasure(InitialMeasure):
    """Absolutely continuous measure ``f(x) dx`` with a growth certificate.

    ``nonnegative`` is declared, not verified.  ``support = (lo, hi)``, the
    whole line by default, is where the density's mass lies: J0 (a
    Gaussian's excepted), both two-point routes and the membership check
    integrate over it, and its larger absolute end sizes simulation grids.
    A density with far-apart bumps is best a MeasureSum of one bump each,
    each with its support.
    """

    f: Callable[[np.ndarray], np.ndarray]
    certificate: GrowthCertificate
    nonnegative: bool = False
    support: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if not self.certificate.admissible:
            raise InadmissibleMeasureError(
                "density growth certificate allows exp(rate * x^2) growth with "
                f"rate={self.certificate.rate} > 0; such measures are not "
                "heat-smoothable for every a > 0")
        lo, hi = self.support
        if not lo < hi:
            raise DomainError(f"density support needs lo < hi, got {self.support}")

    @property
    def is_nonnegative(self) -> bool:
        return self.nonnegative

    def total_variation(self) -> "DensityMeasure":
        if self.nonnegative:
            return self
        fn = self.f
        return replace(self, f=lambda x: np.abs(fn(x)), nonnegative=True)

    def support_extent(self) -> float:
        extent = max(map(abs, self.support))
        return extent if math.isfinite(extent) else 0.0


@dataclass(frozen=True)
class GaussianDensity(DensityMeasure):
    """``mass * N(mean, var)``, made by :func:`gaussian_density`.  The
    quadrature routes read it as any DensityMeasure (``f``, certificate,
    support); J0 and the closed route read its component row."""

    mean: float = 0.0
    var: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        self._set_components([(self.mass, self.mean, self.var)])

    def total_variation(self) -> "GaussianDensity":
        return (self if self.mass >= 0
                else gaussian_density(self.mean, self.var, -self.mass))


@dataclass(frozen=True)
class MeasureSum(InitialMeasure):
    terms: tuple[InitialMeasure, ...]

    def __post_init__(self):
        if not self.terms:
            raise DomainError("MeasureSum requires at least one term")
        if all(term.components is not None for term in self.terms):
            rows = [row for term in self.terms
                    for row in term.components.tolist()]
            self._set_components(sorted(
                rows, key=lambda row: (row[2] > 0) + (row[2] == math.inf)))

    def primitive_terms(self) -> list[InitialMeasure]:
        out: list[InitialMeasure] = []
        for term in self.terms:
            out.extend(term.primitive_terms())
        return out

    @property
    def is_nonnegative(self) -> bool:
        return all(t.is_nonnegative for t in self.terms)

    def total_variation(self) -> "MeasureSum":
        return MeasureSum(tuple(t.total_variation() for t in self.terms))

    def support_extent(self) -> float:
        return max(t.support_extent() for t in self.terms)


def gaussian_density(mean: float, var: float,
                     mass: float = 1.0) -> GaussianDensity:
    """Gaussian density ``mass * N(mean, var)`` with a bounded certificate."""
    if not (var > 0):
        raise DomainError(f"gaussian_density requires var > 0, got {var}")
    if not all(map(math.isfinite, (mean, var, mass))):
        raise InadmissibleMeasureError(
            f"gaussian_density requires finite mean, var and mass, got "
            f"({mean}, {var}, {mass})")
    norm = mass / root_two_pi_var(var)
    two_var = 2.0 * var

    def f(x):
        if isinstance(x, float):
            d = x - mean
            return norm * math.exp(-d * d / two_var)
        return norm * np.exp(-(np.asarray(x, dtype=float) - mean) ** 2 / two_var)

    half = 8.0 * math.sqrt(var)
    return GaussianDensity(f, GrowthCertificate(amplitude=abs(norm)),
                           nonnegative=mass >= 0,
                           support=(mean - half, mean + half),
                           mean=mean, var=var, mass=mass)


def _json_number(value) -> float:
    """A JSON number as a float.  A numeric string is not one, nor is a bool
    (an int subclass in Python, but JSON true is not a number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def parse_measure(obj: dict) -> InitialMeasure:
    """Build a measure from its declarative JSON form."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InadmissibleMeasureError(f"measure spec must be an object with a "
                                       f"'type' key, got {obj!r}")
    kind = obj["type"]
    try:
        if kind == "atoms":
            mu: InitialMeasure = DiracAtoms(tuple(
                (_json_number(x), _json_number(m)) for x, m in obj["atoms"]))
        elif kind == "lebesgue":
            mu = LebesgueScaled(_json_number(obj.get("scale", 1.0)))
        elif kind == "gaussian":
            mu = gaussian_density(_json_number(obj["mean"]),
                                  _json_number(obj["var"]),
                                  _json_number(obj.get("mass", 1.0)))
        elif kind == "sum":
            mu = MeasureSum(tuple(parse_measure(t) for t in obj["terms"]))
        else:
            raise InadmissibleMeasureError(f"unknown measure type {kind!r}")
    except (TypeError, ValueError, OverflowError, KeyError) as exc:
        # Malformed entries (an atom without a mass, a non-numeric field, a
        # missing key) are measure errors too, and so is a spec that a
        # constructor's domain check refuses (no atoms, no terms, var <= 0);
        # the package's other errors pass unchanged.
        if isinstance(exc, DomainError):
            raise InadmissibleMeasureError(str(exc)) from exc
        if isinstance(exc, SheMomentsError):
            raise
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InadmissibleMeasureError(
            f"malformed {kind!r} measure spec: {why}") from exc
    return mu


# ---------------------------------------------------------------------------
# Heat smoothing (mean field)
# ---------------------------------------------------------------------------

def mean_field(t: float, x: float, mu: InitialMeasure, nu: float) -> float:
    """J0(t, x): the heat semigroup applied to the initial measure.

    Exact over the components (:class:`InitialMeasure`):
    Σ c N(x; m, V + nu t), atoms in one array pass, plus each Lebesgue
    mass c; a V + nu t that overflows is refused.  A library DensityMeasure
    takes panelled Gauss-Legendre (tol 1e-10) on the heat kernel's window
    around x cut to its support, and is refused where that window is
    narrower than the spacing of doubles at x: no rule has a node inside it.
    """
    if not (t > 0 and nu > 0):
        raise DomainError("mean_field requires t > 0 and nu > 0")
    rows = mu.components
    if rows is None and isinstance(mu, MeasureSum):
        return float(sum(mean_field(t, x, term, nu) for term in mu.terms))
    if rows is None:
        sigma = math.sqrt(nu * t)
        w = _gauss_reach(sigma, [mu.certificate], abs(x))

        def integrand(y):
            return mu.f(y) * heat_kernel(t, x - y, nu)
        _require_visible(*mu.support, integrand, x, w)
        edges = _graded_edges(mu.support, ((x, w),), x, sigma, 3.0 * sigma)
        return 0.0 if edges is None else integrate_panels(
            integrand, edges, abs_tol=1e-10, rel_tol=1e-10)[0]
    n_atoms = rows[:, 2].tolist().count(0.0)
    total = 0.0
    if n_atoms:
        mass, loc, _ = rows[:n_atoms].T
        with np.errstate(over="ignore", invalid="ignore"):
            # An overflow is a non-finite J0, which callers refuse, and
            # exp(-x²/2 nu t) is 0.0 where x²/2 nu t overflows.
            total += float(mass @ heat_kernel(t, x - loc, nu))
    for c, m, v in rows[n_atoms:].tolist():
        total += c if v == math.inf else c * heat_kernel(
            1.0, x - m, require_finite(v + nu * t, "a Gaussian's V + nu t"))
    return total


# ---------------------------------------------------------------------------
# Bilinear kernel integrals
# ---------------------------------------------------------------------------

def _term_pairs(mu: InitialMeasure
                ) -> list[tuple[float, InitialMeasure, InitialMeasure]]:
    """``(weight, term1, term2)`` for each unordered pair of mu's primitive
    terms, weight 1 on the diagonal and 2 off it: the expansion of the
    quadratic form ∬ mu(dz1) mu(dz2) K in mu.  Atom terms come first, so
    term1 is atoms wherever term2 is."""
    terms = sorted(mu.primitive_terms(),
                   key=lambda term: not isinstance(term, DiracAtoms))
    return [(1.0 if i == j else 2.0, terms[i], terms[j])
            for i in range(len(terms)) for j in range(i, len(terms))]


def _atom_sum(rows1: np.ndarray, rows2: np.ndarray,
              kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
    """Σ m1 m2 kernel(x1, x2) over all pairs of atom component rows, in one
    kernel call."""
    (m1, x1, _), (m2, x2, _) = rows1.T, rows2.T
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(float(m1 @ kernel(x1[:, None], x2[None, :])
                                    @ m2), "the atom sum")


def _query_kernel(kernel: Callable, q: TwoPointQuery, params: KernelParams
                  ) -> Callable:
    """``kernel(t, x1 - z1, x2 - z2, x1 - x2, params)`` of the query ``q``,
    as a function of (z1, z2)."""
    return lambda z1, z2: kernel(q.t, q.x1 - z1, q.x2 - z2, q.x1 - q.x2,
                                 params)


def _pair_supports(s1: tuple[float, float], s2: tuple[float, float]):
    """The zbar = (z1+z2)/2 and dz = z2-z1 ranges of z1 in s1, z2 in s2."""
    return ((0.5 * (s1[0] + s2[0]), 0.5 * (s1[1] + s2[1])),
            (s2[0] - s1[1], s2[1] - s1[0]))


# The direct route cuts each Gaussian factor of K_star at its peak and at
# this many widths either side of it.
_PEAK_WIDTHS = 10.0


def _require_visible(a: float, b: float, g: Callable[[float], float],
                     peak: float, reach: float, lost_tol: float = 0.0) -> None:
    """Refuse a Gaussian factor of the integrand ``g`` with its peak in
    [a, b] whose reach rounds away (peak + reach == peak): it is narrower
    than the spacing of doubles there, where no rule can see it.
    QuadratureError, unless the spike's part of the integral, at most
    ``2 reach |g(peak)|``, is within ``lost_tol``; at the default 0 that is
    ``g`` being 0 at the peak (another factor vanishes there, so the spike
    carries nothing)."""
    if (a <= peak <= b and not peak - reach < peak < peak + reach
            and 2.0 * reach * abs(g(peak)) > lost_tol):
        raise QuadratureError(
            f"a Gaussian factor of the kernel, reach {reach:.3g} at "
            f"{peak!r}, is narrower than the spacing of doubles there")


def _peak_cuts(a: float, b: float, g: Callable[[float], float],
               *factors: tuple[float, float]) -> list[float]:
    """Cut points for Gaussian factors ``(peak, width)`` of the integrand
    ``g`` on [a, b]: each peak and peak ± _PEAK_WIDTHS widths, so that
    QUADPACK's first nodes on a long piece cannot step over a narrow spike.
    A factor whose reach rounds away is refused (:func:`_require_visible`).
    """
    cuts = []
    for peak, width in factors:
        reach = _PEAK_WIDTHS * width
        _require_visible(a, b, g, peak, reach)
        cuts += [peak - reach, peak, peak + reach]
    return cuts


def _bilinear_primitive(mu1: InitialMeasure, mu2: InitialMeasure,
                        q: TwoPointQuery, params: KernelParams,
                        abs_tol: float, rel_tol: float) -> float:
    """∬ mu1(dz1) mu2(dz2) K_star(t, x1 - z1, x2 - z2, x1 - x2) for
    primitive measures, atoms first (as :func:`_term_pairs` orders them),
    by nested adaptive quadrature: the direct-form route.

    Atom pairs sum in one array kernel call.  The QUADPACK callbacks
    evaluate the query-bound float kernel over the densities' supports, cut
    at every kink and at each Gaussian factor's peak ± 10 widths
    (:func:`_peak_cuts`).  Against an atom at ``loc`` the density variable
    z has a kink at loc, G_nu(t, x2 - z) peaks at x2 and K_dag's factor at
    x1 + x2 - loc.  Otherwise the rotated coordinates have the outer factor
    G_{nu/2}(t, xbar - zbar) and, inside, G_{2 nu}(t, dx - dz) with K_dag's
    kink at dz = 0.
    """
    if isinstance(mu2, DiracAtoms):
        return _atom_sum(mu1.components, mu2.components,
                         _query_kernel(two_point_kernel, q, params))
    point_kernel = two_point_kernel_at(q, params)
    var = params.nu * q.t
    f2 = mu2.f
    if isinstance(mu1, DiracAtoms):
        def against_atom(loc: float) -> Callable[[float], float]:
            return lambda z: f2(z) * point_kernel(loc, z)
        return sum(m * integrate_1d(
            against_atom(loc), *mu2.support, loc,
            *_peak_cuts(*mu2.support, against_atom(loc),
                        (q.x2, math.sqrt(var)),
                        (q.x1 + q.x2 - loc, math.sqrt(2.0 * var))),
            abs_tol=abs_tol, rel_tol=rel_tol)
            for loc, m in mu1.atoms)

    f1 = mu1.f

    # Both factors peak at (z1, z2) = (x1, x2); the guards read the integrand
    # there, as (x_bar, dx) may round that peak off a factor too narrow to see.
    def at_peak(_: float) -> float:
        return f1(q.x1) * f2(q.x2) * point_kernel(q.x1, q.x2)

    bar_range, sep_range = _pair_supports(mu1.support, mu2.support)
    sep_cuts = _peak_cuts(*sep_range, at_peak, (q.dx, math.sqrt(2.0 * var)))
    bar_cuts = _peak_cuts(*bar_range, at_peak,
                          (q.x_bar, math.sqrt(0.5 * var)))

    def outer_integrand(zbar: float) -> float:
        def inner(dz: float) -> float:
            z1 = zbar - 0.5 * dz
            z2 = zbar + 0.5 * dz
            return f1(z1) * f2(z2) * point_kernel(z1, z2)
        return integrate_1d(inner, *sep_range, 0.0, *sep_cuts,
                            abs_tol=abs_tol / 10, rel_tol=rel_tol / 10)

    return integrate_1d(outer_integrand, *bar_range, *bar_cuts,
                        abs_tol=abs_tol, rel_tol=rel_tol)


# Panel windows drop what lies beyond e^-_TAIL (~4e-18) of a factor's peak.
_TAIL = 40.0
# Fewest panels across a window.
_MIN_PANELS = 6


def _tail_radius(log_ratio: Callable[[float], float], scale: float) -> float:
    """A radius r with ``log_ratio(r) <= -_TAIL``, within 0.1% of the
    smallest one, for a ``log_ratio`` that rises at most once, then falls
    for good."""
    hi = scale
    for _ in range(200):
        if not log_ratio(hi) > -_TAIL:
            break
        hi *= 2.0
    else:
        raise QuadratureError("cannot bound the integrand's tail",
                              achieved=np.inf)
    lo = 0.0 if hi == scale else 0.5 * hi
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # no double between them (hi subnormal)
            break
        if log_ratio(mid) > -_TAIL:
            lo = mid
        else:
            hi = mid
    return hi


def _log_growth(certs: Sequence[GrowthCertificate], x0: float,
                r: float) -> float:
    """Upper bound of log(E(x) / E(x0)) for |x - x0| <= r, x0 >= 0, summed
    over the certificates.  E is the certificate's envelope with a decaying
    factor exp(rate |x|^power), rate < 0, replaced by its bound 1: that
    factor grows towards the origin, so it would cut the window short on
    that side; without it the kernel's decay sizes the window there."""
    x = x0 + r
    return sum(c.degree * math.log1p(r / (1.0 + x0))
               + (c.rate * (x ** c.power - x0 ** c.power) if c.rate > 0
                  else 0.0)
               for c in certs)


def _gauss_reach(sd: float, certs, x0: float, offset: float = 0.0) -> float:
    """Half-width past which a Gaussian of width ``sd`` times the growth of
    the certificates from x0, ``offset`` further out, is below e^-_TAIL."""
    return _tail_radius(lambda r: -0.5 * (r / sd) ** 2
                        + _log_growth(certs, x0, r + offset), sd)


def _graded_edges(support: tuple[float, float], windows, kink: float,
                  first: float, widest: float) -> np.ndarray | None:
    """Panel edges on [lo, hi], the support cut to every window
    ``(centre, half-width)``, or None if that is empty: an edge at
    ``kink`` (clipped into [lo, hi]), then widths ``first, 2 first, ...``
    away from it both ways, none wider than ``widest`` or
    ``(hi - lo) / _MIN_PANELS``.  A side ends at its end point where a
    width is too small to move an edge (below half the spacing of doubles
    there)."""
    lo = max(support[0], *(c - w for c, w in windows))
    hi = min(support[1], *(c + w for c, w in windows))
    if not lo < hi:
        return None
    widest = min(widest, (hi - lo) / _MIN_PANELS)
    kink = min(max(kink, lo), hi)
    edges = [kink]
    for end, sign in ((hi, 1.0), (lo, -1.0)):
        x, width = kink, min(first, widest)
        while sign * (end - x) > 0:
            step = x + sign * width
            if step == x or sign * (step - end) >= -0.25 * width:
                step = end
            x = step
            edges.append(x)
            width = min(2.0 * width, widest)
    return np.unique(edges)


class _SplitKernelScales:
    """Decay of the covariance kernel K_dag(t, x1 - z1, x2 - z2, x1 - x2).

    In rotated coordinates the kernel is (lam^2 / 2 nu) G_{nu/2}(t, xbar -
    zbar) exp(c(w)) Phi(d(w)) with w = |dx| + |dz| (see
    ``kernels.two_point_kernel_centered``): a Gaussian of width
    ``sigma = sqrt(nu t / 2)`` in zbar, times a function of |dz| with a kink
    at dz = 0 that falls off at least like exp(-lam^2 |dz| / 2 nu) and, past
    w = lam^2 t, like a Gaussian of width ``s = sqrt(2 nu t)``.
    """

    def __init__(self, q: TwoPointQuery, params: KernelParams):
        nu, l2, t = params.nu, params.lam2, q.t
        self.sigma = math.sqrt(0.5 * nu * t)
        self.s = math.sqrt(2.0 * nu * t)
        self.rate = l2 / (2.0 * nu)
        self.d0 = (l2 * t - abs(q.dx)) / self.s
        self.first = 0.5 * (min(self.s, 1.0 / self.rate) if self.rate
                            else self.s)

    def log_sep(self, r: float) -> float:
        """Upper bound of log K(|dz| = r) / K(dz = 0).  exp(-rate r) bounds
        the exponential; for Phi, d/du -log Phi(-u) >= max(u, 0).  The
        Gaussian part, max(0, u - d0)² - max(0, -d0)² at u = r/s, is
        u (u - 2 d0) for d0 <= 0: the difference of squares would round
        to 0 where -d0 >> u."""
        d0, u = self.d0, r / self.s
        gauss = u * (u - 2.0 * d0) if d0 <= 0 else max(0.0, u - d0) ** 2
        return -self.rate * r - 0.5 * gauss


def _panel_pair(mu1: InitialMeasure, mu2: InitialMeasure, q: TwoPointQuery,
                params: KernelParams, abs_tol: float, rel_tol: float,
                lost_tol: float = 0.0) -> tuple[float, float]:
    """``(value, error estimate)`` of ∬ mu1(dz1) mu2(dz2) K_dag(t, x1 - z1,
    x2 - z2, x1 - x2) for primitive measures, atoms first (as
    :func:`_term_pairs` orders them): an array atom sum, or panelled
    Gauss-Legendre over the density variables on their supports.  The
    split-form route.  A kernel factor narrower than the spacing of doubles
    is refused where it could hide more than ``lost_tol``
    (:func:`_require_visible`)."""
    kernel = _query_kernel(covariance_kernel, q, params)
    if isinstance(mu2, DiracAtoms):
        return _atom_sum(mu1.components, mu2.components, kernel), 0.0
    sc = _SplitKernelScales(q, params)
    if isinstance(mu1, DiracAtoms):
        f2, cert = mu2.f, mu2.certificate
        total = err = 0.0
        for loc, m in mu1.atoms:
            # The density variable z: kink at z = loc, zbar Gaussian
            # (width 2 sigma in z) centred at z = 2 xbar - loc.
            centre = 2.0 * q.x_bar - loc
            w_sep = _tail_radius(
                lambda r: sc.log_sep(r) + _log_growth([cert], abs(loc), r),
                sc.s)
            w_bar = _gauss_reach(2.0 * sc.sigma, [cert], abs(centre))

            def against_atom(z: float) -> float:
                return f2(z) * kernel(loc, z)
            for peak, reach in ((loc, w_sep), (centre, w_bar)):
                _require_visible(*mu2.support, against_atom, peak, reach,
                                 lost_tol)
            edges = _graded_edges(mu2.support, ((loc, w_sep), (centre, w_bar)),
                                  loc, sc.first, 2.0 * sc.s)
            if edges is None:
                continue
            val, e = integrate_panels(against_atom, edges, abs_tol=abs_tol,
                                      rel_tol=rel_tol)
            total += m * val
            err += abs(m) * e
        return total, err

    f1, f2, c1, c2 = mu1.f, mu2.f, mu1.certificate, mu2.certificate
    x0 = abs(q.x_bar)
    w_sep = _tail_radius(lambda r: sc.log_sep(r)
                         + _log_growth((c1, c2), x0, 0.5 * r), sc.s)
    w_bar = _gauss_reach(sc.sigma, (c1, c2), x0, 0.5 * w_sep)
    bar_range, sep_range = _pair_supports(mu1.support, mu2.support)

    def integrand(zbar, dz):
        z1 = zbar - 0.5 * dz
        z2 = zbar + 0.5 * dz
        return f1(z1) * f2(z2) * kernel(z1, z2)

    # K_dag peaks at (zbar, dz) = (xbar, 0), and falls off in |dz| within
    # w_sep; the zbar factor is the one whose reach can round away (the dz
    # window is centred at 0).
    _require_visible(*bar_range,
                     lambda zbar: 2.0 * w_sep * integrand(zbar, 0.0),
                     q.x_bar, w_bar, lost_tol)
    bar_edges = _graded_edges(bar_range, ((q.x_bar, w_bar),), q.x_bar,
                              3.0 * sc.sigma, 3.0 * sc.sigma)
    sep_edges = _graded_edges(sep_range, ((0.0, w_sep),), 0.0, sc.first,
                              2.0 * sc.s)
    if bar_edges is None or sep_edges is None:
        return 0.0, 0.0

    return integrate_panels(integrand, bar_edges, sep_edges,
                            abs_tol=abs_tol, rel_tol=rel_tol)


def _check_nu_t(q: TwoPointQuery, params: KernelParams) -> None:
    """Refuse a query whose variance scale nu * t underflows to 0 or
    overflows: every kernel divides by it or by its square root."""
    nu_t = params.nu * q.t
    if not (0.0 < nu_t < math.inf):
        raise DomainError(f"a two-point query requires 0 < nu * t < inf, "
                          f"got {params.nu} * {q.t}")


def two_point(q: TwoPointQuery, mu: InitialMeasure, params: KernelParams,
              formula: str = "split") -> float:
    """E[u(t,x1) u(t,x2)] for a general admissible initial measure.

    ``formula="split"`` (default) evaluates J0*J0 plus the covariance-kernel
    integral by panelled Gauss-Legendre; ``formula="direct"`` integrates the
    full two-point kernel by nested adaptive QUADPACK.  The two must agree;
    cross-checking them is the point of keeping both.  Both expand a sum
    over :func:`_term_pairs`: K_dag is symmetric in (z1, z2), so the split
    form weights a pair's integral; K_star is not, so the direct form takes
    an off-diagonal pair at (x1, x2) and at (x2, x1).

    The panels resolve smooth densities; a density that jumps or kinks
    off the panel edges (an indicator, say) makes the split form raise
    QuadratureError rather than miss its tolerance.  So does a heat-kernel
    window of J0 narrower than the spacing of doubles, or a pair's kernel
    spike that narrow, unless it hides less than rel_tol * |J0(x1) J0(x2)|.
    """
    _check_nu_t(q, params)
    abs_tol, rel_tol = 1e-10, 1e-9
    if formula == "split":
        j0j0 = (mean_field(q.t, q.x1, mu, params.nu)
                * mean_field(q.t, q.x2, mu, params.nu))
        return j0j0 + sum(
            w * _panel_pair(t1, t2, q, params, abs_tol, rel_tol,
                            rel_tol * abs(j0j0))[0]
            for w, t1, t2 in _term_pairs(mu))
    if formula == "direct":
        swapped = TwoPointQuery(q.t, q.x2, q.x1)
        return sum(_bilinear_primitive(t1, t2, query, params, abs_tol,
                                       rel_tol)
                   for w, t1, t2 in _term_pairs(mu)
                   for query in ((q,) if w == 1.0 else (q, swapped)))
    raise DomainError(f"unknown two_point formula {formula!r}")


# ---------------------------------------------------------------------------
# Closed form for atoms and Gaussians
# ---------------------------------------------------------------------------

def _gaussian_pairs(q: TwoPointQuery, params: KernelParams, pairs) -> float:
    """Σ w ∬ c1 N(dz1; m1, V1) c2 N(dz2; m2, V2) K_dag(t, x1 - z1,
    x2 - z2, x1 - x2) over ``(w, (c1, m1, V1), (c2, m2, V2))`` in
    ``pairs``, component rows each with V1 + V2 > 0, in closed form.

    In zbar = (z1 + z2)/2 and dz = z2 - z1 the Gaussian in zbar integrates
    out, leaving, with alpha = lam²/2nu, D = |x1 - x2|, gamma = 1/sqrt(2 nu t),
    beta = (lam² t - D) gamma and c0 = lam² (lam² t - 2D)/4nu,

        c1 c2 alpha N(xbar; mbar, (nu t + Σ/2)/2) ∫ e^{c0 - alpha |dz|}
            Phi(beta - gamma |dz|) N(dz; mu*, V*) ddz,

    Σ = V1 + V2, where N(dz; mu*, V*) is dz's law given xbar.  On either
    half line, at mu = ±mu*, that is e^{c0 - alpha mu + alpha² V*/2} Phi2,
    assembled in log space with -h²/2 cancelled against the exponent, so
    that no large prefactor meets a tiny Phi2 outside the log.
    """
    nu, l2, t = params.nu, params.lam2, q.t
    alpha = l2 / (2.0 * nu)
    if alpha == 0.0:
        return 0.0
    d = abs(q.dx)
    gamma = 1.0 / math.sqrt(2.0 * nu * t)
    beta = (l2 * t - d) * gamma
    c0 = l2 * (l2 * t - 2.0 * d) / (4.0 * nu)
    terms, points = [], []
    for w, (c1, m1, v1), (c2, m2, v2) in pairs:
        if c1 == 0.0 or c2 == 0.0:
            continue
        sigma = v1 + v2
        delta, off = m2 - m1, q.x_bar - 0.5 * (m1 + m2)
        slope = (v2 - v1) / (2.0 * sigma)
        v_w = v1 * v2 / sigma + 0.5 * nu * t
        var = 1.0 / (slope * slope / v_w + 1.0 / sigma)
        if var == 0.0:
            raise DomainError("the closed form requires variances whose "
                              f"reciprocals are finite, got {v1} and {v2}")
        mu = var * (slope * (off + slope * delta) / v_w + delta / sigma)
        var_bar = 0.5 * (nu * t + 0.5 * sigma)
        log_pre = (math.log(w * alpha) + math.log(abs(c1)) + math.log(abs(c2))
                   - 0.5 * off * off / var_bar
                   - 0.5 * math.log(2.0 * math.pi * var_bar))
        sd = math.sqrt(var)
        for m in (mu, -mu):
            s0 = m - alpha * var
            # c0 - alpha m + alpha² V*/2 - min(h, 0)²/2 at h = s0 / sd
            terms.append((math.copysign(1.0, c1 * c2), log_pre + c0 + (
                -0.5 * m * m / var if s0 < 0
                else alpha * (0.5 * alpha * var - m))))
            points.append((s0 / sd, beta, gamma * sd))
    total = 0.0
    for (sign, expo), log_phi2 in zip(terms, log_phi2_slope(points)):
        log_term = expo + log_phi2
        if log_term > _LOG_DBL_MAX:
            raise KernelOverflowError(
                "the closed covariance term overflows double precision")
        total += sign * math.exp(log_term)
    return require_finite(total, "the closed covariance term")


def mixture_two_point(q: TwoPointQuery, mu: InitialMeasure,
                      params: KernelParams) -> float:
    """E[u(t,x1) u(t,x2)] in closed form for a measure whose every component
    is an atom or a Gaussian: J0 J0 by :func:`mean_field`, one exact kernel
    sum over the pairs of atoms, and :func:`_gaussian_pairs` over every
    other unordered pair of component rows, weight 1 on the diagonal and 2
    off it.  ``two_point`` (either formula) is its cross-check."""
    _check_nu_t(q, params)
    rows = mu.components
    if rows is None or rows[-1, 2] == math.inf:
        raise DomainError("no closed two-point form for a Lebesgue term or "
                          "a library density")
    n_atoms = rows[:, 2].tolist().count(0.0)
    atom_pairs = 0.0
    if n_atoms:
        atom_pairs += _atom_sum(rows[:n_atoms], rows[:n_atoms],
                                _query_kernel(covariance_kernel, q, params))
    comps = rows.tolist()
    pairs = [(1.0 if i == j else 2.0, comps[i], comps[j])
             for i in range(len(comps))
             for j in range(max(i, n_atoms), len(comps))]
    value = (mean_field(q.t, q.x1, mu, params.nu)
             * mean_field(q.t, q.x2, mu, params.nu) + atom_pairs)
    return value + _gaussian_pairs(q, params, pairs) if pairs else value


def closed_two_point(q: TwoPointQuery, mu: InitialMeasure,
                     params: KernelParams) -> float:
    """E[u(t,x1) u(t,x2)] in closed form where there is one, behind every
    two-point value the CLI prints (``two-point``, ``second-moment`` and
    both simulate oracles): the Lebesgue formula for Lebesgue data,
    :func:`mixture_two_point` when every component is an atom or a
    Gaussian, and the split form of :func:`two_point` otherwise."""
    _check_nu_t(q, params)
    if isinstance(mu, LebesgueScaled):
        return mu.scale * mu.scale * two_point_lebesgue(q, params)
    if mu.components is not None and mu.components[-1, 2] < math.inf:
        return mixture_two_point(q, mu, params)
    return two_point(q, mu, params, formula="split")


def second_moment(t: float, x: float, mu: InitialMeasure,
                  params: KernelParams, formula: str = "split") -> float:
    """E[u(t,x)^2]: the two-point function on the diagonal."""
    return two_point(TwoPointQuery(t, x, x), mu, params, formula=formula)


def check_membership(mu: InitialMeasure, a_grid: Sequence[float]) -> list[dict]:
    """Confirm ∫ exp(-a x^2) |mu|(dx) < inf for each ``a`` in the grid.

    Returns one report row per ``a`` with the computed integral.  Raises
    InadmissibleMeasureError if any integral fails to converge.
    """
    a_grid = [float(a) for a in a_grid]
    if not a_grid:
        raise DomainError("check_membership requires a nonempty a_grid")
    if any(a <= 0 for a in a_grid):
        raise DomainError("check_membership requires every a > 0")
    tv = mu.total_variation()
    report = []
    for a in a_grid:
        total = 0.0
        for term in tv.primitive_terms():
            if isinstance(term, DiracAtoms):
                total += sum(m * math.exp(-a * x * x) for x, m in term.atoms)
            elif isinstance(term, LebesgueScaled):
                total += term.scale * math.sqrt(math.pi / a)
            else:
                try:
                    total += integrate_1d(
                        lambda z: term.f(z) * math.exp(-a * z * z),
                        *term.support, abs_tol=1e-10, rel_tol=1e-8)
                except Exception as exc:
                    raise InadmissibleMeasureError(
                        f"Gaussian-weighted mass diverges at a={a}") from exc
        if not np.isfinite(total):
            raise InadmissibleMeasureError(
                f"Gaussian-weighted mass is not finite at a={a}")
        report.append({"a": a, "integral": total})
    return report
