"""Deterministic verification suites behind ``verify --suite ...``.

Three suites, each a list of checks with a measured error and a pinned
tolerance:

* ``laplace``    -- every closed-form Laplace pair against a forward
  numeric transform, plus the partial-fraction recomposition;
* ``identities`` -- kernel decomposition and form equivalence, the
  special-measure closed forms against honest quadrature, the
  time-convolution identities, the Gaussian product-moment inequality and
  the first-passage convolution (including its scaling law and the
  discovered normalisation constant);
* ``local-time`` -- normalisation and both marginals of the joint
  endpoint/local-time law, and its moment generating function.

Every check is pure computation with a fixed internal seed: a green run is
the repository's CI gate.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import (exp_phi, gaussian_product_moment_bound,
                       gaussian_product_moment_bound_repaired,
                       gaussian_product_split, heat_kernel, normal_cdf)
from .kernels import (KernelParams, TwoPointQuery, covariance_kernel,
                      mgf_local_time, second_moment_kernel, two_point_kernel,
                      two_point_kernel_at, two_point_kernel_centered,
                      two_point_lebesgue)
from .local_time import (JointLocalTimeLaw, first_passage_convolution,
                         first_passage_rhs_printed)
from .measures import (DiracAtoms, LebesgueScaled, MeasureSum,
                       gaussian_density, mixture_two_point, second_moment,
                       two_point)
from .quadrature import integrate_1d
from .transforms import (CASE_NAMES, TransformCase, conv_heat_offset_factor,
                         conv_heat_offset_factor_quad, conv_heat_time_factor,
                         conv_heat_time_factor_quad, laplace_closed,
                         laplace_numeric, time_factor_transform_summands)

SUITE_NAMES = ("laplace", "identities", "local-time", "all")


def _check(name: str, err: float, tol: float, **extra) -> dict:
    row = {"name": name, "status": "pass" if err <= tol else "fail",
           "measured_err": float(err), "tolerance": float(tol)}
    row.update(extra)
    return row


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# Laplace suite
# ---------------------------------------------------------------------------

def suite_laplace() -> list[dict]:
    checks: list[dict] = []
    offsets = {"ConvGH": 0.9, "ConvGHtilde": 0.8}
    for name in CASE_NAMES:
        # Each pair reads only the fields it needs (LapGa ignores nu, lam, x).
        case = TransformCase(name, nu=1.0, lam=1.0, x=offsets.get(name, 0.7),
                             x2=0.5, a=1.0)
        fn = case.time_fn()
        tol = 1e-6 if name in ("F3Plus", "F3Minus") else 1e-7
        for z in (0.3, 1.0, 3.0):
            closed = laplace_closed(case, z)
            numeric = laplace_numeric(fn, z, tail_bound=case.growth_rate())
            checks.append(_check(f"laplace/{name}/z={z}",
                                 _rel(closed, numeric), tol,
                                 closed=closed, numeric=numeric, z=z))
    for z in (0.4, 1.7):
        printed, recomposed = time_factor_transform_summands(1.0, 1.0, z)
        checks.append(_check(f"laplace/partial_fractions/z={z}",
                             _rel(printed, recomposed), 1e-12))
    return checks


# ---------------------------------------------------------------------------
# Identities suite
# ---------------------------------------------------------------------------

def _random_params(rng) -> KernelParams:
    return KernelParams(nu=float(rng.uniform(0.2, 3.0)),
                        lam=float(rng.uniform(0.0, 2.0)))


def suite_identities() -> list[dict]:
    rng = np.random.default_rng(20260809)
    checks: list[dict] = []

    # Kernel decomposition and centred-form equivalence, 1000 draws each.
    # The decomposition's left side is the direct route's float kernel,
    # written apart from two_point_kernel; both sides share growth_tail.
    worst_dec = worst_eq = worst_split = worst_expphi = 0.0
    for _ in range(1000):
        params = _random_params(rng)
        t = float(rng.uniform(0.05, 5.0))
        z1, z2, y = rng.uniform(-3, 3, size=3)
        direct = (heat_kernel(t, z1, params.nu) * heat_kernel(t, z2, params.nu)
                  + covariance_kernel(t, z1, z2, y, params))
        at = two_point_kernel_at(TwoPointQuery(t, y, 0.0), params)
        worst_dec = max(worst_dec, _rel(direct, at(y - z1, -z2)))

        x1, x2 = rng.uniform(-3, 3, size=2)
        centered = two_point_kernel_centered(t, x1, x2, z1, z2, params)
        conv = two_point_kernel(t, x1 - z1, x2 - z2, x1 - x2, params)
        worst_eq = max(worst_eq, _rel(float(centered), float(conv)))

        s = float(rng.uniform(0.05, 4.0))
        nu = float(rng.uniform(0.2, 3.0))
        yv, w1, w2 = rng.uniform(-3, 3, size=3)
        ga, gb = gaussian_product_split(s, nu, yv, w1, w2)
        prod = heat_kernel(s, yv - w1, nu) * heat_kernel(s, yv - w2, nu)
        worst_split = max(worst_split, _rel(ga * gb, prod))

        c = float(rng.uniform(-50, 50))
        d = float(rng.uniform(-25, 8))
        direct_ep = np.exp(c) * normal_cdf(d)
        if direct_ep > 5e-300:
            worst_expphi = max(worst_expphi,
                               _rel(float(exp_phi(c, d)), float(direct_ep)))
    checks.append(_check("identities/kernel_decomposition", worst_dec, 1e-12))
    checks.append(_check("identities/form_equivalence", worst_eq, 1e-12))
    checks.append(_check("identities/gaussian_product_split", worst_split, 1e-13))
    checks.append(_check("identities/exp_phi_direct", worst_expphi, 1e-12))

    # Heat-kernel mass and Chapman-Kolmogorov.
    worst = 0.0
    for t in (1e-3, 1.0, 1e3):
        for nu in (0.1, 1.0, 10.0):
            mass = integrate_1d(lambda x: heat_kernel(t, x, nu),
                                -np.inf, np.inf)
            worst = max(worst, abs(mass - 1.0))
    checks.append(_check("identities/heat_kernel_mass", worst, 1e-10))

    worst = 0.0
    for _ in range(20):
        s = float(rng.uniform(0.1, 2.0))
        t = float(rng.uniform(0.1, 2.0))
        nu = float(rng.uniform(0.3, 2.0))
        x = float(rng.uniform(-3, 3))
        conv = integrate_1d(lambda yv: heat_kernel(s, x - yv, nu)
                            * heat_kernel(t, yv, nu), -np.inf, np.inf)
        worst = max(worst, abs(conv - heat_kernel(s + t, x, nu)))
    checks.append(_check("identities/chapman_kolmogorov", worst, 1e-10))

    # Time-convolution identities, 9 combos each.
    combos = [(t, d, lam) for t in (0.4, 1.0, 2.5)
              for d, lam in ((0.0, 1.0), (1.0, 0.7), (2.0, 1.4))]
    worst = worst_offset = 0.0
    for t, dz, lam in combos:
        params = KernelParams(nu=1.0, lam=lam)
        worst = max(worst, _rel(conv_heat_time_factor(t, dz, params),
                                conv_heat_time_factor_quad(t, dz, params)))
        dx = 0.5 * dz + 0.3
        worst_offset = max(worst_offset, _rel(
            conv_heat_offset_factor(t, dx, dz, params),
            conv_heat_offset_factor_quad(t, dx, dz, params)))
    checks.append(_check("identities/conv_heat_time_factor", worst, 1e-7))
    checks.append(_check("identities/conv_heat_offset_factor", worst_offset,
                         1e-7))

    # Lebesgue two-point: 2-D quadrature of the covariance kernel against
    # the closed form minus one.
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for dx, lam in ((0.0, 1.0), (1.0, 0.8), (2.0, 1.2)):
            params = KernelParams(nu=1.0, lam=lam)
            q = TwoPointQuery(t=t, x1=0.0, x2=dx)
            quad = two_point(q, LebesgueScaled(1.0), params, formula="split")
            closed = two_point_lebesgue(q, params)
            worst = max(worst, _rel(quad, closed))
    checks.append(_check("identities/lebesgue_two_point", worst, 1e-6))

    # Delta second moment against the lambda^-2 K closed form.
    worst = 0.0
    delta = DiracAtoms(((0.0, 1.0),))
    for t in (0.3, 1.0, 2.0):
        for x, lam in ((0.0, 1.0), (0.7, 0.8), (1.5, 1.3)):
            params = KernelParams(nu=1.0, lam=lam)
            via_measure = second_moment(t, x, delta, params)
            closed = second_moment_kernel(t, x, params) / lam ** 2
            worst = max(worst, _rel(via_measure, float(closed)))
    checks.append(_check("identities/delta_second_moment", worst, 1e-8))

    # Split vs direct two-point formulas across measure types.
    measures = {
        "delta": DiracAtoms(((0.0, 1.0),)),
        "two_atoms": DiracAtoms(((0.0, 1.0), (1.0, 1.0))),
        "lebesgue": LebesgueScaled(1.0),
        "gaussian": gaussian_density(0.3, 0.8),
    }
    worst = 0.0
    q = TwoPointQuery(t=0.8, x1=-0.2, x2=0.6)
    params = KernelParams(nu=1.0, lam=1.0)
    for mu in measures.values():
        worst = max(worst, _rel(two_point(q, mu, params, formula="split"),
                                two_point(q, mu, params, formula="direct")))
    checks.append(_check("identities/two_point_form_agreement", worst, 1e-7))

    # The same data translated by 50: the split form must not move.
    far = two_point(TwoPointQuery(t=0.8, x1=49.8, x2=50.6),
                    gaussian_density(50.3, 0.8), params, formula="split")
    near = two_point(q, measures["gaussian"], params, formula="split")
    checks.append(_check("identities/two_point_translation",
                         _rel(far, near), 1e-9))

    # The closed form's bivariate-normal (Phi_2) route, which takes an atom
    # and a Gaussian term, against the split form at its requested 1e-9.
    mixed = MeasureSum((DiracAtoms(((0.1, 0.6),)), measures["gaussian"]))
    checks.append(_check("identities/two_point_mixture", _rel(
        mixture_two_point(q, mixed, params),
        two_point(q, mixed, params, formula="split")), 1e-9))

    # Gaussian product-moment inequality, 200 draws with p <= 4, against the
    # repaired right side (the printed one is false on these ranges; see
    # gaussian_product_moment_bound_repaired for the counterexample).
    violations = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 5))
        s = float(rng.uniform(0.1, 2.0))
        t = float(rng.uniform(0.1, 2.0))
        x = float(rng.uniform(-2, 2))
        ys = rng.uniform(-2, 2, size=p)
        lhs, _ = gaussian_product_moment_bound(s, t, x, ys)
        rhs = gaussian_product_moment_bound_repaired(s, t, x, ys)
        violations = max(violations, lhs - rhs * (1 + 1e-9))
    checks.append(_check("identities/gaussian_moment_inequality_repaired",
                         max(violations, 0.0), 0.0))

    # First-passage convolution: closed form, scaling law, discovered
    # constant relative to the density-normalised right side.
    worst = 0.0
    worst_scaling = 0.0
    for _ in range(200):
        t = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
        b = float(rng.uniform(0.2, 2.0))
        lhs, rhs = first_passage_convolution(t, a, b)
        worst = max(worst, _rel(lhs, rhs))
        c = float(rng.uniform(0.5, 2.0))
        lhs_scaled, _ = first_passage_convolution(c * c * t, c * a, c * b)
        worst_scaling = max(worst_scaling, _rel(lhs_scaled, lhs / (c * c)))
    lhs_unit, _ = first_passage_convolution(1.0, 1.0, 1.0)
    discovered = lhs_unit / first_passage_rhs_printed(1.0, 1.0, 1.0)
    checks.append(_check("identities/first_passage_convolution", worst, 1e-7,
                         discovered_constant=discovered,
                         constant_note="lhs / density-normalised rhs; "
                                       "expected 2*pi"))
    checks.append(_check("identities/first_passage_scaling", worst_scaling,
                         1e-7))

    # Local-time MGF bounds on 1000 draws.
    worst_low = worst_high = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.05, 4.0))
        x = float(rng.uniform(-3, 3))
        lam = float(rng.uniform(0.0, 1.5))
        val = mgf_local_time(t, x, lam)
        worst_low = max(worst_low, 1.0 - val)
        bound = 2.0 * np.exp(lam ** 4 * t / 2.0) + 1.0
        worst_high = max(worst_high, (val - bound) / bound)
    checks.append(_check("identities/mgf_bounds",
                         max(worst_low, worst_high, 0.0), 0.0))
    return checks


# ---------------------------------------------------------------------------
# Local-time suite
# ---------------------------------------------------------------------------

def _atom_mass_quad(law: JointLocalTimeLaw) -> float:
    if law.a == 0:
        return 0.0
    lo, hi = ((-np.inf, law.a) if law.a > 0 else (law.a, np.inf))
    return integrate_1d(lambda y: law.atom_profile(y), lo, hi,
                        abs_tol=1e-12, rel_tol=1e-10)


def suite_local_time() -> list[dict]:
    checks: list[dict] = []
    pairs = [(t, a) for t in (0.5, 1.0, 4.0) for a in (-2.0, -0.5, 0.0, 1.0, 3.0)]

    worst = 0.0
    for t, a in pairs:
        law = JointLocalTimeLaw(t=t, a=a)
        total = (law.cell_probability(-np.inf, np.inf, 0.0, np.inf)
                 + _atom_mass_quad(law))
        worst = max(worst, abs(total - 1.0))
    checks.append(_check("local_time/normalisation", worst, 1e-8))

    worst = worst_v = 0.0
    for t, a in ((1.0, 1.0), (0.5, -0.7), (2.0, 0.0)):
        law = JointLocalTimeLaw(t=t, a=a)
        for y in np.linspace(-3.5, 3.5, 20):
            marg = integrate_1d(lambda v: law.density_cont(y, v), 1e-300,
                                np.inf, abs_tol=1e-12, rel_tol=1e-10)
            marg += law.atom_profile(y)
            worst = max(worst, abs(marg - heat_kernel(t, y, 1.0)))
        for v in (0.1, 0.5, 1.5):
            marg = integrate_1d(lambda y: law.density_cont(y, v),
                                -np.inf, np.inf, a,
                                abs_tol=1e-12, rel_tol=1e-10)
            dens, _ = law.marginal_local_time(v)
            worst_v = max(worst_v, abs(marg - dens))
    checks.append(_check("local_time/marginal_endpoint", worst, 1e-8))
    checks.append(_check("local_time/marginal_local_time", worst_v, 1e-8))

    worst = 0.0
    for t, a, lam in ((1.0, 1.0, 0.8), (0.5, -0.5, 1.0), (2.0, 0.0, 0.9),
                      (4.0, 2.0, 0.7)):
        law = JointLocalTimeLaw(t=t, a=a)
        l2 = lam * lam
        norm = heat_kernel(t, 0.0, 1.0) / t  # h(t, r) = r G_1(t, r) / t

        def y_integrand(y: float) -> float:
            r0 = abs(a) + abs(y - a)

            def tilted(v: float) -> float:
                # exp(l2 v) * density_cont(y, v), evaluated in log space:
                # the exponent l2 v - r^2 / 2t -> -inf since r >= v.
                r = r0 + v
                return norm * r * math.exp(l2 * v - r * r / (2.0 * t))
            return integrate_1d(tilted, 0.0, np.inf,
                                abs_tol=1e-13, rel_tol=1e-11)

        cont = integrate_1d(y_integrand, -np.inf, np.inf, a,
                            abs_tol=1e-11, rel_tol=1e-9)
        total = cont + _atom_mass_quad(law)
        worst = max(worst, _rel(total, mgf_local_time(t, a, lam)))
    checks.append(_check("local_time/mgf_consistency", worst, 1e-7))
    return checks


def run_suite(name: str) -> list[dict]:
    """Run one named suite (or ``all``); returns the check rows."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of "
                         f"{SUITE_NAMES}")
    suites = {"laplace": suite_laplace, "identities": suite_identities,
              "local-time": suite_local_time}
    return [row for key, suite in suites.items() if name in (key, "all")
            for row in suite()]
