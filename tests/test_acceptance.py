"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured error and runtime.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 14's Gaussian product-moment inequality is checked exactly as
stated, in two halves (14b): it holds for all x, ys iff p s <= (p - 1) t / 2,
with equality at x = ys = 0, and outside that region it is false (for p = 1
at every s > 0).  14b asserts the bound inside the region and a violation,
found only outside it, on its seed draws.  The provable version that holds
for all s, t > 0, ``gaussian_product_moment_bound_repaired``, has its own
check (14c).
"""

import json
import math
import time

import numpy as np
from scipy import stats

from she_moments.cli import main as cli_main
from she_moments.gaussian import (gaussian_product_moment_bound,
                                  gaussian_product_moment_bound_repaired,
                                  heat_kernel)
from she_moments.bounds import p_moment_upper_bound, second_moment_lower_bound
from she_moments.kernels import (KernelParams, MomentBoundParams,
                                 TwoPointQuery, covariance_kernel,
                                 mgf_local_time, second_moment_kernel,
                                 two_point_kernel, two_point_kernel_at,
                                 two_point_kernel_centered, two_point_lebesgue)
from she_moments.local_time import JointLocalTimeLaw, first_passage_convolution
from she_moments.measures import (DiracAtoms, LebesgueScaled, second_moment,
                                  two_point)
from she_moments.quadrature import integrate_1d
from she_moments.simulate import (McConfig, RhoSpec, SpdeGrid, fk_two_point,
                                  spde_estimate_two_point, spde_solve_path)
from she_moments.verify import suite_laplace


def report(criterion: int, ok: bool, detail: str, elapsed: float,
           budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {criterion:02d}] {status}: {detail} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion}: runtime {elapsed:.1f}s " \
                             f"over budget {budget}s"


def test_criterion_01_kernel_decomposition():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.05, 5.0))
        z1, z2, y = rng.uniform(-3, 3, size=3)
        p = KernelParams(nu=float(rng.uniform(0.2, 3.0)),
                         lam=float(rng.uniform(0.0, 2.0)))
        total = heat_kernel(t, z1, p.nu) * heat_kernel(t, z2, p.nu) \
            + covariance_kernel(t, z1, z2, y, p)
        # The direct route's float kernel, written apart from
        # two_point_kernel (which is defined as this sum).
        ref = two_point_kernel_at(TwoPointQuery(t, y, 0.0), p)(y - z1, -z2)
        worst = max(worst, abs(total - ref) / max(abs(ref), 1e-300))
    report(1, worst < 1e-12,
           f"two-point kernel = heat product + covariance kernel, "
           f"1000 draws, max rel err {worst:.2e}", time.time() - start, 1.0)


def test_criterion_02_form_equivalence():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.05, 5.0))
        x1, x2, z1, z2 = rng.uniform(-3, 3, size=4)
        p = KernelParams(nu=float(rng.uniform(0.2, 3.0)),
                         lam=float(rng.uniform(0.0, 2.0)))
        a = float(two_point_kernel_centered(t, x1, x2, z1, z2, p))
        b = float(two_point_kernel(t, x1 - z1, x2 - z2, x1 - x2, p))
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    report(2, worst < 1e-12,
           f"centred vs convolution kernel forms, 1000 draws, "
           f"max rel err {worst:.2e}", time.time() - start, 1.0)


def test_criterion_03_lebesgue_two_point_identity():
    start = time.time()
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for dx, lam in ((0.0, 1.0), (1.0, 0.8), (2.0, 1.2)):
            p = KernelParams(nu=1.0, lam=lam)
            q = TwoPointQuery(t=t, x1=0.0, x2=dx)
            quad = two_point(q, LebesgueScaled(1.0), p, formula="split")
            closed = two_point_lebesgue(q, p)
            worst = max(worst, abs(quad - closed) / closed)
    report(3, worst < 1e-6,
           f"flat-data two-point: covariance-kernel quadrature vs closed "
           f"form, 9 combos, max rel err {worst:.2e}",
           time.time() - start, 30.0)


def test_criterion_04_delta_second_moment():
    start = time.time()
    delta = DiracAtoms(((0.0, 1.0),))
    worst = 0.0
    for t in (0.3, 1.0, 2.0):
        for x, lam in ((0.0, 1.0), (0.7, 0.8), (1.5, 1.3)):
            p = KernelParams(nu=1.0, lam=lam)
            got = second_moment(t, x, delta, p)
            want = float(second_moment_kernel(t, x, p)) / lam ** 2
            worst = max(worst, abs(got - want) / want)
    report(4, worst < 1e-8,
           f"point-mass second moment vs closed kernel, 9 combos, "
           f"max rel err {worst:.2e}", time.time() - start, 5.0)


def test_criterion_05_laplace_suite():
    start = time.time()
    checks = suite_laplace()
    ok = all(c["status"] == "pass" for c in checks)
    worst = max(c["measured_err"] for c in checks)
    report(5, ok, f"forward numeric Laplace vs closed forms, "
                  f"{len(checks)} checks, max err {worst:.2e}",
           time.time() - start, 30.0)


def test_criterion_06_time_convolution_identities():
    from she_moments.transforms import (conv_heat_offset_factor,
                                        conv_heat_offset_factor_quad,
                                        conv_heat_time_factor,
                                        conv_heat_time_factor_quad)
    start = time.time()
    worst = 0.0
    combos = [(t, d, lam) for t in (0.4, 1.0, 2.5)
              for d, lam in ((0.0, 1.0), (1.0, 0.7), (2.0, 1.4))]
    for t, dz, lam in combos:
        p = KernelParams(nu=1.0, lam=lam)
        a = conv_heat_time_factor(t, dz, p)
        worst = max(worst, abs(conv_heat_time_factor_quad(t, dz, p) - a) / a)
        b = conv_heat_offset_factor(t, 0.5 * dz + 0.3, dz, p)
        worst = max(worst,
                    abs(conv_heat_offset_factor_quad(t, 0.5 * dz + 0.3, dz, p)
                        - b) / b)
    report(6, worst < 1e-7,
           f"time-convolution closed forms vs quadrature, 9 combos each, "
           f"max rel err {worst:.2e}", time.time() - start, 30.0)


def test_criterion_07_joint_law_normalisation():
    start = time.time()
    worst_mass = worst_y = worst_v = 0.0
    for t in (0.5, 1.0, 4.0):
        for a in (-2.0, -0.5, 0.0, 1.0, 3.0):
            law = JointLocalTimeLaw(t=t, a=a)
            cont = law.cell_probability(-np.inf, np.inf, 0.0, np.inf)
            atom = 0.0
            if a != 0:
                lo, hi = ((-np.inf, a) if a > 0 else (a, np.inf))
                atom = integrate_1d(lambda y: law.atom_profile(y), lo, hi)
            worst_mass = max(worst_mass, abs(cont + atom - 1.0))
    law = JointLocalTimeLaw(t=1.0, a=1.0)
    for y in np.linspace(-3.0, 3.0, 20):
        cont = integrate_1d(lambda v: law.density_cont(y, v), 0.0, np.inf)
        worst_y = max(worst_y,
                      abs(cont + law.atom_profile(y) - heat_kernel(1.0, y, 1.0)))
    for v in (0.1, 0.5, 1.0, 2.0):
        got = integrate_1d(lambda y: law.density_cont(y, v), -np.inf, np.inf)
        want, _ = law.marginal_local_time(v)
        worst_v = max(worst_v, abs(got - want))
    ok = worst_mass < 1e-8 and worst_y < 1e-8 and worst_v < 1e-8
    report(7, ok,
           f"joint law: mass err {worst_mass:.2e} (15 pairs), endpoint "
           f"marginal err {worst_y:.2e}, local-time marginal err "
           f"{worst_v:.2e}", time.time() - start, 60.0)


def test_criterion_08_mgf_consistency_and_bound():
    start = time.time()
    worst = 0.0
    for t, a, lam in ((1.0, 1.0, 0.8), (0.5, -0.5, 1.0), (2.0, 0.0, 0.9),
                      (4.0, 2.0, 0.7)):
        l2 = lam * lam
        norm = 1.0 / math.sqrt(2 * math.pi * t ** 3)

        def tilted(y, v, a=a, t=t, l2=l2, norm=norm):
            r = abs(a) + abs(y - a) + v
            expo = l2 * v - r * r / (2 * t)
            return 0.0 if expo < -700 else norm * r * math.exp(expo)

        total = integrate_1d(
            lambda y: integrate_1d(lambda v: tilted(y, v), 0.0, np.inf,
                                   abs_tol=1e-13, rel_tol=1e-11),
            -np.inf, np.inf, abs_tol=1e-11, rel_tol=1e-9)
        if a != 0:
            law = JointLocalTimeLaw(t=t, a=a)
            lo, hi = ((-np.inf, a) if a > 0 else (a, np.inf))
            total += integrate_1d(lambda y: law.atom_profile(y), lo, hi)
        closed = mgf_local_time(t, a, lam)
        worst = max(worst, abs(total - closed) / closed)

    rng = np.random.default_rng(108)
    bound_ok = True
    for _ in range(1000):
        t = float(rng.uniform(0.05, 4.0))
        x = float(rng.uniform(-3, 3))
        lam = float(rng.uniform(0.0, 1.5))
        val = mgf_local_time(t, x, lam)
        bound_ok &= (1.0 - 1e-12 <= val
                     <= 2.0 * math.exp(lam ** 4 * t / 2.0) + 1.0 + 1e-12)
    report(8, worst < 1e-7 and bound_ok,
           f"local-time MGF: quadrature vs closed rel err {worst:.2e}; "
           f"bounds held on 1000 draws: {bound_ok}", time.time() - start, 30.0)


def test_criterion_09_sampler_fidelity():
    start = time.time()
    t, a = 1.0, 1.0
    law = JointLocalTimeLaw(t=t, a=a)
    rng = np.random.default_rng(20260809)
    y, v = law.sample(rng, size=1_000_000)

    p_hat = float(np.mean(v == 0.0))
    p_true = law.atom_mass
    atom_ok = abs(p_hat - p_true) < 0.003

    lam = 0.8
    w = np.exp(lam * lam * v)
    se = w.std(ddof=1) / math.sqrt(w.size)
    z_mgf = (w.mean() - mgf_local_time(t, a, lam)) / se
    mgf_ok = abs(z_mgf) <= 3.0

    cont = v > 0.0
    y_edges = np.concatenate(([-np.inf], np.linspace(-2.2, 2.2, 19), [np.inf]))
    v_edges = np.concatenate(([0.0], np.linspace(0.04, 2.4, 19), [np.inf]))
    obs, _, _ = np.histogram2d(y[cont], v[cont], bins=[y_edges, v_edges])
    p_cont = law.cell_probability(-np.inf, np.inf, 0.0, np.inf)
    expected = np.empty((20, 20))
    for i in range(20):
        for j in range(20):
            expected[i, j] = law.cell_probability(
                y_edges[i], y_edges[i + 1], v_edges[j], v_edges[j + 1])
    expected *= cont.sum() / p_cont
    big = expected > 5.0
    chi2 = float(((obs[big] - expected[big]) ** 2 / expected[big]).sum())
    rest_obs, rest_exp = obs[~big].sum(), expected[~big].sum()
    if rest_exp > 0:
        chi2 += (rest_obs - rest_exp) ** 2 / rest_exp
        dof = int(big.sum())        # pooled cell adds one, minus one for total
    else:
        dof = int(big.sum()) - 1
    p_value = float(stats.chi2.sf(chi2, dof))
    chi_ok = p_value > 0.01

    report(9, atom_ok and mgf_ok and chi_ok,
           f"sampler: |P(v=0) - {p_true:.4f}| = {abs(p_hat - p_true):.4f}; "
           f"MGF z = {z_mgf:+.2f}; chi2 p = {p_value:.3f} "
           f"(20x20 grid, 1e6 samples)", time.time() - start, 120.0)


def test_criterion_10_feynman_kac_estimator():
    start = time.time()
    mc = McConfig(n_paths=1_000_000, seed=1010, batch_size=100_000)
    u0 = LebesgueScaled(1.0)
    zs = []
    for dx in (0.0, 1.0):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=dx)
        est = fk_two_point(q, u0, 1.0, 1.0, mc)
        oracle = two_point_lebesgue(q, KernelParams(nu=1.0, lam=1.0))
        zs.append((est.value - oracle) / est.std_error)
    ok = all(abs(z) <= 3.0 for z in zs)
    report(10, ok,
           f"exact Feynman-Kac estimator, 1e6 paths: z(dx=0) = {zs[0]:+.2f}, "
           f"z(dx=1) = {zs[1]:+.2f}", time.time() - start, 120.0)


def test_criterion_11_spde_monte_carlo():
    start = time.time()
    grid = SpdeGrid(L=3.3, dx=0.02, dt=2e-4, t_final=0.3, boundary="neumann0")
    q = TwoPointQuery(t=0.3, x1=0.0, x2=0.0)
    est = spde_estimate_two_point(q, LebesgueScaled(1.0), RhoSpec.linear(1.0),
                                  1.0, grid,
                                  McConfig(n_paths=20_000, seed=1011,
                                           batch_size=250, workers=4))
    oracle = two_point_lebesgue(q, KernelParams(nu=1.0, lam=1.0))
    tol = max(3 * est.std_error, 0.05 * oracle)
    ok = abs(est.value - oracle) < tol and est.n_divergent == 0
    report(11, ok,
           f"direct SPDE Monte Carlo: est {est.value:.4f} +- "
           f"{est.std_error:.4f} vs closed {oracle:.4f} "
           f"(diff {est.value - oracle:+.4f}, allowance {tol:.4f})",
           time.time() - start, 600.0)


def test_criterion_12_deterministic_limit():
    start = time.time()
    grid = SpdeGrid(L=3.0, dx=0.01, dt=5e-5, t_final=0.25,
                    boundary="dirichlet0")
    field = spde_solve_path(grid, DiracAtoms(((0.0, 1.0),)), RhoSpec.zero(),
                            1.0, np.random.default_rng(0))
    err = float(np.max(np.abs(field - heat_kernel(0.25, grid.nodes, 1.0))))
    report(12, err < 5 * grid.dx,
           f"noise-free point-mass field vs heat kernel, max abs err "
           f"{err:.2e} (tol {5 * grid.dx:.2e})", time.time() - start, 10.0)


def test_criterion_13_moment_bound_sandwich():
    start = time.time()
    lam = 1.0
    # Exact sandwich at p = 2 for linear coupling, point-mass data.
    mu = DiracAtoms(((0.0, 1.0),))
    t, x, nu = 0.3, 0.0, 1.0
    upper = p_moment_upper_bound(t, x, mu,
                                 MomentBoundParams(p=2.0, lip_upper=lam), nu)
    lower = second_moment_lower_bound(t, x, mu, lam, nu)
    exact = second_moment(t, x, mu, KernelParams(nu=nu, lam=lam))
    rel_up = abs(upper - exact) / exact
    rel_lo = abs(lower - exact) / exact
    sandwich_ok = rel_up < 1e-10 and rel_lo < 1e-10

    # Clipped-linear coupling: Monte Carlo second moment below the bound.
    grid = SpdeGrid(L=3.4, dx=0.04, dt=8e-4, t_final=0.3, boundary="neumann0")
    q = TwoPointQuery(t=0.3, x1=0.0, x2=0.0)
    rho = RhoSpec.clipped(lam, 10.0)
    est = spde_estimate_two_point(q, LebesgueScaled(1.0), rho, nu, grid,
                                  McConfig(n_paths=4000, seed=1013,
                                           batch_size=250, workers=4))
    bound = p_moment_upper_bound(q.t, 0.0, LebesgueScaled(1.0),
                                 MomentBoundParams(p=2.0, lip_upper=rho.lip_upper),
                                 nu)
    mc_ok = est.value <= bound + 3 * est.std_error
    report(13, sandwich_ok and mc_ok,
           f"p=2 sandwich rel errs ({rel_up:.1e}, {rel_lo:.1e}); clipped-rho "
           f"MC {est.value:.4f} vs bound {bound:.4f} + 3se",
           time.time() - start, 600.0)


def test_criterion_14a_first_passage_scaling():
    start = time.time()
    rng = np.random.default_rng(1014)
    worst = 0.0
    for _ in range(200):
        t = float(rng.uniform(0.2, 3.0))
        a = float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(0.2, 2.0))
        c = float(rng.uniform(0.5, 2.0))
        base, rhs = first_passage_convolution(t, a, b)
        worst = max(worst, abs(base - rhs) / rhs)
        scaled, _ = first_passage_convolution(c * c * t, c * a, c * b)
        worst = max(worst, abs(scaled - base / (c * c)) / (base / (c * c)))
    report(14, worst < 1e-7,
           f"first-passage convolution closed form + scaling law, 200 draws, "
           f"max rel err {worst:.2e}", time.time() - start, 60.0)


def test_criterion_14b_gaussian_moment_inequality_as_stated():
    """The stated inequality, checked where it is true, refuted where not.

    Both sides are Gaussian in v = (x, y_1..y_p), so log(lhs / rhs) = v^T Q v
    with no constant term: the bound is tight at x = ys = 0, and it holds for
    every x, ys iff Q is negative semidefinite, i.e. iff p s <= (p - 1) t / 2.
    Outside that region lhs / rhs is unbounded in v; for p = 1 that is every
    s > 0, and p = 1, s = t = 1, x = -1, y = 2 gives exactly sqrt(e).
    (a) asserts the bound inside the region, on its boundary and at the
    tight point; (b) computes the left side in closed form as well and
    asserts that the seed draws violate the bound, only outside the region.
    """
    start = time.time()

    def closed_lhs(s, t, x, ys):
        # ∫ exp(-a z^2 / 2 + b z - c / 2) dz / sqrt(2π s (2π t)^p)
        p = len(ys)
        a = 1.0 / s + p / t
        b = -x / s + sum(ys) / t
        c = x * x / s + sum(y * y for y in ys) / t
        return (math.exp(b * b / (2.0 * a) - c / 2.0)
                / math.sqrt(a * s * (2.0 * math.pi * t) ** p))

    def in_region(s, t, x, ys):
        return len(ys) * s <= (len(ys) - 1) * t / 2.0

    rng = np.random.default_rng(1015)
    draws = []
    for _ in range(200):
        p = int(rng.integers(1, 5))
        s = float(rng.uniform(0.1, 2.0))
        t = float(rng.uniform(0.1, 2.0))
        x = float(rng.uniform(-2, 2))
        ys = [float(v) for v in rng.uniform(-2, 2, size=p)]
        draws.append((s, t, x, ys))

    # (b) route agreement, the witness, and where the violations lie.
    route_err = 0.0
    violations = []
    for s, t, x, ys in draws:
        lhs, rhs = gaussian_product_moment_bound(s, t, x, ys)
        exact = closed_lhs(s, t, x, ys)
        route_err = max(route_err, abs(lhs - exact) / exact)
        if lhs > rhs * (1 + 1e-9):
            violations.append((s, t, x, ys))
    misplaced = [d for d in violations if in_region(*d)]
    lhs, rhs = gaussian_product_moment_bound(1.0, 1.0, -1.0, [2.0])
    witness_err = abs(lhs / rhs / math.sqrt(math.e) - 1.0)

    # (a) the in-region seed draws plus draws with s = f (p - 1) t / (2 p),
    # f in (0, 1]: f = 1 on every even k, the tight point on every fifth.
    region = [d for d in draws if in_region(*d)]
    for k in range(100):
        p = int(rng.integers(2, 5))
        t = float(rng.uniform(0.1, 2.0))
        f = 1.0 if k % 2 == 0 else 1.0 - float(rng.uniform(0.0, 1.0))
        if k % 5 == 0:
            x, ys = 0.0, [0.0] * p
        else:
            x = float(rng.uniform(-2, 2))
            ys = [float(v) for v in rng.uniform(-2, 2, size=p)]
        region.append((f * (p - 1) * t / (2.0 * p), t, x, ys))
    worst_in = -math.inf
    tight_err = 0.0
    for s, t, x, ys in region:
        lhs, rhs = gaussian_product_moment_bound(s, t, x, ys)
        worst_in = max(worst_in, lhs / rhs - 1.0)
        if x == 0.0 and not any(ys):
            tight_err = max(tight_err, abs(lhs / rhs - 1.0))

    ok = (worst_in <= 1e-9 and tight_err <= 1e-9 and route_err <= 1e-9
          and witness_err <= 1e-9 and len(violations) >= 1 and not misplaced)
    report(14, ok,
           f"stated product-moment inequality: (a) holds on {len(region)} "
           f"draws with p s <= (p-1) t/2 (worst lhs/rhs-1 {worst_in:.2e}, "
           f"tight-point err {tight_err:.2e}); (b) quadrature vs closed lhs "
           f"max rel err {route_err:.2e}, witness lhs/rhs vs sqrt(e) rel err "
           f"{witness_err:.2e}, {len(violations)} of 200 seed draws violate "
           f"it, {len(misplaced)} of them inside the region",
           time.time() - start, 60.0)


def test_criterion_14c_gaussian_moment_inequality_repaired():
    start = time.time()
    rng = np.random.default_rng(1015)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 5))
        s = float(rng.uniform(0.1, 2.0))
        t = float(rng.uniform(0.1, 2.0))
        x = float(rng.uniform(-2, 2))
        ys = rng.uniform(-2, 2, size=p)
        lhs, _ = gaussian_product_moment_bound(s, t, x, ys)
        rhs = gaussian_product_moment_bound_repaired(s, t, x, ys)
        worst = max(worst, lhs - rhs * (1 + 1e-9))
    report(14, worst <= 0.0,
           f"repaired product-moment bound holds on 200 draws "
           f"(worst excess {worst:.2e})", time.time() - start, 60.0)


def test_criterion_15_reproducibility(tmp_path):
    start = time.time()
    # Feynman-Kac criterion config, rerun from its manifest across worker
    # counts; plus a reduced-path run of the SPDE criterion config.
    fk_cfg = tmp_path / "fk.json"
    fk_cfg.write_text(json.dumps({
        "t": 1.0, "x1": 0.0, "x2": 1.0, "nu": 1.0, "lambda": 1.0,
        "u0": {"kind": "constant", "value": 1.0},
        "mc": {"n_paths": 1_000_000, "seed": 1010, "batch_size": 100_000}}))
    out1 = tmp_path / "fk1.json"
    out4 = tmp_path / "fk4.json"
    assert cli_main(["simulate", "--engine", "fk", "--config", str(fk_cfg),
                     "--workers", "1", "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--from-manifest", str(out1),
                     "--workers", "4", "--out", str(out4)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out4.read_text())
    fk_ok = (a["value"] == b["value"] and a["std_error"] == b["std_error"]
             and a["n"] == b["n"])

    spde_cfg = tmp_path / "spde.json"
    spde_cfg.write_text(json.dumps({
        "t": 0.3, "x1": 0.0, "x2": 0.0, "nu": 1.0,
        "measure": {"type": "lebesgue", "scale": 1.0},
        "rho": {"kind": "linear", "lam": 1.0},
        "grid": {"L": 3.3, "dx": 0.02, "dt": 2e-4, "boundary": "neumann0"},
        "mc": {"n_paths": 1000, "seed": 1011, "batch_size": 125}}))
    s1 = tmp_path / "s1.json"
    s4 = tmp_path / "s4.json"
    assert cli_main(["simulate", "--engine", "spde", "--config", str(spde_cfg),
                     "--workers", "1", "--out", str(s1)]) == 0
    assert cli_main(["simulate", "--from-manifest", str(s1),
                     "--workers", "4", "--out", str(s4)]) == 0
    c = json.loads(s1.read_text())
    d = json.loads(s4.read_text())
    spde_ok = (c["value"] == d["value"] and c["std_error"] == d["std_error"])

    report(15, fk_ok and spde_ok,
           "manifest reruns bit-identical across 1 and 4 workers "
           f"(fk: {fk_ok}, spde: {spde_ok})", time.time() - start, 1200.0)
