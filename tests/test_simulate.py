import math
import sys
import threading

import numpy as np
import pytest

from she_moments import simulate
from she_moments.errors import ConfigError, DivergenceError, DomainError
from she_moments.gaussian import heat_kernel
from she_moments.kernels import KernelParams, TwoPointQuery, two_point_lebesgue
from she_moments.measures import (DensityMeasure, DiracAtoms,
                                  GrowthCertificate, LebesgueScaled,
                                  gaussian_density, two_point)
from she_moments.simulate import (Estimate, McConfig, RhoSpec, SpdeGrid,
                                  fk_two_point, fk_two_point_occupation,
                                  spde_estimate_two_point,
                                  spde_lattice_second_moment, spde_solve_path)
from she_moments.rng import DOMAIN_SPDE, path_key

P11 = KernelParams(nu=1.0, lam=1.0)


class TestConfigs:
    def test_cfl_checked(self):
        grid = SpdeGrid(L=2.0, dx=0.1, dt=0.02, t_final=0.1)
        with pytest.raises(ConfigError):
            grid.check_cfl(1.0)
        grid.check_cfl(0.4)

    def test_grid_geometry(self):
        grid = SpdeGrid(L=1.0, dx=0.25, dt=0.01, t_final=0.1)
        assert grid.n_nodes == 9
        assert grid.nodes[0] == -1.0 and grid.nodes[-1] == 1.0
        assert grid.index_of(0.0) == 4
        with pytest.raises(ConfigError):
            grid.index_of(5.0)

    def test_bad_boundary(self):
        with pytest.raises(ConfigError):
            SpdeGrid(L=1.0, dx=0.1, dt=0.001, t_final=0.1, boundary="periodic")

    def test_mc_validation(self):
        with pytest.raises(ConfigError):
            McConfig(n_paths=0)
        with pytest.raises(ConfigError):
            McConfig(n_paths=10, workers=0)

    def test_rho_presets(self):
        lin = RhoSpec.linear(2.0)
        assert np.array_equal(lin(np.array([1.0, -3.0])), [2.0, -6.0])
        clip = RhoSpec.clipped(2.0, 1.5)
        assert np.array_equal(clip(np.array([1.0, -3.0])), [2.0, -3.0])
        assert clip.lip_upper == 2.0
        zero = RhoSpec.zero()
        assert zero.is_zero

    def test_zero_preset_is_linear_at_zero(self):
        zero = RhoSpec("zero", lam=3.0)
        u = np.array([1.5, -2.0, 0.0])
        assert zero.lam == 0.0 and zero.lip_upper == 0.0
        assert np.array_equal(zero(u), np.zeros(3))
        out = np.full(3, 7.0)
        assert zero(u, out=out) is out and np.array_equal(out, np.zeros(3))

    @pytest.mark.parametrize("u0", [
        DiracAtoms(((0.0, 1.0),)),
        DensityMeasure(lambda x: np.asarray(x, dtype=float),
                       GrowthCertificate(amplitude=1.0, degree=1.0)),
    ], ids=["atoms", "degree_1"])
    def test_fk_refuses_unbounded_u0(self, u0):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.5)
        with pytest.raises(ConfigError, match="bounded"):
            fk_two_point(q, u0, 1.0, 1.0, McConfig(n_paths=10, seed=0))
        with pytest.raises(ConfigError, match="bounded"):
            fk_two_point_occupation(q, u0, 1.0, 1.0,
                                    McConfig(n_paths=10, seed=0),
                                    eps=1e-2, n_steps=10)


class TestSpdeSolver:
    def test_deterministic_heat_limit(self):
        grid = SpdeGrid(L=2.2, dx=0.02, dt=2e-4, t_final=0.1,
                        boundary="dirichlet0")
        field = spde_solve_path(grid, DiracAtoms(((0.0, 1.0),)),
                                RhoSpec.zero(), 1.0, np.random.default_rng(0))
        exact = heat_kernel(0.1, grid.nodes, 1.0)
        assert np.max(np.abs(field - exact)) < 5 * grid.dx

    def test_constants_preserved_exactly(self):
        grid = SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=0.05,
                        boundary="neumann0")
        field = spde_solve_path(grid, LebesgueScaled(1.0), RhoSpec.zero(),
                                1.0, np.random.default_rng(0))
        assert np.all(field == 1.0)

    def test_density_initial_data(self):
        grid = SpdeGrid(L=3.0, dx=0.05, dt=1e-3, t_final=0.05,
                        boundary="neumann0")
        mu = gaussian_density(0.0, 0.25)
        field = spde_solve_path(grid, mu, RhoSpec.zero(), 1.0,
                                np.random.default_rng(0))
        # after a short diffusion time the field stays near the smoothed bump
        assert field[grid.index_of(0.0)] == pytest.approx(
            heat_kernel(0.05 + 0.25, 0.0, 1.0), rel=0.05)

    def test_cfl_violation_raises(self):
        grid = SpdeGrid(L=1.0, dx=0.1, dt=0.02, t_final=0.1)
        with pytest.raises(ConfigError):
            spde_solve_path(grid, LebesgueScaled(1.0), RhoSpec.zero(), 1.0,
                            np.random.default_rng(0))

    def test_divergence_reported_with_step(self):
        grid = SpdeGrid(L=1.0, dx=0.1, dt=0.005, t_final=2.0,
                        boundary="neumann0")
        with pytest.raises(DivergenceError) as info:
            spde_solve_path(grid, LebesgueScaled(1.0), RhoSpec.linear(3000.0),
                            1.0, np.random.default_rng(1))
        assert "step" in str(info.value)


class TestSpdeEstimator:
    def _setup(self):
        grid = SpdeGrid(L=3.4, dx=0.05, dt=1.25e-3, t_final=0.3,
                        boundary="neumann0")
        q = TwoPointQuery(t=0.3, x1=0.0, x2=0.0)
        return grid, q

    def test_matches_closed_form(self):
        grid, q = self._setup()
        est = spde_estimate_two_point(q, LebesgueScaled(1.0),
                                      RhoSpec.linear(1.0), 1.0, grid,
                                      McConfig(n_paths=1500, seed=5,
                                               batch_size=250))
        oracle = two_point_lebesgue(q, P11)
        tol = 3 * est.std_error + 0.05 * oracle
        assert abs(est.value - oracle) < tol

    def test_worker_count_does_not_change_result(self):
        # 150 paths in batches of 7 and 64 leave short last batches (3 and
        # 22 paths).
        grid, q = self._setup()
        estimates = {spde_estimate_two_point(
            q, LebesgueScaled(1.0), RhoSpec.linear(1.0), 1.0, grid,
            McConfig(n_paths=150, seed=9, batch_size=batch, workers=workers))
            for workers in (1, 2, 4) for batch in (7, 64)}
        assert len(estimates) == 1
        assert next(iter(estimates)).std_error > 0

    def test_zero_coupling_zero_variance(self):
        grid, q = self._setup()
        est = spde_estimate_two_point(q, LebesgueScaled(1.0), RhoSpec.zero(),
                                      1.0, grid,
                                      McConfig(n_paths=16, seed=0))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_time_mismatch_rejected(self):
        grid, _ = self._setup()
        q_bad = TwoPointQuery(t=0.2, x1=0.0, x2=0.0)
        with pytest.raises(ConfigError):
            spde_estimate_two_point(q_bad, LebesgueScaled(1.0),
                                    RhoSpec.zero(), 1.0, grid,
                                    McConfig(n_paths=4, seed=0))

    def test_observation_point_margin_enforced(self):
        grid, _ = self._setup()
        q_edge = TwoPointQuery(t=0.3, x1=3.0, x2=0.0)
        with pytest.raises(ConfigError):
            spde_estimate_two_point(q_edge, LebesgueScaled(1.0),
                                    RhoSpec.zero(), 1.0, grid,
                                    McConfig(n_paths=4, seed=0))

    def test_domain_too_small_rejected(self):
        grid = SpdeGrid(L=1.5, dx=0.05, dt=1.25e-3, t_final=0.3)
        q = TwoPointQuery(t=0.3, x1=0.0, x2=0.0)
        with pytest.raises(ConfigError):
            spde_estimate_two_point(q, LebesgueScaled(1.0), RhoSpec.zero(),
                                    1.0, grid, McConfig(n_paths=4, seed=0))

    def test_divergent_estimate_rejected(self):
        grid = SpdeGrid(L=3.4, dx=0.1, dt=5e-3, t_final=0.3,
                        boundary="neumann0")
        q = TwoPointQuery(t=0.3, x1=0.0, x2=0.0)
        with pytest.raises(DivergenceError):
            spde_estimate_two_point(q, LebesgueScaled(1.0),
                                    RhoSpec.linear(5000.0), 1.0, grid,
                                    McConfig(n_paths=32, seed=0))


class TestFkEngine:
    def test_zero_coupling_constant_data(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.5)
        est = fk_two_point(q, LebesgueScaled(1.0), 1.0, 0.0,
                           McConfig(n_paths=500, seed=1))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_matches_closed_form(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=1.0)
        est = fk_two_point(q, LebesgueScaled(1.0), 1.0, 1.0,
                           McConfig(n_paths=200_000, seed=2))
        oracle = two_point_lebesgue(q, P11)
        assert abs(est.value - oracle) < 4 * est.std_error

    def test_scaled_constant_data(self):
        q = TwoPointQuery(t=0.5, x1=0.0, x2=0.0)
        est = fk_two_point(q, LebesgueScaled(2.0), 1.0, 1.0,
                           McConfig(n_paths=100_000, seed=3))
        oracle = 4.0 * two_point_lebesgue(q, P11)
        assert abs(est.value - oracle) < 4 * est.std_error

    def test_general_diffusion_coefficient(self):
        nu = 1.7
        q = TwoPointQuery(t=0.8, x1=0.0, x2=0.6)
        est = fk_two_point(q, LebesgueScaled(1.0), nu, 1.0,
                           McConfig(n_paths=200_000, seed=4))
        oracle = two_point_lebesgue(q, KernelParams(nu=nu, lam=1.0))
        assert abs(est.value - oracle) < 4 * est.std_error

    @pytest.mark.parametrize("mean,var,q,nu,lam,seed", [
        (0.3, 0.5, TwoPointQuery(t=0.5, x1=0.0, x2=0.4), 1.0, 1.0, 21),
        (-0.2, 1.0, TwoPointQuery(t=1.0, x1=0.1, x2=0.1), 1.5, 0.8, 22),
        (50.3, 0.8, TwoPointQuery(t=0.8, x1=49.8, x2=50.6), 1.0, 1.0, 23),
    ], ids=["near", "diagonal", "far_off"])
    def test_gaussian_data_match_split_route(self, mean, var, q, nu, lam,
                                             seed):
        # Density data need no quadrature here, so this checks the split
        # route, far-off Gaussians included, against an unbiased estimate.
        mu = gaussian_density(mean, var)
        est = fk_two_point(q, mu, nu, lam, McConfig(n_paths=200_000,
                                                    seed=seed))
        want = two_point(q, mu, KernelParams(nu=nu, lam=lam))
        assert abs(est.value - want) <= 4 * est.std_error

    def test_reproducible_across_workers_and_batches(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        u0 = LebesgueScaled(1.0)
        base = fk_two_point(q, u0, 1.0, 1.0,
                            McConfig(n_paths=20_000, seed=5, batch_size=1000,
                                     workers=1))
        other = fk_two_point(q, u0, 1.0, 1.0,
                             McConfig(n_paths=20_000, seed=5, batch_size=333,
                                      workers=4))
        assert base.value == other.value
        assert base.std_error == other.std_error

    def test_identical_for_any_worker_count_and_batch_split(self):
        # 20,000 paths in batches of 333 and 7,000 leave short last batches
        # (20 and 6,000 paths).
        q = TwoPointQuery(t=0.7, x1=-0.2, x2=0.5)
        estimates = {fk_two_point(q, LebesgueScaled(1.0), 1.0, 1.0,
                                  McConfig(n_paths=20_000, seed=8,
                                           batch_size=batch, workers=workers))
                     for workers in (1, 2, 4) for batch in (333, 7_000, 20_000)}
        assert len(estimates) == 1

    def test_estimate_fields(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        est = fk_two_point(q, LebesgueScaled(1.0), 1.0, 1.0,
                           McConfig(n_paths=1000, seed=6))
        assert isinstance(est, Estimate)
        assert est.n == 1000
        assert est.n_divergent == 0


class TestOccupationEngine:
    def test_zero_coupling_exact(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        est = fk_two_point_occupation(q, LebesgueScaled(1.0),
                                      1.0, 0.0, McConfig(n_paths=200, seed=0),
                                      eps=1e-2, n_steps=100)
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_biased_estimate_near_closed_form(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        est = fk_two_point_occupation(q, LebesgueScaled(1.0),
                                      1.0, 1.0,
                                      McConfig(n_paths=3000, seed=1,
                                               batch_size=500),
                                      eps=1e-3, n_steps=10_000)
        oracle = two_point_lebesgue(q, P11)
        assert abs(est.value - oracle) / oracle < 0.08

    def test_identical_for_any_worker_count_and_batch_split(self):
        q = TwoPointQuery(t=0.7, x1=-0.2, x2=0.5)
        estimates = {fk_two_point_occupation(
            q, LebesgueScaled(1.0), 1.0, 1.0,
            McConfig(n_paths=300, seed=4, batch_size=batch, workers=workers),
            eps=1e-2, n_steps=100)
            for workers in (1, 2, 4) for batch in (7, 64)}
        assert len(estimates) == 1
        assert next(iter(estimates)).std_error > 0

    def test_parameter_validation(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        u0 = LebesgueScaled(1.0)
        with pytest.raises(ConfigError):
            fk_two_point_occupation(q, u0, 1.0, 1.0,
                                    McConfig(n_paths=10, seed=0),
                                    eps=0.0, n_steps=100)
        with pytest.raises(ConfigError):
            fk_two_point_occupation(q, u0, 1.0, 1.0,
                                    McConfig(n_paths=10, seed=0),
                                    eps=1e-3, n_steps=0)

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
    def test_non_positive_nu_is_a_domain_error(self, nu):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        with pytest.raises(DomainError, match="nu > 0"):
            fk_two_point_occupation(q, LebesgueScaled(1.0), nu,
                                    1.0, McConfig(n_paths=10, seed=0),
                                    eps=1e-3, n_steps=10)

    def test_joint_refinement_reduces_bias_on_average(self):
        # Trend over seeds, not per-seed: shrinking the mollification width
        # and the time step together drives the mean absolute error down.
        # (At *fixed* eps the estimator converges to the eps-mollified
        # value, so the residual mollification bias would remain.)
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        u0 = LebesgueScaled(1.0)
        oracle = two_point_lebesgue(q, P11)

        def mean_abs_err(eps, n_steps):
            errs = []
            for seed in (11, 12, 13):
                est = fk_two_point_occupation(
                    q, u0, 1.0, 1.0,
                    McConfig(n_paths=1500, seed=seed, batch_size=500),
                    eps=eps, n_steps=n_steps)
                errs.append(abs(est.value - oracle))
            return float(np.mean(errs))

        coarse = mean_abs_err(0.25, 100)
        fine = mean_abs_err(2.5e-3, 10_000)
        assert fine < coarse


class TestIntermittencyDirection:
    def test_second_moment_grows_with_coupling(self):
        # Flat data: the estimated second moment at lam = 1 must exceed the
        # one at lam = 0.5 at equal path counts, consistent with the
        # exp(lam^4 t / 4 nu) growth of the closed form.
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        u0 = LebesgueScaled(1.0)
        mc = McConfig(n_paths=100_000, seed=77)
        strong = fk_two_point(q, u0, 1.0, 1.0, mc)
        weak = fk_two_point(q, u0, 1.0, 0.5, mc)
        gap_se = math.hypot(strong.std_error, weak.std_error)
        assert strong.value - weak.value > 3 * gap_se


class TestTwinOracles:
    def test_indicator_data_spde_vs_fk(self):
        # Same moment estimated by the two independent stochastic routes.
        q = TwoPointQuery(t=0.5, x1=0.0, x2=0.0)
        mu = DensityMeasure(
            lambda x: ((np.asarray(x) >= -1.0) & (np.asarray(x) <= 1.0)).astype(float),
            GrowthCertificate(amplitude=1.0), nonnegative=True,
            support=(-1.0, 1.0))
        fk = fk_two_point(q, mu, 1.0, 1.0, McConfig(n_paths=400_000, seed=7))
        grid = SpdeGrid(L=5.3, dx=0.05, dt=1.25e-3, t_final=0.5,
                        boundary="neumann0")
        sp = spde_estimate_two_point(q, mu, RhoSpec.linear(1.0), 1.0, grid,
                                     McConfig(n_paths=1500, seed=8,
                                              batch_size=250, workers=4))
        sigma = math.hypot(fk.std_error, sp.std_error)
        assert abs(fk.value - sp.value) < 3 * sigma + 0.05 * fk.value


class TestLatticeSecondMoment:
    """The exact second moment of the explicit scheme: a fifth route."""

    @pytest.mark.parametrize("boundary", ["neumann0", "dirichlet0"])
    def test_zero_coupling_is_outer_product_of_heat_field(self, boundary):
        grid = SpdeGrid(L=1.5, dx=0.05, dt=1e-3, t_final=0.1,
                        boundary=boundary)
        mu = gaussian_density(0.2, 0.05)
        field = spde_solve_path(grid, mu, RhoSpec.zero(), 1.0,
                                np.random.default_rng(0))
        m = spde_lattice_second_moment(grid, mu, 0.0, 1.0)
        assert np.allclose(m, np.outer(field, field), rtol=1e-12, atol=1e-15)

    def test_dirichlet_boundary_rows_vanish(self):
        grid = SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=0.2,
                        boundary="dirichlet0")
        m = spde_lattice_second_moment(grid, LebesgueScaled(1.0), 1.0, 1.0)
        for edge in (0, -1):
            assert np.all(m[edge, :] == 0.0) and np.all(m[:, edge] == 0.0)
        assert np.all(m[1:-1, 1:-1] > 0.0)

    def test_cfl_checked(self):
        grid = SpdeGrid(L=1.0, dx=0.1, dt=0.02, t_final=0.1)
        with pytest.raises(ConfigError):
            spde_lattice_second_moment(grid, LebesgueScaled(1.0), 1.0, 1.0)

    def test_converges_to_closed_form_at_order_dx(self):
        q = TwoPointQuery(t=0.3, x1=0.0, x2=0.0)
        closed = two_point_lebesgue(q, P11)
        errs = []
        for dx in (0.08, 0.04, 0.02):
            grid = SpdeGrid(L=3.3, dx=dx, dt=dx * dx / 2, t_final=0.3)
            m = spde_lattice_second_moment(grid, LebesgueScaled(1.0), 1.0,
                                           1.0)
            i = grid.index_of(0.0)
            errs.append(m[i, i] - closed)
        # The scheme overestimates, and the error halves with dx.
        assert all(e > 0 for e in errs)
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.8 < coarse / fine < 2.2
        assert errs[-1] < 0.01 * closed

    @pytest.mark.parametrize("mu,x2,boundary", [
        (LebesgueScaled(1.0), 0.0, "neumann0"),
        (DiracAtoms(((0.0, 1.0),)), 0.3, "neumann0"),
        (LebesgueScaled(1.0), 0.0, "dirichlet0"),
        (DiracAtoms(((0.0, 1.0),)), 0.3, "dirichlet0"),
    ], ids=["lebesgue", "atom", "lebesgue-dirichlet0", "atom-dirichlet0"])
    def test_monte_carlo_matches_lattice_mean(self, mu, x2, boundary):
        # On its own grid the Monte Carlo estimator has no bias against the
        # lattice moment, so only its statistical error remains.
        grid = SpdeGrid(L=3.3, dx=0.1, dt=0.005, t_final=0.3,
                        boundary=boundary)
        q = TwoPointQuery(t=0.3, x1=0.0, x2=x2)
        m = spde_lattice_second_moment(grid, mu, 1.0, 1.0)
        exact = m[grid.index_of(q.x1), grid.index_of(q.x2)]
        est = spde_estimate_two_point(q, mu, RhoSpec.linear(1.0), 1.0, grid,
                                      McConfig(n_paths=4000, seed=3,
                                               batch_size=1000))
        assert est.n_divergent == 0
        assert abs(est.value - exact) <= 5.0 * est.std_error

    @pytest.mark.parametrize("boundary", ["neumann0", "dirichlet0"])
    def test_step_is_the_tridiagonal_heat_matrix(self, boundary):
        # The heat step applied to the rows of the identity is B^T: 1 - 2r
        # on the diagonal, r beside it, and 2r from a Neumann end's inner
        # neighbour (its ghost node); Dirichlet ends stay 0.
        n, r = 9, 0.3
        b = (np.diag(np.full(n, 1.0 - 2.0 * r)) + np.diag(np.full(n - 1, r), 1)
             + np.diag(np.full(n - 1, r), -1))
        if boundary == "neumann0":
            b[0, 1] = b[-1, -2] = 2.0 * r
        else:
            b[0] = b[-1] = 0.0
        u = np.eye(n)
        simulate._spde_step(u, 1.0 - 2.0 * r, r, boundary == "dirichlet0",
                            np.empty_like(u))
        assert np.allclose(u.T, b, rtol=0.0, atol=1e-15)


def _bits(grid: SpdeGrid, seed: int, lo: int, hi: int) -> np.ndarray:
    """The noise bits of paths [lo, hi) as (steps, paths, nodes)."""
    gens = [simulate.path_generator(seed, DOMAIN_SPDE, i)
            for i in range(lo, hi)]
    return np.stack(list(simulate._noise_bits(gens, grid.n_time_steps,
                                              grid.n_nodes)))


class TestTwoPointNoise:
    """The SPDE engine's noise: +-sqrt(dt/dx) with probability 1/2 each, one
    bit of the path's SFC64 stream per node and step."""

    GRID = SpdeGrid(L=1.5, dx=0.04, dt=1e-3, t_final=0.1)

    def test_every_entry_is_plus_or_minus_the_scale(self):
        # r = nu dt / 2 dx^2 = 1/4 on a field of alternating signs makes
        # every node's heat step exactly 0, so one step of clipped rho
        # (lam = 1, clip above 1) leaves rho(u) xi = u xi: the noise itself.
        grid = SpdeGrid(L=2.0, dx=2.0 ** -4, dt=2.0 ** -9, t_final=2.0 ** -9)
        u0 = (-1.0) ** np.arange(grid.n_nodes)
        fields = simulate._run_spde_batch(grid, u0, RhoSpec.clipped(1.0, 2.0),
                                          1.0, seed=5, lo=0, hi=40)
        noise = fields * u0
        scale = math.sqrt(grid.dt) / math.sqrt(grid.dx)
        assert noise.shape == (40, grid.n_nodes)
        assert np.array_equal(noise, np.where(_bits(grid, 5, 0, 40)[0] == 1,
                                              scale, -scale))

    def test_signs_are_a_known_answer(self, monkeypatch):
        # 7-step chunks (15 of them, the last one partial) of 76 nodes, two
        # words a step: bit j of word w, least significant first, drives
        # node 64 w + j; bits 76-127 are dropped.
        seed, lo, hi = 1011, 17, 21
        grid = self.GRID
        n_words = 2
        assert 64 < grid.n_nodes <= 64 * n_words
        monkeypatch.setattr(simulate, "_NOISE_BUFFER_BYTES",
                            7 * 8 * (hi - lo) * n_words)
        assert grid.n_time_steps % 7 != 0
        bits = _bits(grid, seed, lo, hi)
        assert bits.shape == (grid.n_time_steps, hi - lo, grid.n_nodes)
        for p, i in enumerate(range(lo, hi)):
            sfc = np.random.SFC64(np.random.SeedSequence(
                [int(w) for w in path_key(seed, DOMAIN_SPDE, i)]))
            words = sfc.random_raw(grid.n_time_steps * n_words)
            want = [[(int(words[n_words * k + node // 64]) >> (node % 64)) & 1
                     for node in range(grid.n_nodes)]
                    for k in range(grid.n_time_steps)]
            assert np.array_equal(bits[:, p], want)

    def test_sign_share_and_lag_one_correlation(self):
        # 4 paths x 1001 nodes x 250 steps = 1,001,000 signs; each path's
        # signs in stream order, so consecutive pairs include neighbours in
        # one word, across words and across steps.  Share of + and the
        # correlation of consecutive signs, each within 5 sigma of 1/2 and 0.
        grid = SpdeGrid(L=5.0, dx=0.01, dt=1e-4, t_final=0.025)
        bits = _bits(grid, 2, 0, 4).transpose(1, 0, 2).reshape(4, -1)
        signs = 2.0 * bits - 1.0
        n = signs.size
        assert n >= 10 ** 6
        assert abs(np.mean(signs > 0) - 0.5) < 5.0 * 0.5 / math.sqrt(n)
        lag = (signs[:, :-1] * signs[:, 1:]).ravel()
        assert abs(lag.mean()) < 5.0 / math.sqrt(lag.size)

    def test_zero_rho_draws_no_words(self):
        # After a zero-rho evolve each stream still starts at its first word.
        gens = [simulate.path_generator(3, DOMAIN_SPDE, i) for i in range(2)]
        u = np.ones((2, self.GRID.n_nodes))
        simulate._evolve(self.GRID, u, RhoSpec.zero(), 1.0, gens)
        for i, g in enumerate(gens):
            fresh = simulate.path_generator(3, DOMAIN_SPDE, i)
            assert (g.bit_generator.random_raw()
                    == fresh.bit_generator.random_raw())

    @pytest.mark.parametrize("boundary", ["neumann0", "dirichlet0"])
    def test_clipped_rho_beyond_reach_gives_the_linear_fields(self, boundary):
        # clip = 1e300 never bites, so clipped rho is linear rho computed
        # another way (heat step plus rho(u) xi against xi folded into the
        # node weight).  Equal to rounding only if both read the same bits
        # in the same order.
        grid = SpdeGrid(L=1.0, dx=0.05, dt=1e-3, t_final=0.5,
                        boundary=boundary)
        u0 = simulate._initial_field(grid, gaussian_density(0.1, 0.2, 2.0))
        linear = simulate._run_spde_batch(grid, u0, RhoSpec.linear(1.3), 1.0,
                                          seed=29, lo=0, hi=6)
        clipped = simulate._run_spde_batch(grid, u0,
                                           RhoSpec.clipped(1.3, 1e300), 1.0,
                                           seed=29, lo=0, hi=6)
        assert not np.array_equal(clipped, linear)
        assert np.max(np.abs(clipped - linear)) <= 1e-12 * np.max(
            np.abs(linear))


def _numpy_estimate(values: np.ndarray) -> tuple[float, float, int]:
    """Mean and std(ddof=1) / sqrt(n) of the finite entries, by numpy."""
    good = values[np.isfinite(values)]
    n = good.size
    std_error = float(np.std(good, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(good)), std_error, n


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestReduction:
    """``_estimate_from_values`` reduces in place by numpy's own operations,
    so its floats equal ``np.mean`` and ``np.std(ddof=1) / sqrt(n)``."""

    @staticmethod
    def _check(values: np.ndarray) -> Estimate:
        with np.errstate(over="ignore", invalid="ignore"):
            value, std_error, n = _numpy_estimate(values)
            est = simulate._estimate_from_values(values.copy(), values.size)
        assert _same(est.value, value) and _same(est.std_error, std_error)
        assert (est.n, est.n_divergent) == (n, values.size - n)
        return est

    def test_random_arrays(self):
        rng = np.random.default_rng(20261022)
        for size in (2, 3, 7, 8, 9, 127, 128, 129, 1000, 4097, 100_003):
            self._check(rng.standard_normal(size) * 10.0 ** rng.integers(-5, 6))
            self._check(np.exp(3.0 * rng.standard_normal(size)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fewer_than_the_divergent_limit_are_dropped(self, bad):
        rng = np.random.default_rng(7)
        values = rng.exponential(size=20_000)
        values[rng.choice(values.size, 20, replace=False)] = bad
        est = self._check(values)
        assert (est.n, est.n_divergent) == (19_980, 20)

    @pytest.mark.parametrize("values", [
        [1e308, 1e308, 2.0],
        [1e308, 1e308, -1e308, -1e308],
        # Pairwise partial sums of +inf and -inf: the sum is nan.
        ([1.7e308] * 4 + [-1.7e308] * 4) * 2,
        np.full(1000, 1e306),
    ], ids=["over", "over_then_back", "pairwise_nan", "many"])
    def test_finite_entries_whose_sum_overflows(self, values):
        values = np.array(values, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not math.isfinite(np.add.reduce(values))
        est = self._check(values)
        assert est.n_divergent == 0

    def test_one_path(self):
        assert self._check(np.array([2.5])) == Estimate(2.5, 0.0, 1, 0)

    @pytest.mark.parametrize("n_bad", [2, 7])
    def test_beyond_the_divergent_limit_raises_with_counts(self, n_bad):
        values = np.ones(1000)
        values[:n_bad] = math.inf
        with pytest.raises(DivergenceError) as info:
            simulate._estimate_from_values(values, values.size)
        assert (info.value.n_divergent, info.value.n_total) == (n_bad, 1000)

    def test_one_non_finite_path_alone_raises(self):
        with pytest.raises(DivergenceError) as info:
            simulate._estimate_from_values(np.array([math.nan]), 1)
        assert (info.value.n_divergent, info.value.n_total) == (1, 1)


def test_workers_fill_their_own_slices_under_contention():
    # More workers than cores and a short switch interval, so the workers'
    # copies into the shared value array interleave; a lost or misplaced
    # batch breaks the equality.
    n_paths, result = 10_007, []

    def run():
        result.append(simulate._parallel_values(
            n_paths, 13, 8, lambda lo, hi: np.arange(lo, hi) * 2.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert np.array_equal(result[0], np.arange(n_paths) * 2.0)
