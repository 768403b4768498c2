import math

import numpy as np
import pytest

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
        grid, q = self._setup()
        mc1 = McConfig(n_paths=300, seed=9, batch_size=64, workers=1)
        mc4 = McConfig(n_paths=300, seed=9, batch_size=64, workers=4)
        e1 = spde_estimate_two_point(q, LebesgueScaled(1.0),
                                     RhoSpec.linear(1.0), 1.0, grid, mc1)
        e4 = spde_estimate_two_point(q, LebesgueScaled(1.0),
                                     RhoSpec.linear(1.0), 1.0, grid, mc4)
        assert e1.value == e4.value
        assert e1.std_error == e4.std_error

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

    @pytest.mark.parametrize("mu,x2", [
        (LebesgueScaled(1.0), 0.0),
        (DiracAtoms(((0.0, 1.0),)), 0.3),
    ], ids=["lebesgue", "atom"])
    def test_monte_carlo_matches_lattice_mean(self, mu, x2):
        # On its own grid the Monte Carlo estimator has no bias against the
        # lattice moment, so only its statistical error remains.
        grid = SpdeGrid(L=3.3, dx=0.1, dt=0.005, t_final=0.3)
        q = TwoPointQuery(t=0.3, x1=0.0, x2=x2)
        m = spde_lattice_second_moment(grid, mu, 1.0, 1.0)
        exact = m[grid.index_of(q.x1), grid.index_of(q.x2)]
        est = spde_estimate_two_point(q, mu, RhoSpec.linear(1.0), 1.0, grid,
                                      McConfig(n_paths=4000, seed=3,
                                               batch_size=1000))
        assert est.n_divergent == 0
        assert abs(est.value - exact) <= 5.0 * est.std_error
