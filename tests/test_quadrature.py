"""The panelled Gauss-Legendre rule and the split-form two-point route built
on it, checked against the adaptive QUADPACK direct form, closed forms and
brute-force loops."""

import json
import math

import numpy as np
import pytest
from scipy import integrate

from she_moments import measures
from she_moments.cli import main
from she_moments.errors import DomainError, QuadratureError
from she_moments.gaussian import heat_kernel
from she_moments.kernels import (KernelParams, TwoPointQuery,
                                 covariance_kernel, two_point_kernel,
                                 two_point_lebesgue)
from she_moments.measures import (DensityMeasure, DiracAtoms,
                                  GrowthCertificate, LebesgueScaled,
                                  MeasureSum, check_membership,
                                  gaussian_density, mean_field, two_point)
from she_moments.quadrature import (QUADPACK_LIMIT, integrate_1d,
                                    integrate_panels, panel_nodes)

SPLIT_VS_DIRECT = 1e-9


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _split_direct(q, mu, params):
    """The split form, and the direct form by the adaptive QUADPACK route of
    ``two_point(formula="direct")``.  Its atom-density terms are asked for
    1e-12 here, so the reference is tighter than the 1e-9 the split form
    is held to.  An off-diagonal pair of terms is taken at (x1, x2) and at
    (x2, x1), as that route takes it."""
    swapped = TwoPointQuery(q.t, q.x2, q.x1)
    direct = 0.0
    for w, mu1, mu2 in measures._term_pairs(mu):
        mixed = isinstance(mu1, DiracAtoms) != isinstance(mu2, DiracAtoms)
        tols = (1e-14, 1e-12) if mixed else (1e-10, 1e-9)
        for query in ((q,) if w == 1.0 else (q, swapped)):
            direct += measures._bilinear_primitive(mu1, mu2, query, params,
                                                   *tols)
    return two_point(q, mu, params, formula="split"), direct


CAUCHY = DensityMeasure(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2),
                        GrowthCertificate(amplitude=1.0), nonnegative=True)
# A decaying certificate: its envelope grows towards the origin, so a
# window centred far out must still reach back there.
DECAYING = DensityMeasure(lambda x: np.exp(-0.5 * np.asarray(x) ** 2),
                          GrowthCertificate(amplitude=1.0, rate=-0.5,
                                            power=2.0),
                          nonnegative=True)


class TestPanelRule:
    def test_nodes_integrate_polynomials_exactly(self):
        x, w = panel_nodes([-1.0, 0.5, 2.0], 12)
        assert w.sum() == pytest.approx(3.0, rel=1e-15)
        assert w @ x ** 23 == pytest.approx((2.0 ** 24 - 1.0) / 24, rel=1e-13)

    def test_kink_on_an_edge_is_integrated_to_rounding(self):
        value, err = integrate_panels(
            lambda x, y: np.exp(-x * x) * np.exp(-np.abs(y)),
            np.linspace(-8.0, 8.0, 7), [-40.0, -8.0, -2.0, 0.0, 2.0, 8.0, 40.0])
        exact = math.sqrt(math.pi) * math.erf(8.0) * 2.0 * (1.0 - math.exp(-40))
        assert _rel(value, exact) < 1e-14
        assert abs(value - exact) <= err <= 1e-10 * exact

    def test_estimate_bounds_error_after_refinement(self):
        # Two panels resolve 1/(1 + 400 x^2) poorly; halving fixes it.
        value, err = integrate_panels(lambda x: 1.0 / (1.0 + 400.0 * x * x),
                                      [-1.0, 0.0, 1.0], rel_tol=1e-6)
        exact = 2.0 * math.atan(20.0) / 20.0
        assert abs(value - exact) <= err <= 1e-6 * exact

    def test_cap_raises_with_the_achieved_estimate(self):
        with pytest.raises(QuadratureError) as info:
            integrate_panels(lambda x: np.sign(x - 1.0 / 3.0), [-1.0, 1.0])
        assert info.value.achieved > info.value.requested > 0

    def test_memory_blocks_do_not_change_the_sum(self, monkeypatch):
        def f(x, y):
            return np.exp(-x * x - np.abs(y))
        edges = (np.linspace(-6.0, 6.0, 9), np.linspace(-30.0, 30.0, 13))
        whole = integrate_panels(f, *edges)
        from she_moments import quadrature
        monkeypatch.setattr(quadrature, "BLOCK", 100)
        blocked = integrate_panels(f, *edges)
        assert blocked[0] == pytest.approx(whole[0], rel=1e-14)


    def test_one_dimensional_integrand_may_return_a_scalar(self):
        value, err = integrate_panels(lambda x: 2.0, [0.0, 1.0, 3.0])
        assert value == pytest.approx(6.0, rel=1e-15) and err < 1e-12


class TestQuadpackPieces:
    def test_one_piece_is_quadpacks_value(self):
        got = integrate_1d(math.exp, -1.0, 2.0, -1.0, 2.0, 7.0)
        want, _ = integrate.quad(math.exp, -1.0, 2.0, epsabs=1e-12,
                                 epsrel=1e-10, limit=QUADPACK_LIMIT)
        assert got == want

    def test_pieces_between_the_cuts_inside_are_summed_in_order(self):
        cut = integrate_1d(abs, -1.0, 2.0, 1.0, 5.0, 0.0, -3.0, 1.0)
        pieces = [integrate_1d(abs, lo, hi)
                  for lo, hi in ((-1.0, 0.0), (0.0, 1.0), (1.0, 2.0))]
        assert cut == (pieces[0] + pieces[1]) + pieces[2]
        assert cut == pytest.approx(2.5, rel=1e-14)


class TestSplitAgainstDirect:
    @pytest.mark.parametrize("mu", [
        DiracAtoms(((0.0, 1.0),)),
        DiracAtoms(((0.0, 1.0), (1.0, 1.0))),
        LebesgueScaled(1.0),
        gaussian_density(0.3, 0.8),
    ], ids=["delta", "two_atoms", "lebesgue", "gaussian"])
    def test_verify_measure_set(self, mu):
        q = TwoPointQuery(t=0.8, x1=-0.2, x2=0.6)
        params = KernelParams(nu=1.0, lam=1.0)
        assert _rel(two_point(q, mu, params, formula="split"),
                    two_point(q, mu, params, formula="direct")) \
            <= SPLIT_VS_DIRECT

    def test_fifty_draws_over_the_bench_ranges(self):
        rng = np.random.default_rng(20261018)
        worst = {}
        for i in range(50):
            kind = ("atoms", "gaussian", "sum", "lebesgue")[i % 4]
            t = rng.uniform(0.5, 1.5)
            x1 = rng.uniform(-1.0, 1.0)
            x2 = x1 + rng.uniform(-2.0, 2.0)
            params = KernelParams(nu=1.0, lam=rng.uniform(0.5, 1.2))
            gauss = gaussian_density(rng.uniform(-0.5, 0.5),
                                     rng.uniform(0.5, 1.5))
            if kind == "atoms":
                mu = DiracAtoms(tuple(zip(rng.uniform(-2.0, 2.0, 16),
                                          rng.uniform(0.5, 1.5, 16) / 16)))
            elif kind == "gaussian":
                mu = gauss
            elif kind == "sum":
                mu = MeasureSum((DiracAtoms(((rng.uniform(-1.0, 1.0),
                                              rng.uniform(0.5, 1.5)),)),
                                 gauss))
            else:
                mu = LebesgueScaled(rng.uniform(0.5, 2.0))
            q = TwoPointQuery(t=t, x1=x1, x2=x2)
            split, direct = _split_direct(q, mu, params)
            worst[kind] = max(worst.get(kind, 0.0), _rel(split, direct))
            if kind == "lebesgue":
                closed = mu.scale ** 2 * two_point_lebesgue(q, params)
                assert _rel(split, closed) < 1e-13
        assert max(worst.values()) <= SPLIT_VS_DIRECT, worst

    @pytest.mark.parametrize("mu,q,lam", [
        (gaussian_density(0.3, 0.8), TwoPointQuery(0.8, -0.2, 0.6), 3.0),
        (gaussian_density(0.3, 0.8), TwoPointQuery(0.8, -0.2, 0.6), 5.0),
        (MeasureSum((DiracAtoms(((0.4, 1.2),)), gaussian_density(0.1, 0.9))),
         TwoPointQuery(0.8, -0.2, 0.6), 3.0),
        (gaussian_density(0.3, 1e-3), TwoPointQuery(0.8, -0.2, 0.6), 1.0),
        (gaussian_density(2.0, 0.8), TwoPointQuery(0.05, -0.2, 0.6), 1.0),
        (gaussian_density(2.0, 0.8), TwoPointQuery(0.05, 1.8, 2.3), 1.0),
        (CAUCHY, TwoPointQuery(0.8, -0.2, 0.6), 1.0),
        (MeasureSum((DiracAtoms(((0.4, 1.2),)), CAUCHY)),
         TwoPointQuery(1.5, 3.0, 1.0), 2.0),
        (DECAYING, TwoPointQuery(1.0, 5.0, 5.0), 1.0),
        (DECAYING, TwoPointQuery(0.5, 3.0, 4.0), 1.0),
        (MeasureSum((DiracAtoms(((5.0, 1.0),)), DECAYING)),
         TwoPointQuery(1.0, 5.0, 5.0), 1.0),
    ], ids=["lam3", "lam5", "sum_lam3", "var1e-3", "t0.05_mean2_far",
            "t0.05_mean2_near", "cauchy", "cauchy_atom_sum",
            "decaying_far", "decaying_off_diagonal", "decaying_atom_sum"])
    def test_stress_cases(self, mu, q, lam):
        split, direct = _split_direct(q, mu, KernelParams(nu=1.0, lam=lam))
        assert _rel(split, direct) <= SPLIT_VS_DIRECT

    @pytest.mark.parametrize("t,dx,lam", [
        (t, dx, lam) for t in (0.5, 1.0, 2.0)
        for dx, lam in ((0.0, 1.0), (1.0, 0.8), (2.0, 1.2))])
    def test_estimate_bounds_error_on_lebesgue(self, t, dx, lam):
        # For u0 == 1 the covariance integral is the closed form minus one.
        q = TwoPointQuery(t=t, x1=0.0, x2=dx)
        params = KernelParams(nu=1.0, lam=lam)
        leb = LebesgueScaled(1.0)
        value, err = measures._panel_pair(leb, leb, q, params, 1e-10, 1e-9)
        exact = two_point_lebesgue(q, params) - 1.0
        assert abs(value - exact) <= err <= 1e-9 * exact

    @pytest.mark.parametrize("mu", [
        gaussian_density(0.5, 0.6),
        MeasureSum((DiracAtoms(((0.4, 1.2), (-0.7, 0.3))),
                    gaussian_density(0.1, 0.9))),
        DiracAtoms(((0.0, 1.0), (0.7, 2.0), (-1.3, 0.5))),
        CAUCHY,
    ], ids=["gaussian", "sum", "atoms", "cauchy"])
    def test_observation_swap_symmetry(self, mu):
        params = KernelParams(nu=1.0, lam=1.1)
        a = two_point(TwoPointQuery(0.6, -0.3, 0.8), mu, params)
        b = two_point(TwoPointQuery(0.6, 0.8, -0.3), mu, params)
        assert _rel(a, b) <= 1e-12

    def test_jumps_off_the_panel_edges_raise(self):
        # An indicator density jumps along diagonals of the rotated
        # (zbar, dz) panels, where the rule converges only like the panel
        # width: the split form raises instead of returning a value that
        # misses its tolerance.  Nested adaptive QUADPACK (the direct form)
        # raises on it too, after seconds to minutes.
        box = DensityMeasure(
            lambda x: (np.abs(np.asarray(x)) <= 1.0).astype(float),
            GrowthCertificate(amplitude=1.0), nonnegative=True,
            support=(-1.0, 1.0))
        with pytest.raises(QuadratureError):
            two_point(TwoPointQuery(0.5, 0.0, 0.0), box,
                      KernelParams(nu=1.0, lam=1.0))


class TestAtomSums:
    def test_vectorised_sums_match_loops(self):
        rng = np.random.default_rng(64)
        atoms = tuple(zip(rng.uniform(-2.0, 2.0, 64),
                          rng.uniform(0.5, 1.5, 64) / 64))
        mu = DiracAtoms(atoms)
        params = KernelParams(nu=0.8, lam=1.1)
        q = TwoPointQuery(t=0.9, x1=-0.4, x2=0.7)
        j0 = [sum(m * heat_kernel(q.t, x - z, params.nu) for z, m in atoms)
              for x in (q.x1, q.x2)]
        cov = sum(mi * mj * covariance_kernel(q.t, q.x1 - zi, q.x2 - zj,
                                              q.x1 - q.x2, params)
                  for zi, mi in atoms for zj, mj in atoms)
        full = sum(mi * mj * two_point_kernel(q.t, q.x1 - zi, q.x2 - zj,
                                              q.x1 - q.x2, params)
                   for zi, mi in atoms for zj, mj in atoms)
        assert _rel(mean_field(q.t, q.x1, mu, params.nu), j0[0]) <= 1e-13
        assert _rel(two_point(q, mu, params, formula="split"),
                    j0[0] * j0[1] + cov) <= 1e-13
        assert _rel(two_point(q, mu, params, formula="direct"), full) <= 1e-13


# 40-digit values of E[u(t,x1) u(t,x2)] for N(m, V) initial data at
# nu = lam = 1, keyed by (m, V, t, x1, x2) as Python floats.  In rotated
# coordinates f(z1) f(z2) = N(zbar; m, V/2) N(dz; 0, 2V), so
#
#   J0(t, x) = G_nu(t + V/nu, x - m),
#   E[u u]   = J0(t, x1) J0(t, x2) + (lam^2 / 2 nu) N(xbar; m, (nu t + V)/2)
#              * 2 int_0^inf N(s; 0, 2V) growth_tail(t, |dx| + s) ds,
#
# which mpmath (not a dependency of the package) evaluated once at 50
# digits with mp.quad, splitting the s range at 1, 4, 10 and 40 sqrt(2V),
# every input taken as the exact value of its float.
GAUSSIAN_REFERENCES = {
    (0.3, 0.8, 0.8, -0.2, 0.6): 0.12410288788420764531,
    (20.3, 0.8, 0.8, 19.8, 20.6): 0.12410288788420760114,
    (50.3, 0.8, 0.8, 49.8, 50.6): 0.12410288788420738366,
    (1000.3, 0.8, 0.8, 999.8, 1000.6): 0.12410288788420346906,
    (2.0, 3e-4, 0.8, 1.9, 1.9): 0.47190050754805620630,
    (2.0, 1e-4, 0.8, 1.9, 1.9): 0.47392722194924406773,
    (2.0, 1e-6, 0.8, 1.9, 1.9): 0.47637643453956084175,
    (2.0, 1e-8, 0.8, 1.9, 1.9): 0.47661875218112125598,
    (2.0, 1e-10, 0.8, 1.9, 1.9): 0.47664295775826060442,
    (1.0, 1e-5, 0.8, 0.9, 1.3): 0.38059398863449400433,
    (-7.1, 100.0, 0.8, -3.0, 1.5): 0.0010065862149853301468,
    (0.5, 100.0, 1.3, 5.0, -5.0): 0.0012244994846483497256,
    (100.3, 1e-6, 0.5, 100.2, 100.5): 0.52674916816328959116,
    (-300.7, 1e-2, 1.2, -300.0, -301.5): 0.14358614345553531478,
}


class TestSupports:
    """Every integral of a density runs over its declared support, so data
    far from the origin or narrower than the heat kernel are found."""

    @pytest.mark.parametrize("row", list(GAUSSIAN_REFERENCES),
                             ids=lambda row: "m{}_v{}".format(*row[:2]))
    @pytest.mark.parametrize("formula", ["split", "direct"])
    def test_gaussian_references(self, row, formula):
        m, var, t, x1, x2 = row
        got = two_point(TwoPointQuery(t, x1, x2), gaussian_density(m, var),
                        KernelParams(nu=1.0, lam=1.0), formula=formula)
        assert _rel(got, GAUSSIAN_REFERENCES[row]) <= 1e-9

    @pytest.mark.parametrize("m,var,x", [
        (0.3, 0.8, -0.2), (50.3, 0.8, 49.8), (1000.3, 0.8, 1000.6),
        (2.0, 1e-4, 1.9), (2.0, 1e-8, 1.9), (-7.1, 100.0, 1.5)])
    def test_mean_field_is_the_widened_heat_kernel(self, m, var, x):
        got = mean_field(0.8, x, gaussian_density(m, var), 1.0)
        assert _rel(got, heat_kernel(0.8 + var, x - m, 1.0)) <= 1e-12

    @pytest.mark.parametrize("t,nu", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                      (math.nan, 1.0)])
    def test_mean_field_rejects_a_bad_time_or_diffusion(self, t, nu):
        with pytest.raises(DomainError):
            mean_field(t, 0.0, gaussian_density(0.0, 1.0), nu)

    @pytest.mark.parametrize("var", [1e-8, 1e-4, 0.3, 5.0, 100.0])
    @pytest.mark.parametrize("formula", ["split", "direct"])
    def test_translation(self, var, formula):
        params = KernelParams(nu=1.0, lam=0.9)

        def value(shift):
            mu = MeasureSum((DiracAtoms(((0.4 + shift, 1.2),
                                         (-0.7 + shift, 0.3))),
                             gaussian_density(0.1 + shift, var)))
            q = TwoPointQuery(0.7, -0.3 + shift, 0.5 + shift)
            return two_point(q, mu, params, formula=formula)
        origin = value(0.0)
        for shift in (30.0, 1000.0):
            assert _rel(value(shift), origin) <= 1e-9

    @pytest.mark.parametrize("mu,x1,x2", [
        (gaussian_density(50.3, 0.8), 49.8, 50.6),
        (gaussian_density(2.0, 1e-6), 1.9, 2.3),
        (MeasureSum((DiracAtoms(((30.4, 1.2),)),
                     gaussian_density(30.1, 1e-3))), 29.8, 30.9),
    ], ids=["far", "narrow", "far_sum"])
    @pytest.mark.parametrize("formula", ["split", "direct"])
    def test_observation_swap(self, mu, x1, x2, formula):
        params = KernelParams(nu=1.0, lam=1.1)
        a = two_point(TwoPointQuery(0.6, x1, x2), mu, params, formula=formula)
        b = two_point(TwoPointQuery(0.6, x2, x1), mu, params, formula=formula)
        assert _rel(a, b) <= 1e-12

    def test_cauchy_density_far_from_the_origin(self):
        def cauchy(c):
            return DensityMeasure(
                lambda x: 1.0 / (1.0 + (np.asarray(x) - c) ** 2),
                GrowthCertificate(amplitude=1.0), nonnegative=True)
        params = KernelParams(nu=1.0, lam=1.0)
        origin = two_point(TwoPointQuery(0.8, -0.2, 0.6), cauchy(0.0), params)
        far = TwoPointQuery(0.8, 99.8, 100.6)
        for formula in ("split", "direct"):
            assert _rel(two_point(far, cauchy(100.0), params,
                                  formula=formula), origin) <= 1e-9

    def test_membership_integrates_over_the_support(self):
        # int exp(-a x^2) N(x; m, V) dx = exp(-a m^2 / (1 + 2aV)) / sqrt(1 + 2aV)
        m, var = 2.0, 1e-10
        (row,) = check_membership(gaussian_density(m, var), [0.5])
        k = 1.0 + 2.0 * 0.5 * var
        assert _rel(row["integral"],
                    math.exp(-0.5 * m * m / k) / math.sqrt(k)) <= 1e-9

    @pytest.mark.parametrize("support", [
        (1.0, 1.0), (2.0, -2.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_empty_or_nan_support_is_rejected(self, support):
        with pytest.raises(DomainError):
            DensityMeasure(lambda x: x, GrowthCertificate(amplitude=1.0),
                           support=support)

    def test_support_extent(self):
        assert gaussian_density(-3.0, 0.25).support_extent() == 7.0
        assert CAUCHY.support_extent() == 0.0
        assert CAUCHY.support == (-math.inf, math.inf)


class TestRelations:
    """Relations that need no oracle, on the split and direct routes, for an
    atom plus a Gaussian at t = 1, (x1, x2) = (0, 0.5), lambda = 1."""

    @staticmethod
    def value(c, formula, swap=False):
        # Brownian scaling by c: t -> c² t, x -> c x, lambda² -> lambda² / c,
        # locations and means times c, variances times c², masses kept.
        mu = MeasureSum((DiracAtoms(((0.2 * c, 1.0),)),
                         gaussian_density(0.1 * c, 0.8 * c * c)))
        x1, x2 = (0.5 * c, 0.0) if swap else (0.0, 0.5 * c)
        return two_point(TwoPointQuery(c * c, x1, x2), mu,
                         KernelParams(nu=1.0, lam=1.0 / math.sqrt(c)),
                         formula=formula)

    @pytest.mark.parametrize("c", [1e-3, 1e-2, 0.1, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("formula", ["split", "direct"])
    def test_brownian_scaling(self, c, formula):
        assert _rel(c * c * self.value(c, formula),
                    self.value(1.0, formula)) <= 1e-12

    @pytest.mark.parametrize("c", [1e-3, 1.0, 10.0])
    @pytest.mark.parametrize("formula", ["split", "direct"])
    def test_observation_swap(self, c, formula):
        assert _rel(self.value(c, formula, swap=True),
                    self.value(c, formula)) <= 1e-12


class TestKernelNarrowerThanDoubles:
    """The split form on Lebesgue-plus-atom data where the kernel's widths
    sqrt(nu t) are tiny against the separation or the distance from the
    origin.  Both once allocated panels without bound."""

    def test_separation_window_keeps_its_gaussian_decay(self):
        # d0 = -3.5e29: max(0, u - d0)² - d0² rounded to 0 for every u, and
        # the window came out ~1e14 kernel widths wide.
        sc = measures._SplitKernelScales(TwoPointQuery(1e-60, 0.0, 0.5),
                                         KernelParams(nu=1.0, lam=1.0))
        assert sc.log_sep(sc.s) < -1e29
        assert measures._tail_radius(sc.log_sep, sc.s) < sc.s

    def test_tail_radius_below_the_smallest_subnormal_returns(self):
        # The radius lies between 0 and 5e-324, where the midpoint rounds
        # to 0 and the bisection never ended.  About 1,100 halvings reach
        # 5e-324 from 1e-100; a call budget bounds the test's time.
        calls = []

        def log_ratio(r):
            calls.append(r)
            assert len(calls) < 10_000, "the bisection does not end"
            return 0.0 if r == 0 else -math.inf
        assert measures._tail_radius(log_ratio, 1e-100) == 5e-324

    @pytest.mark.parametrize("lo,want", [
        (1000.0, [1000.0, 1000.0 + 1e-12]),
        (1000.0 - 1e-12, [1000.0 - 1e-12, 1000.0, 1000.0 + 1e-12])])
    def test_panels_end_where_a_width_cannot_move_an_edge(self, lo, want):
        # 1e-15 is below half the spacing of doubles at 1000 (1.1e-13).
        edges = measures._graded_edges((lo, 1000.0 + 1e-12),
                                       ((1000.0, 1.0),), 1000.0, 1e-15, 1e-15)
        assert edges.tolist() == want

    @pytest.mark.parametrize("t,loc,x1,x2", [
        (1e-60, 0.0, 0.0, 0.5), (1e-300, 0.0, 0.0, 0.5),
        (1e-28, 1e3, 1e3, 1e3), (1e-22, 1e6, 1e6, 1e6),
        (1e-18, 1e8, 1e8, 1e8)])
    def test_lebesgue_sum_value(self, t, loc, x1, x2):
        # J0 J0 plus the atom pair's covariance term; the Lebesgue terms'
        # covariance is O(1), below 1e-16 of it.
        mu = MeasureSum((LebesgueScaled(1.0), DiracAtoms(((loc, 1.0),))))
        params = KernelParams(nu=1.0, lam=1.0)
        want = (mean_field(t, x1, mu, 1.0) * mean_field(t, x2, mu, 1.0)
                + covariance_kernel(t, x1 - loc, x2 - loc, x1 - x2, params))
        got = measures.closed_two_point(TwoPointQuery(t, x1, x2), mu, params)
        assert _rel(got, float(want)) <= 1e-12


def _two_point_cli(tmp_path, measure, *extra):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(measure))
    return main(["two-point", "--measure", str(path), "--t", "0.8",
                 "--x1", "0.9", "--x2", "1.3", *extra])


def test_narrow_gaussian_prints_its_value_from_the_cli(tmp_path, capsys):
    # N(1, 1e-5) is far narrower than the heat kernel; its support puts the
    # panels on it.
    narrow = {"type": "gaussian", "mean": 1.0, "var": 1e-5}
    assert _two_point_cli(tmp_path, narrow) == 0
    header, row = capsys.readouterr().out.splitlines()
    value = float(row.split(",")[header.split(",").index("value")])
    assert _rel(value, 0.38059398863449400433) <= 1e-12
    assert _two_point_cli(tmp_path, narrow, "--method", "both") == 0


def test_quadrature_error_exits_3_from_the_cli(tmp_path, capsys,
                                               monkeypatch):
    def refuse(*args, **kwargs):
        raise QuadratureError("panel quadrature did not converge",
                              achieved=1.0, requested=1e-10)
    monkeypatch.setattr(measures, "two_point", refuse)
    # Atoms and Gaussians alone take the closed route; a Lebesgue term keeps
    # the measure on the quadrature route.
    code = _two_point_cli(tmp_path, {"type": "sum", "terms": [
        {"type": "lebesgue", "scale": 0.5},
        {"type": "gaussian", "mean": 1.0, "var": 1.0}]})
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "panel quadrature did not converge" in captured.err
