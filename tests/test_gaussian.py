import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from she_moments.errors import DomainError, KernelOverflowError
from she_moments.gaussian import (exp_phi, gaussian_product_moment_bound,
                                  gaussian_product_moment_bound_repaired,
                                  gaussian_product_split, heat_kernel,
                                  normal_cdf)
from she_moments.measures import gaussian_density
from she_moments.quadrature import integrate_1d

finite_floats = st.floats(min_value=-30, max_value=30)


class TestHeatKernel:
    def test_peak_value(self):
        assert heat_kernel(1.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_even_in_x(self):
        for x in (0.3, 1.7, 4.2):
            assert heat_kernel(0.7, x, 2.0) == heat_kernel(0.7, -x, 2.0)

    def test_semigroup_convolution(self):
        s, t, x = 0.3, 0.7, 1.2
        conv = integrate_1d(lambda y: heat_kernel(s, x - y, 1.0) * heat_kernel(t, y, 1.0),
                            -np.inf, np.inf)
        assert conv == pytest.approx(heat_kernel(s + t, x, 1.0), abs=1e-10)

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("nu", [0.1, 1.0, 10.0])
    def test_unit_mass(self, t, nu):
        mass = integrate_1d(lambda x: heat_kernel(t, x, nu), -np.inf, np.inf)
        assert abs(mass - 1.0) < 1e-10

    @pytest.mark.parametrize("t,nu", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                      (1e-320, 1e-20)])
    def test_domain_errors(self, t, nu):
        with pytest.raises(DomainError):
            heat_kernel(t, 0.0, nu)

    def test_array_input(self):
        xs = np.array([-1.0, 0.0, 1.0])
        vals = heat_kernel(1.0, xs, 1.0)
        assert vals.shape == (3,)
        assert vals[0] == vals[2]

    @pytest.mark.parametrize("var", [2.9e307, 5e307, 1.7e308])
    def test_peak_where_2_pi_var_overflows(self, var):
        # 2 pi var is inf, var is not: the peak is 1/(sqrt(2 pi) sqrt(var)),
        # not 0.0, on the float path and the array path alike.
        assert math.isinf(2.0 * math.pi * var)
        peak = 1.0 / (math.sqrt(2.0 * math.pi) * math.sqrt(var))
        assert heat_kernel(1.0, 0.0, var) == pytest.approx(peak, rel=1e-15)
        assert heat_kernel(1.0, np.zeros(2), var).tolist() == [
            heat_kernel(1.0, 0.0, var)] * 2
        density = gaussian_density(0.0, var, 1e150)
        assert density.f(0.0) == pytest.approx(1e150 * peak, rel=1e-15)

    def test_far_tail_is_zero_without_warning(self):
        # No cut-off: exp(-800) underflows to 0.0 silently on both paths.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert heat_kernel(1.0, 40.0, 1.0) == 0.0
            assert heat_kernel(1.0, np.array([40.0]), 1.0)[0] == 0.0


class TestNormalCdf:
    def test_origin(self):
        assert normal_cdf(0.0) == 0.5

    def test_reference_point(self):
        assert normal_cdf(1.0) == pytest.approx(0.84134474606854295, rel=1e-14)

    def test_deep_tail_stays_positive(self):
        # Phi(-37) ~ 5.7e-300 is still a positive double; Phi(-40) ~ 7e-350
        # lies below the smallest subnormal, so 0.0 is the closest
        # representable value.  Neither may go negative.
        v37 = normal_cdf(-37.0)
        assert 0.0 < v37 <= 1e-299
        assert normal_cdf(-40.0) >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(finite_floats)
    def test_reflection(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(finite_floats, finite_floats)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert normal_cdf(lo) <= normal_cdf(hi)


class TestExpPhi:
    def test_plain_cdf(self):
        assert exp_phi(0.0, 0.7) == pytest.approx(0.75803634777692699, rel=1e-14)
        assert exp_phi(0.0, 0.0) == 0.5

    def test_extreme_cancellation(self):
        # c = d^2 / 2 with d = -sqrt(20000): naive exp(c) * Phi(d) overflows,
        # the true value is erfcx(100) / 2.
        d = -math.sqrt(20000.0)
        assert exp_phi(10000.0, d) == pytest.approx(0.0028208068914947165, rel=1e-11)

    def test_overflow_reported(self):
        with pytest.raises(KernelOverflowError) as exc_info:
            exp_phi(800.0, 1.0)
        assert exc_info.value.exponent is not None

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            exp_phi(math.nan, 0.0)
        with pytest.raises(DomainError):
            exp_phi(0.0, math.inf)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=-25, max_value=8))
    def test_matches_direct_product(self, c, d):
        direct = math.exp(c) * normal_cdf(d)
        if direct > 5e-300:
            assert exp_phi(c, d) == pytest.approx(direct, rel=1e-12)

    def test_array_broadcast(self):
        out = exp_phi(np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(normal_cdf(-1.0), rel=1e-13)


# exp(c) * Phi(d) at 30 points over c in [-50, 709], d in [-37, 40]: each
# reference was computed once with mpmath at 40 significant digits,
#     mpmath.mp.dps = 40; float(mpmath.exp(c) * mpmath.ncdf(d)),
# and rounded to the nearest double (mpmath is not a dependency).
EXP_PHI_REFERENCE = [
    (0.0, 0.0, 0.5),
    (0.0, 0.7, 0.758036347776927),
    (0.0, -0.7, 0.24196365222307303),
    (0.0, 0.001, 0.500398942213911),
    (0.0, -0.001, 0.49960105778608893),
    (0.0, 5.0, 0.9999997133484281),
    (0.0, -5.0, 2.866515718791939e-07),
    (0.0, -20.0, 2.7536241186062337e-89),
    (0.0, -37.0, 5.725571222524577e-300),
    (-50.0, 40.0, 1.9287498479639178e-22),
    (-50.0, -3.0, 2.6036156232733368e-25),
    (-12.5, 0.3, 2.302741561564103e-06),
    (1.0, -8.0, 1.6910324084603137e-15),
    (3.7, 2.2, 39.884947386834696),
    (25.0, -6.5, 2.8917171777965867),
    (80.0, -12.0, 98.42816555652249),
    (150.0, 1.0, 1.1725902332390506e+65),
    (300.0, -24.0, 2700.7343508063527),
    (450.0, -29.5, 38969.14237782525),
    (600.0, -30.0, 1.851313125798578e+63),
    (700.0, -0.5, 3.129286618649387e+303),
    (700.0, 3.0, 1.0128629448807016e+304),
    (705.0, -2.0, 3.424472331769018e+304),
    (709.0, 8.0, 8.218407461554967e+307),
    (709.0, -37.0, 470550772.56860405),
    (695.0, 40.0, 6.833841829578011e+301),
    (10.0, -37.0, 1.2611409868866727e-295),
    (200.0, -19.9, 0.14702278454159207),
    (0.25, -1.5, 0.08578214444698729),
    (42.0, 17.0, 1.739274941520501e+18),
]


class TestExpPhiAccuracy:
    """exp(c + log Phi(d)) loses about |c| + d^2/2 ulps in the exponent, the
    same error class as the erfcx form: the bound is 4 eps (1 + |c| + d^2/2)."""

    @staticmethod
    def bound(c, d):
        return 4.0 * np.finfo(float).eps * (1.0 + np.abs(c) + 0.5 * d * d)

    @pytest.mark.parametrize("c, d, ref", EXP_PHI_REFERENCE)
    def test_float(self, c, d, ref):
        got = exp_phi(c, d)
        assert type(got) is float
        assert abs(got - ref) <= self.bound(c, d) * ref

    def test_array(self):
        c, d, ref = map(np.array, zip(*EXP_PHI_REFERENCE))
        got = exp_phi(c, d)
        assert np.all(np.abs(got - ref) <= self.bound(c, d) * ref)


class TestGaussianProductSplit:
    def test_coincident_points(self):
        a = 0.8
        g_half, g_double = gaussian_product_split(1.0, 1.0, 0.0, a, a)
        assert g_half == pytest.approx(heat_kernel(1.0, -a, 0.5), rel=1e-14)
        assert g_double == pytest.approx(heat_kernel(2.0, 0.0, 1.0), rel=1e-14)

    def test_product_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            s = rng.uniform(0.05, 4.0)
            nu = rng.uniform(0.2, 3.0)
            y, z1, z2 = rng.uniform(-3, 3, size=3)
            ga, gb = gaussian_product_split(s, nu, y, z1, z2)
            direct = heat_kernel(s, y - z1, nu) * heat_kernel(s, y - z2, nu)
            assert ga * gb == pytest.approx(direct, rel=1e-13)

    def test_swap_symmetry(self):
        assert gaussian_product_split(0.5, 2.0, 1.0, 0.0, 3.0) == \
            gaussian_product_split(0.5, 2.0, 1.0, 3.0, 0.0)

    def test_specific_product(self):
        ga, gb = gaussian_product_split(0.5, 2.0, 1.0, 0.0, 3.0)
        direct = heat_kernel(0.5, 1.0, 2.0) * heat_kernel(0.5, -2.0, 2.0)
        assert ga * gb == pytest.approx(direct, rel=1e-14)


class TestProductMomentBound:
    def test_single_centred_gaussian_is_tight(self):
        lhs, rhs = gaussian_product_moment_bound(1.0, 1.0, 0.0, [0.0])
        assert lhs == pytest.approx(0.28209479177387814, rel=1e-10)
        assert lhs <= rhs * (1 + 1e-9)

    def test_empty_levels_rejected(self):
        with pytest.raises(DomainError):
            gaussian_product_moment_bound(1.0, 1.0, 0.0, [])

    def test_spread_cluster(self):
        lhs, rhs = gaussian_product_moment_bound(0.2, 0.5, 1.5, [-1.0, 0.3, 2.0])
        assert lhs <= rhs * (1 + 1e-9)

    def test_printed_bound_fails_under_alignment(self):
        # For p = 1 the stated right side is not a bound at any s > 0:
        # s = t = 1, x = -1, y = 2 gives log(lhs / rhs) = 1/2 exactly, a 65%
        # excess.
        lhs, rhs = gaussian_product_moment_bound(1.0, 1.0, -1.0, [2.0])
        assert lhs / rhs == pytest.approx(math.sqrt(math.e), rel=1e-9)

    def test_repaired_bound_holds_on_random_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(1, 5))
            s, t = rng.uniform(0.1, 2.0, size=2)
            x = rng.uniform(-2, 2)
            ys = rng.uniform(-2, 2, size=p)
            lhs, _ = gaussian_product_moment_bound(s, t, x, ys)
            rhs = gaussian_product_moment_bound_repaired(s, t, x, ys)
            assert lhs <= rhs * (1 + 1e-9)
