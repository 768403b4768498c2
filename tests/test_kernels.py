import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from she_moments.errors import DomainError
from she_moments.gaussian import heat_kernel
from she_moments.kernels import (KernelParams, MomentBoundParams,
                                 TwoPointQuery, covariance_kernel,
                                 mgf_local_time, second_moment_kernel,
                                 second_moment_time_factor, two_point_kernel,
                                 two_point_kernel_centered,
                                 two_point_lebesgue, two_point_time_factor)

P11 = KernelParams(nu=1.0, lam=1.0)


def random_params(rng):
    return KernelParams(nu=float(rng.uniform(0.2, 3.0)),
                        lam=float(rng.uniform(0.0, 2.0)))


class TestKernelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            KernelParams(nu=0.0, lam=1.0)
        with pytest.raises(DomainError):
            KernelParams(nu=1.0, lam=float("nan"))

    def test_negative_lambda_equivalent(self):
        pos = KernelParams(nu=1.0, lam=1.3)
        neg = KernelParams(nu=1.0, lam=-1.3)
        assert second_moment_kernel(0.7, 0.4, pos) == \
            second_moment_kernel(0.7, 0.4, neg)


class TestSecondMomentKernel:
    def test_zero_coupling_vanishes(self):
        p0 = KernelParams(nu=1.0, lam=0.0)
        for t, x in ((0.5, 0.0), (1.0, 1.0), (2.0, -0.5)):
            assert second_moment_kernel(t, x, p0) == 0.0

    def test_reference_value(self):
        assert second_moment_kernel(1.0, 0.0, P11) == \
            pytest.approx(0.43453030592364549, rel=1e-14)

    def test_even_in_x(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = float(rng.uniform(0.1, 3))
            x = float(rng.uniform(0, 3))
            p = random_params(rng)
            assert second_moment_kernel(t, x, p) == second_moment_kernel(t, -x, p)

    def test_time_factor_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = float(rng.uniform(0.05, 4))
            x = float(rng.uniform(-3, 3))
            p = random_params(rng)
            lhs = p.lam2 * heat_kernel(t, x, p.nu / 2) \
                * second_moment_time_factor(t, p)
            assert lhs == pytest.approx(second_moment_kernel(t, x, p), rel=1e-13)


class TestTimeFactors:
    def test_reference_value(self):
        assert second_moment_time_factor(1.0, P11) == \
            pytest.approx(0.77018491406951742, rel=1e-14)

    def test_zero_coupling(self):
        p0 = KernelParams(nu=2.0, lam=0.0)
        assert second_moment_time_factor(0.7, p0) == \
            pytest.approx(1.0 / np.sqrt(4 * np.pi * 2.0 * 0.7), rel=1e-14)

    def test_offset_factor_at_origin(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = float(rng.uniform(0.05, 4))
            p = random_params(rng)
            assert two_point_time_factor(t, 0.0, p) == \
                pytest.approx(second_moment_time_factor(t, p), rel=1e-13)

    def test_offset_factor_zero_coupling(self):
        p0 = KernelParams(nu=1.5, lam=0.0)
        assert two_point_time_factor(0.9, 0.7, p0) == \
            pytest.approx(heat_kernel(0.9, 0.7, 3.0), rel=1e-14)

    def test_offset_factor_reference(self):
        assert two_point_time_factor(2.0, 1.0, P11) == \
            pytest.approx(0.52176389401915629, rel=1e-14)


class TestCovarianceKernel:
    def test_zero_coupling(self):
        p0 = KernelParams(nu=1.0, lam=0.0)
        assert covariance_kernel(1.0, 0.3, -0.2, 0.5, p0) == 0.0

    def test_reference_value(self):
        assert covariance_kernel(1.0, 0.0, 0.0, 0.0, P11) == \
            pytest.approx(0.27537536283175016, rel=1e-14)

    def test_decomposition(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            t = float(rng.uniform(0.05, 5))
            z1, z2, y = rng.uniform(-3, 3, size=3)
            p = random_params(rng)
            total = heat_kernel(t, z1, p.nu) * heat_kernel(t, z2, p.nu) \
                + covariance_kernel(t, z1, z2, y, p)
            assert two_point_kernel(t, z1, z2, y, p) == \
                pytest.approx(total, rel=1e-12)


class TestTwoPointKernel:
    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = float(rng.uniform(0.05, 4))
            z1, z2, y = rng.uniform(-3, 3, size=3)
            p = random_params(rng)
            assert two_point_kernel(t, z1, z2, y, p) == \
                pytest.approx(two_point_kernel(t, z2, z1, -y, p), rel=1e-13)

    def test_delta_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t = float(rng.uniform(0.05, 4))
            x = float(rng.uniform(-3, 3))
            p = KernelParams(nu=float(rng.uniform(0.2, 3)),
                             lam=float(rng.uniform(0.1, 2)))
            assert two_point_kernel(t, x, x, 0.0, p) * p.lam2 == \
                pytest.approx(second_moment_kernel(t, x, p), rel=1e-12)

    def test_centered_form_reference(self):
        val = two_point_kernel_centered(1.0, 0.0, 1.0, 0.0, 0.0, P11)
        assert float(val) == pytest.approx(0.18208192270810804, rel=1e-14)

    def test_centered_form_equivalence(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            t = float(rng.uniform(0.05, 5))
            x1, x2, z1, z2 = rng.uniform(-3, 3, size=4)
            p = random_params(rng)
            centered = float(two_point_kernel_centered(t, x1, x2, z1, z2, p))
            conv = float(two_point_kernel(t, x1 - z1, x2 - z2, x1 - x2, p))
            assert centered == pytest.approx(conv, rel=1e-12)

    def test_centered_zero_coupling_origin(self):
        p0 = KernelParams(nu=1.3, lam=0.0)
        val = float(two_point_kernel_centered(0.8, 0.0, 0.0, 0.0, 0.0, p0))
        assert val == pytest.approx(heat_kernel(0.8, 0.0, 1.3) ** 2, rel=1e-13)


class TestTwoPointSpecialMeasures:
    def test_delta_diagonal(self):
        q = TwoPointQuery(t=1.3, x1=0.6, x2=0.6)
        assert float(two_point_kernel(q.t, q.x1, q.x2, q.x1 - q.x2,
                                      P11)) == \
            pytest.approx(float(second_moment_kernel(1.3, 0.6, P11)), rel=1e-13)

    def test_delta_zero_coupling(self):
        p0 = KernelParams(nu=1.0, lam=0.0)
        q = TwoPointQuery(t=0.9, x1=0.2, x2=-0.4)
        assert float(two_point_kernel(q.t, q.x1, q.x2, q.x1 - q.x2,
                                      p0)) == \
            pytest.approx(heat_kernel(0.9, 0.2, 1.0) * heat_kernel(0.9, -0.4, 1.0),
                          rel=1e-14)

    def test_delta_swap(self):
        q1 = TwoPointQuery(t=0.9, x1=0.2, x2=-0.4)
        q2 = TwoPointQuery(t=0.9, x1=-0.4, x2=0.2)
        assert float(two_point_kernel(q1.t, q1.x1, q1.x2, q1.x1 - q1.x2,
                                      P11)) == \
            pytest.approx(float(two_point_kernel(
                q2.t, q2.x1, q2.x2, q2.x1 - q2.x2, P11)), rel=1e-14)

    def test_lebesgue_diagonal(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=0.0)
        assert two_point_lebesgue(q, P11) == \
            pytest.approx(1.9523604891825571, rel=1e-14)

    def test_lebesgue_offset(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=1.0)
        assert two_point_lebesgue(q, P11) == \
            pytest.approx(1.2993006608844514, rel=1e-14)

    def test_lebesgue_zero_coupling_is_one(self):
        p0 = KernelParams(nu=1.7, lam=0.0)
        for dx in (0.0, 0.5, 3.0):
            q = TwoPointQuery(t=0.8, x1=0.0, x2=dx)
            assert two_point_lebesgue(q, p0) == pytest.approx(1.0, rel=1e-14)

    def test_lebesgue_monotone_and_decaying(self):
        vals = [two_point_lebesgue(TwoPointQuery(t=1.0, x1=0.0, x2=d), P11)
                for d in np.linspace(0, 12, 30)]
        assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-8)

    def test_lebesgue_depends_on_separation_only(self):
        qa = TwoPointQuery(t=0.7, x1=-1.0, x2=0.5)
        qb = TwoPointQuery(t=0.7, x1=2.0, x2=3.5)
        assert two_point_lebesgue(qa, P11) == two_point_lebesgue(qb, P11)


class TestMgfLocalTime:
    def test_zero_coupling(self):
        for x in (0.0, 1.0, -2.5):
            assert mgf_local_time(1.0, x, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_reference_values(self):
        assert mgf_local_time(1.0, 0.0, 1.0) == \
            pytest.approx(2.7742859576700096, rel=1e-14)
        assert mgf_local_time(1.0, 1.0, 1.0) == \
            pytest.approx(1.2892201518497193, rel=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.05, max_value=4.0),
           st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=1.5))
    def test_bounds(self, t, x, lam):
        val = mgf_local_time(t, x, lam)
        assert val >= 1.0 - 1e-12
        assert val <= 2.0 * np.exp(lam ** 4 * t / 2.0) + 1.0 + 1e-12

    def test_matches_flat_two_point(self):
        # E[exp(lam^2/(2 nu) * L^{dx}_{2 nu t})] equals the flat-data
        # two-point value at (t, dx).
        for dx in (0.0, 1.0, 2.3):
            q = TwoPointQuery(t=1.0, x1=0.0, x2=dx)
            lam_eff = 1.0 / np.sqrt(2.0)
            assert mgf_local_time(2.0, dx, lam_eff) == \
                pytest.approx(two_point_lebesgue(q, P11), rel=1e-13)


class TestMomentBoundParams:
    def test_c_p(self):
        assert MomentBoundParams(p=2.0).c_p == 1.0
        assert MomentBoundParams(p=2.5).c_p == 2.0
        assert MomentBoundParams(p=4.0).c_p == 2.0

    def test_effective_lambda(self):
        b = MomentBoundParams(p=4.0, lip_upper=0.5)
        assert b.effective_lambda == pytest.approx(4.0 * np.sqrt(2.0) * 0.5)
        b2 = MomentBoundParams(p=2.0, lip_upper=0.7)
        assert b2.effective_lambda == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(DomainError):
            MomentBoundParams(p=1.5)
        with pytest.raises(DomainError):
            MomentBoundParams(p=2.0, lip_upper=-0.1)


def test_two_point_query_validation():
    with pytest.raises(DomainError):
        TwoPointQuery(t=0.0, x1=0.0, x2=0.0)
    q = TwoPointQuery(t=1.0, x1=1.0, x2=3.0)
    assert q.x_bar == 2.0
    assert q.dx == 2.0


def test_intermittent_blowup_raises_not_inf():
    # exp(lam^4 t / 4 nu) leaves double precision near lam^4 t / nu ~ 2800;
    # the kernels must report the overflow instead of returning inf.
    from she_moments.errors import KernelOverflowError
    with pytest.raises(KernelOverflowError):
        second_moment_kernel(3000.0, 0.0, P11)
    with pytest.raises(KernelOverflowError):
        two_point_lebesgue(TwoPointQuery(t=3000.0, x1=0.0, x2=0.0), P11)


# exp(c) Phi(d) fits in double precision here, but its product with the
# prefactor (lam^2 / 2 nu) G_{nu/2} does not.
PRODUCT_OVERFLOW = dict(t=3.058581061479496, z1=-0.77222639115696,
                        z2=0.4822025900632321, y=1.5830200134868129,
                        params=KernelParams(nu=1.1481095960311858,
                                            lam=5.839318305926894))


def test_covariance_kernel_product_overflow_raises():
    from she_moments.errors import KernelOverflowError
    c = PRODUCT_OVERFLOW
    with pytest.raises(KernelOverflowError):
        covariance_kernel(c["t"], c["z1"], c["z2"], c["y"], c["params"])
    # One overflowing element in an array is enough.
    z1 = np.array([0.0, c["z1"]])
    with pytest.raises(KernelOverflowError):
        covariance_kernel(c["t"], z1, c["z2"], c["y"], c["params"])
    with pytest.raises(KernelOverflowError):
        two_point_kernel(c["t"], z1, c["z2"], c["y"], c["params"])


def test_two_point_kernel_at_product_overflow_raises():
    from she_moments.errors import KernelOverflowError
    from she_moments.kernels import two_point_kernel_at
    c = PRODUCT_OVERFLOW
    x1, x2 = 0.0, -c["y"]
    kernel = two_point_kernel_at(TwoPointQuery(c["t"], x1, x2), c["params"])
    with pytest.raises(KernelOverflowError):
        kernel(x1 - c["z1"], x2 - c["z2"])
    assert np.isfinite(kernel(x1 - 20.0, x2 + 20.0))


# At t = nu = 1, lam = 7.295 the growth tail fits (c = 708) but its product
# with lam^2 / 2 nu does not; at x = 40 the heat kernel underflows as well,
# so the product would be inf * 0 = nan.
TAIL_OVERFLOW = KernelParams(nu=1.0, lam=7.295)


@pytest.mark.parametrize("kernel", [
    lambda: second_moment_time_factor(1.0, TAIL_OVERFLOW),
    lambda: two_point_time_factor(1.0, 0.0, TAIL_OVERFLOW),
    lambda: two_point_time_factor(1.0, np.array([0.0, 1.0]), TAIL_OVERFLOW),
    lambda: second_moment_kernel(1.0, 40.0, TAIL_OVERFLOW),
    lambda: second_moment_kernel(1.0, np.array([0.0, 40.0]), TAIL_OVERFLOW),
], ids=["H", "Htilde", "Htilde_array", "K_far", "K_array"])
def test_time_factor_overflow_raises(kernel):
    from she_moments.errors import KernelOverflowError
    with pytest.raises(KernelOverflowError):
        kernel()


@pytest.mark.parametrize("nu", [np.inf, np.nan])
def test_kernel_params_reject_non_finite_nu(nu):
    with pytest.raises(DomainError):
        KernelParams(nu=nu, lam=1.0)


@pytest.mark.parametrize("t,x1,x2", [
    (np.inf, 0.0, 0.0), (1.0, np.nan, 0.0), (1.0, 0.0, -np.inf)])
def test_two_point_query_rejects_non_finite_inputs(t, x1, x2):
    with pytest.raises(DomainError):
        TwoPointQuery(t=t, x1=x1, x2=x2)
