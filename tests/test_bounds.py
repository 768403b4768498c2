import numpy as np
import pytest

from she_moments.bounds import p_moment_upper_bound, second_moment_lower_bound
from she_moments.errors import InadmissibleMeasureError
from she_moments.kernels import (KernelParams, MomentBoundParams,
                                 TwoPointQuery, two_point_lebesgue)
from she_moments.measures import (DensityMeasure, DiracAtoms,
                                  GrowthCertificate, LebesgueScaled,
                                  gaussian_density, mean_field, second_moment)


class TestUpperBound:
    def test_p2_linear_case_is_exact(self):
        lam = 0.9
        bounds = MomentBoundParams(p=2.0, lip_upper=lam)
        got = p_moment_upper_bound(0.7, 0.0, LebesgueScaled(1.0), bounds, 1.0)
        exact = second_moment(0.7, 0.0, LebesgueScaled(1.0),
                              KernelParams(nu=1.0, lam=lam))
        assert got == pytest.approx(exact, rel=1e-10)

    def test_p4_lebesgue_closed_form(self):
        lip = 0.3
        bounds = MomentBoundParams(p=4.0, lip_upper=lip)
        got = p_moment_upper_bound(0.5, 0.0, LebesgueScaled(1.0), bounds, 1.0)
        lam_eff = 4.0 * np.sqrt(2.0) * lip
        q = TwoPointQuery(t=0.5, x1=0.0, x2=0.0)
        want = 2.0 * two_point_lebesgue(q, KernelParams(nu=1.0, lam=lam_eff))
        assert got == pytest.approx(want, rel=1e-7)

    def test_zero_lipschitz_gives_mean_square(self):
        mu = DiracAtoms(((0.0, 1.0), (1.0, 0.5)))
        bounds = MomentBoundParams(p=4.0, lip_upper=0.0)
        got = p_moment_upper_bound(0.8, 0.3, mu, bounds, 1.0)
        j0 = mean_field(0.8, 0.3, mu, 1.0)
        assert got == pytest.approx(2.0 * j0 * j0, rel=1e-12)

    def test_signed_measure_uses_total_variation(self):
        signed = DiracAtoms(((0.0, 1.0), (1.0, -1.0)))
        unsigned = DiracAtoms(((0.0, 1.0), (1.0, 1.0)))
        bounds = MomentBoundParams(p=2.0, lip_upper=1.0)
        assert p_moment_upper_bound(0.6, 0.0, signed, bounds, 1.0) == \
            pytest.approx(p_moment_upper_bound(0.6, 0.0, unsigned, bounds, 1.0),
                          rel=1e-12)

    def test_signed_density_uses_total_variation(self):
        def f(x):
            return (1.0 - 2.0 * x) * np.exp(-x * x)
        signed = DensityMeasure(f, GrowthCertificate(amplitude=2.0,
                                                     degree=1.0),
                                support=(-6.0, 6.0))
        tv = signed.total_variation()
        xs = np.linspace(-3.0, 3.0, 61)
        assert tv.is_nonnegative and tv.support == signed.support
        assert np.array_equal(tv.f(xs), np.abs(f(xs)))
        bounds = MomentBoundParams(p=4.0, lip_upper=0.1)
        got = p_moment_upper_bound(0.6, 0.2, signed, bounds, 1.0)
        absolute = DensityMeasure(lambda x: np.abs(f(x)),
                                  signed.certificate, nonnegative=True,
                                  support=signed.support)
        want = second_moment(0.6, 0.2, absolute,
                             KernelParams(nu=1.0, lam=bounds.effective_lambda),
                             formula="direct")
        assert got == pytest.approx(bounds.c_p * want, rel=1e-12)


class TestLowerBound:
    def test_linear_case_sandwich(self):
        lam = 1.1
        mu = gaussian_density(0.0, 0.5)
        t, x, nu = 0.6, 0.2, 1.0
        upper = p_moment_upper_bound(t, x, mu,
                                     MomentBoundParams(p=2.0, lip_upper=lam), nu)
        lower = second_moment_lower_bound(t, x, mu, lam, nu)
        exact = second_moment(t, x, mu, KernelParams(nu=nu, lam=lam))
        assert lower == pytest.approx(exact, rel=1e-7)
        assert upper == pytest.approx(exact, rel=1e-7)

    def test_delta_closed_form(self):
        from she_moments.kernels import second_moment_kernel
        lip = 0.8
        got = second_moment_lower_bound(1.0, 0.4, DiracAtoms(((0.0, 1.0),)),
                                        lip, 1.0)
        want = float(second_moment_kernel(1.0, 0.4,
                                          KernelParams(nu=1.0, lam=lip))) / lip ** 2
        assert got == pytest.approx(want, rel=1e-10)

    def test_signed_measure_rejected(self):
        signed = DiracAtoms(((0.0, 1.0), (1.0, -0.5)))
        with pytest.raises(InadmissibleMeasureError):
            second_moment_lower_bound(1.0, 0.0, signed, 0.5, 1.0)
