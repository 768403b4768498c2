import math

import numpy as np
import pytest

from she_moments.errors import DomainError
from she_moments.gaussian import heat_kernel
from she_moments.kernels import mgf_local_time
from she_moments.local_time import (JointLocalTimeLaw,
                                    first_passage_convolution,
                                    first_passage_rhs_printed)
from she_moments.quadrature import integrate_1d


class TestDensities:
    def test_continuous_reference(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        assert law.density_cont(1.0, 1.0) == \
            pytest.approx(0.1079819330263761, rel=1e-14)

    def test_level_zero_form(self):
        law = JointLocalTimeLaw(t=1.0, a=0.0)
        for y, v in ((0.5, 0.2), (-1.0, 1.5)):
            want = (abs(y) + v) / math.sqrt(2 * math.pi) \
                * math.exp(-(abs(y) + v) ** 2 / 2)
            assert law.density_cont(y, v) == pytest.approx(want, rel=1e-14)

    def test_reflection_symmetry(self):
        a, t = 1.3, 0.8
        law_p = JointLocalTimeLaw(t=t, a=a)
        law_m = JointLocalTimeLaw(t=t, a=-a)
        for y, v in ((0.5, 0.4), (-2.0, 1.0), (1.3, 0.01)):
            assert law_p.density_cont(y, v) == \
                pytest.approx(law_m.density_cont(-y, v), rel=1e-14)
            assert law_p.atom_profile(y) == \
                pytest.approx(law_m.atom_profile(-y), rel=1e-14)

    def test_nonpositive_v_rejected(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        with pytest.raises(DomainError):
            law.density_cont(0.0, 0.0)
        with pytest.raises(DomainError):
            law.density_cont(0.0, -1.0)

    def test_atom_reference(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        assert law.atom_profile(0.0) == \
            pytest.approx(0.34495131388824463, rel=1e-14)

    def test_atom_vanishes_at_level_zero(self):
        law = JointLocalTimeLaw(t=1.0, a=0.0)
        for y in (-2.0, -0.5, 0.0):
            assert law.atom_profile(y) == 0.0

    def test_atom_support(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        assert law.atom_profile(1.5) == 0.0
        assert law.atom_profile(0.5) > 0.0
        law_m = JointLocalTimeLaw(t=1.0, a=-1.0)
        assert law_m.atom_profile(-1.5) == 0.0
        assert law_m.atom_profile(0.5) > 0.0


class TestMarginals:
    def test_atom_mass(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        assert law.atom_mass == pytest.approx(0.6826894921370859, rel=1e-14)

    def test_local_time_marginal_halfnormal_at_zero_level(self):
        law = JointLocalTimeLaw(t=2.0, a=0.0)
        dens, atom = law.marginal_local_time(0.7)
        assert atom == 0.0
        assert dens == pytest.approx(math.sqrt(2 / (math.pi * 2.0))
                                     * math.exp(-0.49 / 4.0), rel=1e-14)

    def test_negative_v_rejected(self):
        with pytest.raises(DomainError):
            JointLocalTimeLaw(t=1.0, a=0.5).marginal_local_time(-0.1)

    def test_marginal_total_mass(self):
        for t, a in ((0.5, -2.0), (1.0, 1.0), (4.0, 0.0)):
            law = JointLocalTimeLaw(t=t, a=a)
            dens_mass = integrate_1d(
                lambda v: law.marginal_local_time(v)[0], 0.0, np.inf)
            assert dens_mass + law.atom_mass == pytest.approx(1.0, abs=1e-10)

    def test_joint_normalisation(self):
        for t, a in ((0.5, 1.0), (1.0, -0.5), (4.0, 3.0)):
            law = JointLocalTimeLaw(t=t, a=a)
            cont = law.cell_probability(-np.inf, np.inf, 0.0, np.inf)
            lo, hi = ((-np.inf, a) if a > 0 else (a, np.inf))
            atom = integrate_1d(lambda y: law.atom_profile(y), lo, hi)
            assert cont + atom == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t,a,box", [
        (1.0, 0.5, (-0.5, 1.5, 0.2, 0.9)),
        (0.7, -1.2, (-3.0, -1.0, 0.0, 0.4)),
        (2.0, 0.0, (0.3, 2.5, 1.0, 3.0)),
    ])
    def test_cell_probability_on_a_finite_box(self, t, a, box):
        # A finite v_hi: the exact inner v-integral against quadrature of
        # the density over the same (y, v) box.
        y_lo, y_hi, v_lo, v_hi = box
        law = JointLocalTimeLaw(t=t, a=a)
        want = integrate_1d(
            lambda y: integrate_1d(lambda v: law.density_cont(y, v),
                                   v_lo, v_hi), y_lo, y_hi)
        got = law.cell_probability(y_lo, y_hi, v_lo, v_hi)
        assert want > 1e-3
        assert got == pytest.approx(want, rel=1e-9)

    def test_endpoint_marginal_recovers_gaussian(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        for y in (-2.0, -0.5, 0.3, 0.999, 1.2, 3.0):
            cont = integrate_1d(lambda v: law.density_cont(y, v), 0.0, np.inf)
            total = cont + law.atom_profile(y)
            assert total == pytest.approx(heat_kernel(1.0, y, 1.0), abs=1e-8)

    def test_local_time_marginal_consistent_with_joint(self):
        law = JointLocalTimeLaw(t=0.9, a=-0.8)
        for v in (0.2, 1.0, 2.5):
            got = integrate_1d(lambda y: law.density_cont(y, v),
                               -np.inf, np.inf)
            want, _ = law.marginal_local_time(v)
            assert got == pytest.approx(want, abs=1e-9)


class TestSampler:
    def test_reproducible(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        y1, v1 = law.sample(np.random.default_rng(5), size=1000)
        y2, v2 = law.sample(np.random.default_rng(5), size=1000)
        assert np.array_equal(y1, y2) and np.array_equal(v1, v2)

    def test_scalar_draw(self):
        y, v = JointLocalTimeLaw(t=1.0, a=0.5).sample(
            np.random.default_rng(0))
        assert isinstance(y, float) and isinstance(v, float)
        assert v >= 0.0

    def test_zero_level_never_atomic(self):
        law = JointLocalTimeLaw(t=1.0, a=0.0)
        _, v = law.sample(np.random.default_rng(1), size=50_000)
        assert np.all(v > 0.0)

    def test_atom_frequency(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        _, v = law.sample(np.random.default_rng(2), size=200_000)
        p_hat = np.mean(v == 0.0)
        se = math.sqrt(law.atom_mass * (1 - law.atom_mass) / v.size)
        assert abs(p_hat - law.atom_mass) < 4 * se

    def test_empirical_mgf(self):
        t, a, lam = 1.0, 1.0, 0.8
        law = JointLocalTimeLaw(t=t, a=a)
        _, v = law.sample(np.random.default_rng(3), size=200_000)
        w = np.exp(lam * lam * v)
        z = (w.mean() - mgf_local_time(t, a, lam)) / (w.std(ddof=1) / math.sqrt(w.size))
        assert abs(z) < 4.0

    def test_endpoint_moments(self):
        t = 1.7
        law = JointLocalTimeLaw(t=t, a=-0.6)
        y, _ = law.sample(np.random.default_rng(4), size=300_000)
        assert abs(y.mean()) < 4 * math.sqrt(t / y.size)
        assert y.var() == pytest.approx(t, rel=0.02)

    def test_atom_endpoint_stays_on_support(self):
        law = JointLocalTimeLaw(t=1.0, a=1.0)
        y, v = law.sample(np.random.default_rng(6), size=50_000)
        assert np.all(y[v == 0.0] <= 1.0)

    def test_invalid_size(self):
        with pytest.raises(DomainError):
            JointLocalTimeLaw(t=1.0, a=0.0).sample(np.random.default_rng(0),
                                                   size=0)


class TestFirstPassageConvolution:
    def test_reference_point(self):
        lhs, rhs = first_passage_convolution(1.0, 1.0, 1.0)
        assert rhs == pytest.approx(0.67847049503217647, rel=1e-14)
        assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_discovered_constant_is_two_pi(self):
        lhs, _ = first_passage_convolution(1.0, 1.0, 1.0)
        ratio = lhs / first_passage_rhs_printed(1.0, 1.0, 1.0)
        assert ratio == pytest.approx(2 * math.pi, rel=1e-7)

    def test_swap_symmetry(self):
        lhs_ab, _ = first_passage_convolution(0.8, 0.5, 1.4)
        lhs_ba, _ = first_passage_convolution(0.8, 1.4, 0.5)
        assert lhs_ab == pytest.approx(lhs_ba, rel=1e-10)

    def test_scaling_law(self):
        # lhs(c^2 t, c a, c b) = lhs(t, a, b) / c^2 (substituting s -> c^2 s).
        rng = np.random.default_rng(8)
        for _ in range(25):
            t = float(rng.uniform(0.2, 3))
            a = float(rng.uniform(0.2, 2))
            b = float(rng.uniform(0.2, 2))
            c = float(rng.uniform(0.5, 2))
            base, _ = first_passage_convolution(t, a, b)
            scaled, _ = first_passage_convolution(c * c * t, c * a, c * b)
            assert scaled == pytest.approx(base / (c * c), rel=1e-7)

    def test_zero_levels_rejected(self):
        with pytest.raises(DomainError):
            first_passage_convolution(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            first_passage_convolution(1.0, 1.0, 0.0)

    def test_sign_invariance(self):
        lhs_pp, _ = first_passage_convolution(1.2, 0.7, 0.9)
        lhs_mm, _ = first_passage_convolution(1.2, -0.7, -0.9)
        assert lhs_pp == pytest.approx(lhs_mm, rel=1e-12)


class TestMgfQuadratureConsistency:
    @pytest.mark.parametrize("t,a,lam", [(1.0, 1.0, 0.8), (0.5, -0.5, 1.0),
                                         (2.0, 0.0, 0.9)])
    def test_joint_law_reproduces_mgf(self, t, a, lam):
        law = JointLocalTimeLaw(t=t, a=a)
        l2 = lam * lam
        norm = 1.0 / math.sqrt(2 * math.pi * t ** 3)

        def tilted(y, v):
            r = abs(a) + abs(y - a) + v
            expo = l2 * v - r * r / (2 * t)
            return 0.0 if expo < -700 else norm * r * math.exp(expo)

        cont = integrate_1d(
            lambda y: integrate_1d(lambda v: tilted(y, v), 0.0, np.inf,
                                   abs_tol=1e-13, rel_tol=1e-11),
            -np.inf, np.inf, abs_tol=1e-11, rel_tol=1e-9)
        if a != 0:
            lo, hi = ((-np.inf, a) if a > 0 else (a, np.inf))
            cont += integrate_1d(lambda y: law.atom_profile(y), lo, hi)
        assert cont == pytest.approx(mgf_local_time(t, a, lam), rel=1e-7)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("t,a", [(1.0, math.nan), (1.0, math.inf),
                                     (math.inf, 0.0)])
    def test_rejected(self, t, a):
        with pytest.raises(DomainError):
            JointLocalTimeLaw(t=t, a=a)
