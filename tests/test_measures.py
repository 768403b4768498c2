import math

import numpy as np
import pytest

from she_moments.errors import (DomainError, InadmissibleMeasureError,
                                KernelOverflowError)
from she_moments.gaussian import heat_kernel
from she_moments.kernels import (KernelParams, TwoPointQuery,
                                 second_moment_kernel, two_point_kernel,
                                 two_point_lebesgue)
from she_moments.measures import (DensityMeasure, DiracAtoms,
                                  GrowthCertificate, LebesgueScaled,
                                  MeasureSum, check_membership,
                                  gaussian_density, mean_field, parse_measure,
                                  second_moment, two_point)

P11 = KernelParams(nu=1.0, lam=1.0)


class TestParsing:
    def test_atoms_roundtrip(self):
        cfg = {"type": "atoms", "atoms": [[0.0, 1.0], [1.5, -0.5]]}
        mu = parse_measure(cfg)
        assert isinstance(mu, DiracAtoms)
        assert mu.atoms == ((0.0, 1.0), (1.5, -0.5))

    def test_lebesgue(self):
        mu = parse_measure({"type": "lebesgue", "scale": 2.5})
        assert isinstance(mu, LebesgueScaled)
        assert mu.scale == 2.5

    def test_gaussian(self):
        mu = parse_measure({"type": "gaussian", "mean": 0.0, "var": 1.0,
                            "mass": 2.0})
        assert isinstance(mu, DensityMeasure)
        assert float(mu.f(0.0)) == pytest.approx(2.0 / math.sqrt(2 * math.pi))

    def test_sum(self):
        mu = parse_measure({"type": "sum", "terms": [
            {"type": "atoms", "atoms": [[0.0, 1.0]]},
            {"type": "lebesgue", "scale": 1.0}]})
        assert isinstance(mu, MeasureSum)
        assert len(mu.primitive_terms()) == 2

    def test_unknown_type_rejected(self):
        with pytest.raises(InadmissibleMeasureError):
            parse_measure({"type": "cauchy"})


class TestGrowthCertificates:
    def test_super_gaussian_rejected(self):
        cert = GrowthCertificate(amplitude=1.0, rate=1.0, power=2.0)
        assert not cert.admissible
        with pytest.raises(InadmissibleMeasureError):
            DensityMeasure(lambda x: np.exp(x * x), cert)

    def test_decaying_gaussian_envelope_ok(self):
        cert = GrowthCertificate(amplitude=1.0, rate=-0.5, power=2.0)
        DensityMeasure(lambda x: np.exp(-x * x), cert)

    def test_subquadratic_exponential_ok(self):
        cert = GrowthCertificate(amplitude=2.0, rate=3.0, power=1.5)
        DensityMeasure(lambda x: 2.0 * np.exp(3.0 * np.abs(x) ** 1.5), cert)


class TestMeanField:
    def test_point_mass(self):
        mu = DiracAtoms(((0.0, 1.0),))
        for t, x, nu in ((0.5, 0.3, 1.0), (2.0, -1.0, 0.7)):
            assert mean_field(t, x, mu, nu) == \
                pytest.approx(heat_kernel(t, x, nu), rel=1e-14)

    def test_lebesgue(self):
        mu = LebesgueScaled(1.0)
        assert mean_field(3.0, 17.0, mu, 2.0) == 1.0
        assert mean_field(0.1, 0.0, LebesgueScaled(2.5), 1.0) == 2.5

    def test_density_against_analytic_convolution(self):
        # f(x) = exp(-x^2) is sqrt(pi) times a N(0, 1/2) density; its heat
        # smoothing is sqrt(pi) times a N(0, 1/2 + nu t) density.
        mu = DensityMeasure(lambda x: np.exp(-np.asarray(x) ** 2),
                            GrowthCertificate(amplitude=1.0),
                            nonnegative=True)
        got = mean_field(0.7, 0.9, mu, 1.3)
        assert got == pytest.approx(0.44681864390484368, rel=1e-9)

    def test_sum_additive(self):
        mu = MeasureSum((DiracAtoms(((0.0, 1.0),)), LebesgueScaled(1.0)))
        assert mean_field(1.0, 0.0, mu, 1.0) == \
            pytest.approx(1.0 + heat_kernel(1.0, 0.0, 1.0), rel=1e-14)


class TestSecondMoment:
    def test_delta_matches_kernel(self):
        mu = DiracAtoms(((0.0, 1.0),))
        for t, x, lam in ((0.3, 0.0, 1.0), (1.0, 0.7, 0.8), (2.0, 1.5, 1.3)):
            p = KernelParams(nu=1.0, lam=lam)
            got = second_moment(t, x, mu, p)
            want = float(second_moment_kernel(t, x, p)) / lam ** 2
            assert got == pytest.approx(want, rel=1e-8)

    def test_scaled_delta_bilinearity(self):
        mu1 = DiracAtoms(((0.0, 1.0),))
        mu3 = DiracAtoms(((0.0, 3.0),))
        a = second_moment(1.0, 0.4, mu1, P11)
        b = second_moment(1.0, 0.4, mu3, P11)
        assert b == pytest.approx(9.0 * a, rel=1e-10)

    def test_lebesgue_matches_closed_form(self):
        got = second_moment(1.0, 0.0, LebesgueScaled(1.0), P11)
        assert got == pytest.approx(1.9523604891825571, rel=1e-7)

    def test_nonnegative_measure_dominates_mean_square(self):
        mu = gaussian_density(0.0, 1.0)
        got = second_moment(0.8, 0.3, mu, P11)
        j0 = mean_field(0.8, 0.3, mu, 1.0)
        assert got > j0 * j0


class TestTwoPoint:
    def test_delta_matches_closed_form(self):
        mu = DiracAtoms(((0.0, 1.0),))
        q = TwoPointQuery(t=1.0, x1=-0.3, x2=0.9)
        assert two_point(q, mu, P11) == \
            pytest.approx(float(two_point_kernel(q.t, q.x1, q.x2, q.x1 - q.x2,
                                                 P11)), rel=1e-12)

    def test_lebesgue_matches_closed_form(self):
        q = TwoPointQuery(t=1.0, x1=0.0, x2=1.0)
        got = two_point(q, LebesgueScaled(1.0), P11)
        assert got == pytest.approx(two_point_lebesgue(q, P11), rel=1e-7)

    def test_two_atoms_against_brute_force(self):
        a, b = -0.4, 1.1
        mu = DiracAtoms(((a, 1.0), (b, 1.0)))
        q = TwoPointQuery(t=0.7, x1=0.0, x2=0.5)
        brute = sum(
            float(two_point_kernel(q.t, q.x1 - zi, q.x2 - zj, q.x1 - q.x2, P11))
            for zi in (a, b) for zj in (a, b))
        assert two_point(q, mu, P11) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("mu", [
        DiracAtoms(((0.0, 1.0),)),
        DiracAtoms(((0.0, 1.0), (1.0, 1.0))),
        LebesgueScaled(1.0),
        gaussian_density(0.3, 0.8),
    ], ids=["delta", "two_atoms", "lebesgue", "gaussian"])
    def test_split_and_direct_forms_agree(self, mu):
        q = TwoPointQuery(t=0.8, x1=-0.2, x2=0.6)
        split = two_point(q, mu, P11, formula="split")
        direct = two_point(q, mu, P11, formula="direct")
        assert split == pytest.approx(direct, rel=1e-7)

    def test_observation_swap_symmetry(self):
        mu = gaussian_density(0.5, 0.6)
        qa = TwoPointQuery(t=0.6, x1=-0.3, x2=0.8)
        qb = TwoPointQuery(t=0.6, x1=0.8, x2=-0.3)
        assert two_point(qa, mu, P11) == pytest.approx(two_point(qb, mu, P11),
                                                       rel=1e-9)

    def test_exceeds_mean_field_product(self):
        mu = DiracAtoms(((0.0, 1.0), (0.7, 2.0)))
        q = TwoPointQuery(t=0.9, x1=0.1, x2=0.4)
        j0j0 = mean_field(q.t, q.x1, mu, 1.0) * mean_field(q.t, q.x2, mu, 1.0)
        assert two_point(q, mu, P11) > j0j0

    def test_unknown_formula_rejected(self):
        with pytest.raises(DomainError):
            two_point(TwoPointQuery(1.0, 0.0, 0.0), LebesgueScaled(1.0), P11,
                      formula="mystery")


class TestMembership:
    def test_point_mass(self):
        report = check_membership(DiracAtoms(((0.0, 1.0),)), [0.5, 1.0, 2.0])
        assert all(row["integral"] == 1.0 for row in report)

    def test_lebesgue_gaussian_integral(self):
        report = check_membership(LebesgueScaled(1.0), [1.0])
        assert report[0]["integral"] == pytest.approx(math.sqrt(math.pi),
                                                      rel=1e-12)

    def test_signed_atoms_use_total_variation(self):
        report = check_membership(DiracAtoms(((0.0, -2.0),)), [1.0])
        assert report[0]["integral"] == 2.0

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            check_membership(LebesgueScaled(1.0), [])

    def test_nonpositive_a_rejected(self):
        with pytest.raises(DomainError):
            check_membership(LebesgueScaled(1.0), [1.0, 0.0])


class TestNonFiniteMeasures:
    @pytest.mark.parametrize("atoms", [
        ((np.inf, 1.0),), ((0.0, 1.0), (1.0, np.nan))])
    def test_atoms(self, atoms):
        with pytest.raises(InadmissibleMeasureError):
            DiracAtoms(atoms)

    def test_lebesgue_scale(self):
        with pytest.raises(InadmissibleMeasureError):
            parse_measure({"type": "lebesgue", "scale": float("nan")})

    @pytest.mark.parametrize("mean,var,mass", [
        (np.inf, 1.0, 1.0), (0.0, np.inf, 1.0), (0.0, 1.0, np.nan)])
    def test_gaussian_density(self, mean, var, mass):
        with pytest.raises(InadmissibleMeasureError):
            gaussian_density(mean, var, mass)

    @pytest.mark.parametrize("degree,rate", [(np.inf, 0.0), (0.0, np.nan)])
    def test_certificate(self, degree, rate):
        with pytest.raises(DomainError):
            GrowthCertificate(1.0, degree=degree, rate=rate, power=1.0)


class TestMalformedSpecs:
    @pytest.mark.parametrize("spec", [
        {"type": "atoms", "atoms": [[0]]},
        {"type": "atoms", "atoms": [[0.0, 1.0, 2.0]]},
        {"type": "atoms", "atoms": 5},
        {"type": "gaussian", "mean": "x", "var": 1.0},
        {"type": "sum", "terms": [{"type": "atoms", "atoms": [[1]]}]},
    ], ids=["atom_without_mass", "atom_triple", "atoms_not_a_list",
            "non_numeric_mean", "nested_atom_without_mass"])
    def test_rejected_as_inadmissible(self, spec):
        with pytest.raises(InadmissibleMeasureError):
            parse_measure(spec)


@pytest.mark.parametrize("formula", ["split", "direct"])
def test_atom_sum_overflow_raises(formula):
    # The squared mass, 1e400, leaves double precision.
    mu = DiracAtoms(((0.0, 1e200), (0.5, 1.0)))
    with pytest.raises(KernelOverflowError):
        two_point(TwoPointQuery(t=1.0, x1=0.0, x2=1.0), mu, P11,
                  formula=formula)
