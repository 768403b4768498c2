import math

import pytest

from she_moments.errors import DomainError, PoleError
from she_moments.gaussian import heat_kernel
from she_moments.kernels import KernelParams, second_moment_time_factor
from she_moments.transforms import (CASE_NAMES, TransformCase,
                                    conv_heat_offset_factor,
                                    conv_heat_offset_factor_quad,
                                    conv_heat_time_factor,
                                    conv_heat_time_factor_quad,
                                    inverse_transform_f1, inverse_transform_f2,
                                    inverse_transform_f3, laplace_closed,
                                    laplace_numeric,
                                    time_factor_transform_summands)

P11 = KernelParams(nu=1.0, lam=1.0)


class TestClosedForms:
    def test_heat_kernel_transform_at_origin(self):
        case = TransformCase("LapG", nu=1.0, x=0.0)
        assert laplace_closed(case, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_first_passage_kernel_transform(self):
        case = TransformCase("LapGa", a=1.0)
        assert laplace_closed(case, 1.0) == \
            pytest.approx(0.60940328056875752, rel=1e-14)

    def test_f2_at_origin(self):
        case = TransformCase("F2", nu=1.0, x=0.0)
        assert laplace_closed(case, 2.0) == pytest.approx(1.0 / 8.0, rel=1e-14)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(DomainError):
            laplace_closed(TransformCase("LapG"), 0.0)

    @pytest.mark.parametrize("name", ["LapH", "F1Minus", "F3Minus", "ConvGH",
                                      "ConvGHtilde"])
    def test_pole_exclusion(self, name):
        case = TransformCase(name, nu=1.0, lam=1.0, x=0.5, x2=0.5)
        with pytest.raises(PoleError):
            laplace_closed(case, 0.25)

    def test_unknown_case_rejected(self):
        with pytest.raises(DomainError):
            TransformCase("LapQ")

    def test_partial_fraction_recomposition(self):
        for z in (0.3, 0.6, 1.0, 2.7):
            printed, recomposed = time_factor_transform_summands(1.0, 1.0, z)
            assert printed == pytest.approx(recomposed, abs=1e-12)


class TestNumericTransform:
    def test_heat_kernel_roundtrip(self):
        got = laplace_numeric(lambda t: heat_kernel(t, 0.0, 2.0), 1.0)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_constant_function(self):
        got = laplace_numeric(lambda t: 1.0, 1.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_first_passage_kernel(self):
        def g1(t):
            return 0.0 if 0.5 / t > 700 else abs(1.0) * t ** -1.5 * math.exp(-0.5 / t)
        got = laplace_numeric(g1, 1.0)
        assert got == pytest.approx(0.60940328056875752, abs=1e-8)

    def test_first_passage_kernel_at_tiny_time(self):
        # No t ** -1.5, which overflows here: sqrt(2 pi) (a / t) G_1(t, a).
        assert TransformCase("LapGa", a=1.0).time_fn()(1e-300) == 0.0

    def test_growth_bound_enforced(self):
        with pytest.raises(DomainError):
            laplace_numeric(lambda t: math.exp(t), 0.5, tail_bound=1.0)

    @pytest.mark.parametrize("name", CASE_NAMES)
    @pytest.mark.parametrize("z", [0.3, 1.0, 3.0])
    def test_all_pairs_roundtrip(self, name, z):
        kwargs = {"nu": 1.0, "lam": 1.0}
        if name == "LapGa":
            kwargs = {"a": 1.0}
        elif name in ("LapG", "F1Plus", "F1Minus", "F2", "F3Plus", "F3Minus",
                      "ConvGH"):
            kwargs["x"] = 0.7
        elif name == "ConvGHtilde":
            kwargs.update(x=0.8, x2=0.5)
        case = TransformCase(name, **kwargs)
        closed = laplace_closed(case, z)
        numeric = laplace_numeric(case.time_fn(), z,
                                  tail_bound=case.growth_rate())
        tol = 1e-6 if name.startswith("F3") else 1e-7
        assert numeric == pytest.approx(closed, rel=tol)


class TestInversePieces:
    def test_f1_minus_reference(self):
        assert inverse_transform_f1(1.0, 1.0, -1, P11) == \
            pytest.approx(0.097350097883925609, rel=1e-13)

    def test_f1_minus_at_origin_matches_growth_term(self):
        # At x = 0, the minus piece is (1/4 nu) e^{lam^4 t / 4 nu}
        # Phi(lam^2 sqrt(t / 2 nu)).
        from she_moments.gaussian import exp_phi
        t = 1.3
        want = 0.25 * exp_phi(t / 4.0, math.sqrt(t / 2.0))
        assert inverse_transform_f1(t, 0.0, -1, P11) == \
            pytest.approx(want, rel=1e-13)

    def test_f3_composition(self):
        for sign in (+1, -1):
            t, x = 0.9, 0.6
            want = sign * (inverse_transform_f2(t, x, P11) / 2.0
                           - inverse_transform_f1(t, x, sign, P11))
            assert inverse_transform_f3(t, x, sign, P11) == \
                pytest.approx(want, rel=1e-14)

    def test_invalid_sign(self):
        with pytest.raises(DomainError):
            inverse_transform_f1(1.0, 0.0, 0, P11)

    def test_offset_factor_uses_f1(self):
        # Ht(t, x) = G_{2 nu}(t, x) + 2 lam^2 * f1_minus(t, x).
        from she_moments.kernels import two_point_time_factor
        t, x = 1.1, 0.8
        want = heat_kernel(t, x, 2.0) + 2.0 * inverse_transform_f1(t, x, -1, P11)
        assert float(two_point_time_factor(t, x, P11)) == \
            pytest.approx(want, rel=1e-13)


class TestConvolutionIdentities:
    def test_time_factor_reference(self):
        assert conv_heat_time_factor(1.0, 1.0, P11) == \
            pytest.approx(0.19470019576785122, rel=1e-13)

    def test_offset_reference(self):
        assert conv_heat_offset_factor(1.0, 1.0, 1.0, P11) == \
            pytest.approx(0.056624954939086637, rel=1e-13)

    def test_zero_coupling_rejected(self):
        p0 = KernelParams(nu=1.0, lam=0.0)
        with pytest.raises(DomainError):
            conv_heat_time_factor(1.0, 0.5, p0)
        with pytest.raises(DomainError):
            conv_heat_offset_factor(1.0, 0.5, 0.5, p0)

    @pytest.mark.parametrize("t,dz,lam", [(0.4, 0.0, 1.0), (1.0, 1.0, 0.7),
                                          (2.5, 2.0, 1.4)])
    def test_time_factor_against_quadrature(self, t, dz, lam):
        p = KernelParams(nu=1.0, lam=lam)
        assert conv_heat_time_factor_quad(t, dz, p) == \
            pytest.approx(conv_heat_time_factor(t, dz, p), rel=1e-7)

    @pytest.mark.parametrize("t,dx,dz,lam", [(0.4, 0.3, 0.0, 1.0),
                                             (1.0, 0.8, 1.0, 0.7),
                                             (2.5, 1.3, 2.0, 1.4)])
    def test_offset_factor_against_quadrature(self, t, dx, dz, lam):
        p = KernelParams(nu=1.0, lam=lam)
        assert conv_heat_offset_factor_quad(t, dx, dz, p) == \
            pytest.approx(conv_heat_offset_factor(t, dx, dz, p), rel=1e-7)

    def test_offset_reduces_to_time_factor_at_origin(self):
        assert conv_heat_offset_factor(1.0, 0.0, 0.0, P11) == \
            pytest.approx(conv_heat_time_factor(1.0, 0.0, P11), rel=1e-14)

    def test_depends_on_total_separation(self):
        a = conv_heat_offset_factor(0.9, 1.0, 0.5, P11)
        b = conv_heat_offset_factor(0.9, 0.5, 1.0, P11)
        c = conv_heat_offset_factor(0.9, -1.5, 0.0, P11)
        assert a == pytest.approx(b, rel=1e-14)
        assert a == pytest.approx(c, rel=1e-14)

    def test_second_moment_time_factor_via_lebesgue_growth(self):
        # (1 / 2 nu) e^{...} Phi(...) at dz = 0 equals the lam^2-weighted
        # growth part of H(t).
        t = 1.4
        got = conv_heat_time_factor(t, 0.0, P11)
        want = second_moment_time_factor(t, P11) - 1.0 / math.sqrt(4 * math.pi * t)
        assert got == pytest.approx(want, rel=1e-12)
