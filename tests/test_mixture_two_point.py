"""The closed two-point route for atoms, Gaussians and their sums
(``measures.mixture_two_point``, behind ``measures.closed_two_point``) and
the bivariate normal CDF it rests on (``gaussian.log_phi2``).

The references were computed once with mpmath at 40 digits and are pinned
here.  ``log_phi2``: the log of ∫_{-inf}^h phi(x) Phi((k - r x) /
sqrt(1 - r²)) dx by mpmath quad on a dense set of breakpoints, tanh-sinh
and Gauss-Legendre agreeing to 1e-25.  Two-point values: the closed J0,
the covariance kernel itself for a pair of atoms, and for every other
ordered pair of components c1 c2 alpha ∫ N(dz; Δ, Σ) N(xbar; mbar +
B (dz - Δ), W) e^{c0 - alpha |dz|} Phi(beta - gamma |dz|) ddz by mpmath
quad in dz, with the same two-rule check.  That route does not go
through Phi2 or dz's law given xbar, which the closed form uses; the
split form cross-checks the zbar integral both share.
"""

import csv
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from scipy import special

from she_moments import cli, measures
from she_moments.errors import DomainError, KernelOverflowError
from she_moments.gaussian import log_phi2
from she_moments.kernels import (KernelParams, TwoPointQuery,
                                 two_point_lebesgue)
from she_moments.measures import (DensityMeasure, DiracAtoms,
                                  GaussianDensity, GrowthCertificate,
                                  LebesgueScaled, MeasureSum, gaussian_density,
                                  mixture_two_point, parse_measure, two_point)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _g(mean, var, mass=1.0):
    return {"type": "gaussian", "mean": mean, "var": var, "mass": mass}


def _atoms(*atoms):
    return {"type": "atoms", "atoms": [list(a) for a in atoms]}


def _sum(*terms):
    return {"type": "sum", "terms": list(terms)}


# (h, k, r, log Phi2)
PHI2_REFS = [
    (-30.0, -30.0, -0.1, "-1008.847872329150638810627"),
    (-30.0, -35.0, -0.9, "-10578.3647636052532701144"),
    (-40.0, -30.0, -0.5, "-2476.856106774786571910213"),
    (-30.0, 5.0, -0.3, "-465.5604714274397721774761"),
    (-35.0, -31.0, 0.0, "-1101.829064889101802052211"),
    (-32.0, -33.0, -0.999, "-1056269.633377641934122933"),
    (0.0, 0.0, -0.5, "-1.791759469228055000812477"),
    (1.0, 2.0, -0.3, "-0.1991354039376478044181055"),
    (-2.0, 3.0, -0.9999, "-3.844353426334205620971592"),
    (5.0, -3.0, -0.999, "-6.607938594596892928126362"),
    (-5.0, -5.0, -0.99, "-2512.309176073794994579669"),
    (3.0, -40.0, -0.2, "-820.2399417286949979173155"),
    (0.5, 0.5, -1e-09, "-0.7378928308365571335175457"),
    (-1.0, 0.5, -0.7, "-3.292343447062230402012115"),
]


@pytest.mark.parametrize("h,k,r,ref", PHI2_REFS)
def test_log_phi2_matches_references(h, k, r, ref):
    # 1e-13 in the log, or 4 ulps of it past |log| ~ 500 where 1e-13 is
    # below one ulp.
    ref = float(ref)
    assert abs(log_phi2(h, k, r) - ref) <= max(1e-13, 4 * np.spacing(abs(ref)))


def test_log_phi2_at_zero_correlation_and_symmetry():
    rng = np.random.default_rng(17)
    h, k = rng.uniform(-40.0, 8.0, (2, 200))
    product = special.log_ndtr(h) + special.log_ndtr(k)
    assert np.allclose(log_phi2(h, k, 0.0), product, rtol=1e-14, atol=1e-14)
    r = -rng.uniform(0.0, 0.999, 200)
    assert np.allclose(log_phi2(h, k, r), log_phi2(k, h, r), rtol=1e-13,
                       atol=1e-14)


@pytest.mark.parametrize("r", [0.1, -1.0, math.nan])
def test_log_phi2_takes_only_nonpositive_correlation(r):
    with pytest.raises(DomainError):
        log_phi2(0.0, 0.0, r)


# (name, measure, (t, x1, x2, nu, lambda), reference)
REFS = [
    ("tail_wide_sep", _g(0.0, 0.05),
     (0.3, -3.0, 3.0, 1.0, 0.5), "3.091704039903260171926811e-12"),
    ("tail_large_lambda", _g(0.0, 0.3),
     (0.2, 0.0, 0.5, 1.0, 5.0), "51685026717.63531394772312"),
    ("tail_diag", _g(0.0, 0.3),
     (1.5, 0.2, 0.2, 1.0, 3.0), "6142686353581.288883993888"),
    ("tail_offdiag", _g(0.0, 0.3),
     (1.5, -1.0, 1.5, 1.0, 3.0), "78907219.17514767219420776"),
    ("var_1e-10", _g(0.2, 1e-10),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.2883628888610453524605274"),
    ("var_1e-08", _g(0.2, 1e-08),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.2883482453330693448286304"),
    ("var_1e-06", _g(0.2, 1e-06),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.2882016998813742075522991"),
    ("var_0.0001", _g(0.2, 0.0001),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.2867253002568028683878801"),
    ("var_0.01", _g(0.2, 0.01),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.2709492820824476031252237"),
    ("var_0.5", _g(0.2, 0.5),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.1526767907754484267068697"),
    ("var_10", _g(0.2, 10.0),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.01889656029575765917043787"),
    ("var_100", _g(0.2, 100.0),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.002037757971743535251943236"),
    ("var_1000", _g(0.2, 1000.0),
     (0.8, -0.3, 0.5, 1.0, 1.0), "0.0002053901256373880765156283"),
    ("pair_unequal", _sum(_g(-1.0, 0.1, 0.7), _g(1.5, 2.0, 1.3)),
     (1.0, 0.0, 1.0, 0.8, 1.2), "0.1850223893118496715618421"),
    ("pair_narrow_wide", _sum(_g(0.0, 1e-06), _g(0.5, 50.0)),
     (0.5, 0.1, -0.2, 1.0, 0.7), "0.4679425221035694124155162"),
    ("pair_signed", _sum(_g(3.0, 0.02, -0.5), _g(-2.0, 4.0, 2.0)),
     (2.0, 1.0, -1.0, 1.5, 0.9), "0.03987594719159977021873686"),
    ("pair_1e3_1e-3", _sum(_g(0.0, 1000.0), _g(0.0, 0.001)),
     (1.2, 0.0, 0.3, 1.0, 1.1), "0.4451919104856487638635417"),
    ("pair_near_equal", _sum(_g(0.3, 0.3), _g(0.3, 0.31)),
     (0.7, -0.4, 0.4, 1.0, 1.3), "0.9324486667564524598897593"),
    ("atom_gauss_bench", _sum(_atoms((-0.6827, 0.9649)), _g(-0.4294, 1.0568)),
     (1.0174, 0.5556, -0.4839, 1.0, 0.8553), "0.3506326469150595844526793"),
    ("atom_gauss_quad", _sum(_atoms((0.4, 1.2)), _g(0.1, 0.9)),
     (0.8, -0.2, 0.6, 1.0, 1.0), "0.9186433691229636158714987"),
    ("atoms2_gauss", _sum(_atoms((-1.0, 0.5), (0.5, 0.8)), _g(0.0, 0.2)),
     (0.6, 0.0, 0.0, 1.0, 2.0), "24.12767856777354380071608"),
    ("atom_narrow_gauss", _sum(_atoms((0.0, 1.0)), _g(0.0, 1e-08)),
     (1.0, 0.2, 0.4, 1.0, 1.0), "1.431705811640701954493283"),
    ("atom_signed_gauss", _sum(_atoms((2.0, 1.0)), _g(-2.0, 0.5, -0.3)),
     (1.5, 0.0, 1.0, 1.0, 0.6), "0.01856029279308838179653834"),
    ("narrow_far", _g(2.0, 0.0001),
     (0.8, 1.9, 1.9, 1.0, 1.0), "0.4739272219492440677313675"),
    ("far_off", _g(50.3, 0.8),
     (1.0, 45.0, 46.5, 1.0, 1.0), "0.0000008262020217894352005712507"),
    ("narrow_1e-5", _g(1.0, 1e-05),
     (0.8, 1.0, 1.2, 1.0, 1.0), "0.4281578991128420669247533"),
    ("short_time", _g(2.0, 0.8),
     (0.05, -0.2, 0.6, 1.0, 1.0), "0.003432013217841916195108208"),
    ("short_time_near", _g(2.0, 0.8),
     (0.05, 1.8, 2.3, 1.0, 1.0), "0.1750164520044080667252618"),
    ("growth_e127", _g(0.0, 0.5),
     (2.0, 0.0, 0.1, 1.0, 4.0), "4.894177492764021065307289e+54"),
    ("growth_e324", _g(0.3, 0.8),
     (1.0, 0.0, 0.0, 1.0, 6.0), "1.29578377176683298174961e+140"),
    ("small_lambda", _g(0.3, 0.8),
     (0.8, -0.2, 0.6, 1.0, 0.05), "0.08950448566099610572689752"),
    ("nu_small", _g(0.0, 0.4),
     (1.0, -0.5, 0.5, 0.1, 1.0), "0.2128675461595090528481547"),
    ("nu_large", _sum(_atoms((0.2, 1.0)), _g(-0.3, 0.6)),
     (0.4, 0.3, -0.6, 7.0, 1.5), "0.2609476174965562093173498"),
    ("wide_sep_sum", _sum(_g(-4.0, 0.5), _g(4.0, 0.5)),
     (1.0, -4.0, 4.0, 1.0, 1.0), "0.1061032955099085782530744"),
]


@pytest.mark.parametrize("name,measure,query,ref", REFS,
                         ids=[row[0] for row in REFS])
def test_closed_value_matches_references(name, measure, query, ref):
    t, x1, x2, nu, lam = query
    value = mixture_two_point(TwoPointQuery(t, x1, x2), parse_measure(measure),
                              KernelParams(nu=nu, lam=lam))
    assert _rel(value, float(ref)) <= 1e-12


@pytest.mark.parametrize("kind", ["gaussian", "unequal_sum", "atom_sum"])
def test_closed_agrees_with_split_on_seeded_draws(kind):
    rng = np.random.default_rng({"gaussian": 1, "unequal_sum": 2,
                                 "atom_sum": 3}[kind])
    worst = 0.0
    for _ in range(40):
        g1 = gaussian_density(rng.uniform(-1.0, 1.0), rng.uniform(0.05, 2.0),
                              rng.uniform(0.5, 1.5))
        if kind == "gaussian":
            mu = g1
        elif kind == "unequal_sum":
            mu = MeasureSum((g1, gaussian_density(
                rng.uniform(-1.0, 1.0), rng.uniform(0.05, 2.0),
                rng.uniform(0.5, 1.5))))
        else:
            mu = MeasureSum((DiracAtoms(((rng.uniform(-1.0, 1.0),
                                          rng.uniform(0.5, 1.5)),)), g1))
        x1 = rng.uniform(-1.0, 1.0)
        q = TwoPointQuery(rng.uniform(0.2, 1.5), x1, x1 + rng.uniform(-2, 2))
        params = KernelParams(nu=rng.uniform(0.5, 2.0),
                              lam=rng.uniform(0.3, 2.0))
        worst = max(worst, _rel(mixture_two_point(q, mu, params),
                                two_point(q, mu, params, formula="split")))
    assert worst <= 1e-10


def test_atom_limit():
    """A Gaussian of variance V tends to an atom with an O(sqrt V) error."""
    q, params = TwoPointQuery(0.8, -0.3, 0.5), KernelParams(nu=1.0, lam=1.2)
    atom = mixture_two_point(q, DiracAtoms(((0.2, 1.3),)), params)
    scaled = [_rel(mixture_two_point(q, gaussian_density(0.2, v, 1.3),
                                     params), atom) / math.sqrt(v)
              for v in (1e-4, 1e-6, 1e-8, 1e-10)]
    assert max(scaled) < 1.0
    assert max(scaled) - min(scaled) < 0.01 * max(scaled)


def test_lebesgue_limit():
    """c sqrt(2 pi V) N(m, V) tends to c times Lebesgue as V grows, with an
    O(1/V) error."""
    q, params = TwoPointQuery(0.8, -0.3, 0.5), KernelParams(nu=1.0, lam=1.2)
    lebesgue = 0.7 ** 2 * two_point_lebesgue(q, params)
    scaled = [_rel(mixture_two_point(q, gaussian_density(
        0.1, v, 0.7 * math.sqrt(2.0 * math.pi * v)), params), lebesgue) * v
              for v in (1e4, 1e6, 1e8)]
    assert max(scaled) < 1.0
    assert max(scaled) - min(scaled) < 0.01 * max(scaled)


def test_zero_coupling_is_the_mean_field_product():
    q, mu = TwoPointQuery(0.8, -0.3, 0.5), gaussian_density(0.2, 0.5)
    params = KernelParams(nu=1.0, lam=0.0)
    j0 = [gaussian_density(0.2, 0.5 + 0.8).f(x) for x in (q.x1, q.x2)]
    assert _rel(mixture_two_point(q, mu, params), j0[0] * j0[1]) <= 1e-15


@pytest.mark.parametrize("mu", [
    LebesgueScaled(1.0),
    MeasureSum((gaussian_density(0.1, 0.5), LebesgueScaled(1e-3))),
    DensityMeasure(lambda x: np.exp(-np.asarray(x) ** 2),
                   GrowthCertificate(amplitude=1.0)),
], ids=["lebesgue", "gaussian_and_lebesgue", "library_density"])
def test_a_measure_without_a_mixture_form_is_refused(mu):
    # A Lebesgue component has V = inf: in _gaussian_pairs it would raise
    # KernelOverflowError, not name the missing closed form.
    with pytest.raises(DomainError, match="no closed two-point form"):
        mixture_two_point(TwoPointQuery(0.8, -0.3, 0.5), mu,
                          KernelParams(nu=1.0, lam=1.2))


def test_overflow_is_refused():
    with pytest.raises(KernelOverflowError):
        mixture_two_point(TwoPointQuery(1.0, 0.0, 0.0),
                          gaussian_density(0.0, 0.5), KernelParams(1.0, 8.0))


def _cli(tmp_path, measure, *extra):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(measure))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["two-point", "--measure", str(path), "--t", "1.1",
                         "--x1", "0.3", "--x2", "-0.8", "--lambda", "0.9",
                         *extra])
    return code, next(csv.DictReader(io.StringIO(out.getvalue())))


@pytest.mark.parametrize("measure", [
    _g(0.2, 0.9), _sum(_atoms((-0.6, 1.1)), _g(0.4, 0.6)),
    _sum(_g(-0.3, 0.7), _g(0.1, 1.4, 0.8))])
def test_method_both_agrees_on_bench_range_queries(tmp_path, measure):
    code, row = _cli(tmp_path, measure, "--method", "both")
    assert code == 0
    assert float(row["rel_diff"]) <= 1e-9


def test_cli_takes_the_closed_route_for_atoms_and_gaussians(monkeypatch,
                                                             tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the split form was called")
    monkeypatch.setattr(measures, "two_point", refuse)
    for measure in (_g(0.2, 0.9), _sum(_atoms((-0.6, 1.1)), _g(0.4, 0.6))):
        assert _cli(tmp_path, measure)[0] == 0


def test_zero_mass_gaussian_term_changes_nothing(tmp_path):
    terms = [_atoms((-0.6, 1.1)), _g(0.4, 0.6)]
    value = _cli(tmp_path, _sum(*terms))[1]["value"]
    for at in range(len(terms) + 1):
        with_zero = terms[:at] + [_g(1.3, 0.2, 0.0)] + terms[at:]
        assert _cli(tmp_path, _sum(*with_zero))[1]["value"] == value


def test_gaussian_density_reads_as_before():
    """The quadrature routes see a GaussianDensity as the DensityMeasure
    gaussian_density built before it kept its parameters."""
    mean, var, mass = 0.3, 0.8, -1.7
    mu = gaussian_density(mean, var, mass)
    assert isinstance(mu, GaussianDensity) and isinstance(mu, DensityMeasure)
    assert (mu.mean, mu.var, mu.mass) == (mean, var, mass)
    norm = mass / math.sqrt(2.0 * math.pi * var)
    xs = np.linspace(-4.0, 4.0, 41)
    assert np.array_equal(mu.f(xs), norm * np.exp(-(xs - mean) ** 2
                                                  / (2.0 * var)))
    assert mu.f(0.7) == norm * math.exp(-(0.7 - mean) ** 2 / (2.0 * var))
    half = 8.0 * math.sqrt(var)
    assert mu.support == (mean - half, mean + half)
    assert mu.certificate == GrowthCertificate(amplitude=abs(norm))
    assert not mu.nonnegative
    tv = mu.total_variation()
    assert tv.mass == -mass and tv.nonnegative
    assert np.array_equal(tv.f(xs), np.abs(mu.f(xs)))
