"""The direct two-point route: nested adaptive QUADPACK over the full kernel
K_star, the independent oracle behind `verify`, `two-point --method
quadrature|both` and the benchmark's post-check."""

import json
import math

import numpy as np
import pytest

from she_moments.cli import main
from she_moments.errors import KernelOverflowError, QuadratureError
from she_moments.kernels import (KernelParams, TwoPointQuery,
                                 two_point_kernel, two_point_kernel_at)
from she_moments.measures import (DensityMeasure, DiracAtoms, LebesgueScaled,
                                  MeasureSum, _panel_pair, closed_two_point,
                                  gaussian_density, mean_field,
                                  mixture_two_point, two_point)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# verify's form-agreement query and measures, with the values the direct
# route gave when every QUADPACK callback still went through the array
# kernels and numpy scalars.  Cheaper callbacks must not move them.
VERIFY_QUERY = TwoPointQuery(t=0.8, x1=-0.2, x2=0.6)
PINNED_DIRECT = {
    "delta": (DiracAtoms(((0.0, 1.0),)), 0.27775109188345554),
    "two_atoms": (DiracAtoms(((0.0, 1.0), (1.0, 1.0))), 0.7091738214647939),
    "lebesgue": (LebesgueScaled(1.0), 1.291641496212444),
    "gaussian": (gaussian_density(0.3, 0.8), 0.1241028878842077),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIRECT))
def test_direct_values_are_pinned(name):
    mu, pinned = PINNED_DIRECT[name]
    value = two_point(VERIFY_QUERY, mu, KernelParams(nu=1.0, lam=1.0),
                      formula="direct")
    assert _rel(value, pinned) <= 1e-12


def test_point_kernel_matches_the_array_kernel():
    # The float closure against the array formula (one-element arrays take
    # the numpy paths of heat_kernel and exp_phi), over lambda = 0, both
    # signs of the Phi argument d, and the region where exp(c) Phi(d)
    # overflows: there both must raise, on the same draws.
    rng = np.random.default_rng(20261018)
    n = 12_000
    nu = rng.uniform(0.2, 3.0, n)
    t = rng.uniform(0.05, 5.0, n)
    lam = rng.uniform(0.0, 12.0, n)
    lam[::8] = 0.0
    x1, x2, z1, z2 = rng.uniform(-4.0, 4.0, (4, n))
    worst = 0.0
    seen = {"lam0": 0, "d<0": 0, "d>=0": 0, "overflow": 0}
    for i in range(n):
        q = TwoPointQuery(float(t[i]), float(x1[i]), float(x2[i]))
        params = KernelParams(nu=float(nu[i]), lam=float(lam[i]))
        try:
            point = two_point_kernel_at(q, params)(float(z1[i]),
                                                   float(z2[i]))
        except KernelOverflowError:
            point = None
        try:
            with np.errstate(over="ignore"):
                array = two_point_kernel(q.t, np.array([q.x1 - z1[i]]),
                                         np.array([q.x2 - z2[i]]),
                                         q.x1 - q.x2, params)[0]
        except KernelOverflowError:
            array = None
        assert (point is None) == (array is None), i
        if point is None or math.isinf(point):
            # exp(c) Phi(d) fits, but not its product with the prefactor.
            assert point == array, i
            seen["overflow"] += 1
            continue
        w = abs(q.x1 - q.x2) + abs(z1[i] - z2[i])
        d = (params.lam2 * q.t - w) / math.sqrt(2.0 * params.nu * q.t)
        seen["lam0" if lam[i] == 0 else "d<0" if d < 0 else "d>=0"] += 1
        worst = max(worst, _rel(point, float(array)))
    assert worst <= 1e-12, worst
    assert min(seen.values()) >= 500, seen


def test_atom_density_terms_break_at_the_atom():
    # The sum query of round 0 of the benchmark's two-point mix at seed 201.
    # The kernel has a kink at the atom; integrated over the whole line in
    # one piece, QUADPACK missed its 1e-9 request by 3.5e-6 here.
    mu = MeasureSum((DiracAtoms(((-0.6827240262051248, 0.9648813911019154),)),
                     gaussian_density(-0.4294175027903082,
                                      1.0568433931396757)))
    q = TwoPointQuery(t=1.0173706368756443, x1=0.5555793260818296,
                      x2=-0.48386799642642253)
    params = KernelParams(nu=1.0, lam=0.8553251057646196)
    assert _rel(two_point(q, mu, params, formula="direct"),
                two_point(q, mu, params, formula="split")) <= 1e-9


# At small t every Gaussian factor of K_star is a spike of width ~sqrt(nu t)
# at a point where no kink is: a long QUADPACK piece would step over it.
SMALL_T_MEASURES = {
    "lebesgue": LebesgueScaled(1.0),
    "gaussian": gaussian_density(0.0, 1.0),
    "atom_gaussian": MeasureSum((DiracAtoms(((0.0, 1.0),)),
                                 gaussian_density(0.0, 1.0))),
    "two_atoms": DiracAtoms(((0.0, 1.0), (0.5, 0.5))),
}


@pytest.mark.parametrize("name", sorted(SMALL_T_MEASURES))
def test_closed_and_direct_agree_at_small_t(name):
    mu = SMALL_T_MEASURES[name]
    params = KernelParams(nu=1.0, lam=1.0)
    worst = {}
    for k in range(2, 13):
        for dx in (0.0, 0.5, 2.0):
            q = TwoPointQuery(t=10.0 ** -k, x1=0.0, x2=dx)
            worst[(k, dx)] = _rel(closed_two_point(q, mu, params),
                                  two_point(q, mu, params, formula="direct"))
    assert max(worst.values()) <= 1e-9, worst


def _cli(capsys, tmp_path, measure, *argv):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(measure))
    code = main([argv[0], "--measure", str(path), *argv[1:]])
    out = capsys.readouterr()
    return code, out.out, out.err


def _column(out, name):
    header, row = out.splitlines()
    return float(row.split(",")[header.split(",").index(name)])


@pytest.mark.parametrize("measure,argv,value", [
    ({"type": "lebesgue", "scale": 1},
     ["two-point", "--t", "1e-4", "--x1", "0", "--x2", "2"], 1.0),
    ({"type": "gaussian", "mean": 0, "var": 1},
     ["two-point", "--t", "1e-3", "--x1", "0", "--x2", "2"], None),
    ({"type": "gaussian", "mean": 0, "var": 1},
     ["second-moment", "--t", "1e-6", "--x", "0"], None),
], ids=["lebesgue", "gaussian", "second_moment"])
def test_small_t_queries_from_the_cli(capsys, tmp_path, measure, argv, value):
    code, out, _ = _cli(capsys, tmp_path, measure, *argv, "--method", "both")
    assert code == 0
    assert _column(out, "rel_diff") <= 1e-9
    if value is not None:
        code, out, _ = _cli(capsys, tmp_path, measure, *argv,
                            "--method", "quadrature")
        assert code == 0
        assert _rel(_column(out, "value"), value) <= 1e-9


def test_a_factor_below_double_resolution_is_refused(capsys, tmp_path):
    # At t = 1e-100 the inner factor G_{2 nu}(t, dx - dz) is 1.4e-50 wide at
    # dz = 0.5, where doubles are 1.1e-16 apart: no rule can see it.
    with pytest.raises(QuadratureError, match="narrower than the spacing"):
        two_point(TwoPointQuery(1e-100, 0.0, 0.5), LebesgueScaled(1.0),
                  KernelParams(nu=1.0, lam=1.0), formula="direct")
    code, out, err = _cli(capsys, tmp_path, {"type": "lebesgue", "scale": 1},
                          "two-point", "--t", "1e-100", "--x1", "0",
                          "--x2", "0.5", "--method", "quadrature")
    assert code == 3
    assert out == ""
    assert "narrower than the spacing" in err


def test_a_narrow_peak_rounded_off_by_the_rotation_is_refused():
    # nu t = 1e-220: the kernel peaks at (z1, z2) = (x1, x2), but x_bar =
    # 0.5 loses x2, and the integrand read at (x_bar, dx) is 0.  The value,
    # 1.6e-61, lies inside the peak, which no rule can see.
    mu = gaussian_density(1e-320, 1e20, mass=1e-20)
    q = TwoPointQuery(t=1e-20, x1=1.0, x2=3.577856968656879e-31)
    params = KernelParams(nu=1e-200, lam=1e-320)
    assert closed_two_point(q, mu, params) == pytest.approx(
        1e-40 / (2e20 * math.pi), rel=1e-12)
    with pytest.raises(QuadratureError, match="narrower than the spacing"):
        two_point(q, mu, params, formula="direct")
    # The split form's J0 = mean_field reads the heat kernel's window
    # around x1, 9e-110 wide, which rounds to 1.0 inside the support; the
    # Gaussian's exact smoothing stands in for the quadrature there.
    assert two_point(q, mu, params, formula="split") == pytest.approx(
        1e-40 / (2e20 * math.pi), rel=1e-12)


def test_a_heat_window_that_rounds_to_x_takes_the_gaussians_exact_j0():
    # var = 4.84e-34 and nu t = 1.21e-34: the support 1.5 +- 1.8e-16 holds
    # doubles besides 1.5, but the heat window, ~1e-16 wide, rounds to 1.5
    # on both sides.  J0 = N(1.5; 1.5, var + nu t), not f(1.5), which is
    # sqrt(1.25) times larger.
    gauss = gaussian_density(1.5, 4.84e-34)
    j0 = 1.0 / math.sqrt(2.0 * math.pi * (4.84e-34 + 1.21e-34))
    assert mean_field(1.21e-34, 1.5, gauss, 1.0) == pytest.approx(j0,
                                                                  rel=1e-15)
    assert gauss.f(1.5) == pytest.approx(math.sqrt(1.25) * j0, rel=1e-15)
    q = TwoPointQuery(t=1.21e-34, x1=1.5, x2=1.5)
    params = KernelParams(nu=1.0, lam=1e-100)
    mu = MeasureSum((LebesgueScaled(1e-40), gauss))
    assert closed_two_point(q, mu, params) == pytest.approx(
        mixture_two_point(q, gauss, params), rel=1e-12)
    assert closed_two_point(q, mu, params) == pytest.approx(j0 * j0,
                                                            rel=1e-12)
    # Lebesgue 1 + N(0, 1) of mass 1e-20 at nu t = 1e-220, x = 1.
    small = gaussian_density(0.0, 1.0, mass=1e-20)
    q = TwoPointQuery(t=1e-20, x1=1.0, x2=1.0)
    params = KernelParams(nu=1e-200, lam=1e-100)
    assert closed_two_point(q, MeasureSum((LebesgueScaled(1.0), small)),
                            params) == pytest.approx(1.0, rel=1e-12)


def test_a_rounded_heat_window_is_refused_only_for_a_library_density():
    gauss = gaussian_density(0.0, 1.0, mass=1e-20)
    # At a support end the window is cut, but a Gaussian's J0 is its exact
    # smoothing, mass N(x; mean, var + nu t), and reads no window.
    j0 = mean_field(1e-20, gauss.support[1], gauss, 1e-200)
    assert j0 == pytest.approx(
        1e-20 * math.exp(-32.0) / math.sqrt(2.0 * math.pi), rel=1e-15)
    # A library density has no exact smoothing to take.
    other = DensityMeasure(gauss.f, gauss.certificate, support=gauss.support)
    with pytest.raises(QuadratureError, match="narrower than the spacing"):
        mean_field(1e-20, 1.0, other, 1e-200)
    # nu t = 4.9e-35 at x = 1, a power of two: the window, 6.3e-17 each
    # way, rounds to 1 above but holds 1 - 2^-53 below.
    assert 1.0 - 6.3e-17 < 1.0 == 1.0 + 6.3e-17
    assert mean_field(4.9e-35, 1.0, gaussian_density(1.0, 1.0),
                      1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                            rel=1e-15)


@pytest.mark.parametrize("term1", [
    gaussian_density(1e-320, 1e20, mass=1e-20), DiracAtoms(((1.0, 1.0),)),
], ids=["density", "atom"])
def test_the_split_pair_refuses_a_peak_that_rounds_away(term1):
    # At x1 = x2 = 1 and nu t = 1e-220, K_dag peaks at z1 = z2 = 1 with
    # lam^2 / 2 nu = 1/2; its zbar factor reaches 6e-110 about its peak,
    # below the spacing of doubles at 1.  The pair integral once read 0.
    q = TwoPointQuery(t=1e-20, x1=1.0, x2=1.0)
    params = KernelParams(nu=1e-200, lam=1e-100)
    with pytest.raises(QuadratureError, match="narrower than the spacing"):
        _panel_pair(term1, gaussian_density(1e-320, 1e20, mass=1e-20), q,
                    params, 1e-10, 1e-9)


def test_a_narrow_factor_that_carries_nothing_is_not_refused():
    # At t = 1e-40 the atom's factor at x1 + x2 - 1 = -1 is 1.4e-20 wide,
    # below the spacing of doubles there, but the integrand is 0 at its
    # peak: G_nu(t, x2 - z) vanishes 1 away from x2.  Only the Gaussian
    # term's own spike at the origin carries the value.
    mu = MeasureSum((DiracAtoms(((1.0, 1.0),)), gaussian_density(0.0, 1.0)))
    q = TwoPointQuery(t=1e-40, x1=0.0, x2=0.0)
    params = KernelParams(nu=1.0, lam=1.0)
    closed = closed_two_point(q, mu, params)
    assert closed == pytest.approx(0.15915494309189535, rel=1e-12)
    assert _rel(two_point(q, mu, params, formula="direct"), closed) <= 1e-6
    assert _rel(two_point(q, mu, params, formula="split"), closed) <= 1e-6
