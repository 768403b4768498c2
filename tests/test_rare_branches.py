"""Branches that the rest of the suite never runs: degenerate coupling,
densities out of every kernel window, the CLI's exit codes on the less
common failures, and the measure checks reached through ``bounds``."""

import json

import pytest

from she_moments import cli
from she_moments.bounds import p_moment_upper_bound, second_moment_lower_bound
from she_moments.errors import InadmissibleMeasureError
from she_moments.kernels import KernelParams, MomentBoundParams, TwoPointQuery
from she_moments.measures import (DiracAtoms, LebesgueScaled, MeasureSum,
                                  gaussian_density, mean_field, second_moment,
                                  two_point)

Q = TwoPointQuery(t=0.8, x1=-0.2, x2=0.6)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestSplitRouteEdges:
    def test_zero_coupling_is_the_mean_field_product(self):
        # lam = 0: the covariance term vanishes, and the first panel width
        # of the separation variable falls back to the Gaussian scale.
        mu = gaussian_density(0.3, 0.8)
        params = KernelParams(nu=1.0, lam=0.0)
        split = two_point(Q, mu, params, formula="split")
        j0 = mean_field(Q.t, Q.x1, mu, 1.0) * mean_field(Q.t, Q.x2, mu, 1.0)
        assert split == j0
        assert _rel(two_point(Q, mu, params, formula="direct"), split) < 1e-12

    def test_density_outside_every_window_adds_nothing(self):
        atom = DiracAtoms(((0.0, 1.0),))
        far = gaussian_density(1000.0, 0.01)
        params = KernelParams(nu=1.0, lam=1.0)
        assert mean_field(Q.t, Q.x1, far, 1.0) == 0.0
        both = MeasureSum((atom, far))
        split = two_point(Q, both, params, formula="split")
        assert split == two_point(Q, atom, params, formula="split")
        assert _rel(two_point(Q, both, params, formula="direct"),
                    split) < 1e-9


class TestCliExitCodes:
    def test_spde_divergence_exit_5(self, capsys, tmp_path):
        cfg = _write(tmp_path, "spde.json", {
            "t": 0.3, "x1": 0.0, "x2": 0.0, "nu": 1.0,
            "measure": {"type": "lebesgue", "scale": 1.0},
            "rho": {"kind": "linear", "lam": 3000.0},
            "grid": {"L": 3.3, "dx": 0.1, "dt": 0.005},
            "mc": {"n_paths": 4, "seed": 0}})
        code, out, err = run_cli(capsys, "simulate", "--engine", "spde",
                                 "--config", cfg)
        assert code == 5
        assert out == ""
        assert "of 4 paths diverged" in err

    def test_method_both_disagreement_exit_1(self, capsys, tmp_path,
                                             monkeypatch):
        measure = _write(tmp_path, "leb.json", {"type": "lebesgue"})
        monkeypatch.setattr(cli, "two_point", lambda *a, **k: 123.0)
        code, out, _ = run_cli(capsys, "two-point", "--measure", measure,
                               "--t", 1, "--x1", 0, "--x2", 0.5,
                               "--lambda", 1, "--method", "both")
        assert code == 1
        assert "123.0" in out

    def test_an_overflowing_gaussian_beside_lebesgue_exit_3(self, capsys,
                                                          tmp_path):
        # var + nu t = 2e308 overflows.  J0 is 1 + 2.8e-155; read as a
        # Lebesgue term by that infinite variance, the Gaussian would add
        # its mass 1 and the row would print 4.0.
        path = _write(tmp_path, "mu.json", {"type": "sum", "terms": [
            {"type": "lebesgue", "scale": 1},
            {"type": "gaussian", "mean": 0, "var": 1e308}]})
        code, out, err = run_cli(capsys, "two-point", "--measure", path,
                                 "--t", "1e308", "--x1", "0", "--x2", "0.5",
                                 "--lambda", "0")
        assert (code, out) == (3, "")
        assert "overflows" in err

    @pytest.mark.parametrize("method", ["closed", "quadrature"])
    @pytest.mark.parametrize("var,t,exact", [
        # (mass / sqrt(2 pi (var + nu t)))^2 at x = mean, by mpmath.
        (5e307, 1.0, 3.1830988618379067e-09),
        (2e307, 1e307, 5.3051647697298445e-09),
    ], ids=["var_5e307", "var_2e307_t_1e307"])
    def test_a_gaussian_whose_2_pi_var_overflows(self, capsys, tmp_path,
                                                var, t, exact, method):
        # 2 pi (var + nu t) overflows while var + nu t does not: taken as
        # one square root, the normaliser is inf and the row 0.0.
        path = _write(tmp_path, "mu.json", {"type": "gaussian", "mean": 0,
                                            "var": var, "mass": 1e150})
        code, out, _ = run_cli(capsys, "two-point", "--measure", path,
                               "--t", t, "--x1", 0, "--x2", 0,
                               "--lambda", 0, "--method", method)
        assert code == 0
        value = float(out.splitlines()[1].split(",")[-1])
        if method == "closed":
            assert _rel(value, exact) < 1e-15
        else:  # the direct quadrature's abs_tol 1e-10, rel_tol 1e-9
            assert abs(value - exact) <= max(1e-10, 1e-9 * exact)

    @pytest.mark.parametrize("grid", ["1:2", "0:1:0"])
    def test_bad_grid_exit_2(self, capsys, grid):
        code, out, _ = run_cli(capsys, "kernel", "--which", "K", "--t", 1,
                               "--x", grid)
        assert (code, out) == (2, "")

    def test_unknown_engine_in_run_file_exit_2(self, capsys, tmp_path):
        run_file = _write(tmp_path, "run.json", {"manifest": {
            "seed": 0, "config_echo": {"engine": "euler", "config": {"t": 1}}}})
        code, out, _ = run_cli(capsys, "simulate", "--from-manifest",
                               run_file)
        assert (code, out) == (2, "")

    def test_simulate_without_config_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--engine", "fk")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, -1.0)])
    def test_empty_indicator_exit_2(self, capsys, tmp_path, lo, hi):
        cfg = _write(tmp_path, "fk.json", {
            "t": 1.0, "u0": {"kind": "indicator", "lo": lo, "hi": hi},
            "mc": {"n_paths": 10, "seed": 0}})
        code, out, _ = run_cli(capsys, "simulate", "--engine", "fk",
                               "--config", cfg)
        assert (code, out) == (2, "")

    def test_local_time_density_at_v_zero_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "local-time", "density", "--t", 1,
                               "--a", 0.5, "--y", 0, "--v", "0:1:3")
        assert (code, out) == (3, "")

    def test_out_file_gets_the_stdout_bytes(self, capsys, tmp_path):
        argv = ["kernel", "--which", "K", "--t", 1, "--x", "-1:1:5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "k.csv"
        assert run_cli(capsys, *argv, "--out", path)[:2] == (0, "")
        assert path.read_bytes() == out.encode()


class TestBoundsMeasureChecks:
    @pytest.mark.parametrize("mu", [
        LebesgueScaled(-1.0),
        MeasureSum((DiracAtoms(((0.0, 1.0),)), LebesgueScaled(-0.5))),
    ], ids=["lebesgue", "sum"])
    def test_lower_bound_refuses_signed_data(self, mu):
        with pytest.raises(InadmissibleMeasureError):
            second_moment_lower_bound(1.0, 0.0, mu, 0.5, 1.0)

    def test_upper_bound_uses_total_variation(self):
        signed = MeasureSum((DiracAtoms(((0.0, 1.0), (0.5, -0.4))),
                             DiracAtoms(((-0.3, -0.7),))))
        tv = MeasureSum((DiracAtoms(((0.0, 1.0), (0.5, 0.4))),
                         DiracAtoms(((-0.3, 0.7),))))
        bounds = MomentBoundParams(p=4, lip_upper=0.6)
        params = KernelParams(nu=1.0, lam=bounds.effective_lambda)
        want = bounds.c_p * second_moment(0.7, 0.2, tv, params,
                                          formula="direct")
        assert p_moment_upper_bound(0.7, 0.2, signed, bounds, 1.0) == want
