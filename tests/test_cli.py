import csv
import io
import json

import numpy as np
import pytest

from she_moments import __version__, cli
from she_moments.cli import build_parser, main
from she_moments.gaussian import heat_kernel
from she_moments.kernels import (KernelParams, TwoPointQuery, mgf_local_time,
                                 two_point_lebesgue)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@pytest.fixture()
def lebesgue_file(tmp_path):
    path = tmp_path / "leb.json"
    path.write_text(json.dumps({"type": "lebesgue", "scale": 1.0}))
    return str(path)


@pytest.fixture()
def delta_file(tmp_path):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps({"type": "atoms", "atoms": [[0.0, 1.0]]}))
    return str(path)


class TestKernelCommand:
    def test_zero_coupling_column_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--which", "K", "--t", "1",
                               "--nu", "1", "--lambda", "0", "--x", "-2:2:5")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 5
        assert all(float(r["value"]) == 0.0 for r in rows)

    def test_csv_is_crlf(self, capsys):
        _, out, _ = run_cli(capsys, "kernel", "--which", "H", "--t", "1")
        assert "\r\n" in out

    def test_kstar_zero_coupling_is_heat_product(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--which", "Kstar", "--t", "1",
                               "--nu", "1", "--lambda", "0",
                               "--z1", "-1:1:3", "--z2", "0.5", "--y", "0.3")
        assert code == 0
        for row in parse_csv(out):
            want = heat_kernel(1.0, float(row["z1"]), 1.0) \
                * heat_kernel(1.0, float(row["z2"]), 1.0)
            assert float(row["value"]) == pytest.approx(want, rel=1e-12)

    def test_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--which", "K", "--t", "1",
                               "--nu", "1", "--lambda", "1", "--x", "0")
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == \
            pytest.approx(0.43453030592364549, rel=1e-12)


class TestTwoPointCommand:
    def test_delta_both_methods_agree(self, capsys, delta_file):
        code, out, _ = run_cli(capsys, "two-point", "--measure", delta_file,
                               "--t", "1", "--x1", "0", "--x2", "1",
                               "--method", "both")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["rel_diff"]) < 1e-8

    def test_lebesgue_closed_value(self, capsys, lebesgue_file):
        code, out, _ = run_cli(capsys, "two-point", "--measure", lebesgue_file,
                               "--t", "1", "--x1", "0", "--x2", "1",
                               "--method", "closed")
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == \
            pytest.approx(1.2993006608844514, rel=1e-12)

    def test_second_moment_matches_two_point_diagonal(self, capsys,
                                                      lebesgue_file):
        _, out1, _ = run_cli(capsys, "second-moment", "--measure",
                             lebesgue_file, "--t", "1", "--x", "0.5")
        _, out2, _ = run_cli(capsys, "two-point", "--measure", lebesgue_file,
                             "--t", "1", "--x1", "0.5", "--x2", "0.5")
        assert float(parse_csv(out1)[0]["value"]) == \
            float(parse_csv(out2)[0]["value"])

    def test_unknown_measure_type_exit_4(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "weird"}))
        code, _, err = run_cli(capsys, "two-point", "--measure", str(bad),
                               "--t", "1", "--x1", "0", "--x2", "0")
        assert code == 4
        assert "inadmissible" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "two-point", "--measure", "/nope.json",
                             "--t", "1", "--x1", "0", "--x2", "0")
        assert code == 2

    def test_domain_error_exit_3(self, capsys, lebesgue_file):
        code, _, _ = run_cli(capsys, "two-point", "--measure", lebesgue_file,
                             "--t", "-1", "--x1", "0", "--x2", "0")
        assert code == 3


class TestVerifyCommand:
    def test_laplace_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "laplace")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_local_time_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "local-time")
        assert code == 0

    def test_all_suite_passes_and_lists_every_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        report = json.loads(out)
        assert report["all_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))
        assert [n for n in names if n.startswith("identities/")] == [
            f"identities/{name}" for name in (
                "kernel_decomposition", "form_equivalence",
                "gaussian_product_split", "exp_phi_direct",
                "heat_kernel_mass", "chapman_kolmogorov",
                "conv_heat_time_factor", "conv_heat_offset_factor",
                "lebesgue_two_point", "delta_second_moment",
                "two_point_form_agreement", "two_point_translation",
                "two_point_mixture",
                "gaussian_moment_inequality_repaired",
                "first_passage_convolution", "first_passage_scaling",
                "mgf_bounds")]
        assert any(n.startswith("laplace/") for n in names)
        assert any(n.startswith("local_time/") for n in names)

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "everything"])
        assert info.value.code == 2

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--suite", "laplace")
        report = json.loads(out)
        assert list(report.keys()) == sorted(report.keys())


class TestSimulateCommand:
    @pytest.fixture()
    def fk_config(self, tmp_path):
        path = tmp_path / "fk.json"
        path.write_text(json.dumps({
            "t": 1.0, "x1": 0.0, "x2": 0.0, "nu": 1.0, "lambda": 1.0,
            "u0": {"kind": "constant", "value": 1.0},
            "mc": {"n_paths": 20000, "seed": 3, "batch_size": 4096}}))
        return str(path)

    def test_fk_with_oracle(self, capsys, fk_config, tmp_path):
        out_file = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, "simulate", "--engine", "fk",
                             "--config", fk_config, "--oracle",
                             "--out", str(out_file))
        assert code == 0
        result = json.loads(out_file.read_text())
        assert abs(result["oracle"]["z_score"]) <= 4.0
        assert result["n"] == 20000
        assert result["manifest"]["library_version"]

    def test_rerun_identical_minus_timestamp(self, capsys, fk_config,
                                             tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "simulate", "--engine", "fk", "--config", fk_config,
                "--out", str(f1))
        run_cli(capsys, "simulate", "--engine", "fk", "--config", fk_config,
                "--workers", "4", "--out", str(f2))
        a, b = json.loads(f1.read_text()), json.loads(f2.read_text())
        for d in (a, b):
            d["manifest"].pop("timestamp")
            d["config_echo"]["mc"].pop("workers")
            d["manifest"]["config_echo"]["mc"].pop("workers")
        assert a == b

    def test_rerun_from_manifest(self, capsys, fk_config, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "simulate", "--engine", "fk", "--config", fk_config,
                "--out", str(f1))
        code, _, _ = run_cli(capsys, "simulate", "--from-manifest", str(f1),
                             "--out", str(f2))
        assert code == 0
        a, b = json.loads(f1.read_text()), json.loads(f2.read_text())
        assert a["value"] == b["value"]
        assert a["std_error"] == b["std_error"]

    def test_spde_zero_coupling(self, capsys, tmp_path):
        cfg = tmp_path / "spde.json"
        cfg.write_text(json.dumps({
            "t": 0.1, "x1": 0.0, "x2": 0.0, "nu": 1.0,
            "measure": {"type": "lebesgue", "scale": 1.0},
            "rho": {"kind": "zero"},
            "grid": {"L": 2.2, "dx": 0.05, "dt": 0.00125,
                     "boundary": "neumann0"},
            "mc": {"n_paths": 8, "seed": 0}}))
        out_file = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, "simulate", "--engine", "spde",
                             "--config", str(cfg), "--out", str(out_file))
        assert code == 0
        result = json.loads(out_file.read_text())
        assert result["value"] == 1.0
        assert result["std_error"] == 0.0

    def test_cfl_violation_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "t": 0.1, "nu": 1.0,
            "measure": {"type": "lebesgue", "scale": 1.0},
            "rho": {"kind": "zero"},
            "grid": {"L": 2.2, "dx": 0.05, "dt": 0.01},
            "mc": {"n_paths": 4, "seed": 0}}))
        code, _, _ = run_cli(capsys, "simulate", "--engine", "spde",
                             "--config", str(cfg))
        assert code == 2

    def test_boundary_contamination_exit_2(self, capsys, tmp_path):
        config = dict(SPDE_CONFIG, t=0.3,
                      measure={"type": "atoms", "atoms": [[1.0, 1.0]]},
                      grid={"L": 3.3, "dx": 0.05, "dt": 0.00125})
        code, out, err = _simulate(capsys, tmp_path, "spde", config)
        assert (code, out) == (2, "")
        assert "boundary contamination" in err

    @pytest.mark.parametrize("measure", [
        {"type": "gaussian", "mean": 0.1, "var": 0.3},
        {"type": "sum", "terms": [
            {"type": "atoms", "atoms": [[0.2, 0.5]]},
            {"type": "gaussian", "mean": -0.3, "var": 0.2, "mass": 1.0}]},
    ], ids=["gaussian", "sum"])
    def test_spde_oracle_on_measure_data(self, capsys, tmp_path, measure):
        config = dict(SPDE_CONFIG, measure=measure,
                      grid={"L": 8.0, "dx": 0.05, "dt": 0.00125},
                      mc={"n_paths": 2000, "seed": 5, "batch_size": 500})
        code, out, _ = _simulate(capsys, tmp_path, "spde", config, "--oracle")
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert np.isfinite(oracle["value"]) and oracle["value"] > 0
        assert abs(oracle["z_score"]) <= 4.0

    def test_oracle_requires_linear_rho(self, capsys, tmp_path):
        cfg = tmp_path / "clip.json"
        cfg.write_text(json.dumps({
            "t": 0.1, "nu": 1.0,
            "measure": {"type": "lebesgue", "scale": 1.0},
            "rho": {"kind": "zero"},
            "grid": {"L": 2.2, "dx": 0.05, "dt": 0.00125},
            "mc": {"n_paths": 4, "seed": 0}}))
        code, _, _ = run_cli(capsys, "simulate", "--engine", "spde",
                             "--config", str(cfg), "--oracle")
        assert code == 2


class TestLocalTimeCommand:
    def test_mgf_value(self, capsys):
        code, out, _ = run_cli(capsys, "local-time", "mgf", "--t", "1",
                               "--a", "0", "--lambda", "1")
        assert code == 0
        assert float(parse_csv(out)[0]["value"]) == \
            pytest.approx(mgf_local_time(1.0, 0.0, 1.0), rel=1e-14)

    def test_density_table(self, capsys):
        code, out, _ = run_cli(capsys, "local-time", "density", "--t", "1",
                               "--a", "0", "--y", "-1:1:3", "--v", "0.5:1:2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        law_val = (1.5 / np.sqrt(2 * np.pi)) * np.exp(-1.5 ** 2 / 2)
        match = [r for r in rows if r["y"] == "1.0" and r["v"] == "0.5"]
        assert float(match[0]["f"]) == pytest.approx(law_val, rel=1e-12)

    def test_sample_dump(self, capsys):
        code, out, _ = run_cli(capsys, "local-time", "sample", "--t", "1",
                               "--a", "1", "--n", "100", "--seed", "1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 100
        assert all(float(r["v"]) >= 0.0 for r in rows)

    def test_sample_zero_n_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "local-time", "sample", "--t", "1",
                             "--a", "1", "--n", "0")
        assert code == 2

    @pytest.mark.parametrize("argv,want", [
        (["--t", "1e103", "--a", "1"], 0),
        # The density itself overflows: (r / t) G_1(t, r) ~ 2.4e319.
        (["--t", "1e-320", "--a", "0", "--y", "0", "--v", "1e-160"], 3),
    ], ids=["t_1e103", "t_1e-320"])
    def test_density_at_extreme_time(self, capsys, argv, want):
        code, out, _ = run_cli(capsys, "local-time", "density", *argv)
        assert code == want
        if want:
            assert out == ""
        else:
            assert all(np.isfinite(float(r["f"])) for r in parse_csv(out))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("measure,extra,want", [
        ({"type": "lebesgue", "scale": float("nan")}, [], 4),
        ({"type": "lebesgue", "scale": 1.0}, ["--nu", "inf"], 3),
        ({"type": "gaussian", "mean": 0.0, "var": float("inf")}, [], 4),
        ({"type": "atoms", "atoms": [[0.0, float("inf")]]}, [], 4),
        ({"type": "lebesgue", "scale": 1.0}, ["--x1", "nan"], 3),
        ({"type": "gaussian", "mean": 0.0, "var": 1e-320}, [], 3),
    ], ids=["nan_scale", "inf_nu", "inf_var", "inf_mass", "nan_x1",
            "subnormal_var"])
    def test_rejected_with_exit_code(self, capsys, tmp_path, measure, extra,
                                     want):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(measure))
        argv = ["two-point", "--measure", str(path), "--t", "1",
                "--x1", "0", "--x2", "1"] + extra
        code, out, _ = run_cli(capsys, *argv)
        assert code == want
        assert out == ""


class TestRepeatedCalls:
    def test_repeated_calls_across_subcommands(self, capsys, lebesgue_file):
        args = ("two-point", "--measure", lebesgue_file, "--t", "1",
                "--x1", "0", "--x2", "1")
        first = run_cli(capsys, *args)
        with pytest.raises(SystemExit) as info:
            main(["two-point", "--measure", lebesgue_file, "--t", "1"])
        assert info.value.code == 2
        assert "required" in capsys.readouterr().err
        assert run_cli(capsys, "kernel", "--which", "H", "--t", "1")[0] == 0
        assert run_cli(capsys, "local-time", "mgf", "--t", "1", "--a", "0",
                       "--lambda", "1")[0] == 0
        assert run_cli(capsys, *args) == first
        assert first[0] == 0

    def test_help_is_unchanged_by_earlier_calls(self, capsys, lebesgue_file):
        def help_text():
            with pytest.raises(SystemExit) as info:
                main(["two-point", "--help"])
            assert info.value.code == 0
            return capsys.readouterr().out
        before = help_text()
        run_cli(capsys, "two-point", "--measure", lebesgue_file, "--t", "1",
                "--x1", "0", "--x2", "1", "--method", "both")
        assert help_text() == before
        assert "--method {closed,quadrature,both}" in before


class TestParserCache:
    def test_one_parser_per_process(self, capsys, lebesgue_file):
        parser = build_parser()
        for argv in (("two-point", "--measure", lebesgue_file, "--t", "1",
                      "--x1", "0", "--x2", "1"),
                     ("kernel", "--which", "K", "--t", "1", "--x", "-1:1:3"),
                     ("local-time", "mgf", "--t", "1", "--a", "0",
                      "--lambda", "1"),
                     ("second-moment", "--measure", lebesgue_file, "--t",
                      "1", "--x", "0")) * 3:
            assert run_cli(capsys, *argv)[0] == 0
            assert build_parser() is parser
        with pytest.raises(SystemExit):
            main(["kernel", "--which", "nope", "--t", "1"])
        assert build_parser() is parser


class TestInputBoundary:
    def test_atom_without_mass_exit_4(self, capsys, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps({"type": "atoms", "atoms": [[0]]}))
        code, out, err = run_cli(capsys, "two-point", "--measure", str(path),
                                 "--t", "1", "--x1", "0", "--x2", "1")
        assert code == 4
        assert out == ""
        assert "Traceback" not in err

    def test_non_numeric_grid_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--which", "K", "--t", "1",
                                 "--x", "a:b:3")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_local_time_sample_nan_level_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "local-time", "sample", "--t", "1",
                               "--a", "nan", "--n", "5")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("which", ["H", "K", "Htilde", "Kdagger",
                                       "Kstar"])
    @pytest.mark.parametrize("t,nu", [("0", "1"), ("-1", "1"),
                                      ("1e-320", "1e-20")],
                             ids=["t_0", "t_-1", "nu_t_underflows"])
    def test_kernel_domain_exit_3(self, capsys, which, t, nu):
        code, out, err = run_cli(capsys, "kernel", "--which", which,
                                 "--t", t, "--nu", nu)
        assert code == 3
        assert out == ""
        assert "heat_kernel requires" in err

    def test_oracle_overflow_exits_before_monte_carlo(self, capsys, tmp_path,
                                                      monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the Monte Carlo engine must not run")
        monkeypatch.setattr(cli, "fk_two_point", engine)
        cfg = tmp_path / "fk.json"
        cfg.write_text(json.dumps({
            "t": 1.0, "x1": 0.0, "x2": 0.0, "nu": 1.0, "lambda": 8.0,
            "u0": {"kind": "constant", "value": 1.0},
            "mc": {"n_paths": 1000, "seed": 3}}))
        code, out, err = run_cli(capsys, "simulate", "--engine", "fk",
                                 "--config", str(cfg), "--oracle")
        assert code == 3
        assert out == ""
        assert "overflow" in err


FK_CONFIG = {"t": 1.0, "x1": 0.0, "x2": 0.5, "nu": 1.0, "lambda": 1.0,
             "u0": {"kind": "constant", "value": 1.0},
             "mc": {"n_paths": 100, "seed": 3}}
SPDE_CONFIG = {"t": 0.1, "x1": 0.0, "x2": 0.0, "nu": 1.0,
               "measure": {"type": "lebesgue", "scale": 1.0},
               "rho": {"kind": "linear", "lam": 1.0},
               "grid": {"L": 2.2, "dx": 0.05, "dt": 0.00125},
               "mc": {"n_paths": 4, "seed": 0}}


class TestNonNumericConfigFields:
    @pytest.mark.parametrize("engine,base,section,key", [
        ("fk", FK_CONFIG, None, "t"),
        ("spde", SPDE_CONFIG, None, "t"),
        ("spde", SPDE_CONFIG, "grid", "dx"),
        ("fk", FK_CONFIG, "u0", "value"),
        ("fk", FK_CONFIG, "mc", "n_paths"),
    ], ids=["fk_t", "spde_t", "grid_dx", "u0_value", "mc_n_paths"])
    @pytest.mark.parametrize("oracle", [False, True],
                             ids=["plain", "oracle"])
    def test_exit_2_without_output(self, capsys, tmp_path, engine, base,
                                   section, key, oracle):
        config = json.loads(json.dumps(base))
        (config[section] if section else config)[key] = "x"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["simulate", "--engine", engine, "--config", str(path)]
        code, out, err = run_cli(capsys, *argv + ["--oracle"] * oracle)
        assert code == 2
        assert out == ""
        assert repr(key) in err


class TestNonObjectConfigSections:
    @pytest.mark.parametrize("engine,base,section,value,code", [
        ("fk", FK_CONFIG, "u0", 3, 2),
        ("fk", FK_CONFIG, "mc", [1], 2),
        ("spde", SPDE_CONFIG, "mc", "x", 2),
        ("spde", SPDE_CONFIG, "grid", 5, 2),
        ("spde", SPDE_CONFIG, "rho", [1.0], 2),
        ("spde", SPDE_CONFIG, "measure", 2.5, 4),
    ], ids=["fk_u0", "fk_mc", "spde_mc", "spde_grid", "spde_rho",
            "spde_measure"])
    @pytest.mark.parametrize("oracle", [False, True],
                             ids=["plain", "oracle"])
    def test_exit_code_without_output(self, capsys, tmp_path, engine, base,
                                      section, value, code, oracle):
        # A measure spec that is not an object is a measure error (exit 4),
        # as it is for two-point --measure; other sections are config
        # errors (exit 2).
        config = dict(base, **{section: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["simulate", "--engine", engine, "--config", str(path)]
        rc, out, err = run_cli(capsys, *argv + ["--oracle"] * oracle)
        assert rc == code
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("config", [[1], 3, "t"])
    def test_top_level_not_an_object_exit_2(self, capsys, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc, out, _ = run_cli(capsys, "simulate", "--engine", "fk",
                             "--config", str(path))
        assert rc == 2
        assert out == ""


class TestKernelProductOverflow:
    @pytest.mark.parametrize("which", ["Kstar", "Kdagger"])
    def test_exit_3_without_output(self, capsys, which):
        rc, out, err = run_cli(
            capsys, "kernel", "--which", which, "--t", "3.058581061479496",
            "--nu", "1.1481095960311858", "--lambda", "5.839318305926894",
            "--z1", "-0.77222639115696", "--z2", "0.4822025900632321",
            "--y", "1.5830200134868129")
        assert rc == 3
        assert out == ""
        assert "overflows" in err


class TestNonFiniteGrids:
    @pytest.mark.parametrize("grid", ["nan", "inf", "-inf", "nan:1:3",
                                      "0:inf:3"])
    def test_kernel_grid_exit_2(self, capsys, grid):
        code, out, _ = run_cli(capsys, "kernel", "--which", "K", "--t", "1",
                               f"--x={grid}")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("which", ["H", "K", "Htilde", "Kdagger",
                                       "Kstar"])
    @pytest.mark.parametrize("flag", ["--x", "--z1", "--z2", "--y"])
    def test_kernel_grid_exit_2_for_every_which(self, capsys, which, flag):
        # A grid the chosen kernel does not read is still parsed.
        code, out, _ = run_cli(capsys, "kernel", "--which", which, "--t",
                               "1", flag, "1:2")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("flag", ["--y", "--v"])
    def test_local_time_density_grid_exit_2(self, capsys, flag):
        argv = ["local-time", "density", "--t", "1", "--a", "0",
                "--y", "0", "--v", "1"]
        argv[argv.index(flag) + 1] = "nan"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""


def _simulate(capsys, tmp_path, engine, config, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return run_cli(capsys, "simulate", "--engine", engine, "--config",
                   str(path), *extra)


class TestSimulateConfigBoundary:
    @pytest.mark.parametrize("section,key,value", [
        ("rho", "lam", "x"),
        ("rho", "lam", float("nan")),
        ("grid", "dx", float("nan")),
        ("grid", "L", float("inf")),
        ("mc", "n_paths", float("inf")),
    ], ids=["rho_lam_str", "rho_lam_nan", "grid_dx_nan", "grid_L_inf",
            "mc_n_paths_inf"])
    @pytest.mark.parametrize("oracle", [False, True],
                             ids=["plain", "oracle"])
    def test_bad_number_exit_2(self, capsys, tmp_path, section, key, value,
                               oracle):
        config = json.loads(json.dumps(SPDE_CONFIG))
        config[section][key] = value
        code, out, err = _simulate(capsys, tmp_path, "spde", config,
                                   *["--oracle"] * oracle)
        assert code == 2
        assert out == ""
        assert repr(key) in err and "Traceback" not in err

    def test_clip_not_a_number_exit_2(self, capsys, tmp_path):
        config = dict(SPDE_CONFIG, rho={"kind": "clipped", "lam": 1.0,
                                        "clip": "x"})
        code, out, err = _simulate(capsys, tmp_path, "spde", config)
        assert code == 2
        assert out == ""
        assert "'clip'" in err

    @pytest.mark.parametrize("previous", [
        [1], {"manifest": 3}, {"manifest": {"config_echo": [], "seed": 1}},
        {"manifest": {"config_echo": {"engine": "fk", "config": FK_CONFIG},
                      "seed": "x"}},
    ], ids=["list", "manifest_int", "echo_list", "seed_str"])
    def test_malformed_run_file_exit_2(self, capsys, tmp_path, previous):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(previous))
        code, out, err = run_cli(capsys, "simulate", "--from-manifest",
                                 str(path))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    def test_workers_variable_not_read(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SHE_MOMENTS_WORKERS", "two")
        code, out, _ = _simulate(capsys, tmp_path, "fk", FK_CONFIG)
        assert code == 0
        assert json.loads(out)["config_echo"]["mc"]["workers"] == 1

    def test_fk_oracle_defaults_to_unit_u0(self, capsys, tmp_path):
        config = {k: v for k, v in FK_CONFIG.items() if k != "u0"}
        code, out, _ = _simulate(capsys, tmp_path, "fk", config, "--oracle")
        assert code == 0
        want = two_point_lebesgue(TwoPointQuery(t=1.0, x1=0.0, x2=0.5),
                                  KernelParams(nu=1.0, lam=1.0))
        assert json.loads(out)["oracle"]["value"] == want

    @pytest.mark.parametrize("change", [{"lambda": 0.0},
                                        {"mc": {"n_paths": 1, "seed": 3}}],
                             ids=["lambda_0", "one_path"])
    def test_zero_spread_z_score_is_null(self, capsys, tmp_path, change):
        code, out, _ = _simulate(capsys, tmp_path, "fk",
                                 dict(FK_CONFIG, **change), "--oracle")
        assert code == 0
        result = json.loads(out)
        assert result["std_error"] == 0.0
        assert result["oracle"]["z_score"] is None
        assert "Infinity" not in out and "NaN" not in out

    @pytest.mark.parametrize("engine,base", [
        ("fk-occupation", dict(FK_CONFIG, eps=0.01, n_steps=10)),
        ("spde", SPDE_CONFIG),
    ], ids=["fk_occupation", "spde"])
    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_non_positive_nu_exit_3(self, capsys, tmp_path, engine, base,
                                    nu):
        code, out, err = _simulate(capsys, tmp_path, engine,
                                   dict(base, nu=nu))
        assert code == 3
        assert out == ""
        assert "nu > 0" in err

    @pytest.mark.parametrize("engine,base,name", [
        ("spde", SPDE_CONFIG, "SFC64"),
        ("fk", FK_CONFIG, "Philox4x64-10"),
        ("fk-occupation", dict(FK_CONFIG, eps=0.01, n_steps=10), "SFC64"),
    ], ids=["spde", "fk", "fk_occupation"])
    def test_manifest_names_its_bit_generator(self, capsys, tmp_path, engine,
                                              base, name):
        code, out, _ = _simulate(capsys, tmp_path, engine, base)
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["bit_generator"] == name
        assert manifest["library_version"] == __version__

    @pytest.mark.parametrize("version", ["0.3.0", None],
                             ids=["older", "missing"])
    def test_rerun_of_another_version_exit_2(self, capsys, tmp_path,
                                             version):
        # Another version may draw other streams, so its run cannot be
        # repeated exactly.
        code, out, _ = _simulate(capsys, tmp_path, "spde", SPDE_CONFIG)
        assert code == 0
        previous = json.loads(out)
        previous["manifest"]["library_version"] = version
        path = tmp_path / "run.json"
        path.write_text(json.dumps(previous))
        code, out, err = run_cli(capsys, "simulate", "--from-manifest",
                                 str(path))
        assert (code, out) == (2, "")
        assert repr(version) in err and repr(__version__) in err


class TestNonFiniteOutput:
    @pytest.mark.parametrize("measure", [
        {"type": "atoms", "atoms": [[0.0, 1e200]]},
        {"type": "lebesgue", "scale": 1e200},
    ], ids=["atom_mass", "lebesgue_scale"])
    @pytest.mark.parametrize("method", ["closed", "quadrature", "both"])
    @pytest.mark.parametrize("command", ["two-point", "second-moment"])
    def test_exit_3_without_output(self, capsys, tmp_path, measure, method,
                                   command):
        # The square of the mass overflows; nothing non-finite is printed.
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(measure))
        points = (["--x1", "0", "--x2", "1"] if command == "two-point"
                  else ["--x", "0"])
        code, out, err = run_cli(capsys, command, "--measure", str(path),
                                 "--t", "1", "--method", method, *points)
        assert code == 3
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("measure,argv", [
        ({"type": "lebesgue", "scale": 1},
         ["--t", "1e-320", "--x1", "0", "--x2", "1", "--nu", "1e-20"]),
        ({"type": "gaussian", "mean": 0, "var": 1},
         ["--t", "1e-320", "--x1", "0", "--x2", "1", "--nu", "1e-20",
          "--method", "quadrature"]),
        ({"type": "lebesgue", "scale": 1},
         ["--t", "2.65", "--x1", "2.93", "--x2", "1.47", "--lambda", "2",
          "--nu", "1e308", "--method", "quadrature"]),
    ], ids=["underflow_lebesgue", "underflow_gaussian_direct",
            "overflow_lebesgue_direct"])
    def test_nu_t_out_of_range_exit_3(self, capsys, tmp_path, measure, argv):
        # nu * t underflowing to 0 divided by zero in the kernels; at inf
        # the direct route printed 0.0.
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(measure))
        code, out, err = run_cli(capsys, "two-point", "--measure", str(path),
                                 *argv)
        assert (code, out) == (3, "")
        assert "0 < nu * t < inf" in err

    @pytest.mark.parametrize("which,x", [("H", "0"), ("K", "0"), ("K", "40"),
                                         ("Htilde", "0")])
    def test_kernel_exit_3_without_output(self, capsys, which, x):
        # exp_phi fits (c = 708), its product with lam^2 / 2 nu does not; at
        # x = 40 the heat kernel underflows and inf * 0 would print nan.
        code, out, err = run_cli(capsys, "kernel", "--which", which, "--t",
                                 "1", "--lambda", "7.295", "--x", x)
        assert code == 3
        assert out == ""
        assert "not finite" in err


class TestJsonNumbers:
    @pytest.mark.parametrize("section,key,value", [
        ("mc", "n_paths", 2.9),
        ("mc", "n_paths", "12"),
        ("mc", "seed", True),
        (None, "t", "1.0"),
        (None, "nu", True),
        ("u0", "value", "1"),
    ], ids=["fractional_count", "string_count", "bool_count", "string_t",
            "bool_nu", "string_value"])
    def test_config_exit_2_without_output(self, capsys, tmp_path, section,
                                          key, value):
        config = json.loads(json.dumps(FK_CONFIG))
        (config[section] if section else config)[key] = value
        code, out, err = _simulate(capsys, tmp_path, "fk", config)
        assert code == 2
        assert out == ""
        assert repr(key) in err and "Traceback" not in err

    def test_integral_float_count_accepted(self, capsys, tmp_path):
        config = json.loads(json.dumps(FK_CONFIG))
        config["mc"]["n_paths"] = 100.0
        code, out, _ = _simulate(capsys, tmp_path, "fk", config)
        assert code == 0
        assert json.loads(out)["n"] == 100

    @pytest.mark.parametrize("measure", [
        {"type": "lebesgue", "scale": "2"},
        {"type": "lebesgue", "scale": True},
        {"type": "atoms", "atoms": [[0, True]]},
        {"type": "atoms", "atoms": [["0", 1]]},
        {"type": "gaussian", "mean": 0.0, "var": "1"},
        {"type": "lebesgue", "scale": 10 ** 400},
        {"type": "atoms"},
        {"type": "gaussian", "mean": 0},
        {"type": "sum"},
        {"type": "sum", "terms": [{"type": "atoms"}]},
        {"type": "sum", "terms": [{"type": "gaussian", "mean": 0}]},
        {"type": "sum", "terms": [{"type": "sum"}]},
        {"type": "atoms", "atoms": []},
        {"type": "sum", "terms": []},
        {"type": "gaussian", "mean": 0, "var": 0},
        # The +-8 sd support collapses to one double.
        {"type": "gaussian", "mean": 1e300, "var": 1},
    ], ids=["string_scale", "bool_scale", "bool_mass", "string_location",
            "string_var", "int_beyond_double", "no_atoms", "no_var",
            "no_terms", "term_no_atoms", "term_no_var", "term_no_terms",
            "empty_atoms", "empty_sum", "zero_var", "support_collapses"])
    def test_measure_exit_4_without_output(self, capsys, tmp_path, measure):
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(measure))
        code, out, err = run_cli(capsys, "two-point", "--measure", str(path),
                                 "--t", "1", "--x1", "0", "--x2", "1")
        assert code == 4
        assert out == ""
        assert "Traceback" not in err


class TestPointFlags:
    @pytest.mark.parametrize("command,flag", [("second-moment", "--x1"),
                                              ("two-point", "--x")])
    def test_other_commands_point_flag_exit_2(self, capsys, lebesgue_file,
                                              command, flag):
        points = (["--x", "0"] if command == "second-moment"
                  else ["--x1", "0", "--x2", "1"])
        with pytest.raises(SystemExit) as info:
            main([command, "--measure", lebesgue_file, "--t", "1", *points,
                  flag, "0"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


TWO_POINT = ["two-point", "--t", "1", "--x1", "0", "--x2", "1", "--measure"]


class TestUnreadableFiles:
    @pytest.mark.parametrize("argv", [
        TWO_POINT, ["simulate", "--config"], ["simulate", "--from-manifest"],
    ], ids=["measure", "config", "from_manifest"])
    def test_directory_as_input_exit_2(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, str(tmp_path))
        assert code == 2
        assert out == ""
        assert "directory" in err

    @pytest.mark.parametrize("argv", [
        ["local-time", "mgf", "--t", "1", "--a", "0", "--lambda", "1"],
        ["verify", "--suite", "laplace"],
    ], ids=["csv", "json"])
    def test_directory_as_out_exit_2(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "directory" in err

    @pytest.mark.parametrize("argv", [TWO_POINT, ["simulate", "--config"]],
                             ids=["measure", "config"])
    def test_not_utf8_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert "utf-8" in err


class TestOversizedRequests:
    """Requests of 1e15 elements (7.11 PiB of doubles), whose allocation
    fails at once on any host."""

    HUGE = "1000000000000000"

    @pytest.mark.parametrize("argv", [
        ["kernel", "--which", "K", "--t", "1", "--x", f"0:1:{HUGE}"],
        ["local-time", "sample", "--t", "1", "--a", "0", "--n", HUGE],
    ], ids=["kernel_grid", "local_time_n"])
    def test_exit_2_with_numpy_message(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Unable to allocate" in err

    def test_simulate_paths_exit_2(self, capsys, tmp_path):
        code, out, err = _simulate(capsys, tmp_path, "fk", FK_CONFIG,
                                   "--paths", self.HUGE)
        assert code == 2
        assert out == ""
        assert "Unable to allocate" in err


def test_version_has_one_source(capsys):
    # pyproject.toml reads the package version from she_moments.__version__.
    from pathlib import Path

    from she_moments import __version__
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert "version" not in meta["project"]
    assert meta["project"]["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "she_moments.__version__"}
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == __version__
