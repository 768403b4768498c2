"""Tests of the benchmark itself, at tiny sizes: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_package()

import workloads  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(name, trace, **kwargs):
    result, env, _dump = run.run(name, seed=7, seconds=0.1, trace=trace,
                                 tiny=True, probes=1, **kwargs)
    return result, env


@pytest.mark.parametrize("name", NAMES)
def test_smoke(name):
    result, env = _run(name, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert env["bit_generator"] == "Philox4x64-10"


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke(name):
    # A traced request whose value fields differ from its untraced twin
    # counts as failed, so `correct` also covers transparency.
    result, _env = _run(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["trace.requests"]["value"] >= 1
    assert result["metrics"]["cli.self_s"]["value"] > 0


def _scaled(fn, factor):
    def tampered(*args, **kwargs):
        return factor * fn(*args, **kwargs)
    return tampered


def test_spde_gate_fails_on_wrong_reference(monkeypatch):
    # At 200 paths the gate is about +-50% wide, so the reference is moved
    # well past it.
    monkeypatch.setattr(workloads, "_lebesgue_two_point",
                        _scaled(workloads._lebesgue_two_point, 3.0))
    result, _env = _run("spde-mc", trace=False)
    assert not result["correct"] and result["failed"] >= 1


def test_fk_gate_fails_on_reference_off_by_ten_percent(monkeypatch):
    monkeypatch.setattr(workloads, "_lebesgue_two_point",
                        _scaled(workloads._lebesgue_two_point, 1.1))
    result, _env = _run("fk-mc", trace=False)
    assert not result["correct"] and result["failed"] >= 1


def test_two_point_gate_fails_on_quadrature_off_by_ten_percent(monkeypatch):
    import she_moments.cli as cli
    original = cli.two_point

    def tampered(q, mu, params, formula="split"):
        value = original(q, mu, params, formula=formula)
        return 1.1 * value if formula == "direct" else value
    monkeypatch.setattr(cli, "two_point", tampered)
    result, _env = _run("two-point-mix", trace=False)
    assert not result["correct"] and result["failed"] >= 1


def test_verify_gate_fails_on_closed_forms_off_by_ten_percent(monkeypatch):
    import she_moments.verify as verify
    monkeypatch.setattr(verify, "laplace_closed",
                        _scaled(verify.laplace_closed, 1.1))
    result, _env = _run("verify-all", trace=False)
    assert not result["correct"] and result["failed"] >= 1


def test_divergent_paths_fail_the_check(tmp_path):
    wl = workloads.FkMc(1, tmp_path, tiny=True)
    out = json.dumps({"value": 1.0, "std_error": 0.1, "n": 10,
                      "divergent_paths": 1})
    assert "divergent" in wl.check(wl.round(0)[0], out)


@pytest.mark.parametrize("name", ["spde-mc", "fk-mc"])
def test_monte_carlo_values_independent_of_workers(name, tmp_path):
    wl = workloads.WORKLOADS[name](5, tmp_path, tiny=True)
    argv = wl.round(0)[0].argv
    fields = []
    for workers in ("1", "2"):
        argv = argv[:argv.index("--workers") + 1] + [workers]
        rc, out, _dt = run.call_cli(argv)
        assert rc == 0
        doc = run.value_fields(out)
        doc["config_echo"]["mc"].pop("workers")
        doc["manifest"]["config_echo"]["mc"].pop("workers")
        fields.append(doc)
    assert fields[0] == fields[1]


def test_instrument_restores_every_binding():
    import she_moments
    modules = sys.modules
    before = {(name, attr): value
              for name, mod in list(modules.items())
              if name.startswith("she_moments") and mod is not None
              for attr, value in vars(mod).items() if callable(value)}
    law = she_moments.local_time.JointLocalTimeLaw
    methods = dict(vars(law))
    with instrument(Tracer()):
        assert she_moments.cli.main is not before[("she_moments.cli", "main")]
    after = {(name, attr): value
             for name, mod in list(modules.items())
             if name.startswith("she_moments") and mod is not None
             for attr, value in vars(mod).items() if callable(value)}
    assert after == before
    assert dict(vars(law)) == methods


def test_quad_proxy_keeps_warnings_and_counts_evaluations():
    # `sin(1/x)` on [0, 1] with 5 subintervals makes QUADPACK warn, so
    # integrate_1d retries and then gives up; the traced run must do the
    # same, and count exactly the integrand calls of both attempts.
    from she_moments import quadrature
    calls = [0]

    def f(x):
        calls[0] += 1
        return math.sin(1.0 / x)

    def outcome():
        calls[0] = 0
        try:
            return quadrature.integrate_1d(f, 0.0, 1.0, limit=5)
        except quadrature.QuadratureError as exc:
            return str(exc)

    plain = outcome()
    tracer = Tracer(calibrate=False)
    with instrument(tracer):
        traced = outcome()
    totals = tracer.totals()
    assert "did not converge" in plain and traced == plain
    assert totals["scipy.quad"]["items"] == 2
    assert totals["quadrature.integrand"]["items"] == calls[0] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fk-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
