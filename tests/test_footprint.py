"""Start-up footprint: QUADPACK (``scipy.integrate``, which brings in
``scipy.optimize``) is imported by the first command that integrates, not
by ``import she_moments``.  Other tests import ``scipy.integrate`` into this
process, so each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import she_moments

SRC = str(Path(she_moments.__file__).resolve().parents[1])


def _run_fresh(script: str, tmp_path: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_only_commands_that_integrate_load_quadpack(tmp_path):
    files = {
        "atoms.json": {"type": "atoms", "atoms": [[0.0, 1.0], [0.5, 2.0]]},
        "leb.json": {"type": "lebesgue", "scale": 1.0},
        "fk.json": {"t": 1.0, "x1": 0.0, "x2": 0.5, "nu": 1.0,
                    "lambda": 1.0, "u0": {"kind": "constant", "value": 1.0},
                    "mc": {"n_paths": 100, "seed": 3}},
        "spde.json": {"t": 0.1, "x1": 0.0, "x2": 0.0, "nu": 1.0,
                      "measure": {"type": "lebesgue", "scale": 1.0},
                      "rho": {"kind": "linear", "lam": 1.0},
                      "grid": {"L": 2.2, "dx": 0.05, "dt": 0.00125},
                      "mc": {"n_paths": 4, "seed": 0}},
    }
    for name, spec in files.items():
        (tmp_path / name).write_text(json.dumps(spec))
    _run_fresh("""
        import contextlib, io, sys
        from she_moments import cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0, argv

        for measure in ("atoms.json", "leb.json"):
            run("two-point", "--measure", measure, "--t", "1", "--x1", "0",
                "--x2", "1")
        run("simulate", "--engine", "fk", "--config", "fk.json")
        run("simulate", "--engine", "spde", "--config", "spde.json")
        assert "scipy.optimize" not in sys.modules
        run("verify", "--suite", "laplace")
        assert "scipy.optimize" in sys.modules
    """, tmp_path)


def test_threads_making_the_first_quadpack_call_at_once_all_get_its_value(
        tmp_path):
    # The ~0.3 s import of scipy.integrate is the window in which the other
    # threads reach it while the first is still importing.  More threads
    # than cores, and a short switch interval, so they interleave there.
    _run_fresh("""
        import math, sys, threading
        from she_moments.quadrature import integrate_1d

        assert "scipy.optimize" not in sys.modules
        sys.setswitchinterval(1e-6)
        n = 4
        start = threading.Barrier(n)
        values, errors = [], []

        def first_call():
            start.wait()
            try:
                values.append(integrate_1d(math.exp, 0.0, 1.0))
            except Exception as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=first_call) for _ in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert errors == [], errors
        assert len(values) == n
        assert all(abs(v - (math.e - 1.0)) < 1e-14 for v in values), values
    """, tmp_path)
