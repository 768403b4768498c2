"""Property test of the ``simulate`` input boundary.

Small valid configs for each engine are broken by one to three mutations
(a key deleted, or a field or section replaced by a hostile JSON value).
Whatever the config, ``simulate`` must end in a documented exit code
without raising, print nothing on failure, and print only finite numbers
as standard JSON on success.
"""

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from she_moments import cli

BASES = {
    "fk": {"t": 1.0, "x1": 0.0, "x2": 0.5, "nu": 1.0, "lambda": 1.0,
           "u0": {"kind": "constant", "value": 1.0},
           "mc": {"n_paths": 64, "seed": 3, "batch_size": 32}},
    "fk-occupation": {"t": 1.0, "x1": 0.0, "x2": 0.5, "nu": 1.0,
                      "lambda": 1.0, "eps": 0.05, "n_steps": 20,
                      "u0": {"kind": "indicator", "lo": -1.0, "hi": 1.0},
                      "mc": {"n_paths": 16, "seed": 3, "batch_size": 8}},
    "spde": {"t": 0.05, "x1": 0.0, "x2": 0.0, "nu": 1.0, "lambda": 1.0,
             "measure": {"type": "lebesgue", "scale": 1.0},
             "rho": {"kind": "linear", "lam": 1.0},
             "grid": {"L": 2.0, "dx": 0.1, "dt": 0.005,
                      "boundary": "neumann0"},
             "mc": {"n_paths": 4, "seed": 0, "batch_size": 2}},
}

# No positive value here exceeds a size in the bases: a tiny dt or dx
# would ask for ~1e299 steps or exhaust memory.
VALUES = [None, "x", [], {}, True, math.nan, math.inf, -math.inf, 0, -1]
DELETE = object()
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DOMAIN, cli.EXIT_MEASURE,
              cli.EXIT_DIVERGENCE}


def _mutations(path: tuple) -> list:
    """What a field or section may become.  Without ``mc.n_paths`` the
    run would fall back to 10,000 paths, more than any base asks for."""
    if path == ("mc",):
        return [v for v in VALUES if v != {}]
    if path == ("mc", "n_paths"):
        return VALUES
    return VALUES + [DELETE]


@st.composite
def broken_configs(draw):
    engine = draw(st.sampled_from(sorted(BASES)))
    base = BASES[engine]
    paths = [(key,) for key in base] + [
        (key, sub) for key, section in base.items()
        if isinstance(section, dict) for sub in section]
    config = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from(_mutations(path)))
        parent = config if len(path) == 1 else config.get(path[0])
        if not isinstance(parent, dict):
            continue
        if value is DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return engine, config


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token} on stdout")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(case=broken_configs(), oracle=st.booleans())
def test_simulate_ends_in_a_documented_exit(workdir, case, oracle):
    engine, config = case
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    argv = ["simulate", "--engine", engine, "--config", str(path),
            "--workers", "1"] + ["--oracle"] * oracle
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in EXIT_CODES, err.getvalue()
    if code != cli.EXIT_OK:
        assert out.getvalue() == ""
        return
    result = json.loads(out.getvalue(), parse_constant=_reject_constant)
    numbers = [result["value"], result["std_error"]]
    if oracle:
        numbers.append(result["oracle"]["value"])
    assert all(math.isfinite(x) for x in numbers), result
