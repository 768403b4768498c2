"""Property tests of ``two-point`` on atoms, Gaussian and sum measure files,
which the CLI evaluates in closed form.

The first test draws measures and flags from extreme doubles as well as
moderate values: whatever the request, it must end in a documented exit
code without raising or warning, print nothing on failure, and print a
finite value on success; ``second-moment --x x1`` must end as ``two-point
--x1 x1 --x2 x1`` does, with the same value to the last bit.  The second
draws moderate, nonnegative measures (so that no term cancels another) and
checks relations that need no oracle: the swap x1 <-> x2, a common shift
of every location and both points, the scaling of the masses, and
Brownian scaling.
"""

import csv
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from she_moments import cli

EXTREMES = [1e-320, 1e-200, 1e-20, 0.0, -1.0, 1e20, 1e200, 1e308]
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DOMAIN, cli.EXIT_MEASURE,
              cli.EXIT_DIVERGENCE}


def _request(command: str, measure: dict, t, lam, nu, **points):
    """(exit code, printed value or None) of one ``two-point`` or
    ``second-moment`` request at ``points`` (``x1`` and ``x2``, or ``x``)."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(measure, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, "--measure", path] + [
                f"--{flag}={value!r}" for flag, value in (
                    ("t", t), *points.items(), ("lambda", lam), ("nu", nu))])
    finally:
        os.unlink(path)
    assert code in EXIT_CODES, err.getvalue()
    if code != cli.EXIT_OK:
        assert out.getvalue() == ""
        return code, None
    (row,) = csv.DictReader(io.StringIO(out.getvalue()))
    value = float(row["value"])
    assert math.isfinite(value), row
    return code, value


def _two_point(measure: dict, t, x1, x2, lam, nu=1.0):
    return _request("two-point", measure, t, lam, nu, x1=x1, x2=x2)


def _measures(number, var, mass):
    atoms = st.builds(lambda pairs: {"type": "atoms",
                                     "atoms": [list(p) for p in pairs]},
                      st.lists(st.tuples(number, mass), min_size=1,
                               max_size=3))
    gaussian = st.builds(lambda m, v, c: {"type": "gaussian", "mean": m,
                                          "var": v, "mass": c},
                         number, var, mass)
    primitive = st.one_of(atoms, gaussian)
    return st.one_of(primitive, st.builds(
        lambda terms: {"type": "sum", "terms": terms},
        st.lists(primitive, min_size=2, max_size=3)))


def _moderate(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


ANY = st.one_of(st.sampled_from(EXTREMES), _moderate(-3.0, 3.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(measure=_measures(ANY, st.one_of(st.sampled_from(EXTREMES),
                                        _moderate(1e-6, 10.0)), ANY),
       t=ANY, x1=ANY, x2=ANY, lam=ANY, nu=ANY)
def test_two_point_ends_in_a_documented_exit(measure, t, x1, x2, lam, nu):
    _two_point(measure, t, x1, x2, lam, nu)
    code, value = _request("second-moment", measure, t, lam, nu, x=x1)
    diagonal = _two_point(measure, t, x1, x1, lam, nu)
    assert (code, repr(value)) == (diagonal[0], repr(diagonal[1]))


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _map_measure(measure, loc, var, mass):
    """``measure`` with every location, variance and mass mapped."""
    if measure["type"] == "atoms":
        return {"type": "atoms",
                "atoms": [[loc(x), mass(m)] for x, m in measure["atoms"]]}
    if measure["type"] == "gaussian":
        return {"type": "gaussian", "mean": loc(measure["mean"]),
                "var": var(measure["var"]), "mass": mass(measure["mass"])}
    return {"type": "sum", "terms": [_map_measure(term, loc, var, mass)
                                     for term in measure["terms"]]}


def _same(x):
    return x


# The far-off and narrow Gaussians the split route once got wrong, and the
# tails that the plain Owen's-T form of Phi2 loses.
@example(measure={"type": "gaussian", "mean": 2.0, "var": 1e-4, "mass": 1.0},
         t=0.8, x1=1.9, x2=1.9, lam=1.0, nu=1.0, c=2.0)
@example(measure={"type": "gaussian", "mean": 1.0, "var": 1e-6, "mass": 1.0},
         t=0.8, x1=1.0, x2=1.2, lam=1.0, nu=1.0, c=0.5)
@example(measure={"type": "gaussian", "mean": 2.0, "var": 0.8, "mass": 1.0},
         t=0.05, x1=-0.2, x2=0.6, lam=1.0, nu=1.0, c=3.0)
@example(measure={"type": "gaussian", "mean": 0.0, "var": 0.05, "mass": 1.0},
         t=0.3, x1=-3.0, x2=3.0, lam=0.5, nu=1.0, c=1.5)
@example(measure={"type": "gaussian", "mean": 0.0, "var": 0.3, "mass": 1.0},
         t=0.2, x1=0.0, x2=0.5, lam=5.0, nu=1.0, c=0.7)
@example(measure={"type": "gaussian", "mean": 0.0, "var": 0.3, "mass": 1.0},
         t=1.5, x1=-1.0, x2=1.5, lam=3.0, nu=1.0, c=1.3)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(measure=_measures(_moderate(-3.0, 3.0),
                         st.floats(min_value=-6.0, max_value=2.0).map(
                             lambda e: 10.0 ** e),
                         _moderate(0.1, 2.0)),
       t=_moderate(0.05, 3.0), x1=_moderate(-3.0, 3.0),
       x2=_moderate(-3.0, 3.0), lam=_moderate(0.0, 3.0),
       nu=_moderate(0.2, 3.0), c=_moderate(0.3, 3.0))
def test_two_point_relations(measure, t, x1, x2, lam, nu, c):
    code, value = _two_point(measure, t, x1, x2, lam, nu)
    if code != cli.EXIT_OK:
        return
    assert _rel(_two_point(measure, t, x2, x1, lam, nu)[1], value) <= 1e-12
    shift = c - 1.0
    shifted = _map_measure(measure, lambda x: x + shift, _same, _same)
    assert _rel(_two_point(shifted, t, x1 + shift, x2 + shift, lam, nu)[1],
                value) <= 1e-10
    heavier = _map_measure(measure, _same, _same, lambda m: c * m)
    assert _rel(_two_point(heavier, t, x1, x2, lam, nu)[1],
                c * c * value) <= 1e-12
    scaled = _map_measure(measure, lambda x: c * x, lambda v: c * c * v, _same)
    assert _rel(_two_point(scaled, c * c * t, c * x1, c * x2,
                           lam / math.sqrt(c), nu)[1],
                value / (c * c)) <= 1e-10
