"""Property test of the ``local-time density`` and ``local-time mgf`` input
boundary.

Each of t, a, y, v and lambda is an extreme double (subnormal, huge, zero,
negative, nan, inf) or any other float.  Whatever the request, the command
must end in a documented exit code without raising, print nothing on
failure, and print only finite numbers on success.
"""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from she_moments import cli

EXTREMES = [1e-320, -1e-320, 1e-200, 1e-20, 1e20, 1e103, 1e200, 1e308, 0.0,
            -1.0, math.nan, math.inf]
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DOMAIN, cli.EXIT_MEASURE,
              cli.EXIT_DIVERGENCE}
VALUES = st.one_of(st.sampled_from(EXTREMES), st.floats())


@st.composite
def requests(draw):
    """argv of one request; ``--flag=value`` keeps a value such as -inf
    from reading as an option."""
    if draw(st.booleans()):
        flags = ["--t", "--a", "--y", "--v"]
        argv = ["local-time", "density"]
    else:
        flags = ["--t", "--a", "--lambda"]
        argv = ["local-time", "mgf"]
    return argv + [f"{flag}={draw(VALUES)!r}" for flag in flags]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=requests())
def test_local_time_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in EXIT_CODES, err.getvalue()
    if code != cli.EXIT_OK:
        assert out.getvalue() == ""
        return
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert rows
    assert all(math.isfinite(float(value))
               for row in rows for value in row.values()), rows
