"""Property test of the ``kernel`` input boundary.

Every ``--which`` is drawn, and each of t, x, z1, z2, y, nu and lambda is
an extreme double (subnormal, huge, zero, negative) or a moderate value.
Whatever the request, the command must end in a documented exit code
without raising or warning (the suite turns warnings into errors), print
nothing on failure, and print only finite numbers on success.
"""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from she_moments import cli

EXTREMES = [1e-320, 1e-200, 1e-20, 0.0, -1.0, 1e20, 1e200, 1e308]
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DOMAIN, cli.EXIT_MEASURE,
              cli.EXIT_DIVERGENCE}
VALUES = st.one_of(st.sampled_from(EXTREMES),
                   st.floats(min_value=-5.0, max_value=5.0))
FLAGS = ["--t", "--x", "--z1", "--z2", "--y", "--nu", "--lambda"]


@st.composite
def requests(draw):
    """argv of one request; ``--flag=value`` keeps a negative value from
    reading as an option."""
    which = draw(st.sampled_from(["K", "Kdagger", "Kstar", "H", "Htilde"]))
    return ["kernel", "--which", which] + [
        f"{flag}={draw(VALUES)!r}" for flag in FLAGS]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argv=requests())
def test_kernel_ends_in_a_documented_exit(argv):
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
