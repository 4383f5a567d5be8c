"""Property test of the CLI exit-code contract: 0, 1, 2 or 3, never a traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from susypainleve import cli  # noqa: E402

EPSILON = st.floats(min_value=-1e7, max_value=1e7, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    command=st.sampled_from(["verify", "sample", "chain", "catalog"]),
    family=st.sampled_from(cli.ALL_FAMILIES),
    epsilon=EPSILON,
    parity=st.sampled_from(["odd", "even"]),
)
def test_cli_exit_code_contract(command, family, epsilon, parity):
    argv = [command]
    if command in ("verify", "sample"):
        argv.append(family)
    # the "=" form keeps argparse from reading a negative value as an option
    argv += [f"--epsilon={epsilon!r}", "--parity", parity]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue()[-300:])
