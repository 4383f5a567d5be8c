"""Property tests of the verifier's residual sum on drawn blocks of terms.

Each draw is a block of six terms over N in {1, 40, 400} points, in four
kinds of column: floats of any magnitude up to 1e100 (subnormals and signed
zeros included), a sixth term that cancels the other five to between 1e-6
and 1e-16 of the largest, terms that are signed zeros in part, and terms
that all vanish.  A few columns are drawn one by one; the rest come from a
numpy generator seeded by the draw, so a 400-point block stays within
hypothesis' draw budget.

`_relative_residuals` must equal a per-point left-to-right loop to the bit,
stay within the gamma_5 bound of the math.fsum reference, and give 0.0
where every term vanishes.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from residual_reference import left_to_right, relative, sum_error_bound  # noqa: E402
from susypainleve.residual import _relative_residuals  # noqa: E402

ANY = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)
ZERO = st.sampled_from([0.0, -0.0])
LEAD = st.floats(min_value=1e-50, max_value=1e50) | st.floats(min_value=-1e50, max_value=-1e-50)
# sign and decimal exponent of what the cancelling sixth term leaves
LEFT_OVER = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(min_value=-16.0, max_value=-6.0))

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def cancelling(five, sign: float, exponent: float) -> tuple:
    """five terms, and a sixth that leaves sign * 10**exponent of their largest."""
    left_over = sign * 10.0**exponent * max(abs(t) for t in five)
    return tuple(five) + (math.fsum([-t for t in five] + [left_over]),)


COLUMN = (
    st.tuples(*[ANY] * 6)
    | st.builds(lambda five, rest: cancelling(five, *rest), st.tuples(*[LEAD] * 5), LEFT_OVER)
    | st.tuples(*[ZERO | ANY] * 6)
    | st.tuples(*[ZERO] * 6)
)


def generated_column(rng: np.random.Generator) -> tuple:
    """One column of a random kind, magnitudes from 1e-30 to 1e30."""
    kind = rng.integers(4)
    values = (rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-30.0, 30.0, 6)).tolist()
    if kind == 1:
        return cancelling(values[:5], values[5] / abs(values[5]), rng.uniform(-16.0, -6.0))
    if kind == 2:
        return tuple(math.copysign(0.0, v) if rng.random() < 0.5 else v for v in values)
    if kind == 3:
        return tuple(math.copysign(0.0, v) for v in values)
    return tuple(values)


@st.composite
def term_blocks(draw):
    """A list of N six-term columns, N in {1, 40, 400}."""
    n = draw(st.sampled_from([1, 40, 400]))
    drawn = draw(st.lists(COLUMN, min_size=1, max_size=min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    columns = [generated_column(rng) for _ in range(n - len(drawn))]
    for column in drawn:
        columns.insert(int(rng.integers(len(columns) + 1)), column)
    return columns


@SETTINGS
@given(term_blocks())
def test_relative_residuals_sum_left_to_right(columns):
    got = _relative_residuals(tuple(np.array(columns).T)).tolist()
    want = [relative(terms, left_to_right(terms)) for terms in columns]
    assert [r.hex() for r in got] == [r.hex() for r in want]


@SETTINGS
@given(term_blocks())
def test_relative_residuals_stay_within_gamma5_of_fsum(columns):
    got = _relative_residuals(tuple(np.array(columns).T)).tolist()
    for terms, r in zip(columns, got):
        ref = relative(terms, math.fsum(terms))
        assert abs(r - ref) <= sum_error_bound(terms, ref), terms
        if not any(terms):
            assert r.hex() == (0.0).hex(), terms
