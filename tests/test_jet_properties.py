"""Property tests of jet algebra identities on point jets of order 1-6.

Entries are drawn from [-2, 2]; values that divide, or sit under sqrt,
are kept at least 0.5 away from zero.  A round trip through division (or
sqrt) loses accuracy as the k-th derivative picks up powers of
max|entry| / |value|, so its tolerance is relative to
max|a| * (max|b| / |b(x0)|)^K.  Composition with the exp jet has no
division and is compared with the scalar exp loop (`jet_reference.ref_exp`)
relative to the largest entry of exp(inner).
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jet_reference import ref_exp  # noqa: E402
from susypainleve.jets import Jet, jet_compose, jet_sqrt  # noqa: E402

ENTRY = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.5, max_value=2.0)
NONZERO = POSITIVE | POSITIVE.map(lambda v: -v)
ORDER = st.integers(min_value=1, max_value=6)

# Worst observed over 20000 random draws: 5.8e-13 (round trips), 4.1e-15 (composition).
ROUND_TRIP_RTOL = 1e-11
COMPOSE_RTOL = 1e-13

SETTINGS = settings(derandomize=True, max_examples=50, deadline=None)


def _jet(draw, value, order: int) -> Jet:
    return Jet((draw(value),) + tuple(draw(ENTRY) for _ in range(order)))


@st.composite
def jet_pairs(draw):
    """(a, b) of one order, b(x0) != 0."""
    order = draw(ORDER)
    return _jet(draw, ENTRY, order), _jet(draw, NONZERO, order)


@st.composite
def positive_jets(draw):
    return _jet(draw, POSITIVE, draw(ORDER))


@st.composite
def any_jets(draw):
    return _jet(draw, ENTRY, draw(ORDER))


def _biggest(a: Jet) -> float:
    return max(abs(v) for v in a.d)


def _assert_close(got: Jet, want: Jet, scale: float, rtol: float) -> None:
    assert got.order == want.order
    for g, w in zip(got.d, want.d):
        assert abs(g - w) <= rtol * scale, (got.d, want.d)


def _round_trip_scale(a: Jet, b: Jet) -> float:
    return _biggest(a) * (_biggest(b) / abs(b.value)) ** a.order


@SETTINGS
@given(jet_pairs())
def test_mul_then_div_round_trip(pair):
    a, b = pair
    _assert_close((a * b) / b, a, _round_trip_scale(a, b), ROUND_TRIP_RTOL)


@SETTINGS
@given(positive_jets())
def test_sqrt_squared_round_trip(a):
    _assert_close(jet_sqrt(a) ** 2, a, _round_trip_scale(a, a), ROUND_TRIP_RTOL)


@SETTINGS
@given(any_jets())
def test_compose_with_exp_is_the_exp_loop(inner):
    # every y-derivative of exp at y0 is exp(y0)
    outer = Jet((math.exp(inner.value),) * (inner.order + 1))
    want = Jet(ref_exp(inner.d))
    _assert_close(jet_compose(outer, inner), want, _biggest(want), COMPOSE_RTOL)
