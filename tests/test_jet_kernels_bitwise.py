"""The vectorized jet kernels against the scalar reference loops, bit for bit.

Every point of a grid jet must hold exactly the floats that the scalar loop
of `jet_reference` computes from that point's entries, at every order and
grid size: a kernel that regroups a sum (a matmul, einsum or reduceat)
fails here even where it agrees to 1e-15.  Entries have random signs,
magnitudes from 1e-8 to 1e8, and some are +0.0 or -0.0, whose sign survives
only an exact replay of the loop.  A first operand may be a point jet,
which broadcasts over the grid as constants do.  A scalar operand (jet + c,
c - jet, c / jet, ...) must give the bits of the constant jet it stands for,
and a power must give the bits of the product loop it replaced.
"""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from jet_reference import (  # noqa: E402
    old_pow, ref_compose, ref_div, ref_mul, ref_sqrt,
)
from susypainleve.jets import (  # noqa: E402
    DomainError, Jet, JetError, jet_compose, jet_const, jet_div, jet_mul, jet_sqrt,
)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)
CASES = dict(
    K=st.integers(min_value=0, max_value=11),
    N=st.sampled_from([1, 2, 40, 400]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    point=st.booleans(),
)


def entries(rng, K: int, N: int, value: str = "any") -> np.ndarray:
    """A (K+1, N) block: magnitudes 1e-8..1e8, random signs, about 1 entry in 8 a signed zero.

    value "positive" keeps row 0 positive and nonzero (sqrt), "nonzero"
    keeps it nonzero (a divisor).
    """
    block = rng.choice([-1.0, 1.0], (K + 1, N)) * 10.0 ** rng.uniform(-8, 8, (K + 1, N))
    zeros = rng.random((K + 1, N)) < 0.125
    block[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    if value == "positive":
        block[0] = 10.0 ** rng.uniform(-8, 8, N)
    elif value == "nonzero":
        block[0] = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-8, 8, N)
    return block


def as_jet(block: np.ndarray, point: bool) -> Jet:
    """A point jet of the block's first column, or a grid jet of the block."""
    if point:
        return Jet(tuple(block[:, 0].tolist()))
    return Jet(block, np.zeros(block.shape[1], bool))


def assert_columns_match(got: Jet, reference, *blocks: np.ndarray) -> None:
    """Point i of `got` is reference(column i of each block), to the bit, or masked where not finite."""
    n = max(b.shape[1] for b in blocks)
    mask = np.zeros(n, bool) if got.mask is None else got.mask
    block = np.broadcast_to(got.block, (got.block.shape[0], n))
    for i in range(n):
        want = reference(*(tuple(b[:, min(i, b.shape[1] - 1)].tolist()) for b in blocks))
        if not all(math.isfinite(v) for v in want):
            assert mask[i], (i, want)
            continue
        assert not mask[i], i
        assert block[:, i].tobytes() == np.array(want).tobytes(), (i, block[:, i], want)


def operands(K, N, seed, point, second="any"):
    """Blocks a, b and their jets; with `point`, a is a point jet (and so is b if N is 1)."""
    rng = np.random.default_rng(seed)
    a = entries(rng, K, 1 if point else N)
    b = entries(rng, K, N, second)
    return as_jet(a, point), as_jet(b, point and N == 1), a, b


@SETTINGS
@given(**CASES)
@example(K=11, N=400, seed=1, point=False)
@example(K=0, N=1, seed=2, point=True)
def test_mul_matches_reference(K, N, seed, point):
    a, b, a_block, b_block = operands(K, N, seed, point)
    assert_columns_match(jet_mul(a, b), ref_mul, a_block, b_block)


@SETTINGS
@given(**CASES)
@example(K=11, N=400, seed=3, point=False)
@example(K=0, N=2, seed=4, point=True)
def test_div_matches_reference(K, N, seed, point):
    a, b, a_block, b_block = operands(K, N, seed, point, "nonzero")
    assert_columns_match(jet_div(a, b), ref_div, a_block, b_block)


@SETTINGS
@given(**CASES)
@example(K=11, N=400, seed=5, point=False)
@example(K=7, N=40, seed=6, point=True)
def test_compose_matches_reference(K, N, seed, point):
    a, b, a_block, b_block = operands(K, N, seed, point)
    assert_columns_match(jet_compose(a, b), ref_compose, a_block, b_block)


@SETTINGS
@given(**CASES)
@example(K=11, N=400, seed=7, point=False)
@example(K=0, N=1, seed=8, point=True)
def test_sqrt_matches_reference(K, N, seed, point):
    a = entries(np.random.default_rng(seed), K, 1 if point else N, "positive")
    assert_columns_match(jet_sqrt(as_jet(a, point)), ref_sqrt, a)


@SETTINGS
@given(K=st.integers(min_value=0, max_value=11), N=st.sampled_from([1, 40]),
       n=st.integers(min_value=0, max_value=4), seed=CASES["seed"], point=st.booleans())
@example(K=3, N=40, n=2, seed=11, point=False)
@example(K=2, N=1, n=1, seed=12, point=True)
def test_power_matches_the_product_loop(K, N, n, seed, point):
    rng = np.random.default_rng(seed)
    block = entries(rng, K, 1 if point else N)
    if point:
        jet = as_jet(block, True)
    else:  # masked points hold anything, non-finite entries included
        mask = rng.random(N) < 0.25
        block[:, mask] = rng.choice([math.nan, math.inf, 1.0], (K + 1, mask.sum()))
        jet = Jet(block, mask)
    with np.errstate(all="ignore"):
        got, want = jet**n, old_pow(jet, n)
    assert (got.mask is None) == (want.mask is None)
    keep = slice(None) if want.mask is None else ~want.mask
    if want.mask is not None:
        assert got.mask.tobytes() == want.mask.tobytes()
    assert got.block[:, keep].tobytes() == want.block[:, keep].tobytes()


def test_power_turns_negative_zeros_positive_as_the_product_did():
    jet = Jet((-0.0, 2.0, -0.0))
    assert [math.copysign(1.0, v) for v in (jet**1).d] == [1.0, 1.0, 1.0]
    assert (jet**0).d == (1.0, 0.0, 0.0)


def test_point_jets_answer_in_floats():
    # N = 1 with mask None is a point jet: d a tuple of floats, value a float
    a = Jet((0.5, -0.0, 2.0))
    b = jet_mul(a, a)
    assert b.mask is None and b.d == ref_mul(a.d, a.d)
    assert isinstance(b.value, float) and all(isinstance(v, float) for v in b.d)


def outcome(fn):
    """The result's block bytes, shape and mask bytes, or the JetError it raises."""
    try:
        with np.errstate(all="ignore"):
            jet = fn()
    except JetError as exc:
        return type(exc), str(exc)
    mask = None if jet.mask is None else jet.mask.tobytes()
    return jet.block.tobytes(), jet.block.shape, mask


@SETTINGS
@given(**CASES, c=st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e308, -1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
))
@example(K=3, N=40, seed=9, point=False, c=-0.0)
@example(K=0, N=1, seed=10, point=True, c=0.0)
def test_scalar_operands_match_constant_jets(K, N, seed, point, c):
    rng = np.random.default_rng(seed)
    jet = as_jet(entries(rng, K, 1 if point else N), point)
    const = jet_const(c, K)
    pairs = [
        (lambda: jet + c, lambda: jet + const),
        (lambda: c + jet, lambda: jet + const),
        (lambda: jet - c, lambda: jet + (-const)),
        (lambda: c - jet, lambda: (-jet) + const),
        (lambda: c / jet, lambda: jet_div(const, jet)),
    ]
    for scalar, lifted in pairs:
        assert outcome(scalar) == outcome(lifted)


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("point", [True, False])
def test_non_finite_scalar_operand_raises_as_its_constant_jet(c, point):
    jet = as_jet(np.ones((3, 1 if point else 4)), point)
    for scalar in (lambda: jet + c, lambda: c + jet, lambda: jet - c, lambda: c - jet, lambda: c / jet):
        with pytest.raises(DomainError) as got:
            scalar()
        with pytest.raises(DomainError) as want:
            jet_const(c, 2)
        assert str(got.value) == str(want.value)


def test_finiteness_check_raises_domain_error_and_never_warns():
    with pytest.raises(DomainError):
        Jet((math.inf, -math.inf))  # a sum of these entries would be nan, with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Jet((1e308, 1e308)).d == (1e308, 1e308)
        grid = Jet(np.array([[1e308, math.inf], [1e308, -math.inf]]), np.zeros(2, bool))
    assert grid.mask.tolist() == [False, True]
