"""The package's Kummer summation, `_kummer_rows`, at one point: values, errors, oracles."""

import math
import random

import numpy as np
import pytest
import scipy.special as special

from susypainleve.hyp1f1 import (
    KummerConvergenceError,
    KummerParameterError,
    KummerParams,
    KummerRangeError,
    _kummer_rows,
)
from susypainleve.oscillator import Parity
from susypainleve.painleve import PIV_FAMILY_NAMES, PV_CLOSED_NAMES, family_solution


def kummer_at(params, y):
    """1F1(p; q; y) at one point, as a seed sums its rows there."""
    return _kummer_rows([(params.p, params.q)], np.array([y]), None).item()


def brute_force_series(p, q, y, rel=1e-17, nmax=5000):
    """Independent oracle: plain partial sums, no compensation, stop on rel increment."""
    s, t = 1.0, 1.0
    for n in range(nmax):
        t = t * (p + n) / (q + n) * y / (n + 1)
        s += t
        if abs(t) <= rel * abs(s):
            return s
    raise AssertionError("oracle did not converge")


def test_trivial_values():
    assert kummer_at(KummerParams(3.7, 1.5), 0.0) == 1.0
    assert kummer_at(KummerParams(-1.0, 1.5), 2.0) == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert kummer_at(KummerParams(0.5, 0.5), 1.0) == pytest.approx(math.e, rel=1e-15)


def test_derived_value_frozen_from_series_oracle():
    # brute-force partial sums until the increment drops below 1e-17 relative
    want = brute_force_series(0.25, 0.5, 2.25)
    assert want == pytest.approx(4.501759134503705, rel=1e-15)
    assert kummer_at(KummerParams(0.25, 0.5), 2.25) == pytest.approx(want, rel=1e-14)


def test_parameter_validation():
    with pytest.raises(KummerParameterError):
        KummerParams(1.0, 0.0)
    with pytest.raises(KummerParameterError):
        KummerParams(1.0, -2.0)
    KummerParams(1.0, -2.5)  # non-integer negatives are fine


def test_non_finite_parameters_are_refused_at_construction():
    # a nan p would otherwise run the whole term budget before failing to
    # converge, and q = -inf would overflow in the nonpositive-integer check
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(KummerParameterError, match="finite"):
            KummerParams(bad, 1.5)
        with pytest.raises(KummerParameterError, match="finite"):
            KummerParams(0.5, bad)


def test_closed_form_at_nan_epsilon_is_a_parameter_error():
    # each of the twelve closed forms refuses it when it is built, not when
    # it is evaluated
    for name in PIV_FAMILY_NAMES + PV_CLOSED_NAMES:
        for parity in Parity:
            with pytest.raises(KummerParameterError):
                family_solution(name, math.nan, parity)


def test_range_and_budget():
    with pytest.raises(KummerRangeError):
        kummer_at(KummerParams(0.5, 1.5), 37.0)
    with pytest.raises(KummerConvergenceError):
        # its terms still grow when the term budget runs out
        kummer_at(KummerParams(-5e5, 1.5), 0.25)


def _horner_terminating(p, q, y):
    """Exact-style evaluation of the terminating series by Horner.

    Returns (value, term_scale); term_scale = sum |c_k y^k| bounds the
    cancellation any float evaluation of the alternating polynomial incurs.
    """
    n = int(-p)
    coeffs = [1.0]
    for k in range(n):
        coeffs.append(coeffs[-1] * (p + k) / ((q + k) * (k + 1)))
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * y + c
    scale = sum(abs(c) * y**k for k, c in enumerate(coeffs))
    return acc, scale


def test_terminating_cases_match_horner():
    rng = random.Random(3)
    for _ in range(60):
        p = -float(rng.randint(0, 8))
        q = rng.choice([0.5, 1.5, 2.5]) + rng.randint(0, 3)
        y = rng.uniform(0.01, 16.0)
        got = kummer_at(KummerParams(p, q), y)
        want, scale = _horner_terminating(p, q, y)
        # no truncation error: the two orderings differ only by rounding,
        # bounded by the alternating-sum term scale
        assert abs(got - want) <= 1e-14 * scale
        if scale <= 10.0 * abs(want):  # low-cancellation regime: tight relative
            assert got == pytest.approx(want, rel=1e-14, abs=1e-18)


def test_against_scipy_reference():
    rng = random.Random(101)
    for _ in range(60):
        p = rng.uniform(-5.0, 5.0)
        q = rng.choice([0.5, 1.5, 2.5])
        y = rng.uniform(0.0, 16.0)
        got = kummer_at(KummerParams(p, q), y)
        want = special.hyp1f1(p, q, y)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)
