import math
import random

import mpmath as mp
import pytest
import scipy.special as special

from susypainleve.hyp1f1 import (
    KummerConvergenceError,
    KummerParameterError,
    KummerParams,
    KummerRangeError,
    kummer,
    kummer_jet,
    kummer_y_derivative,
)
from susypainleve.jets import jet_var
from susypainleve.oscillator import Parity
from susypainleve.painleve import PIV_FAMILY_NAMES, PV_CLOSED_NAMES, family_solution


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
    assert kummer(KummerParams(3.7, 1.5), 0.0) == 1.0
    assert kummer(KummerParams(-1.0, 1.5), 2.0) == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert kummer(KummerParams(0.5, 0.5), 1.0) == pytest.approx(math.e, rel=1e-15)


def test_derived_value_frozen_from_series_oracle():
    # brute-force partial sums until the increment drops below 1e-17 relative
    want = brute_force_series(0.25, 0.5, 2.25)
    assert want == pytest.approx(4.501759134503705, rel=1e-15)
    assert kummer(KummerParams(0.25, 0.5), 2.25) == pytest.approx(want, rel=1e-14)


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
        kummer(KummerParams(0.5, 1.5), 37.0)
    with pytest.raises(KummerConvergenceError):
        kummer(KummerParams(0.5, 1.5), 30.0, max_terms=5)


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
        got = kummer(KummerParams(p, q), y)
        want, scale = _horner_terminating(p, q, y)
        # no truncation error: the two orderings differ only by rounding,
        # bounded by the alternating-sum term scale
        assert abs(got - want) <= 1e-14 * scale
        if scale <= 10.0 * abs(want):  # low-cancellation regime: tight relative
            assert got == pytest.approx(want, rel=1e-14, abs=1e-18)


def test_kummer_ode_residual_at_random_points():
    # y F'' + (q - y) F' - p F = 0, derivatives via contiguity
    rng = random.Random(19)
    for _ in range(50):
        p = rng.uniform(-4.0, 4.0)
        q = rng.choice([0.5, 1.5, 2.5, 3.5])
        y = rng.uniform(0.05, 16.0)
        params = KummerParams(p, q)
        F = kummer(params, y)
        F1 = kummer_y_derivative(params, y, 1)
        F2 = kummer_y_derivative(params, y, 2)
        res = y * F2 + (q - y) * F1 - p * F
        scale = max(abs(y * F2), abs((q - y) * F1), abs(p * F), 1e-300)
        assert abs(res) <= 1e-10 * scale


def test_against_scipy_reference():
    rng = random.Random(101)
    for _ in range(60):
        p = rng.uniform(-5.0, 5.0)
        q = rng.choice([0.5, 1.5, 2.5])
        y = rng.uniform(0.0, 16.0)
        got = kummer(KummerParams(p, q), y)
        want = special.hyp1f1(p, q, y)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_jet_trivial_cases():
    # p = 0: constant 1
    j = kummer_jet(KummerParams(0.0, 1.5), jet_var(1.3, 4))
    assert j.d == (1.0, 0.0, 0.0, 0.0, 0.0)
    # p = q: 1F1(a;a;x^2) = exp(x^2); at x=1, order 2: (e, 2e, 6e)
    j = kummer_jet(KummerParams(0.5, 0.5), jet_var(1.0, 2))
    assert j.d == pytest.approx((math.e, 2 * math.e, 6 * math.e), rel=1e-13)
    # p=-1, q=1/2: 1 - 2x^2; at x=1, order 1: (-1, -4)
    j = kummer_jet(KummerParams(-1.0, 0.5), jet_var(1.0, 1))
    assert j.d == pytest.approx((-1.0, -4.0), rel=1e-14)


def test_jet_value_consistency():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.uniform(-3.0, 3.0)
        q = rng.choice([0.5, 1.5])
        x = rng.uniform(0.1, 3.5)
        params = KummerParams(p, q)
        j = kummer_jet(params, jet_var(x, 5))
        assert j.value == pytest.approx(kummer(params, x * x), rel=1e-13)


def test_jet_derivatives_against_mpmath():
    mp.mp.dps = 30
    for p, q, x in [(-1.25, 0.5, 0.9), (0.75, 1.5, 1.4), (2.0, 0.5, 0.6)]:
        f = lambda t: mp.hyp1f1(p, q, t * t)
        j = kummer_jet(KummerParams(p, q), jet_var(x, 4))
        for k in range(5):
            want = float(mp.diff(f, mp.mpf(x), k))
            assert abs(j.d[k] - want) <= 1e-11 * max(1.0, abs(want))
