"""Every seed family's values against its own form on a 50-digit superpotential.

Verifying a family checks its algebra, not its seed: each family is one
rational function of (x, alpha), and alpha' = x^2 - 2 eps - alpha^2 holds
for an alpha whose value lost any number of digits, so a residual cannot
see them.  This test evaluates the package's own forms, which use
arithmetic operators alone, on alpha = u'/u from mpmath's hyp1f1 at 50
digits, and bounds the package's values by them over the seed's domain
`config.EPSILON_RANGE`.  As the verifier does, it skips masked points and
points inside the value guard.  A property test draws the family, eps,
parity and grid (the default one or the widest the CLI accepts), and holds
every value `sample` leaves unflagged to the same bound, so every value a
passing `verify` judges.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from package_caches import clear_package_caches
from susypainleve import oscillator, painleve
from susypainleve.config import (
    EPSILON_RANGE, GRID_POINTS, X_MAX, Z_MAX, default_x_grid, default_z_grid, linear_grid,
)
from susypainleve.hyp1f1 import KummerParameterError
from susypainleve.jets import on_grid
from susypainleve.oscillator import Parity, SeedSpec
from susypainleve.painleve import (
    PIV_FAMILY_NAMES,
    PV_CLOSED_NAMES,
    PV_DERIVED_H2_NAMES,
    DegenerateClosedFormError,
    closed_piv_solution,
    family_solution,
)
from susypainleve.residual import GridDegenerateError, _value_guarded, verify_on_grid

FAMILIES = PIV_FAMILY_NAMES + PV_CLOSED_NAMES + PV_DERIVED_H2_NAMES
EPSILONS = (-100.0, -2.7, 4.4, 25.0)
TOL = 1e-8
# the widest grids the CLI accepts, x up to X_MAX and z up to Z_MAX
WIDEST = {"piv": linear_grid(0.2, X_MAX, GRID_POINTS), "pv": linear_grid(0.1, Z_MAX, GRID_POINTS)}


@lru_cache(maxsize=None)
def _alpha(x, eps: float, parity: Parity):
    """alpha = u'/u of the seed at the mpf x, from two 50-digit Kummer functions."""
    odd = parity is Parity.ODD
    e = mp.mpf(eps)
    p, q = ((3 - 2 * e) / 4, mp.mpf(3) / 2) if odd else ((1 - 2 * e) / 4, mp.mpf(1) / 2)
    y = x * x
    ratio = mp.hyp1f1(p + 1, q + 1, y) / mp.hyp1f1(p, q, y)
    return (1 / x if odd else 0) - x + 2 * x * (p / q) * ratio


def _oracle(name: str, t: float, eps: float, parity: Parity):
    """The family's value at the grid point t (x for PIV, z for PV), on the 50-digit alpha."""
    e = mp.mpf(eps)
    if name in PIV_FAMILY_NAMES:
        x = mp.mpf(t)
        return painleve._PIV_CLOSED[name][0].form(x, _alpha(x, eps, parity), e)
    z = mp.mpf(t)
    X = mp.sqrt(z / 2)
    form = painleve._w1 if name.startswith("w1") else painleve._w2
    return form(name[-1], z, X, _alpha(X, eps, parity), e)


def _worst_value_errors(eps: float, parity: Parity) -> dict[str, float]:
    """max |v - v*| / max(1, |v*|) per family over its default grid's judged points."""
    worst = {}
    with mp.workdps(50):
        for name in FAMILIES:
            sol = family_solution(name, eps, parity)
            grid = np.array(default_x_grid() if sol.kind == "piv" else default_z_grid())
            jet = on_grid(sol.state, grid, 0)
            keep = ~(jet.mask | _value_guarded(sol.kind, jet.value))
            errors = [0.0]
            for t, v in zip(grid[keep].tolist(), jet.value[keep].tolist()):
                want = _oracle(name, t, eps, parity)
                errors.append(float(abs(v - want) / max(1, abs(want))))
            worst[name] = max(errors)
    return worst


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
@pytest.mark.parametrize("eps", EPSILONS)
def test_every_family_matches_its_form_on_a_50_digit_alpha(eps, parity):
    worst = _worst_value_errors(eps, parity)
    assert {name: err for name, err in worst.items() if err > TOL} == {}


def test_the_oracle_fails_a_seed_past_the_domain(monkeypatch):
    # negative control: with the bound raised, the Kummer rows at eps = 60.3
    # lose digits that no verdict sees, and the oracle sees them
    monkeypatch.setattr(oscillator, "EPSILON_RANGE", (EPSILON_RANGE[0], 80.0))
    clear_package_caches()
    worst = _worst_value_errors(60.3, Parity.ODD)
    failing = {name for name, err in worst.items() if err > TOL}
    assert {"g1", "g2", "G1"} <= failing


@pytest.mark.parametrize("eps", [EPSILON_RANGE[0] - 0.3, EPSILON_RANGE[1] + 0.1, 60.3, 1e6,
                                 -math.inf, math.nan])
def test_a_seed_outside_the_domain_is_refused_when_built(eps):
    for parity in Parity:
        with pytest.raises(KummerParameterError, match="outside the seed's domain"):
            oscillator.seed_params(SeedSpec(eps, parity))
        with pytest.raises(KummerParameterError):
            closed_piv_solution("g1", eps, parity)
        with pytest.raises(KummerParameterError):
            family_solution("pv2a", eps, parity)


def test_the_domain_s_endpoints_are_served():
    for eps in EPSILON_RANGE:
        for parity in Parity:
            oscillator.seed_params(SeedSpec(eps, parity))
            family_solution("w1a", eps, parity)


def _assert_values_match_the_oracle(name: str, eps: float, parity: Parity, wide: bool) -> None:
    """Every value `sample` leaves unflagged, but inside the value guard, is within TOL of
    the oracle; so is every value a passing `verify` judges, which is one of them."""
    try:
        sol = family_solution(name, eps, parity)
    except DegenerateClosedFormError:  # g3 on the even eps = 1/2 seed
        return
    grid = np.array(WIDEST[sol.kind] if wide else sol.default_grid())
    jet = on_grid(sol.state, grid, 1)  # the jet `sample` prints
    checked = ~(jet.mask | _value_guarded(sol.kind, jet.value))
    try:
        report = verify_on_grid(sol.kind, sol, grid=grid)
    except GridDegenerateError:
        report = None
    if report is not None and report.passed:
        judged = ~np.isnan(np.array(report.rel_residuals))
        assert not (judged & ~checked).any(), (name, eps, parity, wide)
    with mp.workdps(50):
        for t, v in zip(grid[checked].tolist(), jet.value[checked].tolist()):
            want = _oracle(name, t, eps, parity)
            error = float(abs(v - want) / max(1, abs(want)))
            assert error <= TOL, (name, eps, parity.value, wide, t, error)


def _values_property(lo: float, hi: float):
    """The property over eps in [lo, hi]; the draws always include each PIV family at hi,
    where the seed's Kummer rows lose the most digits."""
    check = given(
        name=st.sampled_from(FAMILIES),
        eps=st.floats(min_value=lo, max_value=hi),
        parity=st.sampled_from(list(Parity)),
        wide=st.booleans(),
    )(_assert_values_match_the_oracle)
    for name in PIV_FAMILY_NAMES:
        check = example(name=name, eps=hi, parity=Parity.ODD, wide=False)(check)
    return settings(derandomize=True, max_examples=60, deadline=None, database=None)(check)


def test_drawn_values_match_the_oracle_over_the_domain():
    _values_property(*EPSILON_RANGE)()


def test_the_drawn_values_fail_with_the_bound_raised_to_40(monkeypatch):
    # negative control: above eps = 25 the Kummer rows lose digits
    monkeypatch.setattr(oscillator, "EPSILON_RANGE", (EPSILON_RANGE[0], 40.0))
    clear_package_caches()
    with pytest.raises(AssertionError):
        _values_property(EPSILON_RANGE[0], 40.0)()


# Counterexamples inside the domain, all on the widest grids, found by a sweep
# of eps over the half-integers: verify passes G2 at -73.5, even, with a value
# wrong by 1.5e-8, and sample leaves unflagged values of pv2c at -1.5, even,
# wrong by 2.3, and of pv2b at 4.5, even, wrong by 2.6e-6.  The draws above
# meet none of them.
@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="values lost at large x or z on some seeds; no check flags them")
@pytest.mark.parametrize("name, eps", [("G2", -73.5), ("pv2c", -1.5), ("pv2b", 4.5)])
def test_values_on_the_widest_grids_of_some_seeds_miss_the_oracle(name, eps):
    _assert_values_match_the_oracle(name, eps, Parity.EVEN, wide=True)
