"""Every seed family's values against its own form on a 50-digit superpotential.

Verifying a family checks its algebra, not its seed: each family is one
rational function of (x, alpha), and alpha' = x^2 - 2 eps - alpha^2 holds
for an alpha whose value lost any number of digits, so a residual cannot
see them.  This test evaluates the package's own forms, which use
arithmetic operators alone, on alpha = u'/u from mpmath's hyp1f1 at 50
digits, and bounds the package's values by them over the seed's domain
`config.EPSILON_RANGE`.  As the verifier does, it skips masked points and
points inside the value guard.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from package_caches import clear_package_caches
from susypainleve import oscillator, painleve
from susypainleve.config import EPSILON_RANGE, default_x_grid, default_z_grid
from susypainleve.hyp1f1 import KummerParameterError
from susypainleve.jets import on_grid
from susypainleve.oscillator import Parity, SeedSpec
from susypainleve.painleve import (
    PIV_FAMILY_NAMES,
    PV_CLOSED_NAMES,
    PV_DERIVED_H2_NAMES,
    closed_piv_solution,
    family_solution,
)
from susypainleve.residual import _value_guarded

FAMILIES = PIV_FAMILY_NAMES + PV_CLOSED_NAMES + PV_DERIVED_H2_NAMES
EPSILONS = (-100.0, -2.7, 4.4, 25.0)
TOL = 1e-8


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
