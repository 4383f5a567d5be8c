import math
import random

import numpy as np
import pytest

from susypainleve.jets import jet_var
from susypainleve.oscillator import Parity
from susypainleve.painleve import (
    PIVSolution,
    PVSolution,
    closed_piv_solution,
    closed_pv_solution,
    rational_pv_solution,
)
from susypainleve.residual import (
    GridDegenerateError,
    SingularSystemError,
    infer_piv_params,
    infer_pv_params,
    piv_residual,
    pv_residual,
    verify_on_grid,
)


def linear_g(c):
    """State of g(x) = c x."""

    def g(x, order):
        return (c * jet_var(x, max(order, 1))).truncate(order)

    return g


MINUS_2X = PIVSolution(linear_g(-2.0), 0.0, -2.0, "analytic -2x")


def test_piv_residual_analytic_solution():
    for x in (0.3, 0.7, 1.9, 3.5):
        assert abs(piv_residual(MINUS_2X, x)) <= 1e-13


def test_piv_residual_linearity_in_parameters():
    # residual is affine with slope 2g in a and -1/g in b
    sol_a = PIVSolution(MINUS_2X.g, 1.0, -2.0, "a-shift")
    x = 1.0
    g = -2.0
    base = piv_residual(MINUS_2X, x)
    assert piv_residual(sol_a, x) - base == pytest.approx(2.0 * 1.0 * g, abs=1e-13)
    sol_b = PIVSolution(MINUS_2X.g, 0.0, -2.0 + 0.5, "b-shift")
    assert piv_residual(sol_b, x) - base == pytest.approx(-0.5 / g, abs=1e-13)


def test_piv_residual_derived_family_member():
    sol = closed_piv_solution("g1", -0.5, Parity.ODD)
    jet = sol.g(1.3, 2)
    from susypainleve.residual import piv_terms

    terms = piv_terms(jet, 1.3, sol.a, sol.b)
    assert abs(math.fsum(terms)) <= 1e-9 * max(abs(t) for t in terms)


def test_pv_residual_rational_and_case_e():
    w2a = rational_pv_solution("w2a")
    assert abs(pv_residual(w2a, 3.0)) <= 1e-12 * 10  # rational arithmetic only
    # w = 1/(1-z) solves PV with (1/2, -1/8, 1/4, -1/8); this is the odd
    # eps = 3/2 reduction of the case-e closed form
    sol = closed_pv_solution("e", 1.5, Parity.ODD)
    for z in (0.4, 2.0, 5.0):
        assert sol.w(z, 0).value == pytest.approx(1.0 / (1.0 - z), rel=1e-12)
        assert abs(pv_residual(sol, z)) <= 1e-12
    assert (sol.a, sol.b, sol.c, sol.d) == (0.5, -0.125, 0.25, -0.125)


def test_pv_residual_linearity_in_c():
    w2a = rational_pv_solution("w2a")
    z = 3.0
    w = w2a.w(z, 0).value
    corrupted = PVSolution(w2a.w, w2a.a, w2a.b, 0.0, w2a.d, "c=0")
    # residual(c=0) - residual(c_true) = c_true * w / z
    assert pv_residual(corrupted, z) == pytest.approx(1.25 * w / z, rel=1e-12)
    assert abs(pv_residual(corrupted, z)) == pytest.approx(abs((1.25 - 0.0) * w / z), rel=1e-12)


def test_verify_on_grid_pass_and_negative_control():
    rep = verify_on_grid("piv", MINUS_2X, tol=1e-8)
    assert rep.passed and rep.skipped == 0 and rep.n_valid == 40
    corrupted = PIVSolution(MINUS_2X.g, 0.0, -1.9, "corrupted")
    rep = verify_on_grid("piv", corrupted, tol=1e-8)
    assert not rep.passed
    assert rep.max_rel_residual >= 1e-2

    rep = verify_on_grid("pv", rational_pv_solution("w2d"), tol=1e-9)
    assert rep.passed


def test_verify_on_grid_degenerate():
    zero = PIVSolution(lambda x, order: 0.0 * jet_var(x, max(order, 2)), 0.0, 0.0, "zero")
    with pytest.raises(GridDegenerateError) as err:
        verify_on_grid("piv", zero)
    assert err.value.report is not None
    assert err.value.report.n_valid == 0
    with pytest.raises(ValueError):
        verify_on_grid("nope", MINUS_2X)


def test_infer_piv_params_examples():
    fit = infer_piv_params(MINUS_2X.g)
    assert (fit.a, fit.b) == (pytest.approx(0.0, abs=1e-10), pytest.approx(-2.0, rel=1e-10))
    assert fit.cond < 1e6
    sol = closed_piv_solution("g3", 2.5, Parity.ODD)
    fit = infer_piv_params(sol.g)
    assert fit.a == pytest.approx(4.0, abs=1e-8)
    assert fit.b == pytest.approx(-2.0, abs=1e-8)


def test_infer_singular_system():
    # constant g: the a and b columns are collinear across samples
    const = lambda x, order: jet_var(x, max(order, 2)) * 0.0 + 1.0
    with pytest.raises(SingularSystemError):
        infer_piv_params(const)


def test_infer_pv_params_examples():
    fit = infer_pv_params(rational_pv_solution("w2a").w)
    assert (fit.a, fit.b, fit.c) == (
        pytest.approx(0.125, abs=1e-9),
        pytest.approx(-2.0, abs=1e-9),
        pytest.approx(1.25, abs=1e-9),
    )
    fit = infer_pv_params(rational_pv_solution("w2f").w)
    assert (fit.a, fit.b, fit.c) == (
        pytest.approx(2.0, abs=1e-9),
        pytest.approx(-0.125, abs=1e-9),
        pytest.approx(-1.75, abs=1e-9),
    )
    # w = 1/(1-z): (1/2, -1/8, 1/4)
    sol = closed_pv_solution("e", 1.5, Parity.ODD)
    fit = infer_pv_params(sol.w)
    assert (fit.a, fit.b, fit.c) == (
        pytest.approx(0.5, abs=1e-9),
        pytest.approx(-0.125, abs=1e-9),
        pytest.approx(0.25, abs=1e-9),
    )


def test_jet_order_consistency():
    # residuals computed from order K and K+1 jets agree to rounding
    rng = random.Random(77)
    sols = [
        closed_piv_solution("g1", 0.8, Parity.ODD),
        closed_piv_solution("g2", -0.4, Parity.EVEN),
        rational_pv_solution("w2a"),
        closed_pv_solution("d", 0.3, Parity.EVEN),
    ]
    checked = 0
    for _ in range(100):
        sol = rng.choice(sols)
        if isinstance(sol, PIVSolution):
            x = rng.uniform(0.3, 3.8)
            r5 = piv_residual(sol, x, order=5)
            r6 = piv_residual(sol, x, order=6)
            jet = sol.g(x, 2)
            from susypainleve.residual import piv_terms

            scale = max(abs(t) for t in piv_terms(jet, x, sol.a, sol.b))
        else:
            x = rng.uniform(0.2, 7.5)
            r5 = pv_residual(sol, x, order=5)
            r6 = pv_residual(sol, x, order=6)
            jet = sol.w(x, 2)
            from susypainleve.residual import pv_terms

            scale = max(abs(t) for t in pv_terms(jet, x, sol.a, sol.b, sol.c, sol.d))
        assert abs(r5 - r6) <= 1e-12 * max(scale, 1e-300)
        checked += 1
    assert checked == 100


def test_verify_on_grid_accepts_an_array_grid():
    # an ndarray grid gives the report of the equal list; emptiness is a length test
    grid = [0.3 + 0.1 * i for i in range(30)]
    for kind, sol in (("piv", MINUS_2X), ("pv", rational_pv_solution("w2d"))):
        want = verify_on_grid(kind, sol, grid=grid)
        got = verify_on_grid(kind, sol, grid=np.array(grid))
        assert got == want and got.grid == grid
        assert all(type(t) is float for t in got.grid)
    with pytest.raises(ValueError, match="empty"):
        verify_on_grid("piv", MINUS_2X, grid=np.array([]))
