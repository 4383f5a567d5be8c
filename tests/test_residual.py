import math
import random

import numpy as np
import pytest

from fit_reference import ref_infer_piv, ref_infer_pv
from susypainleve.cli import ALL_FAMILIES
from susypainleve.config import linear_grid
from susypainleve.jets import jet_var, on_grid
from susypainleve.oscillator import Parity
from susypainleve.painleve import (
    PIVSolution,
    PVSolution,
    closed_piv_solution,
    closed_pv_solution,
    family_solution,
    rational_pv_solution,
)
from susypainleve.residual import (
    GridDegenerateError,
    SingularSystemError,
    _value_guarded,
    infer_piv_params,
    infer_pv_params,
    jet_deviation,
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


@pytest.mark.parametrize("kind, sol", [
    ("pv", closed_piv_solution("g1", 1.3, Parity.ODD)),
    ("piv", rational_pv_solution("w2a")),
])
def test_verify_on_grid_refuses_a_kind_the_solution_does_not_solve(kind, sol):
    with pytest.raises(ValueError) as err:
        verify_on_grid(kind, sol)
    assert f"{sol.kind!r}" in str(err.value) and f"{kind!r}" in str(err.value)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_each_family_solution_carries_its_equation(name):
    sol = family_solution(name, 1.3, Parity.ODD)
    if isinstance(sol, PIVSolution):
        assert (sol.kind, sol.variable, sol.state) == ("piv", "x", sol.g)
        assert sol.params == {"a": sol.a, "b": sol.b}
    else:
        assert (sol.kind, sol.variable, sol.state) == ("pv", "z", sol.w)
        assert sol.params == {"a": sol.a, "b": sol.b, "c": sol.c, "d": sol.d}
    assert list(sol.params) == sorted(sol.params)


def test_jet_deviation_needs_min_valid_points():
    short = on_grid(MINUS_2X.g, linear_grid(0.2, 4.0, 19), 0)
    with pytest.raises(GridDegenerateError, match="only 19 comparable points"):
        jet_deviation(short, short)
    assert jet_deviation(short, short, min_valid=19)[:2] == (0.0, 19)


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


# -- the vectorized fit against the per-sample reference loop ---------------------

SAMPLES = [0.25 + 0.125 * i for i in range(28)]
# the synthetic states' pole, their guarded sample, and two usable samples
FEW_PIV = SAMPLES[5:7] + SAMPLES[11:12]
FEW_PV = SAMPLES[5:7] + SAMPLES[11:13]


def _bits(fit, names):
    return tuple(float(getattr(fit, n)).hex() for n in names)


def _assert_fit_matches(infer, reference, state, samples, names):
    """The package's fit equals the reference loop's to the bit; returns the reference's answer."""
    want = reference(state, samples)
    if want[0] == "singular":
        with pytest.raises(SingularSystemError) as exc:
            infer(state, samples)
        assert str(exc.value) == want[1]
        return want
    theta, cond, misfit = want
    got = infer(state, samples)
    assert _bits(got, names) == tuple(v.hex() for v in (*theta, cond, misfit))
    return want


def _pole_and_zero_g(pole, zero):
    """g(x) = (x - zero)(x + 1 + 1/(x - pole)): masked at x = pole, guarded at x = zero."""

    def g(x, order):
        xj = jet_var(x, order)
        return (xj - zero) * (xj + 1.0 + 1.0 / (xj - pole))

    return g


def _pole_and_one_w(pole, one):
    """w(z) = 1 + (z - one)/(z - pole)/2: masked at z = pole, w - 1 guarded at z = one."""

    def w(z, order):
        zj = jet_var(z, order)
        return 1.0 + (zj - one) / (zj - pole) * 0.5

    return w


def _masked_and_guarded(kind, state, samples):
    jet = on_grid(state, samples, 2)
    return int(jet.mask.sum()), int((~jet.mask & _value_guarded(kind, jet.value)).sum())


@pytest.mark.parametrize("samples", [None, SAMPLES, SAMPLES[:3], FEW_PIV])
def test_infer_piv_params_matches_the_per_sample_loop(samples):
    names = ("a", "b", "cond", "misfit")
    synthetic = _pole_and_zero_g(SAMPLES[5], SAMPLES[11])
    if samples is SAMPLES:
        assert min(_masked_and_guarded("piv", synthetic, samples)) >= 1
    constant = lambda x, order: jet_var(x, order) * 0.0 + 1.5  # noqa: E731
    states = [synthetic, MINUS_2X.g, linear_g(0.0), constant]
    states += [closed_piv_solution(n, e, p).g for n in ("g1", "g2", "g3")
               for e, p in ((2.5, Parity.ODD), (0.7, Parity.EVEN), (-1.3, Parity.ODD))]
    answers = [_assert_fit_matches(infer_piv_params, ref_infer_piv, s, samples, names) for s in states]
    if samples is FEW_PIV:  # one usable sample: too few rows
        assert answers[0] == ("singular", "only 1 usable samples for a 2-parameter fit")
    assert answers[2][0] == "singular"  # g = 0 everywhere: every sample is guarded
    assert "condition number" in answers[3][1]  # g = 3/2 everywhere: equal rows


@pytest.mark.parametrize("samples", [None, SAMPLES, SAMPLES[:4], FEW_PV])
def test_infer_pv_params_matches_the_per_sample_loop(samples):
    names = ("a", "b", "c", "cond", "misfit")
    synthetic = _pole_and_one_w(SAMPLES[5], SAMPLES[11])
    if samples is SAMPLES:
        assert min(_masked_and_guarded("pv", synthetic, samples)) >= 1
    states = [synthetic, rational_pv_solution("w2a").w, rational_pv_solution("w2f").w]
    states += [closed_pv_solution(n, e, p).w for n in ("a", "b", "e")
               for e, p in ((2.5, Parity.ODD), (0.7, Parity.EVEN))]
    answers = [_assert_fit_matches(infer_pv_params, ref_infer_pv, s, samples, names) for s in states]
    if samples is FEW_PV:  # two usable samples: too few rows
        assert answers[0] == ("singular", "only 2 usable samples for a 3-parameter fit")
