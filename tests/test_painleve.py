import math

import pytest

from susypainleve.config import default_x_grid, default_z_grid, linear_grid
from susypainleve.jets import DomainError, PoleError
from susypainleve.oscillator import Parity, SeedSpec
from susypainleve.painleve import (
    DegenerateClosedFormError,
    PV_IDENTIFICATIONS,
    closed_piv_solution,
    closed_pv_solution,
    derived_pv_solution,
    extremal_piv_solution,
    family_solution,
    piv_from_extremal,
    piv_parameters,
    pv_from_pair,
    pv_parameters,
    rational_pv_solution,
    rational_seed,
)
from susypainleve.residual import (
    GridDegenerateError,
    infer_piv_params,
    pointwise_deviation,
    verify_on_grid,
)
from susypainleve.susy import FirstOrderTransform, Target, extremal_states

X_GRID = default_x_grid()
Z_GRID = default_z_grid()


def test_piv_parameters():
    eps = 1.0
    assert piv_parameters(eps, eps + 1, 0.5) == (-0.5, -4.5)
    assert piv_parameters(0.5, eps, eps + 1) == (1.0, -2.0)
    # degenerate triplet: a = e + e - 2e - 1 = -1 regardless of e
    assert piv_parameters(2.0, 2.0, 2.0) == (-1.0, 0.0)


def test_pv_parameters_and_symmetry():
    e1 = -1.3
    assert pv_parameters(0.5, 1.5, e1 - 2, e1 + 2) == pytest.approx((0.125, -2.0, -e1 / 2, -0.125))
    eps = 0.7
    assert pv_parameters(0.5, 1.5, eps, eps + 2) == pytest.approx(
        (0.125, -0.5, -(eps + 1) / 2, -0.125)
    )
    assert pv_parameters(0.5, 1.5, eps + 2, eps) == pv_parameters(0.5, 1.5, eps, eps + 2)
    assert pv_parameters(1.5, 0.5, eps, eps + 2) == pv_parameters(0.5, 1.5, eps, eps + 2)


def test_piv_from_extremal_h1_even_half():
    tr = FirstOrderTransform(SeedSpec(0.5, Parity.EVEN))
    states = extremal_states(Target.H1_PIV, tr)
    sol = piv_from_extremal(states[0], (0.5, 1.5, 0.5), 0)
    assert (sol.a, sol.b) == (0.0, -2.0)
    for x in (0.4, 1.1, 2.7):
        assert sol.g(x, 0).value == pytest.approx(-2.0 * x, rel=1e-13)
    with pytest.raises(ValueError):
        piv_from_extremal(states[0], (0.7, 1.5, 0.5), 0)


def test_g1_odd_three_halves_closed_form():
    # ratio term vanishes: g1 = 1/x - 2x with (a, b) = (-1, -8)
    sol = closed_piv_solution("g1", 1.5, Parity.ODD)
    assert (sol.a, sol.b) == (-1.0, -8.0)
    assert sol.g(1.0, 0).value == pytest.approx(-1.0)
    assert sol.g(0.5, 0).value == pytest.approx(2.0 - 1.0)


def test_g1_even_half_is_minus_2x():
    sol = closed_piv_solution("g1", 0.5, Parity.EVEN)
    assert (sol.a, sol.b) == (0.0, -2.0)
    for x in (0.3, 1.0, 2.2):
        assert sol.g(x, 1).d == pytest.approx((-2 * x, -2.0))


def test_g3_even_half_degenerates():
    with pytest.raises(DegenerateClosedFormError):
        closed_piv_solution("g3", 0.5, Parity.EVEN)
    # fallback route: the eps3 extremal state is A+ u = 0, so the
    # extremal path degenerates as well (documented behavior)
    with pytest.raises((PoleError, GridDegenerateError)):
        sol = extremal_piv_solution("H1", 2, 0.5, Parity.EVEN)
        sol.g(1.0, 2)


def test_G1_odd_example_value():
    sol = closed_piv_solution("G1", 1.5, Parity.ODD)
    assert (sol.a, sol.b) == (1.0, -8.0)
    assert sol.g(1.0, 0).value == pytest.approx(-3.0)
    fit = infer_piv_params(sol.g)
    assert fit.a == pytest.approx(1.0, abs=1e-8)
    assert fit.b == pytest.approx(-8.0, abs=1e-8)


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
def test_closed_g1_matches_extremal_route(parity):
    eps_values = (-1.5, -0.8, -0.1, 0.9, 1.9) if parity is Parity.ODD else (-1.6, -0.9, 0.1, 0.8, 1.8)
    for eps in eps_values:
        closed = closed_piv_solution("g1", eps, parity)
        extremal = extremal_piv_solution("H1", 0, eps, parity)
        dev, n, _ = pointwise_deviation(closed.g, extremal.g, X_GRID)
        assert dev <= 1e-10, (eps, parity)
        assert (closed.a, closed.b) == pytest.approx((extremal.a, extremal.b))


def test_closed_G_matches_extremal_route():
    for eps1 in (0.8, 2.6):
        for which, name in ((0, "G1"), (1, "G2"), (2, "G3")):
            closed = closed_piv_solution(name, eps1, Parity.ODD)
            extremal = extremal_piv_solution("H2", which, eps1, Parity.ODD)
            dev, _, _ = pointwise_deviation(closed.g, extremal.g, X_GRID)
            assert dev <= 1e-8, (eps1, name)


def test_closed_forms_mask_the_points_past_x_max():
    # g1 evaluates its Kummer ratio on the seed's domain (0, X_MAX], as G1
    # does through the seed: on a grid crossing x = 6 both skip the same
    # points, and one point past it raises DomainError
    grid = linear_grid(0.2, 7.0, 40)
    past = [i for i, x in enumerate(grid) if x > 6.0]
    for name in ("g1", "G1"):
        sol = closed_piv_solution(name, 2.5, Parity.ODD)
        rep = verify_on_grid("piv", sol, grid=grid)
        assert rep.passed and rep.skipped == len(past) == 6, name
        assert [i for i, r in enumerate(rep.rel_residuals) if math.isnan(r)] == past, name
        with pytest.raises(DomainError):
            sol.g(6.5, 2)


def test_piv_solutions_verify_with_attached_parameters():
    for name in ("g1", "g2", "g3"):
        for parity in (Parity.ODD, Parity.EVEN):
            sol = closed_piv_solution(name, -0.7, parity)
            rep = verify_on_grid("piv", sol, tol=1e-8)
            assert rep.passed, (name, parity, rep.max_rel_residual)


def test_w1e_reduces_to_rational_for_odd_three_halves():
    sol = closed_pv_solution("e", 1.5, Parity.ODD)
    assert (sol.a, sol.b, sol.c, sol.d) == (0.5, -0.125, 0.25, -0.125)
    for z in (0.3, 0.8, 3.3):
        assert sol.w(z, 0).value == pytest.approx(1.0 / (1.0 - z), rel=1e-12)


def test_w1d_even_half_is_rational():
    sol = closed_pv_solution("d", 0.5, Parity.EVEN)
    for z in (0.5, 2.0):
        assert sol.w(z, 0).value == pytest.approx(1.0 / (1.0 + z), rel=1e-12)
    rep = verify_on_grid("pv", sol, tol=1e-9)
    assert rep.passed


def test_w1a_small_z_limit_is_finite():
    sol = closed_pv_solution("a", 0.7, Parity.ODD)
    values = [sol.w(z, 0).value for z in (1e-4, 1e-5, 1e-6)]
    assert all(math.isfinite(v) for v in values)
    assert values[1] == pytest.approx(values[2], rel=1e-2)


def test_rational_values():
    w2a = rational_pv_solution("w2a")
    assert w2a.w(1.0, 0).value == pytest.approx(4.0)
    assert (w2a.a, w2a.b, w2a.c, w2a.d) == (0.125, -2.0, 1.25, -0.125)
    w2d = rational_pv_solution("w2d")
    assert w2d.w(3.0, 0).value == pytest.approx(444.0 / 108.0)
    assert w2d.b == -49.0 / 8.0
    w2f = rational_pv_solution("w2f")
    assert w2f.w(3.0, 0).value == pytest.approx(-0.75)
    assert (w2f.a, w2f.c) == (2.0, -1.75)


def test_pv_identification_permutations():
    assert set(PV_IDENTIFICATIONS) == set("abcdef")
    # every identification uses each state exactly once
    for perm in PV_IDENTIFICATIONS.values():
        assert sorted(perm) == [0, 1, 2, 3]


def test_pv_from_pair_signature_and_prefactor_record():
    tr = FirstOrderTransform(SeedSpec(0.7, Parity.ODD))
    states = extremal_states(Target.H1_PV, tr)
    perm = PV_IDENTIFICATIONS["e"]
    quad = tuple(states[i].eigenvalue for i in perm)
    sol = pv_from_pair(states[perm[2]], states[perm[3]], "H1", quad, identification="e")
    # conventional H1 prefactor is -x, but the closed forms demand -2x: recorded
    assert sol.prefactor == -2
    assert sol.prefactor_matches_reference is False
    closed = closed_pv_solution("e", 0.7, Parity.ODD)
    dev, _, _ = pointwise_deviation(sol.w, closed.w, Z_GRID)
    assert dev <= 1e-8
    assert (sol.a, sol.b, sol.c) == pytest.approx((closed.a, closed.b, closed.c))


def test_derived_h2_prefactor_matches_reference():
    eps1, parity, case = rational_seed("w2a")
    sol = derived_pv_solution("H2", case, eps1, parity)
    assert sol.prefactor == -2
    assert sol.prefactor_matches_reference is True


@pytest.mark.parametrize(
    "family, eps, parity",
    [("H1", 0.7, Parity.ODD), ("H1", 0.7, Parity.EVEN),
     ("H2", 0.0, Parity.ODD), ("H2", -2.5, Parity.EVEN)],
)
def test_pv_prefactor_minus_two_pinned(family, eps, parity):
    # Both families need -2x in the pair construction: -x, the first-order
    # family's convention, misses PV at O(1) at every grid point for every
    # identification letter.
    for case in "abcdef":
        wrong = verify_on_grid("pv", derived_pv_solution(family, case, eps, parity, prefactor=-1),
                               tol=1e-6)
        assert not wrong.passed, (case, wrong.max_rel_residual)
        assert wrong.max_rel_residual > 0.1, (case, wrong.max_rel_residual)
        assert all(r > 1e-6 for r in wrong.rel_residuals if not math.isnan(r)), case
        sol = derived_pv_solution(family, case, eps, parity)
        assert sol.prefactor == -2
        assert sol.prefactor_matches_reference is (family == "H2")
        right = verify_on_grid("pv", sol, tol=1e-6)
        assert right.passed, (case, right.max_rel_residual)
        assert right.n_valid == wrong.n_valid == len(Z_GRID)


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
def test_derived_h1_matches_closed_forms_all_cases(parity):
    eps = 0.7
    for case in "abcdef":
        derived = derived_pv_solution("H1", case, eps, parity)
        closed = closed_pv_solution(case, eps, parity)
        dev, n, _ = pointwise_deviation(derived.w, closed.w, Z_GRID)
        assert dev <= 1e-7, (case, parity, dev)
        assert n >= 20


def test_derived_solution_residual_profile():
    # produced PV solutions satisfy the equation at >= 25 unguarded points
    # at 1e-8 (isolated small-z points may shed a digit through the chain)
    sol = derived_pv_solution("H2", "a", 0.0, Parity.ODD)
    rep = verify_on_grid("pv", sol, tol=1e-8)
    within = sum(1 for r in rep.rel_residuals if not math.isnan(r) and r <= 1e-8)
    assert within >= 25


def test_family_registry():
    sol = family_solution("g1", 0.5, Parity.EVEN)
    assert sol.provenance.startswith("g1")
    sol = family_solution("w2a", None, None)
    assert "rational" in sol.provenance
    with pytest.raises(ValueError):
        family_solution("nope", 1.0, Parity.ODD)
    with pytest.raises(ValueError):
        family_solution("g1", None, None)


def test_infer_params_rejects_wrong_family():
    # inference on g2 must not return g1's parameters
    g2 = closed_piv_solution("g2", 0.8, Parity.ODD)
    fit = infer_piv_params(g2.g)
    assert fit.a == pytest.approx(g2.a, abs=1e-7)
    g1 = closed_piv_solution("g1", 0.8, Parity.ODD)
    assert abs(fit.a - g1.a) > 1e-2
