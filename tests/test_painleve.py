import math
import random

import mpmath as mp
import numpy as np
import pytest

import closed_form_reference as ref
import extremal_reference as extremal

from package_caches import clear_package_caches
from susypainleve import cli, oscillator, painleve, susy
from susypainleve.backlund import CATALOG, bt_piv_chain, check_catalog_row
from susypainleve.config import default_x_grid, default_z_grid, linear_grid
from susypainleve.jets import DomainError, PoleError, on_grid
from susypainleve.oscillator import Parity, SeedSpec
from susypainleve.painleve import (
    _PIV_CLOSED,
    PIV_FAMILY_NAMES,
    DegenerateClosedFormError,
    PV_IDENTIFICATIONS,
    _alpha_state,
    closed_piv_solution,
    closed_pv_solution,
    derived_pv_solution,
    extremal_piv_solution,
    family_solution,
    piv_parameters,
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
    sol = extremal.piv_from_extremal(states[0], (0.5, 1.5, 0.5), 0)
    assert (sol.a, sol.b) == (0.0, -2.0)
    for x in (0.4, 1.1, 2.7):
        assert sol.g(x, 0).value == pytest.approx(-2.0 * x, rel=1e-13)
    with pytest.raises(ValueError):
        extremal.piv_from_extremal(states[0], (0.7, 1.5, 0.5), 0)


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
    with pytest.raises(DegenerateClosedFormError):  # slot 2 of H1 is g3
        extremal_piv_solution("H1", 2, 0.5, Parity.EVEN)
    # the extremal-state route: the eps3 extremal state is A+ u = 0, so it
    # degenerates as well
    with pytest.raises((PoleError, GridDegenerateError)):
        sol = extremal.extremal_piv("H1", 2, 0.5, Parity.EVEN)
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
        built = extremal.extremal_piv("H1", 0, eps, parity)
        dev, n, _ = pointwise_deviation(closed.g, built.g, X_GRID)
        assert dev <= 1e-10, (eps, parity)
        assert (closed.a, closed.b) == pytest.approx((built.a, built.b))


def test_closed_G_matches_extremal_route():
    for eps1 in (0.8, 2.6):
        for which, name in ((0, "G1"), (1, "G2"), (2, "G3")):
            closed = closed_piv_solution(name, eps1, Parity.ODD)
            built = extremal.extremal_piv("H2", which, eps1, Parity.ODD)
            dev, _, _ = pointwise_deviation(closed.g, built.g, X_GRID)
            assert dev <= 1e-8, (eps1, name)


def test_closed_forms_mask_the_points_past_x_max():
    # g1 and G1 read alpha from the seed, defined on (0, X_MAX]: on a grid
    # crossing x = 6 both skip the same points, and one point past it raises
    # DomainError
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
    sol = extremal.pv_from_pair(states[perm[2]], states[perm[3]], quad)
    # conventional H1 prefactor is -x, but the closed forms demand -2x
    assert sol.provenance.endswith("prefactor=-2")
    assert extremal.REFERENCE_PREFACTOR["H1"] == -1
    closed = closed_pv_solution("e", 0.7, Parity.ODD)
    dev, _, _ = pointwise_deviation(sol.w, closed.w, Z_GRID)
    assert dev <= 1e-8
    assert (sol.a, sol.b, sol.c) == pytest.approx((closed.a, closed.b, closed.c))


def test_derived_h2_prefactor_matches_reference():
    # the H2 family's conventional -2x builds the package's letter
    eps1, parity, case = rational_seed("w2a")
    prefactor = extremal.REFERENCE_PREFACTOR["H2"]
    assert prefactor == -2
    built = extremal.extremal_pv("H2", case, eps1, parity, prefactor=prefactor)
    dev, _, _ = pointwise_deviation(derived_pv_solution("H2", case, eps1, parity).w, built.w, Z_GRID)
    assert dev <= 1e-10


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
        wrong = verify_on_grid("pv", extremal.extremal_pv(family, case, eps, parity, prefactor=-1),
                               tol=1e-6)
        assert not wrong.passed, (case, wrong.max_rel_residual)
        assert wrong.max_rel_residual > 0.1, (case, wrong.max_rel_residual)
        assert all(r > 1e-6 for r in wrong.rel_residuals if not math.isnan(r)), case
        right = verify_on_grid("pv", extremal.extremal_pv(family, case, eps, parity), tol=1e-6)
        assert right.passed, (case, right.max_rel_residual)
        assert right.n_valid == wrong.n_valid == len(Z_GRID)
        package = verify_on_grid("pv", derived_pv_solution(family, case, eps, parity), tol=1e-6)
        assert package.passed and package.n_valid == len(Z_GRID), case


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
def test_derived_h1_matches_closed_forms_all_cases(parity):
    eps = 0.7
    for case in "abcdef":
        built = extremal.extremal_pv("H1", case, eps, parity)
        closed = closed_pv_solution(case, eps, parity)
        dev, n, _ = pointwise_deviation(built.w, closed.w, Z_GRID)
        assert dev <= 1e-7, (case, parity, dev)
        assert n >= 20
        derived = derived_pv_solution("H1", case, eps, parity)
        assert (derived.params, derived.provenance) == (closed.params, closed.provenance)


# -- every family member against the extremal-state route ---------------------------

PIV_ROUTE_SEEDS = {Parity.ODD: (-1.3, 0.7, 1.3, 2.9), Parity.EVEN: (-0.7, 0.3, 1.9, 3.3)}


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
@pytest.mark.parametrize("family", ["H1", "H2"])
def test_piv_slots_equal_the_extremal_route(family, parity):
    # slot i of H1 is g(i+1), of H2 G(i+1), with the slot's parameters
    for eps in PIV_ROUTE_SEEDS[parity]:
        for which in range(3):
            sol = extremal_piv_solution(family, which, eps, parity)
            built = extremal.extremal_piv(family, which, eps, parity)
            assert sol.provenance.startswith(("g" if family == "H1" else "G") + str(which + 1))
            assert (sol.a, sol.b) == pytest.approx((built.a, built.b), abs=1e-12)
            dev, n, _ = pointwise_deviation(sol.g, built.g, X_GRID)
            assert dev <= 1e-9 and n >= 30, (eps, which, dev, n)


def _report(sol):
    try:
        return verify_on_grid("pv", sol)
    except GridDegenerateError:
        return None


# four seeds per parity, the rational examples' seeds and three seeds where
# the extremal-state construction collapses for some letters
PV2_ROUTE_SEEDS = ([(eps, Parity.ODD) for eps in (-1.3, 0.7, 1.3, 2.9)]
                   + [(eps, Parity.EVEN) for eps in (-0.7, 0.3, 1.9, 3.3)]
                   + [rational_seed(name)[:2] for name in ("w2a", "w2d", "w2f")]
                   + [(3.5, Parity.ODD), (-1.5, Parity.ODD), (0.5, Parity.EVEN)])


@pytest.mark.parametrize("eps, parity", PV2_ROUTE_SEEDS)
def test_pv2_letters_equal_the_extremal_route(eps, parity):
    # each H2 letter against the pair construction on the step-two extremal
    # states: the same function wherever both evaluate, and degenerate on the
    # default grid for the same letters
    for case in "abcdef":
        sol = derived_pv_solution("H2", case, eps, parity)
        built = extremal.extremal_pv("H2", case, eps, parity)
        assert sol.params == built.params
        report, built_report = _report(sol), _report(built)
        assert (report is None) == (built_report is None), (case, report, built_report)
        if report is None:
            continue
        dev, n, _ = pointwise_deviation(sol.w, built.w, Z_GRID)
        assert dev <= 1e-9 and n == len(Z_GRID), (case, dev, n)


@pytest.mark.xfail(strict=True, reason="the reduced H2 forms lose digits next to a pole of "
                                      "alpha; ROADMAP item 4")
@pytest.mark.parametrize("case, eps, parity", [("c", 1.3, Parity.ODD), ("b", 3.979, Parity.EVEN)])
def test_pv2_letters_pass_next_to_a_pole_of_alpha(case, eps, parity):
    # the extremal-state route passes both on the default grid; the reduced
    # forms read 1.3e-8 at one point: pv2c at z = 0.1, where alpha ~ 1/x next
    # to the odd seed's pole at x = 0 (the cubic of its denominator is O(x^7)
    # from terms of size 1/x), pv2b at z = 6.38 next to a node of the seed
    assert verify_on_grid("pv", derived_pv_solution("H2", case, eps, parity)).passed


# the polynomial seeds: the Kummer series terminates and alpha is rational
POLYNOMIAL_SEEDS = [(sign * (2 * m + shift), parity) for m in range(8) for sign in (1, -1)
                    for shift, parity in ((1.5, Parity.ODD), (0.5, Parity.EVEN))]


def _collapses(form, case, eps, parity):
    # a factor that vanishes identically on alpha leaves an exact zero (a
    # division by zero) or rounding noise (a value that moves with the
    # working precision) in the letter at generic points
    values = []
    for dps in (30, 60):
        with mp.workdps(dps):
            e = mp.mpf(eps)
            try:
                values.append([form(case, 2 * x * x, x, ref.g1(x, e, parity is Parity.ODD) + x, e)
                               for x in map(mp.mpf, ("0.73", "1.37", "2.11"))])
            except ZeroDivisionError:
                return True
    return any(abs(a - b) > 1e-20 * (1 + abs(b)) for a, b in zip(*values))


def test_the_letters_refused_on_a_seed_are_those_whose_form_collapses_there():
    found = {}
    for form in (painleve._w1, painleve._w2):
        found[form] = {}
        for eps, parity in POLYNOMIAL_SEEDS:
            letters = "".join(case for case in "abcdef" if _collapses(form, case, eps, parity))
            if letters:
                found[form][(eps, parity)] = letters
    assert found == painleve._VANISHING


def test_a_refused_letter_is_a_pole_at_every_point():
    # unrefused, pv2c at eps = 3.5 odd left 4 noise values unguarded among the
    # 40 default-grid points, and pv2c at -1.5 odd 312 over five z grids
    grids = [Z_GRID, linear_grid(0.05, 30.0, 97), linear_grid(0.3, 7.7, 333)]
    for form, seeds in painleve._VANISHING.items():
        for (eps, parity), letters in seeds.items():
            for case in letters:
                sol = (closed_pv_solution(case, eps, parity) if form is painleve._w1
                       else derived_pv_solution("H2", case, eps, parity))
                assert all(on_grid(sol.w, grid, 2).mask.all() for grid in grids), (case, eps)
                with pytest.raises(PoleError):
                    sol.w(1.0, 2)


def test_every_cli_family_a_w2_row_and_a_chain_run_without_the_extremal_states(monkeypatch,
                                                                                   capsys):
    # one evaluation route: every family member reads the seed's alpha node
    # alone, so none of the ladders, intertwiners and Wronskians that build
    # the extremal states is ever called
    def refused(*args, **kwargs):
        raise AssertionError("an extremal-state operator was called")

    for module, name in ((susy, "apply_aplus"), (susy, "apply_bplus"), (susy, "_wronskian_jet"),
                         (oscillator, "ladder")):
        monkeypatch.setattr(module, name, refused)
    clear_package_caches()
    for name in cli.ALL_FAMILIES:
        seed = [] if name in cli.PV_RATIONAL_NAMES else ["--epsilon", "0.7", "--parity", "odd"]
        assert cli.main(["verify", name, *seed]) == cli.EXIT_OK, name
    capsys.readouterr()
    row = next(r for r in CATALOG if (r.source, r.target, r.k) == ("w1b", "w2a", (-1, -1, 1)))
    assert check_catalog_row(row, 0.7, Parity.ODD).passed
    assert all(link.passed for link in bt_piv_chain(SeedSpec(0.7, Parity.ODD)))


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


# -- the closed forms from alpha's Riccati equation ----------------------------


def _reduced(name):
    return _PIV_CLOSED[name][0].form


@pytest.mark.parametrize("name", PIV_FAMILY_NAMES[1:])
def test_reduced_closed_forms_equal_the_tabulated_ones(name):
    # at any (x, alpha, eps) some solution of alpha' = x^2 - 2 eps - alpha^2
    # passes through alpha, so the reduced form in (x, alpha) and the
    # tabulated one built on g1 = alpha - x, g1' = alpha' - 1 and G1 agree
    rng = random.Random(name)
    with mp.workdps(50):
        form = _reduced(name)
        for _ in range(200):
            x, al, eps = (mp.mpf(rng.uniform(lo, hi)) for lo, hi in ((0.05, 6.0), (-9.0, 9.0),
                                                                      (-3.0, 5.0)))
            g1 = al - x
            if name == "g2":
                want = ref.g2(x, g1, eps)
            elif name == "g3":
                want = ref.g3(x, g1, x * x - 2 * eps - al * al - 1, eps)
            else:
                want = getattr(ref, name)(x, al, eps)
            assert abs(form(x, al, eps) - want) <= mp.mpf(10) ** -30 * max(1, abs(want)), (x, al, eps)


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
def test_reduced_g1_equals_its_kummer_ratio(parity):
    # g1 = alpha - x, with alpha = u'/u of the seed by numerical differentiation
    rng = random.Random(parity.value)
    odd = parity is Parity.ODD
    with mp.workdps(50):
        for _ in range(40):
            x, eps = mp.mpf(rng.uniform(0.05, 6.0)), mp.mpf(rng.uniform(-3.0, 5.0))
            p, q = ((3 - 2 * eps) / 4, mp.mpf(3) / 2) if odd else ((1 - 2 * eps) / 4, mp.mpf(1) / 2)

            def u(t):
                return (t if odd else 1) * mp.exp(-t * t / 2) * mp.hyp1f1(p, q, t * t)

            want = ref.g1(x, eps, odd)
            got = _reduced("g1")(x, mp.diff(u, x) / u(x), eps)
            assert abs(got - want) <= mp.mpf(10) ** -30 * max(1, abs(want)), (x, eps)


@pytest.mark.parametrize("grid", ["x", "z half-root"])
@pytest.mark.parametrize("eps, parity", [(1.3, Parity.ODD), (-0.7, Parity.EVEN),
                                         (3.178, Parity.ODD), (0.601, Parity.EVEN)])
def test_riccati_alpha_equals_the_seed_log_derivative(grid, eps, parity):
    # the value is u'/u of the seed at order 1, to the bit; the derivatives
    # agree to the rounding of the log-derivative path, which carries the
    # larger error at order 4 (about 1e-10 against 1e-12 from mpmath at x = 3.9)
    x = np.array(X_GRID) if grid == "x" else np.sqrt(np.array(Z_GRID) * 0.5)
    riccati = on_grid(_alpha_state(eps, parity), x, 4)
    log_derivative = on_grid(FirstOrderTransform(SeedSpec(eps, parity))._alpha, x, 4)
    assert not riccati.mask.any() and not log_derivative.mask.any()
    assert riccati.block[0].tobytes() == log_derivative.block[0].tobytes()
    for k in range(1, 5):
        diff = np.abs(riccati.block[k] - log_derivative.block[k])
        assert (diff <= 1e-9 * np.maximum(1.0, np.abs(log_derivative.block[k]))).all(), k


@pytest.mark.parametrize("name, eps, parity", [("G3", 3.178, Parity.ODD),
                                               ("G3", 0.601, Parity.EVEN),
                                               ("G2", 3.178, Parity.ODD)])
def test_G_forms_pass_next_to_the_seed_nodes_on_400_points(name, eps, parity):
    # these failed at 0.66, 1.01 and 1.7e-7 when G2 and G3 cancelled the
    # poles of alpha and G1 numerically, next to a node of the seed
    rep = verify_on_grid("piv", closed_piv_solution(name, eps, parity),
                         grid=linear_grid(0.2, 4.0, 400))
    assert rep.passed and rep.skipped == 0, rep.max_rel_residual


@pytest.mark.parametrize("name", ["G1", "G2", "G3"])
def test_G_forms_at_the_even_half_seed_are_grid_degenerate(name):
    # alpha = -x there: every point is a pole of the reduced form, as it was
    # of the tabulated one, so the report is degenerate (and g3 is refused at build)
    with pytest.raises(GridDegenerateError):
        verify_on_grid("piv", closed_piv_solution(name, 0.5, Parity.EVEN))
