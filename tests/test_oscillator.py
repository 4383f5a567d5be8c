import math
import random

import mpmath as mp
import pytest

from kummer_reference import kummer
from susypainleve.config import linear_grid
from susypainleve.jets import DomainError
from susypainleve.oscillator import (
    Direction,
    LevelKind,
    Parity,
    SeedSpec,
    SpectrumLevel,
    chi_state,
    eigenfunction_psi,
    formal_chi,
    ladder,
    ladder_state,
    psi_state,
    schrodinger_residual,
    schrodinger_scale,
    seed_params,
    seed_state,
    seed_u,
)

GRID = linear_grid(0.2, 4.0, 40)


def test_spectrum_levels():
    assert SpectrumLevel.physical(3).energy == 7.5
    assert SpectrumLevel.formal(3).energy == 6.5
    with pytest.raises(ValueError):
        SpectrumLevel(1, LevelKind.PHYSICAL, 2.0)


def test_seed_values():
    # odd eps=3/2 is x exp(-x^2/2); even eps=1/2 is exp(-x^2/2)
    assert seed_u(SeedSpec(1.5, Parity.ODD), 1.0, 2).value == pytest.approx(math.exp(-0.5))
    assert seed_u(SeedSpec(0.5, Parity.EVEN), 1.0, 2).value == pytest.approx(math.exp(-0.5))
    # odd eps=7/2: terminating 1F1(-1;3/2;x^2) = 1 - 2x^2/3
    assert seed_u(SeedSpec(3.5, Parity.ODD), 1.0, 2).value == pytest.approx(
        math.exp(-0.5) * (1.0 - 2.0 / 3.0)
    )
    # even eps=-1/2: 1F1(1/2;1/2;x^2) = exp(x^2), so u = exp(x^2/2)
    assert seed_u(SeedSpec(-0.5, Parity.EVEN), 1.0, 2).value == pytest.approx(math.exp(0.5))
    with pytest.raises(DomainError):
        seed_u(SeedSpec(0.5, Parity.EVEN), -1.0, 2)


def test_seed_jets_in_closed_form():
    x = 1.3
    e = math.exp(-0.5 * x * x)
    # chi0 = exp(-x^2/2), whose only row is 1F1(0; 1/2; x^2) = 1: (-1)^k He_k(x) exp(-x^2/2)
    want = (e, -x * e, (x * x - 1.0) * e, -(x**3 - 3.0 * x) * e, (x**4 - 6.0 * x * x + 3.0) * e)
    assert seed_u(SeedSpec(0.5, Parity.EVEN), x, 4).d == pytest.approx(want, rel=1e-13)
    # even eps = -1/2: 1F1(1/2; 1/2; x^2) = exp(x^2), so u = exp(x^2/2); at x = 1, order 2
    r = math.exp(0.5)
    assert seed_u(SeedSpec(-0.5, Parity.EVEN), 1.0, 2).d == pytest.approx((r, r, 2.0 * r), rel=1e-13)
    # even eps = 5/2: 1F1(-1; 1/2; x^2) = 1 - 2x^2; at x = 1, order 1: (-1, -3) exp(-1/2)
    e1 = math.exp(-0.5)
    assert seed_u(SeedSpec(2.5, Parity.EVEN), 1.0, 1).d == pytest.approx((-e1, -3.0 * e1), rel=1e-14)


def test_seed_value_is_prefactor_times_kummer():
    rng = random.Random(5)
    for _ in range(30):
        spec = SeedSpec(rng.uniform(-6.0, 6.0), rng.choice([Parity.ODD, Parity.EVEN]))
        x = rng.uniform(0.1, 3.5)
        prefactor = math.exp(-0.5 * x * x) * (x if spec.parity is Parity.ODD else 1.0)
        want = prefactor * kummer(seed_params(spec), x * x)
        assert seed_u(spec, x, 5).value == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
def test_seed_jets_against_mpmath(parity):
    # u and u' read the Kummer rows; the higher entries come from the seed's
    # ODE, so its Schroedinger residual is zero by construction and this
    # oracle is what checks them: every entry to order 9, against the
    # derivatives of the 50-digit closed form, terminating seeds included
    for eps in (-3.5, -2.5, -1.5, -0.7, -0.5, 0.3, 0.5, 1.3, 1.5, 2.5, 3.5, 4.4, 7.9):
        with mp.workdps(50):
            e = mp.mpf(eps)
            if parity is Parity.ODD:
                def u(t):
                    return t * mp.exp(-t * t / 2) * mp.hyp1f1((3 - 2 * e) / 4, mp.mpf(3) / 2, t * t)
            else:
                def u(t):
                    return mp.exp(-t * t / 2) * mp.hyp1f1((1 - 2 * e) / 4, mp.mpf(1) / 2, t * t)
            wants = {x: [float(d) for d in mp.diffs(u, mp.mpf(x), 9)]
                     for x in (0.25, 0.8, 1.5, 2.3, 3.1, 3.9)}
        for x, want in wants.items():
            got = seed_u(SeedSpec(eps, parity), x, 9).d
            scale = max(abs(w) for w in want[:3])
            for k in range(10):
                assert abs(got[k] - want[k]) <= 1e-12 * max(abs(want[k]), scale), (eps, x, k)


def test_eigenfunction_and_formal_state():
    assert eigenfunction_psi(0, 1e-8, 1).value == pytest.approx(0.0, abs=1e-7)
    assert eigenfunction_psi(0, 1.0, 1).value == pytest.approx(math.exp(-0.5))
    assert eigenfunction_psi(1, 1.0, 1).value == pytest.approx(math.exp(-0.5) / 3.0)
    assert formal_chi(0, 1e-8, 1).value == pytest.approx(1.0)
    assert formal_chi(0, 1.0, 1).value == pytest.approx(math.exp(-0.5))
    assert formal_chi(1, 1.0, 1).value == pytest.approx(-math.exp(-0.5))
    with pytest.raises(ValueError):
        eigenfunction_psi(-1, 1.0)


def test_ladder_examples():
    chi0 = chi_state(0)
    psi0 = psi_state(0)
    # a- annihilates exp(-x^2/2)
    for x in (0.5, 1.0, 2.3):
        val = ladder(Direction.LOWER, chi0, x, 0).value
        assert abs(val) <= 1e-15
    # a- (x exp(-x^2/2)) = exp(-x^2/2)/sqrt(2)
    assert ladder(Direction.LOWER, psi0, 1.0, 0).value == pytest.approx(
        math.exp(-0.5) / math.sqrt(2)
    )
    # a+ exp(-x^2/2) = sqrt(2) x exp(-x^2/2)
    assert ladder(Direction.RAISE, chi0, 1.0, 0).value == pytest.approx(
        math.sqrt(2) * math.exp(-0.5)
    )


def test_schrodinger_residual_examples():
    # a seed's own residual is zero by construction (its entries are checked
    # in test_seed_jets_against_mpmath); at a wrong energy it is not: the
    # analytic residual is (2 eps - 1) exp(-x^2/2) for chi0, at eps = 1 here
    got = schrodinger_residual(chi_state(0), 1.0, 1.0)
    assert got == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_parity_behavior_near_origin():
    # even branch: derivative extrapolates to 0 at the origin
    for eps in (-1.2, 0.3, 1.7):
        d1 = [seed_u(SeedSpec(eps, Parity.EVEN), x, 1).d[1] for x in (1e-3, 5e-4, 2.5e-4)]
        assert abs(d1[-1]) < 1e-2 and abs(d1[-1]) < abs(d1[0])
        # odd branch vanishes linearly: u(x)/x tends to a nonzero constant
        ratios = [seed_u(SeedSpec(eps, Parity.ODD), x, 0).value / x for x in (1e-3, 5e-4)]
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-5)
        assert abs(ratios[0]) > 1e-6


def test_ladder_intertwining_on_formal_solutions():
    # if f solves at eps, a-f solves at eps-1 and a+f at eps+1
    rng = random.Random(23)
    for _ in range(8):
        eps = rng.uniform(-3.0, 3.0)
        parity = rng.choice([Parity.ODD, Parity.EVEN])
        f = seed_state(SeedSpec(eps, parity))
        up = ladder_state(Direction.RAISE, f)
        dn = ladder_state(Direction.LOWER, f)
        for x in GRID[::6]:
            for g, e in ((up, eps + 1.0), (dn, eps - 1.0)):
                res = schrodinger_residual(g, e, x)
                scale = schrodinger_scale(g, e, x)
                assert abs(res) <= 1e-9 * max(scale, 1e-12)


def test_double_lower_reaches_eps_minus_two():
    for eps, parity in ((1.9, Parity.ODD), (-0.7, Parity.EVEN)):
        f = seed_state(SeedSpec(eps, parity))
        f2 = ladder_state(Direction.LOWER, ladder_state(Direction.LOWER, f))
        for x in GRID[::5]:
            res = schrodinger_residual(f2, eps - 2.0, x)
            scale = schrodinger_scale(f2, eps - 2.0, x)
            assert abs(res) <= 1e-9 * max(scale, 1e-12)
