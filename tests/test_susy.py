import math
import random

import pytest

from susypainleve.config import linear_grid
from susypainleve.jets import JetError, PoleError
from susypainleve.oscillator import (
    Parity,
    SeedSpec,
    chi_state,
    psi_state,
    seed_state,
)
from susypainleve.susy import (
    FirstOrderTransform,
    Mode,
    ModeMismatchError,
    SecondOrderTransform,
    Target,
    TransformError,
    admissible_window,
    apply_a,
    apply_aplus,
    apply_bplus,
    apply_lminus,
    coincident_eigenvalues,
    extremal_states,
    nodeless_check,
    potential_v1,
    potential_v2,
    superpotential_alpha,
    wronskian,
)

GRID = linear_grid(0.2, 4.0, 40)
SQRT2 = math.sqrt(2.0)


def t1(eps, parity):
    return FirstOrderTransform(SeedSpec(eps, parity))


def test_superpotential_examples():
    al = superpotential_alpha(t1(0.5, Parity.EVEN), 2.0, 2)
    assert al.d[:2] == pytest.approx((-2.0, -1.0))
    al = superpotential_alpha(t1(1.5, Parity.ODD), 2.0, 2)
    assert al.value == pytest.approx(0.5 - 2.0)


def test_riccati_identity():
    # alpha' = x^2 - 2 eps - alpha^2, checked with jets
    for eps, parity, x in [(-0.5, Parity.EVEN, 1.0), (1.7, Parity.ODD, 0.8), (2.2, Parity.EVEN, 2.5)]:
        al = superpotential_alpha(t1(eps, parity), x, 1)
        assert al.d[1] == pytest.approx(x * x - 2 * eps - al.value**2, rel=1e-11, abs=1e-11)


def test_potential_v1():
    assert potential_v1(t1(0.5, Parity.EVEN), 2.0) == pytest.approx(2.0 + 1.0)
    x = 1.3
    assert potential_v1(t1(1.5, Parity.ODD), x) == pytest.approx(x * x / 2 + 1 + 1 / x**2)
    # dual evaluation: V1 = x^2/2 - alpha' via the Riccati identity
    tr = t1(-0.5, Parity.EVEN)
    al = superpotential_alpha(tr, 1.0, 1)
    riccati = 1.0 - 2 * (-0.5) - al.value**2
    assert potential_v1(tr, 1.0) == pytest.approx(0.5 - riccati, abs=1e-11)


def test_wronskian_closed_form_and_derivative_identity():
    t2 = SecondOrderTransform(SeedSpec(1.5, Parity.ODD), SeedSpec(0.5, Parity.EVEN))
    assert wronskian(t2, 1.0, 0).value == pytest.approx(-math.exp(-1.0))
    rng = random.Random(31)
    for _ in range(10):
        e1 = rng.uniform(-2, 3)
        e2 = e1 - rng.uniform(0.3, 3)
        p1, p2 = rng.choice([Parity.ODD, Parity.EVEN]), rng.choice([Parity.ODD, Parity.EVEN])
        t2 = SecondOrderTransform(SeedSpec(e1, p1), SeedSpec(e2, p2))
        u1, u2 = seed_state(SeedSpec(e1, p1)), seed_state(SeedSpec(e2, p2))
        for x in GRID[::7]:
            W = wronskian(t2, x, 1)
            want = 2 * (e1 - e2) * u1(x, 0).value * u2(x, 0).value
            assert W.d[1] == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_wronskian_degenerate_pair():
    t2 = SecondOrderTransform(SeedSpec(1.5, Parity.ODD), SeedSpec(1.5 - 1e-9, Parity.ODD))
    assert abs(wronskian(t2, 1.0, 0).value) < 1e-8
    # B+ through a vanishing Wronskian is a pole, not a silent zero
    t2 = SecondOrderTransform(SeedSpec(1.5, Parity.ODD), SeedSpec(1.5 - 1e-12, Parity.ODD))
    with pytest.raises(PoleError):
        apply_bplus(t2, chi_state(0), 1.0, 0)


def test_transform_validation():
    with pytest.raises(TransformError):
        SecondOrderTransform(SeedSpec(0.5, Parity.EVEN), SeedSpec(1.5, Parity.ODD))
    with pytest.raises(TransformError):
        SecondOrderTransform(SeedSpec(0.5, Parity.EVEN), SeedSpec(-0.5, Parity.EVEN), Mode.REDUCED_STEP1)
    ok = SecondOrderTransform.reduced_step1(SeedSpec(0.5, Parity.EVEN))
    assert ok.seed2 == SeedSpec(-0.5, Parity.ODD)
    ok = SecondOrderTransform.reduced_step2(SeedSpec(0.5, Parity.EVEN))
    assert ok.seed2 == SeedSpec(-1.5, Parity.EVEN)


def test_potential_v2_example():
    # W = -exp(-x^2) gives V2 = x^2/2 + 2
    t2 = SecondOrderTransform(SeedSpec(1.5, Parity.ODD), SeedSpec(0.5, Parity.EVEN))
    for x in (0.7, 1.4, 3.0):
        assert potential_v2(t2, x) == pytest.approx(x * x / 2 + 2.0, rel=1e-11)


def test_aplus_annihilates_seed_and_example_values():
    tr = t1(0.5, Parity.EVEN)
    u = seed_state(SeedSpec(0.5, Parity.EVEN))
    for x in (0.5, 1.0, 2.0):
        assert abs(apply_aplus(tr, u, x, 0).value) <= 1e-14
    # A+ psi0 with even eps=1/2 seed: -(exp(-x^2/2))/sqrt(2) at x=1
    got = apply_aplus(tr, psi_state(0), 1.0, 0).value
    assert got == pytest.approx(-math.exp(-0.5) / SQRT2)
    # A annihilates 1/u
    inv_u = lambda x, order: 1.0 / u(x, order)
    for x in (0.5, 1.7):
        scale = abs(1.0 / u(x, 1).value)
        assert abs(apply_a(tr, inv_u, x, 0).value) <= 1e-12 * max(scale, 1.0)


def _bplus_scale(t2, f, x):
    from susypainleve.jets import log_derivative

    F = f(x, 2)
    lw = log_derivative(wronskian(t2, x, 2))
    gamma = 0.5 * (lw.d[1] + lw.value**2) - x * x + t2.seed1.epsilon + t2.seed2.epsilon
    return 0.5 * (abs(F.d[2]) + abs(lw.value * F.d[1]) + abs(gamma * F.d[0]))


def test_bplus_kernel_property():
    for seed1 in (SeedSpec(0.8, Parity.ODD), SeedSpec(-0.6, Parity.EVEN)):
        t2 = SecondOrderTransform.reduced_step1(seed1)
        u1 = t2.u1_state()
        u2 = t2.u2_state()
        for f in (u1, u2):
            for x in GRID[::6]:
                scale = _bplus_scale(t2, f, x)
                assert abs(apply_bplus(t2, f, x, 0).value) <= 1e-9 * max(scale, 1e-12)


def test_bplus_intertwining_spot_check():
    # (H2 - E)(B+ f) = B+ (H0 - E) f for f = psi0, E = 3/2
    t2 = SecondOrderTransform.reduced_step1(SeedSpec(0.8, Parity.ODD))
    E = 1.5
    f = psi_state(0)

    def h0_minus_e(x, order):
        from susypainleve.jets import jet_var

        F = f(x, order + 2)
        xj = jet_var(x, max(order, 1)).truncate(order)
        return -0.5 * F.deriv(2) + (0.5 * (xj * xj) - E) * F.truncate(order)

    bf = lambda x, order: apply_bplus(t2, f, x, order)
    for x in GRID[2::6]:
        BF = bf(x, 2)
        lhs = -0.5 * BF.d[2] + (potential_v2(t2, x) - E) * BF.d[0]
        rhs = apply_bplus(t2, h0_minus_e, x, 0).value
        scale = abs(BF.d[2]) * 0.5 + abs(potential_v2(t2, x) - E) * abs(BF.d[0])
        assert abs(lhs - rhs) <= 1e-8 * max(scale, 1e-12)


def test_admissible_window_reference_cases():
    assert admissible_window(Parity.ODD, Parity.ODD, 1.0, 0.0) is True
    assert admissible_window(Parity.ODD, Parity.EVEN, 1.0, 0.0) is False
    assert admissible_window(Parity.ODD, Parity.EVEN, 1.2, 0.7) is True
    assert admissible_window(Parity.EVEN, Parity.EVEN, -2.5, -3.5) is True
    assert admissible_window(Parity.EVEN, Parity.ODD, 2.2, 1.7) is True
    assert admissible_window(Parity.EVEN, Parity.ODD, 3.0, 1.7) is False
    with pytest.raises(TransformError):
        admissible_window(Parity.ODD, Parity.ODD, 0.0, 1.0)


def test_window_boundary_flags():
    from susypainleve.susy import window_boundary

    # interior of the half-line window: not boundary
    assert window_boundary(Parity.ODD, Parity.ODD, 1.0, 0.0) is False
    # eps1 exactly at the closed top of the half-line window
    assert window_boundary(Parity.ODD, Parity.ODD, 1.5, 0.0) is True
    # band endpoints: eps2 at the closed lower edge
    assert window_boundary(Parity.ODD, Parity.EVEN, 1.2, 0.5) is True
    assert window_boundary(Parity.ODD, Parity.EVEN, 1.2, 0.7) is False
    # inadmissible pairs are never boundary
    assert window_boundary(Parity.ODD, Parity.EVEN, 1.0, 0.0) is False


def _sample_admissible(rng, p1, p2):
    from susypainleve.susy import _bands

    top, bands = _bands(p1, p2)
    choices = []
    if top is not None:
        choices.append(("half-line", top))
    choices.extend(("band", band) for band in bands[:3])
    kind, spec = rng.choice(choices)
    if kind == "half-line":
        e1 = rng.uniform(spec - 3.0, spec)
        e2 = e1 - rng.uniform(0.05, 2.0)
    else:
        lo, hi = spec
        e1 = rng.uniform(lo + 0.05, hi)
        e2 = rng.uniform(lo, e1 - 0.02)
    return e1, e2


def test_window_implies_nodeless_wronskian():
    rng = random.Random(57)
    for p1 in (Parity.ODD, Parity.EVEN):
        for p2 in (Parity.ODD, Parity.EVEN):
            for _ in range(30):
                e1, e2 = _sample_admissible(rng, p1, p2)
                assert admissible_window(p1, p2, e1, e2)
                t2 = SecondOrderTransform(SeedSpec(e1, p1), SeedSpec(e2, p2))
                w = lambda x, order: wronskian(t2, x, order)
                assert nodeless_check(w, GRID), (p1, p2, e1, e2)


def test_nodeless_check_examples():
    grid = linear_grid(0.1, 4.0, 40)
    assert nodeless_check(seed_state(SeedSpec(0.5, Parity.EVEN)), grid) is True
    assert nodeless_check(seed_state(SeedSpec(3.5, Parity.ODD)), grid) is False
    with pytest.raises(ValueError):
        nodeless_check(chi_state(0), [1.0, 2.0])
    # seed points past X_MAX = 6 are masked: such a grid is refused, not judged
    with pytest.raises(JetError, match="not evaluable at 18 of 30 grid points"):
        nodeless_check(seed_state(SeedSpec(0.5, Parity.EVEN)), linear_grid(4.0, 9.0, 30))


def test_extremal_state_eigenvalue_lists():
    states = extremal_states(Target.H1_PIV, t1(0.5, Parity.EVEN))
    assert [s.eigenvalue for s in states] == [0.5, 1.5, 0.5]
    states = extremal_states(Target.H1_PV, t1(-2.5, Parity.EVEN))
    assert [s.eigenvalue for s in states] == [-2.5, -0.5, 0.5, 1.5]
    t2 = SecondOrderTransform.reduced_step2(SeedSpec(-1.5, Parity.ODD))
    states = extremal_states(Target.H2_PV, t2)
    assert [s.eigenvalue for s in states] == [-3.5, 0.5, 0.5, 1.5]
    assert coincident_eigenvalues(states) is True
    t2 = SecondOrderTransform.reduced_step2(SeedSpec(-2.5, Parity.EVEN))
    assert coincident_eigenvalues(extremal_states(Target.H2_PV, t2)) is False


def test_extremal_state_mode_mismatch():
    t2 = SecondOrderTransform.reduced_step2(SeedSpec(0.5, Parity.EVEN))
    with pytest.raises(ModeMismatchError):
        extremal_states(Target.H2_PIV, t2)
    with pytest.raises(ModeMismatchError):
        extremal_states(Target.H1_PIV, t2)


def test_h1_piv_first_state_is_inverse_seed():
    states = extremal_states(Target.H1_PIV, t1(0.5, Parity.EVEN))
    assert states[0].state(1.0, 0).value == pytest.approx(math.exp(0.5))


@pytest.mark.parametrize("target,builder", [
    (Target.H1_PIV, lambda: t1(0.8, Parity.ODD)),
    (Target.H1_PV, lambda: t1(-0.6, Parity.EVEN)),
    (Target.H2_PIV, lambda: SecondOrderTransform.reduced_step1(SeedSpec(0.8, Parity.ODD))),
    (Target.H2_PV, lambda: SecondOrderTransform.reduced_step2(SeedSpec(-0.6, Parity.EVEN))),
])
def test_extremal_states_satisfy_partner_ode(target, builder):
    tr = builder()
    states = extremal_states(target, tr)
    first_order = isinstance(tr, FirstOrderTransform)
    for st in states:
        checked = 0
        for x in GRID[1::4]:
            try:
                F = st.state(x, 2)
                v = potential_v1(tr, x) if first_order else potential_v2(tr, x)
            except JetError:
                continue
            res = -0.5 * F.d[2] + (v - st.eigenvalue) * F.d[0]
            scale = 0.5 * abs(F.d[2]) + abs(v - st.eigenvalue) * abs(F.d[0])
            assert abs(res) <= 1e-8 * max(scale, 1e-12), (st.label, x)
            checked += 1
        assert checked >= 5, st.label


def test_lminus_annihilates_h1_piv_extremal_states():
    for seed in (SeedSpec(0.8, Parity.ODD), SeedSpec(-0.6, Parity.EVEN)):
        tr = FirstOrderTransform(seed)
        for st in extremal_states(Target.H1_PIV, tr):
            for x in GRID[1::5]:
                F = st.state(x, 3)
                scale = sum(abs(v) for v in F.d)
                got = apply_lminus(tr, st.state, x, 0).value
                assert abs(got) <= 1e-8 * max(scale, 1e-12), (st.label, x)
