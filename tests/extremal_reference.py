"""The Painleve solutions built from the extremal states of the SUSY partners.

The package evaluates every family member as one reduced rational function
of (x, alpha), alpha = u'/u of the seed.  These build the same functions as
the paper does, from the extremal states of `susy.extremal_states` (ladders,
A+, B+ and Wronskians of the seeds), as the package did before:

    g = -x - (ln phi)'                              (PIV, the state phi in slot 1)
    g = (prefactor) x - (ln W(phi3, phi4))',  w = 1 + sqrt(2z)/g(sqrt(z/2))   (PV)

They serve the tests as a second construction route, never as an
evaluation path.
"""

from susypainleve.jets import grid_memo, jet_compose, jet_var, log_derivative
from susypainleve.oscillator import SeedSpec
from susypainleve.painleve import (
    PV_IDENTIFICATIONS,
    PIVSolution,
    PVSolution,
    _half_root,
    piv_parameters,
    pv_parameters,
)
from susypainleve.susy import (
    FirstOrderTransform,
    SecondOrderTransform,
    Target,
    _wronskian_jet,
    extremal_states,
)

# each family's conventional prefactor of the PV pair construction; both
# families need -2x (tests/test_painleve.py::test_pv_prefactor_minus_two_pinned)
REFERENCE_PREFACTOR = {"H1": -1, "H2": -2}


def piv_from_extremal(phi, triplet, which):
    """g = -x - (ln phi)' with parameters from rotating triplet[which] to the front."""
    if not 0 <= which <= 2:
        raise ValueError("which must index the triplet")
    if abs(triplet[which] - phi.eigenvalue) > 1e-12:
        raise ValueError(
            f"state eigenvalue {phi.eigenvalue} is not triplet[{which}] = {triplet[which]}"
        )
    rest = tuple(e for i, e in enumerate(triplet) if i != which)
    a, b = piv_parameters(triplet[which], *rest)

    def g(x, order):
        return -jet_var(x, order) - log_derivative(phi.state(x, order + 1))

    return PIVSolution(grid_memo(g, (phi.state, 1)), a, b, provenance=f"extremal[{phi.label}]")


def extremal_piv(family, which, epsilon, parity):
    """The PIV member of slot `which`: H1's first-order states, H2's step-one reduced ones."""
    seed = SeedSpec(epsilon, parity)
    if family == "H1":
        states = extremal_states(Target.H1_PIV, FirstOrderTransform(seed))
    else:
        states = extremal_states(Target.H2_PIV, SecondOrderTransform.reduced_step1(seed))
    return piv_from_extremal(states[which], tuple(s.eigenvalue for s in states), which)


def pv_from_pair(phi3, phi4, quadruplet, prefactor=-2):
    """PV solution of the pair (phi3, phi4); `quadruplet` is (E1, E2, E3, E4), (E3, E4) theirs."""

    def w(z, order):
        X = _half_root(jet_var(z, order))
        x0 = X.value
        wr = _wronskian_jet(phi3.state, phi4.state, x0, order + 1)
        g = float(prefactor) * jet_var(x0, order) - log_derivative(wr)
        return 1.0 + (2.0 * X) / jet_compose(g, X)

    return PVSolution(grid_memo(w, (phi3.state, 2), (phi4.state, 2)), *pv_parameters(*quadruplet),
                      provenance=f"W({phi3.label}, {phi4.label}) prefactor={prefactor}")


def extremal_pv(family, case, epsilon, parity, prefactor=-2):
    """The PV member of one identification letter: H1 at eps, H2 at eps1 of the step-two partner."""
    seed = SeedSpec(epsilon, parity)
    if family == "H1":
        states = extremal_states(Target.H1_PV, FirstOrderTransform(seed))
    else:
        states = extremal_states(Target.H2_PV, SecondOrderTransform.reduced_step2(seed))
    perm = PV_IDENTIFICATIONS[case]
    quadruplet = tuple(states[i].eigenvalue for i in perm)
    return pv_from_pair(states[perm[2]], states[perm[3]], quadruplet, prefactor)
