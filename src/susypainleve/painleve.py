"""Painleve IV and V solution families built from SUSY extremal states.

PIV conventions.  A partner Hamiltonian whose lowering ladder annihilates
three extremal states at eigenvalues (E1, E2, E3) yields

    g(x) = -x - (ln phi)'           with phi the E1-slot state,

a PIV solution with a = E2 + E3 - 2 E1 - 1, b = -2 (E2 - E3)^2.  Rotating
each of the three states into the first slot gives the families
g1, g2, g3 (first-order partner, triplet (eps, eps+1, 1/2)) and
G1, G2, G3 (step-one reduced second-order partner, triplet
(eps1-1, eps1+1, 1/2)).  The tabulated closed forms are implemented verbatim
and cross-validated against this extremal-state route: a dual construction
path is the package's main defense against transcription slips in the long
expressions.

PV conventions.  With four extremal states (E1..E4) and any choice of the
pair (phi3, phi4) -- six identifications (a)..(f) --

    g(x) = (prefactor) x - (ln W(phi3, phi4))',   w(z) = 1 + sqrt(2z)/g(sqrt(z/2))

solves PV with a = (E1-E2)^2/8, b = -(E3-E4)^2/8,
c = (E1+E2-E3-E4)/4 - 1/2, d = -1/8 (z = 2x^2 throughout).  The prefactor is
fixed at -2x for both families.  The conventional -x of the first-order family
disagrees with the tabulated closed forms, which all correspond to -2x; the
solution records the prefactor used and whether it matches the family
convention.  tests/test_painleve.py::test_pv_prefactor_minus_two_pinned is the
witness: -x fails the PV residual at O(1) for every identification, -2x passes.
Constructors never run the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, ClassVar, Literal

from .config import default_x_grid, default_z_grid
from .hyp1f1 import KummerParams, kummer_jet
from .jets import Jet, grid_factor, grid_memo, jet_compose, jet_sqrt, jet_var, log_derivative
from .oscillator import Parity, SeedSpec, State, domain_x_jet
from .susy import (
    ExtremalState,
    FirstOrderTransform,
    SecondOrderTransform,
    Target,
    _wronskian_jet,
    extremal_states,
    superpotential_alpha,
)


class DegenerateClosedFormError(ArithmeticError):
    """A closed form collapses to 0/0 identically for this seed."""


@dataclass(frozen=True)
class PIVSolution:
    """Jet-valued g(x) with its PIV parameters and provenance label.

    Its equation, variable and default grid are class data; `state` and
    `params` read the fields in the equation's order.
    """

    g: State
    a: float
    b: float
    provenance: str

    kind: ClassVar[str] = "piv"
    variable: ClassVar[str] = "x"
    default_grid: ClassVar[Callable[[], list[float]]] = staticmethod(default_x_grid)

    @property
    def state(self) -> State:
        return self.g

    @property
    def params(self) -> dict[str, float]:
        return {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class PVSolution:
    """Jet-valued w(z) with PV parameters (a, b, c, d = -1/8) and provenance."""

    w: State
    a: float
    b: float
    c: float
    d: float = -0.125
    provenance: str = ""
    prefactor: int | None = None
    prefactor_matches_reference: bool | None = None

    kind: ClassVar[str] = "pv"
    variable: ClassVar[str] = "z"
    default_grid: ClassVar[Callable[[], list[float]]] = staticmethod(default_z_grid)

    @property
    def state(self) -> State:
        return self.w

    @property
    def params(self) -> dict[str, float]:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


def piv_parameters(e1: float, e2: float, e3: float) -> tuple[float, float]:
    """PIV (a, b) from an extremal eigenvalue triplet with e1 in the solved slot."""
    return e2 + e3 - 2.0 * e1 - 1.0, -2.0 * (e2 - e3) ** 2


def pv_parameters(e1: float, e2: float, e3: float, e4: float) -> tuple[float, float, float, float]:
    """PV (a, b, c, d) from an identified quadruplet; symmetric in e1<->e2 and e3<->e4."""
    lo12, hi12 = sorted((e1, e2))
    lo34, hi34 = sorted((e3, e4))
    a = (hi12 - lo12) ** 2 / 8.0
    b = -((hi34 - lo34) ** 2) / 8.0
    c = (e1 + e2 - e3 - e4) / 4.0 - 0.5
    return a, b, c, -0.125


# -- PIV: extremal-state route ---------------------------------------------------


def piv_from_extremal(
    phi: ExtremalState, triplet: tuple[float, float, float], which: int
) -> PIVSolution:
    """g = -x - (ln phi)' with parameters from rotating triplet[which] to the front."""
    if not 0 <= which <= 2:
        raise ValueError("which must index the triplet")
    if abs(triplet[which] - phi.eigenvalue) > 1e-12:
        raise ValueError(
            f"state eigenvalue {phi.eigenvalue} is not triplet[{which}] = {triplet[which]}"
        )
    rest = tuple(e for i, e in enumerate(triplet) if i != which)
    a, b = piv_parameters(triplet[which], *rest)

    def g(x: float, order: int) -> Jet:
        F = phi.state(x, order + 1)
        return -jet_var(x, order) - log_derivative(F)

    return PIVSolution(grid_memo(g, (phi.state, 1)), a, b, provenance=f"extremal[{phi.label}]")


def extremal_piv_solution(
    family: Literal["H1", "H2"], which: int, epsilon: float, parity: Parity
) -> PIVSolution:
    """Dual-route PIV member built from the extremal state in slot `which`."""
    if family == "H1":
        states = extremal_states(Target.H1_PIV, FirstOrderTransform(SeedSpec(epsilon, parity)))
    else:
        t = SecondOrderTransform.reduced_step1(SeedSpec(epsilon, parity))
        states = extremal_states(Target.H2_PIV, t)
    triplet = tuple(s.eigenvalue for s in states)
    sol = piv_from_extremal(states[which], triplet, which)
    return replace(
        sol, provenance=f"{sol.provenance} {family} eps={epsilon:g} {parity.value}"
    )


# -- PIV: tabulated closed forms ----------------------------------------------------

# A Backlund chain builds the closed forms of one seed link after link; g2
# and g3 are built on g1, and the G-states on alpha and G1.  All six closed
# forms and alpha are interned per seed, so every link of a chain reads the
# same jets, and one link's target is the next link's source node.  A chain
# asks one seed at a time, and each held node keeps a grid jet (up to 400
# points), so the caches stay small.
SUB_STATE_CACHE_SIZE = 2


@lru_cache(maxsize=SUB_STATE_CACHE_SIZE)
def _g1_state(epsilon: float, parity: Parity) -> State:
    if parity is Parity.ODD:
        num = KummerParams((7.0 - 2.0 * epsilon) / 4.0, 2.5)
        den = KummerParams((3.0 - 2.0 * epsilon) / 4.0, 1.5)
        coef = 1.0 - (2.0 / 3.0) * epsilon

        def g(x: float, order: int) -> Jet:
            xj = domain_x_jet(x, order)
            top, bottom = kummer_jet((num, den), xj)
            return 1.0 / xj - 2.0 * xj + coef * (xj * (top / bottom))

        return grid_memo(g)

    num = KummerParams((5.0 - 2.0 * epsilon) / 4.0, 1.5)
    den = KummerParams((1.0 - 2.0 * epsilon) / 4.0, 0.5)
    coef = 1.0 - 2.0 * epsilon

    def g(x: float, order: int) -> Jet:
        xj = domain_x_jet(x, order)
        top, bottom = kummer_jet((num, den), xj)
        return -2.0 * xj + coef * (xj * (top / bottom))

    return grid_memo(g)


@lru_cache(maxsize=SUB_STATE_CACHE_SIZE)
def _g2_state(epsilon: float, parity: Parity) -> State:
    g1 = _g1_state(epsilon, parity)

    def g(x: float, order: int) -> Jet:
        xj = jet_var(x, order)
        G1 = g1(x, order)
        t = G1 + xj
        num = xj + (2.0 * epsilon - xj * xj) * t + t**3
        den = xj * xj - (2.0 * epsilon + 1.0) - t * t
        return -G1 - 2.0 * xj - 2.0 * (num / den)

    return grid_memo(g, (g1, 0))


@lru_cache(maxsize=SUB_STATE_CACHE_SIZE)
def _g3_state(epsilon: float, parity: Parity) -> State:
    if parity is Parity.EVEN and epsilon == 0.5:
        # g1 = -2x makes numerator and denominator vanish identically.
        raise DegenerateClosedFormError(
            "degenerate closed form: g3 is 0/0 for the even eps = 1/2 seed"
        )
    g1 = _g1_state(epsilon, parity)

    def g(x: float, order: int) -> Jet:
        G1 = g1(x, order + 1)
        xj = jet_var(x, order)
        return -(G1.deriv() + 2.0) / (G1.truncate(order) + 2.0 * xj)

    return grid_memo(g, (g1, 1))


@lru_cache(maxsize=SUB_STATE_CACHE_SIZE)
def _alpha_state(epsilon: float, parity: Parity) -> State:
    return FirstOrderTransform(SeedSpec(epsilon, parity))._alpha


@lru_cache(maxsize=SUB_STATE_CACHE_SIZE)
def _G1_state(eps1: float, parity: Parity) -> State:
    al = _alpha_state(eps1, parity)

    def g(x: float, order: int) -> Jet:
        xj = jet_var(x, order)
        a = al(x, order)
        den = xj * xj + (1.0 - 2.0 * eps1) - a * a
        return -xj - a + 2.0 * ((xj + a) / den)

    return grid_memo(g, (al, 0))


@lru_cache(maxsize=SUB_STATE_CACHE_SIZE)
def _G2_state(eps1: float, parity: Parity) -> State:
    al = _alpha_state(eps1, parity)
    G1 = _G1_state(eps1, parity)

    def g(x: float, order: int) -> Jet:
        xj = jet_var(x, order)
        a = al(x, order)
        G = G1(x, order)
        num = 2.0 * (a * a) - 2.0 * (xj * xj) + 2.0 * (2.0 * eps1 + 1.0)
        return G + num / (a - G - xj)

    return grid_memo(g, (al, 0), (G1, 0))


@lru_cache(maxsize=SUB_STATE_CACHE_SIZE)
def _G3_state(eps1: float, parity: Parity) -> State:
    al = _alpha_state(eps1, parity)
    G1 = _G1_state(eps1, parity)

    def g(x: float, order: int) -> Jet:
        xj = jet_var(x, order)
        a = al(x, order)
        G = G1(x, order)
        t = xj + a
        num = t * (G * G) + (2.0 * eps1 - 1.0 + t * t) * G + (2.0 * eps1 - 3.0) * t
        den = t * t + t * G + (2.0 * eps1 - 1.0)
        return num / den

    return grid_memo(g, (al, 0), (G1, 0))


_PIV_CLOSED: dict[str, tuple[Callable[[float, Parity], State], Callable[[float], tuple[float, float]]]] = {
    "g1": (_g1_state, lambda e: (-e + 0.5, -2.0 * (e + 0.5) ** 2)),
    "g2": (_g2_state, lambda e: (-e - 2.5, -2.0 * (e - 0.5) ** 2)),
    "g3": (_g3_state, lambda e: (2.0 * e - 1.0, -2.0)),
    "G1": (_G1_state, lambda e: (-e + 2.5, -2.0 * (e + 0.5) ** 2)),
    "G2": (_G2_state, lambda e: (-e - 3.5, -2.0 * (e - 1.5) ** 2)),
    "G3": (_G3_state, lambda e: (2.0 * (e - 1.0), -8.0)),
}


def closed_piv_solution(name: str, epsilon: float, parity: Parity) -> PIVSolution:
    """Closed-form PIV member: g1/g2/g3 take eps, G1/G2/G3 take eps1."""
    try:
        builder, params = _PIV_CLOSED[name]
    except KeyError:
        raise ValueError(f"unknown PIV family member {name!r}") from None
    a, b = params(epsilon)
    return PIVSolution(
        builder(epsilon, parity), a, b, provenance=f"{name} eps={epsilon:g} {parity.value}"
    )


# -- PV: identifications and the pair construction --------------------------------

# Slot permutation per identification letter: positions of (E1, E2, E3, E4)
# within the natural state order [low, high, 1/2, 3/2].
PV_IDENTIFICATIONS: dict[str, tuple[int, int, int, int]] = {
    "a": (2, 3, 0, 1),
    "b": (0, 3, 2, 1),
    "c": (2, 0, 3, 1),
    "d": (2, 1, 0, 3),
    "e": (1, 3, 0, 2),
    "f": (0, 1, 2, 3),
}

_REFERENCE_PREFACTOR = {"H1": -1, "H2": -2}


@grid_factor
def _half_root(zjet: Jet) -> Jet:
    """The jet of X = sqrt(z/2), the x of z = 2x^2, held per grid."""
    return jet_sqrt(zjet * 0.5)


def _pair_w_state(phi3: ExtremalState, phi4: ExtremalState, prefactor: int) -> State:
    def w(z: float, order: int) -> Jet:
        X = _half_root(jet_var(z, order))
        x0 = X.value
        wr = _wronskian_jet(phi3.state, phi4.state, x0, order + 1)
        g_x = float(prefactor) * jet_var(x0, order) - log_derivative(wr)
        g_z = jet_compose(g_x, X)
        return 1.0 + (2.0 * X) / g_z

    return grid_memo(w, (phi3.state, 2), (phi4.state, 2))


def pv_from_pair(
    phi3: ExtremalState,
    phi4: ExtremalState,
    family: Literal["H1", "H2"],
    quadruplet: tuple[float, float, float, float],
    identification: str = "",
    prefactor: int = -2,
) -> PVSolution:
    """PV solution from a chosen extremal pair.

    `quadruplet` is the identified eigenvalue order (E1, E2, E3, E4) with
    (E3, E4) belonging to (phi3, phi4).  The solution records `prefactor`
    and whether it matches the family's conventional one.
    """
    a, b, c, d = pv_parameters(*quadruplet)
    prov = f"pv[{family}{':' + identification if identification else ''}] W({phi3.label}, {phi4.label})"
    return PVSolution(
        _pair_w_state(phi3, phi4, prefactor),
        a,
        b,
        c,
        d,
        provenance=prov,
        prefactor=prefactor,
        prefactor_matches_reference=(prefactor == _REFERENCE_PREFACTOR[family]),
    )


def derived_pv_solution(
    family: Literal["H1", "H2"],
    case: str,
    epsilon: float,
    parity: Parity,
    prefactor: int = -2,
) -> PVSolution:
    """Extremal-state PV member for one identification letter.

    For H1, `epsilon` is the first-order factorization energy; for H2 it is
    eps1 of the step-two reduced transform.
    """
    if case not in PV_IDENTIFICATIONS:
        raise ValueError(f"unknown identification {case!r}")
    if family == "H1":
        states = extremal_states(Target.H1_PV, FirstOrderTransform(SeedSpec(epsilon, parity)))
    else:
        t = SecondOrderTransform.reduced_step2(SeedSpec(epsilon, parity))
        states = extremal_states(Target.H2_PV, t)
    perm = PV_IDENTIFICATIONS[case]
    quad = tuple(states[i].eigenvalue for i in perm)
    sol = pv_from_pair(
        states[perm[2]], states[perm[3]], family, quad, identification=case,
        prefactor=prefactor,
    )
    return replace(sol, provenance=f"{sol.provenance} eps={epsilon:g} {parity.value}")


# -- PV: tabulated first-order closed forms ------------------------------------------


def _w1_params(case: str, e: float) -> tuple[float, float, float]:
    if case == "a":
        return 0.125, -0.5, -(e + 1.0) / 2.0
    if case == "b":
        return (e - 1.5) ** 2 / 8.0, -((e + 1.5) ** 2) / 8.0, -0.75
    if case == "c":
        return (e - 0.5) ** 2 / 8.0, -((e + 0.5) ** 2) / 8.0, -1.25
    if case == "d":
        return (e + 1.5) ** 2 / 8.0, -((e - 1.5) ** 2) / 8.0, -0.25
    if case == "e":
        return (e + 0.5) ** 2 / 8.0, -((e - 0.5) ** 2) / 8.0, 0.25
    if case == "f":
        return 0.5, -0.125, (e - 1.0) / 2.0
    raise ValueError(f"unknown w1 case {case!r}")


def _w1_state(case: str, epsilon: float, parity: Parity) -> State:
    t1 = FirstOrderTransform(SeedSpec(epsilon, parity))
    e = epsilon

    def w(z: float, order: int) -> Jet:
        zj = jet_var(z, order)
        X = _half_root(zj)
        al = jet_compose(superpotential_alpha(t1, X.value, order), X)
        s = 2.0 * X  # sqrt(2z)
        if case == "a":
            num = 2.0 * s * (1.0 + 2.0 * e - zj + s * al)
            den = s * (2.0 + zj) - 4.0 * (1.0 + zj) * al + 2.0 * s * (al * al)
            out = 1.0 + num / den
        elif case == "b":
            core = 4.0 * al - 4.0 * e * s + zj * s - 2.0 * (al * al) * s
            out = ((2.0 * al + s) * (core - 4.0 * s)) / ((2.0 * al - s) * (core + 4.0 * s))
        elif case == "c":
            num = s * (8.0 * e * zj - 2.0 * (zj * zj) + 4.0 * (al * al) * zj + 4.0 * s * al - 16.0)
            den = (
                8.0 * al
                - 2.0 * (zj * s) * (al * al + 2.0 * e - 3.0)
                + 4.0 * (al * zj) * (al * al + 2.0 * e - 1.0)
                - 8.0 * s * (al * al + e - 1.0)
                + (zj * zj) * s
                - 2.0 * al * (zj * zj)
            )
            out = 1.0 + num / den
        elif case == "d":
            out = (2.0 - al * s - zj) / (2.0 - al * s + zj)
        elif case == "e":
            out = (2.0 * al + s) / (2.0 * al - s)
        else:  # f
            num = -4.0 * al + zj * s + 2.0 * (al * al - 1.0) * s + 4.0 * al * zj
            den = 4.0 * al - 2.0 * s * (al * al + 2.0 * e - 2.0) + zj * s
            out = -(num / den)
        return out

    return grid_memo(w, (t1._alpha, 0))


def closed_pv_solution(case: str, epsilon: float, parity: Parity) -> PVSolution:
    """Closed-form first-order PV member w1a..w1f with its reference parameters."""
    a, b, c = _w1_params(case, epsilon)
    return PVSolution(
        _w1_state(case, epsilon, parity),
        a,
        b,
        c,
        provenance=f"w1{case} eps={epsilon:g} {parity.value}",
    )


# -- PV: the rational examples ----------------------------------------------


def _rational_state(num_coeffs: tuple[float, ...], den_coeffs: tuple[float, ...]) -> State:
    """State of a rational function of z; coefficients ascending."""

    def w(z: float, order: int) -> Jet:
        zj = jet_var(z, order)
        num = sum((c * zj**i for i, c in enumerate(num_coeffs) if c), 0.0 * zj)
        den = sum((c * zj**i for i, c in enumerate(den_coeffs) if c), 0.0 * zj)
        return num / den

    return grid_memo(w)


_RATIONALS = {
    # name: (numerator, denominator, (a, b, c), eps1, parity, identification)
    "w2a": ((-4.0, -4.0), (-1.0, -2.0, 1.0), (0.125, -2.0, 1.25), -2.5, Parity.EVEN, "a"),
    "w2d": ((105.0, 65.0, 13.0, 1.0), (30.0, 20.0, 2.0), (0.5, -6.125, 0.25), -3.5, Parity.ODD, "d"),
    "w2f": ((-3.0, -2.0, -1.0), (12.0, 4.0), (2.0, -0.125, -1.75), -1.5, Parity.ODD, "f"),
}


def rational_pv_solution(name: str) -> PVSolution:
    """The three rational PV examples (second-order family, pinned seeds)."""
    try:
        num, den, (a, b, c), eps1, parity, case = _RATIONALS[name]
    except KeyError:
        raise ValueError(f"unknown rational example {name!r}") from None
    return PVSolution(
        _rational_state(num, den),
        a,
        b,
        c,
        provenance=f"{name} rational (H2:{case} eps1={eps1:g} {parity.value})",
    )


def rational_seed(name: str) -> tuple[float, Parity, str]:
    """(eps1, parity, identification) that reconstructs a rational example."""
    _, _, _, eps1, parity, case = _RATIONALS[name]
    return eps1, parity, case


# -- registry ------------------------------------------------------------------------

PIV_FAMILY_NAMES = ("g1", "g2", "g3", "G1", "G2", "G3")
PV_CLOSED_NAMES = tuple(f"w1{c}" for c in "abcdef")
PV_DERIVED_H1_NAMES = tuple(f"pv1{c}" for c in "abcdef")
PV_DERIVED_H2_NAMES = tuple(f"pv2{c}" for c in "abcdef")
PV_RATIONAL_NAMES = ("w2a", "w2d", "w2f")


def family_solution(name: str, epsilon: float | None, parity: Parity | None):
    """Resolve a family selector to a solution object.

    g1..g3, G1..G3      -> closed PIV forms            (need epsilon, parity)
    w1a..w1f            -> closed PV forms             (need epsilon, parity)
    pv1a..pv1f          -> extremal-derived H1 PV      (need epsilon, parity)
    pv2a..pv2f          -> extremal-derived H2 PV      (need epsilon=eps1, parity)
    w2a, w2d, w2f       -> rational examples           (pinned seeds)
    """
    if name in PV_RATIONAL_NAMES:
        return rational_pv_solution(name)
    if epsilon is None or parity is None:
        raise ValueError(f"family {name!r} needs both epsilon and parity")
    if name in PIV_FAMILY_NAMES:
        return closed_piv_solution(name, epsilon, parity)
    if name in PV_CLOSED_NAMES:
        return closed_pv_solution(name[-1], epsilon, parity)
    if name in PV_DERIVED_H1_NAMES:
        return derived_pv_solution("H1", name[-1], epsilon, parity)
    if name in PV_DERIVED_H2_NAMES:
        return derived_pv_solution("H2", name[-1], epsilon, parity)
    raise ValueError(f"unknown family selector {name!r}")
