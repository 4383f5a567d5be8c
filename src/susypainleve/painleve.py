"""Painleve IV and V solution families of the SUSY partners, as reduced forms of (x, alpha).

PIV conventions.  A partner Hamiltonian whose lowering ladder annihilates
three extremal states at eigenvalues (E1, E2, E3) yields

    g(x) = -x - (ln phi)'           with phi the E1-slot state,

a PIV solution with a = E2 + E3 - 2 E1 - 1, b = -2 (E2 - E3)^2.  Rotating
each of the three states into the first slot gives the families
g1, g2, g3 (first-order partner, triplet (eps, eps+1, 1/2)) and
G1, G2, G3 (step-one reduced second-order partner, triplet
(eps1-1, eps1+1, 1/2)); slot i of H1 is g(i+1), of H2 G(i+1).

PV conventions.  With four extremal states (E1..E4) and any choice of the
pair (phi3, phi4) -- six identifications (a)..(f) --

    g(x) = -2x - (ln W(phi3, phi4))',   w(z) = 1 + sqrt(2z)/g(sqrt(z/2))

solves PV with a = (E1-E2)^2/8, b = -(E3-E4)^2/8,
c = (E1+E2-E3-E4)/4 - 1/2, d = -1/8 (z = 2x^2 throughout).  The prefactor is
-2x for both families: the conventional -x of the first-order family misses
PV at O(1) (tests/test_painleve.py::test_pv_prefactor_minus_two_pinned).
Letter x of H1 (pv1x) is the tabulated first-order form w1x; letter x of H2
(pv2x) is the step-two reduced partner's.

One evaluation route.  Every g and w above is rational in x, the seed's
superpotential alpha = u'/u and its derivatives, and alpha obeys
alpha' = x^2 - 2 eps - alpha^2; so each family member is evaluated as one
reduced rational function of (x, alpha).  alpha is held per seed and grid
(`_alpha`, a grid factor): it reads the seed's value and slope and takes
every higher derivative from that equation, so every family of one seed on
one grid shares one evaluation of the seed.  The reduced forms cancel the
poles of alpha, g1 and G1 that the tabulated forms pass through.  The tests hold them against the
tabulated forms at 50 digits (tests/closed_form_reference.py) and against
the paper's construction from extremal states, ladders and intertwiners
(tests/extremal_reference.py): a dual construction path is the package's
main defense against transcription slips in the long expressions.
Constructors never run the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Literal

from .config import default_x_grid, default_z_grid
from .jets import Jet, grid_factor, jet_compose, jet_riccati, jet_sqrt, jet_var, log_derivative
from .oscillator import Parity, SeedSpec, State, domain_x_jet, seed_params, seed_u_jet


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


# -- PIV: tabulated closed forms ----------------------------------------------------


@grid_factor
def _alpha(xj: Jet, epsilon: float, parity: Parity) -> Jet:
    """alpha = u'/u from the seed at order 1, its derivatives from alpha' = x^2 - 2 eps - alpha^2.

    Held per grid and seed, so that every family of a seed on a grid (a
    Backlund chain's six, a catalog row's source and target) reads one
    evaluation.  The value takes jet_div's pole guard at the seed's zeros.
    """
    u = seed_u_jet(SeedSpec(epsilon, parity), domain_x_jet(xj.value, 1))
    return jet_riccati(log_derivative(u), xj * xj - 2.0 * epsilon)


def _closed_form(form):
    """The state of form(x, alpha, eps) per seed; `form` stays readable as `.form`.

    An eps the seed cannot serve is refused here, when the state is built.
    """

    def state(epsilon: float, parity: Parity) -> State:
        seed_params(SeedSpec(epsilon, parity))

        def g(x, order: int) -> Jet:
            xj = jet_var(x, order)
            return form(xj, _alpha(xj, epsilon, parity), epsilon)

        return g

    state.form = form
    return state


# Each closed form is one reduced rational function of (x, alpha), derived
# once with sympy from the tabulated forms (tests/closed_form_reference.py
# holds those, and tests/test_painleve.py checks each reduced form against
# them at 50 digits).  With q = x^2 - alpha^2 - 2 eps, M = q - 1 and
# w = alpha + x, G2 and G3 share the quartic S = M (x w + 2 - 2 eps) + 3 - 2 eps.
# The forms use arithmetic operators alone, so they evaluate on jets and on
# mpmath numbers alike.


def _q(x, al, e):
    return x * x - al * al - 2.0 * e


def _quartic(x, al, e, M):
    return M * (x * (al + x) + (2.0 - 2.0 * e)) + (3.0 - 2.0 * e)


@_closed_form
def _g1_state(x, al, e):
    return al - x


@_closed_form
def _g2_state(x, al, e):
    q = _q(x, al, e)
    return (al - x) * (q + 1.0) / (q - 1.0)


@_closed_form
def _g3_state(x, al, e):
    return -(_q(x, al, e) + 1.0) / (al + x)


@_closed_form
def _G1_state(x, al, e):
    q = _q(x, al, e)
    return -(al + x) * (q - 1.0) / (q + 1.0)


@_closed_form
def _G2_state(x, al, e):
    q = _q(x, al, e)
    M = q - 1.0
    return M * _quartic(x, al, e, M) / ((q + 1.0) * (x - al * q))


@_closed_form
def _G3_state(x, al, e):
    q = _q(x, al, e)
    T = (3.0 - 2.0 * e) * (al * al) + 4.0 * (al * x) + (1.0 + 2.0 * e) * (x * x) - (2.0 * e - 1.0) ** 2
    return -4.0 * ((al + x) * _quartic(x, al, e, q - 1.0)) / ((q + 1.0) * T)


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
    if name == "g3" and parity is Parity.EVEN and epsilon == 0.5:
        # alpha = -x makes numerator and denominator vanish identically.
        raise DegenerateClosedFormError(
            "degenerate closed form: g3 is 0/0 for the even eps = 1/2 seed"
        )
    # the state first: it refuses an eps outside the seed's domain
    state = builder(epsilon, parity)
    return PIVSolution(state, *params(epsilon),
                       provenance=f"{name} eps={epsilon:g} {parity.value}")


def extremal_piv_solution(
    family: Literal["H1", "H2"], which: int, epsilon: float, parity: Parity
) -> PIVSolution:
    """The PIV member of extremal slot `which`: g1, g2, g3 of H1, G1, G2, G3 of H2."""
    if family not in ("H1", "H2") or which not in (0, 1, 2):
        raise ValueError(f"no PIV member in slot {which!r} of {family!r}")
    return closed_piv_solution(f"{'g' if family == 'H1' else 'G'}{which + 1}", epsilon, parity)


# -- PV: the letters of H1 and H2 ------------------------------------------------------

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


@grid_factor
def _half_root(zjet: Jet) -> Jet:
    """The jet of X = sqrt(z/2), the x of z = 2x^2, held per grid."""
    return jet_sqrt(zjet * 0.5)


def _pv_state(form, case: str, epsilon: float, parity: Parity) -> State:
    """The state of w = form(case, z, X, alpha, eps) on a z grid, X = sqrt(z/2).

    alpha is the seed's, taken at X and composed with X's z-jet.  A letter
    that `_VANISHING` lists for the seed is a pole at every point.
    """
    seed_params(SeedSpec(epsilon, parity))
    if case in _VANISHING[form].get((epsilon, parity), ""):
        return _pole_everywhere

    def w(z: float, order: int) -> Jet:
        zj = jet_var(z, order)
        X = _half_root(zj)
        alpha = _alpha(jet_var(X.value, order), epsilon, parity)
        return form(case, zj, X, jet_compose(alpha, X), epsilon)

    return w


def _pole_everywhere(z, order: int) -> Jet:
    """w divided by a factor that is 0 on the seed: the pole guard takes every point."""
    zj = jet_var(z, order)
    return zj / (0.0 * zj)


def _w1(case: str, z, X, al, e):
    """The tabulated first-order form w1x, H1's letter x."""
    s = 2.0 * X  # sqrt(2z)
    if case == "a":
        num = 2.0 * s * (1.0 + 2.0 * e - z + s * al)
        den = s * (2.0 + z) - 4.0 * (1.0 + z) * al + 2.0 * s * (al * al)
        return 1.0 + num / den
    if case == "b":
        core = 4.0 * al - 4.0 * e * s + z * s - 2.0 * (al * al) * s
        return ((2.0 * al + s) * (core - 4.0 * s)) / ((2.0 * al - s) * (core + 4.0 * s))
    if case == "c":
        num = s * (8.0 * e * z - 2.0 * (z * z) + 4.0 * (al * al) * z + 4.0 * s * al - 16.0)
        den = (
            8.0 * al
            - 2.0 * (z * s) * (al * al + 2.0 * e - 3.0)
            + 4.0 * (al * z) * (al * al + 2.0 * e - 1.0)
            - 8.0 * s * (al * al + e - 1.0)
            + (z * z) * s
            - 2.0 * al * (z * z)
        )
        return 1.0 + num / den
    if case == "d":
        return (2.0 - al * s - z) / (2.0 - al * s + z)
    if case == "e":
        return (2.0 * al + s) / (2.0 * al - s)
    num = -4.0 * al + z * s + 2.0 * (al * al - 1.0) * s + 4.0 * al * z
    den = 4.0 * al - 2.0 * s * (al * al + 2.0 * e - 2.0) + z * s
    return -(num / den)


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


def closed_pv_solution(case: str, epsilon: float, parity: Parity) -> PVSolution:
    """Closed-form first-order PV member w1a..w1f (H1's letter) with its parameters."""
    # the state first: it refuses an eps outside the seed's domain
    state = _pv_state(_w1, case, epsilon, parity)
    return PVSolution(state, *_w1_params(case, epsilon),
                      provenance=f"w1{case} eps={epsilon:g} {parity.value}")


# H2's letter x is w = 1 + sqrt(2z)/g(sqrt(z/2)), with g = -2x - (ln W(phi3, phi4))'
# of the letter's extremal pair of the step-two reduced partner
# (tests/extremal_reference.py builds it from the states), reduced once with
# sympy to a rational function of (x, alpha).  With q = x^2 - alpha^2 - 2 eps
# the six share the factors A = x q - alpha, B = x A + 2, C = x (q + 2) + alpha
# and E = 2 x (alpha + x) + 1 - 2 eps, and b, c and f the cubic K; K and the
# other factors of degree 3 are Horner in alpha, their coefficients in
# y = x^2 and eps.


def _horner(al, *coeffs):
    """coeffs[0] al^n + ... + coeffs[n]."""
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * al + c
    return out


def _w2(case: str, z, x, al, e):
    """H2's letter `case` at x = sqrt(z/2): 1 + 2x/g with g its reduced form."""
    q = _q(x, al, e)
    A, C = x * q - al, x * (q + 2.0) + al
    if case in "def":
        E = 2.0 * (x * (al + x)) + (1.0 - 2.0 * e)
    if case == "a":
        g = -2.0 * (A * (x * A + 2.0)) / ((x * (q - 2.0) + al) * C)
    elif case == "d":
        g = -(E * (x * A + 2.0)) / ((x * (al + x) - 1.0) * C)
    elif case == "e":
        g = -(E * A) / ((al + x) * C)
    else:
        y = x * x
        K = _horner(
            al,
            -4.0 * (y * (y + (2.0 - e))),
            -(x * (y * (4.0 * y + (14.0 - 8.0 * e)) + (2.0 * e - 7.0))),
            y * (y * (4.0 * y + (4.0 - 12.0 * e)) + (18.0 - 16.0 * e + 8.0 * e * e))
            + (1.0 - 2.0 * e),
            x * (y * (y * (4.0 * y + (10.0 - 16.0 * e)) + (13.0 - 22.0 * e + 16.0 * e * e))
                 + (2.0 * e - 4.0 * e * e)),
        )
        if case == "b":
            g = -(A * K) / (C * _horner(
                al,
                -(x * (2.0 * y - 1.0)),
                -(y * (2.0 * y + (3.0 - 4.0 * e)) + 1.0),
                x * (y * (2.0 * y - (3.0 + 4.0 * e)) + (2.0 * e - 3.0)),
                y * (y * (2.0 * y + (1.0 - 8.0 * e)) + (8.0 * e * e - 6.0 * e)),
            ))
        elif case == "c":
            g = -((x * A + 2.0) * K) / (C * _horner(
                al,
                -(y * (2.0 * y - 3.0)),
                -(x * (y * (2.0 * y + (3.0 - 4.0 * e)) + 6.0)),
                y * (y * (2.0 * y - (5.0 + 4.0 * e)) + (6.0 * e - 3.0)) + 3.0,
                x * (y * (y * (2.0 * y + (1.0 - 8.0 * e)) + (8.0 * e * e - 6.0 * e + 7.0))
                     + (8.0 - 10.0 * e)),
            ))
        else:
            g = -4.0 * (E * K) / (C * _horner(
                al,
                x * (16.0 * y + (8.0 * e - 4.0 * e * e - 3.0)),
                y * (32.0 * y + (16.0 - 32.0 * e)) + (4.0 * e * e - 8.0 * e + 3.0),
                x * (y * (16.0 * y + (19.0 - 40.0 * e + 4.0 * e * e))
                     + (10.0 - 38.0 * e + 40.0 * e * e - 8.0 * e * e * e)),
            ))
    return 1.0 + (2.0 * x) / g


# On these seeds the Kummer series terminates, alpha is rational, and a
# factor of the letter's form vanishes identically on it (K of b, c and f at
# 3.5 odd and 2.5 even, alpha + x of w2e at 0.5 even, ...): the form divides
# rounding noise, and the letter is a pole at every point.  A factor that
# vanishes on alpha puts alpha's poles, the zeros of a Hermite polynomial,
# among the zeros of its leading coefficient in alpha, so only seeds of low
# degree qualify; tests/test_painleve.py finds this table at 30 and 60
# digits over the polynomial seeds |eps| <= 15.5.
_VANISHING: dict[Callable, dict[tuple[float, Parity], str]] = {
    _w1: {(1.5, Parity.ODD): "bcf", (-1.5, Parity.ODD): "acd",
          (0.5, Parity.EVEN): "bcf", (-0.5, Parity.EVEN): "abe"},
    _w2: {(1.5, Parity.ODD): "abcdef", (-1.5, Parity.ODD): "acd", (3.5, Parity.ODD): "bcf",
          (0.5, Parity.EVEN): "abcdef", (-0.5, Parity.EVEN): "abe", (2.5, Parity.EVEN): "bcf"},
}


def h2_pv_eigenvalues(eps1: float) -> tuple[float, float, float, float]:
    """The step-two reduced partner's extremal eigenvalues, in the natural state order."""
    return (eps1 - 2.0, eps1 + 2.0, 0.5, 1.5)


def derived_pv_solution(
    family: Literal["H1", "H2"], case: str, epsilon: float, parity: Parity
) -> PVSolution:
    """PV member of one identification letter: H1's is w1x at eps, H2's is at eps1."""
    if family == "H1":
        return closed_pv_solution(case, epsilon, parity)
    if family != "H2" or case not in PV_IDENTIFICATIONS:
        raise ValueError(f"unknown identification {family!r}:{case!r}")
    states = h2_pv_eigenvalues(epsilon)
    return PVSolution(_pv_state(_w2, case, epsilon, parity),
                      *pv_parameters(*(states[i] for i in PV_IDENTIFICATIONS[case])),
                      provenance=f"w2{case} eps={epsilon:g} {parity.value}")


# -- PV: the rational examples ----------------------------------------------


def _rational_state(num_coeffs: tuple[float, ...], den_coeffs: tuple[float, ...]) -> State:
    """State of a rational function of z; coefficients ascending."""

    def w(z: float, order: int) -> Jet:
        zj = jet_var(z, order)
        num = sum((c * zj**i for i, c in enumerate(num_coeffs) if c), 0.0 * zj)
        den = sum((c * zj**i for i, c in enumerate(den_coeffs) if c), 0.0 * zj)
        return num / den

    return w


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
    pv1a..pv1f          -> H1 PV letters, as w1a..w1f  (need epsilon, parity)
    pv2a..pv2f          -> H2 PV letters               (need epsilon=eps1, parity)
    w2a, w2d, w2f       -> rational examples           (pinned seeds)
    """
    if name in PV_RATIONAL_NAMES:
        return rational_pv_solution(name)
    if epsilon is None or parity is None:
        raise ValueError(f"family {name!r} needs both epsilon and parity")
    if name in PIV_FAMILY_NAMES:
        return closed_piv_solution(name, epsilon, parity)
    if name in PV_CLOSED_NAMES + PV_DERIVED_H1_NAMES:
        return closed_pv_solution(name[-1], epsilon, parity)
    if name in PV_DERIVED_H2_NAMES:
        return derived_pv_solution("H2", name[-1], epsilon, parity)
    raise ValueError(f"unknown family selector {name!r}")
