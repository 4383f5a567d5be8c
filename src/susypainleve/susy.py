"""First- and second-order SUSY (Darboux) transformations of the truncated oscillator.

First order: intertwiner A+ = (1/sqrt2)(-d/dx + alpha) with superpotential
alpha = u'/u built from a seed u at factorization energy eps; partner
potential V1 = x^2/2 - (ln u)''.  A+ maps Schroedinger solutions of H0 to
solutions of H1 at the same energy, and annihilates u itself.

Second order: two seeds u1, u2 (eps2 < eps1) enter through their Wronskian
W(u1, u2); the intertwiner is

    B+ = (1/2)[ d^2/dx^2 - (ln W)' d/dx
                + (1/2)((ln W)'' + ((ln W)')^2) - 2 V0 + eps1 + eps2 ]

and V2 = x^2/2 - (ln W)''.  Two reduced regimes matter here, because they
are the ones whose natural ladder operators drop to third/fourth order:
u2 = a- u1 with eps2 = eps1 - 1 (step one) and u2 = (a-)^2 u1 with
eps2 = eps1 - 2 (step two).  In reduced mode u2 is built by actually
applying the ladder, not by rescaling the definite-parity seed, so kernel
and Wronskian identities hold with the literal functions.

The admissibility windows (which (eps1, eps2, parity) pairs keep V2 free of
new singularities on (0, oo)) are enumerated verbatim, closed
endpoints included; `nodeless_check` is the numeric counterpart.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .config import DEFAULT_JET_ORDER
from .jets import Jet, JetError, jet_var, log_derivative, on_grid
from .oscillator import (
    Direction,
    Parity,
    SeedSpec,
    State,
    chi_state,
    ladder_state,
    psi_state,
    seed_state,
)
from .painleve import h2_pv_eigenvalues

_SQRT2 = math.sqrt(2.0)


class TransformError(ValueError):
    """Ill-formed transformation (seed bookkeeping violated)."""


class ModeMismatchError(TransformError):
    """Extremal-state target incompatible with the transform's mode."""


@dataclass(frozen=True)
class FirstOrderTransform:
    seed: SeedSpec

    def u_state(self) -> State:
        return seed_state(self.seed)

    @cached_property
    def _alpha(self) -> State:  # the state of alpha = u'/u, shared by all A+ and A built on t
        u = self.u_state()  # the state must not hold the transform, which holds the state
        return lambda x, order: log_derivative(u(x, order + 1))


class Mode(enum.Enum):
    GENERAL = "general"
    REDUCED_STEP1 = "reduced-step1"  # u2 = a- u1, eps2 = eps1 - 1
    REDUCED_STEP2 = "reduced-step2"  # u2 = (a-)^2 u1, eps2 = eps1 - 2


@dataclass(frozen=True)
class SecondOrderTransform:
    seed1: SeedSpec
    seed2: SeedSpec
    mode: Mode = Mode.GENERAL

    def __post_init__(self) -> None:
        e1, e2 = self.seed1.epsilon, self.seed2.epsilon
        if e2 >= e1:
            raise TransformError(f"need eps2 < eps1, got eps1={e1}, eps2={e2}")
        if self.mode is Mode.REDUCED_STEP1:
            if e2 != e1 - 1 or self.seed2.parity is not self.seed1.parity.flipped():
                raise TransformError("step-one reduction needs eps2 = eps1 - 1, flipped parity")
        elif self.mode is Mode.REDUCED_STEP2:
            if e2 != e1 - 2 or self.seed2.parity is not self.seed1.parity:
                raise TransformError("step-two reduction needs eps2 = eps1 - 2, same parity")

    @classmethod
    def reduced_step1(cls, seed1: SeedSpec) -> "SecondOrderTransform":
        seed2 = SeedSpec(seed1.epsilon - 1.0, seed1.parity.flipped())
        return cls(seed1, seed2, Mode.REDUCED_STEP1)

    @classmethod
    def reduced_step2(cls, seed1: SeedSpec) -> "SecondOrderTransform":
        seed2 = SeedSpec(seed1.epsilon - 2.0, seed1.parity)
        return cls(seed1, seed2, Mode.REDUCED_STEP2)

    def u1_state(self) -> State:
        return seed_state(self.seed1)

    def u2_state(self) -> State:
        return self._u2

    @cached_property
    def _u2(self) -> State:  # sub-states are built once: all states built on t share them
        if self.mode is Mode.REDUCED_STEP1:
            return ladder_state(Direction.LOWER, self.u1_state())
        if self.mode is Mode.REDUCED_STEP2:
            return ladder_state(Direction.LOWER, ladder_state(Direction.LOWER, self.u1_state()))
        return seed_state(self.seed2)

    @cached_property
    def _w(self) -> State:  # the Wronskian's state
        return partial(_wronskian_jet, self.u1_state(), self._u2)

    @cached_property
    def _log_w(self) -> State:  # the state of (ln W)' = W'/W, shared by all B+ built on t
        w = self._w
        return lambda x, order: log_derivative(w(x, order + 1))


@dataclass(frozen=True)
class ExtremalState:
    """Formal partner eigenfunction annihilated by the natural lowering ladder."""

    eigenvalue: float
    state: State
    label: str


# -- first order ------------------------------------------------------------


def superpotential_alpha(t: FirstOrderTransform, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
    """Jet of alpha = u'/u; satisfies the Riccati relation alpha' = x^2 - 2 eps - alpha^2."""
    return t._alpha(x, order)


def potential_v1(t: FirstOrderTransform, x: float) -> float:
    """Partner potential V1 = x^2/2 - (ln u)''."""
    alpha = superpotential_alpha(t, x, 1)
    return 0.5 * x * x - alpha.d[1]


def apply_aplus(t: FirstOrderTransform, f: State, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
    """(A+ f)(x) = (1/sqrt2)(-f' + alpha f); annihilates the seed u."""
    F = f(x, order + 1)
    alpha = superpotential_alpha(t, x, order)
    return (-F.deriv() + alpha * F.truncate(order)) * (1.0 / _SQRT2)


def aplus_state(t: FirstOrderTransform, f: State) -> State:
    return lambda x, order: apply_aplus(t, f, x, order)


def apply_a(t: FirstOrderTransform, f: State, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
    """The adjoint intertwiner A = (1/sqrt2)(d/dx + alpha); annihilates 1/u."""
    F = f(x, order + 1)
    alpha = superpotential_alpha(t, x, order)
    return (F.deriv() + alpha * F.truncate(order)) * (1.0 / _SQRT2)


def a_state(t: FirstOrderTransform, f: State) -> State:
    return lambda x, order: apply_a(t, f, x, order)


def apply_lminus(t: FirstOrderTransform, f: State, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
    """Third-order lowering ladder L- = A+ a- A of the first-order partner."""
    return apply_aplus(t, ladder_state(Direction.LOWER, a_state(t, f)), x, order)


# -- second order -------------------------------------------------------------


def wronskian(t: SecondOrderTransform, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
    """Jet of W(u1, u2) = u1 u2' - u1' u2."""
    return t._w(x, order)


def _wronskian_jet(u1: State, u2: State, x, order: int) -> Jet:
    U1, U2 = u1(x, order + 1), u2(x, order + 1)
    return U1.truncate(order) * U2.deriv() - U1.deriv() * U2.truncate(order)


def potential_v2(t: SecondOrderTransform, x: float) -> float:
    """Partner potential V2 = x^2/2 - (ln W)''."""
    lw = log_derivative(wronskian(t, x, 2))
    return 0.5 * x * x - lw.d[1]


def apply_bplus(t: SecondOrderTransform, f: State, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
    """(B+ f)(x) per the closed second-order form.

    B+ f = (1/2)[ f'' - (ln W)' f' + gamma f ] with
    gamma = (1/2)((ln W)'' + ((ln W)')^2) - x^2 + eps1 + eps2.
    Equals W(u1, u2, f)/(2 W(u1, u2)); annihilates both u1 and u2.
    """
    F = f(x, order + 2)
    lw = t._log_w(x, order + 1)  # (ln W)' at order+1
    lw1 = lw.truncate(order)
    lw2 = lw.deriv()
    xj = jet_var(x, order)
    eps_sum = t.seed1.epsilon + t.seed2.epsilon
    gamma = 0.5 * (lw2 + lw1 * lw1) - xj * xj + eps_sum
    return (F.deriv(2) - lw1 * F.deriv().truncate(order) + gamma * F.truncate(order)) * 0.5


def bplus_state(t: SecondOrderTransform, f: State) -> State:
    return lambda x, order: apply_bplus(t, f, x, order)


# -- admissibility ------------------------------------------------------------


def _bands(p1: Parity, p2: Parity) -> tuple[float | None, list[tuple[float, float]]]:
    """Half-line top (or None) plus the banded (lo, hi) windows for a parity pair.

    Windows constrain lo <= eps2 < eps1 <= hi; the half-line variant only
    constrains eps1 <= top.  j runs over 0, 1, 2, ...
    """
    if p1 is Parity.ODD and p2 is Parity.ODD:
        return 1.5, [(1.5 + 2.0 * j, 3.5 + 2.0 * j) for j in range(32)]
    if p1 is Parity.ODD and p2 is Parity.EVEN:
        return None, [(0.5 + 2.0 * j, 1.5 + 2.0 * j) for j in range(32)]
    if p1 is Parity.EVEN and p2 is Parity.ODD:
        return 0.5, [(1.5 + 2.0 * j, 2.5 + 2.0 * j) for j in range(32)]
    return 0.5, [(0.5 + 2.0 * j, 2.5 + 2.0 * j) for j in range(32)]


def admissible_window(p1: Parity, p2: Parity, eps1: float, eps2: float) -> bool:
    """True iff (eps1, eps2) lies in the tabulated no-new-singularity windows.

    Closed endpoints included: boundary values are admitted (use
    `window_boundary` to flag them in reports).
    """
    if eps2 >= eps1:
        raise TransformError(f"need eps2 < eps1, got {eps1}, {eps2}")
    top, bands = _bands(p1, p2)
    if top is not None and eps1 <= top:
        return True
    return any(lo <= eps2 and eps1 <= hi for lo, hi in bands)


def window_boundary(p1: Parity, p2: Parity, eps1: float, eps2: float) -> bool:
    """True when the pair is admissible only through a closed endpoint."""
    if not admissible_window(p1, p2, eps1, eps2):
        return False
    top, bands = _bands(p1, p2)
    if top is not None and eps1 <= top:
        return eps1 == top
    return all(eps2 == lo or eps1 == hi for lo, hi in bands if lo <= eps2 and eps1 <= hi)


def nodeless_check(f: State, grid: Sequence[float]) -> bool:
    """True iff f keeps a strict constant sign over the grid."""
    if len(grid) < 20:
        raise ValueError("nodeless check needs at least 20 grid points")
    jet = on_grid(f, grid, 0)
    if jet.mask.any():
        raise JetError(f"state not evaluable at {jet.mask.sum()} of {len(grid)} grid points")
    return bool(np.all(jet.value > 0.0) or np.all(jet.value < 0.0))


# -- extremal states -----------------------------------------------------------


class Target(enum.Enum):
    H1_PIV = "h1-piv"
    H2_PIV = "h2-piv"
    H1_PV = "h1-pv"
    H2_PV = "h2-pv"


def _inverse_state(f: State) -> State:
    return lambda x, order: 1.0 / f(x, order)


def _ratio_state(num: State, den: State) -> State:
    return lambda x, order: num(x, order) / den(x, order)


def extremal_states(target: Target, t) -> list[ExtremalState]:
    """Extremal states of the partner Hamiltonian, eigenvalue-tagged.

    H1 targets need a FirstOrderTransform; H2_PIV needs a step-one reduced
    SecondOrderTransform and H2_PV a step-two reduced one (the reduced ladder
    theorem supplies the third/fourth-order operators whose kernel these
    states span; the annihilation property is what the tests check).
    """
    if target in (Target.H1_PIV, Target.H1_PV):
        if not isinstance(t, FirstOrderTransform):
            raise ModeMismatchError(f"{target.value} needs a FirstOrderTransform")
        eps = t.seed.epsilon
        u = t.u_state()
        inv_u = _inverse_state(u)
        if target is Target.H1_PIV:
            return [
                ExtremalState(eps, inv_u, "1/u"),
                ExtremalState(
                    eps + 1.0, aplus_state(t, ladder_state(Direction.RAISE, u)), "A+ a+ u"
                ),
                ExtremalState(0.5, aplus_state(t, chi_state(0)), "A+ chi0"),
            ]
        up2 = ladder_state(Direction.RAISE, ladder_state(Direction.RAISE, u))
        return [
            ExtremalState(eps, inv_u, "1/u"),
            ExtremalState(eps + 2.0, aplus_state(t, up2), "A+ (a+)^2 u"),
            ExtremalState(0.5, aplus_state(t, chi_state(0)), "A+ chi0"),
            ExtremalState(1.5, aplus_state(t, psi_state(0)), "A+ psi0"),
        ]

    if not isinstance(t, SecondOrderTransform):
        raise ModeMismatchError(f"{target.value} needs a SecondOrderTransform")
    eps1 = t.seed1.epsilon
    u1 = t.u1_state()
    u1_over_w = _ratio_state(u1, t._w)
    if target is Target.H2_PIV:
        if t.mode is not Mode.REDUCED_STEP1:
            raise ModeMismatchError("H2 PIV extremal states need a step-one reduced transform")
        return [
            ExtremalState(eps1 - 1.0, u1_over_w, "u1/W"),
            ExtremalState(
                eps1 + 1.0, bplus_state(t, ladder_state(Direction.RAISE, u1)), "B+ a+ u1"
            ),
            ExtremalState(0.5, bplus_state(t, chi_state(0)), "B+ chi0"),
        ]
    if target is Target.H2_PV:
        if t.mode is not Mode.REDUCED_STEP2:
            raise ModeMismatchError("H2 PV extremal states need a step-two reduced transform")
        up2 = ladder_state(Direction.RAISE, ladder_state(Direction.RAISE, u1))
        low, high, half, three_halves = h2_pv_eigenvalues(eps1)
        return [
            ExtremalState(low, u1_over_w, "u1/W"),
            ExtremalState(high, bplus_state(t, up2), "B+ (a+)^2 u1"),
            ExtremalState(half, bplus_state(t, chi_state(0)), "B+ chi0"),
            ExtremalState(three_halves, bplus_state(t, psi_state(0)), "B+ psi0"),
        ]
    raise ModeMismatchError(f"unknown target {target!r}")


def coincident_eigenvalues(states: Sequence[ExtremalState], tol: float = 1e-12) -> bool:
    """Flag eigenvalue collisions (e.g. eps1 = -3/2 makes eps1 + 2 = 1/2 in H2 PV)."""
    ev = sorted(s.eigenvalue for s in states)
    return any(abs(b - a) <= tol for a, b in zip(ev, ev[1:]))
