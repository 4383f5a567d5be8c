"""The truncated harmonic oscillator: seeds, eigenfunctions, ladder operators.

Conventions (oscillator-energy units): H0 = -(1/2) d^2/dx^2 + x^2/2 on the
half line x > 0 with an infinite barrier at the origin.  Physical levels sit
at E_n = 2n + 3/2 with odd eigenfunctions; the even solutions at 2n + 1/2
are formal (they violate the null boundary condition and exist only as
Schroedinger solutions).

Every state here is *unnormalized*: all downstream formulas consume
logarithmic derivatives or Wronskian ratios, so overall constants cancel.
States are represented uniformly as jet-valued functions f(x, order) -> Jet,
which keeps operator application (ladder, intertwiners) purely algebraic;
x is a point or a whole grid array (see `jets`).  Every state (seeds,
ladders, intertwiners, maps) is a `jets.grid_memo` node, evaluated once per
grid at the highest order asked; `seed_state` interns one node per seed, so
all solutions built on a seed share its jets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import DEFAULT_JET_ORDER, X_MAX
from .hyp1f1 import KummerParams, kummer_jet
from .jets import DomainError, Jet, grid_factor, grid_memo, jet_exp, jet_var

State = Callable[[float | np.ndarray, int], Jet]  # x: one point or a grid array

_SQRT2 = math.sqrt(2.0)


class Parity(enum.Enum):
    ODD = "odd"
    EVEN = "even"

    def flipped(self) -> "Parity":
        return Parity.EVEN if self is Parity.ODD else Parity.ODD


@dataclass(frozen=True)
class SeedSpec:
    """Factorization energy plus definite parity: identifies one seed u(x, eps)."""

    epsilon: float
    parity: Parity


class LevelKind(enum.Enum):
    PHYSICAL = "physical"
    FORMAL = "formal"


@dataclass(frozen=True)
class SpectrumLevel:
    n: int
    kind: LevelKind
    energy: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("level index must be >= 0")
        expected = 2 * self.n + (1.5 if self.kind is LevelKind.PHYSICAL else 0.5)
        if self.energy != expected:
            raise ValueError(f"{self.kind.value} level {self.n} must sit at {expected}")

    @classmethod
    def physical(cls, n: int) -> "SpectrumLevel":
        return cls(n, LevelKind.PHYSICAL, 2 * n + 1.5)

    @classmethod
    def formal(cls, n: int) -> "SpectrumLevel":
        return cls(n, LevelKind.FORMAL, 2 * n + 0.5)


def domain_x_jet(x, order: int) -> Jet:
    """The x-jet of a point or a grid array, for states defined on (0, X_MAX].

    A grid jet masks the points outside (0, X_MAX]; on a grid inside it the
    mask is the grid's shared all-False one.  A point outside raises
    DomainError.
    """
    if isinstance(x, np.ndarray):
        xjet = jet_var(x, order)
        outside = ~((x > 0.0) & (x <= X_MAX))
        return Jet(xjet.block, outside) if outside.any() else xjet
    if x <= 0.0:
        raise DomainError(f"x = {x!r} is inside the infinite barrier (need x > 0)")
    if x > X_MAX:
        raise DomainError(f"x = {x!r} beyond evaluation domain (0, {X_MAX}]")
    return jet_var(x, order)


def gaussian_jet(xjet: Jet) -> Jet:
    """Jet of exp(-x^2/2) along an arbitrary x-jet."""
    return jet_exp(xjet * xjet * (-0.5))


# The prefactors depend on the grid alone, not on eps: each is held per grid
# and serves lower orders by truncation.
@grid_factor
def _odd_prefactor(xjet: Jet) -> Jet:
    return xjet * gaussian_jet(xjet)


@grid_factor
def _even_prefactor(xjet: Jet) -> Jet:
    return gaussian_jet(xjet)


def seed_params(spec: SeedSpec) -> KummerParams:
    """The seed's Kummer parameters; a non-finite eps raises KummerParameterError."""
    if spec.parity is Parity.ODD:
        return KummerParams((3.0 - 2.0 * spec.epsilon) / 4.0, 1.5)
    return KummerParams((1.0 - 2.0 * spec.epsilon) / 4.0, 0.5)


def seed_u_jet(spec: SeedSpec, xjet: Jet) -> Jet:
    """Seed solution jet along an arbitrary x-jet (unnormalized).

    Odd branch:  x exp(-x^2/2) 1F1((3-2eps)/4; 3/2; x^2)
    Even branch:   exp(-x^2/2) 1F1((1-2eps)/4; 1/2; x^2)
    """
    prefactor = _odd_prefactor if spec.parity is Parity.ODD else _even_prefactor
    return prefactor(xjet) * kummer_jet(seed_params(spec), xjet)


# Seeds are the states that solutions share (a catalog source and its target,
# chi0 and psi0 across operations), so each spec has one node: seed_state
# interns it.  One op evaluates at most 3 seeds, chi0 and psi0 included, and
# other specs are seldom read again by a later op, so 8 nodes keep every
# measured reuse; a node holds one grid jet (about 26 kB for 400 points at
# order 7).
SEED_CACHE_SIZE = 8


@lru_cache(maxsize=SEED_CACHE_SIZE)
def seed_state(spec: SeedSpec) -> State:
    """The seed's node: one per spec, evaluated once per grid at the highest order asked.

    A grid jet masks the points outside (0, X_MAX], where a point raises DomainError.
    """

    def u(x, order: int) -> Jet:
        return seed_u_jet(spec, domain_x_jet(x, order))

    return grid_memo(u)


def seed_u(spec: SeedSpec, x, order: int = DEFAULT_JET_ORDER) -> Jet:
    """Seed jet at a point x > 0, or on a grid array of points."""
    return seed_state(spec)(x, order)


def psi_state(n: int) -> State:
    if n < 0:
        raise ValueError("n must be >= 0")
    return seed_state(SeedSpec(2 * n + 1.5, Parity.ODD))


def chi_state(n: int) -> State:
    if n < 0:
        raise ValueError("n must be >= 0")
    return seed_state(SeedSpec(2 * n + 0.5, Parity.EVEN))


def eigenfunction_psi(n: int, x, order: int = DEFAULT_JET_ORDER) -> Jet:
    """Physical eigenfunction psi_n at E_n = 2n + 3/2 (the odd seed there)."""
    return psi_state(n)(x, order)


def formal_chi(n: int, x, order: int = DEFAULT_JET_ORDER) -> Jet:
    """Formal even solution chi_n at 2n + 1/2; finite at x = 0, so no boundary zero."""
    return chi_state(n)(x, order)


class Direction(enum.Enum):
    RAISE = "raise"
    LOWER = "lower"


def ladder(direction: Direction, f: State, x: float, order: int = DEFAULT_JET_ORDER) -> Jet:
    """Apply a+- = (1/sqrt2)(-+ d/dx + x) to a jet-valued function.

    One derivative order of f is consumed; f must be evaluable at order+1.
    a+ raises the factorization energy by one, a- lowers it, and either flips
    parity.
    """
    F = f(x, order + 1)
    xj = jet_var(x, order)
    sign = -1.0 if direction is Direction.RAISE else 1.0
    return (sign * F.deriv() + xj * F.truncate(order)) * (1.0 / _SQRT2)


def ladder_state(direction: Direction, f: State) -> State:
    return grid_memo(lambda x, order: ladder(direction, f, x, order), (f, 1))


def schrodinger_residual(f: State, epsilon: float, x: float) -> float:
    """Signed residual f'' - (x^2 - 2 eps) f; zero for exact solutions."""
    F = f(x, 2)
    return F.d[2] - (x * x - 2.0 * epsilon) * F.d[0]


def schrodinger_scale(f: State, epsilon: float, x: float) -> float:
    """Magnitude scale |f''| + |x^2 - 2 eps||f| for relative residuals."""
    F = f(x, 2)
    return abs(F.d[2]) + abs(x * x - 2.0 * epsilon) * abs(F.d[0])
