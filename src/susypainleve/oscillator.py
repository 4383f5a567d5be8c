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
x is a point or a whole grid array (see `jets`).  A state is a plain
closure: it holds no jet, and each call evaluates it afresh.

A seed's jet reads two Kummer rows at any order, summed in one lockstep
pass at a point as on a grid (`hyp1f1._kummer_rows`), so a point's jet is
the bits of the grid's at that point: u and u' come from the Gaussian and
the rows by the product and chain rules, and every higher entry from the
seed's own equation u'' = (x^2 - 2 eps) u (`seed_u_jet`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT_JET_ORDER, EPSILON_RANGE, X_MAX
from .hyp1f1 import KummerParameterError, KummerParams, _kummer_rows
from .jets import DomainError, Jet, grid_factor, jet_var

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


# The Gaussian depends on the grid alone, not on eps: it is held per grid.
@grid_factor
def _gaussian(xjet: Jet) -> Jet:
    """The order-0 jet of exp(-x^2/2) at the x-jet's points, through math.exp point by point."""
    x = xjet.block[0]
    return Jet(np.array([[math.exp(t) for t in ((x * x) * -0.5).tolist()]]), xjet.mask)


def seed_params(spec: SeedSpec) -> KummerParams:
    """The seed's Kummer parameters; an eps outside EPSILON_RANGE raises KummerParameterError."""
    lo, hi = EPSILON_RANGE
    if not lo <= spec.epsilon <= hi:  # nan included
        raise KummerParameterError(
            f"eps = {spec.epsilon!r} is outside the seed's domain [{lo:g}, {hi:g}]"
        )
    if spec.parity is Parity.ODD:
        return KummerParams((3.0 - 2.0 * spec.epsilon) / 4.0, 1.5)
    return KummerParams((1.0 - 2.0 * spec.epsilon) / 4.0, 0.5)


def seed_u_jet(spec: SeedSpec, xjet: Jet) -> Jet:
    """Seed solution jet along the identity x-jet of a point or a grid (unnormalized).

    Odd branch:  x exp(-x^2/2) 1F1((3-2eps)/4; 3/2; x^2)
    Even branch:   exp(-x^2/2) 1F1((1-2eps)/4; 1/2; x^2)

    u and u' are the product and chain rules on the Gaussian and two Kummer
    rows, M0 = 1F1(p; q; x^2) and M1 = 1F1(p+1; q+1; x^2), as
    d/dx M0 = (p/q) M1 2x; one `_kummer_rows` call sums both, and M1 is not
    summed when p = 0.  Every higher entry comes from the ODE
    u'' = (x^2 - 2 eps) u differentiated k times (Taylor-mode, as
    `jets.jet_riccati`):
    u^(k+2) = (x^2 - 2 eps) u^(k) + 2k x u^(k-1) + k(k-1) u^(k-2).
    """
    params = seed_params(spec)
    order = xjet.order
    rows = [(params.p, params.q)]
    if order and params.p != 0.0:
        rows.append((params.p + 1.0, params.q + 1.0))
    x = xjet.block[0]
    y = x * x
    m = _kummer_rows(rows, y, xjet.mask)
    g = _gaussian(xjet.truncate(0)).block[0]
    if spec.parity is Parity.ODD:  # the prefactor and its derivative
        prefactor, dprefactor = x * g, g - x * (x * g)
    else:
        prefactor, dprefactor = g, -x * g
    u = np.empty((order + 1, x.size))
    u[0] = prefactor * m[0]
    if order:
        dm = (params.p / params.q * m[1]) * (2.0 * x) if len(rows) == 2 else 0.0
        u[1] = prefactor * dm + dprefactor * m[0]
    v = y - 2.0 * spec.epsilon
    for k in range(order - 1):
        u[k + 2] = v * u[k]
        if k:
            u[k + 2] += (2.0 * k) * x * u[k - 1]
        if k > 1:
            u[k + 2] += (k * (k - 1.0)) * u[k - 2]
    return Jet(u, xjet.mask)


def seed_state(spec: SeedSpec) -> State:
    """The seed as a state; a grid jet masks the points outside (0, X_MAX], where a point
    raises DomainError."""

    def u(x, order: int) -> Jet:
        return seed_u_jet(spec, domain_x_jet(x, order))

    return u


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
    return lambda x, order: ladder(direction, f, x, order)


def schrodinger_residual(f: State, epsilon: float, x: float) -> float:
    """Signed residual f'' - (x^2 - 2 eps) f; zero for exact solutions."""
    F = f(x, 2)
    return F.d[2] - (x * x - 2.0 * epsilon) * F.d[0]


def schrodinger_scale(f: State, epsilon: float, x: float) -> float:
    """Magnitude scale |f''| + |x^2 - 2 eps||f| for relative residuals."""
    F = f(x, 2)
    return abs(F.d[2]) + abs(x * x - 2.0 * epsilon) * abs(F.d[0])
