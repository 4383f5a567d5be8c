"""Truncated Taylor-jet arithmetic, at one point or along a whole grid.

A jet holds the value and first K derivatives of a scalar function at a
point: ``d[k] = f^(k)(x0)``.  Jets propagate *exact* derivatives through all
compositions, so every ODE residual downstream is computed without finite
differences.

Derivative values (not Taylor coefficients) are stored: that matches the
prime-notation formulas the package implements; the two conventions differ
by a factorial rescaling only, applied internally where series composition
is cheaper in coefficient form.

Two kinds of entry.  A *point jet* holds Python floats and describes one
expansion point.  A *grid jet* holds float64 arrays of one length N and
describes N expansion points at once (an entry that is the same at every
point, such as the 1 in the jet of x, may stay a float).  Every state
``f(x, order)`` accepts a float or a grid array for x and answers with the
matching kind; `on_grid` evaluates a state once on a whole grid.

Masks.  A grid jet carries ``mask``, a bool array of length N (a point jet
has ``mask=None``).  ``mask[i]`` is True exactly where the point computation
at ``x[i]`` raises JetError: a divisor or log-derivative argument inside the
pole guard, a non-finite entry, ln or sqrt of a non-positive value, or (for
the oscillator seeds) x outside (0, X_MAX].  Where a point jet raises, a
grid jet marks the point and goes on; every operation ORs the masks of its
operands, so a masked point stays masked in everything computed from it.
Entries at masked points mean nothing.  Errors that do not depend on the
point (jets of different orders, say) raise for both kinds.

Bit identity.  Both kinds run through the same code, and each element of a
grid entry undergoes the same IEEE operations, in the same order, as the
point jet at that point, so grid results equal point results bit for bit.
numpy rounds +, -, *, / and sqrt correctly, as Python does, but not exp and
log: np.exp differs from math.exp by one ulp on about 5% of arguments, so
exp and log (and sqrt, for uniformity) are applied per element with `math`.
Leibniz sums keep the k, j loop order of the point code rather than one
einsum against a binomial tensor, because einsum may regroup the additions.
Where the point code skips a zero coefficient (series composition), grid
code adds its products, each +0.0 or -0.0; a sum that starts from +0.0 never
becomes -0.0, so adding them leaves it unchanged to the bit.

Jets are immutable: no operation mutates its operands or their arrays, so
jets can be cached and shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import POLE_GUARD


class JetError(ArithmeticError):
    """Base class for jet arithmetic failures."""


class OrderMismatchError(JetError):
    """Binary operation applied to jets of different orders."""


class PoleError(JetError):
    """Divisor (or log-derivative argument) vanishes at the expansion point.

    Signals a pole of the target expression, not a bug: callers treat it as
    "this grid point is guarded".
    """


class DomainError(JetError):
    """Argument outside the domain of the lifted function (ln, sqrt, ...)."""


@dataclass(frozen=True)
class Jet:
    """Value plus derivatives: d[k] = f^(k)(x0), k = 0..order.

    Point jet: float entries, mask None.  Grid jet: array entries and a
    bool mask of the points lost to a JetError (see the module docstring).
    """

    d: tuple
    mask: np.ndarray | None = field(default=None, compare=False, repr=False)

    # numpy defers to the Jet operators in `array * jet` and the like
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        if not self.d:
            raise ValueError("a jet needs at least its value entry")
        if self.mask is None and not any(isinstance(v, np.ndarray) for v in self.d):
            for v in self.d:
                if not math.isfinite(v):
                    raise DomainError(f"non-finite jet entry in {self.d!r}")
            return
        bad = self.mask
        for v in self.d:
            if isinstance(v, np.ndarray):
                lost = ~np.isfinite(v)
            elif not math.isfinite(v):
                lost = True
            else:
                continue
            bad = lost if bad is None else bad | lost
        object.__setattr__(self, "mask", bad)

    @property
    def order(self) -> int:
        return len(self.d) - 1

    @property
    def value(self):
        return self.d[0]

    def truncate(self, order: int) -> "Jet":
        """Forget derivatives above `order`."""
        if order < 0 or order > self.order:
            raise OrderMismatchError(
                f"cannot truncate order-{self.order} jet to order {order}"
            )
        return Jet(self.d[: order + 1], self.mask)

    def deriv(self, times: int = 1) -> "Jet":
        """Jet of the `times`-th derivative (order drops by `times`).

        With derivative-value storage this is a pure shift of entries.
        """
        if times < 0 or times > self.order:
            raise OrderMismatchError(
                f"order-{self.order} jet cannot supply derivative {times}"
            )
        return Jet(self.d[times:], self.mask)

    # -- operators ---------------------------------------------------------

    def __add__(self, other) -> "Jet":
        other = _lift(other, self.order)
        _check_orders(self, other)
        return Jet(tuple(a + b for a, b in zip(self.d, other.d)), _join(self.mask, other.mask))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(tuple(-a for a in self.d), self.mask)

    def __sub__(self, other) -> "Jet":
        return self + (-_lift(other, self.order))

    def __rsub__(self, other) -> "Jet":
        return (-self) + _lift(other, self.order)

    def __mul__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return Jet(tuple(a * other for a in self.d), self.mask)
        return jet_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return Jet(tuple(a / other for a in self.d), self.mask)
        return jet_div(self, other)

    def __rtruediv__(self, other) -> "Jet":
        return jet_div(_lift(other, self.order), self)

    def __pow__(self, n: int) -> "Jet":
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers are nonnegative integers")
        out = jet_const(1.0, self.order)
        for _ in range(n):
            out = jet_mul(out, self)
        return out


def _lift(x, order: int) -> Jet:
    if isinstance(x, Jet):
        return x
    return jet_const(float(x), order)


def _check_orders(a: Jet, b: Jet) -> None:
    if a.order != b.order:
        raise OrderMismatchError(f"jet orders differ: {a.order} vs {b.order}")


def _join(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Mask of a result with operand masks a and b (None: point jet)."""
    if a is None or a is b:
        return b
    if b is None:
        return a
    return a | b


def _guard(mask: np.ndarray | None, bad, error: type[JetError], message: str, *args):
    """A point computation raises error(message % args) if `bad`; a grid one masks the points."""
    if mask is None:
        if bad:
            raise error(message % args)
        return None
    return mask | bad


def _per_point(fn, v, mask: np.ndarray | None):
    """fn (a math function) at every point that is not masked; nan at the others."""
    if mask is None:
        return fn(v)
    out = np.full(mask.shape, math.nan)
    keep = ~mask
    out[keep] = [fn(t) for t in np.broadcast_to(v, mask.shape)[keep].tolist()]
    return out


def jet_const(c: float, order: int) -> Jet:
    """Jet of the constant function c."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return Jet((float(c),) + (0.0,) * order)


def jet_var(x0, order: int) -> Jet:
    """Jet of the identity x -> x at x0 (a point or a grid array); requires order >= 1."""
    if order < 1:
        raise ValueError("jet_var needs order >= 1")
    x0 = np.asarray(x0, dtype=float) if isinstance(x0, np.ndarray) else float(x0)
    return Jet((x0, 1.0) + (0.0,) * (order - 1))


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product: d[k] = sum_j C(k,j) a[j] b[k-j]."""
    _check_orders(a, b)
    ad, bd = a.d, b.d
    out = []
    for k in range(len(ad)):
        s = 0.0
        for j in range(k + 1):
            s = s + math.comb(k, j) * ad[j] * bd[k - j]
        out.append(s)
    return Jet(tuple(out), _join(a.mask, b.mask))


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient jet via recursive Leibniz inversion.

    Raises PoleError (masks the point, on a grid) when |b(x0)| <= POLE_GUARD:
    the quotient has (or grazes) a pole at the expansion point.
    """
    _check_orders(a, b)
    ad, bd = a.d, b.d
    mask = _guard(_join(a.mask, b.mask), abs(bd[0]) <= POLE_GUARD, PoleError,
                  "divisor value %r below pole guard %r", bd[0], POLE_GUARD)
    q: list = []
    for k in range(len(ad)):
        s = ad[k]
        for j in range(k):
            s = s - math.comb(k, j) * q[j] * bd[k - j]
        q.append(s / bd[0])
    return Jet(tuple(q), mask)


def jet_exp(a: Jet) -> Jet:
    """exp(a): e[k] = sum_{j<k} C(k-1,j) e[j] a[k-j]."""
    e = [_per_point(math.exp, a.d[0], a.mask)]
    for k in range(1, len(a.d)):
        s = 0.0
        for j in range(k):
            s = s + math.comb(k - 1, j) * e[j] * a.d[k - j]
        e.append(s)
    return Jet(tuple(e), a.mask)


def jet_ln(a: Jet) -> Jet:
    """ln(a); requires a(x0) > 0."""
    mask = _guard(a.mask, a.d[0] <= 0.0, DomainError, "ln of non-positive jet value %r", a.d[0])
    log0 = _per_point(math.log, a.d[0], mask)
    if a.order == 0:
        return Jet((log0,), mask)
    m = jet_div(a.deriv(), a.truncate(a.order - 1))  # (ln a)' = a'/a
    return Jet((log0,) + m.d, _join(mask, m.mask))


def jet_sqrt(a: Jet) -> Jet:
    """sqrt(a); requires a(x0) > 0."""
    mask = _guard(a.mask, a.d[0] <= 0.0, DomainError, "sqrt of non-positive jet value %r", a.d[0])
    s = [_per_point(math.sqrt, a.d[0], mask)]
    for k in range(1, len(a.d)):
        acc = a.d[k]
        for j in range(1, k):
            acc = acc - math.comb(k, j) * s[j] * s[k - j]
        s.append(acc / (2.0 * s[0]))
    return Jet(tuple(s), mask)


def log_derivative(a: Jet) -> Jet:
    """Jet of a'/a (order drops by one); sign of a is irrelevant.

    This is the superpotential workhorse: unlike jet_ln it only needs
    a(x0) != 0, not positivity.
    """
    if a.order < 1:
        raise OrderMismatchError("log_derivative needs order >= 1")
    if a.mask is None and abs(a.d[0]) <= POLE_GUARD:
        raise PoleError(f"log-derivative at a zero: value {a.d[0]!r}")
    return jet_div(a.deriv(), a.truncate(a.order - 1))


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of F(y(x)) from the jet of F at y0 = inner.value and the jet of y.

    Both jets must have equal orders; `outer.d[m]` is read as the m-th
    y-derivative of F at y0.  Implemented by converting to Taylor
    coefficients and composing truncated polynomials (Horner), then scaling
    back to derivative values.
    """
    _check_orders(outer, inner)
    K = outer.order
    fact = [math.factorial(k) for k in range(K + 1)]
    A = [outer.d[k] / fact[k] for k in range(K + 1)]
    B = [0.0] + [inner.d[k] / fact[k] for k in range(1, K + 1)]

    def poly_mul(p: list, q: list) -> list:
        out = [0.0] * (K + 1)
        for i, pi in enumerate(p):
            if not isinstance(pi, np.ndarray) and pi == 0.0:
                continue
            for j, qj in enumerate(q):
                if i + j > K:
                    break
                out[i + j] = out[i + j] + pi * qj
        return out

    comp = [A[K]] + [0.0] * K
    for k in range(K - 1, -1, -1):
        comp = poly_mul(comp, B)
        comp[0] = comp[0] + A[k]
    return Jet(tuple(comp[k] * fact[k] for k in range(K + 1)), _join(outer.mask, inner.mask))


def on_grid(state, grid, order: int) -> Jet:
    """Evaluate a state once on a whole grid.

    Returns a grid jet whose entries are float64 arrays of the grid's length
    and whose mask marks the points where state(grid[i], order) raises
    JetError; at every other point its entries equal the point evaluation
    to the bit.  A JetError raised by the grid evaluation itself does not
    depend on the point (an order mismatch, say), so it masks every point.
    """
    x = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):  # masked points may overflow or divide by zero
        try:
            jet = state(x, order)
        except JetError:
            return Jet((np.full(x.shape, math.nan),) * (order + 1), np.ones(x.shape, bool))
    mask = np.zeros(x.shape, bool) if jet.mask is None else jet.mask
    return Jet(tuple(np.broadcast_to(np.asarray(v, dtype=float), x.shape) for v in jet.d), mask)
