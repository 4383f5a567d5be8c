"""Truncated Taylor-jet arithmetic, at one point or along a whole grid.

A jet holds the value and first K derivatives of a scalar function at a
point, ``d[k] = f^(k)(x0)`` (derivative values, not Taylor coefficients, as
in the package's formulas), so residuals need no finite differences.

Block layout.  A jet is one float64 block of shape (K+1, N), row k holding
the k-th derivative at N expansion points, next to a bool ``mask`` of
length N.  A *point jet* is the case N = 1 with ``mask=None``: its ``d`` is
a tuple of floats and its ``value`` a float.  A *grid jet* answers ``d``
with the block and ``value`` with its first row.  A state ``f(x, order)``
takes a float or a grid array for x and answers in kind; `on_grid`
evaluates a state once on a whole grid.  Both kinds run through the same
kernels, and a point jet (a constant, say) broadcasts over a grid.

Masks.  ``mask[i]`` is True exactly where the point computation at ``x[i]``
raises JetError (pole guard, non-finite entry, ln or sqrt domain, or x
outside (0, X_MAX] for the seeds); every operation ORs its operands' masks,
and entries at masked points mean nothing.  Errors of no one point (jets of
different orders, say) raise for both kinds.  No code writes a mask in
place, so results share them: every ``Jet(...)`` runs one finiteness check,
which returns at once, keeping the mask it was given, when the whole block
is finite; a guard that masks no point keeps its input mask; and
`jet_var` gives every grid of one size the same read-only all-False mask
(`_clear_mask`), as the seeds do on grids inside (0, X_MAX].  So most joins
of two masks are the ``a is b`` shortcut, not an OR.

Scalar operands.  ``jet + c``, ``jet - c``, ``c - jet`` and ``c / jet`` add
(or divide) the (K+1, 1) column of the constant jet, ``[c, 0.0, ...]``, or
``[-c, -0.0, ...]`` when c is subtracted, without building that jet: the
bits, signed zeros included, are those of ``jet + jet_const(c, K)`` and the
like, and a non-finite c raises as ``jet_const`` would.

Left-to-right sums.  Each element of a result takes the IEEE steps of the
scalar Leibniz loop in its order, whatever N is: terms ``(C(k,j) * a[j]) *
b[k-j]`` added to a head of 0.0 (or a[k]) in ascending j.  A product, and a
step of series composition, gathers all its terms at once through per-order
tables and sums them negated with ``np.subtract.reduce`` over a leading
axis (``s - (-t)`` is ``s + t`` to the bit, signed zeros included).  Pads
that square up a triangle are +-0.0 at every unmasked (finite) point, and a
sum that starts from +0.0 never becomes -0.0, so they change nothing.  A
quotient or exp adds each new coefficient's terms to all later sums at
once; a square root gathers one sum at a time.  A matmul, einsum or np.sum
against a binomial tensor regroups the additions, as does np.add.reduceat
from 9 terms on: last digits move, and with them borderline verdicts.  exp,
log and sqrt of the value row go through `math` per element: np.exp
differs from math.exp by one ulp on about 5% of arguments.

Jets are immutable: no operation mutates its operands or their arrays, so
jets can be cached and shared.  A state body computes at the order it is
asked, 0 (values alone) included.

Nodes.  `grid_memo(body, (child, offset), ...)` makes a state a node: it
holds the jet of its last grid (keyed by the grid's float64 bytes,
read-only) and serves any order up to the held one by truncation, held mask
included (masked entries stay unspecified).  Each (child, offset) pair
declares that the body asks `child` at order + offset, or at the order
itself when the offset is an `AtOrder` (a body that reads its child at one
fixed order whatever it is asked), so the nodes form a graph with order
offsets on its edges.  `demand((state, order), ...)` is a
block: on entry a demand pass walks the graph from each root and raises
every reachable node's `need` to the highest order + offset any consumer
asks.  A node asked above what it holds then evaluates once at
max(order, need) and serves all its consumers by truncation, so within one
block each node runs at most once per grid, at the highest order asked
(Griewank & Walther, *Evaluating Derivatives*, chs. 6 and 13).  `on_grid`
is the one-root case.  An op that makes several calls on one grid (a
Backlund chain link, a catalog row) declares every order it will ask in one
`demand` block around them.  On exit each need is restored to its value
before the block, so an `on_grid` nested in an op's block keeps the op's
needs, and no later call or direct node call inherits them.  A child that
is not declared, or a plain callable, is evaluated at the orders it is
asked: that may run a node twice, which costs time, never correctness:
entry k of every kernel's result reads entries 0..k alone, so a jet
evaluated at a higher order truncates to the bits of one evaluated at the
lower order.

Grid factors.  `grid_factor(body)` holds the result of a function of the
x-jet alone (the jet of y = x^2, a seed's Gaussian prefactor, the half-root
X = sqrt(z/2) that a PV state takes of its z-jet) per grid and serves lower
orders by truncation, as a node does.  Unlike a node it holds several grids
at once, keyed by the x-jet's value and mask bytes, since it does not
depend on eps and so serves every seed on a grid.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache, update_wrapper
from typing import NamedTuple

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


class Jet:
    """Value plus derivatives, d[k] = f^(k)(x0), k = 0..order (see the module docstring).

    Built from a tuple of floats (a point jet), or a (K+1, N) block and a mask (a grid jet).
    """

    __slots__ = ("block", "mask")

    # numpy defers to the Jet operators in `array * jet` and the like
    __array_ufunc__ = None

    def __init__(self, d, mask: np.ndarray | None = None) -> None:
        if not isinstance(d, np.ndarray):
            d = np.array(d, dtype=float)
            d = d[:, None] if d.ndim == 1 else d
        object.__setattr__(self, "block", d)
        object.__setattr__(self, "mask", mask)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not len(self.block):
            raise ValueError("a jet needs at least its value entry")
        finite = np.isfinite(self.block)
        if np.count_nonzero(finite) == finite.size:
            return  # the mask stands as given, shared with the operands'
        finite = np.logical_and.reduce(finite, axis=0)
        if self.mask is not None:
            object.__setattr__(self, "mask", self.mask | ~finite)
        elif not finite[0]:
            raise DomainError(f"non-finite jet entry in {self.d!r}")

    def _of(self, block: np.ndarray) -> "Jet":
        """A jet with this mask whose entries are finite wherever this jet's are: no check."""
        jet = object.__new__(Jet)
        object.__setattr__(jet, "block", block)
        object.__setattr__(jet, "mask", self.mask)
        return jet

    def __setattr__(self, name, value):
        raise AttributeError("jets are immutable")

    def __repr__(self) -> str:
        return f"Jet(d={self.d!r})"

    @property
    def order(self) -> int:
        return len(self.block) - 1

    @property
    def d(self):
        """A tuple of floats for a point jet, the (K+1, N) block for a grid jet."""
        return tuple(self.block[:, 0].tolist()) if self.mask is None else self.block

    @property
    def value(self):
        return self.block.item(0) if self.mask is None else self.block[0]

    def truncate(self, order: int) -> "Jet":
        """Forget derivatives above `order`."""
        if order < 0 or order > self.order:
            raise OrderMismatchError(f"cannot truncate order-{self.order} jet to order {order}")
        return self._of(self.block[: order + 1])

    def deriv(self, times: int = 1) -> "Jet":
        """Jet of the `times`-th derivative: a shift of rows (order drops by `times`)."""
        if times < 0 or times > self.order:
            raise OrderMismatchError(f"order-{self.order} jet cannot supply derivative {times}")
        return self._of(self.block[times:])

    # -- operators ---------------------------------------------------------

    def __add__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.block + _column(other, self.order), self.mask)
        _check_orders(self, other)
        return Jet(self.block + other.block, _join(self.mask, other.mask))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return self._of(-self.block)

    def __sub__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.block + _column(other, self.order, -1.0), self.mask)
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        return Jet(-self.block + _column(other, self.order), self.mask)

    def __mul__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return Jet(self.block * other, self.mask)
        return jet_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return Jet(self.block / other, self.mask)
        return jet_div(self, other)

    def __rtruediv__(self, other) -> "Jet":
        return _quotient(_column(other, self.order), None, self)

    def __pow__(self, n: int) -> "Jet":
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers are nonnegative integers")
        if n == 0:
            return jet_const(1.0, self.order)
        out = self + 0.0  # the bits of 1 * self: a -0.0 entry turns +0.0
        for _ in range(n - 1):
            out = jet_mul(out, self)
        return out


def _column(c, order: int, sign: float = 1.0) -> np.ndarray:
    """The block of the constant jet c, times sign: the (order+1, 1) column [sign*c, sign*0.0, ...].

    A scalar operand adds (or divides) it as that jet's block would, without
    building the jet: -1.0 gives the zeros of a negated constant their -0.0.
    A non-finite c raises as jet_const would.
    """
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"non-finite jet entry in {(c,) + (0.0,) * order!r}")
    column = np.full((order + 1, 1), sign * 0.0)
    column[0, 0] = sign * c
    return column


def _check_orders(a: Jet, b: Jet) -> None:
    if len(a.block) != len(b.block):
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
    return mask | bad if np.count_nonzero(bad) else mask  # an unchanged mask stays shared


def _per_point(fn, row: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """fn (a math function) at every point of `row` that is not masked; nan at the others."""
    out = np.full(row.shape, math.nan)
    keep = slice(None) if mask is None else ~mask
    out[keep] = [fn(t) for t in row[keep].tolist()]
    return out


class _Tables(NamedTuple):  # the kernels' tables at one order K
    comb: np.ndarray  # comb[k, j, 0] = C(k, j), 0 for j > k
    neg: np.ndarray  # neg[j, k, 0] = -C(k, j): column k of a product, term j
    k_j: np.ndarray  # (j, k) -> k - j, wrapped mod K+1 (a pad) where j > k
    fact: np.ndarray  # fact[k, 0] = k!
    m_i: np.ndarray  # column m of a Horner step, term i: (i, m) -> m - i, K+1 (a zero row) if i > m


@lru_cache(maxsize=None)
def _tables(K: int) -> _Tables:
    comb = np.array([[math.comb(k, j) for j in range(K + 1)] for k in range(K + 1)], float)
    j, k = np.indices((K + 1, K + 1))
    fact = np.array([math.factorial(i) for i in range(K + 1)], float)[:, None]
    return _Tables(comb[:, :, None], -comb.T[:, :, None], (k - j) % (K + 1), fact,
                   np.where(j <= k, k - j, K + 1))


def jet_const(c: float, order: int) -> Jet:
    """Jet of the constant function c."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return Jet((float(c),) + (0.0,) * order)


def jet_var(x0, order: int) -> Jet:
    """Jet of the identity x -> x at x0 (a point or a grid array); order 0 is the value alone."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if not isinstance(x0, np.ndarray):
        return Jet(((float(x0), 1.0) + (0.0,) * order)[: order + 1])
    block = np.zeros((order + 1, x0.size))
    block[0], block[1:2] = x0, 1.0
    return Jet(block, _clear_mask(x0.size))


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Leibniz product: d[k] = sum_j C(k,j) a[j] b[k-j]."""
    _check_orders(a, b)
    t = _tables(a.order)
    terms = (t.neg * a.block[:, None]) * b.block.take(t.k_j, axis=0)
    return Jet(np.subtract.reduce(terms, axis=0, initial=0.0), _join(a.mask, b.mask))


def jet_div(a: Jet, b: Jet) -> Jet:
    """Quotient jet via recursive Leibniz inversion.

    Raises PoleError (masks the point, on a grid) where |b(x0)| <= POLE_GUARD.
    """
    _check_orders(a, b)
    return _quotient(a.block, a.mask, b)


def _quotient(ad: np.ndarray, amask: np.ndarray | None, b: Jet) -> Jet:
    """jet_div of a numerator given by its block and mask (a jet's, or a constant's column)."""
    bd = b.block
    mask = _guard(_join(amask, b.mask), abs(b.value) <= POLE_GUARD, PoleError,
                  "divisor value %r below pole guard %r", b.value, POLE_GUARD)
    comb = _tables(b.order).comb
    q = np.empty((len(ad), max(ad.shape[1], bd.shape[1])))
    q[:] = ad  # q[k] holds a[k] minus the terms of q[k] found so far, until it is divided
    for j in range(len(q) - 1):
        q[j] /= bd[0]
        q[j + 1:] -= (comb[j + 1:, j] * q[j]) * bd[1:len(q) - j]
    q[-1] /= bd[0]
    return Jet(q, mask)


def jet_exp(a: Jet) -> Jet:
    """exp(a): e[k] = sum_{j<k} C(k-1,j) e[j] a[k-j]."""
    comb = _tables(a.order).comb
    e = np.zeros(a.block.shape)  # e[k] holds the terms of e[k] found so far
    e[0] = _per_point(math.exp, a.block[0], a.mask)
    for j in range(len(e) - 1):
        e[j + 1:] += (comb[j:-1, j] * e[j]) * a.block[1:len(e) - j]
    return Jet(e, a.mask)


def jet_ln(a: Jet) -> Jet:
    """ln(a); requires a(x0) > 0."""
    mask = _guard(a.mask, a.value <= 0.0, DomainError, "ln of non-positive jet value %r", a.value)
    log0 = _per_point(math.log, a.block[0], mask)[None]
    if a.order == 0:
        return Jet(log0, mask)
    m = jet_div(a.deriv(), a.truncate(a.order - 1))  # (ln a)' = a'/a
    return Jet(np.concatenate((log0, m.block)), _join(mask, m.mask))


def jet_sqrt(a: Jet) -> Jet:
    """sqrt(a); requires a(x0) > 0."""
    mask = _guard(a.mask, a.value <= 0.0, DomainError, "sqrt of non-positive jet value %r", a.value)
    comb = _tables(a.order).comb
    s = np.empty(a.block.shape)
    s[0] = _per_point(math.sqrt, a.block[0], mask)
    for k in range(1, len(s)):
        terms = (comb[k, 1:k] * s[1:k]) * s[k - 1:0:-1]
        s[k] = np.subtract.reduce(np.concatenate((a.block[k:k + 1], terms))) / (2.0 * s[0])
    return Jet(s, mask)


def jet_riccati(y0: Jet, f: Jet) -> Jet:
    """Jet of the solution y of y' = f - y^2 through y0.value, from the jet of f.

    y^(k+1) = f^(k) - sum_j C(k,j) y^(j) y^(k-j), summed left to right in
    ascending j after f^(k) (Taylor-mode differentiation of the ODE,
    Griewank & Walther ch. 13).  The result has f's order; f's top entry is
    not read, and only y0's value is.
    """
    comb = _tables(f.order).comb
    y = np.empty((len(f.block), max(y0.block.shape[1], f.block.shape[1])))
    y[0] = y0.block[0]
    for k in range(f.order):
        terms = (comb[k, :k + 1] * y[:k + 1]) * y[k::-1]
        y[k + 1] = np.subtract.reduce(np.concatenate((f.block[k:k + 1], terms)))
    return Jet(y, _join(y0.mask, f.mask))


def log_derivative(a: Jet) -> Jet:
    """Jet of a'/a (order drops by one), the superpotential workhorse: needs a(x0) != 0 only."""
    if a.order < 1:
        raise OrderMismatchError("log_derivative needs order >= 1")
    if a.mask is None and abs(a.value) <= POLE_GUARD:
        raise PoleError(f"log-derivative at a zero: value {a.value!r}")
    return jet_div(a.deriv(), a.truncate(a.order - 1))


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of F(y(x)) from the jet of F at y0 = inner.value and the jet of y.

    Both jets must have equal orders; `outer.d[m]` is read as the m-th
    y-derivative of F at y0.  Horner on Taylor coefficients, then scaled back.
    """
    _check_orders(outer, inner)
    K = outer.order
    t = _tables(K)
    A = outer.block / t.fact
    # -B (B[0] = 0, B[k] = y^(k)/k!) with a zero row, gathered into every Horner step's terms
    neg_b = np.zeros((K + 2, inner.block.shape[1]))
    np.divide(inner.block[1:], -t.fact[1:], out=neg_b[1:K + 1])
    neg_b = neg_b[t.m_i]
    comp = np.zeros((K + 1, max(A.shape[1], neg_b.shape[2])))
    comp[0] = A[K]
    for k in range(K - 1, -1, -1):
        np.subtract.reduce(comp[:, None] * neg_b, axis=0, initial=0.0, out=comp)
        np.add(comp[0], A[k], out=comp[0])
    return Jet(comp * t.fact, _join(outer.mask, inner.mask))


class GridNode:
    """A state that holds the jet of its last grid; see the module docstring, Nodes."""

    __slots__ = ("body", "deps", "key", "jet", "need")

    def __init__(self, body, deps) -> None:
        self.body, self.deps = body, deps
        self.key = self.jet = None
        self.need = -1  # the demand of the blocks in progress; -1 outside any

    def __call__(self, x, order: int) -> Jet:
        if not isinstance(x, np.ndarray):
            return self.body(x, order)
        key = np.ascontiguousarray(x, dtype=float).tobytes()
        if self.key == key and order <= self.jet.order:
            return self.jet.truncate(order)
        top = max(order, self.need)
        jet = self.body(x, top)
        jet.block.flags.writeable = False
        if jet.mask is not None:
            jet.mask.flags.writeable = False
        self.key, self.jet = key, jet
        return jet if top == order else jet.truncate(order)


class AtOrder(int):
    """A dependency offset that is an absolute order: the body asks its child at this order."""


def grid_memo(state, *deps) -> GridNode:
    """The state as a node whose body asks each (child, offset) of deps at order + offset
    (at the offset itself for an `AtOrder`)."""
    return GridNode(state, deps)


# Grids whose result a grid factor holds, and grid sizes whose all-False
# mask is held (an op list uses a few: x and z, dense and default).
_FACTOR_GRIDS = 8


@lru_cache(maxsize=_FACTOR_GRIDS)
def _clear_mask(size: int) -> np.ndarray:
    """The all-False mask of a grid of `size` points: one read-only array per size, shared."""
    mask = np.zeros(size, bool)
    mask.flags.writeable = False
    return mask


def grid_factor(body):
    """body(xjet), a function of the x-jet alone, with its grid results held per grid.

    A grid jet's result is held in an lru_cache keyed by the bytes of the
    x-jet's value row and mask, next to the x-jet it was built from.  A
    later x-jet whose block equals the leading rows of the held one gets
    the held result truncated to its order, the bits of a fresh result
    (see Nodes); any other x-jet builds afresh and replaces it.  The
    returned function's `cache_clear` empties the cache.  Point jets pass
    straight through.
    """

    @lru_cache(maxsize=_FACTOR_GRIDS)
    def held(x: bytes, mask: bytes) -> list:
        return [None, None]  # the x block, and the result built from it

    def factor(xjet: Jet) -> Jet:
        if xjet.mask is None:
            return body(xjet)
        slot = held(xjet.value.tobytes(), xjet.mask.tobytes())
        xblock, jet = slot
        order = xjet.order
        if jet is not None and jet.order >= order and np.array_equal(xblock[:order + 1], xjet.block):
            return jet.truncate(order)
        jet = body(xjet)
        jet.block.flags.writeable = False
        jet.mask.flags.writeable = False
        slot[:] = xjet.block, jet
        return jet

    factor.cache_clear = held.cache_clear
    return update_wrapper(factor, body)


def _demand(root, order: int, raised: list) -> None:
    """Raise the need of every node reachable from root to the highest order asked of it.

    Appends (node, need before) to `raised` at every raise, so that undoing
    them in reverse order restores every need.
    """
    work = [(root, order)]
    while work:
        node, need = work.pop()
        if not isinstance(node, GridNode) or node.need >= need:
            continue
        raised.append((node, node.need))
        node.need = need
        work.extend((child, offset if isinstance(offset, AtOrder) else need + offset)
                    for child, offset in node.deps)


@contextmanager
def demand(*roots):
    """Hold the demand of every (state, order) root until the block exits.

    An op that makes several calls on one grid declares up front every order
    it will ask, so each node below the roots runs once per grid in the
    block.  On exit each need goes back to what it was before, so a block
    nested in another (an `on_grid` call in an op's block) keeps the outer
    demand.
    """
    raised: list = []
    try:
        for state, order in roots:
            _demand(state, order, raised)
        yield
    finally:
        for node, need in reversed(raised):
            node.need = need


def on_grid(state, grid, order: int) -> Jet:
    """Evaluate a state once on a grid; a JetError of no one point (order mismatch) masks all.

    The state is the one root of a demand block, which tells every node below
    it the order to evaluate at.
    """
    x = np.asarray(grid, dtype=float)
    with demand((state, order)):
        try:
            with np.errstate(all="ignore"):  # masked points may overflow or divide by zero
                jet = state(x, order)
        except JetError:
            return Jet(np.full((order + 1, x.size), math.nan), np.ones(x.size, bool))
    if jet.mask is not None:
        return jet
    return Jet(np.broadcast_to(jet.block, (len(jet.block), x.size)), _clear_mask(x.size))
