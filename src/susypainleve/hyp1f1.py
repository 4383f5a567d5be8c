"""Kummer's confluent hypergeometric function 1F1(p; q; y) and its jets.

The working range of the package is x in (0, 6], i.e. y = x^2 <= 36, where
the direct Maclaurin series with compensated summation is numerically
adequate (roughly two digits are shed near y = 36 through cancellation when
p < 0; the verification tolerances account for that).  There is deliberately
no asymptotic branch and no Tricomi function: out-of-range arguments raise
instead of degrading silently.

Jets of x -> 1F1(p; q; x^2) are built from contiguity rather than term-wise
differentiation:

    d/dy 1F1(p; q; y) = (p/q) 1F1(p+1; q+1; y)

so every y-derivative is itself a certified series evaluation, and the
composition with y = x^2 is exact jet algebra.  Along a grid, the K+1
contiguity series of every point are summed together in one lockstep loop
that repeats each series' scalar steps exactly.

Row table.  A summed series over a grid (a row) is kept in a per-grid table,
keyed by the bytes of the grid's y array and of its mask, then by (p, q).
Jets of one seed at orders K and K+1, the seed's rows p+m, and the
numerator and denominator of a Kummer ratio all read one ladder of rows,
so each row is summed once per grid and later calls sum only the rows they
lack.  It is the package's only series cache: a seed node in `oscillator`
holds one grid at one order, and the table serves the rows it sums again
when it is asked one order higher or on a grid it held before.  Each
element of a row takes the same IEEE steps whatever else is summed beside
it, so cached and fresh rows agree to the bit.  Rows are read-only arrays
shared by every caller.  A grid keeps at most _GRID_ROWS rows, the oldest
dropped first, and the tables of _GRIDS grids are held in an lru_cache, so
`cache_clear` empties them with the package's other caches.  The one-point
path (`kummer`) is not cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import KUMMER_MAX_TERMS, KUMMER_Y_MAX
from .jets import Jet, jet_compose, jet_mul


# Series terms per block of the grid (lockstep) summation.
_BLOCK = 8

# Row table: grids kept (an op list uses two, its x and its z grid), and rows
# kept per grid, the oldest dropped first.  A 400-point row takes 3.2 kB.
_GRIDS = 8
_GRID_ROWS = 256


class KummerError(ValueError):
    """Base class for 1F1 evaluation failures."""


class KummerParameterError(KummerError):
    """Lower parameter q is zero or a negative integer (1F1 undefined)."""


class KummerRangeError(KummerError):
    """|y| outside the configured working range."""


class KummerConvergenceError(KummerError):
    """Series did not converge within the term budget."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == round(x)


@dataclass(frozen=True)
class KummerParams:
    """Upper/lower parameters of 1F1(p; q; y)."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if _is_nonpositive_integer(self.q):
            raise KummerParameterError(f"lower parameter q={self.q!r} is a nonpositive integer")

    @property
    def terminating(self) -> bool:
        """True when the series is a polynomial (p a nonpositive integer)."""
        return _is_nonpositive_integer(self.p)


def kummer(
    params: KummerParams,
    y: float,
    *,
    max_terms: int = KUMMER_MAX_TERMS,
) -> float:
    """Sum the 1F1 series to machine convergence (Kahan-compensated).

    Terminating cases (p in {0, -1, -2, ...}) stop exactly when the running
    term hits zero, so they carry no truncation error beyond rounding.
    """
    if abs(y) > KUMMER_Y_MAX:
        raise KummerRangeError(f"|y| = {abs(y)!r} exceeds working range {KUMMER_Y_MAX!r}")
    p, q = params.p, params.q
    total = 1.0
    comp = 0.0
    term = 1.0
    quiet = 0
    for n in range(max_terms):
        term = term * ((p + n) / (q + n)) * y / (n + 1)
        if term == 0.0:
            return total
        t = term - comp
        s = total + t
        comp = (s - total) - t
        total = s
        if abs(term) <= 1e-17 * abs(total):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise KummerConvergenceError(
        f"1F1({p}; {q}; {y}) did not converge within {max_terms} terms"
    )


def kummer_y_derivative(params: KummerParams, y: float, m: int) -> float:
    """m-th y-derivative of 1F1(p; q; y) via repeated contiguity."""
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    coef = 1.0
    for i in range(m):
        coef *= (params.p + i) / (params.q + i)
    if coef == 0.0:
        return 0.0
    return coef * kummer(KummerParams(params.p + m, params.q + m), y)


def _kummer_lockstep(p: np.ndarray, q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Many 1F1(p; q; y) series at once, element i summing 1F1(p[i]; q[i]; y[i]).

    Every element takes the steps of `kummer` in the same order (term
    update, then Kahan update) and stops at the same n by the same rule, so
    its sum equals `kummer`'s to the bit.  The loop runs in blocks of
    _BLOCK terms and applies the stopping rule to a whole block at once: an
    element that stops inside a block takes the partial sum of its stopping
    term and ignores the terms after it.  Finished elements leave the
    working arrays between blocks.
    """
    out = np.empty(y.shape)
    at = np.arange(y.size)  # positions in `out` of the elements still summing
    term = np.ones(y.shape)
    comp = np.zeros(y.shape)
    total = np.ones(y.shape)
    small = np.zeros(y.shape, dtype=bool)  # was the last term below the quiet threshold?
    n = 0
    while at.size and n < KUMMER_MAX_TERMS:
        b = min(_BLOCK, KUMMER_MAX_TERMS - n)
        ns = np.arange(n, n + b, dtype=float)[:, None]
        ratios = (p + ns) / (q + ns)
        terms = np.empty((b, at.size))
        totals = np.empty((b + 1, at.size))  # totals[k]: the sum before term n + k
        totals[0] = total
        for k in range(b):
            term = np.multiply(term, ratios[k], out=terms[k])
            np.multiply(term, y, out=term)
            np.divide(term, n + k + 1, out=term)
            t = term - comp
            np.add(totals[k], t, out=totals[k + 1])
            comp = totals[k + 1] - totals[k]
            np.subtract(comp, t, out=comp)
        zero = terms == 0.0
        quiet = np.abs(terms) <= 1e-17 * np.abs(totals[1:])
        settled = quiet.copy()  # two quiet terms in a row
        settled[0] &= small
        settled[1:] &= quiet[:-1]
        stop = zero | settled
        small = quiet[-1]
        total = totals[-1]
        n += b
        ended = stop.any(axis=0)
        if ended.any():
            cols = np.flatnonzero(ended)
            first = stop.argmax(axis=0)[cols]
            # a zero term ends the sum before it is added
            out[at[cols]] = totals[first + 1 - zero[first, cols], cols]
            going = ~ended
            at, p, q, y = at[going], p[going], q[going], y[going]
            term, comp, total, small = term[going], comp[going], total[going], small[going]
    if at.size:
        raise KummerConvergenceError(
            f"1F1({float(p[0])}; {float(q[0])}; {float(y[0])}) did not converge "
            f"within {KUMMER_MAX_TERMS} terms"
        )
    return out


@lru_cache(maxsize=_GRIDS)
def _grid_rows(y: bytes, mask: bytes) -> dict:
    """The summed 1F1 rows of one grid (its y and mask bytes), keyed (p, q)."""
    return {}


def _kummer_rows(rows: list[KummerParams], y: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """1F1(row; y) on every unmasked point, nan where masked; read-only, shared arrays.

    Rows already in the grid's table are reused; the missing ones are summed
    together in one lockstep pass and stored.
    """
    keep = ~mask
    y = np.ascontiguousarray(np.broadcast_to(y, mask.shape), dtype=float)
    ys = y[keep]
    beyond = np.abs(ys) > KUMMER_Y_MAX
    if beyond.any():
        raise KummerRangeError(
            f"|y| = {float(abs(ys[beyond][0]))!r} exceeds working range {KUMMER_Y_MAX!r}"
        )
    table = _grid_rows(y.tobytes(), mask.tobytes())
    missing = [r for r in rows if (r.p, r.q) not in table]
    if missing:
        n = ys.size
        sums = _kummer_lockstep(
            np.repeat([r.p for r in missing], n), np.repeat([r.q for r in missing], n),
            np.tile(ys, len(missing)),
        )
        for i, r in enumerate(missing):
            row = np.full(mask.shape, math.nan)
            row[keep] = sums[i * n:(i + 1) * n]
            row.flags.writeable = False
            table[r.p, r.q] = row
    out = [table[r.p, r.q] for r in rows]
    while len(table) > _GRID_ROWS:
        del table[next(iter(table))]
    return out


def kummer_jet(params: KummerParams, xjet: Jet) -> Jet:
    """Jet of x -> 1F1(p; q; x^2) along an arbitrary x-jet.

    The K+1 y-derivatives are evaluated by contiguity at y0 = x0^2, then
    composed with the jet of y = x^2.  Along a grid jet the K+1 contiguity
    series 1F1(p+m; q+m; y), m = 0..K (DLMF 13.3.15), come from the grid's
    row table; those it lacks run in one lockstep pass over the unmasked
    points.
    """
    y0 = xjet.value * xjet.value
    coefs = []
    coef = 1.0
    for m in range(xjet.order + 1):
        coefs.append(coef)
        coef *= (params.p + m) / (params.q + m)
    # a zero coefficient: the polynomial case differentiated past its degree
    rows = [KummerParams(params.p + m, params.q + m) for m, c in enumerate(coefs) if c != 0.0]
    if xjet.mask is None:
        sums = iter([kummer(row, y0) for row in rows])
    else:
        sums = iter(_kummer_rows(rows, y0, xjet.mask))
    outer = np.zeros(xjet.block.shape)
    for m, c in enumerate(coefs):
        if c != 0.0:
            outer[m] = c * next(sums)
    return jet_compose(Jet(outer, xjet.mask), jet_mul(xjet, xjet))
