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
contiguity series of every point, for every params of one `kummer_jet`
call (the numerator and denominator of a Kummer ratio go in one call), are
summed together in one lockstep loop that repeats each series' scalar steps
exactly.  The loop's cost is mostly fixed per pass and per block of terms,
not per series: seven ufunc calls per term on the live series, and about
thirty more per block for the ratios, the stopping rule and compaction.  So
a g1 node, whose ratio asks K+2 distinct rows, pays for one pass, not two.
The jet of y = x^2 depends on the grid alone, so `_square` holds it per
grid (`jets.grid_factor`), as `oscillator` holds the seed prefactors.

Row table.  A summed series over a grid (a row) is kept in a per-grid table,
keyed by the bytes of the grid's y array and of its mask, then by (p, q).
Jets of one seed at orders K and K+1, the seed's rows p+m, and the
numerator and denominator of a Kummer ratio all read one ladder of rows,
so each row is summed once per grid and later calls sum only the rows they
lack.  It is the package's only series cache: a seed node in `oscillator`
holds one grid at one order, and the table serves the rows it sums again
when it is asked one order higher or on a grid it held before.  Each
element of a row takes the same IEEE steps whatever else is summed beside
it, so cached and fresh rows agree to the bit.  The rows one pass sums are
written into one read-only (rows, N) block, nan at masked points, by one
masked assignment, and the table stores views of its rows: read-only
arrays shared by every caller.  A grid keeps at most _GRID_ROWS rows, the
oldest dropped first, and the tables of _GRIDS grids are held in an
lru_cache, so `cache_clear` empties them with the package's other caches,
the grid factors' included.  The one-point path (`kummer`) is not cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import KUMMER_MAX_TERMS, KUMMER_Y_MAX
from .jets import Jet, grid_factor, jet_compose, jet_mul


# Series terms per block of the grid (lockstep) summation, and the index n
# of each term as a float column.
_BLOCK = 16
_STEPS = np.arange(KUMMER_MAX_TERMS, dtype=float)[:, None]

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
    _BLOCK terms, writing every step into buffers allocated once per call,
    and applies the stopping rule to a whole block at once: an element that
    stops inside a block takes the partial sum of its stopping term and
    ignores the terms after it.  Finished elements leave the working arrays
    between blocks.  Consecutive elements with equal (p, q), a row of the
    row table, form a run, and a block's ratios (p+n)/(q+n) are computed
    once per run.
    """
    size = y.size
    out = np.empty(size)
    if not size:
        return out
    starts = np.flatnonzero(np.concatenate(([True], (p[1:] != p[:-1]) | (q[1:] != q[:-1]))))
    run_p, run_q = p[starts], q[starts]
    run = np.repeat(np.arange(starts.size), np.diff(np.append(starts, size)))
    # one column per element still summing: y, term, Kahan compensation, total, index in out
    live = np.empty((5, size))
    live[0], live[1], live[2], live[3], live[4] = y, 1.0, 0.0, 1.0, np.arange(size)
    small = np.zeros(size, dtype=bool)  # was the element's last term quiet?
    B = _BLOCK
    # buffers, each viewed as a C-contiguous (rows, live columns) block
    work = np.empty((2, B * size))  # terms; ratios, then the quiet thresholds
    sums = np.empty((B + 1) * size)  # sums[k]: the total before term n + k
    flags = np.empty((3, B * size), dtype=bool)  # quiet, zero, stop
    ranks = np.empty(B * size, dtype=np.uint8)  # so _BLOCK < 256
    weights = np.arange(B, 0, -1, dtype=np.uint8)[:, None]  # slot k weighs B - k
    t = np.empty(size)
    n, m = 0, size
    while m and n < KUMMER_MAX_TERMS:
        b = min(B, KUMMER_MAX_TERMS - n)
        bm = b * m
        terms, scratch = (w[:bm].reshape(b, m) for w in work)
        totals = sums[:bm + m].reshape(b + 1, m)
        steps = _STEPS[n:n + b]
        ratios = (run_p + steps) / (run_q + steps)  # (b, runs); one run broadcasts
        if run_p.size > 1:  # mode "clip" writes to out unbuffered; run is in range
            ratios = np.take(ratios, run, axis=1, out=scratch, mode="clip")
        ys, term, comp, tm = live[0], live[1], live[2], t[:m]
        totals[0] = live[3]
        total = totals[0]
        for k, (new, ratio, new_total) in enumerate(zip(terms, ratios, totals[1:]), n + 1):
            np.multiply(term, ratio, new)
            np.multiply(new, ys, new)
            np.divide(new, float(k), new)
            term = new
            np.subtract(term, comp, tm)
            np.add(total, tm, new_total)
            np.subtract(new_total, total, comp)
            np.subtract(comp, tm, comp)
            total = new_total
        n += b
        live[1], live[3] = term, total
        # a zero term stops, and so does the second of two quiet terms in a row
        quiet, zero, stop = (f[:bm].reshape(b, m) for f in flags)
        np.equal(terms, 0.0, zero)
        np.abs(terms, terms)
        np.abs(totals[1:], scratch)
        np.multiply(scratch, 1e-17, scratch)
        np.less_equal(terms, scratch, quiet)
        np.logical_and(quiet[1:], quiet[:-1], stop[1:])
        np.logical_and(quiet[0], small, stop[0])
        np.logical_or(stop, zero, stop)
        rank = ranks[:bm].reshape(b, m)
        np.multiply(stop.view(np.uint8), weights[:b], rank)
        top = rank.max(axis=0)  # B - the slot of the first stop, 0 where none
        small = quiet[-1]
        ended = np.flatnonzero(top)
        if ended.size:
            # flat position of the stopping slot, then of its sum: a zero term
            # ends the sum before it is added
            at = (B - top[ended]).astype(np.intp) * m + ended
            at += m * ~flags[1, at]
            out[live[4, ended].astype(np.intp)] = sums[at]
            going = np.flatnonzero(top == 0)
            live, run, small = live.take(going, axis=1), run[going], small[going]
            m = going.size
        else:
            small = small.copy()
    if m:
        i = int(live[4, 0])
        raise KummerConvergenceError(
            f"1F1({float(p[i])}; {float(q[i])}; {float(y[i])}) did not converge "
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
    missing = list(dict.fromkeys((r.p, r.q) for r in rows if (r.p, r.q) not in table))
    if missing:
        n = ys.size
        sums = _kummer_lockstep(
            np.repeat([p for p, _ in missing], n), np.repeat([q for _, q in missing], n),
            np.tile(ys, len(missing)),
        )
        block = np.full((len(missing), mask.size), math.nan)
        block[:, keep] = sums.reshape(len(missing), n)
        block.flags.writeable = False  # and so is every row, a view of it
        table.update(zip(missing, block))
    out = [table[r.p, r.q] for r in rows]
    while len(table) > _GRID_ROWS:
        del table[next(iter(table))]
    return out


@grid_factor
def _square(xjet: Jet) -> Jet:
    """The jet of y = x^2, held per grid."""
    return jet_mul(xjet, xjet)


def kummer_jet(params, xjet: Jet):
    """Jet of x -> 1F1(p; q; x^2) along an arbitrary x-jet; a tuple of jets for a tuple of params.

    The K+1 y-derivatives are evaluated by contiguity at y0 = x0^2, then
    composed with the jet of y = x^2.  Along a grid jet the K+1 contiguity
    series 1F1(p+m; q+m; y), m = 0..K (DLMF 13.3.15), of every params come
    from the grid's row table; those it lacks run in one lockstep pass over
    the unmasked points, so the numerator and denominator of a Kummer ratio
    cost one pass.
    """
    group = params if isinstance(params, tuple) else (params,)
    coefs = []  # per params, the contiguity coefficient of each y-derivative
    for par in group:
        coef, cs = 1.0, []
        for m in range(xjet.order + 1):
            cs.append(coef)
            coef *= (par.p + m) / (par.q + m)
        coefs.append(cs)
    # a zero coefficient: the polynomial case differentiated past its degree
    rows = [
        KummerParams(par.p + m, par.q + m)
        for par, cs in zip(group, coefs) for m, c in enumerate(cs) if c != 0.0
    ]
    y0 = xjet.value * xjet.value
    if xjet.mask is None:
        sums = iter([kummer(row, y0) for row in rows])
    else:
        sums = iter(_kummer_rows(rows, y0, xjet.mask))
    y = _square(xjet)
    jets = []
    for cs in coefs:
        outer = np.zeros(xjet.block.shape)
        for m, c in enumerate(cs):
            if c != 0.0:
                outer[m] = c * next(sums)
        jets.append(jet_compose(Jet(outer, xjet.mask), y))
    return tuple(jets) if isinstance(params, tuple) else jets[0]
