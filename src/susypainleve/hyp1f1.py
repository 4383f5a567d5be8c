"""Kummer's confluent hypergeometric function 1F1(p; q; y).

The working range of the package is x in (0, 6], i.e. y = x^2 <= 36, where
the direct Maclaurin series with compensated summation is numerically
adequate (roughly two digits are shed near y = 36 through cancellation when
p < 0; the verification tolerances account for that).  There is deliberately
no asymptotic branch and no Tricomi function: out-of-range arguments raise
instead of degrading silently.

A seed reads two rows at most: 1F1(p; q; y), and 1F1(p+1; q+1; y) for its
first derivative, as d/dy 1F1(p; q; y) = (p/q) 1F1(p+1; q+1; y) (DLMF
13.3.15); `oscillator.seed_u_jet` takes every higher derivative from the
seed's ODE.  `kummer` sums one series at one point.  Along a grid,
the rows of every point are summed together in one lockstep loop that
repeats each series' scalar steps exactly.  The loop's cost is mostly fixed
per pass and per block of terms, not per series: seven ufunc calls per term
on the live series, and about thirty more per block for the ratios, the
stopping rule and compaction.

Rows.  The lockstep sums a call's rows over the grid's unmasked y, shared
by every row, into one (rows, points) block.  When no point is masked
(every seed on a grid inside (0, 6]) the call reads that block itself;
otherwise one masked assignment scatters it into a nan-filled (rows, N)
block.  A row with p = 0 is the terminating series of degree 0, the
constant 1 (the lockstep's first term is exactly 0.0, so it returns 1.0):
it is never summed.  It is chi0's and psi0's only row: their u' needs no
second row, since its coefficient p/q is 0.  No row is kept: a seed is a
node (`oscillator.seed_state`), evaluated once per grid at the highest order
its op asks, and it sums its two rows there whatever that order is, so a
store of an op's rows would save no summing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import KUMMER_MAX_TERMS, KUMMER_Y_MAX


# Series terms per block of the grid (lockstep) summation, and the index n
# of each term as a float column.
_BLOCK = 16
_STEPS = np.arange(KUMMER_MAX_TERMS, dtype=float)[:, None]


class KummerError(ValueError):
    """Base class for 1F1 evaluation failures."""


class KummerParameterError(KummerError):
    """A parameter is not finite, or q is zero or a negative integer (1F1 undefined)."""


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
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise KummerParameterError(f"parameters p={self.p!r}, q={self.q!r} must be finite")
        if _is_nonpositive_integer(self.q):
            raise KummerParameterError(f"lower parameter q={self.q!r} is a nonpositive integer")


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


def _kummer_lockstep(p: np.ndarray, q: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (R, n) block of R rows 1F1(p[r]; q[r]; y), p and q of shape (R,), on n points.

    y is shape (n,), shared by every row, or (R, n).  Every element takes the
    steps of `kummer` in the same order (term update, then Kahan update) and
    stops at the same n by the same rule, so its sum equals `kummer`'s to the
    bit.  The loop runs in blocks of _BLOCK terms, writing every step into
    buffers allocated once per call, and applies the stopping rule to a whole
    block at once: an element that stops inside a block takes the partial sum
    of its stopping term and ignores the terms after it.  Finished elements
    leave the working arrays between blocks.  A block's ratios (p+n)/(q+n)
    are computed once per row.
    """
    rows, points = p.size, y.shape[-1]
    out = np.empty((rows, points))
    size = out.size
    if not size:
        return out
    run = np.arange(size) // points  # the row of each element
    # one column per element still summing: y, term, Kahan compensation, total, index in out
    live = np.empty((5, size))
    live[0].reshape(rows, points)[:] = y
    live[1], live[2], live[3], live[4] = 1.0, 0.0, 1.0, np.arange(size)
    small = np.zeros(size, dtype=bool)  # was the element's last term quiet?
    B = _BLOCK
    # buffers, each viewed as a C-contiguous (term slots, live columns) block
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
        ratios = (p + steps) / (q + steps)  # (b, rows); one row broadcasts
        if rows > 1:  # mode "clip" writes to out unbuffered; run is in range
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
            out.reshape(size)[live[4, ended].astype(np.intp)] = sums[at]
            going = np.flatnonzero(top == 0)
            live, run, small = live.take(going, axis=1), run[going], small[going]
            m = going.size
        else:
            small = small.copy()
    if m:
        row = int(live[4, 0]) // points
        raise KummerConvergenceError(
            f"1F1({float(p[row])}; {float(q[row])}; {float(live[0, 0])}) did not converge "
            f"within {KUMMER_MAX_TERMS} terms"
        )
    return out


def _kummer_rows(rows: list[tuple], y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The (rows, N) block of 1F1(p; q; y) of each (p, q) row, nan where masked.

    The rows are summed together in one lockstep pass over the unmasked y,
    but for rows with p = 0, which are 1.
    """
    masked = mask.any()
    ys = y[~mask] if masked else y
    beyond = np.abs(ys) > KUMMER_Y_MAX
    if beyond.any():
        raise KummerRangeError(
            f"|y| = {float(abs(ys[beyond][0]))!r} exceeds working range {KUMMER_Y_MAX!r}"
        )
    series = [row for row in rows if row[0] != 0.0]
    if len(series) == len(rows):
        block = _kummer_lockstep(*np.array(series).T, ys)
    else:  # 1F1(0; q; y) = 1
        block = np.ones((len(rows), ys.size))
        if series:
            block[[row[0] != 0.0 for row in rows]] = _kummer_lockstep(*np.array(series).T, ys)
    if not masked:
        return block
    out = np.full((len(rows), mask.size), math.nan)
    out[:, ~mask] = block
    return out
