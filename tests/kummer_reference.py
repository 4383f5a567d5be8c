"""The scalar Kummer series loop, for one series at one point.

The package sums every Kummer row through one lockstep loop
(`susypainleve.hyp1f1._kummer_lockstep`), at a point as along a grid.  This
is the scalar loop it replaced, kept verbatim: the term update, the Kahan
update and the stopping rule, in the order the lockstep must repeat them
for each of its series.  It shares no code with the lockstep, so a loop
that reorders a step or stops one term early or late fails a bitwise
comparison against it.
"""

from susypainleve.config import KUMMER_MAX_TERMS, KUMMER_Y_MAX
from susypainleve.hyp1f1 import KummerConvergenceError, KummerParams, KummerRangeError


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
