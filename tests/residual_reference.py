"""Per-point references for the verifier's relative residuals.

`verify_on_grid` adds each point's six terms left to right in float64.  The
references here take the terms of one point at a time as Python floats and
give two residuals: the left-to-right one, which the verifier must equal to
the bit, and the `math.fsum` one (the sum correctly rounded), which it must
stay within `sum_error_bound` of.

The bound: a left-to-right sum of six terms is off by at most
gamma_5 * sum |t_i| (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., sec. 4.2), and fsum's own rounding and the two
divisions by max |t_i| add at most 3u of the fsum residual, to first order;
4u covers the second-order terms.  Both constants come from the float64
unit roundoff u, not from any run.
"""

import math
import operator
from functools import reduce

import numpy as np

from susypainleve.config import VALUE_GUARD
from susypainleve.jets import on_grid
from susypainleve.residual import _piv_terms, _pv_terms

U = float(np.finfo(np.float64).eps) / 2.0  # unit roundoff, 2**-53
GAMMA5 = 5.0 * U / (1.0 - 5.0 * U)


def left_to_right(terms) -> float:
    """((((t0 + t1) + t2) + t3) + t4) + t5 in Python floats."""
    return reduce(operator.add, terms)


def relative(terms, total: float) -> float:
    """|total| / max |t_i|, or 0.0 where every term vanishes."""
    scale = max(abs(t) for t in terms)
    return abs(total) / scale if scale else 0.0


def sum_error_bound(terms, r_fsum: float) -> float:
    """Largest |r - r_fsum| a left-to-right residual may show against the fsum one."""
    scale = max(abs(t) for t in terms)
    if not scale:
        return 0.0
    return (1.0 + U) * GAMMA5 * math.fsum(abs(t) for t in terms) / scale + 4.0 * U * r_fsum


def guarded_terms(kind: str, sol, t: float, v0: float, v1: float, v2: float):
    """The six residual terms at t from the value and two derivatives, or None inside the value guard."""
    if kind == "piv":
        return None if abs(v0) < VALUE_GUARD else _piv_terms(v0, v1, v2, t, sol.a, sol.b)
    if abs(v0) < VALUE_GUARD or abs(v0 - 1.0) < VALUE_GUARD:
        return None
    return _pv_terms(v0, v1, v2, t, sol.a, sol.b, sol.c, sol.d)


def grid_jet_terms(kind: str, sol, grid) -> list:
    """Per point, its terms read from the state's order-2 grid jet; None where masked or guarded."""
    x = np.asarray(grid, dtype=float)
    jet = on_grid(sol.g if kind == "piv" else sol.w, x, 2)
    columns = zip(x.tolist(), jet.mask.tolist(), *(d.tolist() for d in jet.d[:3]))
    return [None if masked else guarded_terms(kind, sol, t, v0, v1, v2)
            for t, masked, v0, v1, v2 in columns]


def residuals(per_point, add) -> list[float]:
    """Relative residual of each point's terms summed by add; nan where a point has none."""
    return [math.nan if terms is None else relative(terms, add(terms)) for terms in per_point]
