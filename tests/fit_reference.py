"""Per-sample reference loop of the parameter fit, for one sample at a time.

This is the loop that the vectorized `susypainleve.residual._affine_fit`
replaced, kept verbatim over Python floats: the six residual terms of one
sample, `math.fsum` of them, its coefficient row, row-equilibration by the
largest magnitude in the row, then `np.linalg` on the stacked rows.  It
shares no fit code with the package (only `on_grid`, which evaluates the
state), so a vectorized fit that changes one rounding step fails a bitwise
comparison against it.  Each function returns (theta, cond, misfit), or
("singular", message) where the package raises SingularSystemError.
"""

import math

import numpy as np

from susypainleve.config import VALUE_GUARD, default_x_grid, default_z_grid
from susypainleve.jets import on_grid

COND_LIMIT = 1e10


def _piv_terms(g0, g1, g2, x, a, b):
    return (
        g2,
        -(g1 * g1) / (2.0 * g0),
        -1.5 * g0**3,
        -4.0 * x * g0 * g0,
        -2.0 * (x * x - a) * g0,
        -b / g0,
    )


def _pv_terms(w0, w1, w2, z, a, b, c, d):
    wm1 = w0 - 1.0
    return (
        w2,
        -(0.5 / w0 + 1.0 / wm1) * w1 * w1,
        w1 / z,
        -(wm1 * wm1) * (a * w0 + b / w0) / (z * z),
        -c * w0 / z,
        -d * w0 * (w0 + 1.0) / wm1,
    )


def _guarded(kind, value):
    if kind == "piv":
        return abs(value) < VALUE_GUARD
    return abs(value) < VALUE_GUARD or abs(value - 1.0) < VALUE_GUARD


def _fit(kind, state, samples, row_of, n_params):
    if samples is None:
        samples = (default_x_grid() if kind == "piv" else default_z_grid())[1::3]
    jet = on_grid(state, samples, 2)
    masked = jet.mask.tolist()
    v0, v1, v2 = (v.tolist() for v in jet.d[:3])
    rows, rhs = [], []
    for i, t in enumerate(samples):
        if masked[i] or _guarded(kind, v0[i]):
            continue
        row, right = row_of(v0[i], v1[i], v2[i], t)
        s = max(*(abs(r) for r in row), abs(right))
        rows.append([r / s for r in row])
        rhs.append(right / s)
    if len(rows) < n_params:
        return "singular", f"only {len(rows)} usable samples for a {n_params}-parameter fit"
    A = np.asarray(rows)
    y = np.asarray(rhs)
    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > COND_LIMIT:
        return "singular", f"{kind.upper()} inference system condition number {cond:.3g}"
    theta, *_ = np.linalg.lstsq(A, y, rcond=None)
    misfit = float(np.sqrt(np.mean((A @ theta - y) ** 2)))
    return tuple(float(v) for v in theta), cond, misfit


def ref_infer_piv(g, samples=None):
    def row_of(g0, g1, g2, x):
        base = math.fsum(_piv_terms(g0, g1, g2, x, 0.0, 0.0))
        return [2.0 * g0, -1.0 / g0], -base

    return _fit("piv", g, samples, row_of, 2)


def ref_infer_pv(w, samples=None):
    def row_of(w0, w1, w2, z):
        base = math.fsum(_pv_terms(w0, w1, w2, z, 0.0, 0.0, 0.0, -0.125))
        wm1sq = (w0 - 1.0) ** 2
        return [wm1sq * w0 / (z * z), wm1sq / (w0 * z * z), w0 / z], base

    return _fit("pv", w, samples, row_of, 3)
