"""Authoritative verification oracles for the Painleve IV and V equations.

Residuals are evaluated with exact jet derivatives.  Relative residuals are
normalized by the largest-magnitude term of the equation at each point: raw
residuals near poles of g or w are meaningless, and this normalization makes
the pass thresholds grid-independent.

Parameter inference exploits the fact that both residuals are *linear* in
the free parameters (a, b) respectively (a, b, c) with d frozen at -1/8:
a least-squares fit over >= 8 samples both recovers the parameters and, via
the post-fit misfit, exposes a wrong functional form (as opposed to merely
wrong parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .config import (
    DEFAULT_TOLERANCE,
    MIN_VALID_POINTS,
    VALUE_GUARD,
    default_x_grid,
    default_z_grid,
)
from .jets import Jet, on_grid
from .oscillator import State


class VerificationError(RuntimeError):
    """Base class for verification failures that are not residual failures."""


class GridDegenerateError(VerificationError):
    """Fewer unguarded grid points than the required minimum."""

    def __init__(self, message: str, report: "VerificationReport | None" = None):
        super().__init__(message)
        self.report = report


class SingularSystemError(VerificationError):
    """Parameter-inference system is singular or hopelessly ill-conditioned."""


def piv_terms(gjet: Jet, x: float, a: float, b: float) -> tuple[float, ...]:
    """The six signed terms of the PIV residual at one point.

    residual = g'' - (g')^2/(2g) - (3/2) g^3 - 4x g^2 - 2(x^2 - a) g - b/g
    """
    return _piv_terms(gjet.d[0], gjet.d[1], gjet.d[2], x, a, b)


def _piv_terms(g0, g1, g2, x, a: float, b: float) -> tuple:
    """PIV terms from the values at one point, or elementwise from arrays over many."""
    return (
        g2,
        -(g1 * g1) / (2.0 * g0),
        -1.5 * _cube(g0),
        -4.0 * x * g0 * g0,
        -2.0 * (x * x - a) * g0,
        -b / g0,
    )


def _cube(v):
    # Python's float ** 3 (C pow) differs from numpy's power in the last bit
    # for about 5% of arguments, so arrays are cubed per element with it too
    if isinstance(v, np.ndarray):
        return np.array([t**3 for t in v.tolist()])
    return v**3


def piv_residual(sol, x: float, order: int = 2) -> float:
    """Signed PIV residual of a solution object (fields g, a, b) at x."""
    gjet = sol.g(x, max(order, 2))
    return math.fsum(piv_terms(gjet, x, sol.a, sol.b))


def pv_terms(wjet: Jet, z: float, a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """The six signed terms of the PV residual at one point.

    residual = w'' - (1/(2w) + 1/(w-1)) (w')^2 + w'/z
               - (w-1)^2 (a w + b/w)/z^2 - c w/z - d w(w+1)/(w-1)
    """
    return _pv_terms(wjet.d[0], wjet.d[1], wjet.d[2], z, a, b, c, d)


def _pv_terms(w0, w1, w2, z, a: float, b: float, c: float, d: float) -> tuple:
    """PV terms from the values at one point, or elementwise from arrays over many."""
    wm1 = w0 - 1.0
    return (
        w2,
        -(0.5 / w0 + 1.0 / wm1) * w1 * w1,
        w1 / z,
        -(wm1 * wm1) * (a * w0 + b / w0) / (z * z),
        -c * w0 / z,
        -d * w0 * (w0 + 1.0) / wm1,
    )


def pv_residual(sol, z: float, order: int = 2) -> float:
    """Signed PV residual of a solution object (fields w, a, b, c, d) at z."""
    wjet = sol.w(z, max(order, 2))
    return math.fsum(pv_terms(wjet, z, sol.a, sol.b, sol.c, sol.d))


@dataclass
class VerificationReport:
    """Grid verification outcome; rel_residuals holds nan at skipped points."""

    kind: str
    grid: list[float]
    rel_residuals: list[float]
    skipped: int
    n_valid: int
    max_rel_residual: float
    tolerance: float
    passed: bool
    min_valid: int = MIN_VALID_POINTS
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "skipped": self.skipped,
            "n_valid": self.n_valid,
            "max_rel_residual": self.max_rel_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "notes": self.notes,
        }


def _relative_residuals(terms: tuple) -> np.ndarray:
    """|sum of terms| / max |term| per point; terms are arrays over the points.

    The sum is math.fsum per point, as exact as the point code's; a point
    whose terms all vanish has relative residual 0.
    """
    stacked = np.array(terms)
    scale = np.max(np.abs(stacked), axis=0)
    sums = np.array(list(map(math.fsum, stacked.T.tolist())))
    vanishing = scale == 0.0
    return np.where(vanishing, 0.0, np.abs(sums) / np.where(vanishing, 1.0, scale))


def _value_guarded(kind: str, value):
    """Inside the guard band: |g| for PIV, |w| or |w - 1| for PV, below VALUE_GUARD."""
    if kind == "piv":
        return abs(value) < VALUE_GUARD
    return (abs(value) < VALUE_GUARD) | (abs(value - 1.0) < VALUE_GUARD)


def verify_on_grid(
    kind: Literal["piv", "pv"],
    sol,
    grid: Sequence[float] | None = None,
    tol: float = DEFAULT_TOLERANCE,
    *,
    min_valid: int = MIN_VALID_POINTS,
    order: int = 2,
) -> VerificationReport:
    """Relative-residual verification over a grid with pole guarding.

    Points where the solution value sits inside the guard band (|g| <
    VALUE_GUARD for PIV; |w| or |w-1| < VALUE_GUARD for PV) or where jet
    evaluation hits a pole are skipped and counted.  The state is evaluated
    once, on the whole grid.  Raises GridDegenerateError when fewer than
    min_valid points survive.
    """
    if kind not in ("piv", "pv"):
        raise ValueError(f"unknown equation kind {kind!r}")
    if grid is None:
        grid = default_x_grid() if kind == "piv" else default_z_grid()
    if len(grid) == 0:
        raise ValueError("empty verification grid")

    jet = on_grid(sol.g if kind == "piv" else sol.w, grid, max(order, 2))
    keep = ~(jet.mask | _value_guarded(kind, jet.value))
    v0, v1, v2 = (v[keep] for v in jet.d[:3])
    t = np.asarray(grid, dtype=float)[keep]
    if kind == "piv":
        terms = _piv_terms(v0, v1, v2, t, sol.a, sol.b)
    else:
        terms = _pv_terms(v0, v1, v2, t, sol.a, sol.b, sol.c, sol.d)
    residuals = np.full(keep.shape, math.nan)
    residuals[keep] = _relative_residuals(terms)
    skipped = int(keep.size - keep.sum())

    valid = residuals[~np.isnan(residuals)]
    n_valid = valid.size
    worst = float(valid.max()) if n_valid else math.inf
    report = VerificationReport(
        kind=kind,
        grid=np.asarray(grid, dtype=float).tolist(),
        rel_residuals=residuals.tolist(),
        skipped=skipped,
        n_valid=n_valid,
        max_rel_residual=worst,
        tolerance=tol,
        passed=bool(n_valid) and n_valid >= min_valid and worst <= tol,
        min_valid=min_valid,
    )
    if n_valid < min_valid:
        raise GridDegenerateError(
            f"only {n_valid} unguarded points (need {min_valid})", report
        )
    return report


# -- parameter inference -------------------------------------------------------


@dataclass(frozen=True)
class PIVFit:
    a: float
    b: float
    cond: float
    misfit: float


@dataclass(frozen=True)
class PVFit:
    a: float
    b: float
    c: float
    cond: float
    misfit: float


_COND_LIMIT = 1e10


def _affine_fit(kind: str, state: State, samples: Sequence[float] | None, row_of, n_params: int):
    """Least-squares parameters making the residual of `state` vanish.

    row_of(v0, v1, v2, t) gives one usable sample's coefficient row and
    right-hand side.  Samples that are masked or inside the value guard are
    skipped, each row is equilibrated, and the system is refused when it
    has too few rows or is ill-conditioned.  Returns (theta, cond, misfit).
    """
    if samples is None:
        samples = (default_x_grid() if kind == "piv" else default_z_grid())[1::3]
    jet = on_grid(state, samples, 2)
    masked = jet.mask.tolist()
    v0, v1, v2 = (v.tolist() for v in jet.d[:3])
    rows, rhs = [], []
    for i, t in enumerate(samples):
        if masked[i] or _value_guarded(kind, v0[i]):
            continue
        row, right = row_of(v0[i], v1[i], v2[i], t)
        # row-equilibration: keeps near-pole samples from dominating the fit
        s = max(*(abs(r) for r in row), abs(right))
        rows.append([r / s for r in row])
        rhs.append(right / s)
    if len(rows) < n_params:
        raise SingularSystemError(f"only {len(rows)} usable samples for a {n_params}-parameter fit")
    A = np.asarray(rows)
    y = np.asarray(rhs)
    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(f"{kind.upper()} inference system condition number {cond:.3g}")
    theta, *_ = np.linalg.lstsq(A, y, rcond=None)
    misfit = float(np.sqrt(np.mean((A @ theta - y) ** 2)))
    return [float(v) for v in theta], cond, misfit


def infer_piv_params(g: State, samples: Sequence[float] | None = None) -> PIVFit:
    """Least-squares (a, b) making the PIV residual of g vanish.

    The residual is affine in (a, b) with coefficients 2g and -1/g, so each
    usable sample contributes one linear equation.
    """

    def row_of(g0, g1, g2, x):
        base = math.fsum(_piv_terms(g0, g1, g2, x, 0.0, 0.0))
        return [2.0 * g0, -1.0 / g0], -base

    (a, b), cond, misfit = _affine_fit("piv", g, samples, row_of, 2)
    return PIVFit(a, b, cond, misfit)


def infer_pv_params(w: State, samples: Sequence[float] | None = None) -> PVFit:
    """Least-squares (a, b, c) making the PV residual of w vanish (d = -1/8)."""

    def row_of(w0, w1, w2, z):
        base = math.fsum(_pv_terms(w0, w1, w2, z, 0.0, 0.0, 0.0, -0.125))
        wm1sq = (w0 - 1.0) ** 2
        return [wm1sq * w0 / (z * z), wm1sq / (w0 * z * z), w0 / z], base

    (a, b, c), cond, misfit = _affine_fit("pv", w, samples, row_of, 3)
    return PVFit(a, b, c, cond, misfit)


def pointwise_deviation(
    f: State,
    g: State,
    grid: Sequence[float],
    *,
    min_valid: int = MIN_VALID_POINTS,
    per_point: bool = False,
):
    """Max of |f - g| / max(1, |f|, |g|) over evaluable grid points.

    Raw values are compared (the families are not defined up to scaling, so
    no pairwise normalization is allowed); the denominator only switches to
    relative accuracy where a pole inflates both magnitudes, where an
    absolute difference would be meaningless.  Returns (deviation, n_valid),
    or with per_point=True (deviation, n_valid, deviations), where
    deviations holds each grid point's deviation (nan where f or g cannot be
    evaluated).  Raises GridDegenerateError when fewer than min_valid points
    survive.
    """
    fj, gj = on_grid(f, grid, 0), on_grid(g, grid, 0)
    fv, gv = fj.value, gj.value
    with np.errstate(all="ignore"):
        dev = np.abs(fv - gv) / np.maximum(np.maximum(1.0, np.abs(fv)), np.abs(gv))
    deviations: list[float] = np.where(fj.mask | gj.mask, math.nan, dev).tolist()
    valid = [dev for dev in deviations if not math.isnan(dev)]
    n_valid = len(valid)
    if n_valid < min_valid:
        raise GridDegenerateError(f"only {n_valid} comparable points (need {min_valid})")
    best = max(valid, default=0.0)
    if per_point:
        return best, n_valid, deviations
    return best, n_valid
