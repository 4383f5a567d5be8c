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
import operator
from dataclasses import dataclass, field
from functools import reduce
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
    """Signed PIV residual of a solution object (fields g, a, b) at x.

    The six terms are added left to right, as verify_on_grid adds them.
    """
    gjet = sol.g(x, max(order, 2))
    return reduce(operator.add, piv_terms(gjet, x, sol.a, sol.b))


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
    """Signed PV residual of a solution object (fields w, a, b, c, d) at z.

    The six terms are added left to right, as verify_on_grid adds them.
    """
    wjet = sol.w(z, max(order, 2))
    return reduce(operator.add, pv_terms(wjet, z, sol.a, sol.b, sol.c, sol.d))


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

    Each point's terms are added left to right in float64, as piv_residual
    and pv_residual add them at one point, so both give the same bits.  For
    n = 6 terms that sum is off by at most gamma_5 * sum |t_i|, with
    gamma_5 = 5u / (1 - 5u) and u = 2**-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., sec. 4.2): at most 3.3e-15 of the
    largest term, about the rounding each term already carries.  A point
    whose terms all vanish has relative residual 0.
    """
    stacked = np.array(terms)
    scale = np.max(np.abs(stacked), axis=0)
    sums = np.add.reduce(stacked, axis=0)
    vanishing = scale == 0.0
    return np.where(vanishing, 0.0, np.abs(sums) / np.where(vanishing, 1.0, scale))


def _fsums(terms) -> np.ndarray:
    """math.fsum of the terms per sample; terms are arrays over the samples.

    Only the parameter fit's right-hand side uses it: the fitted parameters
    keep the bits of the per-sample loop in tests/fit_reference.py.
    """
    return np.array(list(map(math.fsum, np.asarray(terms).T.tolist())))


def _value_guarded(kind: str, value):
    """Inside the guard band: |g| for PIV, |w| or |w - 1| for PV, below VALUE_GUARD."""
    if kind == "piv":
        return abs(value) < VALUE_GUARD
    return (abs(value) < VALUE_GUARD) | (abs(value - 1.0) < VALUE_GUARD)


def _usable_samples(kind: str, jet: Jet, x: np.ndarray):
    """A grid jet of order 2 or more on the points x, cut to its usable samples.

    Returns (keep, (v0, v1, v2), t): keep marks the points neither masked
    nor inside the value guard, v0..v2 are the value and first two
    derivatives there and t the points themselves.
    """
    keep = ~(jet.mask | _value_guarded(kind, jet.value))
    return keep, tuple(v[keep] for v in jet.d[:3]), x[keep]


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

    `kind` is checked against the solution's own equation (`sol.kind`), and
    a mismatch raises ValueError; the state and the default grid are the
    solution's.  The state is evaluated once, on the whole grid, and judged
    by `jet_verdict` with the solution's parameters.
    """
    if kind != sol.kind:
        raise ValueError(f"cannot verify a {sol.kind!r} solution as equation kind {kind!r}")
    if grid is None:
        grid = sol.default_grid()
    if len(grid) == 0:
        raise ValueError("empty verification grid")
    x = np.asarray(grid, dtype=float)
    jet = on_grid(sol.state, x, max(order, 2))
    return jet_verdict(kind, jet, x, tuple(sol.params.values()), tol, min_valid=min_valid)


def jet_verdict(
    kind: Literal["piv", "pv"],
    jet: Jet,
    x: np.ndarray,
    params: Sequence[float],
    tol: float = DEFAULT_TOLERANCE,
    *,
    min_valid: int = MIN_VALID_POINTS,
) -> VerificationReport:
    """verify_on_grid of a grid jet of order 2 or more on the points x, with these parameters.

    Points where the value sits inside the guard band (|g| < VALUE_GUARD
    for PIV; |w| or |w-1| < VALUE_GUARD for PV) or that the jet masks (a
    pole, say) are skipped and counted.  Raises GridDegenerateError when
    fewer than min_valid points survive.
    """
    keep, (v0, v1, v2), t = _usable_samples(kind, jet, x)
    terms = (_piv_terms if kind == "piv" else _pv_terms)(v0, v1, v2, t, *params)
    residuals = np.full(keep.shape, math.nan)
    residuals[keep] = _relative_residuals(terms)
    skipped = int(keep.size - keep.sum())

    valid = residuals[~np.isnan(residuals)]
    n_valid = valid.size
    worst = float(valid.max()) if n_valid else math.inf
    report = VerificationReport(
        kind=kind,
        grid=x.tolist(),
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


def _affine_fit(kind: str, jet: Jet, x: np.ndarray, columns_of, n_params: int):
    """Least-squares parameters making the residual of a grid jet on the points x vanish.

    columns_of(v0, v1, v2, t) gives, from arrays over the usable samples,
    the n_params coefficient columns and the right-hand side.  Samples that
    are masked or inside the value guard are skipped, each row is
    equilibrated, and the system is refused when it has too few rows or is
    ill-conditioned.  Returns (theta, cond, misfit).
    """
    _, (v0, v1, v2), t = _usable_samples(kind, jet, x)
    with np.errstate(all="ignore"):  # Python's float arithmetic, which this replays, never warns
        cols = np.array(columns_of(v0, v1, v2, t))
        # row-equilibration: keeps near-pole samples from dominating the fit
        cols /= np.abs(cols).max(axis=0)
    if v0.size < n_params:
        raise SingularSystemError(f"only {v0.size} usable samples for a {n_params}-parameter fit")
    A = np.ascontiguousarray(cols[:n_params].T)
    y = cols[n_params]
    cond = float(np.linalg.cond(A))
    if not math.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(f"{kind.upper()} inference system condition number {cond:.3g}")
    theta, *_ = np.linalg.lstsq(A, y, rcond=None)
    misfit = float(np.sqrt(np.mean((A @ theta - y) ** 2)))
    return [float(v) for v in theta], cond, misfit


def _piv_columns(g0, g1, g2, x):
    """The PIV residual is affine in (a, b), with coefficients 2g and -1/g."""
    base = _fsums(_piv_terms(g0, g1, g2, x, 0.0, 0.0))
    return 2.0 * g0, -1.0 / g0, -base


def _pv_columns(w0, w1, w2, z):
    """The PV residual is affine in (a, b, c) with d = -1/8."""
    base = _fsums(_pv_terms(w0, w1, w2, z, 0.0, 0.0, 0.0, -0.125))
    # Python's float ** 2 per element, as the squares of one sample
    wm1sq = np.array([t**2 for t in (w0 - 1.0).tolist()])
    return wm1sq * w0 / (z * z), wm1sq / (w0 * z * z), w0 / z, base


def jet_fit(kind: Literal["piv", "pv"], jet: Jet, x: np.ndarray) -> PIVFit | PVFit:
    """Least-squares (a, b) of a PIV, or (a, b, c) of a PV, grid jet of order 2 or more on x.

    Each usable sample contributes one linear equation.
    """
    if kind == "piv":
        (a, b), cond, misfit = _affine_fit(kind, jet, x, _piv_columns, 2)
        return PIVFit(a, b, cond, misfit)
    (a, b, c), cond, misfit = _affine_fit(kind, jet, x, _pv_columns, 3)
    return PVFit(a, b, c, cond, misfit)


def _samples(samples: Sequence[float] | None, default_grid) -> np.ndarray:
    return np.asarray(default_grid()[1::3] if samples is None else samples, dtype=float)


def infer_piv_params(g: State, samples: Sequence[float] | None = None) -> PIVFit:
    """Least-squares (a, b) making the PIV residual of g vanish, by `jet_fit`."""
    x = _samples(samples, default_x_grid)
    return jet_fit("piv", on_grid(g, x, 2), x)


def infer_pv_params(w: State, samples: Sequence[float] | None = None) -> PVFit:
    """Least-squares (a, b, c) making the PV residual of w vanish (d = -1/8), by `jet_fit`."""
    z = _samples(samples, default_z_grid)
    return jet_fit("pv", on_grid(w, z, 2), z)


def pointwise_deviation(
    f: State,
    g: State,
    grid: Sequence[float],
    *,
    min_valid: int = MIN_VALID_POINTS,
) -> tuple[float, int, list[float]]:
    """Max of |f - g| / max(1, |f|, |g|) over evaluable grid points.

    Raw values are compared (the families are not defined up to scaling, so
    no pairwise normalization is allowed); the denominator only switches to
    relative accuracy where a pole inflates both magnitudes, where an
    absolute difference would be meaningless.  Returns (deviation, n_valid,
    deviations), where deviations holds each grid point's deviation (nan
    where f or g cannot be evaluated).  Raises GridDegenerateError when
    fewer than min_valid points survive.
    """
    x = np.asarray(grid, dtype=float)
    return jet_deviation(on_grid(f, x, 0), on_grid(g, x, 0), min_valid=min_valid)


def jet_deviation(
    fj: Jet,
    gj: Jet,
    *,
    min_valid: int = MIN_VALID_POINTS,
) -> tuple[float, int, list[float]]:
    """pointwise_deviation of two grid jets on one grid, from their values and masks.

    A jet of any order gives the result of its order-0 truncation.
    """
    fv, gv = fj.value, gj.value
    with np.errstate(all="ignore"):
        dev = np.abs(fv - gv) / np.maximum(np.maximum(1.0, np.abs(fv)), np.abs(gv))
    deviations: list[float] = np.where(fj.mask | gj.mask, math.nan, dev).tolist()
    valid = [dev for dev in deviations if not math.isnan(dev)]
    n_valid = len(valid)
    if n_valid < min_valid:
        raise GridDegenerateError(f"only {n_valid} comparable points (need {min_valid})")
    return max(valid, default=0.0), n_valid, deviations
