"""Centralized numeric defaults.

Every grid, tolerance and guard used by the library and the CLI lives here so
that the `defaults` subcommand can print the whole physics configuration and
tests pin against a single source.
"""

from __future__ import annotations

DEFAULT_JET_ORDER = 5

# Evaluation grids: x for PIV / Schroedinger checks, z = 2x^2 for PV.
X_GRID_RANGE = (0.2, 4.0)
Z_GRID_RANGE = (0.1, 8.0)
GRID_POINTS = 40

# Seeds live on (0, 6]; the Kummer series argument is y = x^2, and PV grids
# run over z = 2 x^2.
X_MAX = 6.0
Z_MAX = 2.0 * X_MAX * X_MAX
KUMMER_Y_MAX = X_MAX * X_MAX
KUMMER_MAX_TERMS = 500

# The seed's factorization energies eps whose values the Kummer rows serve:
# against a 50-digit seed every family errs by at most 1e-9 relative on its
# default grid for eps in this range, and by 1.6e-8 at eps = 33.1.  Seeds
# outside it are refused when they are built.
EPSILON_RANGE = (-100.0, 25.0)

# |divisor| below this at the expansion point signals a pole of the target
# expression (jet arithmetic refuses to continue through it).
POLE_GUARD = 1e-10

# Residual grids skip points where |g|, |w| or |w - 1| falls below this.
VALUE_GUARD = 1e-4
MIN_VALID_POINTS = 20

DEFAULT_TOLERANCE = 1e-8


def linear_grid(lo: float, hi: float, n: int) -> list[float]:
    """n equally spaced points on [lo, hi]."""
    if n < 2:
        raise ValueError("grid needs at least two points")
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


def default_x_grid() -> list[float]:
    return linear_grid(*X_GRID_RANGE, GRID_POINTS)


def default_z_grid() -> list[float]:
    return linear_grid(*Z_GRID_RANGE, GRID_POINTS)


def defaults_dict() -> dict:
    """All defaults in one JSON-serializable mapping (CLI `defaults`)."""
    return {
        "jet_order": DEFAULT_JET_ORDER,
        "x_grid": {"lo": X_GRID_RANGE[0], "hi": X_GRID_RANGE[1], "count": GRID_POINTS},
        "z_grid": {"lo": Z_GRID_RANGE[0], "hi": Z_GRID_RANGE[1], "count": GRID_POINTS},
        "x_max": X_MAX,
        "kummer_y_max": KUMMER_Y_MAX,
        "kummer_max_terms": KUMMER_MAX_TERMS,
        "epsilon_range": {"lo": EPSILON_RANGE[0], "hi": EPSILON_RANGE[1]},
        "pole_guard": POLE_GUARD,
        "value_guard": VALUE_GUARD,
        "min_valid_points": MIN_VALID_POINTS,
        "tolerance": DEFAULT_TOLERANCE,
    }
