"""Backlund transformations between the generated Painleve solutions.

PIV side: the three one-parameter maps (here Wtilde+, Wdagger+, Wddag+-)
act on a solution g(x; a, b) through its value, derivative and the root
sqrt(-2b).  The closed-form maps fix no sign for that root; maps take a
root branch (principal = nonnegative).  In the chain the parameter image
fixes the branch: each link takes the one whose image is its target
family's (a, b), and records it.

The five-link chain g1 -> g2 -> g3 -> G1 -> G3 -> G2 (maps Wddag+, Wddag-,
Wtilde+, Wddag-, Wddag+) is verified pointwise against the independently
built closed forms with the same seed.  Each link is one map applied to
its source's own (a, b), and its parameter image equals the target
family's.  The first link needs no Wdagger+ step: on the branch that
matches, Wdagger+ maps g1's (a, b) to themselves, and as a function map it
sends g1 to all poles or to 0 (see tests/test_chain_properties.py).

PV side: the one-parameter family T_{k1,k2,k3} with roots
ra = sqrt(2a), rb = sqrt(-2b), rd = sqrt(-2d) (= 1/2 here, k3 carrying its
sign).  The catalog lists which (source, target, k-triple) pairs are valid
in which epsilon windows, endpoint semantics preserved exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLERANCE, VALUE_GUARD, default_x_grid, default_z_grid
from .jets import Jet, demand, grid_memo, jet_var, on_grid
from .oscillator import Parity, SeedSpec, State
from .painleve import (
    DegenerateClosedFormError,
    PIVSolution,
    PVSolution,
    closed_piv_solution,
    closed_pv_solution,
    derived_pv_solution,
)
from .residual import (
    GridDegenerateError,
    SingularSystemError,
    infer_piv_params,
    infer_pv_params,
    jet_deviation,
    pointwise_deviation,
    verify_on_grid,
)


class MapError(ValueError):
    """Transformation not applicable to this solution (sign conditions)."""


class PIVMapKind(enum.Enum):
    WTILDE_PLUS = "Wtilde+"
    WDAGGER_PLUS = "Wdagger+"
    WDDAG_PLUS = "Wddag+"
    WDDAG_MINUS = "Wddag-"


class RootBranch(enum.Enum):
    PRINCIPAL = "principal"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class PIVMap:
    kind: PIVMapKind
    branch: RootBranch = RootBranch.PRINCIPAL


def _signed_root(map_: PIVMap, b: float) -> float:
    """The signed root s standing for sqrt(-2b) in the map formulas.

    Wddag- folds its minus sign into s; the branch flips s once more.  So
    Wddag+ on the negative branch is Wddag- on the principal one: the same
    s, hence the same parameter image and function action.
    """
    if b > 0.0:
        raise MapError(f"map needs -2b >= 0, got b = {b}")
    r = math.sqrt(-2.0 * b)
    if map_.kind is PIVMapKind.WDDAG_MINUS:
        r = -r
    if map_.branch is RootBranch.NEGATIVE:
        r = -r
    return r


def piv_map_params(map_: PIVMap, a: float, b: float) -> tuple[float, float]:
    """Parameter image (a', b') of the tabulated maps.

    Wtilde+ is the standard PIV Backlund transformation, a' = (2 - 2a + 3s)/4,
    b' = -(1 + a + s/2)^2 / 2 (Bassom, Clarkson & Hicks, Stud. Appl. Math. 95,
    1995; Clarkson, J. Math. Phys. 44, 2003).
    """
    s = _signed_root(map_, b)
    if map_.kind is PIVMapKind.WTILDE_PLUS:
        return 0.25 * (2.0 - 2.0 * a + 3.0 * s), -0.5 * (1.0 + a + 0.5 * s) ** 2
    if map_.kind is PIVMapKind.WDAGGER_PLUS:
        return 1.5 - 0.5 * a - 0.75 * s, -0.5 * (1.0 - a + 0.5 * s) ** 2
    # Wddag+-: the +- already lives in s.
    return -1.5 - 0.5 * a - 0.75 * s, -0.5 * (-1.0 - a + 0.5 * s) ** 2


def _piv_map_state(map_: PIVMap, sol: PIVSolution) -> State:
    s = _signed_root(map_, sol.b)
    a = sol.a
    g = sol.g

    def out(x: float, order: int) -> Jet:
        G = g(x, order + 1)
        gk = G.truncate(order)
        gp = G.deriv()
        xj = jet_var(x, order)
        if map_.kind is PIVMapKind.WTILDE_PLUS:
            num = gp - gk * gk - 2.0 * (xj * gk) - s
            return num / (2.0 * gk)
        if map_.kind is PIVMapKind.WDAGGER_PLUS:
            den = gp + s + 2.0 * (xj * gk) + gk * gk
            return gk + (2.0 * (1.0 - a - 0.5 * s)) * (gk / den)
        den = gp - s - 2.0 * (xj * gk) - gk * gk
        return gk + (2.0 * (1.0 + a + 0.5 * s)) * (gk / den)

    return grid_memo(out, (g, 1))


def _piv_image(map_: PIVMap, sol: PIVSolution) -> PIVSolution:
    """sol under the map, carrying the map's parameter image."""
    a1, b1 = piv_map_params(map_, sol.a, sol.b)
    return PIVSolution(_piv_map_state(map_, sol), a1, b1,
                       provenance=f"{map_.kind.value}[{sol.provenance}]")


@dataclass(frozen=True)
class BTResult:
    """One applied transformation, with parameter drift bookkeeping."""

    transformed: object  # PIVSolution | PVSolution
    predicted: tuple
    inferred: tuple | None
    passed: bool
    degenerate: bool = False
    branches: tuple[str, ...] = ("principal",)
    max_deviation: float | None = None
    n_valid: int | None = None
    source: str = ""
    target: str = ""
    target_params: tuple | None = None
    notes: tuple[str, ...] = ()
    tol: float | None = None  # pointwise tolerance a catalog row was checked at
    certificate_tol: float | None = None  # tolerance of its parameter certificate


def _inferred(image: PIVSolution | PVSolution, grid: Sequence[float]) -> tuple | None:
    """The fitted (a, b) of a PIV image or (a, b, c) of a PV one; None when the fit degenerates."""
    infer = infer_piv_params if image.kind == "piv" else infer_pv_params
    try:
        fit = infer(image.state, samples=grid)
    except (SingularSystemError, GridDegenerateError):
        return None
    return (fit.a, fit.b) if image.kind == "piv" else (fit.a, fit.b, fit.c)


def _verify_image(
    image: PIVSolution | PVSolution,
    grid: Sequence[float] | None,
    tol: float,
    **recorded,
) -> BTResult:
    """A map image verified with its *inferred* parameters, not its predicted ones.

    The map-predicted and the numerically inferred parameters are both
    reported so parameter drift is visible, never silently accepted.  The
    result is degenerate (and not passed) when inference or verification
    degenerates.
    """
    if grid is None:
        grid = image.default_grid()
    predicted = tuple(image.params.values())
    inferred = _inferred(image, grid)
    if inferred is None:
        return BTResult(image, predicted, None, passed=False, degenerate=True, **recorded)
    checked = replace(image, **dict(zip(image.params, inferred)))  # a PV image keeps its d
    try:
        passed = verify_on_grid(image.kind, checked, grid=grid, tol=tol).passed
    except GridDegenerateError:
        return BTResult(image, predicted, inferred, passed=False, degenerate=True, **recorded)
    return BTResult(image, predicted, inferred, passed=passed, **recorded)


def bt_piv_apply(
    map_: PIVMap,
    sol: PIVSolution,
    grid: Sequence[float] | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> BTResult:
    """Apply one PIV map; the result is verified with *inferred* (a, b)."""
    return _verify_image(_piv_image(map_, sol), grid, tol, branches=(map_.branch.value,))


# -- the five-link chain --------------------------------------------------------

# (source, map, target): each map acts on its source's own (a, b)
CHAIN_LINKS: tuple[tuple[str, PIVMapKind, str], ...] = (
    ("g1", PIVMapKind.WDDAG_PLUS, "g2"),
    ("g2", PIVMapKind.WDDAG_MINUS, "g3"),
    ("g3", PIVMapKind.WTILDE_PLUS, "G1"),
    ("G1", PIVMapKind.WDDAG_MINUS, "G3"),
    ("G3", PIVMapKind.WDDAG_PLUS, "G2"),
)


def _identically_small(jet: Jet) -> bool:
    """True when a grid jet's value stays below VALUE_GUARD at every unmasked point."""
    return not np.any(~jet.mask & (np.abs(jet.value) >= VALUE_GUARD))


def _branch_for(kind: PIVMapKind, source: PIVSolution, target: PIVSolution) -> RootBranch:
    """The root branch whose parameter image is nearest the target family's (a, b).

    Both branches have one image at s = 0, where min keeps the principal
    branch, listed first.
    """

    def miss(branch: RootBranch) -> float:
        a1, b1 = piv_map_params(PIVMap(kind, branch), source.a, source.b)
        return abs(a1 - target.a) + abs(b1 - target.b)

    return min(RootBranch, key=miss)


def _mismatch_profile(deviations: Sequence[float], tol: float) -> str:
    """Distinguish a broad mismatch from isolated conditioning spikes.

    deviations are per-point pointwise deviations, nan where not comparable.
    """
    valid = [dev for dev in deviations if not math.isnan(dev)]
    above = sum(1 for dev in valid if dev > tol)
    return f"mismatch above {tol:g} at {above} of {len(valid)} points"


def bt_piv_chain(
    seed: SeedSpec,
    grid: Sequence[float] | None = None,
    tol: float = 1e-7,
) -> list[BTResult]:
    """Verify every chain link against the independently built target family.

    The 2-SUSY side uses eps1 = eps with the same parity.  Each link is one
    map applied to its source's own (a, b), on the root branch whose
    parameter image is the target family's (a, b); that branch is recorded.
    Links whose construction or comparison collapses (identically vanishing
    denominators, all-pole grids) are flagged degenerate, not failed.

    All five links' images are built first, then verified in one demand
    block: the comparison asks each target at order 0 and each image at
    order 2, the order its parameter inference asks, so its source at
    order 3.  One link's target is the next link's source node, so each
    closed form, each map image and the nodes below them run once on the
    grid.
    """
    if grid is None:
        grid = default_x_grid()
    eps, parity = seed.epsilon, seed.parity
    links: list[BTResult | tuple] = []  # a refused link's result, or what _verify_link takes
    for src_name, kind, tgt_name in CHAIN_LINKS:
        try:
            source = closed_piv_solution(src_name, eps, parity)
            target = closed_piv_solution(tgt_name, eps, parity)
        except DegenerateClosedFormError as exc:
            links.append(BTResult(
                None, (), None, passed=False, degenerate=True,
                source=src_name, target=tgt_name, notes=(str(exc),),
            ))
            continue
        branch = _branch_for(kind, source, target)
        image = _piv_image(PIVMap(kind, branch), source)
        links.append((src_name, tgt_name, branch, image, target))
    built = [link for link in links if isinstance(link, tuple)]
    roots = [(image.g, 2) for *_, image, _ in built]
    roots += [(target.g, 0) for *_, target in built]
    with demand(*roots):
        return [link if isinstance(link, BTResult) else _verify_link(*link, grid, tol)
                for link in links]


def _verify_link(
    src_name: str,
    tgt_name: str,
    branch: RootBranch,
    image: PIVSolution,
    target: PIVSolution,
    grid: Sequence[float],
    tol: float,
) -> BTResult:
    """One chain link: its image against its target, then the image's parameter inference.

    The link is degenerate when the target or the image vanishes identically
    (a collapsed family member) or too few points are comparable; its note
    then says which.
    """
    x = np.asarray(grid, dtype=float)
    target_jet, image_jet = on_grid(target.g, x, 0), on_grid(image.g, x, 2)
    try:
        if _identically_small(target_jet) or _identically_small(image_jet):
            raise GridDegenerateError("identically small on the grid")
        dev, n_valid, deviations = jet_deviation(image_jet, target_jet)
    except GridDegenerateError as exc:
        return BTResult(None, (), None, passed=False, degenerate=True, source=src_name,
                        target=tgt_name, notes=(str(exc),))
    notes = () if dev <= tol else (_mismatch_profile(deviations, tol),)
    inferred = _inferred(image, grid)
    if inferred is None:
        notes += ("parameter inference degenerate",)
    return BTResult(
        image, (image.a, image.b), inferred, passed=dev <= tol,
        branches=(branch.value,),
        max_deviation=dev, n_valid=n_valid, source=src_name, target=tgt_name,
        target_params=(target.a, target.b), notes=notes,
    )


# -- PV map -----------------------------------------------------------------------


@dataclass(frozen=True)
class PVMap:
    k1: int
    k2: int
    k3: int

    def __post_init__(self) -> None:
        if not all(k in (-1, 1) for k in (self.k1, self.k2, self.k3)):
            raise ValueError("k1, k2, k3 must each be +1 or -1")

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.k1, self.k2, self.k3)


def _pv_roots(a: float, b: float, d: float) -> tuple[float, float, float]:
    if a < 0.0:
        raise MapError(f"negative radicand: 2a = {2*a}")
    if b > 0.0:
        raise MapError(f"negative radicand: -2b = {-2*b}")
    if d > 0.0:
        raise MapError(f"negative radicand: -2d = {-2*d}")
    return math.sqrt(2.0 * a), math.sqrt(-2.0 * b), math.sqrt(-2.0 * d)


def pv_map_params(
    map_: PVMap, a: float, b: float, c: float, d: float
) -> tuple[float, float, float, float]:
    """Parameter image of T_{k1,k2,k3}; d is always invariant."""
    ra, rb, rd = _pv_roots(a, b, d)
    h = map_.k3 * rd * (1.0 - map_.k2 * rb - map_.k1 * ra)
    a1 = -((c + h) ** 2) / (16.0 * d)
    b1 = ((c - h) ** 2) / (16.0 * d)
    c1 = map_.k3 * rd * (map_.k2 * rb - map_.k1 * ra)
    return a1, b1, c1, d


def _pv_map_state(map_: PVMap, sol: PVSolution) -> State:
    ra, rb, rd = _pv_roots(sol.a, sol.b, sol.d)
    k1, k2, k3 = map_.triple

    def out(z: float, order: int) -> Jet:
        W = sol.w(z, order + 1)
        wk = W.truncate(order)
        wp = W.deriv()
        zj = jet_var(z, order)
        f1 = (
            zj * wp
            - (k1 * ra) * (wk * wk)
            + (k1 * ra - k2 * rb) * wk
            + (k3 * rd) * (zj * wk)
            + k2 * rb
        )
        return 1.0 - (2.0 * k3 * rd) * (zj * wk) / f1

    return grid_memo(out, (sol.w, 1))


def _pv_image(map_: PVMap, sol: PVSolution) -> PVSolution:
    """sol under T_{k1,k2,k3}, carrying the map's parameter image."""
    a1, b1, c1, d1 = pv_map_params(map_, sol.a, sol.b, sol.c, sol.d)
    return PVSolution(_pv_map_state(map_, sol), a1, b1, c1, d1,
                      provenance=f"T{map_.triple}[{sol.provenance}]")


def bt_pv_apply(
    map_: PVMap,
    sol: PVSolution,
    grid: Sequence[float] | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> BTResult:
    """Apply T_{k1,k2,k3}; the result is verified with *inferred* (a, b, c)."""
    return _verify_image(_pv_image(map_, sol), grid, tol)


# -- the transformation catalog -------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """An epsilon interval with explicit endpoint semantics."""

    lo: float | None = None
    hi: float | None = None
    lo_closed: bool = False
    hi_closed: bool = False

    def contains(self, eps: float) -> bool:
        if self.lo is not None and (eps < self.lo or (eps == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (eps > self.hi or (eps == self.hi and not self.hi_closed)):
            return False
        return True

    def at_boundary(self, eps: float) -> bool:
        return (self.lo is not None and eps == self.lo) or (
            self.hi is not None and eps == self.hi
        )

    def describe(self) -> str:
        if self.lo is None and self.hi is None:
            return "all eps"
        parts = []
        if self.lo is not None:
            parts.append(f"{self.lo:g} {'<=' if self.lo_closed else '<'} eps")
        if self.hi is not None:
            parts.append(f"eps {'<=' if self.hi_closed else '<'} {self.hi:g}")
        return " and ".join(parts)


@dataclass(frozen=True)
class CatalogRow:
    source: str
    target: str
    k: tuple[int, int, int]
    window: Window


CATALOG: tuple[CatalogRow, ...] = (
    CatalogRow("w1b", "w2a", (-1, 1, 1), Window(hi=-1.5)),
    CatalogRow("w1b", "w2a", (-1, -1, 1), Window(lo=-1.5, hi=1.5)),
    CatalogRow("w1b", "w2e", (-1, -1, 1), Window(hi=-1.5)),
    CatalogRow("w1b", "w2e", (-1, 1, 1), Window(lo=-1.5, hi=1.5)),
    CatalogRow("w1c", "w2a", (1, -1, 1), Window(lo=0.5)),
    CatalogRow("w1c", "w2d", (1, 1, 1), Window(lo=0.5)),
    CatalogRow("w1c", "w2d", (-1, 1, 1), Window(lo=-0.5, hi=0.5, hi_closed=True)),
    CatalogRow("w1c", "w2d", (-1, -1, 1), Window(hi=-0.5)),
    CatalogRow("w1f", "w2d", (-1, -1, 1), Window()),
    CatalogRow("w1f", "w2e", (-1, 1, 1), Window()),
    CatalogRow("w2d", "w1c", (1, 1, -1), Window(hi=-1.5)),
    CatalogRow("w2d", "w1c", (-1, -1, -1), Window(lo=3.5)),
    CatalogRow("w2d", "w1f", (-1, 1, -1), Window(hi=-1.5)),
    CatalogRow("w2d", "w1f", (1, 1, -1), Window(lo=-1.5)),
    CatalogRow("w2d", "w1f", (1, -1, -1), Window(lo=3.5)),
    CatalogRow("w2e", "w1b", (1, 1, -1), Window(hi=-0.5, hi_closed=True)),
    CatalogRow("w2e", "w1b", (-1, 1, -1), Window(lo=-0.5, lo_closed=True, hi=2.5)),
    CatalogRow("w2e", "w1b", (-1, -1, -1), Window(lo=2.5)),
    CatalogRow("w2e", "w1f", (-1, 1, -1), Window(hi=-0.5, hi_closed=True)),
    CatalogRow("w2e", "w1f", (1, 1, -1), Window(lo=-0.5, lo_closed=True, hi=2.5)),
)


@dataclass(frozen=True)
class CatalogEntry:
    row: CatalogRow
    applicable: bool
    boundary: bool


def bt_pv_catalog(epsilon: float) -> list[CatalogEntry]:
    """The full transformation catalog with window membership evaluated at epsilon."""
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")
    return [
        CatalogEntry(row, row.window.contains(epsilon), row.window.at_boundary(epsilon))
        for row in CATALOG
    ]


def catalog_family_solution(name: str, epsilon: float, parity: Parity) -> PVSolution:
    """Resolve a catalog family name: w1x is H1's letter x, w2x H2's at eps1 = eps."""
    if name.startswith("w1"):
        return closed_pv_solution(name[-1], epsilon, parity)
    return derived_pv_solution("H2", name[-1], epsilon, parity)


def check_catalog_row(
    row: CatalogRow,
    epsilon: float,
    parity: Parity,
    grid: Sequence[float] | None = None,
    tol: float = 1e-7,
) -> BTResult:
    """Function-level check of one catalog row at one epsilon and parity.

    Passing means the transformed source matches the independently built
    target pointwise AND satisfies the PV equation with the target's own
    parameter tuple (the unambiguous parameter certificate; the least-squares
    inference stays attached as a drift detector, but its conditioning
    depends on how much the solution varies over the grid).  The result
    records the tolerances applied: `tol` to the pointwise match and
    `certificate_tol`, never below 1e-6, to the certificate.  The row's
    calls run in one demand block, so a seed that the source and target
    share, and every other node below them, runs once on the grid.
    """
    if grid is None:
        grid = default_z_grid()
    source = catalog_family_solution(row.source, epsilon, parity)
    target = catalog_family_solution(row.target, epsilon, parity)
    certificate_tol = max(tol, 1e-6)
    # inference and the certificate ask the image at order 2, so the source
    # at 3; the pointwise match asks the target at 0
    with demand((source.w, 3), (target.w, 0)):
        image = _pv_image(PVMap(*row.k), source)
        inferred = _inferred(image, grid)
        result = partial(
            BTResult, image, tuple(image.params.values()), inferred, source=row.source,
            target=row.target, target_params=tuple(target.params.values()),
            tol=tol, certificate_tol=certificate_tol,
        )
        try:
            dev, n_valid, deviations = pointwise_deviation(image.w, target.w, grid)
            certified = replace(image, **target.params)
            target_report = verify_on_grid("pv", certified, grid=grid, tol=certificate_tol)
        except GridDegenerateError:
            return result(passed=False, degenerate=True)
    # Parameter certificate: wrong parameters push the residual to O(0.1) at
    # most grid points, while correct ones leave at worst a few isolated
    # conditioning spikes (doubly transformed jets shed digits near poles and
    # at the smallest z).  The 90th percentile is therefore the robust
    # discriminator; the pointwise match above already pins the function.
    valid = sorted(r for r in target_report.rel_residuals if not math.isnan(r))
    p90 = valid[min(len(valid) - 1, (9 * len(valid)) // 10)] if valid else math.inf
    certificate_ok = p90 <= certificate_tol
    notes = () if certificate_ok else (f"target-parameter residual profile fails: p90={p90:.2e}",)
    if dev > tol:
        notes += (_mismatch_profile(deviations, tol),)
    # a row whose inference degenerates is still compared and certified
    return result(passed=dev <= tol and certificate_ok, degenerate=inferred is None,
                  max_deviation=dev, n_valid=n_valid, notes=notes)
