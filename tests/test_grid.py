"""Grid evaluation against the per-point path, to the bit.

A state called with a grid array must give, at every point, exactly the
floats the same state gives when called with that point alone, and its mask
must mark exactly the points where the point call raises JetError.
"""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from package_caches import clear_package_caches
from susypainleve import hyp1f1, oscillator
from susypainleve.backlund import (
    CATALOG,
    PIVMap,
    PIVMapKind,
    PVMap,
    _piv_map_state,
    _pv_map_state,
    catalog_family_solution,
)
from susypainleve.config import KUMMER_MAX_TERMS, linear_grid
from susypainleve.hyp1f1 import (
    KummerConvergenceError,
    KummerParams,
    KummerRangeError,
    _kummer_lockstep,
    kummer,
    kummer_jet,
)
from susypainleve.jets import Jet, JetError, jet_var, on_grid
from susypainleve.oscillator import Parity, SeedSpec, seed_u
from susypainleve.painleve import (
    PIV_FAMILY_NAMES,
    PV_CLOSED_NAMES,
    PV_DERIVED_H1_NAMES,
    PV_DERIVED_H2_NAMES,
    PV_RATIONAL_NAMES,
    PIVSolution,
    closed_piv_solution,
    family_solution,
)
from susypainleve.residual import VerificationError, piv_terms, pv_terms, verify_on_grid

# x = 0 is a pole of the odd closed forms and outside the seeds' domain;
# x < 0 is outside it too.  z <= 0 is outside the domain of sqrt(z/2).
X_GRID = [0.0, -0.4] + linear_grid(0.05, 6.0, 14)
Z_GRID = [0.0, -1.0] + linear_grid(0.05, 72.0, 14)

SEEDS = [(1.3, Parity.ODD), (-0.7, Parity.EVEN), (0.5, Parity.EVEN)]
FAMILIES = (
    PIV_FAMILY_NAMES + PV_CLOSED_NAMES + PV_DERIVED_H1_NAMES + PV_DERIVED_H2_NAMES
    + PV_RATIONAL_NAMES
)


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def assert_grid_matches_points(state, grid, order):
    jet = on_grid(state, grid, order)
    masked, d = jet.mask.tolist(), [v.tolist() for v in jet.d]
    for i, t in enumerate(grid):
        try:
            jet = state(t, order)
        except JetError:
            assert masked[i], (t, order, "the point call raises, the grid does not mask")
            continue
        assert not masked[i], (t, order, "the grid masks a point the point call evaluates")
        assert bits([col[i] for col in d]) == bits(jet.d), (t, order, jet.d)
    return masked


def _family_state(name, eps, parity):
    sol = family_solution(name, eps, parity)
    if isinstance(sol, PIVSolution):
        return sol.g, X_GRID
    return sol.w, Z_GRID


@pytest.mark.parametrize("name", FAMILIES)
def test_family_states_on_grid_equal_point_evaluation(name):
    # every family but g1-g3 and the rationals evaluates the oscillator
    # seeds or sqrt(z/2), so x <= 0 and z <= 0 (the first two points) are lost
    domain_bound = name not in ("g1", "g2", "g3") + PV_RATIONAL_NAMES
    seeds = SEEDS[:1] if name in PV_RATIONAL_NAMES else SEEDS
    for eps, parity in seeds:
        try:
            state, grid = _family_state(name, eps, parity)
        except (ArithmeticError, VerificationError):  # degenerate for this seed
            continue
        for order in (0, 1, 2):
            masked = assert_grid_matches_points(state, grid, order)
            assert not domain_bound or masked[:2] == [True, True]


def test_transformed_states_on_grid_equal_point_evaluation():
    # one chain link (g2 -> g3 by Wddag-) and one catalog row (w1f -> w2d)
    g2 = closed_piv_solution("g2", 2.5, Parity.ODD)
    link = _piv_map_state(PIVMap(PIVMapKind.WDDAG_MINUS), g2)
    row = next(r for r in CATALOG if (r.source, r.target) == ("w1f", "w2d"))
    source = catalog_family_solution(row.source, 1.0, Parity.EVEN)
    image = _pv_map_state(PVMap(*row.k), source)
    for order in (0, 1, 2):
        assert_grid_matches_points(link, X_GRID, order)
        assert_grid_matches_points(image, Z_GRID, order)


def test_whole_grid_structural_error_masks_every_point():
    def broken(x, order):
        raise JetError("fails for every point alike")

    jet = on_grid(broken, [1.0, 2.0], 1)
    assert jet.mask.tolist() == [True, True] and jet.order == 1


def test_verify_on_grid_equals_per_point_reference():
    # the per-point loop the grid evaluation replaced, value guard included
    for sol, kind, grid in (
        (family_solution("g1", 1.3, Parity.ODD), "piv", X_GRID),
        (family_solution("w1c", -0.7, Parity.EVEN), "pv", Z_GRID),
        (family_solution("pv2a", 2.5, Parity.ODD), "pv", Z_GRID),
    ):
        want = []
        for t in grid:
            try:
                if kind == "piv":
                    jet = sol.g(t, 2)
                    if abs(jet.value) < 1e-4:
                        raise JetError("value guard")
                    terms = piv_terms(jet, t, sol.a, sol.b)
                else:
                    jet = sol.w(t, 2)
                    if abs(jet.value) < 1e-4 or abs(jet.value - 1.0) < 1e-4:
                        raise JetError("value guard")
                    terms = pv_terms(jet, t, sol.a, sol.b, sol.c, sol.d)
            except JetError:
                want.append(math.nan)
                continue
            scale = max(abs(term) for term in terms)
            want.append(abs(math.fsum(terms)) / scale if scale else 0.0)
        report = verify_on_grid(kind, sol, grid=grid, min_valid=1)
        assert bits(report.rel_residuals) == bits(want)
        assert report.skipped == sum(1 for r in want if math.isnan(r))


# -- the lockstep Kummer series ----------------------------------------------------


def test_grid_kummer_errors_follow_the_point_path():
    # the series refuses y = x^2 > 36 on a grid as it does at a point ...
    with pytest.raises(KummerRangeError):
        kummer_jet(KummerParams(0.5, 1.5), jet_var(np.array([1.0, 6.5]), 2))
    # ... and gives up after the same term budget
    for sum_series in (
        lambda: kummer(KummerParams(-5e5, 1.5), 0.25),
        lambda: _kummer_lockstep(np.array([0.5, -5e5]), np.array([1.5, 1.5]), np.array([0.25] * 2)),
    ):
        with pytest.raises(KummerConvergenceError):
            sum_series()
    # ... but a seed masks x > 6 first, where its point call raises DomainError
    jet = seed_u(SeedSpec(1.3, Parity.ODD), np.array([1.0, 6.5]), 2)
    assert jet.mask.tolist() == [False, True]


def _kummer_cases():
    rng = random.Random(2)
    cases = []
    for _ in range(1500):
        p = rng.choice([rng.uniform(-9.0, 9.0), -float(rng.randint(0, 10))])
        q = rng.choice([0.5, 1.5, 2.5, 3.5, 4.5, 5.25])
        y = rng.choice([rng.uniform(0.0, 36.0), rng.uniform(0.0, 1.0), 0.0])
        cases.append((p, q, y))
    return cases


def test_lockstep_kummer_equals_scalar_kummer():
    cases = _kummer_cases()
    p, q, y = (np.array(col) for col in zip(*cases))
    got = _kummer_lockstep(p, q, y)
    want = [kummer(KummerParams(pi, qi), yi) for pi, qi, yi in cases]
    assert got.tobytes() == bits(want)


def test_lockstep_kummer_against_mpmath():
    # mpmath sums hypergeometric series to its working precision (mp.dps
    # significant digits), so at 30 digits it is exact for doubles.  The
    # compensated double sum carries the rounding of its terms: each term
    # comes from n multiply-divide steps, so its error is bounded by about
    # 3 n ulp of the term, summed over the series.
    mp.mp.dps = 30
    cases = _kummer_cases()[::10]
    p, q, y = (np.array(col) for col in zip(*cases))
    got = _kummer_lockstep(p, q, y)
    for (pi, qi, yi), g in zip(cases, got):
        want = mp.hyp1f1(pi, qi, yi)
        scale, term, n = mp.mpf(1), mp.mpf(1), 0  # sum of |terms|, term count
        for k in range(300):
            term *= (pi + k) / (qi + k) * yi / (k + 1)
            scale += abs(term)
            if abs(term) > 1e-17 * scale:
                n = k + 1
        bound = 3 * max(n, 1) * 2.0**-53 * float(scale)
        assert abs(g - float(want)) <= bound, (pi, qi, yi, g, want)


def _stopping(p, q, y):
    """`kummer`'s loop replayed: (n, zero, lone) for the term n it stops at, whether
    that term is zero, and whether a lone quiet term came before it."""
    total, comp, term, quiet, lone = 1.0, 0.0, 1.0, 0, False
    for n in range(KUMMER_MAX_TERMS):
        term = term * ((p + n) / (q + n)) * y / (n + 1)
        if term == 0.0:
            return n, True, lone
        t = term - comp
        s = total + t
        comp = (s - total) - t
        total = s
        if abs(term) <= 1e-17 * abs(total):
            quiet += 1
            if quiet >= 2:
                return n, False, lone
        else:
            lone = lone or quiet == 1
            quiet = 0
    raise AssertionError("no stop within the term budget")


# runs of equal (p, q) over a sweep of y, whose quiet stops fall on every slot
# of a block; polynomials whose zero term falls on every slot; y = 0; and
# p = 2^-63, whose first term is quiet and whose later terms grow again
BOUNDARY_CASES = (
    [(0.3, 1.5, y) for y in linear_grid(0.01, 36.0, 90)]
    + [(-2.7, 0.5, y) for y in linear_grid(0.5, 30.0, 60)]
    + [(-float(j), 1.5, 2.0) for j in range(28)]
    + [(0.3, 1.5, 0.0), (2.0**-63, 0.5, 30.0)]
)


@pytest.mark.parametrize("block", [1, 2, 3, 8, 13])
def test_lockstep_blocks_stop_where_scalar_kummer_stops(monkeypatch, block):
    stops = [_stopping(*case) for case in BOUNDARY_CASES]
    # the cases reach every kind of stop the block loop must place: quiet
    # pairs ending on every slot (on slot 0 the pair straddles two blocks),
    # zero terms on the first and the last slot, y = 0, a lone quiet term
    assert {n % block for n, zero, _ in stops if not zero} == set(range(block))
    assert {0, block - 1} <= {n % block for n, zero, _ in stops if zero}
    assert (0, True, False) in stops
    assert any(lone and not zero for _, zero, lone in stops)
    monkeypatch.setattr(hyp1f1, "_BLOCK", block)
    p, q, y = (np.array(col) for col in zip(*BOUNDARY_CASES))
    want = [kummer(KummerParams(pi, qi), yi) for pi, qi, yi in BOUNDARY_CASES]
    assert _kummer_lockstep(p, q, y).tobytes() == bits(want)
    # and in another order, which splits the runs of equal (p, q)
    order = random.Random(block).sample(range(len(want)), len(want))
    assert _kummer_lockstep(p[order], q[order], y[order]).tobytes() == bits([want[i] for i in order])
    # and none at all, as on a grid whose points are all masked
    assert _kummer_lockstep(p[:0], q[:0], y[:0]).size == 0


# -- the per-grid row table ---------------------------------------------------------


# 40 points; the last five are masked, as a seed masks points outside its domain
ROW_GRID = np.array(linear_grid(0.2, 4.0, 40))
ROW_MASK = ROW_GRID > 3.6


def row_xjet(order):
    return Jet(jet_var(ROW_GRID, order).d, ROW_MASK)


def row_table():
    return hyp1f1._grid_rows((ROW_GRID * ROW_GRID).tobytes(), ROW_MASK.tobytes())


def assert_same_jet(got, want):
    assert got.mask.tobytes() == want.mask.tobytes()
    assert got.order == want.order
    for g, w in zip(got.d, want.d):
        assert bits(g) == bits(w)


@pytest.mark.parametrize("params", [KummerParams(0.3, 1.5), KummerParams(-2.0, 0.5)])
def test_warm_row_table_equals_cold(params):
    # -2: a terminating series, whose rows past its degree are never summed
    cold = {}
    for order in (2, 5, 3):
        clear_package_caches()
        cold[order] = kummer_jet(params, row_xjet(order))
    clear_package_caches()
    for order in (2, 5, 3):
        assert_same_jet(kummer_jet(params, row_xjet(order)), cold[order])


def spy_on_sums(monkeypatch) -> list:
    """The number of series each later lockstep pass sums."""
    summed = []
    lockstep = hyp1f1._kummer_lockstep

    def counted(p, q, y):
        summed.append(y.size)
        return lockstep(p, q, y)

    monkeypatch.setattr(hyp1f1, "_kummer_lockstep", counted)
    return summed


UNMASKED = int((~ROW_MASK).sum())


def test_contiguous_neighbour_sums_one_new_row(monkeypatch):
    clear_package_caches()
    p, q = 0.3, 1.5
    kummer_jet(KummerParams(p, q), row_xjet(3))
    assert len(row_table()) == 4  # rows m = 0..3
    summed = spy_on_sums(monkeypatch)
    kummer_jet(KummerParams(p + 1.0, q + 1.0), row_xjet(3))
    assert len(row_table()) == 5  # only (p+4, q+4) is new
    assert summed == [UNMASKED]


def test_cached_rows_are_read_only():
    clear_package_caches()
    kummer_jet(KummerParams(0.3, 1.5), row_xjet(3))
    rows = list(row_table().values())
    assert rows
    for row in rows:
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0


def test_row_table_is_capped():
    clear_package_caches()
    for i in range(300):
        eps = -2.5 + 7.0 * i / 300
        kummer_jet(KummerParams((3.0 - 2.0 * eps) / 4.0, 1.5), row_xjet(2))
    assert len(row_table()) <= hyp1f1._GRID_ROWS == 256
    # a call that reads the oldest row and sums new ones, which push it out,
    # still returns the row it read
    params = KummerParams(*next(iter(row_table())))
    warm = kummer_jet(params, row_xjet(5))
    clear_package_caches()
    assert_same_jet(warm, kummer_jet(params, row_xjet(5)))


def test_kummer_errors_raise_with_a_warm_table():
    clear_package_caches()
    kummer_jet(KummerParams(0.5, 1.5), row_xjet(3))
    assert row_table()
    # y = 6.5^2 > 36 at an unmasked point
    xjet = jet_var(np.append(ROW_GRID, 6.5), 3)
    with pytest.raises(KummerRangeError):
        kummer_jet(KummerParams(0.5, 1.5), xjet)
    # the term budget runs out on the warm grid; nothing is stored, so it runs out again
    before = list(row_table())
    for _ in range(2):
        with pytest.raises(KummerConvergenceError), np.errstate(all="ignore"):
            kummer_jet(KummerParams(-5e5, 1.5), row_xjet(3))
        assert list(row_table()) == before


def test_clearing_the_package_caches_empties_the_row_table(monkeypatch):
    kummer_jet(KummerParams(0.3, 1.5), row_xjet(4))
    assert row_table()
    clear_package_caches()  # must not raise for any module-level cache
    assert not row_table()
    summed = spy_on_sums(monkeypatch)
    kummer_jet(KummerParams(0.3, 1.5), row_xjet(4))
    assert summed == [5 * UNMASKED]  # all five rows again, in one pass


@pytest.mark.parametrize("factor", [oscillator._odd_prefactor, oscillator._even_prefactor,
                                    hyp1f1._square])
def test_grid_factors_warm_equal_cold(factor):
    # two grids, asked alternately: each keeps its own held factor
    grids = [(ROW_GRID, ROW_MASK), (np.array(linear_grid(0.3, 5.0, 25)), np.zeros(25, bool))]

    def xjet(i, order):
        grid, mask = grids[i]
        return Jet(jet_var(grid, order).d, mask)

    cold = {}
    for i in (0, 1):
        for order in (2, 5, 3):
            clear_package_caches()
            cold[i, order] = factor(xjet(i, order))
    clear_package_caches()
    for order in (2, 5, 3):
        for i in (0, 1):
            assert_same_jet(factor(xjet(i, order)), cold[i, order])
    # orders 2 and 3 were served from the order-5 jet held for each grid ...
    held = factor(xjet(0, 5))
    assert np.shares_memory(factor(xjet(0, 3)).block, held.block)
    # ... an x-jet with the same values but other derivatives is built afresh ...
    other = Jet(np.vstack([ROW_GRID, np.full((2, ROW_GRID.size), 2.0)]), ROW_MASK)
    assert_same_jet(factor(other), factor.__wrapped__(other))
    # ... and clearing the package caches empties the factor caches
    held = factor(xjet(0, 5))
    clear_package_caches()
    assert not np.shares_memory(factor(xjet(0, 3)).block, held.block)


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
def test_a_cold_g1_node_sums_its_ratio_in_one_lockstep_pass(monkeypatch, parity):
    # at eps = 1.25 the numerator's rows (p+1+m, q+1+m) are the denominator's
    # rows m+1 to the bit, so order K asks K+2 distinct rows
    clear_package_caches()
    g = closed_piv_solution("g1", 1.25, parity).g
    summed = spy_on_sums(monkeypatch)
    order = 2
    on_grid(g, linear_grid(0.2, 4.0, 40), order)
    assert summed == [(order + 2) * 40]
