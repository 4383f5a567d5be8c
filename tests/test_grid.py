"""Grid evaluation against the per-point path, to the bit.

A state called with a grid array must give, at every point, exactly the
floats the same state gives when called with that point alone, and its mask
must mark exactly the points where the point call raises JetError.
"""

import gc
import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from package_caches import clear_package_caches
from residual_reference import left_to_right, residuals, sum_error_bound
from susypainleve import hyp1f1, oscillator, painleve
from susypainleve.backlund import (
    CATALOG,
    PIVMap,
    PIVMapKind,
    PVMap,
    _piv_map_state,
    _pv_map_state,
    bt_piv_chain,
    catalog_family_solution,
    check_catalog_row,
)
from susypainleve.config import KUMMER_MAX_TERMS, default_z_grid, linear_grid
from susypainleve.hyp1f1 import (
    KummerConvergenceError,
    KummerParams,
    KummerRangeError,
    _kummer_lockstep,
    kummer,
    kummer_jet,
)
from susypainleve.jets import (
    Jet,
    JetError,
    _clear_mask,
    demand,
    jet_const,
    jet_var,
    on_grid,
)
from susypainleve.oscillator import Parity, SeedSpec, seed_u, seed_u_jet
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
from susypainleve.residual import (
    VerificationError,
    piv_residual,
    piv_terms,
    pv_residual,
    pv_terms,
    verify_on_grid,
)

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
    # every family but the rationals evaluates the oscillator seeds on their
    # domain or sqrt(z/2), so x <= 0 and z <= 0 (the first two points) are lost
    domain_bound = name not in PV_RATIONAL_NAMES
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
    # the per-point loop the grid evaluation replaced, value guard included:
    # its left-to-right sum, which piv_residual and pv_residual give too, is
    # the report's bits, and its math.fsum the reference that sum stays
    # within gamma_5 of
    for sol, kind, grid in (
        (family_solution("g1", 1.3, Parity.ODD), "piv", X_GRID),
        (family_solution("w1c", -0.7, Parity.EVEN), "pv", Z_GRID),
        (family_solution("pv2a", 2.5, Parity.ODD), "pv", Z_GRID),
    ):
        per_point = []
        for t in grid:
            try:
                if kind == "piv":
                    jet = sol.g(t, 2)
                    if abs(jet.value) < 1e-4:
                        raise JetError("value guard")
                    terms = piv_terms(jet, t, sol.a, sol.b)
                    signed = piv_residual(sol, t)
                else:
                    jet = sol.w(t, 2)
                    if abs(jet.value) < 1e-4 or abs(jet.value - 1.0) < 1e-4:
                        raise JetError("value guard")
                    terms = pv_terms(jet, t, sol.a, sol.b, sol.c, sol.d)
                    signed = pv_residual(sol, t)
            except JetError:
                per_point.append(None)
                continue
            assert bits([signed]) == bits([left_to_right(terms)]), (kind, t)
            per_point.append(terms)
        want = residuals(per_point, math.fsum)
        report = verify_on_grid(kind, sol, grid=grid, min_valid=1)
        assert bits(report.rel_residuals) == bits(residuals(per_point, left_to_right))
        for terms, got, ref in zip(per_point, report.rel_residuals, want):
            if terms is not None:
                assert abs(got - ref) <= sum_error_bound(terms, ref), (kind, terms)
        assert report.skipped == sum(1 for r in want if math.isnan(r))


# -- the lockstep Kummer series ----------------------------------------------------


def test_grid_kummer_errors_follow_the_point_path():
    # the series refuses y = x^2 > 36 on a grid as it does at a point ...
    with pytest.raises(KummerRangeError):
        kummer_jet(KummerParams(0.5, 1.5), jet_var(np.array([1.0, 6.5]), 2))
    # ... and gives up after the same term budget
    for sum_series in (
        lambda: kummer(KummerParams(-5e5, 1.5), 0.25),
        lambda: _kummer_lockstep(np.array([0.5, -5e5]), np.array([1.5, 1.5]), np.array([[0.25]] * 2)),
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
    got = _kummer_lockstep(p, q, y[:, None])
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
    got = _kummer_lockstep(p, q, y[:, None])[:, 0]
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
    assert _kummer_lockstep(p, q, y[:, None]).tobytes() == bits(want)
    # and in another order, which parts the rows of equal (p, q)
    order = random.Random(block).sample(range(len(want)), len(want))
    got = _kummer_lockstep(p[order], q[order], y[order][:, None])
    assert got.tobytes() == bits([want[i] for i in order])
    # and none at all, as on a grid whose points are all masked
    assert _kummer_lockstep(p[:0], q[:0], y[:0, None]).size == 0


def test_lockstep_shared_y_equals_per_row_y():
    # a (n,) y is shared by every row; a (R, n) y gives each row its own
    p, q = np.array([0.3, -2.7, -3.0, 1.25]), np.array([1.5, 0.5, 1.5, 2.25])
    y = np.array(linear_grid(0.0, 36.0, 23))
    shared = _kummer_lockstep(p, q, y)
    assert shared.shape == (4, 23)
    per_row = _kummer_lockstep(p, q, np.tile(y, (4, 1)))
    assert shared.tobytes() == per_row.tobytes()
    want = [kummer(KummerParams(pi, qi), yi) for pi, qi in zip(p, q) for yi in y]
    assert shared.tobytes() == bits(want)
    # one row, and rows of no points
    one = _kummer_lockstep(p[:1], q[:1], y)
    assert one.shape == (1, 23) and one.tobytes() == shared[:1].tobytes()
    assert _kummer_lockstep(p, q, y[:0]).shape == (4, 0)


def test_lockstep_convergence_error_names_the_row_and_the_point():
    p, q, y = np.array([0.5, -5e5]), np.array([1.5, 2.5]), np.array([0.0, 0.25])
    # at y = 0 every series stops at once; the second row at y = 0.25 never does
    with pytest.raises(KummerConvergenceError, match=r"1F1\(-500000\.0; 2\.5; 0\.25\)"):
        _kummer_lockstep(p, q, y)


# -- Kummer rows on a grid -------------------------------------------------------------


# 40 points; the last five are masked, as a seed masks points outside its domain
ROW_GRID = np.array(linear_grid(0.2, 4.0, 40))
ROW_MASK = ROW_GRID > 3.6


def row_xjet(order):
    return Jet(jet_var(ROW_GRID, order).d, ROW_MASK)


def assert_same_jet(got, want):
    assert got.mask.tobytes() == want.mask.tobytes()
    assert got.order == want.order
    for g, w in zip(got.d, want.d):
        assert bits(g) == bits(w)


def spy_on_sums(monkeypatch) -> list:
    """The number of series each later lockstep pass sums: rows x points of its block."""
    summed = []
    lockstep = hyp1f1._kummer_lockstep

    def counted(p, q, y):
        block = lockstep(p, q, y)
        summed.append(block.size)
        return block

    monkeypatch.setattr(hyp1f1, "_kummer_lockstep", counted)
    return summed


def spy_on_rows(monkeypatch) -> list:
    """The (p, q) rows of each later lockstep pass."""
    passes = []
    lockstep = hyp1f1._kummer_lockstep

    def recorded(p, q, y):
        passes.append(list(zip(p.tolist(), q.tolist())))
        return lockstep(p, q, y)

    monkeypatch.setattr(hyp1f1, "_kummer_lockstep", recorded)
    return passes


UNMASKED = int((~ROW_MASK).sum())


def test_an_unmasked_grid_stores_the_lockstep_block_itself(monkeypatch):
    # the rows of an unmasked grid are the lockstep's block, not a copy of it
    blocks = []
    lockstep = hyp1f1._kummer_lockstep

    def kept(p, q, y):
        blocks.append(lockstep(p, q, y))
        return blocks[-1]

    monkeypatch.setattr(hyp1f1, "_kummer_lockstep", kept)
    grid = np.array(linear_grid(0.2, 4.0, 40))
    rows = [(0.3, 1.5), (1.3, 2.5), (2.3, 3.5)]
    got = hyp1f1._kummer_rows(rows, grid * grid, _clear_mask(grid.size))
    [block] = blocks
    assert got is block and block.shape == (3, 40)
    # a row with p = 0 is 1, and the rows summed beside it keep their bits
    got = hyp1f1._kummer_rows(rows[:1] + [(0.0, 0.5)] + rows[1:], grid * grid,
                              _clear_mask(grid.size))
    assert len(blocks) == 2 and (got[1] == 1.0).all()
    assert bits(got[[0, 2, 3]]) == bits(block)


def test_masked_grid_rows_equal_rows_summed_on_the_kept_points():
    keep = ~ROW_MASK
    grid = ROW_GRID[keep]
    rows = [(0.3, 1.5), (1.3, 2.5), (2.3, 3.5), (0.0, 1.5)]
    masked = hyp1f1._kummer_rows(rows, ROW_GRID * ROW_GRID, ROW_MASK)
    kept = hyp1f1._kummer_rows(rows, grid * grid, _clear_mask(grid.size))
    assert masked.shape == (4, ROW_GRID.size) and kept.shape == (4, grid.size)
    assert bits(masked[:, keep]) == bits(kept)
    assert np.isnan(masked[:, ROW_MASK]).all()


def test_a_call_outside_an_op_sums_its_own_rows(monkeypatch):
    # no cache holds rows, in a demand block or outside one: each call sums
    # every row it reads, all five in one pass
    summed = spy_on_sums(monkeypatch)
    for _ in range(2):
        kummer_jet(KummerParams(0.3, 1.5), row_xjet(4))
    with demand():
        for _ in range(2):
            kummer_jet(KummerParams(0.3, 1.5), row_xjet(4))
    assert summed == [5 * UNMASKED] * 4


def test_no_kummer_row_outlives_an_op(monkeypatch):
    # each op sums its rows; once it returns nothing holds them, so the next
    # op on the same grid sums them again
    x = np.array(linear_grid(0.2, 4.0, 40))
    z = np.array(default_z_grid())
    ops = [
        (lambda: verify_on_grid("piv", closed_piv_solution("g1", 1.3, Parity.ODD), grid=x), x),
        (lambda: bt_piv_chain(SeedSpec(0.7, Parity.ODD)), x),
        (lambda: check_catalog_row(CATALOG[4], 1.0, Parity.ODD), np.sqrt(z * 0.5)),
    ]
    for op, seed_grid in ops:
        clear_package_caches()
        passes = spy_on_rows(monkeypatch)
        op()
        rows = sorted({row for rows in passes for row in rows})
        assert rows
        again = spy_on_rows(monkeypatch)
        hyp1f1._kummer_rows(rows, seed_grid * seed_grid, _clear_mask(seed_grid.size))
        assert again == [rows]


@pytest.mark.parametrize("spec", [SeedSpec(0.5, Parity.EVEN), SeedSpec(1.5, Parity.ODD),
                                  SeedSpec(5.5, Parity.ODD), SeedSpec(4.5, Parity.EVEN)])
def test_rows_with_p_zero_are_never_summed(monkeypatch, spec):
    # chi0, psi0 and the p = -2 seeds of both parities: 1F1(0; q; y) = 1
    # is their only row, or the top of their ladder, and is never summed
    grid = np.array(linear_grid(0.2, 4.0, 40))
    assert _kummer_lockstep(np.zeros(1), np.array([1.5]), grid * grid).tolist() == [[1.0] * 40]
    clear_package_caches()
    passes = spy_on_rows(monkeypatch)
    jet = on_grid(oscillator.seed_state(spec), grid, 5)
    assert not [row for rows in passes for row in rows if row[0] == 0.0]
    assert len(passes) == (0 if spec.epsilon in (0.5, 1.5) else 1)
    # the jets are the cold bits of the one-point path, which sums every series
    for i, t in enumerate(grid[::7].tolist()):
        assert bits(jet.block[:, 7 * i]) == bits(seed_u(spec, t, 5).d)


@pytest.mark.parametrize("factor", [oscillator._odd_prefactor, oscillator._even_prefactor,
                                    hyp1f1._square, painleve._half_root])
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


def test_grid_jets_share_one_read_only_all_false_mask():
    clear_package_caches()
    grid = np.array(linear_grid(0.2, 4.0, 40))
    shared = jet_var(grid, 3).mask
    assert shared is jet_var(grid, 1).mask is _clear_mask(grid.size)
    assert not shared.any() and not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0] = True
    # a seed on a grid inside (0, X_MAX] keeps it, so joins take their `a is b` shortcut
    assert seed_u(SeedSpec(2.5, Parity.ODD), grid, 3).mask is shared
    # a seed on a grid that leaves the domain, and a jet that gains a non-finite
    # entry, get fresh masks; the shared one stays all False
    wide = np.concatenate(([-1.0], grid[1:]))
    assert seed_u(SeedSpec(2.5, Parity.ODD), wide, 3).mask.tolist() == [True] + [False] * 39
    block = jet_var(grid, 3).block.copy()
    block[2, 7] = math.inf
    assert Jet(block, shared).mask.tolist() == [i == 7 for i in range(40)]
    xjet = jet_var(grid, 3)
    with np.errstate(all="ignore"):  # masked points overflow or divide by zero
        big = xjet / 1e-308  # the value row overflows from x = 1.8 on
        assert big.mask.tolist() == (~np.isfinite(grid / 1e-308)).tolist()
        pole = 1.0 / (xjet - grid[5])
    assert big.mask.any() and not big.mask.all()
    assert pole.mask.tolist() == [i == 5 for i in range(40)]
    assert not shared.any()
    # clearing the package caches empties the cache that holds the masks
    clear_package_caches()
    assert _clear_mask.cache_info().currsize == 0
    assert jet_var(grid, 3).mask is not shared


def test_on_grid_broadcasts_a_point_jet_result():
    # a state that answers a constant point jet whatever x is gets the
    # broadcast block and the grid's shared all-False mask
    grid = linear_grid(0.2, 4.0, 40)
    jet = on_grid(lambda x, order: jet_const(2.5, order), grid, 3)
    assert jet.block.shape == (4, 40)
    assert bits(jet.block) == bits(np.repeat([[2.5], [0.0], [0.0], [0.0]], 40, axis=1))
    assert jet.mask is _clear_mask(40) and not jet.mask.any()


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
@pytest.mark.parametrize("name", PIV_FAMILY_NAMES + PV_CLOSED_NAMES)
def test_a_cold_closed_form_op_sums_its_seeds_two_rows_in_one_lockstep_pass(monkeypatch, name,
                                                                            parity):
    # every closed form reads alpha = u'/u, whose value needs the seed at
    # order 1 alone, the rows (p, q) and (p+1, q+1), whatever order it is asked
    params = oscillator.seed_params(SeedSpec(1.25, parity))
    clear_package_caches()
    sol = family_solution(name, 1.25, parity)
    passes = spy_on_rows(monkeypatch)
    verify_on_grid(sol.kind, sol, grid=linear_grid(0.2, 4.0, 40), min_valid=1)
    assert passes == [[(params.p, params.q), (params.p + 1.0, params.q + 1.0)]]


# the x = sqrt(z/2) at which the PV families evaluate their seeds on the default z grid
Z_X = np.sqrt(np.array(default_z_grid()) * 0.5)


def test_each_op_sums_its_own_rows_and_chi0_none(monkeypatch):
    # chi0's one row is the constant 1, and a drawn seed sums its 8 rows:
    # 40 ops, each in its own block, sum 8 rows each
    clear_package_caches()
    xjet = jet_var(Z_X, 7)
    chi0 = SeedSpec(0.5, Parity.EVEN)
    summed = spy_on_sums(monkeypatch)
    for i in range(40):
        with demand():
            seed_u_jet(chi0, xjet)
            seed_u_jet(SeedSpec(-2.5 + 0.17 * i, Parity.ODD), xjet)
            seed_u_jet(chi0, xjet)
    assert summed == [8 * Z_X.size] * 40  # the op's own rows, never chi0's


@pytest.mark.parametrize("points", [400, 4000])
def test_held_memory_does_not_grow_with_the_number_of_ops(points):
    # G1 verifies at distinct eps: what later ops read of them is chi0 and
    # psi0 alone, so the row table and the seed nodes are full after 10 ops
    grid = linear_grid(0.2, 4.0, points)
    held = []
    gc.collect()
    tracemalloc.start()
    try:
        clear_package_caches()
        for i in range(30):
            verify_on_grid("piv", closed_piv_solution("G1", 0.3 + 0.137 * i, Parity.ODD), grid=grid)
            if i % 10 == 9:
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # a few kB of interpreter noise; caches that grew with the ops would add
    # about what the first ten ops left behind per ten ops
    assert max(held) - held[0] < 16_000, held


def test_a_dense_grid_keeps_the_rows_of_one_chain(monkeypatch):
    # every closed form of a chain reads one alpha node, so the chain sums
    # its seed's rows in one pass on any grid size
    grid = linear_grid(0.2, 4.0, 4000)
    clear_package_caches()
    summed = spy_on_sums(monkeypatch)
    epsilons = [0.7 + 0.31 * i for i in range(8)]
    for eps in epsilons:
        bt_piv_chain(SeedSpec(eps, Parity.ODD), grid=grid)
    assert len(summed) == len(epsilons)
