"""One evaluation per state per op, and the superpotential held per seed and grid, to the bit.

A state is a plain function f(x, order).  Every family reads its seed
through alpha = u'/u, which `painleve._alpha` holds per grid and seed and
serves at lower orders by truncation.  Whatever order sequence a state
sees, its mask and its unmasked entries must equal those of a fresh
evaluation at that order on emptied caches; entries at masked points mean
nothing.  The op tests below count what each op evaluates: its seed's two
Kummer rows in one pass, each family of a Backlund chain once, and each
image body once.
"""

from dataclasses import replace

import numpy as np
import pytest

from package_caches import clear_package_caches
from susypainleve import backlund, oscillator, painleve
from susypainleve.backlund import (
    CATALOG,
    PIVMap,
    PIVMapKind,
    PVMap,
    _piv_image,
    _pv_map_state,
    bt_piv_apply,
    bt_piv_chain,
    bt_pv_apply,
    catalog_family_solution,
    check_catalog_row,
)
from susypainleve.config import X_MAX, default_x_grid, default_z_grid, linear_grid
from susypainleve.jets import DomainError, jet_var, on_grid
from susypainleve.oscillator import Direction, Parity, SeedSpec, ladder_state, seed_state
from susypainleve.painleve import (
    PIV_FAMILY_NAMES,
    PV_CLOSED_NAMES,
    PV_DERIVED_H1_NAMES,
    PV_DERIVED_H2_NAMES,
    PV_RATIONAL_NAMES,
    DegenerateClosedFormError,
    PVSolution,
    closed_piv_solution,
    closed_pv_solution,
    extremal_piv_solution,
    family_solution,
)
from susypainleve.residual import GridDegenerateError, verify_on_grid
from susypainleve.susy import FirstOrderTransform, aplus_state

ODD, EVEN = Parity.ODD, Parity.EVEN
SEEDS = ((1.3, ODD), (-0.7, EVEN), (2.5, ODD), (0.5, EVEN))
# seeds whose grids masked points when the PV letters were built from
# extremal states: pole-guarded pairs, identically vanishing closed forms.  Of
# the reduced forms only pv1b masks there, where its denominator vanishes with
# alpha = -x; the others evaluate at every point.
MASKED = {("pv1b", 0.5, EVEN)}
DEGENERATE = {
    "pv1c": ((-0.5, ODD),),
    "pv1e": ((0.5, ODD), (0.5, EVEN)),
    "pv1b": ((0.5, EVEN),),
    "pv2c": ((-0.5, ODD),),
}
FAMILIES = (PIV_FAMILY_NAMES + PV_CLOSED_NAMES + PV_DERIVED_H1_NAMES + PV_DERIVED_H2_NAMES
            + PV_RATIONAL_NAMES)
EXTREMAL = tuple(f"{family}:{which}" for family in ("H1", "H2") for which in range(3))


def _cases():
    out = []
    for name in FAMILIES + EXTREMAL:
        seeds = SEEDS[:1] if name in PV_RATIONAL_NAMES else SEEDS + DEGENERATE.get(name, ())
        for eps, parity in seeds:
            if (name, eps, parity) != ("g3", 0.5, EVEN):  # 0/0 there: refused at build
                out.append((name, eps, parity))
    return out


def _state_and_grid(name, eps, parity):
    """A state of the family (or extremal PIV slot) with its default grid."""
    if name in EXTREMAL:
        family, which = name.split(":")
        return extremal_piv_solution(family, int(which), eps, parity).g, default_x_grid()
    sol = family_solution(name, eps, parity)
    if name in PIV_FAMILY_NAMES:
        return sol.g, default_x_grid()
    return sol.w, default_z_grid()


def _assert_same(jet, fresh):
    """Equal masks, and equal entries to the bit wherever the point is not masked."""
    assert jet.order == fresh.order
    np.testing.assert_array_equal(jet.mask, fresh.mask)
    keep = ~fresh.mask
    np.testing.assert_array_equal(jet.block[:, keep].view(np.int64),
                                  fresh.block[:, keep].view(np.int64))


@pytest.mark.parametrize("name, eps, parity", _cases())
def test_served_orders_equal_fresh_builds(name, eps, parity):
    # each order after the first is served from the alpha the fresh
    # evaluation before it left held, at a higher order or a lower one
    if (name, eps, parity) == ("H1:2", 0.5, EVEN):  # g3: refused when it is built
        with pytest.raises(DegenerateClosedFormError):
            _state_and_grid(name, eps, parity)
        return
    state, grid = _state_and_grid(name, eps, parity)
    for order in (5, 2, 0, 3):
        jet = on_grid(state, grid, order)
        clear_package_caches()
        fresh, _ = _state_and_grid(name, eps, parity)
        _assert_same(jet, on_grid(fresh, grid, order))


@pytest.mark.parametrize("name, eps, parity", [case for case in _cases()
                                               if case[1:] == SEEDS[0]])
def test_order_k_evaluation_truncates_to_the_bits_of_order_k(name, eps, parity):
    state, grid = _state_and_grid(name, eps, parity)
    clear_package_caches()
    top = on_grid(state, grid, 5)
    for order in (0, 1, 2, 3, 4):
        clear_package_caches()
        _assert_same(top.truncate(order), on_grid(state, grid, order))


def test_degenerate_seeds_mask_points():
    # the cases above include masked points, so masks are compared, not just entries
    for name, seeds in DEGENERATE.items():
        for eps, parity in seeds:
            state, grid = _state_and_grid(name, eps, parity)
            masked = bool(on_grid(state, grid, 2).mask.any())
            assert masked == ((name, eps, parity) in MASKED), (name, eps, parity)


def test_grid_a_then_b_then_a_returns_a_result():
    state = closed_piv_solution("G2", 1.3, ODD).g
    a, b = default_x_grid(), linear_grid(0.3, 5.5, 40)
    first = on_grid(state, a, 3)
    for grid, expected in ((b, None), (a, first)):
        jet = on_grid(state, grid, 3)
        clear_package_caches()
        fresh = on_grid(closed_piv_solution("G2", 1.3, ODD).g, grid, 3)
        _assert_same(jet, fresh)
        if expected is not None:
            _assert_same(jet, expected)


def test_point_calls_at_zero_still_raise():
    seed = SeedSpec(1.3, ODD)
    states = [
        ladder_state(Direction.RAISE, seed_state(seed)),
        aplus_state(FirstOrderTransform(seed), seed_state(SeedSpec(0.5, EVEN))),
        closed_piv_solution("G1", 1.3, ODD).g,
        extremal_piv_solution("H1", 1, 1.3, ODD).g,
    ]
    for state in states:
        on_grid(state, default_x_grid(), 2)  # a held alpha changes nothing for points
        with pytest.raises(DomainError):
            state(0.0, 2)


def test_seed_grids_mask_points_outside_the_domain_where_points_raise():
    u = seed_state(SeedSpec(1.3, ODD))
    jet = u(np.array([0.0, 1.0, X_MAX, 6.5]), 2)
    np.testing.assert_array_equal(jet.mask, [True, False, False, True])
    for x in (0.0, 6.5):
        with pytest.raises(DomainError):
            u(x, 2)


# -- alpha, held per seed and grid ---------------------------------------------------


def _alpha_on(grid, order, eps=1.3, parity=ODD):
    return painleve._alpha(jet_var(np.asarray(grid, dtype=float), order), eps, parity)


def test_held_alpha_blocks_and_masks_refuse_writes():
    grid = default_x_grid()
    clear_package_caches()
    for jet in (_alpha_on(grid, 3), _alpha_on(grid, 1)):  # the held jet, then a truncation of it
        with pytest.raises(ValueError):
            jet.block[0, 0] = 1.0
        with pytest.raises(ValueError):
            jet.mask[0] = True


def test_alpha_is_held_per_grid_and_seed_and_serves_lower_orders(monkeypatch):
    clear_package_caches()
    runs = []
    body = oscillator.seed_u_jet

    def counted(spec, xjet):
        runs.append((spec, xjet.value.tobytes()))
        return body(spec, xjet)

    monkeypatch.setattr(painleve, "seed_u_jet", counted)
    a, b = default_x_grid(), linear_grid(0.3, 5.0, 25)
    held = _alpha_on(a, 4)
    assert np.shares_memory(_alpha_on(a, 2).block, held.block)  # served by truncation
    _alpha_on(b, 3)
    _alpha_on(a, 3, parity=EVEN)
    _alpha_on(a, 3, eps=-0.7)
    assert len(runs) == 4  # one run per (grid, eps, parity)
    for grid, eps, parity in ((a, 1.3, ODD), (b, 1.3, ODD), (a, 1.3, EVEN), (a, -0.7, ODD)):
        _alpha_on(grid, 0, eps, parity)
    assert len(runs) == 4
    _alpha_on(a, 5)  # above the held order: evaluated afresh, and held instead
    assert len(runs) == 5
    # an op asks its highest order first: asked low then high, alpha runs twice
    clear_package_caches()
    _alpha_on(a, 1)
    _alpha_on(a, 3)
    assert len(runs) == 7


def test_a_catalog_source_and_target_run_their_shared_seed_once_per_grid(monkeypatch):
    clear_package_caches()
    spec = SeedSpec(1.3, ODD)
    runs = []
    body = oscillator.seed_u_jet

    def counted(s, xjet):
        runs.append((s, xjet.order, xjet.value.tobytes()))
        return body(s, xjet)

    monkeypatch.setattr(painleve, "seed_u_jet", counted)
    grid = default_z_grid()
    source = catalog_family_solution("w1a", 1.3, ODD)
    target = catalog_family_solution("w1b", 1.3, ODD)
    on_grid(source.w, grid, 3)
    on_grid(target.w, grid, 3)
    assert [order for s, order, _ in runs if s == spec] == [1]  # alpha asks u at order 1
    on_grid(source.w, linear_grid(0.5, 20.0, 30), 3)
    assert len({key for s, _, key in runs if s == spec}) == 2  # a new grid runs it again


# -- what one op evaluates -------------------------------------------------------------


@pytest.fixture
def kummer_calls(monkeypatch):
    """The rows of each grid evaluation of a seed's Kummer rows, one list per pass."""
    passes = []
    rows_of = oscillator._kummer_rows

    def recorded(rows, y, mask):
        passes.append(list(rows))
        return rows_of(rows, y, mask)

    monkeypatch.setattr(oscillator, "_kummer_rows", recorded)
    return passes


def _two_rows(eps, parity):
    params = oscillator.seed_params(SeedSpec(eps, parity))
    return [(params.p, params.q), (params.p + 1.0, params.q + 1.0)]


def _row(source, target, k):
    return next(r for r in CATALOG if (r.source, r.target, r.k) == (source, target, k))


def _verify_states():
    """(label, kind, solution builder, grid): every CLI family at two cells, the extremal
    PIV slots, the image of a catalog row and two Backlund chain links."""
    out = []
    for name in FAMILIES + EXTREMAL:
        cells = SEEDS[:1] if name in PV_RATIONAL_NAMES else SEEDS[:2]
        for eps, parity in cells:
            if name in EXTREMAL or name in PIV_FAMILY_NAMES:
                kind, grid = "piv", default_x_grid()
            else:
                kind, grid = "pv", default_z_grid()

            def build(name=name, eps=eps, parity=parity):
                if name in EXTREMAL:
                    family, which = name.split(":")
                    return extremal_piv_solution(family, int(which), eps, parity)
                return family_solution(name, eps, parity)

            seed = None if name in PV_RATIONAL_NAMES else (eps, parity)
            out.append((f"{name} {eps} {parity.value}", kind, build, grid, seed))

    def row_image():  # w1c -> w2a, k = (1, -1, 1), checked with the target's parameters
        row = _row("w1c", "w2a", (1, -1, 1))
        source = catalog_family_solution(row.source, 1.0, ODD)
        target = catalog_family_solution(row.target, 1.0, ODD)
        return PVSolution(_pv_map_state(PVMap(*row.k), source), target.a, target.b, target.c)

    def chain_link(source, kind):
        def build():  # the principal root branch
            return _piv_image(PIVMap(kind), closed_piv_solution(source, 0.7, ODD))
        return build

    out.append(("catalog row w1c -> w2a", "pv", row_image, default_z_grid(), (1.0, ODD)))
    out.append(("chain link g1 -> g2", "piv", chain_link("g1", PIVMapKind.WDDAG_PLUS),
                default_x_grid(), (0.7, ODD)))
    out.append(("chain link G3 -> G2", "piv", chain_link("G3", PIVMapKind.WDDAG_PLUS),
                default_x_grid(), (0.7, ODD)))
    return out


VERIFY_STATES = _verify_states()


@pytest.mark.parametrize("label, kind, build, grid, seed", VERIFY_STATES,
                         ids=[case[0] for case in VERIFY_STATES])
def test_one_verify_evaluates_its_state_once_and_sums_its_seed_once(kummer_calls, label, kind,
                                                                     build, grid, seed):
    clear_package_caches()
    sol = build()
    calls = []
    state = sol.state

    def counted(x, order):
        if isinstance(x, np.ndarray):
            calls.append(order)
        return state(x, order)

    sol = replace(sol, **{"g" if kind == "piv" else "w": counted})
    try:
        verify_on_grid(kind, sol, grid=grid)
    except GridDegenerateError:
        pass  # the counts are what is checked here
    assert calls == [2]
    assert kummer_calls == ([] if seed is None else [_two_rows(*seed)])


BACKLUND_OPS = {
    # every link of this chain is built and passes
    "chain 0.7 odd": (lambda: bt_piv_chain(SeedSpec(0.7, ODD)), (0.7, ODD)),
    # g3 is refused at build here, so two links are degenerate before any evaluation;
    # the seed's first row is 1F1(0; 1/2; x^2) = 1, and it has no second
    "chain 0.5 even": (lambda: bt_piv_chain(SeedSpec(0.5, EVEN)), (0.5, EVEN)),
    "row w1c -> w2a": (lambda: [check_catalog_row(_row("w1c", "w2a", (1, -1, 1)), 1.0, ODD)],
                       (1.0, ODD)),
    "bt_pv_apply w1f": (lambda: [bt_pv_apply(PVMap(-1, -1, 1), closed_pv_solution("f", 1.0, EVEN))],
                        (1.0, EVEN)),
    "bt_piv_apply g2": (lambda: [bt_piv_apply(PIVMap(PIVMapKind.WDDAG_MINUS),
                                              closed_piv_solution("g2", 2.5, ODD))], (2.5, ODD)),
}


@pytest.mark.parametrize("op", BACKLUND_OPS)
def test_one_backlund_op_sums_its_seeds_two_rows_in_one_pass(kummer_calls, op):
    run, (eps, parity) = BACKLUND_OPS[op]
    clear_package_caches()
    results = run()
    if op == "chain 0.7 odd":
        assert all(result.passed and len(result.branches) == 1 for result in results)
    if op == "chain 0.5 even":
        assert any("g3 is 0/0" in note for result in results for note in result.notes)
        assert kummer_calls == [_two_rows(eps, parity)[:1]]
    else:
        assert kummer_calls == [_two_rows(eps, parity)]


@pytest.mark.parametrize("eps, parity, refused", [(0.7, ODD, ()), (0.5, EVEN, ("g3",))])
def test_a_chain_evaluates_each_family_and_each_image_body_once(monkeypatch, eps, parity,
                                                                 refused):
    calls, images = [], []
    build, body = backlund.closed_piv_solution, backlund._piv_map

    def counting(name, epsilon, parity):
        sol = build(name, epsilon, parity)
        state = sol.g

        def counted(x, order):
            if isinstance(x, np.ndarray):
                calls.append((name, order))
            return state(x, order)

        return replace(sol, g=counted)

    def counted_body(map_, sol, xj, G):
        if xj.mask is not None:
            images.append((sol.provenance.split()[0], xj.order))
        return body(map_, sol, xj, G)

    monkeypatch.setattr(backlund, "closed_piv_solution", counting)
    monkeypatch.setattr(backlund, "_piv_map", counted_body)
    bt_piv_chain(SeedSpec(eps, parity))
    # the sources at order 3, highest first, and G2, a target alone, at order 0
    assert calls == [(name, 3) for name in ("g1", "g2", "g3", "G1", "G3") if name not in refused] \
        + [("G2", 0)]
    links = [(source, 2) for source, _, target in backlund.CHAIN_LINKS
             if source not in refused and target not in refused]
    assert images == links


def _bt_fields(result):
    """Every field of a BTResult, floats as hex; a solution by its parameters and provenance."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, (tuple, list)):
            return [exact(v) for v in value]
        return value

    out = {name: exact(getattr(result, name)) for name in vars(result) if name != "transformed"}
    sol = result.transformed
    if sol is not None:
        out["transformed"] = exact((sol.a, sol.b, sol.provenance))
    return out


def test_a_warm_chain_equals_a_cold_one():
    for eps, parity in ((0.7, ODD), (-0.7, EVEN)):
        clear_package_caches()
        bt_piv_chain(SeedSpec(eps, parity))
        warm = bt_piv_chain(SeedSpec(eps, parity))  # alpha is held for the grid and seed
        clear_package_caches()
        cold = bt_piv_chain(SeedSpec(eps, parity))
        assert [_bt_fields(link) for link in warm] == [_bt_fields(link) for link in cold]


def test_a_warm_catalog_row_equals_a_cold_one():
    row = _row("w1c", "w2a", (1, -1, 1))
    clear_package_caches()
    # a chain of the seed leaves alpha held on the x grid, a letter on the z grid's X
    bt_piv_chain(SeedSpec(1.0, ODD))
    verify_on_grid("pv", family_solution("pv2a", 1.0, ODD))
    warm = check_catalog_row(row, 1.0, ODD)
    clear_package_caches()
    cold = check_catalog_row(row, 1.0, ODD)
    assert _bt_fields(warm) == _bt_fields(cold)
