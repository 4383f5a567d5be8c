"""State nodes evaluated once per grid (`jets.grid_memo`), against fresh builds, to the bit.

A node holds the jet of the last grid at the highest order asked and serves
lower orders by truncation.  Whatever order sequence a node sees, its mask
and its unmasked entries must equal those of a freshly built state asked
once at that order; entries at masked points mean nothing.  Seeds are nodes
that `seed_state` interns, so a fresh build is made only after the package
caches are emptied: otherwise it would share the warm seed nodes.

The demand pass of `on_grid` gives each node the highest order any of its
consumers asks, through the (child, offset) pairs the node declares; the
counting tests below pin those offsets to what the bodies really ask.  A
Backlund chain or catalog row declares every order it will ask in one
`demand` block, and the Backlund tests at the end count node runs per op.
"""

from collections import defaultdict
from functools import cached_property

import numpy as np
import pytest

from package_caches import clear_package_caches
from susypainleve import oscillator
from susypainleve.backlund import (
    CATALOG,
    PIVMapKind,
    PIVMap,
    PVMap,
    _piv_image,
    _pv_map_state,
    bt_piv_chain,
    catalog_family_solution,
    check_catalog_row,
)
from susypainleve.config import X_MAX, default_x_grid, default_z_grid, linear_grid
from susypainleve.jets import AtOrder, DomainError, GridNode, demand, grid_memo, jet_var, on_grid
from susypainleve.oscillator import Direction, Parity, SeedSpec, ladder_state, seed_state
from susypainleve.painleve import (
    PIV_FAMILY_NAMES,
    PV_CLOSED_NAMES,
    PV_DERIVED_H1_NAMES,
    PV_DERIVED_H2_NAMES,
    PV_RATIONAL_NAMES,
    PVSolution,
    closed_piv_solution,
    extremal_piv_solution,
    family_solution,
)
from susypainleve.residual import GridDegenerateError, verify_on_grid
from susypainleve.susy import (
    FirstOrderTransform,
    SecondOrderTransform,
    aplus_state,
    superpotential_alpha,
    wronskian,
)

ODD, EVEN = Parity.ODD, Parity.EVEN
SEEDS = ((1.3, ODD), (-0.7, EVEN), (2.5, ODD), (0.5, EVEN))
# seeds whose grids mask points or collapse the state: pole-guarded pairs,
# identically vanishing closed forms
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
    """A state of the family (or extremal PIV slot) with its default grid; fresh on cold caches."""
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
    state, grid = _state_and_grid(name, eps, parity)
    for order in (5, 2, 0, 3):
        jet = on_grid(state, grid, order)
        clear_package_caches()
        fresh, _ = _state_and_grid(name, eps, parity)
        _assert_same(jet, on_grid(fresh, grid, order))


def test_degenerate_seeds_mask_points():
    # the cases above include masked points, so masks are compared, not just entries
    for name, seeds in DEGENERATE.items():
        for eps, parity in seeds:
            state, grid = _state_and_grid(name, eps, parity)
            assert on_grid(state, grid, 2).mask.any(), (name, eps, parity)


def test_a_node_runs_once_per_grid_at_its_highest_order():
    runs = []

    def body(x, order):
        runs.append(order)
        return jet_var(x, order)

    node = grid_memo(body)
    a, b = np.array(linear_grid(0.2, 4.0, 30)), np.array(linear_grid(0.3, 5.0, 30))
    for order in (5, 2, 0, 3):
        assert node(a, order).order == order
    assert runs == [5]
    node(a, 6)  # a higher order computes fresh and is held instead
    node(a, 4)
    assert runs == [5, 6]
    node(b, 2)
    node(a, 2)  # one entry per node: grid b replaced grid a
    assert runs == [5, 6, 2, 2]
    node(1.5, 2)  # points pass straight through
    node(1.5, 2)
    assert runs == [5, 6, 2, 2, 2, 2]


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
        on_grid(state, default_x_grid(), 2)  # a held grid jet changes nothing for points
        with pytest.raises(DomainError):
            state(0.0, 2)


def test_held_blocks_and_masks_refuse_writes():
    state = family_solution("pv2a", 1.3, ODD).w
    grid = np.array(default_z_grid())
    for jet in (state(grid, 3), state(grid, 1)):  # the held jet, then a truncation of it
        with pytest.raises(ValueError):
            jet.block[0, 0] = 1.0
        with pytest.raises(ValueError):
            jet.mask[0] = True


def test_transform_sub_states_are_built_once():
    t = SecondOrderTransform.reduced_step1(SeedSpec(1.3, ODD))
    assert t.u1_state() is t.u1_state()
    assert t.u2_state() is t.u2_state()
    t1 = FirstOrderTransform(SeedSpec(1.3, ODD))
    grid = np.array(default_x_grid())
    assert np.shares_memory(wronskian(t, grid, 2).block, wronskian(t, grid, 1).block)
    assert np.shares_memory(superpotential_alpha(t1, grid, 2).block,
                            superpotential_alpha(t1, grid, 0).block)


# -- seed nodes -------------------------------------------------------------------


def test_seed_state_interns_one_node_per_spec():
    spec = SeedSpec(1.3, ODD)
    assert seed_state(spec) is seed_state(spec)
    assert seed_state(spec) is seed_state(SeedSpec(1.3, ODD))
    assert seed_state(spec) is not seed_state(SeedSpec(1.3, EVEN))


def test_a_catalog_source_and_target_run_their_shared_seed_once_per_grid(monkeypatch):
    clear_package_caches()
    spec = SeedSpec(1.3, ODD)
    runs = []
    body = oscillator.seed_u_jet

    def counted(s, xjet):
        runs.append((s, xjet.order, xjet.value.tobytes()))
        return body(s, xjet)

    monkeypatch.setattr(oscillator, "seed_u_jet", counted)
    grid = default_z_grid()
    source = catalog_family_solution("w1a", 1.3, ODD)
    target = catalog_family_solution("w1b", 1.3, ODD)
    on_grid(source.w, grid, 3)
    on_grid(target.w, grid, 3)
    assert [order for s, order, _ in runs if s == spec] == [1]  # alpha asks u at order 1
    on_grid(source.w, linear_grid(0.5, 20.0, 30), 3)
    assert len({key for s, _, key in runs if s == spec}) == 2  # a new grid runs it again


def test_seed_grids_mask_points_outside_the_domain_where_points_raise():
    u = seed_state(SeedSpec(1.3, ODD))
    jet = u(np.array([0.0, 1.0, X_MAX, 6.5]), 2)
    np.testing.assert_array_equal(jet.mask, [True, False, False, True])
    for x in (0.0, 6.5):
        with pytest.raises(DomainError):
            u(x, 2)


def test_clearing_the_package_caches_builds_new_seed_nodes():
    spec = SeedSpec(1.3, ODD)
    node = seed_state(spec)
    clear_package_caches()
    assert seed_state(spec) is not node
    assert seed_state(spec) is seed_state(spec)


# -- demand-driven evaluation -------------------------------------------------------


@pytest.fixture
def node_calls(monkeypatch):
    """Record every grid call of every node: the orders asked and the orders its body ran at.

    Returns (asks, runs, needs): asks and runs map (node, grid bytes) to lists of
    orders; needs maps a node to the need the demand pass gave it (-1: none).
    """
    asks, runs, needs = defaultdict(list), defaultdict(list), {}
    call = GridNode.__call__

    def recorded(node, x, order):
        if not isinstance(x, np.ndarray):
            return call(node, x, order)
        key = (node, x.tobytes())
        asks[key].append(order)
        needs[node] = node.need
        held = node.jet
        out = call(node, x, order)
        if node.jet is not held:  # the body ran and its jet is held now
            runs[key].append(node.jet.order)
        return out

    monkeypatch.setattr(GridNode, "__call__", recorded)
    return asks, runs, needs


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

            out.append((f"{name} {eps} {parity.value}", kind, build, grid))

    def row_image():  # w1c -> w2a, k = (1, -1, 1), checked with the target's parameters
        row = next(r for r in CATALOG if (r.source, r.target, r.k) == ("w1c", "w2a", (1, -1, 1)))
        source = catalog_family_solution(row.source, 1.0, ODD)
        target = catalog_family_solution(row.target, 1.0, ODD)
        return PVSolution(_pv_map_state(PVMap(*row.k), source), target.a, target.b, target.c)

    def chain_link(source, kind):
        def build():  # the principal root branch
            return _piv_image(PIVMap(kind), closed_piv_solution(source, 0.7, ODD))
        return build

    out.append(("catalog row w1c -> w2a", "pv", row_image, default_z_grid()))
    out.append(("chain link g1 -> g2", "piv",
                chain_link("g1", PIVMapKind.WDDAG_PLUS),
                default_x_grid()))
    out.append(("chain link G3 -> G2", "piv", chain_link("G3", PIVMapKind.WDDAG_PLUS),
                default_x_grid()))
    return out


VERIFY_STATES = _verify_states()


@pytest.mark.parametrize("label, kind, build, grid", VERIFY_STATES,
                         ids=[case[0] for case in VERIFY_STATES])
def test_one_verify_runs_each_node_once_per_grid_at_its_highest_order(
    node_calls, label, kind, build, grid
):
    asks, runs, needs = node_calls
    clear_package_caches()
    sol = build()
    try:
        verify_on_grid(kind, sol, grid=grid)
    except GridDegenerateError:
        pass  # the node counts are what is checked here
    assert asks
    # each node body ran once per grid, at the highest order its consumers asked there
    assert dict(runs) == {key: [max(orders)] for key, orders in asks.items()}
    # the demand pass reached every node asked, with exactly that order: the
    # declared offsets are the ones the bodies ask, neither more nor less
    highest = defaultdict(int)
    for (node, _), orders in asks.items():
        highest[node] = max(highest[node], *orders)
    assert {node: needs[node] for node in highest} == highest


def test_demand_reaches_a_shared_child_once_and_ignores_stale_needs():
    """A diamond: left asks `shared` at +1, right asks it at +3 (both declared);
    left and right also ask `loose` at +0 and +2 without declaring it."""
    runs = defaultdict(list)

    def build(memo):
        def counted(name, body):
            def run(x, order):
                runs[name, memo].append(order)
                return body(x, order)
            return run

        def shared_body(x, order):  # a pole at x = 1, masked on a grid
            return 1.0 / (jet_var(x, order) - 1.0)

        shared = memo(counted("shared", shared_body))
        loose = memo(counted("loose", lambda x, order: jet_var(x, order) * jet_var(x, order)))
        left = memo(counted("left", lambda x, order: shared(x, order + 1).deriv()
                            + loose(x, order)), (shared, 1))
        right = memo(counted("right", lambda x, order: shared(x, order + 3).deriv(3)
                             * loose(x, order + 2).truncate(order)), (shared, 3))
        top = memo(counted("top", lambda x, order: left(x, order) * right(x, order)),
                   (left, 0), (right, 0))
        return top, left, shared

    def plain(body, *deps):
        return body

    grid_a = np.array(linear_grid(0.5, 3.0, 26))  # holds x = 1.0
    grid_b = np.array(linear_grid(0.6, 2.2, 17))
    top, left, shared = build(grid_memo)
    reference, _, _ = build(plain)
    for order in (2, 5, 0, 3):
        jet, want = on_grid(top, grid_a, order), on_grid(reference, grid_a, order)
        assert jet.mask.any()
        _assert_same(jet, want)
    assert runs["shared", grid_memo] == [5, 8]  # once per call that asked above what it held
    assert runs["loose", grid_memo] == [2, 4, 5, 7]  # undeclared: it runs twice per such call

    # the needs of the calls on grid a (8 at most for `shared`) do not carry over to grid b
    del runs["shared", grid_memo][:]
    on_grid(lambda x, order: left(x, order), grid_b, 0)  # a plain root declares nothing
    assert runs["shared", grid_memo] == [1]
    on_grid(left, grid_b, 2)  # a need of 3 for `shared`, which runs at 3
    left(grid_a[:5], 0)  # outside any on_grid call that need is stale too
    assert runs["shared", grid_memo] == [1, 3, 1]


def test_closed_forms_of_one_seed_share_one_alpha_node():
    states = [closed_piv_solution(name, 1.3, ODD).g for name in PIV_FAMILY_NAMES]
    states += [family_solution(name, 1.3, ODD).w for name in PV_CLOSED_NAMES]
    alpha = states[0].deps[0][0]
    assert all(state.deps == ((alpha, 0),) for state in states)
    # alpha reads its seed at order 1, whatever order it is asked
    [(seed, order)] = alpha.deps
    assert seed is seed_state(SeedSpec(1.3, ODD))
    assert isinstance(order, AtOrder) and order == 1
    assert closed_piv_solution("G1", 1.3, EVEN).g is not states[3]
    clear_package_caches()
    assert closed_piv_solution("g1", 1.3, ODD).g is not states[0]


def test_a_pv2f_verify_runs_the_log_wronskian_body_once_per_grid(monkeypatch):
    # pv2f pairs two B+ states of one transform; both read its (ln W)' node
    runs = []
    build = SecondOrderTransform._log_w.func

    def counted(t):
        node = build(t)
        body = node.body

        def run(x, order):
            runs.append((t, x.tobytes()))
            return body(x, order)

        node.body = run
        return node

    log_w = cached_property(counted)
    log_w.__set_name__(SecondOrderTransform, "_log_w")
    monkeypatch.setattr(SecondOrderTransform, "_log_w", log_w)
    for parity in (ODD, EVEN):
        clear_package_caches()
        runs.clear()
        verify_on_grid("pv", family_solution("pv2f", 1.3, parity))
        assert len(runs) == 1, parity


def _row(source, target, k):
    return next(r for r in CATALOG if (r.source, r.target, r.k) == (source, target, k))


BACKLUND_OPS = {
    # every link of this chain is built and passes
    "chain 0.7 odd": lambda: bt_piv_chain(SeedSpec(0.7, ODD)),
    # g3 is refused at build here, so two links are degenerate before any evaluation
    "chain 0.5 even": lambda: bt_piv_chain(SeedSpec(0.5, EVEN)),
    "row w1c -> w2a": lambda: [check_catalog_row(_row("w1c", "w2a", (1, -1, 1)), 1.0, ODD)],
}


@pytest.mark.parametrize("op", BACKLUND_OPS)
def test_one_backlund_op_runs_each_node_once_per_grid(node_calls, op):
    asks, runs, _ = node_calls
    clear_package_caches()
    results = BACKLUND_OPS[op]()
    notes = [note for result in results for note in result.notes]
    if op == "chain 0.7 odd":
        assert all(result.passed and len(result.branches) == 1 for result in results)
    if op == "chain 0.5 even":
        assert any("g3 is 0/0" in note for note in notes)
    assert runs
    for (node, _), orders in runs.items():
        body = getattr(node.body, "__qualname__", repr(node.body))
        assert len(orders) == 1, (body, orders)


def _diamond(memo, counted):
    """top -> left, right; left asks `shared` at +1, right at +3 (a pole at x = 1)."""
    shared = memo(counted("shared", lambda x, order: 1.0 / (jet_var(x, order) - 1.0)))
    left = memo(counted("left", lambda x, order: shared(x, order + 1).deriv()), (shared, 1))
    right = memo(counted("right", lambda x, order: shared(x, order + 3).deriv(3)), (shared, 3))
    top = memo(counted("top", lambda x, order: left(x, order) * right(x, order)),
               (left, 0), (right, 0))
    return top, left, right, shared


def test_demand_blocks_nest_restore_needs_and_match_plain_states():
    runs = defaultdict(list)

    def counted(name, body):
        def run(x, order):
            runs[name].append(order)
            return body(x, order)
        return run

    nodes = _diamond(grid_memo, counted)
    top, left, right, shared = nodes
    reference = _diamond(lambda body, *deps: body, lambda name, body: body)[0]
    grid_a = np.array(linear_grid(0.5, 3.0, 26))  # holds x = 1.0
    grid_b = np.array(linear_grid(0.6, 2.2, 17))

    def needs():
        return [node.need for node in nodes]

    with demand((top, 2), (left, 5)):
        assert needs() == [2, 5, 2, 6]
        jet = on_grid(left, grid_a, 0)  # a nested block raises nothing here ...
        assert needs() == [2, 5, 2, 6]  # ... and leaves the outer needs as they were
        for order in (2, 0, 1):
            jet = on_grid(top, grid_a, order)
            assert jet.mask.any()
            _assert_same(jet, on_grid(reference, grid_a, order))
        on_grid(right, grid_a, 4)  # a nested block above the outer need ...
        assert needs() == [2, 5, 2, 6]  # ... restores it on exit
    assert runs["shared"] == [6, 7]  # once for the block, once for the order-4 ask
    assert needs() == [-1] * 4

    def boom(x, order):
        raise RuntimeError("body failed")

    failing = grid_memo(boom, (shared, 5))
    with demand((top, 1)):
        with pytest.raises(RuntimeError):
            on_grid(failing, grid_a, 0)
        assert needs() == [1, 1, 1, 4]
    with pytest.raises(RuntimeError):
        with demand((top, 2)):
            failing(grid_a, 0)
    assert needs() == [-1] * 4

    # no need of the blocks on grid a reaches a later call on grid b
    del runs["shared"][:]
    on_grid(left, grid_b, 0)
    assert runs["shared"] == [1]
    _assert_same(on_grid(top, grid_b, 2), on_grid(reference, grid_b, 2))


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


def test_closed_forms_are_interned_and_a_warm_chain_equals_a_cold_one():
    for name in PIV_FAMILY_NAMES:
        assert closed_piv_solution(name, 1.3, ODD).g is closed_piv_solution(name, 1.3, ODD).g
    for eps, parity in ((0.7, ODD), (-0.7, EVEN)):
        clear_package_caches()
        bt_piv_chain(SeedSpec(eps, parity))
        warm = bt_piv_chain(SeedSpec(eps, parity))  # every closed-form node holds the grid
        clear_package_caches()
        cold = bt_piv_chain(SeedSpec(eps, parity))
        assert [_bt_fields(link) for link in warm] == [_bt_fields(link) for link in cold]
