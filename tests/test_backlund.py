import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from susypainleve.backlund import (
    CATALOG,
    CatalogRow,
    MapError,
    PIVMap,
    PIVMapKind,
    PVMap,
    RootBranch,
    Window,
    _piv_map_state,
    _signed_root,
    bt_piv_apply,
    bt_piv_chain,
    bt_pv_apply,
    bt_pv_catalog,
    check_catalog_row,
    piv_map_params,
    pv_map_params,
)
from susypainleve.config import default_x_grid, default_z_grid, linear_grid
from susypainleve.jets import on_grid
from susypainleve.oscillator import Parity, SeedSpec
from susypainleve.painleve import (
    closed_piv_solution,
    closed_pv_solution,
    derived_pv_solution,
    extremal_piv_solution,
)
from susypainleve.residual import SingularSystemError, pointwise_deviation

X_GRID = default_x_grid()
Z_GRID = default_z_grid()


def test_wdagger_fixed_point_example():
    # (a, b) = (-1/2, -9/2): the eps = 1 g1 parameters are a fixed point
    m = PIVMap(PIVMapKind.WDAGGER_PLUS)
    assert piv_map_params(m, -0.5, -4.5) == pytest.approx((-0.5, -4.5))


def test_map_composition_reproduces_family_parameters():
    # Wddag+ o Wdagger+ on (a1, b1) gives (a2, b2); Wddag- on (a2, b2) gives
    # (a3, b3); principal branches, eps > 1/2
    for eps in (1.0, 2.5, 3.5, 0.9):
        a1, b1 = -eps + 0.5, -2.0 * (eps + 0.5) ** 2
        mid = piv_map_params(PIVMap(PIVMapKind.WDAGGER_PLUS), a1, b1)
        a2, b2 = piv_map_params(PIVMap(PIVMapKind.WDDAG_PLUS), *mid)
        assert (a2, b2) == pytest.approx((-eps - 2.5, -2.0 * (eps - 0.5) ** 2))
        a3, b3 = piv_map_params(PIVMap(PIVMapKind.WDDAG_MINUS), a2, b2)
        assert (a3, b3) == pytest.approx((2.0 * eps - 1.0, -2.0))
    assert piv_map_params(PIVMap(PIVMapKind.WDDAG_PLUS), *piv_map_params(
        PIVMap(PIVMapKind.WDAGGER_PLUS), -0.5, -4.5)) == pytest.approx((-3.5, -0.5))


def test_wtilde_parameter_image_is_the_g1_family_value():
    # the standard a' = (2 - 2a + 3s)/4 on g3's (a3, b3) = (2 eps - 1, -2)
    # gives (10 - 4 eps)/4, G1's family value; the earlier transcription
    # (1 for 2) gave (9 - 4 eps)/4, a quarter below it
    for eps in (2.5, 3.5):
        g3 = closed_piv_solution("g3", eps, Parity.ODD)
        G1 = closed_piv_solution("G1", eps, Parity.ODD)
        assert (g3.a, g3.b) == pytest.approx((2 * eps - 1, -2.0))
        a_map, b_map = piv_map_params(PIVMap(PIVMapKind.WTILDE_PLUS), g3.a, g3.b)
        assert a_map == pytest.approx((10 - 4 * eps) / 4)
        assert (a_map, b_map) == pytest.approx((G1.a, G1.b), abs=1e-12)


def test_map_requires_nonpositive_b():
    with pytest.raises(MapError):
        piv_map_params(PIVMap(PIVMapKind.WTILDE_PLUS), 0.0, 1.0)


def test_wddag_minus_maps_g2_to_g3():
    g2 = closed_piv_solution("g2", 2.5, Parity.ODD)
    g3 = closed_piv_solution("g3", 2.5, Parity.ODD)
    # 1e-7: one grid point sits near a pole of the map denominator, where the
    # transformed jet loses a digit to cancellation
    res = bt_piv_apply(PIVMap(PIVMapKind.WDDAG_MINUS), g2, tol=1e-7)
    assert res.passed
    dev, n, _ = pointwise_deviation(res.transformed.g, g3.g, X_GRID)
    assert dev <= 1e-9 and n >= 20
    assert res.predicted == pytest.approx((g3.a, g3.b))
    assert res.inferred == pytest.approx((g3.a, g3.b), abs=1e-7)


def test_chain_passes_for_odd_seeds():
    for eps in (2.5, 3.5):
        links = bt_piv_chain(SeedSpec(eps, Parity.ODD))
        assert len(links) == 5
        assert all(l.passed for l in links), [(l.source, l.max_deviation) for l in links]
        assert [l.source for l in links] == ["g1", "g2", "g3", "G1", "G3", ][:5]
        # the first link is one map: it records one root branch
        assert len(links[0].branches) == 1
        # the Wtilde+ link's predicted, family and inferred a agree
        wtilde = links[2]
        assert wtilde.predicted[0] == pytest.approx(wtilde.target_params[0], abs=1e-12)
        assert wtilde.inferred[0] == pytest.approx(wtilde.target_params[0], abs=1e-6)
        assert wtilde.notes == ()


def test_chain_parameter_images_equal_the_target_families():
    # every link is one map on its source's own (a, b): wherever a link is
    # built, its parameter image is the target family's (a, b)
    checked = 0
    for eps in (round(-2.5 + 0.1 * i, 10) for i in range(71)):  # -2.5, -2.4, ..., 4.5
        for parity in Parity:
            for link in bt_piv_chain(SeedSpec(eps, parity)):
                if link.degenerate:
                    continue
                assert link.predicted == pytest.approx(link.target_params, abs=1e-12, rel=0), (
                    eps, parity, link.source, link.predicted, link.target_params)
                assert not any(word in note for note in link.notes
                               for word in ("discrepancy", "winner", "composite"))
                checked += 1
    assert checked == 698


@pytest.mark.parametrize("eps", [-0.5 - 1e-9, -0.5 + 1e-9])
def test_chain_link_takes_the_branch_whose_image_is_the_target_family(eps):
    # g2 -> g3 mismatches pointwise here on either branch; only the negative
    # branch's image is g3's (a, b): the principal one has a = 1, g3 has -2
    link = bt_piv_chain(SeedSpec(eps, Parity.EVEN))[1]
    assert (link.source, link.target, link.branches) == ("g2", "g3", ("negative",))
    assert not link.passed and not link.degenerate
    assert link.predicted == pytest.approx(link.target_params, abs=1e-12, rel=0)


def test_chain_link_takes_the_principal_branch_where_both_images_coincide():
    # g1 has b = 0 at eps = -1/2, odd: s = 0, so both branches give one image
    g1 = closed_piv_solution("g1", -0.5, Parity.ODD)
    assert _signed_root(PIVMap(PIVMapKind.WDDAG_PLUS), g1.b) == 0.0
    link = bt_piv_chain(SeedSpec(-0.5, Parity.ODD))[0]
    assert (link.source, link.branches, link.passed) == ("g1", ("principal",), True)


@pytest.mark.parametrize("parity", list(Parity))
@pytest.mark.parametrize("eps", [-1.3, 0.7, 2.5])
def test_wddag_plus_on_the_negative_branch_is_wddag_minus(eps, parity):
    g2 = closed_piv_solution("g2", eps, parity)
    plus = PIVMap(PIVMapKind.WDDAG_PLUS, RootBranch.NEGATIVE)
    minus = PIVMap(PIVMapKind.WDDAG_MINUS, RootBranch.PRINCIPAL)
    assert _signed_root(plus, g2.b) == _signed_root(minus, g2.b)
    assert piv_map_params(plus, g2.a, g2.b) == piv_map_params(minus, g2.a, g2.b)
    jets = [on_grid(_piv_map_state(m, g2), X_GRID, 2) for m in (plus, minus)]
    assert jets[0].block.tobytes() == jets[1].block.tobytes()
    assert np.array_equal(jets[0].mask, jets[1].mask)


def test_catalog_refuses_a_non_finite_epsilon():
    # every Window comparison with nan is false, which would mark all rows applicable
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            bt_pv_catalog(eps)


def test_chain_degenerates_for_even_half():
    links = bt_piv_chain(SeedSpec(0.5, Parity.EVEN))
    assert all(l.degenerate for l in links)
    assert not any(l.passed for l in links)


def test_corrupted_link_negative_control():
    # applying Wddag+ where Wddag- belongs must visibly mismatch
    g2 = closed_piv_solution("g2", 2.5, Parity.ODD)
    g3 = closed_piv_solution("g3", 2.5, Parity.ODD)
    res = bt_piv_apply(PIVMap(PIVMapKind.WDDAG_PLUS), g2, tol=1e-8)
    dev, _, _ = pointwise_deviation(res.transformed.g, g3.g, X_GRID)
    assert dev >= 1e-2


def test_pv_map_params_d_invariant():
    m = PVMap(-1, -1, 1)
    out = pv_map_params(m, 0.28125, -0.28125, -0.75, -0.125)
    assert out[3] == -0.125
    with pytest.raises(ValueError):
        PVMap(0, 1, 1)
    with pytest.raises(MapError):
        pv_map_params(PVMap(1, 1, 1), -1.0, -1.0, 0.0, -0.125)
    with pytest.raises(MapError, match="-2b = -2.0"):
        pv_map_params(PVMap(1, 1, 1), 0.5, 1.0, 0.0, -0.125)
    with pytest.raises(MapError, match="-2d = -0.25"):
        pv_map_params(PVMap(1, 1, 1), 0.5, -1.0, 0.0, 0.125)
    # d stays -1/8 across arbitrary compositions of the parameter map
    import itertools
    import random as _random

    rng = _random.Random(13)
    params = (0.28125, -0.28125, -0.75, -0.125)
    triples = list(itertools.product((-1, 1), repeat=3))
    for _ in range(25):
        m = PVMap(*rng.choice(triples))
        try:
            params = pv_map_params(m, *params)
        except MapError:
            params = (abs(params[0]), -abs(params[1]), params[2], params[3])
            continue
        assert params[3] == -0.125


def test_pv_map_parameter_images_match_targets():
    # w1b -> w2a via (-1,-1,1) inside (-3/2, 3/2)
    for eps in (0.0, 0.6, -0.7):
        src = closed_pv_solution("b", eps, Parity.ODD)
        out = pv_map_params(PVMap(-1, -1, 1), src.a, src.b, src.c, src.d)
        tgt = (0.125, -2.0, -eps / 2.0, -0.125)
        assert out == pytest.approx(tgt)
    # w1f -> w2d via (-1,-1,1) for all eps
    for eps in (-2.0, 0.3, 4.0):
        src = closed_pv_solution("f", eps, Parity.ODD)
        out = pv_map_params(PVMap(-1, -1, 1), src.a, src.b, src.c, src.d)
        tgt = ((eps + 1.5) ** 2 / 8, -((eps - 3.5) ** 2) / 8, 0.25, -0.125)
        assert out == pytest.approx(tgt)


def test_bt_pv_apply_function_level():
    # w1b at eps=0 maps onto the second-order family member (a); 1e-7 verify
    # tolerance: the transformed jets shed a digit at the smallest z
    src = closed_pv_solution("b", 0.0, Parity.ODD)
    res = bt_pv_apply(PVMap(-1, -1, 1), src, tol=1e-7)
    assert res.passed
    tgt = derived_pv_solution("H2", "a", 0.0, Parity.ODD)
    dev, n, _ = pointwise_deviation(res.transformed.w, tgt.w, Z_GRID)
    assert dev <= 1e-8 and n >= 20
    assert res.inferred == pytest.approx((tgt.a, tgt.b, tgt.c), abs=1e-8)
    assert res.predicted[3] == tgt.d

    # w1f at eps=1 maps onto member (d)
    src = closed_pv_solution("f", 1.0, Parity.EVEN)
    res = bt_pv_apply(PVMap(-1, -1, 1), src)
    tgt = derived_pv_solution("H2", "d", 1.0, Parity.EVEN)
    dev, _, _ = pointwise_deviation(res.transformed.w, tgt.w, Z_GRID)
    assert dev <= 1e-8


def test_window_semantics():
    w = Window(lo=-0.5, lo_closed=True, hi=2.5)
    assert w.contains(-0.5) and w.contains(0.0) and not w.contains(2.5)
    assert w.at_boundary(-0.5) and not w.at_boundary(1.0)
    assert Window().contains(1e6)
    assert Window(hi=-1.5).describe() == "eps < -1.5"


def test_catalog_at_reference_sample_points():
    # eps = 0: exactly these rows' windows contain zero
    entries = {(e.row.source, e.row.target, e.row.k): e for e in bt_pv_catalog(0.0)}
    applicable = {key for key, e in entries.items() if e.applicable}
    assert applicable == {
        ("w1b", "w2a", (-1, -1, 1)),
        ("w1b", "w2e", (-1, 1, 1)),
        ("w1c", "w2d", (-1, 1, 1)),
        ("w1f", "w2d", (-1, -1, 1)),
        ("w1f", "w2e", (-1, 1, 1)),
        ("w2d", "w1f", (1, 1, -1)),
        ("w2e", "w1b", (-1, 1, -1)),
        ("w2e", "w1f", (1, 1, -1)),
    }
    # eps = 4: w2d -> w1c via (-1,-1,-1) opens up (7/2 < eps)
    entries = {(e.row.source, e.row.target, e.row.k): e for e in bt_pv_catalog(4.0)}
    assert entries[("w2d", "w1c", (-1, -1, -1))].applicable
    assert entries[("w1b", "w2a", (-1, -1, 1))].applicable is False
    # eps = -2: w1f -> w2d applicable for all eps
    entries = {(e.row.source, e.row.target, e.row.k): e for e in bt_pv_catalog(-2.0)}
    assert entries[("w1f", "w2d", (-1, -1, 1))].applicable
    assert entries[("w1c", "w2a", (1, -1, 1))].applicable is False
    # boundary flag: eps = 1/2 sits on the closed end of one w1c->w2d window
    entries = {(e.row.source, e.row.target, e.row.k): e for e in bt_pv_catalog(0.5)}
    e = entries[("w1c", "w2d", (-1, 1, 1))]
    assert e.applicable and e.boundary


def test_catalog_has_every_mapping():
    pairs = {(r.source, r.target) for r in CATALOG}
    assert pairs == {
        ("w1b", "w2a"), ("w1b", "w2e"), ("w1c", "w2a"), ("w1c", "w2d"),
        ("w1f", "w2d"), ("w1f", "w2e"), ("w2d", "w1c"), ("w2d", "w1f"),
        ("w2e", "w1b"), ("w2e", "w1f"),
    }
    assert len(CATALOG) == 20


def test_check_catalog_row_end_to_end():
    row = CatalogRow("w2e", "w1b", (-1, 1, -1), Window(lo=-0.5, lo_closed=True, hi=2.5))
    res = check_catalog_row(row, 0.7, Parity.EVEN)
    assert res.passed and res.max_deviation <= 1e-7


def test_catalog_certificate_rejects_wrong_parameters():
    # corrupting one source parameter must fail the row loudly: the map's
    # image lands on a different parameter tuple and a different function
    import math

    from susypainleve.painleve import PVSolution
    from susypainleve.residual import verify_on_grid

    src = closed_pv_solution("f", 1.0, Parity.EVEN)
    tgt = derived_pv_solution("H2", "d", 1.0, Parity.EVEN)
    res = bt_pv_apply(PVMap(-1, -1, 1), src)
    corrupted = PVSolution(res.transformed.w, tgt.a + 0.05, tgt.b, tgt.c, tgt.d, "corrupt")
    rep = verify_on_grid("pv", corrupted, tol=1e-6)
    valid = sorted(r for r in rep.rel_residuals if not math.isnan(r))
    p90 = valid[(9 * len(valid)) // 10]
    assert p90 >= 1e-4  # orders above the certificate threshold


def test_check_catalog_row_evaluates_the_image_three_times(monkeypatch):
    # inference, the pointwise match and the target-parameter certificate each
    # evaluate the transformed state once on the grid; nothing else does
    import numpy as np

    from susypainleve import backlund

    grid_calls = []
    make_state = backlund._pv_map_state

    def counting(map_, sol):
        state = make_state(map_, sol)

        def counted(z, order):
            if isinstance(z, np.ndarray):
                grid_calls.append(order)
            return state(z, order)

        return counted

    monkeypatch.setattr(backlund, "_pv_map_state", counting)
    row = next(r for r in CATALOG if (r.source, r.target, r.k) == ("w1c", "w2a", (1, -1, 1)))
    res = check_catalog_row(row, 1.0, Parity.ODD)
    assert res.passed and not res.degenerate
    assert 0 < len(grid_calls) <= 3


def test_check_catalog_row_runs_the_image_body_once(monkeypatch):
    # the image is a node: inference asks it at order 2 first, so the
    # pointwise match (order 0) and the certificate (order 2) are served
    # from its held jet and its body runs once on the grid
    import numpy as np

    from susypainleve import backlund

    body_runs = []
    memo = backlund.grid_memo

    def counting_memo(body, *deps):
        def counted(z, order):
            if isinstance(z, np.ndarray):
                body_runs.append(order)
            return body(z, order)

        return memo(counted, *deps)

    monkeypatch.setattr(backlund, "grid_memo", counting_memo)
    row = next(r for r in CATALOG if (r.source, r.target, r.k) == ("w1c", "w2a", (1, -1, 1)))
    res = check_catalog_row(row, 1.0, Parity.ODD)
    assert res.passed and not res.degenerate
    assert body_runs == [2]


def test_bt_pv_apply_verifies_with_inferred_parameters(monkeypatch):
    from susypainleve import backlund
    from susypainleve.painleve import PVSolution

    # the map built from the roots of a wrong parameter tuple: its image
    # solves no PV equation, so the fitted tuple cannot rescue it
    src = closed_pv_solution("f", 1.0, Parity.EVEN)
    wrong = PVSolution(src.w, src.a, src.b - 0.1, src.c, src.d, "wrong roots")
    res = bt_pv_apply(PVMap(-1, -1, 1), wrong)
    assert res.inferred is not None
    assert not res.passed and not res.degenerate

    # a garbage parameter prediction does not matter: the check uses the fit
    garbage = (9.0, -9.0, 9.0, -0.125)
    monkeypatch.setattr(backlund, "pv_map_params", lambda *args: garbage)
    res = bt_pv_apply(PVMap(-1, -1, 1), src)
    tgt = derived_pv_solution("H2", "d", 1.0, Parity.EVEN)
    assert res.predicted == garbage
    assert res.passed and res.inferred == pytest.approx((tgt.a, tgt.b, tgt.c), abs=1e-8)


# Seed points past X_MAX = 6 (z past Z_MAX = 72) are masked.  On a grid with
# none left the fit degenerates; with 12 (x) or 9 (z) left it succeeds, but
# verification and comparison need MIN_VALID_POINTS = 20.
PAST_X_MAX, PARTLY_PAST_X_MAX = linear_grid(6.5, 9.0, 30), linear_grid(4.0, 9.0, 30)
PAST_Z_MAX, PARTLY_PAST_Z_MAX = linear_grid(73.0, 90.0, 30), linear_grid(60.0, 100.0, 30)


def test_bt_piv_apply_degenerates_on_grids_past_x_max():
    # the extremal state and the closed forms g1-g3 mask those points alike
    for sol in (extremal_piv_solution("H1", 0, 2.5, Parity.ODD),
                *(closed_piv_solution(name, 2.5, Parity.ODD) for name in ("g1", "g2", "g3"))):
        res = bt_piv_apply(PIVMap(PIVMapKind.WDDAG_MINUS), sol, grid=PAST_X_MAX)
        assert res.degenerate and not res.passed and res.inferred is None, sol.provenance
        res = bt_piv_apply(PIVMap(PIVMapKind.WDDAG_MINUS), sol, grid=PARTLY_PAST_X_MAX)
        assert res.degenerate and not res.passed, sol.provenance
        assert res.inferred == pytest.approx(res.predicted, abs=1e-9), sol.provenance


def test_bt_pv_apply_degenerates_on_grids_past_z_max():
    src = closed_pv_solution("f", 1.0, Parity.EVEN)
    tgt = derived_pv_solution("H2", "d", 1.0, Parity.EVEN)
    res = bt_pv_apply(PVMap(-1, -1, 1), src, grid=PAST_Z_MAX)
    assert res.degenerate and not res.passed and res.inferred is None
    res = bt_pv_apply(PVMap(-1, -1, 1), src, grid=PARTLY_PAST_Z_MAX)
    assert res.degenerate and not res.passed
    assert res.inferred == pytest.approx((tgt.a, tgt.b, tgt.c), abs=1e-6)


@pytest.mark.parametrize("grid", [PAST_Z_MAX, PARTLY_PAST_Z_MAX])
def test_catalog_row_degenerates_with_too_few_comparable_points(grid):
    row = CatalogRow("w1f", "w2d", (-1, -1, 1), Window())
    res = check_catalog_row(row, 1.0, Parity.EVEN, grid=grid)
    assert res.degenerate and not res.passed
    assert res.max_deviation is None and res.notes == ()


def test_chain_links_degenerate_on_a_grid_too_short_to_compare():
    # 10 points: every link's image has fewer comparable points than
    # MIN_VALID_POINTS, so no link is judged, and the note says why
    links = bt_piv_chain(SeedSpec(2.5, Parity.ODD), grid=linear_grid(0.2, 4.0, 10))
    assert len(links) == 5
    for link in links:
        assert link.degenerate and not link.passed
        assert link.notes == ("only 10 comparable points (need 20)",)


def test_chain_notes_a_degenerate_parameter_inference(monkeypatch):
    # no real chain input leaves the match comparable but the fit singular
    from susypainleve import backlund

    def singular(*args, **kwargs):
        raise SingularSystemError("PIV inference system condition number inf")

    monkeypatch.setattr(backlund, "infer_piv_params", singular)
    links = bt_piv_chain(SeedSpec(2.5, Parity.ODD))
    assert len(links) == 5
    for link in links:
        assert link.passed and not link.degenerate and link.inferred is None
        assert link.notes == ("parameter inference degenerate",)


ODD, EVEN = Parity.ODD, Parity.EVEN

# Chains as recorded once the closed forms read alpha from its Riccati
# equation (every link one map, Wtilde+ with the standard a'): per link (source, target, branches, passed, degenerate,
# max_deviation as hex, inferred (a, b) as hex, notes).  0.5 even refuses g3
# at build, 3.571 even fails one link, and -0.7 even and -1.3 odd need
# negative root branches.
RECORDED_CHAINS = {
    (0.7, ODD): [
        ("g1", "g2", ("principal",), True, False, "0x1.7b50974016cd8p-48",
         ("-0x1.999999999998bp+1", "-0x1.47ae147ae1428p-4"), ()),
        ("g2", "g3", ("principal",), True, False, "0x1.7e80000000000p-42",
         ("0x1.9999999029114p-2", "-0x1.ffffffff02a4cp+0"), ()),
        ("g3", "G1", ("principal",), True, False, "0x1.9000000000000p-50",
         ("0x1.ccccccccccaabp+0", "-0x1.70a3d70a3d7b9p+1"), ()),
        ("G1", "G3", ("principal",), True, False, "0x1.1000000000000p-48",
         ("-0x1.33333333341bcp-1", "-0x1.0000000000237p+3"), ()),
        ("G3", "G2", ("principal",), True, False, "0x1.101a4bbce84aap-45",
         ("-0x1.0cccccccccc2bp+2", "-0x1.47ae147ae13ebp+0"), ()),
    ],
    (-0.7, EVEN): [
        ("g1", "g2", ("negative",), True, False, "0x1.9f32084683957p-44",
         ("-0x1.cccccccccc510p+0", "-0x1.70a3d70a3d07ap+1"), ()),
        ("g2", "g3", ("negative",), True, False, "0x1.67e6d16c43b14p-27",
         ("-0x1.332385f6fcbdcp+1", "-0x1.fff3697f221f3p+0"), ()),
        ("g3", "G1", ("principal",), True, False, "0x1.8600000000000p-49",
         ("0x1.999999999997dp+1", "-0x1.47ae147ae14b0p-4"), ()),
        ("G1", "G3", ("negative",), True, False, "0x1.ff82b14dc4f77p-44",
         ("-0x1.b3333333a9236p+1", "-0x1.00000000354e2p+3"), ()),
        ("G3", "G2", ("principal",), True, False, "0x1.e717c80000000p-32",
         ("-0x1.666664440c089p+1", "-0x1.35c288f5bf8abp+3"), ()),
    ],
    (0.5, EVEN): [
        ("g1", "g2", ("principal",), False, True, None, None,
         ("identically small on the grid",)),
        ("g2", "g3", ("principal",), False, True, None, None,
         ("degenerate closed form: g3 is 0/0 for the even eps = 1/2 seed",)),
        ("g3", "G1", ("principal",), False, True, None, None,
         ("degenerate closed form: g3 is 0/0 for the even eps = 1/2 seed",)),
        ("G1", "G3", ("principal",), False, True, None, None,
         ("identically small on the grid",)),
        ("G3", "G2", ("principal",), False, True, None, None,
         ("identically small on the grid",)),
    ],
    (3.571, EVEN): [
        ("g1", "g2", ("principal",), True, False, "0x1.2f0911c206de2p-49",
         ("-0x1.848b43955ae33p+2", "-0x1.2dcb167eabab0p+4"), ()),
        ("g2", "g3", ("principal",), True, False, "0x1.ca80000000000p-43",
         ("0x1.89168727dfba3p+2", "-0x1.00000001c92d3p+1"), ()),
        ("g3", "G1", ("principal",), True, False, "0x1.b800000000000p-49",
         ("-0x1.122d0e5d3025ap+0", "-0x1.092b2d0ce7ccdp+5"), ()),
        ("G1", "G3", ("principal",), False, False, "0x1.3c46076748000p-15",
         ("0x1.49165c595b4a8p+2", "-0x1.000251cdcdb2ap+3"),
         ("mismatch above 1e-07 at 1 of 40 points",)),
        ("G3", "G2", ("principal",), True, False, "0x1.9400000000000p-43",
         ("-0x1.c48a918826f0ep+2", "-0x1.127e65854c7f3p+3"), ()),
    ],
    (-1.3, ODD): [
        ("g1", "g2", ("negative",), True, False, "0x1.358f8d3b158a0p-46",
         ("-0x1.3333333333383p+0", "-0x1.9eb851eb85233p+2"), ()),
        ("g2", "g3", ("negative",), True, False, "0x1.0029800000000p-38",
         ("-0x1.cccccccccb999p+1", "-0x1.ffffffffff388p+0"), ()),
        ("g3", "G1", ("principal",), True, False, "0x1.0e00000000000p-48",
         ("0x1.e6666666666a5p+1", "-0x1.47ae147ae145dp+0"), ()),
        ("G1", "G3", ("negative",), True, False, "0x1.5600000000000p-47",
         ("-0x1.26666666665c0p+2", "-0x1.fffffffffff99p+2"), ()),
        ("G3", "G2", ("principal",), True, False, "0x1.cd0388db5d282p-43",
         ("-0x1.19999999999e2p+1", "-0x1.f5c28f5c28fc9p+3"), ()),
    ],
}


@pytest.mark.parametrize("eps, parity", list(RECORDED_CHAINS))
def test_chain_matches_its_recording(eps, parity):
    def hexed(value):
        return None if value is None else tuple(v.hex() for v in value)

    links = bt_piv_chain(SeedSpec(eps, parity))
    got = [
        (l.source, l.target, l.branches, l.passed, l.degenerate,
         None if l.max_deviation is None else l.max_deviation.hex(), hexed(l.inferred),
         tuple(l.notes))
        for l in links
    ]
    assert got == RECORDED_CHAINS[eps, parity]
    with pytest.raises(FrozenInstanceError):
        links[0].passed = not links[0].passed


# Catalog rows as recorded once the w1 forms, and then the w2 letters, read
# alpha from its Riccati equation: per row and parity (passed, degenerate,
# n_valid, max_deviation, predicted, inferred and target parameters, tol and
# certificate_tol, floats as hex, then branches and notes).  One row per target family; w1c -> w2d is checked
# outside its window, and w1f -> w2d has the open window.
RECORDED_ROWS = {
    ("w1b", "w2a", (-1, -1, 1), 0.7, ODD): (
        True, False, 40, "0x1.d9a9889a22c1dp-40",
        ("0x1.0000000000000p-3", "-0x1.0000000000000p+1", "-0x1.6666666666667p-2",
         "-0x1.0000000000000p-3"),
        ("0x1.fffffffffe0a6p-4", "-0x1.000000000a61fp+1", "-0x1.6666666662cf2p-2"),
        ("0x1.0000000000000p-3", "-0x1.0000000000000p+1", "-0x1.6666666666668p-2",
         "-0x1.0000000000000p-3"),
        "0x1.ad7f29abcaf48p-24", "0x1.0c6f7a0b5ed8dp-20", ("principal",), ()),
    ("w1b", "w2a", (-1, -1, 1), 0.7, EVEN): (
        True, False, 40, "0x1.6400000000000p-46",
        ("0x1.0000000000000p-3", "-0x1.0000000000000p+1", "-0x1.6666666666667p-2",
         "-0x1.0000000000000p-3"),
        ("0x1.0000000006fcap-3", "-0x1.0000000005650p+1", "-0x1.666666665ed1ap-2"),
        ("0x1.0000000000000p-3", "-0x1.0000000000000p+1", "-0x1.6666666666668p-2",
         "-0x1.0000000000000p-3"),
        "0x1.ad7f29abcaf48p-24", "0x1.0c6f7a0b5ed8dp-20", ("principal",), ()),
    ("w1c", "w2d", (-1, 1, 1), 0.7, ODD): (
        False, False, 40, "0x1.3308e4e02fb8cp-3",
        ("0x1.0000000000000p-1", "-0x1.2000000000000p+0", "0x1.6666666666666p-2",
         "-0x1.0000000000000p-3"),
        ("0x1.000000000039bp-1", "-0x1.2000000000260p+0", "0x1.66666666662edp-2"),
        ("0x1.35c28f5c28f5dp-1", "-0x1.f5c28f5c28f5bp-1", "0x1.0000000000000p-2",
         "-0x1.0000000000000p-3"),
        "0x1.ad7f29abcaf48p-24", "0x1.0c6f7a0b5ed8dp-20", ("principal",),
        ("target-parameter residual profile fails: p90=1.53e+00",
         "mismatch above 1e-07 at 40 of 40 points")),
    ("w1c", "w2d", (-1, 1, 1), 0.7, EVEN): (
        False, False, 40, "0x1.338cc7347c7d3p-2",
        ("0x1.0000000000000p-1", "-0x1.2000000000000p+0", "0x1.6666666666666p-2",
         "-0x1.0000000000000p-3"),
        ("0x1.fffffffffc37fp-2", "-0x1.2000000001efep+0", "0x1.66666666788b3p-2"),
        ("0x1.35c28f5c28f5dp-1", "-0x1.f5c28f5c28f5bp-1", "0x1.0000000000000p-2",
         "-0x1.0000000000000p-3"),
        "0x1.ad7f29abcaf48p-24", "0x1.0c6f7a0b5ed8dp-20", ("principal",),
        ("target-parameter residual profile fails: p90=2.13e-01",
         "mismatch above 1e-07 at 40 of 40 points")),
    ("w1b", "w2e", (-1, 1, 1), -0.7, ODD): (
        True, False, 40, "0x1.bea3aa7ddf348p-44",
        ("0x1.47ae147ae1485p-8", "-0x1.47ae147ae147cp+0", "0x1.8000000000000p-1",
         "-0x1.0000000000000p-3"),
        ("0x1.47ae147ae1220p-8", "-0x1.47ae147ae1442p+0", "0x1.7fffffffffff7p-1"),
        ("0x1.47ae147ae1478p-8", "-0x1.47ae147ae147cp+0", "0x1.8000000000000p-1",
         "-0x1.0000000000000p-3"),
        "0x1.ad7f29abcaf48p-24", "0x1.0c6f7a0b5ed8dp-20", ("principal",), ()),
    ("w1b", "w2e", (-1, 1, 1), -0.7, EVEN): (
        True, False, 40, "0x1.fbbc319edb057p-39",
        ("0x1.47ae147ae1485p-8", "-0x1.47ae147ae147cp+0", "0x1.8000000000000p-1",
         "-0x1.0000000000000p-3"),
        ("0x1.47ae1477ff4bep-8", "-0x1.47ae148046f19p+0", "0x1.80000008f65d7p-1"),
        ("0x1.47ae147ae1478p-8", "-0x1.47ae147ae147cp+0", "0x1.8000000000000p-1",
         "-0x1.0000000000000p-3"),
        "0x1.ad7f29abcaf48p-24", "0x1.0c6f7a0b5ed8dp-20", ("principal",), ()),
    ("w1f", "w2d", (-1, -1, 1), 2.3, ODD): (
        True, False, 40, "0x1.e000000000000p-42",
        ("0x1.ce147ae147ae1p+0", "-0x1.70a3d70a3d70cp-3", "0x1.0000000000000p-2",
         "-0x1.0000000000000p-3"),
        ("0x1.ce147ae14566ep+0", "-0x1.70a3d70a3bfdcp-3", "0x1.00000000000c9p-2"),
        ("0x1.ce147ae147ae1p+0", "-0x1.70a3d70a3d70cp-3", "0x1.0000000000000p-2",
         "-0x1.0000000000000p-3"),
        "0x1.ad7f29abcaf48p-24", "0x1.0c6f7a0b5ed8dp-20", ("principal",), ()),
    ("w1f", "w2d", (-1, -1, 1), 2.3, EVEN): (
        True, False, 40, "0x1.6000000000000p-46",
        ("0x1.ce147ae147ae1p+0", "-0x1.70a3d70a3d70cp-3", "0x1.0000000000000p-2",
         "-0x1.0000000000000p-3"),
        ("0x1.ce147ae147d2cp+0", "-0x1.70a3d70a4247cp-3", "0x1.000000000082cp-2"),
        ("0x1.ce147ae147ae1p+0", "-0x1.70a3d70a3d70cp-3", "0x1.0000000000000p-2",
         "-0x1.0000000000000p-3"),
        "0x1.ad7f29abcaf48p-24", "0x1.0c6f7a0b5ed8dp-20", ("principal",), ()),
}


@pytest.mark.parametrize("source, target, k, eps, parity", list(RECORDED_ROWS))
def test_catalog_row_matches_its_recording(source, target, k, eps, parity):
    def hexed(value):
        return None if value is None else tuple(v.hex() for v in value)

    row = next(r for r in CATALOG if (r.source, r.target, r.k) == (source, target, k))
    res = check_catalog_row(row, eps, parity)
    got = (res.passed, res.degenerate, res.n_valid, res.max_deviation.hex(),
           hexed(res.predicted), hexed(res.inferred), hexed(res.target_params),
           res.tol.hex(), res.certificate_tol.hex(), res.branches, tuple(res.notes))
    assert (res.source, res.target) == (source, target)
    assert got == RECORDED_ROWS[source, target, k, eps, parity]


def test_chain_at_two_and_a_half_odd_passes_on_400_points():
    # the G3 -> G2 link failed at 1.1e-6 here when G3 cancelled the poles of
    # alpha and G1 numerically; on 4,000 points three links still fail (see ROADMAP)
    links = bt_piv_chain(SeedSpec(2.5, Parity.ODD), grid=linear_grid(0.2, 4.0, 400))
    assert len(links) == 5
    assert all(l.passed for l in links), [(l.source, l.target, l.max_deviation) for l in links]
