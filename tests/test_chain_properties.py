"""Why the chain's first link is the one map Wddag+, with no Wdagger+ step.

g1 = alpha - x with alpha' = x^2 - 2 eps - alpha^2 gives
g1' + 2x g1 + g1^2 = -(2 eps + 1) identically, so the Wdagger+ denominator
is s - (2 eps + 1): on one root branch every point is a pole, and on the
other the image is g1 - g1 = 0.  The literal composition Wddag+ Wdagger+
of g1 therefore never gives an image that the branch search could compare.
On the branch that matches, Wdagger+ maps g1's (a, b) to themselves
(`test_backlund.py::test_wdagger_fixed_point_example`), so Wddag+ on g1's
own (a, b) is the whole link.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from susypainleve.backlund import (  # noqa: E402
    PIVMap,
    PIVMapKind,
    RootBranch,
    _identically_small,
    _piv_image,
    _piv_map_state,
    bt_piv_chain,
    piv_map_params,
)
from susypainleve.config import MIN_VALID_POINTS, default_x_grid  # noqa: E402
from susypainleve.jets import on_grid  # noqa: E402
from susypainleve.oscillator import Parity, SeedSpec  # noqa: E402
from susypainleve.painleve import DegenerateClosedFormError, closed_piv_solution  # noqa: E402

GRID = default_x_grid()
BRANCHES = [(p, q) for p in RootBranch for q in RootBranch]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    eps=st.floats(min_value=-2.5, max_value=4.5, allow_nan=False),
    parity=st.sampled_from(list(Parity)),
)
@example(eps=0.7, parity=Parity.ODD)
@example(eps=-0.7, parity=Parity.EVEN)
@example(eps=-0.5, parity=Parity.ODD)
def test_literal_composition_on_g1_is_never_comparable(eps, parity):
    try:
        g1 = closed_piv_solution("g1", eps, parity)
        g2 = closed_piv_solution("g2", eps, parity)
    except DegenerateClosedFormError:
        return  # the chain refuses the link before any search
    target_mask = on_grid(g2.g, GRID, 0).mask
    for first, second in BRANCHES:
        mid = _piv_image(PIVMap(PIVMapKind.WDAGGER_PLUS, first), g1)
        image = _piv_map_state(PIVMap(PIVMapKind.WDDAG_PLUS, second), mid)
        image_jet = on_grid(image, GRID, 0)
        if _identically_small(image_jet):
            continue
        comparable = np.count_nonzero(~(image_jet.mask | target_mask))
        assert comparable < MIN_VALID_POINTS, (first, second, comparable)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    eps=st.floats(min_value=-2.5, max_value=4.5, allow_nan=False),
    parity=st.sampled_from(list(Parity)),
)
@example(eps=0.7, parity=Parity.ODD)
@example(eps=-0.7, parity=Parity.EVEN)
@example(eps=-1.3, parity=Parity.ODD)
def test_wdagger_fixes_g1_parameters_on_the_matching_branch(eps, parity):
    link = bt_piv_chain(SeedSpec(eps, parity))[0]
    if link.degenerate:
        return
    g1 = closed_piv_solution("g1", eps, parity)
    dagger = PIVMap(PIVMapKind.WDAGGER_PLUS, RootBranch(link.branches[0]))
    assert piv_map_params(dagger, g1.a, g1.b) == pytest.approx((g1.a, g1.b), abs=1e-12, rel=0)
