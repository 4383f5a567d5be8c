"""Why the chain's first link applies Wdagger+ by its parameters alone.

g1 = alpha - x with alpha' = x^2 - 2 eps - alpha^2 gives
g1' + 2x g1 + g1^2 = -(2 eps + 1) identically, so the Wdagger+ denominator
is s - (2 eps + 1): on one root branch every point is a pole, and on the
other the image is g1 - g1 = 0.  The literal composition Wddag+ Wdagger+
of g1 therefore never gives an image that the branch search could compare.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from susypainleve.backlund import (  # noqa: E402
    PIVMapKind,
    RootBranch,
    _compose_maps,
    _identically_small,
)
from susypainleve.config import MIN_VALID_POINTS, default_x_grid  # noqa: E402
from susypainleve.jets import on_grid  # noqa: E402
from susypainleve.oscillator import Parity  # noqa: E402
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
    for branches in BRANCHES:
        image = _compose_maps((PIVMapKind.WDAGGER_PLUS, PIVMapKind.WDDAG_PLUS), branches, g1)
        image_jet = on_grid(image.g, GRID, 0)
        if _identically_small(image_jet):
            continue
        comparable = np.count_nonzero(~(image_jet.mask | target_mask))
        assert comparable < MIN_VALID_POINTS, (branches, comparable)
