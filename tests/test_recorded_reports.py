"""Reports of the seed path, held to the bits recorded before its Kummer rows were reshaped.

Every family member starts from seed jets whose Kummer rows 1F1(p; q; x^2)
and 1F1(p+1; q+1; x^2) are summed on the grid.  These recordings pin what
reaches the verifier through that path: the relative
residuals that math.fsum gives from each state's order-2 grid jet (a digest
of their float.hex strings, nan at skipped points) and their largest by
hex.  The report itself sums each point's terms left to right, so its
residuals are held within the gamma_5 bound of those, and its n_valid,
skipped and passed to the recording.  A seed jet on a grid with masked
points (x beyond 6) pins the path that scatters rows into a nan-filled
block.  Catalog rows and chains are pinned in test_backlund.py.
"""

import hashlib
import math

import numpy as np
import pytest

from package_caches import clear_package_caches
from residual_reference import grid_jet_terms, residuals, sum_error_bound
from susypainleve.config import default_x_grid, default_z_grid, linear_grid
from susypainleve.jets import Jet, jet_var
from susypainleve.oscillator import Parity, SeedSpec, seed_u_jet
from susypainleve.painleve import extremal_piv_solution, family_solution
from susypainleve.residual import verify_on_grid

ODD, EVEN = Parity.ODD, Parity.EVEN
X_DENSE = linear_grid(0.2, 4.0, 400)
Z_DENSE = linear_grid(0.1, 8.0, 400)


def digest(values) -> str:
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()[:16]


# (name, parity): (fsum residuals digest, their largest, n_valid, skipped, passed) at
# eps = 1.3; H2:k is the extremal H2 PIV member of slot k on the default x grid.
# g1 and w1c were re-recorded when the closed forms came to read alpha from
# its Riccati equation, pv1c (now w1c), pv2b, pv2f and H2:k (now G(k+1)) when
# the PV letters and extremal slots came to read it too.
RECORDED_REPORTS = {
    ("pv2b", ODD): ("3ef0587d20716153", "0x1.478bfb2cf2293p-35", 40, 0, True),
    ("pv2b", EVEN): ("1127c3896f7eb37d", "0x1.ffd238881c1c4p-42", 40, 0, True),
    ("pv2f", ODD): ("a496adfcd147f857", "0x1.a2ad78e36214dp-32", 40, 0, True),
    ("pv2f", EVEN): ("128f398dfdf5ec92", "0x1.9a85bc9510f08p-39", 40, 0, True),
    ("pv1c", ODD): ("ae717104fa64a960", "0x1.104ed0dfb6799p-41", 40, 0, True),
    ("pv1c", EVEN): ("000ca18a2e41b121", "0x1.389e47f8ad144p-47", 40, 0, True),
    ("H2:0", ODD): ("128933e002667131", "0x1.cbbd5156ae172p-49", 40, 0, True),
    ("H2:0", EVEN): ("2f6c8b231ef8ec2f", "0x1.0b30769c52771p-48", 40, 0, True),
    ("H2:1", ODD): ("70903bffac95444d", "0x1.a8b391a605b4dp-49", 40, 0, True),
    ("H2:1", EVEN): ("36a299dade65d141", "0x1.85f7cf2baa50ap-39", 40, 0, True),
    ("H2:2", ODD): ("4038b465d0868cb6", "0x1.198eb654f83b1p-47", 40, 0, True),
    ("H2:2", EVEN): ("670432af338019e1", "0x1.1652189de3431p-43", 40, 0, True),
    ("g1", ODD): ("934618dbc7c95c5c", "0x1.70f1d1fe73195p-51", 400, 0, True),
    ("g1", EVEN): ("067b517c46b54f37", "0x1.befd0b681b710p-51", 400, 0, True),
    ("w1c", ODD): ("857455e0f9438d3b", "0x1.104ed0dfb6799p-41", 400, 0, True),
    ("w1c", EVEN): ("2a48bb86c5f3c58f", "0x1.fbf06d0501275p-47", 400, 0, True),
}


def _case(name, parity):
    """(kind, solution, grid) of one recording, at eps = 1.3."""
    eps = 1.3
    if name.startswith("H2:"):
        return "piv", extremal_piv_solution("H2", int(name[3:]), eps, parity), default_x_grid()
    sol = family_solution(name, eps, parity)
    if name == "g1":
        return "piv", sol, X_DENSE
    if name == "w1c":
        return "pv", sol, Z_DENSE
    return "pv", sol, default_z_grid()


@pytest.mark.parametrize("name, parity", list(RECORDED_REPORTS))
def test_report_matches_its_recording(name, parity):
    clear_package_caches()
    kind, sol, grid = _case(name, parity)
    per_point = grid_jet_terms(kind, sol, grid)
    want = residuals(per_point, math.fsum)
    recorded, recorded_max, n_valid, skipped, passed = RECORDED_REPORTS[name, parity]
    assert digest(want) == recorded
    assert max(r for r in want if not math.isnan(r)).hex() == recorded_max

    report = verify_on_grid(kind, sol, grid=grid)
    assert (report.n_valid, report.skipped, report.passed) == (n_valid, skipped, passed)
    for terms, got, ref in zip(per_point, report.rel_residuals, want):
        if terms is None:
            assert math.isnan(got)
        else:
            assert abs(got - ref) <= sum_error_bound(terms, ref), terms


# x from 0.5 to 7 in 27 points; the points beyond x = 6 are masked, as a seed masks them
MASKED_GRID = np.array(linear_grid(0.5, 7.0, 27))
MASK = MASKED_GRID > 6.0

# per seed, the digest of its value and derivative rows at the unmasked points, as
# recorded when each seed jet was the product of Gaussian and contiguity jets;
# the rows above order 1 come from the seed's ODE and are not pinned
RECORDED_MASKED_SEEDS = [
    (SeedSpec(0.9, ODD), ("d524badb79fc262a", "84a6f39d8448973f")),  # the rows p = 0.3, 1.3
    (SeedSpec(-0.7, ODD), ("9a3292fde81186b8", "6e0de33384d9f709")),
    (SeedSpec(1.3, EVEN), ("bdf02946f61a2b7a", "b7f9b8b3ff21730d")),
    (SeedSpec(4.5, EVEN), ("d14d8cf37c582376", "e28cebe81693874f")),  # terminating, p = -2
    (SeedSpec(0.5, EVEN), ("46e47275e2c3c8bb", "c50012b3fce0cda2")),  # chi0: p = 0, one row
]


def test_seed_jets_on_a_masked_grid_match_their_recording():
    clear_package_caches()
    keep = ~MASK
    for order in (1, 3, 7):
        for spec, rows in RECORDED_MASKED_SEEDS:
            jet = seed_u_jet(spec, Jet(jet_var(MASKED_GRID, order).d, MASK))
            assert jet.mask.tolist() == MASK.tolist()
            assert tuple(digest(row[keep]) for row in jet.d[:2]) == rows, spec
