"""Reports of the seed path, held to the bits recorded before its Kummer rows were reshaped.

Every extremal-derived PV family and every closed form starts from seed jets
whose contiguity rows 1F1(p+m; q+m; x^2) are summed on the grid.  These
recordings pin what reaches the verifier through that path: the relative
residuals that math.fsum gives from each state's order-2 grid jet (a digest
of their float.hex strings, nan at skipped points) and their largest by
hex.  The report itself sums each point's terms left to right, so its
residuals are held within the gamma_5 bound of those, and its n_valid,
skipped and passed to the recording.  A Kummer jet on a grid with masked
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
from susypainleve.hyp1f1 import KummerParams, kummer_jet
from susypainleve.jets import Jet, jet_var
from susypainleve.oscillator import Parity
from susypainleve.painleve import extremal_piv_solution, family_solution
from susypainleve.residual import verify_on_grid

ODD, EVEN = Parity.ODD, Parity.EVEN
X_DENSE = linear_grid(0.2, 4.0, 400)
Z_DENSE = linear_grid(0.1, 8.0, 400)


def digest(values) -> str:
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()[:16]


# (name, parity): (fsum residuals digest, their largest, n_valid, skipped, passed) at
# eps = 1.3; H2:k is the extremal H2 PIV member of slot k on the default x grid
RECORDED_REPORTS = {
    ("pv2b", ODD): ("fb983228614f5aa6", "0x1.1ccfcc437f707p-31", 40, 0, True),
    ("pv2b", EVEN): ("ea9f764a941a9dd1", "0x1.0ee863f0a03e3p-34", 40, 0, True),
    ("pv2f", ODD): ("cfbd9a57282d5dfa", "0x1.a7be2644f489cp-26", 40, 0, False),
    ("pv2f", EVEN): ("27c4f310df8587a1", "0x1.0a8ccb7f59818p-31", 40, 0, True),
    ("pv1c", ODD): ("6992b4f662b46be6", "0x1.a80bbf582e81ep-44", 40, 0, True),
    ("pv1c", EVEN): ("1c986c05888126cf", "0x1.bd997f6cff948p-38", 40, 0, True),
    ("H2:0", ODD): ("0a24e2feed924fb3", "0x1.7ca2f787bbe59p-39", 40, 0, True),
    ("H2:0", EVEN): ("eb08e929fab0d4c9", "0x1.01b0ce64dc14dp-38", 40, 0, True),
    ("H2:1", ODD): ("7c96b773801dbe53", "0x1.352835338da78p-36", 40, 0, True),
    ("H2:1", EVEN): ("f9239ea81d1e87ca", "0x1.4d511ee9414cap-35", 40, 0, True),
    ("H2:2", ODD): ("7626c086616b202a", "0x1.e6349d79e7234p-39", 40, 0, True),
    ("H2:2", EVEN): ("61db404a78a18b98", "0x1.450abdba85129p-38", 40, 0, True),
    ("g1", ODD): ("4c276c678a36ab72", "0x1.d530365a3ff17p-45", 400, 0, True),
    ("g1", EVEN): ("4ad20f966add6fe7", "0x1.ab880404911d9p-45", 400, 0, True),
    ("w1c", ODD): ("0f67000c31a78b8c", "0x1.32e1222513280p-41", 400, 0, True),
    ("w1c", EVEN): ("920c5f983d610ab1", "0x1.03aabeb9b9721p-46", 400, 0, True),
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

# per params, the digest of each derivative row at the unmasked points, at order 7
RECORDED_MASKED_JETS = [
    (KummerParams(0.3, 1.5), ("9b701c6410fb89ec", "d3a0a7c8a1f7637b", "98689468f3c9db08",
                              "4a2c4347ef57b5c2", "e3af872cd6933643", "4e7f3dcfa9372993",
                              "97b13ea94abea745", "7ada09ac1e17e448")),
    (KummerParams(1.3, 2.5), ("150c519d9410b031", "ee9d7f1ad8da2021", "81620c3da73f580c",
                              "2555bba1ea7ed01d", "a7a66cb895a450b6", "3b16dfc05b102229",
                              "a02d29b64d51f4e3", "c3bc23e0e4dd93a2")),
    # a terminating series: its rows past the degree are zero and never summed
    (KummerParams(-2.0, 0.5), ("00ac7de03320ae15", "dd6369def4abcf97", "90173042ef21803f",
                               "00e6ac44adb7898d", "a0fb309951662889", "cc4cb9b4164d26f0",
                               "cc4cb9b4164d26f0", "cc4cb9b4164d26f0")),
]


def test_kummer_jets_on_a_masked_grid_match_their_recording():
    clear_package_caches()
    keep = ~MASK
    for order in (3, 7):  # order 3 sums its rows cold, order 7 reads them warm
        jets = kummer_jet(tuple(params for params, _ in RECORDED_MASKED_JETS),
                          Jet(jet_var(MASKED_GRID, order).d, MASK))
        for jet, (params, rows) in zip(jets, RECORDED_MASKED_JETS):
            assert jet.mask.tolist() == MASK.tolist()
            assert tuple(digest(row[keep]) for row in jet.d) == rows[:order + 1], params
