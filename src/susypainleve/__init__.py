"""SUSY partners of the truncated harmonic oscillator, their Painleve IV/V
solution families, and the Backlund transformations relating them, all
certified by exact-derivative (Taylor-jet) ODE residuals."""

from .backlund import (
    BTResult,
    CatalogRow,
    PIVMap,
    PIVMapKind,
    PVMap,
    RootBranch,
    bt_piv_apply,
    bt_piv_chain,
    bt_pv_apply,
    bt_pv_catalog,
    check_catalog_row,
    piv_map_params,
    pv_map_params,
)
from .hyp1f1 import KummerParams, kummer
from .jets import Jet, jet_compose, jet_const, jet_div, jet_exp, jet_ln, jet_mul, jet_sqrt, jet_var, log_derivative
from .oscillator import (
    Direction,
    Parity,
    SeedSpec,
    SpectrumLevel,
    eigenfunction_psi,
    formal_chi,
    ladder,
    schrodinger_residual,
    seed_u,
)
from .painleve import (
    PIVSolution,
    PVSolution,
    closed_piv_solution,
    closed_pv_solution,
    derived_pv_solution,
    extremal_piv_solution,
    family_solution,
    piv_parameters,
    pv_parameters,
    rational_pv_solution,
)
from .residual import (
    VerificationReport,
    infer_piv_params,
    infer_pv_params,
    piv_residual,
    pv_residual,
    verify_on_grid,
)
from .susy import (
    ExtremalState,
    FirstOrderTransform,
    Mode,
    SecondOrderTransform,
    Target,
    admissible_window,
    apply_a,
    apply_aplus,
    apply_bplus,
    apply_lminus,
    extremal_states,
    nodeless_check,
    potential_v1,
    potential_v2,
    superpotential_alpha,
    wronskian,
)

__version__ = "0.1.0"
