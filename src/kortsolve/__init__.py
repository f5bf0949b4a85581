"""Resolvent solvers for the linearized compressible Korteweg model on the half-space.

The package computes, per tangential Fourier mode, the exact exponential-profile
solution of the generalized resolvent system

    lambda rho + div u = d,
    lambda u - mu lap u - nu grad div u - kappa grad lap rho = f,
    n . grad rho = g,  u = 0   on the boundary,

classifies the viscosity/capillarity parameter space into its five root-degeneracy
regimes, assembles full-field solutions by FFT, cross-checks everything against an
independent finite-difference oracle, and probes the randomized-sum boundedness of
the solution-operator families.
"""

from .errors import (BranchCutError, CaseMismatchError, ConfigurationError,
                     ConsistencyError, DomainError, GridError)
from .lopatinski import LowerBoundReport, lower_bound_scan, scan_stability
from .modes import (BoundaryTrace, ModeBatch, ModeSolution, ResidualReport,
                    assembled_formula_check, batch_residuals, boundary_residuals, pde_residual,
                    solve_mode, solve_modes)
from .oracle import (BvpConfig, BvpSolution, compare_with_closed_form,
                     convergence_study, solve_mode_bvp)
from .profiles import VerticalProfile, confluent_m, confluent_m0, confluent_mj
from .spectral import (Case, Degeneracy, FluidParams, RootData, ScanGrid,
                       TangentialMode, char_poly, classify, compute_roots,
                       principal_sqrt, root_lower_bound_scan)
from .symbols import (SymbolSpec, asymptotic_check, case1_product_constant,
                      make_named_symbol, verify_symbol_class)

__version__ = "0.1.0"

__all__ = [
    "BoundaryTrace", "BranchCutError", "BvpConfig", "BvpSolution",
    "Case", "CaseMismatchError", "ConfigurationError", "ConsistencyError",
    "Degeneracy", "DomainError", "FluidParams", "GridError", "LowerBoundReport",
    "ModeBatch", "ModeSolution", "ResidualReport", "RootData", "ScanGrid",
    "SymbolSpec", "TangentialMode", "VerticalProfile", "assembled_formula_check",
    "asymptotic_check", "batch_residuals", "boundary_residuals",
    "case1_product_constant", "char_poly", "classify", "compare_with_closed_form",
    "compute_roots", "confluent_m", "confluent_m0", "confluent_mj",
    "convergence_study", "lower_bound_scan", "make_named_symbol",
    "pde_residual", "principal_sqrt", "root_lower_bound_scan", "scan_stability",
    "solve_mode", "solve_mode_bvp", "solve_modes", "verify_symbol_class",
]
