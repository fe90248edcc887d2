"""Radial layered-medium Helmholtz transmission solver."""

from .problem import (ProblemSpec, WaveSpeedProfile,
                      construct_localisation_example,
                      construct_stable_example, relative_jumps, validate)
from .assembly import (BlockSystem, CoefficientVector, dense_solve,
                       normalize, solve_spec)
from .green import (BetaSequence, GreenColumn, banded_column, beta_sequence,
                    green_last_column, layer_coefficients)
from .evaluate import (DiagnosticsReport, RadialSolution, diagnostics,
                       disc_slice, energy_lower_bound, energy_norm,
                       energy_upper_bound, eval_radial, interface_residuals,
                       solve, solve_direct, sup_radial, sup_scaled)
from .stability import (GrowthLaw, RefinedCheck, StabilityReport,
                        WhisperResult, certify_beta_bounds, fit_loglinear,
                        green_growth_law, refined_small_z_check,
                        small_z_window, whispering_gallery_scan)

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec", "WaveSpeedProfile", "construct_localisation_example",
    "construct_stable_example", "relative_jumps", "validate",
    "BlockSystem", "CoefficientVector", "dense_solve", "normalize",
    "solve_spec",
    "BetaSequence", "GreenColumn", "banded_column", "beta_sequence",
    "green_last_column", "layer_coefficients",
    "DiagnosticsReport", "RadialSolution", "diagnostics", "disc_slice",
    "energy_lower_bound", "energy_norm", "energy_upper_bound", "eval_radial",
    "interface_residuals", "solve", "solve_direct", "sup_radial",
    "sup_scaled",
    "GrowthLaw", "RefinedCheck", "StabilityReport", "WhisperResult",
    "certify_beta_bounds", "fit_loglinear", "green_growth_law",
    "refined_small_z_check", "small_z_window", "whispering_gallery_scan",
]
