"""Verification and computation toolkit for degenerate Whittaker functions of
the large discrete series representations of Sp(4,R).
"""
from .exact import ExactMatrix, GaussianRational, kernel_basis
from .fourier_jacobi import (FJSpherical, SL2Label, fj_evaluate, fj_function,
                             fj_nonvanishing)
from .ktypes import (DominantWeight, KTypeVector, act, beta_matrix,
                     change_basis, check_beta_identities)
from .rules import (DecisionRecord, RealCharacter, allowed_cuspidal_components,
                    convergence_condition, emb_jacobi, emb_principal,
                    emb_siegel_targets, gl2_weight_constraint)
from .solutions import (BlattnerParameter, CoefficientFamily,
                        DegenerateCharacter, HCParameter, blattner,
                        borel_recurrence_solve, borel_solution, classify,
                        compare_borel_formulas, radial_system_residual,
                        raising_lowering_check, siegel_solution,
                        sl2_module_descriptor, sl2_whittaker)
from .specialfns import (WhittakerIndex, check_contiguous, pochhammer,
                         whittaker_w, whittaker_w_dy)

__version__ = "0.1.0"

__all__ = [
    "BlattnerParameter", "CoefficientFamily", "DecisionRecord",
    "DegenerateCharacter", "DominantWeight", "ExactMatrix", "FJSpherical",
    "GaussianRational", "HCParameter", "KTypeVector", "RealCharacter",
    "SL2Label", "WhittakerIndex", "act", "allowed_cuspidal_components",
    "beta_matrix", "blattner", "borel_recurrence_solve", "borel_solution",
    "change_basis", "check_beta_identities", "check_contiguous", "classify",
    "compare_borel_formulas", "convergence_condition", "emb_jacobi",
    "emb_principal", "emb_siegel_targets", "fj_evaluate", "fj_function",
    "fj_nonvanishing", "gl2_weight_constraint", "kernel_basis", "pochhammer",
    "radial_system_residual", "raising_lowering_check", "siegel_solution",
    "sl2_module_descriptor", "sl2_whittaker", "whittaker_w", "whittaker_w_dy",
]
