"""Generalized prolate spheroidal functions on the unit ball in R^(p+2).

Evaluation of the radial eigenfunctions, their integral-operator
eigenvalues, quadrature rules for band-limited functions, and expansion
(interpolation) of band-limited functions in the eigenbasis.
"""

from .ballquad import (
    AngularRule,
    BallRule,
    angular_node_count,
    angular_rule_from_count,
    ball_volume,
    integrate_exponential,
    surface_area,
    surface_harmonic,
    surface_harmonics,
    tensor_rule,
    truncation_bound,
)
from .interp import (
    ChannelCache,
    GpsfExpansion,
    coeff_bound,
    expansion_to_json,
    recover_coeffs,
    sampling_rule,
    synthesize,
)
from .prolate import (
    NumericalError,
    ProlateChannel,
    RadialModeId,
    TridiagSym,
    ZernikeCoeffs,
    choose_truncation,
    chi_zero,
    eval_phi,
    eval_phi_and_deriv,
    eval_phi_deriv,
    mode_from_json,
    mode_to_json,
    solve_channel,
    tridiag_entries,
    tridiag_matrix,
)
from .quadrature import QuadratureRule1D, chebyshev_rule, gaussian_rule, rule_to_csv, rule_to_json
from .roots import find_roots
from .spectrum import (
    EigenTriple,
    beta_chain,
    beta_dc,
    beta_direct,
    convert_rtprime,
    harmonic_count,
    lambda_from_beta,
    mu_from_beta,
    mu_sum_check,
    rphi_prime_coeffs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
