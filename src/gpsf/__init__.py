"""Generalized prolate spheroidal functions on the unit ball in R^(p+2).

Evaluation of the radial eigenfunctions, their integral-operator
eigenvalues, quadrature rules for band-limited functions, and expansion
(interpolation) of band-limited functions in the eigenbasis.
"""

from types import ModuleType as _ModuleType

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
    truncation_bound,
)
from .interp import (
    ChannelCache,
    GpsfExpansion,
    coeff_bound,
    recover_coeffs,
    sampling_rule,
    synthesize,
)
from .prolate import (
    ChannelSolve,
    NumericalError,
    ProlateChannel,
    RadialModeId,
    ZernikeCoeffs,
    choose_truncation,
    eval_phi,
    eval_phi_and_deriv,
    eval_phi_deriv,
    solve_channel,
    tridiag_matrix,
)
from .quadrature import QuadratureRule1D, chebyshev_rule, gaussian_rule
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

# the functions and classes above; the submodules that importing them binds are left out
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
