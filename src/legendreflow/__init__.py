"""Inverse curvature flow of l-convex Legendre curves.

Exact Fourier-spectral evolution, cusp tracking, the self-similar profile
catalog, asymptotic-rate verification, reparametrization to normal form,
and independent finite-difference oracles.
"""

__version__ = "0.1.0"

from .curves import (
    AngleField,
    LegendreCurve,
    LegendreCurvature,
    angle_unwrap,
    check_closure,
    curvature_from_samples,
    frame_from_normal,
    residual_geometric_equations,
    uniform_grid,
)
from .spectral import (
    FlowState,
    SpectralBeta,
    analyze_beta,
    eigenvalue,
    evolve_beta,
    evolve_curve,
    reconstruct_centered_curve,
    reconstruct_initial_curve,
)
from .selfsimilar import (
    GALLERY_PROFILES,
    SelfSimilarProfile,
    cusp_count,
    lambda_star,
    lap_count,
    profile_position,
    verify_self_similarity,
)
from .cusps import CuspReport, detect_strict_decrease, find_zeros, zero_count_series
from .asymptotics import (
    ConvergenceReport,
    center_point,
    fit_decay_rate,
    leading_mode,
    scaled_error,
)
from .reparam import Reparametrization, reparametrize
from .fd import FDGrid, PhiState, solve_beta_fd, solve_phi_fd

__all__ = [name for name in dir() if not name.startswith("_")]
