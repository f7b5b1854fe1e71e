"""Inverse curvature flow of l-convex Legendre curves.

Exact Fourier-spectral evolution, cusp tracking, the self-similar profile
catalog, asymptotic-rate verification, reparametrization to normal form,
and independent finite-difference oracles.

The package loads lazily (PEP 562): ``import legendreflow`` loads no
submodule, and each public name imports its module on first access.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each submodule and the public names it exports through the package.
_EXPORTS = {
    "curves": ("AngleField", "LegendreCurve", "LegendreCurvature", "angle_unwrap",
               "check_closure", "curvature_from_samples", "frame_from_normal",
               "uniform_grid"),
    "spectral": ("FlowState", "SpectralBeta", "analyze_beta", "eigenvalue", "evolve_beta",
                 "evolve_curve", "reconstruct_centered_curve", "reconstruct_initial_curve"),
    "selfsimilar": ("GALLERY_PROFILES", "SelfSimilarProfile", "cusp_count", "lambda_star",
                    "lap_count", "profile_position", "verify_self_similarity"),
    "cusps": ("CuspReport", "detect_strict_decrease", "find_zeros", "zero_count_series"),
    "asymptotics": ("ConvergenceReport", "center_point", "fit_decay_rate", "leading_mode",
                    "scaled_error"),
    "reparam": ("Reparametrization", "reparametrize"),
    "fd": ("FDGrid", "PhiState", "solve_beta_fd", "solve_phi_fd"),
    "errors": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
