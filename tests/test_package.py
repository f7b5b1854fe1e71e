"""The lazy package keeps its public API: every name, the same objects."""

import importlib
import types

import pytest

import legendreflow

#: Each submodule and the names the package exports from it.
EXPORTS = {
    "asymptotics": ["ConvergenceReport", "center_point", "fit_decay_rate", "leading_mode",
                    "scaled_error"],
    "curves": ["AngleField", "LegendreCurvature", "LegendreCurve", "angle_unwrap",
               "check_closure", "curvature_from_samples", "frame_from_normal",
               "uniform_grid"],
    "cusps": ["CuspReport", "detect_strict_decrease", "find_zeros", "zero_count_series"],
    "errors": [],
    "fd": ["FDGrid", "PhiState", "solve_beta_fd", "solve_phi_fd"],
    "reparam": ["Reparametrization", "reparametrize"],
    "selfsimilar": ["GALLERY_PROFILES", "SelfSimilarProfile", "cusp_count", "lambda_star",
                    "lap_count", "profile_position", "verify_self_similarity"],
    "spectral": ["FlowState", "SpectralBeta", "analyze_beta", "eigenvalue", "evolve_beta",
                 "evolve_curve", "reconstruct_centered_curve", "reconstruct_initial_curve"],
}
PUBLIC = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def test_all_holds_the_46_public_names():
    assert len(PUBLIC) == 46
    assert sorted(legendreflow.__all__) == PUBLIC


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(legendreflow))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_modules_object(module):
    mod = importlib.import_module(f"legendreflow.{module}")
    assert getattr(legendreflow, module) is mod
    assert isinstance(mod, types.ModuleType)
    for name in EXPORTS[module]:
        assert getattr(legendreflow, name) is getattr(mod, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from legendreflow import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(legendreflow, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        legendreflow.no_such_name
    assert not hasattr(legendreflow, "no_such_name")
    assert not hasattr(legendreflow, "curveio_")
