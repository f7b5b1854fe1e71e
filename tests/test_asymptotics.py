"""Centering, rescaled convergence and sharp exponential decay rates."""

import numpy as np
import pytest

from conftest import per_mode_scaled_error, random_closed_spectral

from legendreflow.asymptotics import (
    _scaled_errors,
    center_point,
    fit_decay_rate,
    leading_mode,
    predicted_decay_rate,
    scaled_error,
)
from legendreflow.curves import LegendreCurve, uniform_grid
from legendreflow.errors import LegendreFlowError, ValidationError
from legendreflow.selfsimilar import SelfSimilarProfile, profile_position
from legendreflow.spectral import (
    SpectralBeta,
    eigenvalue,
    evolve_beta,
    evolve_curve,
    reconstruct_initial_curve,
)


def two_mode_data(num_samples=512, base=(0.0, 0.0)):
    s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0), 4: (0.1, 0.0)})
    curve = reconstruct_initial_curve(s, base_point=base, num_samples=num_samples)
    return s, curve


class TestCenterPoint:
    def test_shifted_profile_returns_shift(self):
        u = uniform_grid(1024)
        p = SelfSimilarProfile(n=1, m=2, c1=1.5, c2=0.0)
        q = np.array([0.4, -2.0])
        pos = profile_position(p, u) + q
        nu = p.normal(u)
        assert np.max(np.abs(center_point(
            LegendreCurve(positions=pos, normals=nu)) - q)) < 1e-10

    def test_circle_center(self):
        u = uniform_grid(512)
        nu = np.stack([np.sin(u), -np.cos(u)], axis=-1)
        pos = np.array([1.0, -1.0]) + 2.0 * nu
        assert np.max(np.abs(center_point(
            LegendreCurve(positions=pos, normals=nu)) - [1.0, -1.0])) < 1e-12

    def test_resolution_independent(self):
        _, coarse = two_mode_data(256, base=(0.3, 0.9))
        _, fine = two_mode_data(1024, base=(0.3, 0.9))
        assert np.max(np.abs(center_point(coarse) - center_point(fine))) < 1e-10


class TestLeadingMode:
    def test_mean_mode_wins(self):
        s = SpectralBeta.from_modes(1, a0=2.0, modes={5: (1.0, 0.0)})
        assert leading_mode(s)[:2] == (0, 2.0)

    def test_first_band(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, -0.5)})
        assert leading_mode(s) == (2, 1.0, -0.5)

    def test_sin_only_band(self):
        s = SpectralBeta.from_modes(1, modes={3: (0.0, 0.2)})
        assert leading_mode(s) == (3, 0.0, 0.2)


class TestScaledError:
    def test_zero_for_exact_profile(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.5, 0.0)})
        curve = reconstruct_initial_curve(s, num_samples=512)
        for t in (0.5, 2.0, 5.0):
            assert scaled_error(s, curve, t) < 1e-10

    def test_against_direct_evolution(self):
        # the mode-decomposition evaluation must agree with naively rescaling
        # the evolved curve while the exponentials are still benign
        s, curve = two_mode_data(2048)
        p = center_point(curve)
        t = 1.0
        state = evolve_curve(s, curve, t)
        target = profile_position(
            SelfSimilarProfile(n=1, m=2, c1=1.0, c2=0.0), curve.grid)
        naive = np.max(np.abs(
            (state.curve.positions - p) / np.exp(-3.0 * t) - target))
        assert abs(scaled_error(s, curve, t, num_samples=2048) - naive) < 1e-9

    def test_matches_per_mode_profile_sum(self, rng):
        for _ in range(10):
            s = random_closed_spectral(rng, max_truncation=12)
            curve = reconstruct_initial_curve(s, num_samples=256)
            for t in (0.0, 0.5, 3.0):
                expected = per_mode_scaled_error(s, t, 1024)
                assert abs(scaled_error(s, curve, t) - expected) <= 1e-12 * max(1.0, expected)

    def test_stack_matches_per_time(self, rng):
        times = np.array([0.0, 0.5, 1.0, 3.0, 6.0])
        for _ in range(10):
            s = random_closed_spectral(rng, max_truncation=12)
            curve = reconstruct_initial_curve(s, num_samples=256)
            stacked = _scaled_errors(s, times, 1024)
            assert np.array_equal(stacked, [scaled_error(s, curve, t) for t in times])
            for t, err in zip(times, stacked):
                expected = per_mode_scaled_error(s, t, 1024)
                assert abs(err - expected) <= 1e-12 * max(1.0, expected)

    def test_rejects_negative_time_and_leading_n_band(self):
        s, curve = two_mode_data()
        with pytest.raises(ValidationError):
            _scaled_errors(s, [1.0, -0.5], 1024)
        with pytest.raises(ValidationError):
            scaled_error(s, curve, -0.5)
        # the admitted n band |a_1| = 1e-10 survives LEADING_TOL and leads
        s = SpectralBeta.from_modes(1, modes={1: (1e-10, 0.0), 2: (1.0, 0.0)})
        curve = reconstruct_initial_curve(s, num_samples=256)
        for call in (lambda: _scaled_errors(s, [1.0, 2.0], 1024),
                     lambda: scaled_error(s, curve, 1.0),
                     lambda: fit_decay_rate(s, curve)):
            with pytest.raises(LegendreFlowError, match="rotation index"):
                call()

    def test_non_finite_time_rejected(self):
        s, curve = two_mode_data()
        with pytest.raises(ValidationError, match="finite"):
            scaled_error(s, curve, np.nan)

    def test_small_by_t_eight(self):
        s, curve = two_mode_data()
        assert scaled_error(s, curve, 8.0) < 1e-4

    def test_monotone_decreasing(self):
        s, curve = two_mode_data()
        errs = [scaled_error(s, curve, t) for t in np.linspace(1.0, 4.0, 7)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestFitDecayRate:
    def test_sharp_rate_two_modes(self):
        s, curve = two_mode_data()
        report = fit_decay_rate(s, curve)
        assert report.predicted_rate == -12.0
        assert abs(report.fitted_rate - (-12.0)) < 0.01 * 12.0
        assert report.envelope_bounded

    def test_mean_plus_small_band(self):
        s = SpectralBeta.from_modes(1, a0=1.0, modes={2: (0.05, 0.0)})
        curve = reconstruct_initial_curve(s, num_samples=512)
        report = fit_decay_rate(s, curve)
        assert report.predicted_rate == -4.0
        assert abs(report.fitted_rate - (-4.0)) < 0.04

    def test_single_mode_reports_self_similar(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.5, 0.0)})
        curve = reconstruct_initial_curve(s, num_samples=512)
        report = fit_decay_rate(s, curve)
        assert report.exactly_self_similar
        assert report.fitted_rate is None

    @pytest.mark.parametrize("a0, modes, sample_sets", [
        (1.0, {2: (0.05, 0.0)}, 1),                 # errors stay normal doubles
        (0.0, {2: (1.0, 0.0), 12: (0.1, 0.0)}, 2),  # rate -140 underflows: the window shrinks
    ])
    def test_one_synthesis_per_sample_set(self, a0, modes, sample_sets, fft_calls):
        # one synthesis per sample set, where sampling time by time took 6
        s = SpectralBeta.from_modes(1, a0=a0, modes=modes)
        curve = reconstruct_initial_curve(s, num_samples=512)
        fft_calls.clear()
        report = fit_decay_rate(s, curve)
        assert len(fft_calls) == sample_sets
        times = np.linspace(1.0, 6.0, 6) if sample_sets == 1 else np.linspace(1.0, 3.5, 6)
        assert [t for t, _ in report.errors] == times.tolist()
        for t, err in report.errors:
            assert err == scaled_error(s, curve, t)
            assert abs(err - per_mode_scaled_error(s, t)) <= 1e-12 * max(1.0, err)

    def test_non_finite_time_rejected(self, capfd):
        # refused before the fit, so no LAPACK complaint reaches stderr
        s, curve = two_mode_data()
        with pytest.raises(ValidationError, match="finite"):
            fit_decay_rate(s, curve, [1.0, 2.0, np.nan, 4.0, 5.0])
        assert capfd.readouterr().err == ""

    def test_predicted_rate_eigen_arithmetic(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0), 4: (0.1, 0.0)})
        assert predicted_decay_rate(s) == (1 - 16) - (1 - 4)


class TestDerivativeLevelDecay:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_same_rate_at_each_order(self, order):
        # sup |d_u^i (beta - beta_leading)| / e^{lambda_m t}: each sub-leading
        # mode only picks up an (ik)^i factor, so the rate holds at every order
        s, _ = two_mode_data()
        m, _, _ = leading_mode(s)
        a, b = s.cos_coeffs.copy(), s.sin_coeffs.copy()
        a[[0, m]] = b[[0, m]] = 0.0
        gap = SpectralBeta(n=s.n, cos_coeffs=a, sin_coeffs=b)
        u = uniform_grid(2048)
        times = np.linspace(1.0, 6.0, 6)
        vals = [np.max(np.abs(evolve_beta(gap, t, u, du=order))) * np.exp(-eigenvalue(s.n, m) * t)
                for t in times]
        slope, _ = np.polyfit(times, np.log(vals), 1)
        assert abs(slope - (-12.0)) < 0.02 * 12.0
