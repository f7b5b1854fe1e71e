"""Fourier analysis, closed-form evolution and curve reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (dense_projection, mode_derivative, per_mode_evolve_curve,
                      physical_mismatch, random_closed_spectral)
from legendreflow.curves import LegendreCurve, check_closure, uniform_grid
from legendreflow.errors import (
    InvariantViolationError,
    NotClosedError,
    PointCurveError,
    ValidationError,
)
from legendreflow.spectral import (
    CONSISTENCY_ROUNDING,
    SpectralBeta,
    _beta,
    _increment,
    _spectrum,
    _synthesize,
    analyze_beta,
    eigenvalue,
    evolve_beta,
    evolve_curve,
    reconstruct_centered_curve,
    reconstruct_initial_curve,
    spectral_derivative,
)
from legendreflow.selfsimilar import SelfSimilarProfile, profile_position


class TestEigenvalue:
    def test_zero_at_k_equals_n(self):
        assert eigenvalue(2, 2) == 0.0

    def test_known_values(self):
        assert eigenvalue(1, 2) == -3.0
        assert eigenvalue(3, 0) == 1.0

    def test_rejects_bad_index(self):
        with pytest.raises(ValidationError):
            eigenvalue(0, 1)


class TestSpectralBeta:
    def test_closure_constraint_enforced(self):
        with pytest.raises(NotClosedError):
            SpectralBeta.from_modes(2, modes={2: (0.5, 0.0)})

    def test_point_rejected(self):
        with pytest.raises(PointCurveError):
            SpectralBeta(n=1, cos_coeffs=np.zeros(3), sin_coeffs=np.zeros(3))

    def test_mode_table_round_trip(self):
        s = SpectralBeta.from_modes(1, a0=0.5, modes={2: (1.0, -0.25), 5: (0.0, 0.3)})
        assert s.a0 == 0.5
        assert s.modes == [(2, 1.0, -0.25), (5, 0.0, 0.3)]
        assert s.truncation == 5


class TestAnalyzeBeta:
    def test_single_mode(self):
        u = uniform_grid(64)
        s = analyze_beta(np.cos(2 * u), 1)
        assert abs(s.cos_coeffs[2] - 1.0) < 1e-13
        others = s.cos_coeffs.copy()
        others[2] = 0.0
        assert np.max(np.abs(others)) < 1e-13
        assert np.max(np.abs(s.sin_coeffs)) < 1e-13

    def test_constant(self):
        s = analyze_beta(np.full(64, 3.0), 1)
        assert abs(s.a0 - 3.0) < 1e-13

    def test_mixed_modes_against_quadrature(self):
        from scipy.integrate import quad

        u = uniform_grid(256)
        beta = np.cos(2 * u) + 0.3 * np.sin(5 * u)
        s = analyze_beta(beta, 1)
        for k in (2, 5):
            ak, _ = quad(lambda v: (np.cos(2 * v) + 0.3 * np.sin(5 * v))
                         * np.cos(k * v) / np.pi, 0, 2 * np.pi)
            bk, _ = quad(lambda v: (np.cos(2 * v) + 0.3 * np.sin(5 * v))
                         * np.sin(k * v) / np.pi, 0, 2 * np.pi)
            assert abs(s.cos_coeffs[k] - ak) < 1e-10
            assert abs(s.sin_coeffs[k] - bk) < 1e-10

    def test_round_trip_synthesis(self):
        u = uniform_grid(128)
        beta = 0.4 + np.cos(3 * u) - 0.2 * np.sin(7 * u)
        s = analyze_beta(beta, 1)
        assert np.max(np.abs(beta - _beta(s, 0.0, beta.shape[0]))) < 1e-12

    def test_open_curve_rejected(self):
        u = uniform_grid(64)
        with pytest.raises(NotClosedError):
            analyze_beta(np.cos(u), 1)

    def test_zero_input_rejected(self):
        with pytest.raises(PointCurveError):
            analyze_beta(np.zeros(64), 1)

    def test_undersampled_rejected(self):
        with pytest.raises(ValidationError):
            analyze_beta(np.ones(16), 1, truncation=10)

    @pytest.mark.parametrize("num, truncation", [(64, None), (255, None), (1024, None),
                                                 (1024, 40)])
    def test_fft_matches_dense_projection(self, num, truncation):
        # white noise with its n = 2 band removed: every mode up to N/2 - 1 is live
        rng = np.random.default_rng(num)
        u = uniform_grid(num)
        beta = rng.normal(size=num)
        an, bn = dense_projection(beta, 2)
        beta -= an[2] * np.cos(2 * u) + bn[2] * np.sin(2 * u)
        s = analyze_beta(beta, 2, truncation)
        a, b = dense_projection(beta, s.truncation)
        a[2] = b[2] = 0.0
        scale = np.max(np.abs(beta))
        assert np.max(np.abs(s.cos_coeffs - a)) <= 1e-12 * scale
        assert np.max(np.abs(s.sin_coeffs - b)) <= 1e-12 * scale

    def test_projection_memory(self):
        # the dense tables of 4,096 rows took 128 MB
        import tracemalloc

        u = uniform_grid(4096)
        beta = np.cos(2 * u) + 0.3 * np.sin(5 * u)
        tracemalloc.start()
        try:
            analyze_beta(beta, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestEvolveBeta:
    def test_mean_mode_grows_like_exp(self):
        s = SpectralBeta.from_modes(1, a0=1.0)
        val = evolve_beta(s, 1.0, np.array([0.3]))[0]
        assert abs(val - np.e) < 1e-12

    def test_single_mode_decay(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        u = uniform_grid(64)
        for t in (0.2, 1.0, 3.0):
            expected = np.exp(-3.0 * t) * np.cos(2 * u)
            assert np.max(np.abs(evolve_beta(s, t, u) - expected)) < 1e-12

    def test_identity_at_zero(self, rng):
        for _ in range(5):
            s = random_closed_spectral(rng)
            u = uniform_grid(128)
            expected = [mode_derivative(s, v, 0.0) for v in u]
            assert np.max(np.abs(evolve_beta(s, 0.0, u) - expected)) < 1e-14

    def test_negative_time_rejected(self):
        s = SpectralBeta.from_modes(1, a0=1.0)
        with pytest.raises(ValidationError):
            evolve_beta(s, -0.1, np.array([0.0]))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        s = SpectralBeta.from_modes(1, a0=1.0)
        with pytest.raises(ValidationError, match="finite"):
            evolve_beta(s, t, np.array([0.0]))

    @pytest.mark.parametrize("dt", [0, 1, 2])
    def test_overflowing_spectrum_refused(self, dt):
        # e^{lambda_0 t} = e^{800} overflows; it was an inf/NaN array and a
        # stray "overflow encountered in exp" (a RuntimeWarning fails the
        # suite).  d_u removes the growing mean mode, and the rest stays finite.
        s = SpectralBeta.from_modes(2, a0=0.5, modes={3: (0.3, 0.2)})
        u = uniform_grid(16)
        with pytest.raises(InvariantViolationError, match="overflows"):
            evolve_beta(s, 800.0, u, dt=dt)
        assert np.all(np.isfinite(evolve_beta(s, 800.0, u, du=1, dt=dt)))

    @pytest.mark.parametrize("du", [1, 2, 3])
    def test_u_derivative_matches_mode_sum(self, rng, du):
        for _ in range(5):
            s = random_closed_spectral(rng)
            u = uniform_grid(32)
            expected = [mode_derivative(s, v, 0.4, du) for v in u]
            scale = np.sum(np.abs(np.hypot(s.cos_coeffs, s.sin_coeffs))
                           * np.arange(s.truncation + 1) ** du)
            assert np.max(np.abs(evolve_beta(s, 0.4, u, du=du) - expected)) < 1e-13 * scale

    def test_time_derivative_matches_mode_sum(self, rng):
        for _ in range(5):
            s = random_closed_spectral(rng)
            u = uniform_grid(32)
            expected = [mode_derivative(s, v, 0.4, 0, 1) for v in u]
            assert np.max(np.abs(evolve_beta(s, 0.4, u, dt=1) - expected)) < 1e-12

    def test_time_derivative_is_the_flow(self, rng):
        # d_t beta = d_uu beta / n^2 + beta, mode by mode
        s = random_closed_spectral(rng)
        u = uniform_grid(128)
        rhs = evolve_beta(s, 0.3, u, du=2) / s.n**2 + evolve_beta(s, 0.3, u)
        assert np.max(np.abs(evolve_beta(s, 0.3, u, dt=1) - rhs)) < 1e-11

    def test_mixed_derivative(self):
        # d_t d_u of e^{-3t} sin 2u is -6 e^{-3t} cos 2u
        s = SpectralBeta.from_modes(1, modes={2: (0.0, 1.0)})
        u = uniform_grid(16)
        expected = -6.0 * np.exp(-3.0) * np.cos(2 * u)
        assert np.max(np.abs(evolve_beta(s, 1.0, u, du=1, dt=1) - expected)) < 1e-14

    def test_absent_mean_mode_stays_finite_at_large_time(self):
        # e^{800} overflows; the absent a_0 must contribute 0, not inf * 0
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        values = evolve_beta(s, 800.0, uniform_grid(8))
        assert np.all(np.isfinite(values))

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_semigroup_property(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        s = random_closed_spectral(rng)
        u = uniform_grid(256)
        mid = evolve_beta(s, t1, u)
        s_mid = analyze_beta(mid, s.n, truncation=s.truncation)
        direct = evolve_beta(s, t1 + t2, u)
        stepped = evolve_beta(s_mid, t2, u)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(direct - stepped)) < 1e-10 * scale


class TestReconstruct:
    def test_constant_beta_gives_circle(self):
        c1 = 2.0
        s = SpectralBeta.from_modes(1, a0=c1)
        curve = reconstruct_initial_curve(s, base_point=(0.0, -c1), num_samples=256)
        u = curve.grid
        expected = np.stack([c1 * np.sin(u), -c1 * np.cos(u)], axis=-1)
        assert np.max(np.abs(curve.positions - expected)) < 1e-12

    def test_profile_mode_matches_closed_form(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.5, 0.0)})
        curve = reconstruct_centered_curve(s, num_samples=512)
        target = profile_position(
            SelfSimilarProfile(n=1, m=2, c1=1.5, c2=0.0), curve.grid)
        assert np.max(np.abs(curve.positions - target)) < 1e-12

    def test_open_data_rejected(self):
        s = SpectralBeta.from_modes(2, modes={1: (1.0, 0.0)})
        # closed for n = 2; force the mismatch by asking the n = 1 integral
        u = uniform_grid(64)
        residual = check_closure(evolve_beta(s, 0.0, u), 1)
        assert abs(residual[0] - np.pi) < 1e-12
        with pytest.raises(NotClosedError):
            SpectralBeta.from_modes(1, modes={1: (1.0, 0.0)})

    def test_output_passes_validation(self, rng):
        for _ in range(5):
            s = random_closed_spectral(rng)
            curve = reconstruct_initial_curve(s, num_samples=512)
            curve.validate()

    @pytest.mark.parametrize("band", [(5e-11, 0.0), (1e-10, -1e-10)])
    def test_admitted_n_band_reconstructs(self, band):
        # the closure residual is pi (a_n, b_n); every band SpectralBeta
        # admits closes, where an absolute 1e-10 refused |a_n| > 3.2e-11
        s = SpectralBeta.from_modes(1, a0=1.0, modes={1: band})
        closure = _increment(s, np.array([2.0 * np.pi]))[0]
        assert np.max(np.abs(closure - np.pi * np.array(band))) < 1e-15
        reconstruct_initial_curve(s, num_samples=64).validate()


class TestEvolveCurve:
    def test_identity_at_zero(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        curve = reconstruct_centered_curve(s, 256)
        state = evolve_curve(s, curve, 0.0)
        assert np.max(np.abs(state.curve.positions - curve.positions)) < 1e-14
        assert np.all(state.curvature.ell == 1.0)

    def test_self_similar_mode_contracts(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.5, 0.0)})
        curve = reconstruct_centered_curve(s, 512)
        target = profile_position(
            SelfSimilarProfile(n=1, m=2, c1=1.5, c2=0.0), curve.grid)
        for t in (0.5, 1.0, 2.0):
            state = evolve_curve(s, curve, t)
            expected = np.exp(-3.0 * t) * target
            assert np.max(np.abs(state.curve.positions - expected)) < 1e-10

    def test_mean_mode_against_time_quadrature(self):
        # circle beta == 2: X(t) = X0 + (e^t - 1) * 2 nu; cross-check the
        # displacement by explicit time stepping of the construction integrand
        s = SpectralBeta.from_modes(1, a0=2.0)
        curve = reconstruct_centered_curve(s, 256)
        u = curve.grid
        nu = np.stack([np.sin(u), -np.cos(u)], axis=-1)
        t_final = 1.0
        steps = 10_000
        dt = t_final / steps
        quad = np.zeros_like(curve.positions)
        for j in range(steps):
            t = (j + 0.5) * dt
            beta_t = evolve_beta(s, t, u)
            quad += dt * beta_t[:, None] * nu  # (beta/l) nu with l == 1
        state = evolve_curve(s, curve, t_final)
        numeric = curve.positions + quad
        assert np.max(np.abs(state.curve.positions - numeric)) < 1e-7

    def test_inconsistent_pair_rejected(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        other = SpectralBeta.from_modes(1, modes={3: (1.0, 0.0)})
        curve = reconstruct_centered_curve(other, 256)
        with pytest.raises(ValidationError):
            evolve_curve(s, curve, 0.5)

    @pytest.mark.parametrize("base, num", [((1e5, 0.0), 8192), ((1e6, 0.0), 512)])
    def test_translated_curve_evolves_with_its_base(self, base, num):
        # the stored positions round at eps |X_0| and d_u X_0 amplifies that about
        # N-fold; a threshold of 1e-8 max |beta_0| alone refused both curves
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0), 3: (0.3, 0.2)})
        far = reconstruct_initial_curve(s, base_point=base, num_samples=num)
        near = reconstruct_initial_curve(s, num_samples=num)
        rounding = 4.0 * np.finfo(float).eps * np.max(np.abs(far.positions))
        for t in (0.0, 0.5, 2.0):
            got, want = evolve_curve(s, far, t), evolve_curve(s, near, t)
            assert np.max(np.abs(got.curve.positions - want.curve.positions - base)) <= rounding
            assert np.array_equal(got.curvature.beta, want.curvature.beta)

    @pytest.mark.parametrize("base, num", [((1e5, 0.0), 8192), ((1e6, 0.0), 512)])
    def test_translated_inconsistent_pair_rejected(self, base, num):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        other = SpectralBeta.from_modes(1, modes={3: (1.0, 0.0)})
        curve = reconstruct_initial_curve(other, base_point=base, num_samples=num)
        with pytest.raises(ValidationError):
            evolve_curve(s, curve, 0.5)

    def test_decision_matches_physical_check(self, rng, fft_calls):
        # consistent curves, curves bumped by delta sin(qu) with delta q on both
        # sides of the threshold, and inconsistent pairs: evolve_curve accepts
        # exactly when the physical-space mismatch is within the threshold, and
        # a refusal reports that mismatch (printed to 6 digits)
        transforms = []
        for _ in range(4):
            s = random_closed_spectral(rng, max_truncation=12)
            other = random_closed_spectral(rng, max_truncation=12)
            for num in (256, 1024):
                curve = reconstruct_initial_curve(s, base_point=(0.3, -0.8), num_samples=num)
                u = curve.grid
                scale = physical_mismatch(s, curve.positions)[1]
                cases = [curve.positions,
                         reconstruct_initial_curve(other, num_samples=num).positions]
                for q in (3, num // 4 + 1):
                    for factor in (0.5, 0.9, 1.1, 2.0):
                        bump = np.zeros((num, 2))
                        bump[:, q % 2] = factor * 1e-8 * scale / q * np.sin(q * u)
                        cases.append(curve.positions + bump)
                for positions in cases:
                    mismatch, scale = physical_mismatch(s, positions)
                    threshold = 1e-8 * scale + CONSISTENCY_ROUNDING * np.finfo(float).eps \
                        * num * np.max(np.abs(positions))
                    trial = LegendreCurve(positions=positions, normals=curve.normals)
                    fft_calls.clear()
                    if mismatch <= threshold:
                        evolve_curve(s, trial, 0.5)
                        transforms.append(len(fft_calls))
                        continue
                    with pytest.raises(ValidationError) as refusal:
                        evolve_curve(s, trial, 0.5)
                    reported = float(str(refusal.value).rsplit("= ", 1)[1])
                    assert abs(reported - mismatch) <= 5e-6 * mismatch
        # accepted both by the mode-space certificate and by the exact fallback
        assert set(transforms) == {3, 5}

    def test_three_transforms_when_certified(self, fft_calls):
        # one forward FFT certifies the initial curve; the displacement and
        # beta(t) take one inverse FFT each (the physical-space check took 5),
        # and a further time of the same (s, curve) skips the certificate
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0), 3: (0.3, 0.2)})
        curve = reconstruct_initial_curve(s, base_point=(0.2, -0.4), num_samples=512)
        fft_calls.clear()
        evolve_curve(s, curve, 0.7)
        assert fft_calls == ["fft", "ifft", "ifft"]
        for t in (1.1, 0.2):
            evolve_curve(s, curve, t)
        assert fft_calls == ["fft"] + ["ifft"] * 6

    def test_each_new_key_recertifies(self, fft_calls):
        # the certificate is kept for these very objects under this tolerance:
        # an equal curve, another tolerance or an equal coefficient set is
        # checked again with its forward FFT
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0), 3: (0.3, 0.2)})
        curve = reconstruct_initial_curve(s, num_samples=256)
        twin_curve = LegendreCurve(positions=curve.positions, normals=curve.normals)
        twin_s = SpectralBeta(n=s.n, cos_coeffs=s.cos_coeffs, sin_coeffs=s.sin_coeffs)
        evolve_curve(s, curve, 0.5)
        for args, tol in (((s, twin_curve), 1e-8), ((s, twin_curve), 1e-9),
                          ((twin_s, twin_curve), 1e-9)):
            fft_calls.clear()
            evolve_curve(*args, 0.5, consistency_tol=tol)
            assert fft_calls == ["fft", "ifft", "ifft"]

    def test_refusal_is_not_remembered(self, fft_calls):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        other = SpectralBeta.from_modes(1, modes={3: (1.0, 0.0)})
        curve = reconstruct_centered_curve(other, 256)
        for _ in range(2):
            fft_calls.clear()
            with pytest.raises(ValidationError, match="inconsistent"):
                evolve_curve(s, curve, 0.5)
            assert fft_calls[0] == "fft"

    def test_remembered_certificate_gives_the_same_bits(self, rng):
        for _ in range(4):
            s = random_closed_spectral(rng, max_truncation=12)
            curve = reconstruct_initial_curve(s, base_point=(0.6, 0.1), num_samples=1024)
            evolve_curve(s, curve, 0.3)
            for t in (0.0, 0.9, 2.5):
                hit = evolve_curve(s, curve, t)
                fresh = LegendreCurve(positions=curve.positions.copy(),
                                      normals=curve.normals.copy())
                miss = evolve_curve(s, fresh, t)
                assert hit.t == miss.t
                for got, want in ((hit.curve.positions, miss.curve.positions),
                                  (hit.curve.normals, miss.curve.normals),
                                  (hit.curvature.beta, miss.curvature.beta),
                                  (hit.curvature.ell, miss.curvature.ell)):
                    assert np.array_equal(got, want)

    def test_threads_keep_their_own_frames(self):
        # the certificate is one slot shared by every caller: threads that
        # evolve different curves at once, switching often, each get the
        # frame and positions a lone caller gets
        import sys
        import threading

        rng = np.random.default_rng(31)
        pairs = []
        for i in range(8):
            s = random_closed_spectral(rng, max_truncation=8)
            pairs.append((s, reconstruct_initial_curve(s, num_samples=128 + 32 * i)))
        times = (0.1, 0.6, 1.4)

        def states(i):
            s, curve = pairs[i]
            return [evolve_curve(s, curve, t) for t in times]

        expected = [states(i) for i in range(len(pairs))]
        failures = []

        def work(i):
            try:
                for _ in range(20):
                    for got, want in zip(states(i), expected[i]):
                        if not (np.array_equal(got.curve.normals, want.curve.normals)
                                and np.array_equal(got.curve.positions,
                                                   want.curve.positions)):
                            failures.append(i)
            except Exception as error:  # a frame of another grid fails to build
                failures.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(pairs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        # nan passed the t < 0 test and gave all-NaN positions and beta
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        curve = reconstruct_centered_curve(s, 128)
        with pytest.raises(ValidationError, match="finite"):
            evolve_curve(s, curve, t)

    def test_overflowing_spectrum_refused(self):
        # e^{lambda_0 t} = e^{800} overflows: refused before any grid sum, on
        # the first call of the curve and on a call that reuses its certificate
        s = SpectralBeta.from_modes(2, a0=0.5, modes={3: (0.3, 0.2)})
        curve = reconstruct_initial_curve(s, num_samples=256)
        with pytest.raises(InvariantViolationError, match="overflows"):
            evolve_curve(s, curve, 800.0)
        assert np.all(np.isfinite(evolve_curve(s, curve, 1.0).curve.positions))
        with pytest.raises(InvariantViolationError, match="overflows"):
            evolve_curve(s, curve, 800.0)

    def test_frontal_and_closure_preserved(self, rng):
        for _ in range(5):
            s = random_closed_spectral(rng)
            curve = reconstruct_centered_curve(s, 512)
            for t in (0.1, 1.0, 3.0):
                state = evolve_curve(s, curve, t)
                nu = state.curve.normals
                dX = spectral_derivative(state.curve.positions)
                scale = max(1.0, np.max(np.abs(dX)))
                assert np.max(np.abs(np.sum(dX * nu, axis=1))) < 1e-9 * scale

    def test_matches_per_mode_sum(self, rng):
        for _ in range(5):
            s = random_closed_spectral(rng, max_truncation=12)
            curve = reconstruct_initial_curve(s, base_point=(0.2, -0.4), num_samples=256)
            for t in (0.0, 0.3, 2.0):
                expected = per_mode_evolve_curve(s, curve.positions, t)
                got = evolve_curve(s, curve, t).curve.positions
                scale = max(1.0, np.max(np.abs(expected)))
                assert np.max(np.abs(got - expected)) < 1e-12 * scale

    def test_centroid_conserved(self, rng):
        for _ in range(5):
            s = random_closed_spectral(rng)
            curve = reconstruct_initial_curve(s, base_point=(0.7, -1.1),
                                              num_samples=512)
            p0 = curve.positions.mean(axis=0)
            for t in (0.5, 2.0):
                state = evolve_curve(s, curve, t)
                p = state.curve.positions.mean(axis=0)
                assert np.max(np.abs(p - p0)) < 1e-9


class TestKernel:
    """Grid synthesis (one inverse FFT) against point synthesis (one matmul)."""

    @staticmethod
    def draw(seed, top, n, band):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=top + 1), rng.normal(size=top + 1)
        b[0] = 0.0
        a[n], b[n] = band, -band
        return SpectralBeta(n=n, cos_coeffs=a, sin_coeffs=b)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.floats(0.0, 2.0),
           st.integers(1, 3), st.sampled_from([5e-11, -5e-11]),
           st.integers(0, 3), st.integers(0, 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_beta_grid_equals_points(self, seed, num, t, n, band, du, dt, data):
        top = data.draw(st.integers(n, 2 * num))
        s = self.draw(seed, top, n, band)
        grid = _beta(s, t, num, du, dt)
        points = evolve_beta(s, t, uniform_grid(num), du=du, dt=dt)
        scale = np.sum(np.abs(_spectrum(s, lambda lam: np.exp(lam * t), du, dt)))
        assert np.max(np.abs(grid - points)) <= 1e-13 * scale

    @given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.integers(1, 3),
           st.sampled_from([5e-11, -5e-11]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_increment_grid_equals_points(self, seed, num, n, band, data):
        top = data.draw(st.integers(n, 2 * num))
        s = self.draw(seed, top, n, band)
        grid = _increment(s, num)
        points = _increment(s, uniform_grid(num))
        scale = np.sum(np.hypot(s.cos_coeffs, s.sin_coeffs)) * 2.0 * np.pi
        assert np.max(np.abs(grid - points)) <= 1e-13 * scale

    def test_folded_frequencies_alias_exactly(self):
        # on 8 points e^{i 11 u} and e^{i 3 u} coincide, and so do e^{-5iu} and e^{3iu};
        # the point path rounds 11 u, so it agrees to about 11 * 2 pi * eps
        p = np.array([11, -5, 0])
        d = np.array([1.0 + 2.0j, -0.5j, 0.25])
        assert np.max(np.abs(_synthesize(p, d, 8) - _synthesize(p, d, uniform_grid(8)))) < 1e-13
        folded = _synthesize(np.array([3, 0]), np.array([1.0 + 1.5j, 0.25]), 8)
        assert np.max(np.abs(_synthesize(p, d, 8) - folded)) < 1e-15

    def test_stacked_columns(self):
        p = np.arange(4)
        d = np.arange(8.0).reshape(4, 2) * (1 + 1j)
        u = uniform_grid(16)
        stacked = _synthesize(p, d, u)
        for col in range(2):
            assert np.max(np.abs(stacked[:, col] - _synthesize(p, d[:, col], u))) < 1e-13
            assert np.max(np.abs(_synthesize(p, d, 16)[:, col] - stacked[:, col])) < 1e-13

    def test_n_band_integrates_linearly(self):
        # beta_0 = a_n cos nu with a_n = 5e-11: int_0^u a_n cos^2 nv dv has the drift a_n u / 2
        s = SpectralBeta.from_modes(2, modes={2: (5e-11, 0.0)})
        u = np.array([np.pi, 2.0 * np.pi])
        assert np.max(np.abs(_increment(s, u)[:, 0] - 2.5e-11 * u)) < 1e-25


class TestSpectralDerivative:
    def test_exact_on_band_limited(self):
        u = uniform_grid(64)
        f = np.cos(3 * u) + 0.5 * np.sin(7 * u)
        df = -3 * np.sin(3 * u) + 3.5 * np.cos(7 * u)
        assert np.max(np.abs(spectral_derivative(f) - df)) < 1e-12
