"""Frames, sampled curvature, angle unwrapping and the closure functional."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legendreflow.curves import (
    LegendreCurve,
    angle_unwrap,
    check_closure,
    curvature_from_samples,
    frame_from_normal,
    uniform_grid,
)
from legendreflow.errors import (
    ConvexityError,
    GridTooCoarseError,
    ValidationError,
)
from legendreflow.spectral import SpectralBeta, analyze_beta, evolve_beta


def circle_curve(num, n=1, radius=1.0, center=(0.0, 0.0)):
    u = uniform_grid(num)
    nu = np.stack([np.sin(n * u), -np.cos(n * u)], axis=-1)
    pos = np.asarray(center) + radius * nu
    return LegendreCurve(positions=pos, normals=nu)


class TestFrame:
    def test_rotates_by_quarter_turn(self):
        mu = frame_from_normal(np.array([0.0, -1.0]))
        assert np.allclose(mu, [1.0, 0.0])

    @given(st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=50, deadline=None)
    def test_J_squared_is_minus_identity(self, angle):
        nu = np.array([np.cos(angle), np.sin(angle)])
        twice = frame_from_normal(frame_from_normal(nu))
        assert np.max(np.abs(twice + nu)) < 1e-15

    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            frame_from_normal(np.array([0.5, 0.0]))


class TestLegendreCurve:
    def test_circle_validates(self):
        res = circle_curve(256).validate()
        assert res < 1e-3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            LegendreCurve(positions=np.zeros((8, 2)), normals=np.zeros((9, 2)))

    def test_frontal_violation_detected(self):
        u = uniform_grid(128)
        pos = np.stack([np.cos(u), np.sin(u)], axis=-1)
        nu = np.stack([np.sin(u), -np.cos(u)], axis=-1)  # tangent, not normal
        with pytest.raises(ValidationError):
            LegendreCurve(positions=pos, normals=nu).validate()

    def test_frontal_residual_second_order(self):
        # residual of the warped circle shrinks ~4x per grid doubling
        def residual(num):
            u = uniform_grid(num)
            psi = u + 0.3 * np.sin(u)
            nu = np.stack([np.sin(psi), -np.cos(psi)], axis=-1)
            pos = nu.copy()
            return LegendreCurve(positions=pos, normals=nu).validate()

        r1, r2, r3 = residual(64), residual(128), residual(256)
        assert 3.5 < r1 / r2 < 4.5
        assert 3.5 < r2 / r3 < 4.5


class TestCurvatureFromSamples:
    @pytest.mark.parametrize("n,radius", [(1, 1.0), (2, 0.7), (3, 2.0)])
    def test_circle_family(self, n, radius):
        num = 512
        cv = curvature_from_samples(circle_curve(num, n=n, radius=radius))
        du = 2.0 * np.pi / num
        tol = 10.0 * du * du * max(1.0, n * n * radius)
        assert np.max(np.abs(cv.ell - n)) < tol
        assert np.max(np.abs(cv.beta - radius * n)) < tol

    def test_second_order_convergence(self):
        errs = []
        for num in (64, 128, 256):
            cv = curvature_from_samples(circle_curve(num, n=2, radius=0.7))
            errs.append(np.max(np.abs(cv.ell - 2.0)))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridTooCoarseError):
            curvature_from_samples(circle_curve(4))


class TestAngleUnwrap:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rotation_index(self, n):
        field = angle_unwrap(circle_curve(512, n=n))
        assert field.rotation_index == n
        u = uniform_grid(512)
        assert np.max(np.abs(field.theta - field.theta[0] - n * u)) < 1e-12
        assert abs(field.theta_closing() - field.theta[0] - 2 * np.pi * n) < 1e-12

    def test_non_monotone_rejected(self):
        u = uniform_grid(256)
        psi = u + 1.2 * np.sin(u)  # d_u psi dips negative
        nu = np.stack([np.sin(psi), -np.cos(psi)], axis=-1)
        curve = LegendreCurve(positions=nu, normals=nu)
        with pytest.raises(ConvexityError):
            angle_unwrap(curve)


class TestCheckClosure:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_equals_pi_times_band_coefficients(self, seed, band):
        # free data (no closure imposed): the residual must be pi*(a_k, b_k)
        rng = np.random.default_rng(seed)
        top = 6
        a = rng.normal(size=top + 1)
        b = rng.normal(size=top + 1)
        b[0] = 0.0
        num = 128
        u = uniform_grid(num)
        beta = a[0] + sum(a[k] * np.cos(k * u) + b[k] * np.sin(k * u)
                          for k in range(1, top + 1))
        s = analyze_beta(beta, n=top + 1)  # n outside the band: no zeroing
        residual = check_closure(beta, band)
        expected = np.pi * np.array([s.cos_coeffs[band], s.sin_coeffs[band]])
        assert np.max(np.abs(residual - expected)) < 1e-12

    def test_closed_mode_has_zero_residual(self):
        u = uniform_grid(256)
        assert np.max(np.abs(check_closure(np.cos(2 * u), 1))) < 1e-12


def flow_residual(s, t, num=512):
    """max |d_t beta - (d_uu beta / n^2 + beta)| on a grid, each term from
    evolve_beta; with l = n the general form N l + d_u T (N = beta/l, T =
    d_u beta/l^2) is the same equation."""
    u = uniform_grid(num)
    rhs = evolve_beta(s, t, u, du=2) / s.n**2 + evolve_beta(s, t, u)
    return float(np.max(np.abs(evolve_beta(s, t, u, dt=1) - rhs)))


class TestGeometricResiduals:
    def test_mean_mode(self):
        s = SpectralBeta.from_modes(1, a0=1.0)
        assert flow_residual(s, 0.7) < 1e-12

    def test_single_cosine_mode(self):
        # d_t e^{-3t} cos 2u = -3 e^{-3t} cos 2u = (d_uu + 1) e^{-3t} cos 2u
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        assert flow_residual(s, 0.5) < 1e-10

    def test_mixed_modes_index_two(self):
        s = SpectralBeta.from_modes(2, modes={3: (0.4, 0.0), 5: (0.0, 0.2)})
        assert flow_residual(s, 1.0) < 1e-10
