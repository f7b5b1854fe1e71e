"""Normal-form reparametrization and the cumulative turning map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legendreflow.curves import (
    LegendreCurve,
    angle_unwrap,
    curvature_from_samples,
    uniform_grid,
)
from legendreflow.errors import ConvexityError, GridTooCoarseError
from legendreflow.reparam import (
    Reparametrization,
    _invert_monotone,
    _periodic_component_spline,
    image_hausdorff_distance,
    reparametrize,
)


def warped_circle(num=512, amplitude=0.3, n=1, harmonic=1):
    """Unit circle traced with parameter speed warped by psi(u) = u + a sin(m u)."""
    u = uniform_grid(num)
    psi = u + amplitude * np.sin(n * harmonic * u) / n
    nu = np.stack([np.sin(n * psi), -np.cos(n * psi)], axis=-1)
    pos = nu / n
    return LegendreCurve(positions=pos, normals=nu)


class TestPeriodicSpline:
    @given(st.integers(8, 2048), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_periodic_cubic_spline(self, num, seed):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(seed)
        y = rng.normal(size=num)
        v = rng.uniform(0.0, 2.0 * np.pi, 200)
        reference = CubicSpline(np.linspace(0.0, 2.0 * np.pi, num + 1),
                                np.append(y, y[0]), bc_type="periodic")
        spline = _periodic_component_spline(y)
        scale = np.max(np.abs(y))
        assert np.max(np.abs(spline(v) - reference(v))) <= 1e-12 * scale
        # the offset of v in its cell carries a rounding error of about
        # eps * num cells; times s'' (up to ~ scale * num^2 for rough data)
        # that is a slope error of ~ eps * num^2 * scale in either
        # implementation, 1.5e-10 * scale at num = 2048
        assert np.max(np.abs(spline(v, 1) - reference(v, 1))) <= 1e-12 * num * scale


class TestInvertMonotone:
    @pytest.mark.parametrize("ratio", [8.0, 20.0, 577.0])
    def test_one_cell_corner_stays_monotone(self, ratio):
        # psi nodes of an l that jumps by `ratio` over one cell of 64: the
        # periodic spline of such data overshoots and is not monotone, so its
        # inverse would pick preimages outside the target's cell
        num = 64
        du = 2.0 * np.pi / num
        ell = np.ones(num)
        ell[num // 2] = ratio
        nodes = np.append(0.0, np.cumsum(ell) * 2.0 * np.pi / np.sum(ell))
        nodes[-1] = 2.0 * np.pi
        assert np.max(np.abs(_invert_monotone(nodes, nodes[:-1])
                             - du * np.arange(num))) < 1e-12
        targets = np.linspace(0.0, 2.0 * np.pi, 4000, endpoint=False)
        v = _invert_monotone(nodes, targets)
        assert np.all(np.diff(v) > 0.0)
        cell = np.searchsorted(nodes, targets, side="right") - 1
        assert np.all((v >= du * cell - 1e-12) & (v <= du * (cell + 1) + 1e-12))

    def test_sharp_warp_matches_bisection(self):
        # l = 1 + 0.95 cos 8u varies 39:1 with eight samples per wave
        curve = warped_circle(64, amplitude=0.95 / 8.0, n=1, harmonic=8)
        _, record = reparametrize(curve)
        from scipy.optimize import brentq
        u = uniform_grid(64)
        targets = np.mod(u - record.theta0, 2.0 * np.pi)
        phi_oracle = np.array([
            brentq(lambda v: v + 0.95 * np.sin(8.0 * v) / 8.0 - target, -1.0,
                   2.0 * np.pi + 1.0)
            for target in targets])
        assert np.max(np.abs(np.exp(1j * record.phi)
                             - np.exp(1j * phi_oracle))) < 2e-4


class TestReparametrization:
    def test_winding_increment(self):
        _, record = reparametrize(warped_circle())
        assert abs(record.winding_increment() - 2.0 * np.pi) < 1e-8

    def test_orientation_enforced(self):
        phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        with pytest.raises(Exception):
            Reparametrization(phi=phi, phi_prime=np.full(64, -1.0),
                              rotation_index=1)


class TestReparametrize:
    def test_identity_on_normal_form(self):
        u = uniform_grid(512)
        nu = np.stack([np.sin(u), -np.cos(u)], axis=-1)
        curve = LegendreCurve(positions=nu, normals=nu)
        out, record = reparametrize(curve)
        assert record.rotation_index == 1
        assert np.max(np.abs(record.phi - u)) < 1e-10
        assert np.max(np.abs(out.positions - curve.positions)) < 1e-10

    def test_warped_circle(self):
        curve = warped_circle(512, amplitude=0.3)
        out, record = reparametrize(curve)
        assert record.rotation_index == 1
        cv = curvature_from_samples(out)
        assert np.max(np.abs(cv.ell - 1.0)) < 1e-4
        u = uniform_grid(512)
        target_nu = np.stack([np.sin(u), -np.cos(u)], axis=-1)
        assert np.max(np.abs(out.normals - target_nu)) < 1e-5
        # oracle: invert psi numerically by bisection and resample directly
        from scipy.optimize import brentq
        phi_oracle = np.array([
            brentq(lambda v: v + 0.3 * np.sin(v) - target, 0.0 - 1.0,
                   2.0 * np.pi + 1.0)
            for target in u])
        assert np.max(np.abs(np.exp(1j * record.phi)
                             - np.exp(1j * phi_oracle))) < 1e-6

    def test_doubled_circle(self):
        curve = warped_circle(512, amplitude=0.2, n=2)
        out, record = reparametrize(curve)
        assert record.rotation_index == 2
        cv = curvature_from_samples(out)
        # the centered-difference l of even a perfect n = 2 circle is off by
        # n^3 du^2 / 6 ~ 2e-4 at N = 512; stay just above that floor
        du = 2.0 * np.pi / 512
        floor = 8.0 * du * du / 6.0
        assert np.max(np.abs(cv.ell - 2.0)) < 1.5 * floor

    def test_image_preserved(self):
        curve = warped_circle(512, amplitude=0.3)
        out, _ = reparametrize(curve)
        assert image_hausdorff_distance(curve, out) < 1e-5

    @pytest.mark.parametrize("num,tol", [(512, 1e-6), (2048, 1e-8)])
    def test_inversion_round_trip(self, num, tol):
        # psi(phi(u)) = u - theta0 mod 2*pi; the residual shrinks at the
        # interpolation order under grid refinement
        curve = warped_circle(num, amplitude=0.3)
        _, record = reparametrize(curve)
        psi = record.phi + 0.3 * np.sin(record.phi)
        u = uniform_grid(num)
        assert np.max(np.abs(np.exp(1j * psi)
                             - np.exp(1j * (u - record.theta0)))) < tol

    def test_phi_prime_matches_ell(self):
        curve = warped_circle(512, amplitude=0.3)
        _, record = reparametrize(curve)
        # d_u phi = n / (l o phi); here l(v) = psi'(v) = 1 + 0.3 cos v
        expected = 1.0 / (1.0 + 0.3 * np.cos(record.phi))
        assert np.max(np.abs(record.phi_prime - expected)) < 1e-5

    def test_output_angle_is_linear(self):
        curve = warped_circle(512, amplitude=0.3)
        out, record = reparametrize(curve)
        field = angle_unwrap(out)
        assert field.rotation_index == record.rotation_index
        u = uniform_grid(512)
        assert np.max(np.abs(np.exp(1j * field.theta) - np.exp(1j * u))) < 1e-5

    def test_non_convex_rejected(self):
        u = uniform_grid(512)
        psi = u + 1.5 * np.sin(u)
        nu = np.stack([np.sin(psi), -np.cos(psi)], axis=-1)
        curve = LegendreCurve(positions=nu, normals=nu)
        with pytest.raises(ConvexityError):
            reparametrize(curve)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normals_in_normal_form(self, n):
        # Theta o phi = nu mod 2*pi by construction, so the normals are exact
        out, _ = reparametrize(warped_circle(256, amplitude=0.3, n=n))
        nu = n * uniform_grid(256)
        assert np.array_equal(out.normals, np.stack([np.sin(nu), -np.cos(nu)], axis=-1))

    def test_seven_samples_refused(self):
        with pytest.raises(GridTooCoarseError):
            reparametrize(warped_circle(7, amplitude=0.0))
