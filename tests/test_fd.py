"""Finite-difference solvers and the diffeomorphism-PDE bound checks."""

import numpy as np
import pytest

from conftest import roll_phi_fd, sparse_beta_fd
from legendreflow.curves import uniform_grid
from legendreflow.errors import LegendreFlowError, ValidationError
from legendreflow.fd import (
    FDGrid,
    PhiState,
    gradient_bound_envelope,
    solve_beta_fd,
    solve_phi_fd,
)
from legendreflow.spectral import (
    SpectralBeta,
    evolve_beta,
    evolve_curve,
    reconstruct_centered_curve,
)


class TestFDGrid:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValidationError):
            FDGrid(num_points=64, dt=1e-3, scheme="leapfrog")

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValidationError):
            FDGrid(num_points=4, dt=1e-3)
        with pytest.raises(ValidationError):
            FDGrid(num_points=64, dt=0.0)

    def test_stability_bound_value(self):
        grid = FDGrid(num_points=64, dt=1e-3)
        du = 2.0 * np.pi / 64
        assert abs(grid.stable_dt_beta(2) - 4 * du * du / 2) < 1e-15


class TestSolveBetaFD:
    def test_crank_nicolson_matches_exact(self):
        num = 256
        u = uniform_grid(num)
        grid = FDGrid(num_points=num, dt=1e-3, scheme="crank_nicolson")
        approx = solve_beta_fd(np.cos(2 * u), 1, 0.25, grid)
        exact = np.exp(-0.75) * np.cos(2 * u)
        assert np.max(np.abs(approx - exact)) < 5e-5

    def test_pure_reaction(self):
        num = 128
        grid = FDGrid(num_points=num, dt=1e-3)
        approx = solve_beta_fd(np.ones(num), 1, 0.25, grid)
        assert np.max(np.abs(approx - np.exp(0.25))) < 1e-7

    def test_refinement_order(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})

        def err(num, dt):
            u = uniform_grid(num)
            grid = FDGrid(num_points=num, dt=dt, scheme="crank_nicolson")
            approx = solve_beta_fd(evolve_beta(s, 0.0, u), 1, 0.25, grid)
            return np.max(np.abs(approx - evolve_beta(s, 0.25, u)))

        order = np.log2(err(256, 1e-3) / err(512, 5e-4))
        assert order >= 1.9

    def test_explicit_euler_stable_run(self):
        num = 64
        u = uniform_grid(num)
        grid = FDGrid(num_points=num, dt=2e-3, scheme="explicit_euler")
        assert grid.dt <= grid.stable_dt_beta(1)
        approx = solve_beta_fd(np.cos(2 * u), 1, 0.2, grid)
        exact = np.exp(-0.6) * np.cos(2 * u)
        assert np.max(np.abs(approx - exact)) < 5e-3

    def test_explicit_euler_instability_rejected(self):
        num = 256
        grid = FDGrid(num_points=num, dt=1e-2, scheme="explicit_euler")
        with pytest.raises(ValidationError, match="dt <="):
            solve_beta_fd(np.cos(2 * uniform_grid(num)), 1, 0.1, grid)

    @pytest.mark.parametrize("num,dt,final_time,scheme,beta0", [
        (256, 1e-3, 0.25, "crank_nicolson", lambda u: np.cos(2 * u)),
        (128, 1e-3, 0.25, "crank_nicolson", np.ones_like),
        (512, 5e-4, 0.25, "crank_nicolson", lambda u: np.cos(2 * u)),
        (64, 2e-3, 0.2, "explicit_euler", lambda u: np.cos(2 * u)),
        # every mode up to Nyquist, and an odd grid
        (99, 1e-3, 0.1, "crank_nicolson", lambda u: np.sign(np.sin(3 * u)) + u),
        (99, 1e-3, 0.1, "explicit_euler", lambda u: np.sign(np.sin(3 * u)) + u),
    ], ids=["cn256", "cn128-reaction", "cn512", "euler64", "cn99", "euler99"])
    def test_matches_sparse_reference(self, num, dt, final_time, scheme, beta0):
        grid = FDGrid(num_points=num, dt=dt, scheme=scheme)
        b0 = beta0(uniform_grid(num))
        reference = sparse_beta_fd(b0, 1, final_time, grid)
        approx = solve_beta_fd(b0, 1, final_time, grid)
        assert np.max(np.abs(approx - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_singular_crank_nicolson_step_rejected(self):
        # the mean mode's step (1 + dt/2)/(1 - dt/2) has a pole at dt = 2
        grid = FDGrid(num_points=64, dt=2.0)
        with pytest.raises(ValidationError, match="singular"):
            solve_beta_fd(np.ones(64), 1, 2.0, grid)

    @pytest.mark.parametrize("final_time", [1e-12, 0.0])
    def test_no_step_rejected(self, final_time):
        # within the 1e-12 step-count tolerance of 0 steps, which compared
        # beta_0 with the exact flow and failed the oracle verdict on rounding
        grid = FDGrid(num_points=64, dt=1e-3)
        with pytest.raises(ValidationError, match="positive integer number of steps"):
            solve_beta_fd(np.ones(64), 1, final_time, grid)

    def test_sample_count_mismatch_rejected(self):
        grid = FDGrid(num_points=64, dt=1e-3)
        with pytest.raises(ValidationError):
            solve_beta_fd(np.ones(32), 1, 0.1, grid)


def _assert_same_trajectory(traj, ref):
    """Bitwise the same summary at every recorded time and the same last state."""
    for name in ("times", "min_gradient", "max_gradient", "winding_residual"):
        assert getattr(traj, name) == getattr(ref, name)
    assert np.array_equal(traj.final.periodic_part, ref.final.periodic_part)


class TestSolvePhiFD:
    def test_identity_is_a_fixed_point(self):
        num = 128
        state0 = PhiState(periodic_part=np.zeros(num))
        grid = FDGrid(num_points=num, dt=5e-4, scheme="explicit_euler")
        traj = solve_phi_fd(state0, lambda u, t: np.ones_like(u), 1.0, grid)
        assert np.max(np.abs(traj.final.periodic_part)) < 1e-14

    def test_gradient_relaxes_to_one(self):
        # unforced case: the periodic part dissipates and d_u phi -> 1; the
        # linearized mode-1 rate is e^{-t}, so 0.2 e^{-2} ~ 0.027 at t = 2
        # and the deviation passes 1e-3 only near t = ln 200 ~ 5.3
        num = 128
        u = uniform_grid(num)
        state0 = PhiState.from_phi(u + 0.2 * np.sin(u))
        grid = FDGrid(num_points=num, dt=2e-4, scheme="explicit_euler")
        traj = solve_phi_fd(state0, lambda v, t: np.ones_like(v), 2.0, grid)
        dev = max(abs(traj.max_gradient[-1] - 1.0), abs(1.0 - traj.min_gradient[-1]))
        assert abs(dev - 0.2 * np.exp(-2.0)) < 0.2 * 0.2 * np.exp(-2.0)
        longer = solve_phi_fd(traj.final, lambda v, t: np.ones_like(v), 4.0, grid)
        dev_late = max(abs(longer.max_gradient[-1] - 1.0),
                       abs(1.0 - longer.min_gradient[-1]))
        assert dev_late < 1e-3

    @pytest.mark.parametrize("final_time", [1e-3, 0.05])
    def test_trajectory_holds_one_state(self, final_time):
        # 2 or 51 records: the summaries grow, the last state is all that is kept
        num = 64
        u = uniform_grid(num)
        state0 = PhiState.from_phi(u + 0.2 * np.sin(u))
        traj = solve_phi_fd(state0, lambda v, t: np.ones_like(v), final_time,
                            FDGrid(num_points=num, dt=1e-4, scheme="explicit_euler"))
        assert len(traj.times) == round(final_time / 1e-4) // 10 + 1
        fields = vars(traj).values()
        assert [type(v) for v in fields if not isinstance(v, list)] == [PhiState]
        assert all(type(x) is float for v in fields if isinstance(v, list) for x in v)

    def test_winding_conserved(self):
        num = 128
        u = uniform_grid(num)
        state0 = PhiState.from_phi(u + 0.2 * np.sin(u))
        grid = FDGrid(num_points=num, dt=2e-4, scheme="explicit_euler")
        traj = solve_phi_fd(state0, lambda v, t: np.ones_like(v), 1.0, grid)
        assert max(traj.winding_residual) < 1e-8

    def test_forced_gradient_bounds(self):
        num = 128
        u = uniform_grid(num)
        state0 = PhiState.from_phi(u + 0.2 * np.sin(u))
        grid = FDGrid(num_points=num, dt=2e-4, scheme="explicit_euler")
        traj = solve_phi_fd(state0, lambda v, t: np.ones_like(v), 2.0, grid,
                            forcing=lambda v, t: 0.1 * np.sin(v))
        rows = gradient_bound_envelope(traj, lambda t: 0.1)
        for t, lo_bound, lo, hi, hi_bound in rows:
            assert lo_bound - 1e-12 <= lo
            assert hi <= hi_bound + 1e-12


    @pytest.mark.parametrize("num, ell, forcing", [
        (128, lambda v, t: np.ones_like(v), None),
        (128, lambda v, t: np.full_like(v, 2.0), lambda v, t: 0.1 * np.sin(v)),
        (64, lambda v, t: 1.0 + 0.3 * np.cos(v + t), lambda v, t: 0.5 * np.sin(2 * v)),
    ], ids=["unforced", "forced", "varying-ell"])
    def test_bitwise_equal_to_roll_stepper(self, num, ell, forcing):
        u = uniform_grid(num)
        state0 = PhiState.from_phi(u + 0.2 * np.sin(u))
        grid = FDGrid(num_points=num, dt=1e-4, scheme="explicit_euler")
        traj = solve_phi_fd(state0, ell, 0.1, grid, forcing=forcing, record_every=7)
        ref, halvings = roll_phi_fd(state0, ell, 0.1, grid, forcing=forcing, record_every=7)
        assert halvings == 0
        _assert_same_trajectory(traj, ref)

    def test_bitwise_equal_through_step_halving(self):
        # a strong forcing until t = 0.1 pulls min d_u phi down to about 0.26;
        # the explicit step at dt = du^2/2 is then unstable and is halved 4 times
        num = 32
        grid = FDGrid(num_points=num, dt=(2.0 * np.pi / num) ** 2 / 2.0,
                      scheme="explicit_euler")
        state0 = PhiState(periodic_part=np.zeros(num))
        ell = lambda v, t: np.ones_like(v)
        forcing = lambda v, t: 10.0 * np.sin(v) if t < 0.1 else np.zeros_like(v)
        traj = solve_phi_fd(state0, ell, 0.5, grid, forcing=forcing)
        ref, halvings = roll_phi_fd(state0, ell, 0.5, grid, forcing=forcing)
        assert halvings == 4
        _assert_same_trajectory(traj, ref)
        # forced until t = 0.2, the gradient bound is lost after 10 halvings
        longer = lambda v, t: 5.0 * np.sin(v) if t < 0.2 else np.zeros_like(v)
        with pytest.raises(LegendreFlowError, match="10 step halvings"):
            solve_phi_fd(state0, ell, 0.5, grid, forcing=longer)

    def test_unstable_step_rejected(self):
        # l = 1 and phi_u >= 0.8: the bound is du^2 0.64 / 2 ~ 4.8e-5 at N = 512
        num = 512
        u = uniform_grid(num)
        state0 = PhiState.from_phi(u + 0.2 * np.sin(u))
        grid = FDGrid(num_points=num, dt=1e-3, scheme="explicit_euler")
        with pytest.raises(ValidationError, match="dt <="):
            solve_phi_fd(state0, lambda v, t: np.ones_like(v), 0.1, grid)


def tangent_velocity_residual(s, curve, t, dt=1e-5):
    """The tangent velocity T = <d_t X, mu> of the flow (F = 0, l = n) from
    two evolve_curve states dt apart, against d_u beta / n^2 at the midpoint
    time from evolve_beta: the max-norm residual over max(1, max |beta|)."""
    a, b = evolve_curve(s, curve, t), evolve_curve(s, curve, t + dt)
    u = curve.grid
    mu = np.stack([np.cos(s.n * u), np.sin(s.n * u)], axis=-1)
    velocity = np.sum((b.curve.positions - a.curve.positions) / dt * mu, axis=1)
    exact = evolve_beta(s, t + 0.5 * dt, u, du=1) / s.n**2
    scale = max(1.0, float(np.max(np.abs(evolve_beta(s, t + 0.5 * dt, u)))))
    return float(np.max(np.abs(velocity - exact))) / scale


class TestTangentVelocityForm:
    def test_single_mode(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        curve = reconstruct_centered_curve(s, 256)
        assert tangent_velocity_residual(s, curve, 0.5) < 1e-8

    def test_mean_mode_velocity_purely_normal(self):
        s = SpectralBeta.from_modes(1, a0=2.0)
        curve = reconstruct_centered_curve(s, 256)
        assert tangent_velocity_residual(s, curve, 0.3) < 1e-9

    def test_mixed_modes(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0), 5: (0.0, 0.4)})
        curve = reconstruct_centered_curve(s, 512)
        assert tangent_velocity_residual(s, curve, 0.5) < 1e-6

    def test_normal_field_is_static(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        curve = reconstruct_centered_curve(s, 256)
        a = evolve_curve(s, curve, 0.2)
        b = evolve_curve(s, curve, 0.2 + 1e-5)
        assert np.max(np.abs(b.curve.normals - a.curve.normals)) < 1e-10
