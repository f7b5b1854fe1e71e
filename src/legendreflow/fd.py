"""Independent finite-difference oracles.

Two solvers, both deliberately ignorant of the spectral closed forms:

* the linear beta equation d_t beta = d_uu beta / n^2 + beta on the periodic
  grid (explicit Euler on the 3-point stencil, or Crank-Nicolson with the
  compact Pade stencil), used to cross-check the spectral solution at its
  advertised order.  Every step matrix is circulant, so each step multiplies
  the discrete Fourier coefficients of the samples by the stencil's own
  symbol; the 3-point Laplacian's is -4 sin^2(k du/2)/du^2, never the exact
  -k^2 of the closed form;
* the quasi-linear circle-diffeomorphism PDE
      d_t phi = phi_uu / (phi_u^2 (l o phi)^2) - F(phi, t)
  with the exponential gradient envelope e^{-M(t)} min phi_0' <= phi_u <=
  e^{M(t)} max phi_0', M(t) = int_0^t max_u d_u F.

phi is stored as identity plus a periodic part, so the degree-1 constraint
int phi_u du = 2*pi holds structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LegendreFlowError, ValidationError
from .curves import MIN_POINTS, SCHEMES, periodic_diff, uniform_grid


@dataclass(frozen=True)
class FDGrid:
    """Discretization record: N periodic points, step dt, scheme name."""

    num_points: int
    dt: float
    scheme: str = "crank_nicolson"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}; pick from {SCHEMES}")
        if self.num_points < MIN_POINTS or self.dt <= 0.0:
            raise ValidationError(f"need num_points >= {MIN_POINTS} and dt > 0")

    @property
    def du(self):
        return 2.0 * np.pi / self.num_points

    def stable_dt_beta(self, n):
        """Explicit-Euler stability bound for the beta equation."""
        return n * n * self.du * self.du / 2.0


def solve_beta_fd(beta0, n, final_time, grid: FDGrid):
    """March the beta equation to final_time on the periodic grid.

    Each step matrix is circulant, so the march runs on the rfft of the
    samples: one multiplication by the step's symbol per step.  Explicit
    Euler enforces its stability bound up front.
    """
    beta = np.asarray(beta0, dtype=float)
    num = grid.num_points
    if beta.shape[0] != num:
        raise ValidationError(
            f"beta0 has {beta.shape[0]} samples but the grid expects {num}")
    steps = int(round(final_time / grid.dt))
    if steps < 1 or abs(steps * grid.dt - final_time) > 1e-12 * max(1.0, final_time):
        raise ValidationError("final_time must be a positive integer number of steps")
    # symbol of the 3-point periodic Laplacian (u_{j-1} - 2 u_j + u_{j+1})/du^2
    lap = -4.0 * np.sin(0.5 * grid.du * np.arange(num // 2 + 1)) ** 2 / grid.du**2
    if grid.scheme == "explicit_euler":
        bound = grid.stable_dt_beta(n)
        if grid.dt > bound:
            raise ValidationError(
                f"explicit Euler unstable at dt = {grid.dt:g}; "
                f"use dt <= {bound:g}")
        factor = 1.0 + grid.dt * (lap / (n * n) + 1.0)
    else:
        # Crank-Nicolson with the compact (Pade) spatial operator:
        # M d_t beta = (L/n^2 + M) beta with M = I + (du^2/12) L; the plain
        # 3-point operator's truncation error would exceed the advertised
        # agreement tolerance at moderate N.
        mass = 1.0 + grid.du**2 / 12.0 * lap
        stiff = lap / (n * n) + mass
        lhs = mass - 0.5 * grid.dt * stiff
        if np.any(lhs == 0.0):
            raise ValidationError(f"Crank-Nicolson step is singular at dt = {grid.dt:g}")
        factor = (mass + 0.5 * grid.dt * stiff) / lhs
    coeffs = np.fft.rfft(beta)
    for _ in range(steps):
        coeffs = factor * coeffs
    return np.fft.irfft(coeffs, n=num)


@dataclass(frozen=True)
class PhiState:
    """Circle diffeomorphism phi = u + periodic part, plus its data fields."""

    periodic_part: np.ndarray

    @property
    def num_points(self):
        return self.periodic_part.shape[0]

    @property
    def phi(self):
        return uniform_grid(self.num_points) + self.periodic_part

    def gradient(self):
        return 1.0 + periodic_diff(self.periodic_part)

    @classmethod
    def from_phi(cls, phi_samples):
        phi_samples = np.asarray(phi_samples, dtype=float)
        return cls(periodic_part=phi_samples - uniform_grid(phi_samples.shape[0]))


@dataclass
class PhiTrajectory:
    """min and max d_u phi and the winding residual per recorded time, and the last state."""

    times: list = field(default_factory=list)
    min_gradient: list = field(default_factory=list)
    max_gradient: list = field(default_factory=list)
    winding_residual: list = field(default_factory=list)
    final: PhiState | None = None

    def record(self, t, state: PhiState):
        grad = state.gradient()
        du = 2.0 * np.pi / state.num_points
        self.times.append(float(t))
        self.min_gradient.append(float(np.min(grad)))
        self.max_gradient.append(float(np.max(grad)))
        self.winding_residual.append(abs(float(du * np.sum(grad)) - 2.0 * np.pi))
        self.final = state


def solve_phi_fd(state0: PhiState, ell_field, final_time, grid: FDGrid,
                 forcing=None, record_every=10):
    """Explicit stepping of the diffeomorphism PDE on the periodic part.

    ell_field and forcing are callables (u_array, t) -> array; forcing None
    means F == 0 (the special flow's case).  The step must respect the
    diffusive bound dt <= du^2 min(l^2 phi_u^2)/2 of the initial state, checked
    up front.  Every accepted step must keep d_u phi positive; a violation
    triggers step-size halving (at most 10 times) before a hard failure citing
    the gradient bound.
    """
    if forcing is None:
        forcing = lambda u, t: np.zeros_like(u)
    num = state0.num_points
    if num != grid.num_points:
        raise ValidationError("state and grid sample counts differ")
    du = grid.du
    part = state0.periodic_part.copy()
    u = uniform_grid(num)
    ell0 = np.asarray(ell_field(u + part, 0.0), dtype=float)
    bound = du * du * float(np.min((ell0 * state0.gradient()) ** 2)) / 2.0
    if not grid.dt <= bound:
        raise ValidationError(
            f"explicit phi step unstable at dt = {grid.dt:g}; use dt <= {bound:g}")
    trajectory = PhiTrajectory()
    trajectory.record(0.0, PhiState(periodic_part=part.copy()))

    # periodic neighbours j + 1 and j - 1 of every sample
    nxt = np.roll(np.arange(num), -1)
    prv = np.roll(np.arange(num), 1)
    dt = grid.dt
    t = 0.0
    halvings = 0
    step_index = 0
    while t < final_time - 1e-14:
        dt_step = min(dt, final_time - t)
        phi = u + part
        grad = 1.0 + (part[nxt] - part[prv]) / (2.0 * du)
        second = (part[nxt] - 2.0 * part + part[prv]) / (du * du)
        ell = np.asarray(ell_field(phi, t), dtype=float)
        rate = second / (grad * grad * ell * ell) - forcing(phi, t)
        candidate = part + dt_step * rate
        new_grad = 1.0 + (candidate[nxt] - candidate[prv]) / (2.0 * du)
        if (new_grad <= 0.0).any():
            halvings += 1
            if halvings > 10:
                raise LegendreFlowError(
                    "d_u phi lost positivity even after 10 step halvings; the "
                    "gradient bound cannot be maintained at this resolution")
            dt *= 0.5
            continue
        part = candidate
        t += dt_step
        step_index += 1
        if step_index % record_every == 0 or t >= final_time - 1e-14:
            trajectory.record(t, PhiState(periodic_part=part.copy()))
    return trajectory


def gradient_bound_envelope(trajectory: PhiTrajectory, max_du_forcing):
    """Prop-style envelope check data for a forcing with known max d_u F.

    max_du_forcing is a callable t -> max_u d_u F(., t); returns a list of
    (t, lower_bound, min_grad, max_grad, upper_bound) rows using
    M(t) = int_0^t max d_u F dtau (trapezoid over the recorded times).
    """
    g0_min = trajectory.min_gradient[0]
    g0_max = trajectory.max_gradient[0]
    times = np.asarray(trajectory.times)
    rates = np.array([max_du_forcing(t) for t in times])
    m_of_t = np.concatenate([[0.0], np.cumsum(
        0.5 * np.diff(times) * (rates[:-1] + rates[1:]))])
    rows = []
    for t, m, lo, hi in zip(times, m_of_t, trajectory.min_gradient,
                            trajectory.max_gradient):
        rows.append((float(t), float(np.exp(-m) * g0_min), float(lo),
                     float(hi), float(np.exp(m) * g0_max)))
    return rows
