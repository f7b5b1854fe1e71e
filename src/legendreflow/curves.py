"""Sampled Legendre curves, moving frames and Legendre curvature.

A Legendre curve is a pair (X, nu) of a closed plane frontal X with its unit
normal field nu, sampled on a uniform periodic grid u_j = 2*pi*j/N.  The
tangent direction is mu = J nu (rotation by +pi/2), and the Legendre
curvature is the pair

    l    = <d_u nu, mu>      (frame rotation speed),
    beta = <d_u X,  mu>      (signed speed along mu; X is singular at beta=0).

Sampled data is differentiated with centered second-order periodic
differences; everything spectral lives in :mod:`legendreflow.spectral`.

The uniform grid (per N) and the normal-form frame (per (n, N)) are built
once per size and shared as read-only arrays, as are the FFT symbols of
spectral and reparam: see _table for the bound on what is kept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvexityError,
    GridTooCoarseError,
    InconsistentNormalFieldError,
    ValidationError,
)

UNIT_NORM_TOL = 1e-12
ROTATION_INDEX_TOL = 1e-6
# The finite-difference oracles' schemes and smallest periodic grid; fd takes
# them from here, so the CLI validates its options without loading fd.
SCHEMES = ("explicit_euler", "crank_nicolson")
MIN_POINTS = 8
#: Most per-size tables kept at once, and most bytes they hold in all.
TABLE_BOUND = 256
TABLE_BYTES = 2 ** 24

_tables = {}
_tables_lock = threading.Lock()


def _table(key, build):
    """The read-only array build(), built once per key.

    A table depends on its key alone (a grid size, a rotation index, a
    truncation), so every caller shares one copy, and no caller can write it.
    At most TABLE_BOUND tables of TABLE_BYTES = 16 MiB in all are kept, the
    oldest dropped first, and a larger table is built on every call.  At the
    CLI's MAX_SAMPLES, N = 2**16, a frame takes 1 MiB and a grid 0.5 MiB, so
    the bytes bound is reached after about 10 such sizes.  A run at 12 sizes
    up to N = 8192 with K <= 32 keeps about 95 tables in 0.7 MiB.  Threads may
    build one table twice, but all of them get the copy that was kept first.
    """
    table = _tables.get(key)
    if table is None:
        table = build()
        table.setflags(write=False)
        if table.nbytes > TABLE_BYTES:
            return table
        with _tables_lock:
            if key not in _tables:
                kept = sum(other.nbytes for other in _tables.values())
                while _tables and (len(_tables) >= TABLE_BOUND
                                   or kept + table.nbytes > TABLE_BYTES):
                    kept -= _tables.pop(next(iter(_tables))).nbytes
                _tables[key] = table
            table = _tables[key]
    return table


def uniform_grid(n_samples):
    """Uniform periodic grid on [0, 2*pi), endpoint excluded; read-only, built
    once per n_samples."""
    return _table(("grid", n_samples),
                  lambda: np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False))


def periodic_diff(values, axis=0):
    """Centered second-order derivative on the periodic grid."""
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    du = 2.0 * np.pi / n
    return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * du)


def _normals(n, u):
    return np.stack([np.sin(n * u), -np.cos(n * u)], axis=-1)


def normal_form_normals(n, u):
    """nu(u) = (sin nu, -cos nu), the normal field of a curve in normal form
    with rotation index n; the flow keeps it frozen.

    u is an array of points, or an int N for the uniform N-point grid: that
    frame is read-only and built once per (n, N)."""
    if isinstance(u, (int, np.integer)):
        return _table(("frame", n, u), lambda: _normals(n, uniform_grid(u)))
    return _normals(n, np.asarray(u, dtype=float))


def frame_from_normal(nu):
    """Rotate a unit normal anticlockwise by pi/2: mu = J nu = (-nu_y, nu_x)."""
    nu = np.asarray(nu, dtype=float)
    norm = np.hypot(nu[..., 0], nu[..., 1])
    bad = np.abs(norm - 1.0) > UNIT_NORM_TOL
    if np.any(bad):
        offending = float(np.atleast_1d(norm)[np.atleast_1d(bad)][0])
        raise ValidationError(f"normal is not a unit vector: |nu| = {offending!r}")
    return np.stack([-nu[..., 1], nu[..., 0]], axis=-1)


@dataclass(frozen=True)
class LegendreCurve:
    """Closed sampled frontal with unit normal field.

    positions and normals are (N, 2) arrays over the uniform grid; index
    arithmetic is modulo N.
    """

    positions: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=float))
        nor = np.ascontiguousarray(np.asarray(self.normals, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape != nor.shape:
            raise ValidationError("positions and normals must both have shape (N, 2)")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "normals", nor)
        pos.setflags(write=False)
        nor.setflags(write=False)

    @property
    def grid_size(self):
        return self.positions.shape[0]

    @property
    def grid(self):
        return uniform_grid(self.grid_size)

    def validate(self, frontal_tol=None):
        """Check the unit-normal and frontal invariants.

        The frontal residual max |<dX/du, nu>| is O(du^2) for smooth data;
        the default tolerance scales with du^2 and the tangential speed.
        """
        norms = np.linalg.norm(self.normals, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
            raise ValidationError(
                f"non-unit normal: worst |nu| = {norms[np.argmax(np.abs(norms - 1.0))]!r}"
            )
        dX = periodic_diff(self.positions)
        residual = np.max(np.abs(np.sum(dX * self.normals, axis=1)))
        if frontal_tol is None:
            du = 2.0 * np.pi / self.grid_size
            speed = max(1.0, float(np.max(np.abs(dX))))
            frontal_tol = 50.0 * du * du * speed
        if residual > frontal_tol:
            raise ValidationError(
                f"frontal condition violated: max |<dX/du, nu>| = {residual:g} "
                f"> {frontal_tol:g}"
            )
        return residual


@dataclass(frozen=True)
class LegendreCurvature:
    """Sampled Legendre curvature pair (l, beta)."""

    ell: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if ell.shape != beta.shape or ell.ndim != 1:
            raise ValidationError("ell and beta must be 1-d arrays of equal length")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class AngleField:
    """Unwrapped angle Theta with nu = (sin Theta, -cos Theta)."""

    theta: np.ndarray
    rotation_index: int

    def theta_closing(self):
        """Theta(2*pi), fixed by the rotation index bookkeeping."""
        return float(self.theta[0]) + 2.0 * np.pi * self.rotation_index


def curvature_from_samples(curve: LegendreCurve) -> LegendreCurvature:
    """Legendre curvature by centered periodic differences, O(du^2)."""
    if curve.grid_size < 8:
        raise GridTooCoarseError(
            f"need at least 8 samples, got {curve.grid_size}"
        )
    mu = frame_from_normal(curve.normals)
    d_nu = periodic_diff(curve.normals)
    d_X = periodic_diff(curve.positions)
    ell = np.sum(d_nu * mu, axis=1)
    beta = np.sum(d_X * mu, axis=1)
    return LegendreCurvature(ell=ell, beta=beta)


def angle_unwrap(curve: LegendreCurve) -> AngleField:
    """Continuous angle samples and the rotation index of the normal field.

    Requires an l-convex curve so that Theta is strictly increasing and the
    nearest-branch continuation (neighbor jumps < pi) is unambiguous.
    """
    nu = curve.normals
    # nu = (sin Theta, -cos Theta)  =>  Theta = atan2(nu_x, -nu_y)
    raw = np.arctan2(nu[:, 0], -nu[:, 1])
    theta = np.unwrap(raw)
    increments = np.diff(theta)
    # total turning over one period, wrapping the last sample back to the first
    last_jump = (raw[0] - raw[-1] + np.pi) % (2.0 * np.pi) - np.pi
    total = (theta[-1] - theta[0]) + last_jump
    if np.any(increments <= 0.0) or last_jump <= 0.0:
        raise ConvexityError("angle field is not monotone; curve is not l-convex")
    index = total / (2.0 * np.pi)
    n = int(np.round(index))
    if abs(index - n) >= ROTATION_INDEX_TOL or n < 1:
        raise InconsistentNormalFieldError(
            f"rotation index {index!r} is not within {ROTATION_INDEX_TOL:g} of a "
            "positive integer"
        )
    # sanity: the unwrap must reproduce the normal field
    recon = np.stack([np.sin(theta), -np.cos(theta)], axis=1)
    if np.max(np.abs(recon - nu)) > 1e-10:
        raise InconsistentNormalFieldError("unwrapped angle does not reproduce nu")
    return AngleField(theta=theta, rotation_index=n)


def check_closure(beta, n):
    """Closure residual of a curve rebuilt from beta with nu = (sin nu, -cos nu).

    Returns the trapezoid quadrature of integral(beta * (cos(n u), sin(n u)) du)
    over one period; the curve closes iff the residual vanishes.  Under the
    module's Fourier normalization this equals pi * (a_n, b_n).
    """
    beta = np.asarray(beta, dtype=float)
    u = uniform_grid(beta.shape[0])
    du = 2.0 * np.pi / beta.shape[0]
    rx = du * np.sum(beta * np.cos(n * u))
    ry = du * np.sum(beta * np.sin(n * u))
    return np.array([rx, ry])
