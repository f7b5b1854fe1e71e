"""Static reparametrization to the normal form nu(u) = (sin nu, -cos nu).

Any l-convex closed Legendre curve can be re-parametrized by a degree-1
circle diffeomorphism phi so that the normal field spins uniformly and
l == n, the rotation index.  phi = phi1 o phi2 where phi1 inverts the
cumulative turning map psi1(v) = (1/n) int_0^v l and phi2 shifts by
theta0/n to kill the residual phase of the normal field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import LegendreCurve, angle_unwrap, curvature_from_samples, uniform_grid
from .errors import ConvexityError, InconsistentNormalFieldError, ValidationError

ROTATION_INDEX_TOL = 1e-6


@dataclass(frozen=True)
class Reparametrization:
    """Sampled diffeomorphism phi with its derivative and bookkeeping."""

    phi: np.ndarray
    phi_prime: np.ndarray
    rotation_index: int
    theta0: float = 0.0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        dphi = np.asarray(self.phi_prime, dtype=float)
        if np.any(dphi <= 0.0):
            raise ValidationError("phi is not orientation-preserving (d_u phi <= 0)")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_prime", dphi)

    def winding_increment(self):
        """phi(2*pi) - phi(0); must be 2*pi for a degree-1 circle map."""
        du = 2.0 * np.pi / self.phi.shape[0]
        # trapezoid of the (periodic) derivative samples
        return float(du * np.sum(self.phi_prime))


def image_hausdorff_distance(curve_a: LegendreCurve, curve_b: LegendreCurve,
                             upsample=8):
    """Symmetric Hausdorff distance between the traced images.

    Both sample sets are upsampled with periodic cubic splines and each point
    is measured against the nearest polyline *segments* of the other curve,
    so the result reflects the images rather than the sampling phase.
    """
    from scipy.spatial import cKDTree

    def dense(curve):
        num = curve.grid_size * upsample
        t = np.linspace(0.0, 2.0 * np.pi, num, endpoint=False)
        xs = _periodic_component_spline(curve.positions[:, 0])(t)
        ys = _periodic_component_spline(curve.positions[:, 1])(t)
        return np.stack([xs, ys], axis=-1)

    def one_sided(points, polyline):
        tree = cKDTree(polyline)
        _, idx = tree.query(points)
        num = polyline.shape[0]
        best = None
        for shift in (-1, 0):
            a = polyline[(idx + shift) % num]
            b = polyline[(idx + shift + 1) % num]
            ab = b - a
            denom = np.einsum("ij,ij->i", ab, ab)
            frac = np.clip(np.einsum("ij,ij->i", points - a, ab)
                           / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
            proj = a + frac[:, None] * ab
            dist = np.linalg.norm(points - proj, axis=1)
            best = dist if best is None else np.minimum(best, dist)
        return float(np.max(best))

    pa, pb = dense(curve_a), dense(curve_b)
    return max(one_sided(pa, pb), one_sided(pb, pa))


def build_psi1(ell, n):
    """Cumulative turning map psi1(v) = (1/n) int_0^v l, trapezoid quadrature.

    Returns the N + 1 node values on [0, 2*pi] (psi1(0) = 0); strictly
    increasing for l-convex input, with psi1(2*pi) = 2*pi up to quadrature
    error.
    """
    ell = np.asarray(ell, dtype=float)
    if np.any(ell <= 0.0):
        raise ConvexityError("l must be positive everywhere")
    num = ell.shape[0]
    du = 2.0 * np.pi / num
    total = du * np.sum(ell)  # periodic trapezoid over the full period
    index = total / (2.0 * np.pi * n)
    if abs(index - 1.0) >= ROTATION_INDEX_TOL:
        raise InconsistentNormalFieldError(
            f"(1/2pi) int l = {total / (2.0 * np.pi)!r} is inconsistent with "
            f"rotation index {n}"
        )
    closed = np.append(ell, ell[0])
    psi = np.concatenate([[0.0], np.cumsum(0.5 * du * (closed[:-1] + closed[1:]))]) / n
    return psi


def _invert_monotone(node_values, targets, derivative_nodes):
    """Invert a strictly increasing node table on [0, 2*pi].

    Monotone-cubic interpolation of the table, linear-interp bracket guess,
    then Newton iterations (safeguarded by clipping into the bracket).
    """
    from scipy.interpolate import PchipInterpolator
    v_nodes = np.linspace(0.0, 2.0 * np.pi, node_values.shape[0])
    table = PchipInterpolator(v_nodes, node_values)
    slope = PchipInterpolator(v_nodes, derivative_nodes)
    guess = np.interp(targets, node_values, v_nodes)
    v = np.clip(guess, 0.0, 2.0 * np.pi)
    for _ in range(60):
        residual = table(v) - targets
        if np.max(np.abs(residual)) < 1e-13:
            break
        v = np.clip(v - residual / slope(v), 0.0, 2.0 * np.pi)
    return v


def _periodic_component_spline(values):
    from scipy.interpolate import CubicSpline
    num = values.shape[0]
    nodes = np.linspace(0.0, 2.0 * np.pi, num + 1)
    closed = np.concatenate([values, values[:1]])
    return CubicSpline(nodes, closed, bc_type="periodic")


def reparametrize(curve: LegendreCurve):
    """Resample an l-convex closed curve into normal form.

    Returns the re-parametrized curve (X o phi, nu o phi) on the same uniform
    grid, with nu(u) = (sin nu, -cos nu) and l == n up to interpolation and
    finite-difference tolerance, together with the Reparametrization record.
    """
    curve.validate()
    curvature = curvature_from_samples(curve)
    if not curvature.is_l_convex:
        raise ConvexityError("curve is not l-convex; cannot normalize")
    angle = angle_unwrap(curve)
    n = angle.rotation_index
    theta0 = float(np.mod(angle.theta[0], 2.0 * np.pi))

    # psi1(v) = (Theta(v) - Theta(0)) / n: identical to the cumulative
    # trapezoid of l/n but free of quadrature error, since l = d_u Theta.
    psi_nodes = np.append(angle.theta - angle.theta[0], 2.0 * np.pi * n) / n
    ell_nodes = np.append(curvature.ell, curvature.ell[0]) / n

    u = curve.grid
    shifted = np.mod(u - theta0 / n, 2.0 * np.pi)
    phi_raw = _invert_monotone(psi_nodes, shifted, ell_nodes)

    x_spline = _periodic_component_spline(curve.positions[:, 0])
    y_spline = _periodic_component_spline(curve.positions[:, 1])
    nx_spline = _periodic_component_spline(curve.normals[:, 0])
    ny_spline = _periodic_component_spline(curve.normals[:, 1])

    positions = np.stack([x_spline(phi_raw), y_spline(phi_raw)], axis=-1)
    normals = np.stack([nx_spline(phi_raw), ny_spline(phi_raw)], axis=-1)
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)

    new_curve = LegendreCurve(positions=positions, normals=normals)

    # unwrap phi so that increments stay positive across the seam
    phi = phi_raw + 2.0 * np.pi * np.cumsum(
        np.concatenate([[0.0], (np.diff(phi_raw) < 0).astype(float)]))
    # d_u phi from the periodic part phi - u by spectral differentiation;
    # this keeps the winding integral of phi_prime at 2*pi to rounding,
    # unlike n / (l o phi) whose finite-difference l error would leak in
    from .spectral import spectral_derivative
    phi_prime = 1.0 + spectral_derivative(phi - u)
    record = Reparametrization(phi=phi, phi_prime=phi_prime,
                               rotation_index=n, theta0=theta0)
    return new_curve, record
