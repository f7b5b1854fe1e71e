"""Static reparametrization to the normal form nu(u) = (sin nu, -cos nu).

Any l-convex closed Legendre curve can be re-parametrized by a degree-1
circle diffeomorphism phi so that the normal field spins uniformly and
l == n, the rotation index.  phi = phi1 o phi2 where phi1 inverts the
cumulative turning map psi1(v) = (1/n) int_0^v l and phi2 shifts by
theta0/n to kill the residual phase of the normal field.

Both steps rest on one periodic cubic spline, whose B-spline coefficients
come from a circulant solve on the DFT of the samples: psi1 = v + (periodic
part) is inverted by safeguarded Newton steps on the cubic Hermite with the
spline's node slopes, limited where needed so that it stays monotone, and
the positions are resampled at phi by their spline.  The normals are
(sin nu, -cos nu) by construction: Theta o phi = nu mod 2*pi.

The spline symbol 6/(4 + 2 cos(k du)) (per N), the grid and the frame are
built once and shared read-only through the memo of
:mod:`legendreflow.curves` (bounded, see curves._table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (MIN_POINTS, LegendreCurve, _table, angle_unwrap, normal_form_normals,
                     uniform_grid)
from .errors import GridTooCoarseError, InvariantViolationError, ValidationError


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
    def dense(curve):
        num = curve.grid_size * upsample
        return _periodic_component_spline(curve.positions)(uniform_grid(num))

    def one_sided(points, polyline):
        num = polyline.shape[0]
        # nearest polyline node of each point, about 2**20 pairs at a time
        chunk = max(1, 2**20 // num)
        qx, qy = np.ascontiguousarray(polyline.T)
        idx = np.concatenate([
            np.argmin((points[i:i + chunk, :1] - qx) ** 2
                      + (points[i:i + chunk, 1:] - qy) ** 2, axis=1)
            for i in range(0, points.shape[0], chunk)])
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


def _invert_monotone(node_values, targets):
    """Invert psi(v) = v + p(v), p periodic, from the strictly increasing psi
    at the N + 1 nodes of [0, 2*pi].

    psi is the cubic Hermite interpolant whose node slopes are those of the
    periodic spline of p, 1 + p'(v_j), limited to [0, 3 min(adjacent secants)]
    (Hyman's filter).  That keeps every cell monotone, so each target has one
    preimage, and where no slope is limited the interpolant is the spline
    itself.  Each target is solved in its cell by Newton steps on the cell
    parameter, falling back to bisection of the bracket when a step leaves it.
    """
    num = node_values.shape[0] - 1
    du = 2.0 * np.pi / num
    secant = np.diff(node_values) / du
    slope = 1.0 + _periodic_component_spline(node_values[:-1] - du * np.arange(num))(
        du * np.arange(num), 1)
    slope = np.clip(slope, 0.0, 3.0 * np.minimum(secant, np.roll(secant, 1)))
    slope = np.append(slope, slope[0])

    cell = np.clip(np.searchsorted(node_values, targets, side="right") - 1, 0, num - 1)
    y0, y1 = node_values[cell], node_values[cell + 1]
    d0, d1 = du * slope[cell], du * slope[cell + 1]
    lo, hi = np.zeros_like(y0), np.ones_like(y0)
    f = np.clip((targets - y0) / (y1 - y0), 0.0, 1.0)
    for _ in range(60):
        g = 1.0 - f
        residual = (y0 * g * g * (1.0 + 2.0 * f) + d0 * f * g * g
                    + y1 * f * f * (1.0 + 2.0 * g) - d1 * f * f * g - targets)
        done = np.abs(residual) < 1e-13
        if done.all():
            break
        lo = np.where(residual < 0.0, f, lo)
        hi = np.where(residual > 0.0, f, hi)
        rate = 6.0 * f * g * (y1 - y0) + d0 * g * (g - 2.0 * f) + d1 * f * (f - 2.0 * g)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f - residual / rate
        f = np.where(done, f, np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi)))
    else:
        raise InvariantViolationError(
            f"psi inversion did not converge (residual {np.max(np.abs(residual)):.3g})")
    return du * (cell + f)


def _periodic_component_spline(values):
    """Periodic cubic spline through samples on the N uniform nodes of [0, 2*pi).

    values holds the N samples along axis 0; further axes are splined
    together.  The B-spline coefficients solve the circulant system
    (c_{j-1} + 4 c_j + c_{j+1})/6 = y_j by one division on the DFT,
    c_k = y_k 6/(4 + 2 cos(k du)).  The returned evaluate(v, nu=0) gives the
    spline (nu = 0) or its derivative (nu = 1) at the points v from the four
    cubic B-spline weights around each point.
    """
    values = np.asarray(values, dtype=float)
    num = values.shape[0]
    du = 2.0 * np.pi / num
    symbol = _table(("spline symbol", num),
                    lambda: 6.0 / (4.0 + 2.0 * np.cos(du * np.arange(num // 2 + 1))))
    coeffs = np.fft.irfft(np.fft.rfft(values, axis=0)
                          * symbol.reshape((-1,) + (1,) * (values.ndim - 1)),
                          n=num, axis=0)

    def evaluate(v, nu=0):
        x = np.asarray(v, dtype=float) / du
        cell = np.floor(x)
        f = x - cell
        g = 1.0 - f
        if nu == 0:
            weights = (g**3, 3.0 * f**3 - 6.0 * f**2 + 4.0, 3.0 * g**3 - 6.0 * g**2 + 4.0, f**3)
        else:
            weights = (-3.0 * g**2, 9.0 * f**2 - 12.0 * f, 12.0 * g - 9.0 * g**2, 3.0 * f**2)
        cell = cell.astype(int)
        total = 0.0
        for offset, w in enumerate(weights):
            total = total + w.reshape(w.shape + (1,) * (values.ndim - 1)) \
                * coeffs[(cell + offset - 1) % num]
        return total / (6.0 * du**nu)

    return evaluate


def reparametrize(curve: LegendreCurve):
    """Resample an l-convex closed curve into normal form.

    Returns the re-parametrized curve (X o phi, nu o phi) on the same uniform
    grid, with nu o phi = (sin nu, -cos nu) exactly and X o phi to spline
    interpolation, together with the Reparametrization record.

    l-convexity is angle_unwrap's strictly increasing Theta: <nu_{j+-1}, mu_j>
    = +-sin(Theta_{j+-1} - Theta_j), so a centred-difference l <= 0 needs a
    Theta increment outside (0, pi), which angle_unwrap refuses.
    """
    curve.validate()
    if curve.grid_size < MIN_POINTS:
        raise GridTooCoarseError(f"need at least {MIN_POINTS} samples, got {curve.grid_size}")
    angle = angle_unwrap(curve)
    n = angle.rotation_index
    theta0 = float(np.mod(angle.theta[0], 2.0 * np.pi))

    # psi1(v) = (Theta(v) - Theta(0)) / n: identical to the cumulative
    # trapezoid of l/n but free of quadrature error, since l = d_u Theta.
    psi_nodes = np.append(angle.theta - angle.theta[0], 2.0 * np.pi * n) / n

    u = curve.grid
    shifted = np.mod(u - theta0 / n, 2.0 * np.pi)
    phi_raw = _invert_monotone(psi_nodes, shifted)

    new_curve = LegendreCurve(positions=_periodic_component_spline(curve.positions)(phi_raw),
                              normals=normal_form_normals(n, curve.grid_size))

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
