"""Catalog of self-similar flow solutions (lambda*(t) X*(u), nu*(u)).

A profile is the quadruple (n, m, C1, C2): rotation index n, profile
frequency m != n, and the amplitude pair of beta*(u) = C1 cos(mu) + C2 sin(mu).
The scaling factor is lambda*(t) = e^{(1 - m^2/n^2) t}: expanding for m < n,
shrinking for m > n.  The m = 0 case is the n-fold circle (C2 = 0 required).

Lap and cusp counts of the traced image:
    laps  = gcd(n + m, |n - m|)
    cusps = 2 m / laps
The amplitudes C1, C2 rotate the profile but never change either count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import normal_form_normals
from .errors import ClassificationError, InvariantViolationError, ValidationError
from . import spectral


@dataclass(frozen=True)
class SelfSimilarProfile:
    n: int
    m: int
    c1: float
    c2: float

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"rotation index must be >= 1, got {self.n}")
        if self.m < 0:
            raise ValidationError(f"profile frequency must be >= 0, got {self.m}")
        if self.m == self.n:
            raise ClassificationError(
                f"m = n = {self.m}: the profile curvature violates the closure "
                "constraint and no closed self-similar curve exists"
            )
        if self.m == 0:
            if self.c2 != 0.0:
                raise ClassificationError("m = 0 requires C2 = 0")
            if self.c1 == 0.0:
                raise ClassificationError("m = 0 requires C1 != 0")
        elif self.c1 == 0.0 and self.c2 == 0.0:
            raise ClassificationError("(C1, C2) = (0, 0) describes a point")

    def beta(self, u):
        """beta*(u) = C1 cos(mu) + C2 sin(mu)."""
        u = np.asarray(u, dtype=float)
        return self.c1 * np.cos(self.m * u) + self.c2 * np.sin(self.m * u)

    def normal(self, u):
        """(sin nu, -cos nu) at the points u, or on the uniform grid of u points
        for an int u (see normal_form_normals)."""
        return normal_form_normals(self.n, u)

    def spectral(self) -> spectral.SpectralBeta:
        """The coefficient set whose flow is exactly this profile's."""
        if self.m == 0:
            return spectral.SpectralBeta.from_modes(self.n, a0=self.c1)
        return spectral.SpectralBeta.from_modes(
            self.n, modes={self.m: (self.c1, self.c2)})

    def render_samples(self):
        """Sample count resolving the top frequency n + m without aliasing."""
        return max(512, 64 * (self.n + self.m))


def profile_position(profile: SelfSimilarProfile, u):
    """X*(u), the closed-form profile position (centroid at the origin)."""
    n, m = profile.n, profile.m
    c1, c2 = profile.c1, profile.c2
    u = np.asarray(u, dtype=float)
    sn, cn = np.sin(n * u), np.cos(n * u)
    if m == 0:
        return (c1 / n) * np.stack([sn, -cn], axis=-1)
    sm, cm = np.sin(m * u), np.cos(m * u)
    denom = n * n - m * m
    x = c1 * (n * sn * cm - m * cn * sm) / denom \
        + c2 * (n * sn * sm + m * cn * cm) / denom
    y = c1 * (-n * cn * cm - m * sn * sm) / denom \
        + c2 * (-n * cn * sm + m * sn * cm) / denom
    return np.stack([x, y], axis=-1)


def lambda_star(n, m, t):
    """Scaling factor e^{(1 - m^2/n^2) t} of the (n, m) profile.

    A t that is negative or not finite raises ValidationError, a factor that
    overflows a double InvariantViolationError."""
    if m == n:
        raise ClassificationError(f"m = n = {m} admits no self-similar solution")
    spectral._check_time(t)
    with np.errstate(over="ignore"):
        scale = float(np.exp(spectral.eigenvalue(n, m) * t))
    if not np.isfinite(scale):
        raise InvariantViolationError(f"lambda*({n}, {m}) overflows at t = {t!r}")
    return scale


def lap_count(n, m):
    """Number of laps the profile traces over its image."""
    if m == n:
        raise ClassificationError(f"m = n = {m} admits no self-similar solution")
    if m == 0:
        # circle with n revolutions; the gcd formula is stated for m >= 1
        return n
    return math.gcd(n + m, abs(n - m))


def cusp_count(n, m):
    """Number of (2,3)-cusps on the image: 2m / lap_count, 0 for the circle."""
    if m == n:
        raise ClassificationError(f"m = n = {m} admits no self-similar solution")
    if m == 0:
        return 0
    return 2 * m // math.gcd(n + m, abs(n - m))


def verify_self_similarity(profile: SelfSimilarProfile, times, num_samples=512):
    """Max deviation of the evolved flow from lambda*(t) X*(u).

    Runs the spectral solver from beta_0 = beta* with a centroid-zero base
    point and compares against the closed form; the deviation is pure
    floating-point noise for a genuine profile.
    """
    s = profile.spectral()
    curve0 = spectral.reconstruct_centered_curve(s, num_samples)
    u = curve0.grid
    target0 = profile_position(profile, u)
    worst = 0.0
    for t in times:
        state = spectral.evolve_curve(s, curve0, t)
        expected = lambda_star(profile.n, profile.m, t) * target0
        worst = max(worst, float(np.max(np.abs(state.curve.positions - expected))))
    return worst


#: (n, m, C1, C2) parameter sets of the rendered profile gallery: an n = 1
#: row, an n = 2 row, an n = 3 row, then a (1, 3) amplitude sweep.
GALLERY_PROFILES = (
    (1, 2, 1.5, 0.0),
    (1, 3, 2.3, 0.0),
    (1, 4, 3.5, 0.0),
    (2, 1, 1.3, 0.0),
    (2, 3, 1.5, 0.0),
    (2, 4, 3.0, 0.0),
    (3, 1, 2.5, 0.0),
    (3, 2, 1.5, 0.0),
    (3, 4, 5.0, 0.0),
    (1, 3, 1.0, 2.0),
    (1, 3, 2.0, 2.0),
    (1, 3, 2.0, 1.0),
)
