"""Exact Fourier-spectral solution of the special inverse curvature flow.

With l == n frozen, beta solves d_t beta = d_uu beta / n^2 + beta, which
diagonalizes over the trigonometric modes with eigenvalues

    lambda_k = 1 - k^2 / n^2.

The flow state is therefore completely described by the truncated Fourier
coefficient set of beta_0 together with the rotation index n, and both beta
and the flowing curve X have closed forms -- no time stepping anywhere.

Normalization: a_0 = (1/2pi) int beta_0, a_k = (1/pi) int beta_0 cos(ku),
b_k = (1/pi) int beta_0 sin(ku), so that the synthesis

    beta_0(u) = a_0 + sum_k a_k cos(ku) + b_k sin(ku)

is an identity for band-limited data.

Every evaluation runs on one mode-space kernel.  _spectrum forms the
coefficients c_k = (a_k - i b_k) (ik)^p lambda_k^q w(lambda_k), so that
d_u^p d_t^q of sum_k w(lambda_k) beta_k is Re sum_k c_k e^{iku}
(w = e^{lambda t} for beta itself).  _synthesize sums such a series at
arbitrary points by one complex-exponential matmul, or on the uniform grid
u_j = 2 pi j/N by one inverse FFT: e^{i p u_j} depends on p mod N only, so
folding the coefficients into those N bins is exact for any truncation K,
K >= N/2 included.  With mu = e^{inu} as a complex number, both X - X_0 =
e^{inu} (B'/n^2 - i B/n) (B the growth-weighted beta_0) and int_0^u beta_0 mu
are series in the frequencies n + k, k = -K..K, so each is one grid sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import LegendreCurve, LegendreCurvature, uniform_grid
from .errors import NotClosedError, PointCurveError, ValidationError

CLOSURE_COEFF_TOL = 1e-8       # n band of sampled beta_0 (analyze_beta), zeroed below it
N_BAND_TOL = 1e-10              # |a_n|, |b_n| a SpectralBeta admits


def eigenvalue(n, k):
    """lambda_k = 1 - k^2/n^2 for the mode-k eigenfunctions."""
    if n < 1:
        raise ValidationError(f"rotation index must be >= 1, got {n}")
    return 1.0 - (k * k) / (n * n)


@dataclass(frozen=True)
class SpectralBeta:
    """Truncated Fourier coefficients of beta_0 plus the rotation index.

    cos_coeffs[k] holds a_k for k = 0..K (cos_coeffs[0] is the mean mode a_0),
    sin_coeffs[k] holds b_k (sin_coeffs[0] is unused and zero).
    """

    n: int
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float))
        b = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise ValidationError("coefficient arrays must be 1-d and equally long")
        if self.n < 1:
            raise ValidationError(f"rotation index must be >= 1, got {self.n}")
        if b[0] != 0.0:
            raise ValidationError("sin_coeffs[0] must be zero")
        if not np.any(a) and not np.any(b):
            raise PointCurveError("all coefficients vanish; beta_0 describes a point")
        if self.n < a.shape[0]:
            if abs(a[self.n]) > N_BAND_TOL or abs(b[self.n]) > N_BAND_TOL:
                raise NotClosedError(
                    f"n-band coefficients (a_{self.n}, b_{self.n}) = "
                    f"({a[self.n]:g}, {b[self.n]:g}) violate the closure constraint"
                )
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)
        a.setflags(write=False)
        b.setflags(write=False)

    @classmethod
    def from_modes(cls, n, a0=0.0, modes=None):
        """Build from a sparse mode table {k: (a_k, b_k)}."""
        modes = dict(modes or {})
        top = max([0, *modes.keys()])
        a = np.zeros(top + 1)
        b = np.zeros(top + 1)
        a[0] = a0
        for k, (ak, bk) in modes.items():
            if k < 1:
                raise ValidationError("mode indices must be >= 1")
            a[k] = ak
            b[k] = bk
        return cls(n=n, cos_coeffs=a, sin_coeffs=b)

    @property
    def a0(self):
        return float(self.cos_coeffs[0])

    @property
    def truncation(self):
        return self.cos_coeffs.shape[0] - 1

    @property
    def modes(self):
        """Sorted (k, a_k, b_k) tuples of the nonzero modes, k >= 1."""
        out = []
        for k in range(1, self.truncation + 1):
            if self.cos_coeffs[k] != 0.0 or self.sin_coeffs[k] != 0.0:
                out.append((k, float(self.cos_coeffs[k]), float(self.sin_coeffs[k])))
        return out

    def eigenvalues(self):
        k = np.arange(self.truncation + 1)
        return 1.0 - (k * k) / (self.n * self.n)


def analyze_beta(beta0, n, truncation=None):
    """Discrete trigonometric projection of beta_0 samples.

    One real FFT, O(N log N); exact (up to rounding) for trigonometric
    polynomials of degree <= K sampled on N >= 2K + 2 points.
    """
    beta0 = np.asarray(beta0, dtype=float)
    num = beta0.shape[0]
    if truncation is None:
        truncation = num // 2 - 1
    if num < 2 * truncation + 2:
        raise ValidationError(
            f"need N >= 2K + 2 samples for K = {truncation}, got N = {num}"
        )
    if np.max(np.abs(beta0)) == 0.0:
        raise PointCurveError("beta_0 is identically zero; the curve is a point")
    # on u_j = 2 pi j / N the DFT F_k = sum_j beta_j e^{-i k u_j} gives a_0 = F_0/N,
    # a_k = 2 Re F_k/N and b_k = -2 Im F_k/N, the discrete (1/pi) int beta e^{-iku}
    f = np.fft.rfft(beta0)[: truncation + 1] * (2.0 / num)
    a, b = f.real.copy(), -f.imag
    a[0], b[0] = 0.5 * a[0], 0.0
    if n <= truncation and (abs(a[n]) > CLOSURE_COEFF_TOL or abs(b[n]) > CLOSURE_COEFF_TOL):
        raise NotClosedError(
            f"(a_{n}, b_{n}) = ({a[n]:g}, {b[n]:g}); beta_0 does not close a curve"
        )
    if n <= truncation:
        a[n] = 0.0
        b[n] = 0.0
    return SpectralBeta(n=n, cos_coeffs=a, sin_coeffs=b)


def synthesize_beta(s: SpectralBeta, u):
    """beta_0 evaluated from the coefficient set (t = 0 mode sum)."""
    return evolve_beta(s, 0.0, u)


def truncation_residual(s: SpectralBeta, beta0):
    """sup-norm mismatch between beta_0 samples and the truncated synthesis."""
    beta0 = np.asarray(beta0, dtype=float)
    return float(np.max(np.abs(beta0 - _beta(s, 0.0, beta0.shape[0]))))


def _spectrum(s: SpectralBeta, weight, du=0, dt=0, keep=True):
    """c_k = (a_k - i b_k) (ik)^du lambda_k^dt weight(lambda_k) for k = 0..K, so
    that Re sum_k c_k e^{iku} is d_u^du d_t^dt of sum_k weight(lambda_k) beta_k.

    weight sees only the lambda of the nonzero terms (those not masked off by
    keep): a vanishing term stays exactly zero, never 0 * inf.
    """
    k = np.arange(s.truncation + 1)
    lam = s.eigenvalues()
    c = (s.cos_coeffs - 1j * s.sin_coeffs) * ((1j * k) ** du if du else 1.0) \
        * lam**dt * keep
    live = c != 0.0
    c[live] *= weight(lam[live])
    return c


def _synthesize(p, d, u):
    """sum_j d_j e^{i p_j u} for a column or a stack of columns d.

    u is either an array of points (one complex-exponential matmul) or an int
    N for the uniform grid u_m = 2 pi m / N.  There e^{i p u_m} depends on p
    mod N only, so folding d into those N bins and taking one inverse FFT is
    exact for any frequencies, K >= N/2 included, and needs O(N) memory.
    """
    if isinstance(u, (int, np.integer)):
        bins = np.zeros((u,) + d.shape[1:], dtype=complex)
        np.add.at(bins, np.mod(p, u), d)
        return np.fft.ifft(bins, axis=0, norm="forward")
    return np.exp(1j * np.multiply.outer(u, p)) @ d


def _series(c, u):
    """Re sum_k c_k e^{iku} over k = 0..K, per column of c (see _synthesize for u)."""
    return np.real(_synthesize(np.arange(c.shape[0]), c, u))


def _beta(s: SpectralBeta, t, u, du=0, dt=0):
    return _series(_spectrum(s, lambda lam: np.exp(lam * t), du, dt), u)


def evolve_beta(s: SpectralBeta, t, u, du=0, dt=0):
    """d_u^du d_t^dt beta(u, t), beta = sum_k e^{lambda_k t} (a_k cos ku + b_k sin ku),
    exact mode-wise: mode k picks up (ik)^du lambda_k^dt."""
    if t < 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    return _beta(s, t, np.asarray(u, dtype=float), du, dt)


def _shifted(s: SpectralBeta, c):
    """(p, h) with e^{inu} Re sum_k c_k e^{iku} = sum_j h_j e^{i p_j u}: the
    frequencies p = n + k for k = -K..K, h_{+-k} = c_k/2 or its conjugate."""
    k = np.arange(c.shape[0])
    p = np.concatenate([s.n + k, s.n - k[1:]])
    return p, np.concatenate([c[:1].real, 0.5 * c[1:], 0.5 * np.conj(c[1:])])


def _increment(s: SpectralBeta, u):
    """int_0^u beta_0(v) mu(v) dv at the points u, or on the uniform grid of
    u points for an int u (see _synthesize).

    As x + iy, beta_0 e^{inv} = sum_p h_p e^{ipv}; each p != 0 integrates to
    h_p (e^{ipu} - 1)/(ip), and p = 0 (the n band, |a_n|, |b_n| <= N_BAND_TOL
    are admitted) to h_0 u.
    """
    p, h = _shifted(s, s.cos_coeffs - 1j * s.sin_coeffs)
    w = np.divide(h, 1j * p, out=np.zeros_like(h), where=p != 0)
    points = uniform_grid(u) if isinstance(u, (int, np.integer)) else u
    z = _synthesize(p, w, u) - np.sum(w) + np.sum(h[p == 0]) * points
    return np.stack([z.real, z.imag], axis=-1)


def position_increment(s: SpectralBeta, u):
    """int_0^u beta_0(v) mu(v) dv with mu = (cos nv, sin nv), mode-exact."""
    return _increment(s, np.asarray(u, dtype=float))


def reconstruct_initial_curve(s: SpectralBeta, base_point=(0.0, 0.0), num_samples=512):
    """X_0(u) = base_point + int_0^u beta_0 mu dv, nu_0(u) = (sin nu, -cos nu)."""
    closure = position_increment(s, np.array([2.0 * np.pi]))[0]
    # pi (a_n, b_n) plus rounding: the n band SpectralBeta admits always closes
    size = np.sum(np.abs(s.cos_coeffs)) + np.sum(np.abs(s.sin_coeffs))
    if np.max(np.abs(closure)) > np.pi * N_BAND_TOL + 8.0 * np.finfo(float).eps * size:
        raise NotClosedError(
            f"closure residual {tuple(closure)} is nonzero; beta_0 does not "
            "trace a closed curve"
        )
    u = uniform_grid(num_samples)
    positions = np.asarray(base_point, dtype=float) + _increment(s, num_samples)
    normals = np.stack([np.sin(s.n * u), -np.cos(s.n * u)], axis=-1)
    return LegendreCurve(positions=positions, normals=normals)


def reconstruct_centered_curve(s: SpectralBeta, num_samples=512):
    """Like reconstruct_initial_curve but with zero position mean."""
    curve = reconstruct_initial_curve(s, (0.0, 0.0), num_samples)
    centroid = curve.positions.mean(axis=0)
    return LegendreCurve(positions=curve.positions - centroid, normals=curve.normals)


@dataclass(frozen=True)
class FlowState:
    """Evaluated flow snapshot at time t, with l == n frozen."""

    t: float
    curve: LegendreCurve
    curvature: LegendreCurvature


def spectral_derivative(samples, axis=0):
    """FFT derivative on the periodic grid; exact for band-limited samples."""
    samples = np.asarray(samples, dtype=float)
    num = samples.shape[axis]
    freqs = np.fft.rfftfreq(num, d=1.0 / num)
    coeffs = np.fft.rfft(samples, axis=axis)
    shape = [1] * samples.ndim
    shape[axis] = -1
    coeffs = coeffs * (1j * freqs).reshape(shape)
    if num % 2 == 0:
        # zero the Nyquist derivative; it is pure noise for real data
        index = [slice(None)] * samples.ndim
        index[axis] = -1
        coeffs[tuple(index)] = 0.0
    return np.fft.irfft(coeffs, n=num, axis=axis)


def growth_factor(lam, t):
    """g(t) = (e^{lam t} - 1)/lam with the removable lam = 0 branch = t."""
    lam = np.asarray(lam, dtype=float)
    out = np.where(lam == 0.0, t, np.expm1(np.where(lam == 0.0, 1.0, lam) * t)
                   / np.where(lam == 0.0, 1.0, lam))
    return out


def _displacement(s: SpectralBeta, weight, num, keep=True):
    """sum_k w_k [beta_k nu/n + d_u beta_k mu/n^2] on the uniform num-point grid,
    w_k = weight(lambda_k) and beta_k the k-th mode of beta_0.

    With mu = e^{inu} and nu = -i e^{inu} as complex numbers this is
    e^{inu} (B'/n^2 - i B/n) for B = sum_k w_k beta_k; with B = sum_k h_k e^{iku}
    over k = -K..K it is sum_k h_k i (k - n)/n^2 e^{i(n + k)u}, one grid sum.
    """
    p, h = _shifted(s, _spectrum(s, weight, keep=keep))
    z = _synthesize(p, 1j * (p - 2 * s.n) / s.n**2 * h, num)
    return np.stack([z.real, z.imag], axis=-1)


def evolve_curve(s: SpectralBeta, initial_curve: LegendreCurve, t,
                 consistency_tol=1e-8) -> FlowState:
    """Closed-form flow position at time t.

    X(u,t) = X_0(u) + sum_k g_k(t) [ beta_k(u)/n nu(u) + beta_k'(u)/n^2 mu(u) ]
    where beta_k is the k-th mode of beta_0 and g_k(t) = (e^{lambda_k t}-1)/lambda_k.
    nu stays frozen at (sin nu, -cos nu).
    """
    if t < 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    num = initial_curve.grid_size
    u = initial_curve.grid
    n = s.n
    cos_nu, sin_nu = np.cos(n * u), np.sin(n * u)
    nu = np.stack([sin_nu, -cos_nu], axis=-1)
    mu = np.stack([cos_nu, sin_nu], axis=-1)

    beta0 = _beta(s, 0.0, num)
    dX = spectral_derivative(initial_curve.positions)
    scale = max(1.0, float(np.max(np.abs(beta0))))
    mismatch = np.max(np.abs(dX - beta0[:, None] * mu))
    if mismatch > consistency_tol * scale:
        raise ValidationError(
            f"initial curve inconsistent with the coefficient set: "
            f"max |d_u X0 - beta_0 mu| = {mismatch:g}"
        )

    positions = initial_curve.positions \
        + _displacement(s, lambda lam: growth_factor(lam, t), num)
    curve = LegendreCurve(positions=positions, normals=nu)
    curvature = LegendreCurvature(ell=np.full(num, float(n)), beta=_beta(s, t, num))
    return FlowState(t=float(t), curve=curve, curvature=curvature)
