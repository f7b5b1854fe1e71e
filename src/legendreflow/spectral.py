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

Every evaluation, here and in cusps and asymptotics, runs on one mode-space
kernel.  _row is c_k = a_k - i b_k and _weights are (ik)^p lambda_k^q, so
d_u^p d_t^q of sum_k w(lambda_k) beta_k is Re sum_k c_k (ik)^p lambda_k^q
w(lambda_k) e^{iku}, the coefficients of _spectrum.  _rows evolves a row to
a stack of times, dividing out the largest growth factor and dropping no
mode, and _derivatives sums a row per point.  _synthesize sums a series at
arbitrary points by one complex-exponential matmul, or on the uniform grid
u_j = 2 pi j/N by one inverse FFT: e^{i p u_j} depends on p mod N only, so
folding the coefficients into those N bins is exact for any truncation K,
K >= N/2 included.  With mu = e^{inu} as a complex number, both X - X_0 =
e^{inu} (B'/n^2 - i B/n) (B the growth-weighted beta_0) and int_0^u beta_0 mu
are series in the frequencies n + k, k = -K..K, so each is one grid sum.

evolve_curve certifies its initial curve in mode space: sum |R_q| over the
spectrum of d_u X_0 - beta_0 mu (one forward FFT) bounds the mismatch, and
only an uncertified curve is tested exactly on the grid.  Both tests allow
the rounding of the stored positions, amplified N-fold by the derivative.
The certificate depends on (beta_0, X_0) alone, not on t, so it is computed
once per (s, curve, tol): each further time costs two inverse FFTs.  A
refused curve is not remembered and is refused again.

The eigenvalues and the frequencies n +- k (per (n, K)), the weights of
_spectrum (per (n, K, du, dt)), the FFT frequencies (per N) and the frozen
frame (per (n, N)) are built once and shared read-only through the memo of
:mod:`legendreflow.curves`, whose bound is documented at curves._table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import LegendreCurve, LegendreCurvature, _table, normal_form_normals, uniform_grid
from .errors import InvariantViolationError, NotClosedError, PointCurveError, ValidationError

CLOSURE_COEFF_TOL = 1e-8       # n band of sampled beta_0 (analyze_beta), zeroed below it
N_BAND_TOL = 1e-10              # |a_n|, |b_n| a SpectralBeta admits
CONSISTENCY_ROUNDING = 4.0      # evolve_curve's rounding allowance, in eps N max|X_0|


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
        """lambda_k for k = 0..K; read-only, built once per (n, K)."""
        n, top = self.n, self.truncation

        def build():
            k = np.arange(top + 1)
            return 1.0 - (k * k) / (n * n)

        return _table(("eigenvalues", n, top), build)


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


def _row(s: SpectralBeta):
    """c_k = a_k - i b_k for k = 0..K: beta_0 = Re sum_k c_k e^{iku}."""
    return s.cos_coeffs - 1j * s.sin_coeffs


def _weights(size, orders, lam=None):
    """The derivative weights (ik)^p lambda_k^q, k < size, one column per (p,
    q) in orders (lambda_k^q taken as 1 without lam)."""
    k = np.arange(size)
    p, q = np.array(orders).T
    return (1j * k)[:, None] ** p * (1.0 if lam is None else lam[:, None] ** q)


def _spectrum(s: SpectralBeta, weight, du=0, dt=0):
    """c_k = (a_k - i b_k) (ik)^du lambda_k^dt weight(lambda_k) for k = 0..K, so
    that Re sum_k c_k e^{iku} is d_u^du d_t^dt of sum_k weight(lambda_k) beta_k.

    weight sees only the lambda of the nonzero terms: a vanishing term stays
    exactly zero, never 0 * inf.
    """
    lam = s.eigenvalues()
    c = _row(s) * _table(("weights", s.n, s.truncation, du, dt),
                         lambda: _weights(lam.shape[0], ((du, dt),), lam)[:, 0])
    live = c != 0.0
    c[live] *= weight(lam[live])
    return c


def _rows(c, lam, times):
    """(rows, shift) with rows_ik = c_k e^{lambda_k t_i - shift_i}, shift_i the
    largest lambda_k t_i of a nonzero c_k (c a row of beta_0 or of some of its
    modes): beta(u, t_i) = e^{shift_i} Re sum_k rows_ik e^{iku}.  It never
    raises; a time whose shift is no finite double gives non-finite rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        rate = np.where(c != 0.0, np.multiply.outer(times, lam), -np.inf)
        shift = rate.max(axis=1)
        return c * np.exp(rate - shift[:, None]), shift


def _finite_rows(c, lam, times):
    """_rows, refused with InvariantViolationError where a shift is no finite double."""
    times = np.asarray(times, dtype=float)
    rows, shift = _rows(c, lam, times)
    if not np.isfinite(shift).all():
        raise InvariantViolationError(
            f"growth exponent lambda_k t overflows at t = {float(times[~np.isfinite(shift)][0])!r}")
    return rows, shift


def _derivatives(c, u, weights):
    """Columns Re sum_k c_ik w_k e^{iku_i}, one per column w of the weights
    (d_u^p d_t^q beta(u_i) for _weights' orders), for one coefficient row c or
    a row c_i per point u_i; each point is one product of its own row with the
    weights, free of the others."""
    terms = c * np.exp(1j * np.multiply.outer(np.asarray(u, dtype=float), np.arange(c.shape[-1])))
    return np.real(terms[..., None, :] @ weights)[..., 0, :]


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


def _check_time(t):
    """The time or times t as a float array, each finite and >= 0 (else ValidationError)."""
    times = np.asarray(t, dtype=float)
    bad = times[~np.isfinite(times) | (times < 0)]
    if bad.size:
        raise ValidationError(f"time must be finite and >= 0, got {bad[0]}")
    return times


def _evolved(s: SpectralBeta, t, weight, du=0, dt=0, gain=1.0):
    """_spectrum(s, weight, du, dt), refused with InvariantViolationError unless
    gain sum_k |c_k|, which bounds the synthesized series, is a finite double:
    a check of the K + 1 coefficients that no overflow reaches the grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        c = _spectrum(s, weight, du, dt)
        bound = gain * np.sum(np.abs(c))
    if not np.isfinite(bound):
        raise InvariantViolationError(f"the evolved spectrum overflows at t = {t!r}")
    return c


def evolve_beta(s: SpectralBeta, t, u, du=0, dt=0):
    """d_u^du d_t^dt beta(u, t), beta = sum_k e^{lambda_k t} (a_k cos ku + b_k sin ku),
    exact mode-wise: mode k picks up (ik)^du lambda_k^dt."""
    _check_time(t)
    return _series(_evolved(s, t, lambda lam: np.exp(lam * t), du, dt),
                   np.asarray(u, dtype=float))


def _shifted(s: SpectralBeta, c):
    """(p, h) with e^{inu} Re sum_k c_k e^{iku} = sum_j h_j e^{i p_j u}: the
    frequencies p = n + k for k = -K..K, h_{+-k} = c_k/2 or its conjugate."""
    h = np.concatenate([c[:1].real, 0.5 * c[1:], 0.5 * np.conj(c[1:])])
    return _frequencies(s.n, c.shape[0] - 1), h


def _frequencies(n, top):
    """n + k for k = 0..K, then n - k for k = 1..K; read-only, built once per (n, K)."""
    def build():
        k = np.arange(top + 1)
        return np.concatenate([n + k, n - k[1:]])

    return _table(("frequencies", n, top), build)


def _increment(s: SpectralBeta, u):
    """int_0^u beta_0(v) mu(v) dv at the points u, or on the uniform grid of
    u points for an int u (see _synthesize).

    As x + iy, beta_0 e^{inv} = sum_p h_p e^{ipv}; each p != 0 integrates to
    h_p (e^{ipu} - 1)/(ip), and p = 0 (the n band, |a_n|, |b_n| <= N_BAND_TOL
    are admitted) to h_0 u.
    """
    p, h = _shifted(s, _row(s))
    w = np.divide(h, 1j * p, out=np.zeros_like(h), where=p != 0)
    points = uniform_grid(u) if isinstance(u, (int, np.integer)) else u
    z = _synthesize(p, w, u) - np.sum(w) + np.sum(h[p == 0]) * points
    return np.stack([z.real, z.imag], axis=-1)


def reconstruct_initial_curve(s: SpectralBeta, base_point=(0.0, 0.0), num_samples=512):
    """X_0(u) = base_point + int_0^u beta_0 mu dv, nu_0(u) = (sin nu, -cos nu).

    The curve closes to within pi N_BAND_TOL: int_0^2pi beta_0 mu = pi (a_n,
    b_n), and SpectralBeta admits no larger n band."""
    positions = np.asarray(base_point, dtype=float) + _increment(s, num_samples)
    return LegendreCurve(positions=positions, normals=normal_form_normals(s.n, num_samples))


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
    freqs = _table(("rfftfreq", num), lambda: np.fft.rfftfreq(num, d=1.0 / num))
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


def _displacement(s: SpectralBeta, c, num):
    """sum_k w_k [beta_k nu/n + d_u beta_k mu/n^2] on the uniform num-point grid,
    c_k = (a_k - i b_k) w_k the spectrum of the weighted beta_0 (see _spectrum),
    one column or a stack of columns; a stack gives one (num, 2) array per column.

    With mu = e^{inu} and nu = -i e^{inu} as complex numbers this is
    e^{inu} (B'/n^2 - i B/n) for B = sum_k w_k beta_k; with B = sum_k h_k e^{iku}
    over k = -K..K it is sum_k h_k i (k - n)/n^2 e^{i(n + k)u}, one grid sum.
    """
    p, h = _shifted(s, c)
    gain = 1j * (p - 2 * s.n) / s.n**2
    z = _synthesize(p, gain.reshape(gain.shape + (1,) * (h.ndim - 1)) * h, num)
    return np.stack([z.real, z.imag], axis=-1)


# The last certified initial curve, (s, curve, consistency_tol): curve passed
# evolve_curve's consistency test against s under consistency_tol.  Holding s
# and curve keeps their ids from being reused; both are frozen with read-only
# arrays, so the certificate stays true.
_certified = None


def _certify(s: SpectralBeta, curve: LegendreCurve, consistency_tol):
    """Refuse curve unless it passes the consistency test of evolve_curve; the
    last certificate stands in for the test when it was of these objects under
    this tolerance."""
    global _certified
    last = _certified
    if (last is not None and last[0] is s and last[1] is curve
            and last[2] == consistency_tol):
        return
    num = curve.grid_size
    positions = curve.positions
    residual = _table(("fftfreq", num), lambda: np.fft.fftfreq(num, 1.0 / num)) * 1j \
        * np.fft.fft(positions[:, 0] + 1j * positions[:, 1], norm="forward")
    if num % 2 == 0:
        residual[num // 2] = 0.0
    p, h = _shifted(s, _row(s))
    np.subtract.at(residual, np.mod(p, num), h)
    rounding = CONSISTENCY_ROUNDING * np.finfo(float).eps * num * np.max(np.abs(positions))
    if np.sum(np.abs(residual)) > consistency_tol + rounding:
        r = np.fft.ifft(residual, norm="forward")
        mismatch = max(np.max(np.abs(r.real)), np.max(np.abs(r.imag)))
        scale = max(1.0, float(np.max(np.abs(_beta(s, 0.0, num)))))
        if mismatch > consistency_tol * scale + rounding:
            raise ValidationError(
                f"initial curve inconsistent with the coefficient set: "
                f"max |d_u X0 - beta_0 mu| = {mismatch:g}"
            )
    _certified = (s, curve, consistency_tol)


def evolve_curve(s: SpectralBeta, initial_curve: LegendreCurve, t,
                 consistency_tol=1e-8) -> FlowState:
    """Closed-form flow position at time t.

    X(u,t) = X_0(u) + sum_k g_k(t) [ beta_k(u)/n nu(u) + beta_k'(u)/n^2 mu(u) ]
    where beta_k is the k-th mode of beta_0 and g_k(t) = (e^{lambda_k t}-1)/lambda_k.
    nu stays frozen at (sin nu, -cos nu).

    The initial curve must satisfy d_u X_0 = beta_0 mu on its grid:
    max |d_u X_0 - beta_0 mu| <= consistency_tol max(1, max |beta_0|) + rounding.
    The check runs in mode space.  With z = x + iy and Z_q its DFT, the residual
    r = d_u X_0 - beta_0 mu has the spectrum R_q = iq Z_q - (beta_0 mu)_q (the
    Nyquist derivative zeroed, as spectral_derivative does), and sup |r| <=
    sum |R_q|, so sum |R_q| <= consistency_tol + rounding proves consistency
    with one forward FFT.  Only when that bound fails are r and beta_0
    synthesized on the grid for the exact test.

    rounding = c eps N max |X_0| with c = CONSISTENCY_ROUNDING = 4: the stored
    positions carry rounding of about eps |X_0|, which the derivative
    amplifies about N-fold.  On consistent curves (40 random beta_0 with
    K <= 16, base points from 1 to 1e8 away, N = 512, 2048, 8192) the
    mismatch was 0.14 to 1.42 eps N max |X_0|, so c = 4 keeps a curve far
    from the origin from being refused; near it (|X_0| ~ 1, N = 8192) the
    term is 7e-12.

    The check does not depend on t: it runs once per (s, initial_curve,
    consistency_tol), the last such triple is remembered, and each further
    time of it costs two inverse FFTs (the displacement and beta(t)); the
    frame is the read-only table of (n, N).  A refused curve is not
    remembered, so every call refuses it.
    A t that is not finite raises ValidationError; an evolved spectrum whose
    bound sum_k |c_k| overflows raises InvariantViolationError.
    """
    _check_time(t)
    _certify(s, initial_curve, consistency_tol)
    num = initial_curve.grid_size
    # _displacement scales the mode k terms by |k -+ n|/n^2 <= (K + n)/n^2
    growth = _evolved(s, t, lambda lam: growth_factor(lam, t),
                      gain=(s.truncation + s.n) / s.n**2)
    beta = _evolved(s, t, lambda lam: np.exp(lam * t))
    curve = LegendreCurve(positions=initial_curve.positions + _displacement(s, growth, num),
                          normals=normal_form_normals(s.n, num))
    curvature = LegendreCurvature(ell=np.full(num, float(s.n)), beta=_series(beta, num))
    return FlowState(t=float(t), curve=curve, curvature=curvature)
