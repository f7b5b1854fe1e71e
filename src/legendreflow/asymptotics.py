"""Long-time behavior: centering, rescaled convergence and decay rates.

The centroid (1/2pi) int X(., t) du is conserved by the flow, so the center
point p is read off the initial curve.  With leading surviving mode m, the
rescaled flow (X(., t) - p)/e^{(1 - m^2/n^2) t} converges to the profile
X*_{n, m, a_m, b_m}; the error is a finite sum of sub-leading modes, each
decaying at an exact exponential rate, so the fitted slope of log(error)
matches lambda_{k'} - lambda_m to rounding (k' the next surviving mode).
The scaled errors at all sample times of a fit are one stack of evolved
rows (spectral._rows), summed on the grid in one inverse FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import LegendreCurve
from .errors import LegendreFlowError, ValidationError
from .spectral import SpectralBeta, _check_time, _displacement, _finite_rows, _row

LEADING_TOL = 1e-12


@dataclass(frozen=True)
class ConvergenceReport:
    leading_mode: int
    center: np.ndarray
    errors: tuple          # ((t, scaled sup-norm error), ...)
    fitted_rate: float | None
    predicted_rate: float | None
    exactly_self_similar: bool = False
    envelope_bounded: bool = field(default=True)


def center_point(curve: LegendreCurve):
    """Conserved centroid p = (1/2pi) int X du, trapezoid quadrature."""
    return curve.positions.mean(axis=0)


def _surviving(s: SpectralBeta):
    """Mask over k = 0..K of the modes above LEADING_TOL times the largest coefficient."""
    size = np.maximum(np.abs(s.cos_coeffs), np.abs(s.sin_coeffs))
    return size > LEADING_TOL * size.max()


def leading_mode(s: SpectralBeta):
    """(m, a_m, b_m) of the first surviving band; m = 0 iff a_0 != 0."""
    surviving = np.flatnonzero(_surviving(s))
    if surviving.size == 0:
        raise ValidationError("no surviving mode found")
    m = int(surviving[0])
    return m, float(s.cos_coeffs[m]), float(s.sin_coeffs[m])


def _scaled_errors(s: SpectralBeta, times, num):
    """scaled_error at each of the times, all on the num-point grid in one synthesis.

    The surviving modes' evolved rows (shift lambda_m t), over lambda_k and
    without mode m and the n band, form one (K + 1, T) stack of spectra, one
    column per time, and _displacement sums every column in one inverse FFT.
    """
    times = _check_time(times)
    m, _, _ = leading_mode(s)
    if m == s.n:
        raise LegendreFlowError(
            "leading mode equals the rotation index; impossible for a closed "
            "curve (internal inconsistency)"
        )
    lam = s.eigenvalues()
    rows, _ = _finite_rows(_row(s) * _surviving(s), lam, times)
    rows[:, m] = 0.0
    stack = np.divide(rows, lam, out=np.zeros_like(rows), where=lam != 0.0).T
    # the grid axis first: numpy reduces (N, T, 2) over the axes (0, 2) about 6x slower
    return np.max(np.abs(_displacement(s, stack, num)), axis=0).max(axis=-1)


def scaled_error(s: SpectralBeta, initial_curve: LegendreCurve, t,
                 num_samples=1024):
    """sup_u |(X(u,t) - p)/lambda*(t) - X*_{n,m,a_m,b_m}(u)|.

    Evaluated through the exact mode decomposition
        X(u, t) - p = sum_k e^{lambda_k t} V_k(u)/lambda_k,
    V_k the flow displacement of mode k, so the sub-leading remainder is the
    displacement with weights e^{(lambda_k - lambda_m) t}/lambda_k, formed
    without the catastrophic cancellation a direct large-t evaluation of X
    would suffer.
    """
    return float(_scaled_errors(s, [t], num_samples)[0])


def predicted_decay_rate(s: SpectralBeta):
    """lambda_{k'} - lambda_m for the two leading surviving modes, or None."""
    surviving = np.flatnonzero(_surviving(s))
    if surviving.size < 2:
        return None
    lam = s.eigenvalues()
    # the slowest-decaying contaminant relative to the leading mode
    return float(np.max(lam[surviving[1:]]) - lam[surviving[0]])


def fit_decay_rate(s: SpectralBeta, initial_curve: LegendreCurve,
                   times=None) -> ConvergenceReport:
    """Least-squares slope of log(scaled error) vs t, with the sharp-rate
    contract |fitted - predicted| < 0.01 |predicted| left to the caller.

    The scaled errors have no cancellation, so only an underflowing one (below
    the smallest normal double) triggers one window-shrink retry; a
    single-mode input is reported as exactly self-similar instead of fitted.
    """
    if times is None:
        times = np.linspace(1.0, 6.0, 6)
    times = np.asarray(times, dtype=float)
    if times.shape[0] < 5:
        raise ValidationError("need at least 5 sample times for the fit")
    p = center_point(initial_curve)
    m, _, _ = leading_mode(s)
    predicted = predicted_decay_rate(s)
    if predicted is None:
        return ConvergenceReport(
            leading_mode=m, center=p, errors=(), fitted_rate=None,
            predicted_rate=None, exactly_self_similar=True)

    errors = _scaled_errors(s, times, 1024)
    if np.any(errors < np.finfo(float).tiny):
        times = times[0] + (times - times[0]) * 0.5
        errors = _scaled_errors(s, times, 1024)
        if np.any(errors <= 0.0):
            raise LegendreFlowError(
                "scaled error underflowed even after shrinking the fit window")
    slope, _ = np.polyfit(times, np.log(errors), 1)

    # weaker epsilon-envelope with epsilon = (k'^2 - m^2)/2: the error times
    # e^{-(1 - (m^2 + eps)/n^2 - lambda_m) t} must stay bounded
    kp_gap = predicted  # = lambda_k' - lambda_m
    eps_rate = 0.5 * kp_gap  # strictly slower envelope than the sharp rate
    ratios = errors * np.exp(-eps_rate * times)
    envelope_ok = bool(np.max(ratios) <= ratios[0] * (1.0 + 1e-9))

    return ConvergenceReport(
        leading_mode=m, center=p, errors=tuple(zip(times.tolist(), errors.tolist())),
        fitted_rate=float(slope), predicted_rate=float(predicted),
        exactly_self_similar=False, envelope_bounded=envelope_ok)
