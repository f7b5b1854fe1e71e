"""Zero tracking and (2,3)-cusp classification for the evolving beta.

A zero of beta(., t) marks a singular point of the flowing frontal; it is a
(2,3)-cusp when d_u beta != 0 there (l = n > 0 always holds for the special
flow).  The zero count z(t) is non-increasing in t (Angenent's zero-number
theorem), and each strict drop happens exactly at a degenerate zero with
beta = d_u beta = 0.  With z = e^{iu} the zeros of the degree-K trigonometric
polynomial beta are the unit-circle roots of the polynomial z^K beta, found as
companion-matrix eigenvalues (Boyd, J. Eng. Math. 56, 2006); d_u and d_t act
mode-wise as (ik)^p lambda_k^q.  Zero sets ignore positive factors, so the
largest growth factor is divided out: counts hold at any t.

Most counts need no eigensolve.  Write beta = A cos(j(u - phi)) + R with j
the mode of largest |c_k| = A, so |R| <= rho0 = sum_{k != j} |c_k| and
|d_u R| <= rho1 = sum_{k != j} k |c_k|.  If (rho0/A)^2 + (rho1/(jA))^2 < 1,
take theta with cos(theta) > rho0/A and sin(theta) > rho1/(jA): beta has no
zero where |cos(j(u - phi))| >= cos(theta), and on each of the other 2j arcs
it is strictly monotone and changes sign, so z = 2j and every zero is
simple (rho0 < |c_0| gives z = 0 for j = 0).

Most of the other counts are settled by cells.  beta, d_u beta and d_u^2
beta are sampled on a uniform grid of CELL_GRID points (4(K + 1) if more) by
one inverse FFT of the call's stack, and S_p = sum_k k^p |c_k| bounds
|d_u^p beta|.  A root of z^K beta within UNIT_CIRCLE_TOL of the circle is a
zero u + iy of beta with |y| < Y = 2 UNIT_CIRCLE_TOL (the factor 2 covers
roots computed up to 1e-6 off their place), and there d_u^p beta moves off
its real value by at most near_p = sum_k k^p |c_k| sinh(kY).  On a cell
[a, b], f(a + x) >= f(a) + f'(a) x - sup|f''| x^2/2 from either end over
half the cell bounds |f| from below (_clear).  A cell is free when that
bound keeps |beta| > near_0 (sup|beta''| <= S_2): no root of the band lies
over it.  A cell is monotone when it keeps |d_u beta| > near_1 (S_3) with
one sign s: then Re(s d_u beta) > 0 on the rectangle [a, b] x [-Y, Y], so
beta is one-to-one there (Noshiro-Warschawski), the rectangle holds at most
one root, and that root is real, because roots off the axis come in
conjugate pairs; it is there when beta changes sign over the cell.  Adjacent
monotone cells share the sign of d_u beta at their common end, so a run of
them holds at most one zero, and counting the sign changes of the samples
with 0 taken as + counts it once even where the sample next to it has the
wrong sign; a run ends at free cells, whose ends are far from 0, and no run
closes around the circle, where d_u beta has mean 0.  An undecided cell is
halved, at most CELL_DEPTH times, and only the new midpoints are evaluated.
When every cell of a row is decided, z is the number of monotone cells with
a sign change, each zero is simple and zeros lie at least a cell apart, so
the companion count, which merges roots within UNIT_CIRCLE_TOL, is the same.
On the rows the dominant-mode test leaves open S_1 >= 0.999 max |c_k|, so
near_p is far above the rounding of the samples.  A row with an undecided
cell, or a count taken EVENT_DT/2 from a fold, where two zeros are about to
meet and halving would not decide, is solved from its roots: the companion
matrices of a call, built as np.roots builds them, go to one eigvals call per
degree.

A drop of z(t) is located at its fold, where two zeros meet and leave the
circle as a root pair: Newton's method on beta = d_u beta = 0 in (u, t)
starts from the angles of the roots off the circle after the drop, and two
counts, just before and just after the fold, certify it.  Bisection in t is
the fallback for a drop no certified fold accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ValidationError
from .spectral import SpectralBeta, _series

DERIVATIVE_THRESHOLD = 1e-8     # relative: simple cusp iff |d_u beta| > thr * scale
# A simple zero's root lies on |z| = 1 to rounding; a double root splits into
# two roots about sqrt(eps) ~ 1.5e-8 apart, on or off the circle.  Roots within
# this of the circle are zeros, and two within it of each other are one zero.
UNIT_CIRCLE_TOL = 1e-6
NEGLIGIBLE_MODE = 1e-14         # relative: smaller evolved modes are dropped
# Folds closer than this in t are one event, certified by counts EVENT_DT/2
# before the first and after the last; the fallback bisects to it.
EVENT_DT = 1e-6
# The dominant-mode certificate settles z(t) when its margin exceeds this,
# which covers rounding and the modes below NEGLIGIBLE_MODE.
CERTIFICATE_MARGIN = 1e-3
# The cell certificate's uniform grid (4(K + 1) points when that is more)
# and how often it halves an undecided cell.
CELL_GRID = 64
CELL_DEPTH = 8


@dataclass(frozen=True)
class Zero:
    location: float
    derivative: float
    kind: str  # "simple_cusp" | "degenerate"


@dataclass(frozen=True)
class CuspReport:
    t: float
    zeros: tuple
    scale: float
    certificate: tuple | None = None  # (j, margin) where mode j certifiably dominates: z = 2j

    @property
    def count(self):
        return len(self.zeros)


@dataclass(frozen=True)
class DecreaseEvent:
    """One strict decrease of z(t), with its degenerate-zero witness."""

    interval: tuple
    t_event: float
    count_before: int
    count_after: int
    witness_u: float
    witness_beta: float
    witness_dbeta: float


def _evolved_rows(s: SpectralBeta, times):
    """_evolved at every time at once: (c, rows, shift), row i of c holds the
    coefficients at times[i] padded with zeros, rows[i] the trimmed row.
    Raises InvariantViolationError when a shift is not a finite double."""
    times = np.asarray(times, dtype=float)
    c0 = s.cos_coeffs - 1j * s.sin_coeffs
    live = c0 != 0.0
    lam = s.eigenvalues()[live]
    top = np.where(times >= 0, lam.max(), lam.min())
    shift = top * times
    if not np.isfinite(shift).all():
        t = times[~np.isfinite(shift)][0]
        raise InvariantViolationError(f"growth exponent lambda_k t overflows at t = {float(t)!r}")
    c = np.repeat(c0[None], times.shape[0], axis=0)
    with np.errstate(over="ignore"):  # (lam - top) t of -inf is a factor of 0
        c[:, live] *= np.exp((lam - top[:, None]) * times[:, None])
    mag = np.abs(c)
    c[mag < NEGLIGIBLE_MODE * mag.max(axis=1, keepdims=True)] = 0.0
    size = c.shape[1] - (c[:, ::-1] != 0.0).argmax(axis=1)
    return c, [c[i, :k] for i, k in enumerate(size.tolist())], shift


def _evolved(s: SpectralBeta, t):
    """(c, shift), beta(u, t) = e^shift Re sum_k c_k e^{iku}, c_k = (a_k - i b_k)
    e^{lambda_k t - shift}; shift is the largest lambda_k t of a nonzero mode."""
    _, rows, shift = _evolved_rows(s, [t])
    return rows[0], float(shift[0])


def _derivatives(c, u, orders, lam=None):
    """Columns d_u^p d_t^q beta(u) = Re sum_k c_k (ik)^p lambda_k^q e^{iku}, (p, q) in orders."""
    k = np.arange(c.shape[0])
    weights = np.stack([c * (1j * k) ** p * (lam ** q if q else 1.0) for p, q in orders], 1)
    return _series(weights, np.asarray(u, dtype=float))


def _sup(c):
    """sup |Re sum_k c_k e^{iku}| on a uniform grid, by one inverse FFT."""
    return float(np.max(np.abs(_series(c, max(2048, 32 * c.shape[0])))))


def _certificates(c):
    """(j, margin) per row of c: j = argmax |c_k| and, with A = |c_j|,
    rho0 = sum_{k != j} |c_k| and rho1 = sum_{k != j} k |c_k|, the margin is
    1 - (rho0/A)^2 - (rho1/(jA))^2 (1 - rho0/A for j = 0).  A positive
    margin proves z = 2j with every zero simple; see _counts."""
    mag = np.abs(c)
    rows = np.arange(c.shape[0])
    j = np.argmax(mag, axis=1)
    top = mag[rows, j]
    mag[rows, j] = 0.0
    rho0, rho1 = mag.sum(axis=1) / top, (mag * np.arange(c.shape[1])).sum(axis=1) / top
    return j, np.where(j > 0, 1.0 - (rho0 ** 2 + (rho1 / np.maximum(j, 1)) ** 2), 1.0 - rho0)


def _roots(rows):
    """The 2K roots of z^K beta for each trimmed row c, whose coefficients from
    the top degree down are c_K/2 .. c_1/2, c_0, conj(c_1)/2 .. conj(c_K)/2:
    the eigenvalues of the companion matrices np.roots builds, bitwise its
    roots, from one eigvals call per degree."""
    out, groups = [np.empty(0, complex)] * len(rows), {}
    for i, c in enumerate(rows):
        groups.setdefault(c.shape[0], []).append(i)
    for size, index in groups.items():
        if size == 1:
            continue  # a constant: no roots
        c = np.array([rows[i] for i in index])
        # an exact power-of-two rescale, which leaves the quotients below as
        # they are, keeps them finite when every coefficient is tiny
        up = np.maximum(0, -np.frexp(np.abs(c).max(axis=1))[1])
        c = np.ldexp(c.view(float), up[:, None]).view(complex)
        p = np.concatenate([0.5 * c[:, :0:-1], c[:, :1].real, 0.5 * np.conj(c[:, 1:])], axis=1)
        companion = np.zeros((len(index), 2 * size - 2, 2 * size - 2), complex)
        companion[:, 1:, :-1] = np.eye(2 * size - 3)
        companion[:, 0] = -p[:, 1:] / p[:, :1]
        for i, roots in zip(index, np.linalg.eigvals(companion)):
            out[i] = roots
    return out


def _circle_zeros(roots):
    """Sorted angles of the unit-circle roots with the halves of a split
    double root merged, and flags marking the merged ones."""
    z = roots[np.abs(np.abs(roots) - 1.0) < UNIT_CIRCLE_TOL]
    z = z[np.argsort(np.mod(np.angle(z), 2.0 * np.pi))]
    close = np.abs(z - np.roll(z, 1)) < UNIT_CIRCLE_TOL
    label = np.zeros(z.shape[0], dtype=int) if close.all() else np.cumsum(~close) - 1
    label[label < 0] = label[-1] if label.size else 0     # a pair across the seam
    centre = np.bincount(label, z.real) + 1j * np.bincount(label, z.imag)
    return np.mod(np.angle(centre), 2.0 * np.pi), np.bincount(label) > 1


def _clear(fa, fb, da, db, h, bound, near):
    """Where |f| > near on a cell of width h, from f and f' at its ends (fa,
    da and fb, db) and |f''| <= bound: f(a + x) >= f(a) + f'(a) x - bound
    x^2/2 on the left half, the same from b on the right half, with the sign
    of f(a) taken as +; each bound is concave in x, so least at an end."""
    sign, x = np.sign(fa), 0.5 * h
    low = np.minimum(np.minimum(sign * fa, sign * fb),
                     np.minimum(sign * (fa + da * x), sign * (fb - db * x)) - 0.5 * bound * x * x)
    return low > near


def _cell_counts(c):
    """z per row of c by the cell certificate, or -1 where a cell is still
    undecided after CELL_DEPTH halvings (see the module docstring)."""
    c = c / np.abs(c).max(axis=1, keepdims=True)    # a tiny row would lose digits
    size = c.shape[1]
    k = np.arange(size)
    mag = np.abs(c)
    # S_p = sum_k k^p |c_k| bounds |d_u^p beta|, and near_p bounds how far
    # d_u^p beta moves off the real axis within the unit-circle band
    bound = mag @ (k[:, None] ** np.arange(4))
    near = (mag * np.sinh(2.0 * UNIT_CIRCLE_TOL * k)) @ (k[:, None] ** np.arange(2))
    weights = c[:, :, None] * (1j * k)[:, None] ** np.arange(3)    # beta, d_u, d_u^2
    num = max(CELL_GRID, 4 * size)
    f = _series(weights.transpose(1, 0, 2).reshape(size, -1), num)
    fa = f.reshape(num, c.shape[0], 3).transpose(1, 0, 2)
    fb = np.roll(fa, -1, axis=1).reshape(-1, 3)
    fa = fa.reshape(-1, 3)
    row = np.repeat(np.arange(c.shape[0]), num)
    lo = np.tile(2.0 * np.pi / num * np.arange(num), c.shape[0])
    h = 2.0 * np.pi / num
    zeros = np.zeros(c.shape[0], dtype=int)
    for depth in range(CELL_DEPTH + 1):
        free = _clear(fa[:, 0], fb[:, 0], fa[:, 1], fb[:, 1], h, bound[row, 2], near[row, 0])
        mono = ~free & _clear(fa[:, 1], fb[:, 1], fa[:, 2], fb[:, 2], h, bound[row, 3], near[row, 1])
        # a sign change, 0 taken as +, so a zero on a shared end counts once
        zeros += np.bincount(row[mono & ((fa[:, 0] < 0.0) != (fb[:, 0] < 0.0))],
                             minlength=c.shape[0])
        undecided = ~(free | mono)
        row, lo, fa, fb = row[undecided], lo[undecided], fa[undecided], fb[undecided]
        if depth == CELL_DEPTH or row.shape[0] == 0:
            break
        h *= 0.5
        mid = lo + h
        fm = np.real(np.einsum("ik,ikp->ip", np.exp(1j * np.multiply.outer(mid, k)), weights[row]))
        row, lo = np.concatenate([row, row]), np.concatenate([lo, mid])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    zeros[row] = -1
    return zeros


def _circle_counts(rows):
    """z from the roots and the circle test for each trimmed row, the
    companion matrices solved as one stack per degree."""
    return [_circle_zeros(roots)[0].shape[0] for roots in _roots(rows)]


def _counts(s, times):
    """z(t) at every time: 2j where the certificate of mode j holds, else by
    the cell certificate, and from the roots where a cell stays undecided,
    those rows solved as one stack per degree."""
    c, rows, _ = _evolved_rows(s, times)
    mode, margin = _certificates(c)
    counts = 2 * mode
    open_ = np.flatnonzero(margin <= CERTIFICATE_MARGIN)
    if open_.size:
        counts[open_] = _cell_counts(c[open_])
    left = open_[counts[open_] < 0]
    counts[left] = _circle_counts([rows[i] for i in left])
    return counts.tolist()


def _count(s, t):
    return _counts(s, [t])[0]


def _reports(s, times):
    """find_zeros at every time, the companion matrices solved as one stack per degree."""
    c, rows, shift = _evolved_rows(s, times)
    mode, margin = _certificates(c)
    reports = []
    for t, row, h, roots, j, m in zip(times, rows, shift, _roots(rows), mode, margin):
        u, merged = _circle_zeros(roots)
        for _ in range(2):
            d = _derivatives(row, u, ((0, 0), (1, 0), (2, 0)))
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(merged, d[:, 1] / d[:, 2], d[:, 0] / d[:, 1])
            # a root is already within sqrt(eps); a longer step would leave its zero
            u = np.mod(u - np.where(np.abs(step) < UNIT_CIRCLE_TOL, step, 0.0), 2.0 * np.pi)
        u = np.sort(u)
        slope, scale = _derivatives(row, u, ((1, 0),))[:, 0], _sup(row)
        zeros = tuple(Zero(float(r), float(np.exp(h) * d),
                           "simple_cusp" if abs(d) > DERIVATIVE_THRESHOLD * scale else "degenerate")
                      for r, d in zip(u, slope))
        certificate = (int(j), float(m)) if m > CERTIFICATE_MARGIN else None
        reports.append(CuspReport(float(t), zeros, float(np.exp(h) * scale), certificate))
    return reports


def find_zeros(s: SpectralBeta, t) -> CuspReport:
    """All zeros of beta(., t) on [0, 2*pi), polished by Newton steps on beta
    (on d_u beta for a merged double root) and classified."""
    if t < 0:
        raise ValidationError(f"time must be >= 0, got {t}")
    return _reports(s, [t])[0]


def _time_grid(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ValidationError("times must be strictly increasing and positive")
    return times


def _monotone(series):
    for (t0, z0), (t1, z1) in zip(series, series[1:]):
        if z1 > z0:
            raise InvariantViolationError(
                f"zero count increased from {z0} at t={t0:g} to {z1} at t={t1:g}")
    return series


def zero_count_series(s: SpectralBeta, times):
    """(t, z(t)) over a strictly increasing positive time grid.

    Raises InvariantViolationError if the count ever increases -- that would
    contradict the zero-number monotonicity of the flow.
    """
    times = _time_grid(times)
    return _monotone([(float(t), z) for t, z in zip(times, _counts(s, times))])


def report_series(s: SpectralBeta, times):
    """find_zeros at every time of the grid, checked like zero_count_series."""
    reports = _reports(s, _time_grid(times))
    _monotone([(r.t, r.count) for r in reports])
    return reports


def _refine_witness(s, u, t, lo, hi):
    """Polish a degenerate zero beta = d_u beta = 0 from (u, t) by Newton's
    method with the exact Jacobian [[d_u beta, d_t beta], [d_u^2 beta,
    d_t d_u beta]].

    Once the steps fall below 1e-13 the iterate with the smallest
    |beta| + |d_u beta| is returned: the last step's rounding may land a
    little off the best one.  None if Newton does not converge into
    [lo, hi]."""
    lam, best, residual, done = s.eigenvalues(), None, np.inf, False
    with np.errstate(all="ignore"):
        for _ in range(13):
            if not (np.isfinite(u) and abs(t) < 1e3 * max(1.0, hi)):
                return None  # diverged
            c, _ = _evolved(s, t)
            b, bt, bu, btu, buu = _derivatives(c, [u], ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0)),
                                               lam[: c.shape[0]])[0]
            if lo <= t <= hi and abs(b) + abs(bu) < residual:
                best, residual = (u, t), abs(b) + abs(bu)
            if done:
                break
            det = bu * btu - bt * buu
            du, dt = (bt * bu - b * btu) / det, (b * buu - bu * bu) / det
            u, t = u + du, t + dt
            done = abs(du) < 1e-13 and abs(dt) < 1e-13 * max(1.0, abs(t))
    if not done or best is None:
        return None
    return float(np.mod(best[0], 2.0 * np.pi)), float(best[1])


def _folds(s, lo, hi, pairs, roots):
    """Degenerate zeros (u, t) with lo < t < hi at distinct times, sorted by t.

    A zero pair lost at a fold leaves the circle as a root pair z, 1/conj(z)
    at the fold's angle, so Newton on beta = d_u beta = 0 in (u, t) starts
    from the angle of every root outside the circle at hi (roots), at t = lo,
    (lo + hi)/2 and hi.  All starts run as one array iteration, which stops
    once the folds of the given number of lost pairs are found; each fold is
    then polished by _refine_witness."""
    u = np.tile(np.angle(roots[np.abs(roots) > 1.0 + UNIT_CIRCLE_TOL]), 3)
    t = np.repeat([lo, 0.5 * (lo + hi), hi], u.shape[0] // 3)
    c0, lam = s.cos_coeffs - 1j * s.sin_coeffs, s.eigenvalues()
    live, k = c0 != 0.0, np.arange(c0.shape[0])
    # Re sum_k w_k e^{iku} o_k over the columns o of orders: beta, d_t, d_u, d_t d_u, d_u^2
    orders = np.stack([np.ones_like(lam), lam, 1j * k, 1j * k * lam, -k * k], 1)
    with np.errstate(all="ignore"):
        for _ in range(30):
            rate = np.where(live, np.multiply.outer(t, lam), -np.inf)
            w = c0 * np.exp(rate - rate.max(axis=1, keepdims=True))
            b, bt, bu, btu, buu = np.real((w * np.exp(1j * np.multiply.outer(u, k))) @ orders).T
            det = bu * btu - bt * buu
            du, dt = (bt * bu - b * btu) / det, (b * buu - bu * bu) / det
            u, t = u + du, t + dt
            done = (np.abs(du) < 1e-13) & (np.abs(dt) < 1e-13 * np.maximum(1.0, np.abs(t)))
            inside = np.flatnonzero(done & (lo < t) & (t < hi))
            inside = inside[np.argsort(t[inside])]
            distinct = inside[np.diff(t[inside], prepend=-np.inf) > 1e-10 * hi]
            if distinct.size >= pairs or np.all(done | ~np.isfinite(u + t)):
                break
    polished = (_refine_witness(s, u[i], t[i], lo, hi) for i in distinct)
    return [fold for fold in polished if fold is not None and lo < fold[1] < hi]


def _event(s, interval, t_event, before, after, u):
    c, _ = _evolved(s, t_event)
    wbeta, wdbeta = _derivatives(c, [u], ((0, 0), (1, 0)))[0] / _sup(c)
    return DecreaseEvent((float(interval[0]), float(interval[1])), float(t_event),
                         int(before), int(after), float(u), float(wbeta), float(wdbeta))


def _bisect(s, t_lo, t_hi, z_hi, cur_t, cur_z):
    """The events of the drops from cur_z at cur_t down to z_hi at t_hi, each
    bracketed by bisection in t to EVENT_DT; the witness is the Newton solve
    from the bracket's midpoint and the angle of the root pair that left the
    circle at its end (the bracket's midpoint and that angle if it fails)."""
    events = []
    while cur_z > z_hi:
        lo, hi = cur_t, t_hi
        while hi - lo > EVENT_DT:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _count(s, mid) < cur_z else (mid, hi)
        z_after = _count(s, hi)
        # the count drops a little after the fold, at UNIT_CIRCLE_TOL off the
        # circle; a fold before cur_t belongs to an event already reported
        lo = max(lo - EVENT_DT, cur_t)
        roots = _roots([_evolved(s, hi)[0]])[0]
        gap = np.abs(np.abs(roots) - 1.0)
        start = float(np.mod(np.angle(roots[np.argmin(
            np.where(gap < UNIT_CIRCLE_TOL, np.inf, gap))]), 2.0 * np.pi))
        wu, t_event = _refine_witness(s, start, 0.5 * (lo + hi), lo, hi) \
            or (start, 0.5 * (lo + hi))
        events.append(_event(s, (t_lo, t_hi), t_event, cur_z, z_after, wu))
        cur_t, cur_z = hi, z_after
    return events


def detect_strict_decrease(s: SpectralBeta, series):
    """Locate and certify every strict decrease in a zero-count series.

    In each drop interval the folds, the degenerate zeros where a zero pair
    is lost, are solved for by Newton's method (_folds), and folds less than
    EVENT_DT apart make one event.  Taken in time order, the folds from t0 to
    t* are an event when the count is still the current one at
    t0 - EVENT_DT/2 and lower at t* + EVENT_DT/2 (the series' own count past
    the interval's end).  The fold at t* is the witness and t* is t_event.
    Only a drop the certified folds do not account for (a fold no Newton
    start reaches, or one the counts do not certify) is bracketed by
    bisection in t instead (_bisect).
    """
    drops = [(t_lo, z_lo, t_hi, z_hi)
             for (t_lo, z_lo), (t_hi, z_hi) in zip(series, series[1:]) if z_hi < z_lo]
    ends = _roots(_evolved_rows(s, [drop[2] for drop in drops])[1])
    folds, before, after = [], [], []
    for (t_lo, z_lo, t_hi, z_hi), roots in zip(drops, ends):
        groups = []  # [t of the first fold, u and t of the last]
        for u, t in _folds(s, t_lo, t_hi, (z_lo - z_hi) // 2, roots):
            if groups and t - groups[-1][2] < EVENT_DT:
                groups[-1][1:] = [u, t]
            else:
                groups.append([t, u, t])
        folds.append(groups)
        before += [t0 - 0.5 * EVENT_DT for t0, _, _ in groups]
        after += [t + 0.5 * EVENT_DT for _, _, t in groups if t + 0.5 * EVENT_DT < t_hi]
    # the certifying counts of every interval as one stack; a count this near
    # a fold, where two zeros are about to meet, goes straight to the roots
    probes = _circle_counts(_evolved_rows(s, before + after)[1])
    z_before, z_after = iter(probes[: len(before)]), iter(probes[len(before):])
    events = []
    for (t_lo, z_lo, t_hi, z_hi), groups in zip(drops, folds):
        # the series' own z_hi past the interval's end
        counts = [(next(z_before), next(z_after) if t + 0.5 * EVENT_DT < t_hi else z_hi)
                  for _, _, t in groups]
        cur_t, cur_z = t_lo, z_lo
        for (_, wu, t_event), (zb, za) in zip(groups, counts):
            if cur_z == z_hi or zb != cur_z or za >= cur_z:
                break
            events.append(_event(s, (t_lo, t_hi), t_event, cur_z, za, wu))
            cur_t, cur_z = t_event + 0.5 * EVENT_DT, za
        events += _bisect(s, t_lo, t_hi, z_hi, cur_t, cur_z)
    return events


def __getattr__(name):
    # scipy names of the former root finder, imported on lookup (benchmark call counts)
    if name in ("brentq", "least_squares"):
        return getattr(__import__("scipy.optimize").optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
