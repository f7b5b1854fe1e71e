"""Zero tracking and (2,3)-cusp classification for the evolving beta.

A zero of beta(., t) marks a singular point of the flowing frontal; it is a
(2,3)-cusp when d_u beta != 0 there (l = n > 0 always holds for the special
flow).  The zero count z(t) is non-increasing in t (Angenent's zero-number
theorem), and each strict drop happens exactly at a degenerate zero with
beta = d_u beta = 0.  beta(., t) = Re sum_k c_k e^{iku} is a trigonometric
polynomial of degree K, on which d_u and d_t act mode-wise as (ik)^p
lambda_k^q.  Zero sets ignore positive factors, so the largest growth factor
is divided out: counts hold at any t.  The rows, weights and point sums come
from spectral's kernel (_rows, _weights, _derivatives), which drops no mode.

Most counts need no search.  Write beta = A cos(j(u - phi)) + R with j
the mode of largest |c_k| = A, so |R| <= rho0 = sum_{k != j} |c_k| and
|d_u R| <= rho1 = sum_{k != j} k |c_k|.  If (rho0/A)^2 + (rho1/(jA))^2 < 1,
take theta with cos(theta) > rho0/A and sin(theta) > rho1/(jA): beta has no
zero where |cos(j(u - phi))| >= cos(theta), and on each of the other 2j arcs
it is strictly monotone and changes sign, so z = 2j and every zero is
simple (rho0 < |c_0| gives z = 0 for j = 0).

The other counts are settled by cells.  beta, d_u beta and d_u^2 beta are
sampled on a uniform grid of CELL_GRID points (4(K + 1) if more) by one
inverse FFT of the call's stack, and S_p = sum_k k^p |c_k| bounds |d_u^p
beta|.  On a cell [a, b], f(a + x) >= f(a) + f'(a) x - sup|f''| x^2/2 from
either end over half the cell bounds |f| from below (_clear), and near_p =
64 eps S_p allows for the rounding of a value of d_u^p beta (_cell_zeros).
A cell is free when that bound keeps |beta| > near_0 (sup|beta''| <= S_2):
it holds no zero.  A cell is monotone when it keeps |d_u beta| > near_1
(S_3) with one sign: it holds one zero when beta changes sign over it and
none otherwise.  Adjacent monotone cells share the sign of d_u beta at their
common end, so a run of them holds at most one zero, and counting the sign
changes of the samples with 0 taken as + counts it once even where the
sample next to it has the wrong sign; a run ends at free cells, whose ends
are off 0, and no run closes around the circle, where d_u beta has mean 0.
An undecided cell is halved, at most CELL_DEPTH times, and only the new
midpoints are evaluated.

A cell the halvings leave, where zeros crowd together, takes one Rolle step:
its order p is the lowest in 2..ROLLE_ORDER for which _clear keeps |d_u^p
beta| > near_p (a Taylor bound; Moore, Kearfott and Cloud, Introduction to
Interval Analysis, SIAM 2009), and a cell no order clears holds a zero of
higher multiplicity to rounding: InvariantViolationError.  For j = p - 1
down to 1, d_u^j beta is monotone on each piece of the cell, and its zero,
located by Newton steps kept inside the piece (_root), splits a piece over
which it changes sign clear of near_j.  So beta is monotone on each piece,
and by Rolle's theorem the cell holds at most p zeros.  A point where beta
and d_u beta are both within near of 0 is one multiple zero ("degenerate")
pinned to that point, and the pieces it bounds count no other; any other
piece holds a zero when beta changes sign over it, 0 taken as +.  Such a
point ends no free or monotone cell, so the cells on both sides of it take
the Rolle step, and the piece it starts counts it once.  Counts, reports and
the starts of the fold solve below all take their zeros from this one finder
(_cell_zeros).  A report polishes each zero by Newton steps kept inside the
cell or piece that holds it alone, and takes its kind from the certificate
that found it: a zero of a monotone cell or piece is simple, a (2,3)-cusp,
and a pinned one is degenerate.

A drop of z(t) over an interval (t_lo, t_hi) of the series is located at
its folds and certified by counting them.  At a zero beta_t = beta_uu/n^2 +
beta = beta_uu/n^2, so near a degenerate zero (u*, t*) with beta_uu != 0,
beta ~ (beta_uu/2)((u - u*)^2 + 2(t - t*)/n^2): two zeros 2 sqrt(2(t* - t))/n
apart before t* and none after, one pair lost.  Every degenerate zero drops
z by at least 2 (Angenent, J. reine angew. Math. 390, 1988), so when the
interval holds (z_lo - z_hi)/2 distinct ones there is no other, each drops z
by exactly 2, and the counts between them are known without a solve.
Newton's method on F = (beta, d_u beta) = 0 in (u, t) finds the folds, from
the midpoints between adjacent zeros at t_lo (those of the cell sweep that
counted the series, _swept), taken at t_lo, (t_lo + t_hi)/2 and t_hi, and
the Newton-Kantorovich test proves each in the box
B = [u0 - r, u0 + r] x [t0 - r, t0 + r] of the max norm: with J the Jacobian
at the centre x0 and A its inverse, Y = |A|(|F(x0)| + rounding) bounds the
Newton step, Z0 = |I - AJ| + |A| (rounding of J), and Z2 = |A| L with L
bounding the derivatives of J on the box by S_pq = sum_k k^p |lambda_k|^q
|c_k| e^{lambda_k t0 + |lambda_k| FOLD_BOX}.  If Z2 r^2 - (1 - Z0) r + Y <= 0 for
an r <= FOLD_BOX, x -> x - A F(x) maps B into itself as a contraction, so B
holds a zero of F.  A fold is certified when B also lies inside the interval
and keeps |beta_uu| above 0, and the boxes of an interval are pairwise
disjoint, so their folds are distinct.  Folds whose certified t-ranges [t0 -
r, t0 + r] overlap are one event, and the box's F(x0) is its witness.  A
drop its certified folds do not account for (a fold no start reaches, or a
degenerate one such as three zeros merging) is bracketed by bisection in t
to EVENT_DT instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ValidationError
from .spectral import (SpectralBeta, _check_time, _derivatives, _finite_rows, _row, _rows,
                       _series, _weights)

# The width in t to which the bisection fallback brackets each event.
EVENT_DT = 1e-6
# The dominant-mode certificate settles z(t) when its margin exceeds this.
# That is far above rounding, but a lower value would change which rows the
# cells sweep and which reports carry a certificate.
CERTIFICATE_MARGIN = 1e-3
# The cell certificate's uniform grid (4(K + 1) points when that is more),
# how often it halves an undecided cell, and the highest derivative order the
# Rolle step tries on a cell the halvings leave.
CELL_GRID = 64
CELL_DEPTH = 8
ROLLE_ORDER = 3
# Newton steps of the fold solve and of each root of the Rolle step, about
# how many starts one array iteration of the fold solve takes (its duplicate
# test compares every pair), and the half-width of the box in (u, t) over
# which the fold certificate bounds the derivatives of beta.
NEWTON_STEPS = 40
NEWTON_STARTS = 512
FOLD_BOX = 1e-6


@dataclass(frozen=True)
class Zero:
    location: float
    derivative: float
    kind: str  # "simple_cusp" | "degenerate"


@dataclass(frozen=True)
class CuspReport:
    t: float
    zeros: tuple
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
    # ("fold", box radius, residual) or ("bisection",): see detect_strict_decrease
    certificate: tuple | None = None


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


def _clear(fa, fb, da, db, h, bound, near):
    """Where |f| > near on a cell of width h, from f and f' at its ends (fa,
    da and fb, db) and |f''| <= bound: f(a + x) >= f(a) + f'(a) x - bound
    x^2/2 on the left half, the same from b on the right half, with the sign
    of f(a) taken as +; each bound is concave in x, so least at an end."""
    sign, x = np.sign(fa), 0.5 * h
    low = np.minimum(np.minimum(sign * fa, sign * fb),
                     np.minimum(sign * (fa + da * x), sign * (fb - db * x)) - 0.5 * bound * x * x)
    return low > near


def _cell_zeros(c):
    """(z, row, u, lo, hi): z per row of c, and for every zero its row, its
    location and an interval [lo, hi] holding it alone: a monotone cell and
    its secant root, a Rolle piece and its root, or a multiple zero's point
    (lo = u = hi); see the module docstring.  near_p = 64 eps S_p: over 300
    random rows with K <= 128, the FFT samples and the point values at the
    cells' midpoints were off by at most 24 eps S_p."""
    # a tiny row would lose digits; a complex division by a subnormal overflows
    c = (c.view(float) / np.abs(c).max(axis=1, keepdims=True)).view(complex)
    size = c.shape[1]
    k = np.arange(size)
    bound = np.abs(c) @ (k[:, None] ** np.arange(ROLLE_ORDER + 3))
    near = 64.0 * np.finfo(float).eps * bound
    weights = _weights(size, ((0, 0), (1, 0), (2, 0)))    # beta, d_u, d_u^2
    num = max(CELL_GRID, 4 * size)
    f = _series((c[:, :, None] * weights).transpose(1, 0, 2).reshape(size, -1), num)
    fa = f.reshape(num, c.shape[0], 3).transpose(1, 0, 2)
    fb = np.roll(fa, -1, axis=1).reshape(-1, 3)
    fa = fa.reshape(-1, 3)
    row = np.repeat(np.arange(c.shape[0]), num)
    lo = np.tile(2.0 * np.pi / num * np.arange(num), c.shape[0])
    h = 2.0 * np.pi / num
    found = []
    for depth in range(CELL_DEPTH + 1):
        free = _clear(fa[:, 0], fb[:, 0], fa[:, 1], fb[:, 1], h, bound[row, 2], near[row, 0])
        mono = ~free & _clear(fa[:, 1], fb[:, 1], fa[:, 2], fb[:, 2], h, bound[row, 3], near[row, 1])
        # a sign change, 0 taken as +, so a zero on a shared end counts once
        hit = mono & ((fa[:, 0] < 0.0) != (fb[:, 0] < 0.0))
        a, b, x = fa[hit, 0], fb[hit, 0], lo[hit]
        found.append((row[hit], x + h * a / (a - b), x, x + h))
        undecided = ~(free | mono)
        row, lo, fa, fb = row[undecided], lo[undecided], fa[undecided], fb[undecided]
        if depth == CELL_DEPTH or row.shape[0] == 0:
            break
        h *= 0.5
        mid = lo + h
        fm = _derivatives(c[row], mid, weights)
        row, lo = np.concatenate([row, row]), np.concatenate([lo, mid])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    if row.shape[0]:    # most calls leave no cell, and cusp_tracking counts every call
        found.append(_rolle(c, row, lo, h, fa, fb, bound, near))
    found = [np.concatenate(column) for column in zip(*found)]
    return (np.bincount(found[0], minlength=c.shape[0]), *found)


def _rolle(c, row, lo, h, fa, fb, bound, near):
    """(row, u, lo, hi) of the zeros in the cells [lo, lo + h] the halvings
    leave (fa, fb: beta, d_u beta and d_u^2 beta at their ends), by the Rolle
    step of the module docstring."""
    orders = [(p, 0) for p in range(ROLLE_ORDER + 2)]
    weights, high = _weights(c.shape[1], orders), _weights(c.shape[1], orders[3:])
    fl, fr = (np.c_[f, _derivatives(c[row], x, high)] for f, x in ((fa, lo), (fb, lo + h)))
    order = np.zeros(row.shape, dtype=int)
    for p in range(ROLLE_ORDER, 1, -1):     # the lowest order that clears wins
        order[_clear(fl[:, p], fr[:, p], fl[:, p + 1], fr[:, p + 1], h, bound[row, p + 2],
                     near[row, p])] = p
    if not order.all():
        raise InvariantViolationError(
            f"no order up to {ROLLE_ORDER} isolates the zeros of beta within {h:.2g} of u = "
            f"{float(lo[np.argmin(order)])!r}: a zero of higher multiplicity")
    left, right = lo, lo + h
    for j in range(ROLLE_ORDER - 1, 0, -1):
        i = np.flatnonzero((order > j) & ((fl[:, j] < 0.0) != (fr[:, j] < 0.0))
                           & (np.minimum(np.abs(fl[:, j]), np.abs(fr[:, j])) > near[row, j]))
        x = _root(c[row[i]], j, left[i], right[i], fl[i, j], fr[i, j])
        fx = _derivatives(c[row[i]], x, weights)
        row, order, left, fl = np.r_[row, row[i]], np.r_[order, order[i]], np.r_[left, x], \
            np.r_[fl, fx]
        right, fr = np.r_[right, right[i]], np.r_[fr, fr[i]]
        right[i], fr[i] = x, fx
    # a multiple zero counts at the piece it starts; 0 taken as + as for cells
    multiple = [(np.abs(f[:, 0]) <= near[row, 0]) & (np.abs(f[:, 1]) <= near[row, 1])
                for f in (fl, fr)]
    i = np.flatnonzero(~multiple[0] & ~multiple[1] & ((fl[:, 0] < 0.0) != (fr[:, 0] < 0.0)))
    x, pinned = _root(c[row[i]], 0, left[i], right[i], fl[i, 0], fr[i, 0]), left[multiple[0]]
    return (np.r_[row[multiple[0]], row[i]], np.r_[pinned, x], np.r_[pinned, left[i]],
            np.r_[pinned, right[i]])


def _root(c, order, left, right, fl, fr):
    """The zero of d_u^order beta on each piece [left, right] over which it is
    monotone and changes sign from fl to fr (0 taken as +), c one row per
    piece: Newton steps from the secant root, each kept inside the bracket of
    the sign change or else replaced by the bracket's midpoint."""
    x = left + (right - left) * fl / (fl - fr)
    weights = _weights(c.shape[1], ((order, 0), (order + 1, 0)))
    for _ in range(NEWTON_STEPS):
        f, slope = _derivatives(c, x, weights).T
        below = (f < 0.0) == (fl < 0.0)
        left, right = np.where(below, x, left), np.where(below, right, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x - f / slope
        x = np.where((left <= x) & (x <= right), x, 0.5 * (left + right))
    return x


# The last cell sweep of a series, (s, times, swept, row, u): the zeros u
# _cell_zeros found in the rows times[swept] of s, row counting in swept.
# detect_strict_decrease takes its Newton starts from it (_swept); holding s
# keeps its id from being reused.
_sweep = None


def _swept(s, times, rows):
    """(row, u): the zeros _cell_zeros finds in the rows of s at times[rows],
    row counting in rows, from the last sweep when it covered them at these
    exact times, else from a new sweep."""
    last = _sweep
    if (last is not None and last[0] is s and np.array_equal(last[1], times)
            and set(rows.tolist()) <= set(last[2].tolist())):
        _, _, swept, row, u = last
        index = np.full(swept.shape, -1)
        index[np.searchsorted(swept, rows)] = np.arange(rows.shape[0])
        keep = index[row] >= 0
        return index[row[keep]], u[keep]
    return _cell_zeros(_finite_rows(_row(s), s.eigenvalues(), times[rows])[0])[1:3]


def _counts(s, times):
    """z(t) at every time: 2j where the certificate of mode j holds, else the
    number of zeros _cell_zeros finds.  The sweep also takes the certified
    rows a drop may start at (the next row open or certified lower), so that
    detect_strict_decrease finds every drop's first row in it."""
    global _sweep
    c, _ = _finite_rows(_row(s), s.eigenvalues(), times)
    mode, margin = _certificates(c)
    counts = 2 * mode
    open_ = margin <= CERTIFICATE_MARGIN
    start = np.zeros_like(open_)
    start[:-1] = open_[1:] | (counts[1:] < counts[:-1])
    swept = np.flatnonzero(open_ | start)
    if swept.size:
        z, row, u = _cell_zeros(c[swept])[:3]
        counts[open_] = z[open_[swept]]
        _sweep = (s, np.array(times, dtype=float), swept, row, u)
    return counts.tolist()


def _reports(s, times):
    """find_zeros at every time: the zeros _cell_zeros finds in every row,
    polished by Newton steps, each of the kind its certificate proves."""
    global _sweep
    c, shift = _finite_rows(_row(s), s.eigenvalues(), times)
    mode, margin = _certificates(c)
    _, row, u, lo, hi = _cell_zeros(c)
    _sweep = (s, np.array(times, dtype=float), np.arange(c.shape[0]), row, u)
    simple = lo < hi    # a pinned zero (lo = u = hi) is multiple to rounding
    # Newton steps from a cell's secant root reach its zero, |beta| <= 18 eps
    # S_0 after 7 at every zero of the 3,000 benchmark-pool candidates; a step
    # stops at the ends of the interval that holds the zero alone
    weights = _weights(c.shape[1], ((0, 0), (1, 0)))
    for _ in range(8):
        d = _derivatives(c[row], u, weights)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(simple, np.clip(u - d[:, 0] / d[:, 1], lo, hi), u)
    u = np.mod(u, 2.0 * np.pi)
    order = np.lexsort((u, row))
    row, u, simple = row[order], u[order], simple[order]
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.exp(shift)[row] * _derivatives(c[row], u, _weights(c.shape[1], ((1, 0),)))[:, 0]
    if not np.isfinite(slope).all():
        raise InvariantViolationError(
            f"a slope d_u beta overflows at t = {float(times[row[~np.isfinite(slope)][0]])!r}")
    kind = np.where(simple, "simple_cusp", "degenerate")
    zeros = list(map(Zero, u.tolist(), slope.tolist(), kind.tolist()))
    end = np.cumsum(np.bincount(row, minlength=c.shape[0])).tolist()
    return [CuspReport(t, tuple(zeros[a:b]), (j, m) if m > CERTIFICATE_MARGIN else None)
            for t, a, b, j, m in zip(np.asarray(times, dtype=float).tolist(), [0, *end], end,
                                     mode.tolist(), margin.tolist())]


def find_zeros(s: SpectralBeta, t) -> CuspReport:
    """All zeros of beta(., t) on [0, 2*pi), polished by Newton steps on beta,
    each a simple_cusp or degenerate as the certificate that found it proves."""
    return _reports(s, [_check_time(t)])[0]


def _time_grid(times):
    times = _check_time(times)
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


def _jets(s, orders):
    """jet(u, t) -> (columns d_u^p d_t^q beta(u_i, t_i) / S_0(t_i) for (p, q) in
    orders, w): every (u_i, t_i) at once, w_i the row of t_i (_rows) over
    S_0(t_i) = sum_k |w_ik|, which bounds |beta(., t_i)| e^{-shift}.  The
    weights are built once, for every call of jet."""
    c, lam = _row(s), s.eigenvalues()
    weights = _weights(lam.shape[0], orders, lam)

    def jet(u, t):
        w = _rows(c, lam, t)[0]
        w /= np.abs(w).sum(axis=1, keepdims=True)
        return _derivatives(w, u, weights), w

    return jet


def _newton(s, u, t, lo, hi, pairs, group):
    """Degenerate zeros beta = d_u beta = 0 by Newton's method in (u, t) with
    the exact Jacobian [[d_u beta, d_t beta], [d_u^2 beta, d_t d_u beta]],
    from every start (u_i, t_i) as one array iteration; start i looks for a
    fold of interval group[i], lo < t < hi, which loses pairs zero pairs.

    Once a start's steps fall below 1e-13 its iterates in its interval are
    candidates, and the one with the smallest residual |beta| + |d_u beta|
    (over S_0) is its fold: the last step's rounding may land a little off
    the best one.  The iteration stops when every interval has as many
    distinct folds as it loses pairs, or every start has converged or
    diverged.  Returns per interval the distinct folds (u, t, residual),
    sorted by t."""
    jet = _jets(s, ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0)))
    u, t = np.asarray(u, dtype=float), np.asarray(t, dtype=float)
    lo_i, hi_i = lo[group], hi[group]
    best, fold_u, fold_t = np.full(u.shape, np.inf), u, t
    polish = np.zeros(u.shape, dtype=bool)

    distinct = None     # _distinct of the folds as they stand, once it is needed

    def enough(i):  # as many of the starts i in every interval as it loses pairs
        return np.all(np.bincount(group[i], minlength=pairs.shape[0]) >= pairs)

    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            b, bt, bu, btu, buu = jet(u, t)[0].T
            residual = np.abs(b) + np.abs(bu)
            better = polish & (lo_i < t) & (t < hi_i) & (residual < best)
            if better.any():
                best = np.where(better, residual, best)
                fold_u, fold_t = np.where(better, u, fold_u), np.where(better, t, fold_t)
                distinct = None
            found = best < np.inf
            if np.all(found | polish | ~np.isfinite(u + t)):
                break
            if enough(found):   # the distinct folds are some of the found ones
                if distinct is None:
                    distinct = _distinct(fold_u, fold_t, best, group, hi)
                if enough(distinct):
                    break
            det = bu * btu - bt * buu
            du, dt = (bt * bu - b * btu) / det, (b * buu - bu * bu) / det
            u, t = u + du, t + dt
            polish = (np.abs(du) < 1e-13) & (np.abs(dt) < 1e-13 * np.maximum(1.0, np.abs(t)))
    if distinct is None:
        distinct = _distinct(fold_u, fold_t, best, group, hi)
    folds = [[] for _ in pairs]
    for i in distinct:
        folds[group[i]].append((float(np.mod(fold_u[i], 2.0 * np.pi)), float(fold_t[i]),
                                float(best[i])))
    return folds


def _distinct(u, t, residual, group, hi):
    """Indices of the found folds (finite residual) with none of smaller
    residual in the same interval within 1e-9 in u and 1e-10 hi in t,
    sorted by interval, then by t."""
    i = np.flatnonzero(residual < np.inf)
    i = i[np.argsort(residual[i], kind="stable")]
    same = ((_gaps(u[i]) < 1e-9) & (np.abs(t[i, None] - t[i]) < 1e-10 * hi[group[i]][:, None])
            & (group[i, None] == group[i]))
    i = i[~np.tril(same, -1).any(axis=1)]
    return i[np.lexsort((t[i], group[i]))]


def _folds(s, lo, hi, pairs, starts):
    """Per drop interval (lo, hi) that loses pairs zero pairs, its folds (u,
    t, residual): _newton from each of its start angles at t = lo, (lo +
    hi)/2 and hi, the intervals whose starts begin within the same
    NEWTON_STARTS as one iteration."""
    size = np.array([3 * x.shape[0] for x in starts])
    chunk = (np.cumsum(size) - size) // NEWTON_STARTS
    folds = []
    for c in np.unique(chunk):
        i = np.flatnonzero(chunk == c)
        group = np.repeat(np.arange(i.shape[0]), size[i] // 3)
        t = np.stack([lo[i], 0.5 * (lo[i] + hi[i]), hi[i]])[:, group].ravel()
        folds += _newton(s, np.tile(np.concatenate([starts[j] for j in i]), 3), t,
                         lo[i], hi[i], pairs[i], np.tile(group, 3))
    return folds


def _fold_boxes(s, u, t, lo, hi):
    """(r, witness): per fold (u, t) the radius r of a box [u - r, u + r] x
    [t - r, t + r] inside lo < t < hi that holds a degenerate zero with d_u^2
    beta != 0 on all of it, by the Newton-Kantorovich test in the module
    docstring, nan where the test fails; and the columns beta and d_u beta
    over S_0 at (u, t)."""
    values, w = _jets(s, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1)))(u, t)
    b, bu, bt, buu, but = values.T
    lam = np.abs(s.eigenvalues())
    k = np.arange(lam.shape[0])
    mag = np.abs(w)
    # sup over the box of |d_u^p d_t^q beta| / S_0 for (p, q) = (2, 0), (1, 1),
    # (0, 2), (3, 0), (2, 1), (1, 2), and the rounding of the values at its
    # centre, each term's phase and growth factor off by eps times their
    # arguments, for (0, 0), (1, 0), (0, 1), (2, 0), (1, 1)
    s20, s11, s02, s30, s21, s12 = ((mag * np.exp(lam * FOLD_BOX)) @ np.stack(
        [k * k, k * lam, lam * lam, k ** 3, k * k * lam, k * lam * lam], 1)).T
    slack = 16.0 * np.finfo(float).eps * (2.0 + 2.0 * np.pi * k[-1] + 2.0 * lam.max() * t)
    e00, e10, e01, e20, e11 = slack * (mag @ np.stack(
        [np.ones_like(lam), k, lam, k * k, k * lam], 1)).T
    with np.errstate(all="ignore"):
        # row by row of A = J^-1, J = [[bu, bt], [buu, but]] and I: Y = |A| (|F|
        # + rounding), and the row sums of Z0 = |I - AJ| + |A| (rounding of J)
        # and of Z2 = |A| L, L = [[s20 + s11, s11 + s02], [s30 + s21, s21 + s12]]
        det = bu * but - bt * buu
        y0 = z0 = z2 = -np.inf
        for (p, q), (one, zero) in (((but / det, -bt / det), (1.0, 0.0)),
                                    ((-buu / det, bu / det), (0.0, 1.0))):
            ap, aq = np.abs(p), np.abs(q)
            y0 = np.maximum(y0, ap * (np.abs(b) + e00) + aq * (np.abs(bu) + e10))
            z0 = np.maximum(z0, (np.abs(one - (p * bu + q * buu)) + (ap * e10 + aq * e20))
                            + (np.abs(zero - (p * bt + q * but)) + (ap * e01 + aq * e11)))
            z2 = np.maximum(z2, (ap * (s20 + s11) + aq * (s30 + s21))
                            + (ap * (s11 + s02) + aq * (s21 + s12)))
        gap = 1.0 - z0
        r = 2.0 * y0 / (gap + np.sqrt(gap * gap - 4.0 * z2 * y0))
        ok = ((gap > 0.0) & (r <= FOLD_BOX) & (lo < t - r) & (t + r < hi)
              & (np.abs(buu) - e20 - (s30 + s21) * r > 0.0))
    return np.where(ok, r, np.nan), values[:, :2]


def _accounted(s, lo, hi, pairs, folds):
    """Per interval the box radii and witnesses of its folds (_fold_boxes)
    when they are as many certified folds in pairwise disjoint boxes as it
    loses pairs, which accounts for every fold in it (see the module
    docstring); else None."""
    size = np.array([len(f) for f in folds])
    group = np.repeat(np.arange(size.shape[0]), size)
    u, t = (np.array([fold[j] for f in folds for fold in f]) for j in (0, 1))
    r, witness = _fold_boxes(s, u, t, lo[group], hi[group])
    meet = (group[:, None] == group) & (np.maximum(_gaps(u), np.abs(t[:, None] - t))
                                        <= r[:, None] + r)
    np.fill_diagonal(meet, False)
    refused = np.bincount(group[np.isnan(r) | meet.any(axis=1)], minlength=size.shape[0])
    split = np.cumsum(size)[:-1]
    return [(radii, w) if n == p and not bad else None
            for radii, w, n, p, bad in zip(np.split(r, split), np.split(witness, split), size,
                                           pairs, refused)]


def _gaps(u):
    """|u_i - u_j| on the circle for every pair."""
    return np.abs(np.mod(u[:, None] - u + np.pi, 2.0 * np.pi) - np.pi)


def _groups(folds):
    """The folds (u, t, residual, r, ...) in time order as lists joined where
    their certified t-ranges [t - r, t + r] overlap: each list is one event."""
    groups = []
    for fold in folds:
        joined = [fold]
        while groups and max(f[1] + f[3] for f in groups[-1]) >= fold[1] - fold[3]:
            joined = groups.pop() + joined
        groups.append(joined)
    return groups


def _starts(row, zeros, size):
    """Newton start angles per drop interval: the midpoints between adjacent
    zeros at its start, the zeros (row, u) that _cell_zeros found in the
    size intervals' first rows."""
    order = np.lexsort((zeros, row))
    row, zeros = row[order], zeros[order]
    count = np.bincount(row, minlength=size)
    # each zero's next one in its row, the last one's the first one
    last = np.r_[row[1:] != row[:-1], True]
    following = np.where(last, zeros[(np.cumsum(count) - count)[row]] + 2.0 * np.pi,
                         np.r_[zeros[1:], 0.0])
    return np.split(0.5 * (zeros + following), np.cumsum(count)[:-1])


def _bisect(s, t_lo, z_lo, t_hi, z_hi):
    """The events of the drop from z_lo at t_lo to z_hi at t_hi, each
    bracketed by bisection in t to EVENT_DT; the witness is _newton's fold
    in the bracket from its midpoint and the zeros and _starts at its lo (the
    midpoint and the first zero if it finds none)."""
    events = []
    cur_t, cur_z = t_lo, z_lo
    while cur_z > z_hi:
        lo, hi = cur_t, t_hi
        while hi - lo > EVENT_DT:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _counts(s, [mid])[0] < cur_z else (mid, hi)
        z_after = _counts(s, [hi])[0]
        # the fold lies in (lo, hi] to rounding; one before cur_t belongs to
        # an event already reported
        lo = max(lo - EVENT_DT, cur_t)
        row, zeros = _cell_zeros(_finite_rows(_row(s), s.eigenvalues(), [lo])[0])[1:3]
        start = np.r_[zeros, _starts(row, zeros, 1)[0]]     # three merge at the middle one
        [fold] = _newton(s, start, np.full(start.shape, 0.5 * (lo + hi)), np.array([lo]),
                         np.array([hi]), np.array([1]), np.zeros(start.shape, dtype=int))
        wu, t_event = fold[0][:2] if fold else (float(start[0]), 0.5 * (lo + hi))
        events.append(((t_lo, t_hi), t_event, cur_z, z_after, wu))
        cur_t, cur_z = hi, z_after
    with np.errstate(all="ignore"):
        witness = _jets(s, ((0, 0), (1, 0)))(np.array([e[4] for e in events]),
                                              np.array([e[1] for e in events]))[0]
    return [(*event, w, ("bisection",)) for event, w in zip(events, witness)]


def detect_strict_decrease(s: SpectralBeta, series):
    """Locate and certify every strict decrease in a zero-count series.

    In each drop interval the folds, the degenerate zeros where a zero pair
    is lost, are solved for by Newton's method (_folds) from the zeros at
    its start, which the series' own cell sweep found (_swept).  When the
    interval holds one certified fold per lost pair (_accounted), each fold
    drops the count by 2, and folds whose certified t-ranges overlap make
    one event, whose last fold is the witness and whose time t_event; the
    witness beta and d_u beta over S_0 are those of its box.  A drop they do
    not account for is bracketed by bisection in t instead (_bisect).
    """
    first = [i for i in range(len(series) - 1) if series[i + 1][1] < series[i][1]]
    if not first:
        return []
    drops = [(*series[i], *series[i + 1]) for i in first]
    lo, z_lo, hi, z_hi = (np.array(column) for column in zip(*drops))
    pairs = (z_lo - z_hi) // 2
    times = np.array([t for t, _ in series], dtype=float)
    starts = _starts(*_swept(s, times, np.array(first)), len(first))
    folds = _folds(s, lo, hi, pairs, starts) or [[] for _ in drops]
    raw = []
    for drop, found, box in zip(drops, folds, _accounted(s, lo, hi, pairs, folds)):
        if box is None:
            raw += _bisect(s, *drop)
            continue
        t_lo, z, t_hi, _ = drop
        radius, witness = (x.tolist() for x in box)
        for group in _groups([fold + (r, w) for fold, r, w in zip(found, radius, witness)]):
            u, t, _, _, w = group[-1]
            certificate = ("fold", max(f[3] for f in group), max(f[2] for f in group))
            raw.append(((t_lo, t_hi), t, z, z - 2 * len(group), u, w, certificate))
            z -= 2 * len(group)
    return [DecreaseEvent((float(t_lo), float(t_hi)), float(t_event), int(before), int(after),
                          float(u), float(wbeta), float(wdbeta), certificate)
            for (t_lo, t_hi), t_event, before, after, u, (wbeta, wdbeta), certificate in raw]


def __getattr__(name):
    # scipy names of the former root finder, imported on lookup (benchmark call counts)
    if name in ("brentq", "least_squares"):
        return getattr(__import__("scipy.optimize").optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
