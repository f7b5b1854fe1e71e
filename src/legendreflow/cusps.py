"""Zero tracking and (2,3)-cusp classification for the evolving beta.

A zero of beta(., t) marks a singular point of the flowing frontal; it is a
(2,3)-cusp when d_u beta != 0 there (l = n > 0 always holds for the special
flow).  The zero count z(t) is non-increasing in t (Angenent's zero-number
theorem), and each strict drop happens exactly at a degenerate zero with
beta = d_u beta = 0.  With z = e^{iu} the zeros of the degree-K trigonometric
polynomial beta are the unit-circle roots of the polynomial z^K beta, the
eigenvalues of its companion matrix (Boyd, J. Eng. Math. 56, 2006); d_u and
d_t act mode-wise as (ik)^p lambda_k^q.  Zero sets ignore positive factors, so the
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
A row with a zero has |c_0| <= sum_{k > 0} |c_k| <= S_1, so S_1 >= max
|c_k| and near_p is far above the rounding of the samples.  A row with an
undecided cell, such as one where two zeros are about to meet, is solved from
its roots: the companion matrices of a call, built as np.roots builds them,
go to one eigvals call per degree.  Counts, reports and the starts of the
fold solve below all take their zeros from this one finder (_zeros).  A
report polishes each zero by Newton steps: a cell's secant root by steps kept
inside its cell, which holds that zero alone, and a root, already within
sqrt(eps), by steps shorter than UNIT_CIRCLE_TOL.

A drop of z(t) over an interval (t_lo, t_hi) of the series is located at
its folds and certified by counting them.  At a zero beta_t = beta_uu/n^2 +
beta = beta_uu/n^2, so near a degenerate zero (u*, t*) with beta_uu != 0,
beta ~ (beta_uu/2)((u - u*)^2 + 2(t - t*)/n^2): two zeros 2 sqrt(2(t* - t))/n
apart before t* and none after, one pair lost.  Every degenerate zero drops
z by at least 2 (Angenent, J. reine angew. Math. 390, 1988), so when the
interval holds (z_lo - z_hi)/2 distinct ones there is no other, each drops z
by exactly 2, and the counts between them are known without a solve.
Newton's method on F = (beta, d_u beta) = 0 in (u, t) finds the folds, from
the midpoints between adjacent zeros at t_lo, taken at t_lo, (t_lo + t_hi)/2
and t_hi, and the Newton-Kantorovich test proves each in the box
B = [u0 - r, u0 + r] x [t0 - r, t0 + r] of the max norm: with J the Jacobian
at the centre x0 and A its inverse, Y = |A|(|F(x0)| + rounding) bounds the
Newton step, Z0 = |I - AJ| + |A| (rounding of J), and Z2 = |A| L with L
bounding the derivatives of J on the box by S_pq = sum_k k^p |lambda_k|^q
|c_k| e^{lambda_k t0 + |lambda_k| FOLD_BOX}.  If Z2 r^2 - (1 - Z0) r + Y <= 0 for
an r <= FOLD_BOX, x -> x - A F(x) maps B into itself as a contraction, so B
holds a zero of F.  A fold is certified when B also lies inside the interval
and keeps |beta_uu| above 0, and the boxes of an interval are pairwise
disjoint, so their folds are distinct.  Folds less than EVENT_DT apart in t
are one event.  A drop its certified folds do not account for (a fold no
start reaches, or a degenerate one such as three zeros merging) is bracketed
by bisection in t instead.
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
# Folds closer than this in t are one event; the bisection fallback brackets
# each event to it.
EVENT_DT = 1e-6
# The dominant-mode certificate settles z(t) when its margin exceeds this,
# which covers rounding and the modes below NEGLIGIBLE_MODE.
CERTIFICATE_MARGIN = 1e-3
# The cell certificate's uniform grid (4(K + 1) points when that is more)
# and how often it halves an undecided cell.
CELL_GRID = 64
CELL_DEPTH = 8
# Newton steps of the fold solve, about how many starts one array iteration
# takes (its duplicate test compares every pair), and the half-width of the
# box in (u, t) over which the fold certificate bounds the derivatives of beta.
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
    # ("fold", box radius, residual) or ("bisection",): see detect_strict_decrease
    certificate: tuple | None = None


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
    """Columns d_u^p d_t^q beta(u_i) = Re sum_k c_ik (ik)^p lambda_k^q e^{iku_i}, (p, q)
    in orders, for one coefficient row c or a row c_i per point u_i.  Each sum
    runs over its own row, so a point's values do not depend on the others."""
    k = np.arange(c.shape[-1])
    p, q = np.array(orders).T
    weights = (1j * k)[:, None] ** p * (1.0 if lam is None else lam[:, None] ** q)
    terms = c * np.exp(1j * np.multiply.outer(np.asarray(u, dtype=float), k))
    return np.real(np.einsum("...k,kp->...p", terms, weights))


def _sup(c):
    """sup |Re sum_k c_k e^{iku}| on a uniform grid per row of c (or of the
    one row c), all rows by one inverse FFT."""
    return np.max(np.abs(_series(c.T, max(2048, 32 * c.shape[-1]))), axis=0)


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
    """(row, u, merged) over the root arrays of several rows: the angles u of
    each row's unit-circle roots in order, with the halves of a split double
    root merged, flags marking the merged ones, and the row of each."""
    row = np.repeat(np.arange(len(roots)), [r.shape[0] for r in roots])
    z = np.concatenate([np.empty(0, complex), *roots])
    on = np.abs(np.abs(z) - 1.0) < UNIT_CIRCLE_TOL
    row, z = row[on], z[on]
    order = np.lexsort((np.mod(np.angle(z), 2.0 * np.pi), row))
    row, z = row[order], z[order]
    first, last = np.diff(row, prepend=-1) != 0, np.diff(row, append=-1) != 0
    run, head, tail = np.cumsum(first) - 1, np.flatnonzero(first), np.flatnonzero(last)
    # a root starts a zero unless it lies close to the one before it around
    # its row's circle (the first one's is the last one); a row whose roots
    # all lie close in turn is one zero
    start = np.abs(z - z[np.where(first, tail[run], np.arange(z.shape[0]) - 1)]) >= UNIT_CIRCLE_TOL
    start[head[np.bincount(run[start], minlength=head.shape[0]) == 0]] = True
    # each root's zero is the last start up to it, or for the roots before a
    # row's first start its last zero (a pair across the seam)
    owner = np.maximum.accumulate(np.where(start, np.arange(z.shape[0]), -1))
    label = np.cumsum(start)[np.where(owner >= head[run], owner, owner[tail][run])] - 1
    centre = np.bincount(label, z.real) + 1j * np.bincount(label, z.imag)
    zero_row = np.zeros(centre.shape[0], dtype=int)
    zero_row[label] = row
    return zero_row, np.mod(np.angle(centre), 2.0 * np.pi), np.bincount(label) > 1


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
    """(z, row, u, lo, hi): z per row of c by the cell certificate, or -1 where
    a cell is still undecided after CELL_DEPTH halvings (see the module
    docstring), and for every zero found its row, the secant root in its cell
    and the cell [lo, hi]."""
    # a tiny row would lose digits; a complex division by a subnormal overflows
    c = (c.view(float) / np.abs(c).max(axis=1, keepdims=True)).view(complex)
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
        fm = _derivatives(c[row], mid, ((0, 0), (1, 0), (2, 0)))
        row, lo = np.concatenate([row, row]), np.concatenate([lo, mid])
        fa, fb = np.concatenate([fa, fm]), np.concatenate([fm, fb])
    found = [np.concatenate(column) for column in zip(*found)]
    zeros = np.bincount(found[0], minlength=c.shape[0])
    zeros[row] = -1
    return (zeros, *found)


def _zeros(c, rows):
    """(row, u, merged, lo, hi): the zeros of every row of c, in no order.
    The cell certificate finds them, and the rows it leaves undecided (their
    trimmed rows, from rows) are solved from their roots as one stack per
    degree.  A cell's zero is the secant root in its cell [lo, hi], which
    holds no other; a root's zero has [lo, hi] = [-inf, inf], and merged
    marks the halves of a split double root taken as one."""
    counts, row, u, lo, hi = _cell_zeros(c)
    merged = np.zeros(row.shape, dtype=bool)
    left = np.flatnonzero(counts < 0)
    if left.size:   # most calls leave none, and cusp_tracking counts every call
        keep = counts[row] >= 0
        at, v, m = _circle_zeros(_roots([rows[i] for i in left]))
        row, u, merged = np.r_[row[keep], left[at]], np.r_[u[keep], v], np.r_[merged[keep], m]
        lo = np.r_[lo[keep], np.full(at.shape, -np.inf)]
        hi = np.r_[hi[keep], np.full(at.shape, np.inf)]
    return row, u, merged, lo, hi


def _counts(s, times):
    """z(t) at every time: 2j where the certificate of mode j holds, else the
    number of zeros _zeros finds."""
    c, rows, _ = _evolved_rows(s, times)
    mode, margin = _certificates(c)
    counts = 2 * mode
    open_ = np.flatnonzero(margin <= CERTIFICATE_MARGIN)
    if open_.size:
        counts[open_] = np.bincount(_zeros(c[open_], [rows[i] for i in open_])[0],
                                    minlength=open_.size)
    return counts.tolist()


def _count(s, t):
    return _counts(s, [t])[0]


def _reports(s, times):
    """find_zeros at every time: the zeros _zeros finds in every row, polished
    by Newton steps and classified together."""
    c, rows, shift = _evolved_rows(s, times)
    mode, margin = _certificates(c)
    row, u, merged, lo, hi = _zeros(c, rows)
    # a cell's secant root starts within reach of Newton's method, since the
    # monotone test keeps |d_u beta| large against the cell's width times
    # |d_u^2 beta|; after 7 steps |beta| <= 18 eps S_0 at every zero of the
    # 3,000 benchmark-pool candidates
    for _ in range(8):
        d = _derivatives(c[row], u, ((0, 0), (1, 0), (2, 0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(merged, d[:, 1] / d[:, 2], d[:, 0] / d[:, 1])
        # a root is already within sqrt(eps), and a longer step would leave its
        # zero; a cell holds one zero, so a step stops at the cell's ends
        u = np.clip(u - np.where(np.isfinite(lo) | (np.abs(step) < UNIT_CIRCLE_TOL), step, 0.0),
                    lo, hi)
    u = np.mod(u, 2.0 * np.pi)
    order = np.lexsort((u, row))
    row, u = row[order], u[order]
    slope, scale = _derivatives(c[row], u, ((1, 0),))[:, 0], _sup(c)
    growth = np.exp(shift)
    kind = np.where(np.abs(slope) > DERIVATIVE_THRESHOLD * scale[row], "simple_cusp", "degenerate")
    zeros = list(map(Zero, u.tolist(), (growth[row] * slope).tolist(), kind.tolist()))
    end = np.cumsum(np.bincount(row, minlength=len(rows))).tolist()
    return [CuspReport(t, tuple(zeros[a:b]), size, (j, m) if m > CERTIFICATE_MARGIN else None)
            for t, a, b, size, j, m in zip(np.asarray(times, dtype=float).tolist(), [0, *end], end,
                                           (growth * scale).tolist(), mode.tolist(),
                                           margin.tolist())]


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


def _jets(s, orders):
    """jet(u, t) -> (columns d_u^p d_t^q beta(u_i, t_i) / S_0(t_i) for (p, q) in
    orders, w): every (u_i, t_i) at once, w_i the coefficients c_k e^{lambda_k
    t_i} / S_0(t_i) with S_0(t) = sum_k |c_k| e^{lambda_k t}, which bounds
    |beta(., t)|; the largest growth factor is divided out first."""
    c0, lam = s.cos_coeffs - 1j * s.sin_coeffs, s.eigenvalues()
    k = np.arange(c0.shape[0])
    live = c0 != 0.0
    columns = np.stack([(1j * k) ** p * lam ** q for p, q in orders], 1)

    def jet(u, t):
        rate = np.where(live, np.multiply.outer(t, lam), -np.inf)
        w = c0 * np.exp(rate - rate.max(axis=1, keepdims=True))
        w /= np.abs(w).sum(axis=1, keepdims=True)
        return np.real((w * np.exp(1j * np.multiply.outer(u, k))) @ columns), w

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
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_STEPS):
            b, bt, bu, btu, buu = jet(u, t)[0].T
            residual = np.abs(b) + np.abs(bu)
            better = polish & (lo_i < t) & (t < hi_i) & (residual < best)
            best = np.where(better, residual, best)
            fold_u, fold_t = np.where(better, u, fold_u), np.where(better, t, fold_t)
            found = best < np.inf
            if np.all(found | polish | ~np.isfinite(u + t)) or (
                    np.count_nonzero(found) >= pairs.sum() and np.all(np.bincount(
                        group[_distinct(fold_u, fold_t, best, group, hi)],
                        minlength=pairs.shape[0]) >= pairs)):
                break
            det = bu * btu - bt * buu
            du, dt = (bt * bu - b * btu) / det, (b * buu - bu * bu) / det
            u, t = u + du, t + dt
            polish = (np.abs(du) < 1e-13) & (np.abs(dt) < 1e-13 * np.maximum(1.0, np.abs(t)))
    folds = [[] for _ in pairs]
    for i in _distinct(fold_u, fold_t, best, group, hi):
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
    """Per fold (u, t) the radius r of a box [u - r, u + r] x [t - r, t + r]
    inside lo < t < hi that holds a degenerate zero with d_u^2 beta != 0 on
    all of it, by the Newton-Kantorovich test in the module docstring; nan
    where the test fails."""
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

    def matrix(a, b, c, d):
        return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)

    with np.errstate(all="ignore"):
        inverse = matrix(but, -bt, -buu, bu) / (bu * but - bt * buu)[:, None, None]
        size = np.abs(inverse)
        y0 = (size @ np.stack([np.abs(b) + e00, np.abs(bu) + e10], -1)[..., None])[..., 0]
        z0 = np.abs(np.eye(2) - inverse @ matrix(bu, bt, buu, but)) \
            + size @ matrix(e10, e01, e20, e11)
        z2 = size @ matrix(s20 + s11, s11 + s02, s30 + s21, s21 + s12)
        y0, gap, z2 = y0.max(-1), 1.0 - z0.sum(-1).max(-1), z2.sum(-1).max(-1)
        r = 2.0 * y0 / (gap + np.sqrt(gap * gap - 4.0 * z2 * y0))
        ok = ((gap > 0.0) & (r <= FOLD_BOX) & (lo < t - r) & (t + r < hi)
              & (np.abs(buu) - e20 - (s30 + s21) * r > 0.0))
    return np.where(ok, r, np.nan)


def _accounted(s, lo, hi, pairs, folds):
    """Per interval the box radii of its folds when they are as many
    certified folds in pairwise disjoint boxes as it loses pairs, which
    accounts for every fold in it (see the module docstring); else None."""
    size = np.array([len(f) for f in folds])
    group = np.repeat(np.arange(size.shape[0]), size)
    u, t = (np.array([fold[j] for f in folds for fold in f]) for j in (0, 1))
    r = _fold_boxes(s, u, t, lo[group], hi[group])
    meet = (group[:, None] == group) & (np.maximum(_gaps(u), np.abs(t[:, None] - t))
                                        <= r[:, None] + r)
    np.fill_diagonal(meet, False)
    refused = np.bincount(group[np.isnan(r) | meet.any(axis=1)], minlength=size.shape[0])
    return [radii if n == p and not bad else None
            for radii, n, p, bad in zip(np.split(r, np.cumsum(size)[:-1]), size, pairs, refused)]


def _gaps(u):
    """|u_i - u_j| on the circle for every pair."""
    return np.abs(np.mod(u[:, None] - u + np.pi, 2.0 * np.pi) - np.pi)


def _groups(folds):
    """The folds in time order as lists of folds less than EVENT_DT apart in
    t: each list is one event."""
    groups = []
    for fold in folds:
        if groups and fold[1] - groups[-1][-1][1] < EVENT_DT:
            groups[-1].append(fold)
        else:
            groups.append([fold])
    return groups


def _events(s, raw):
    """DecreaseEvents from (interval, t_event, before, after, u, certificate),
    the witnesses beta and d_u beta over S_0 evaluated in one call."""
    if not raw:
        return []
    u, t = np.array([e[4] for e in raw]), np.array([e[1] for e in raw])
    with np.errstate(all="ignore"):
        witness = _jets(s, ((0, 0), (1, 0)))(u, t)[0]
    return [DecreaseEvent((float(lo), float(hi)), float(t_event), int(before), int(after),
                          float(wu), float(wbeta), float(wdbeta), certificate)
            for ((lo, hi), t_event, before, after, wu, certificate), (wbeta, wdbeta)
            in zip(raw, witness)]


def _starts(s, lo):
    """Newton start angles per drop interval: the midpoints between adjacent
    zeros at lo, which _zeros finds."""
    c, rows, _ = _evolved_rows(s, lo)
    row, zeros = _zeros(c, rows)[:2]
    order = np.lexsort((zeros, row))
    row, zeros = row[order], zeros[order]
    size = np.bincount(row, minlength=lo.shape[0])
    # each zero's next one in its row, the last one's the first one
    last = np.r_[row[1:] != row[:-1], True]
    following = np.where(last, zeros[(np.cumsum(size) - size)[row]] + 2.0 * np.pi,
                         np.r_[zeros[1:], 0.0])
    return np.split(0.5 * (zeros + following), np.cumsum(size)[:-1])


def _bisect(s, t_lo, z_lo, t_hi, z_hi):
    """The events of the drop from z_lo at t_lo to z_hi at t_hi, each
    bracketed by bisection in t to EVENT_DT; the witness is _newton's fold
    from the bracket's midpoint and the angle of the root pair that left the
    circle at its end (the bracket's midpoint and that angle if it fails)."""
    events = []
    cur_t, cur_z = t_lo, z_lo
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
        [fold] = _newton(s, [start], [0.5 * (lo + hi)], np.array([lo]), np.array([hi]),
                         np.array([1]), np.zeros(1, dtype=int))
        wu, t_event = fold[0][:2] if fold else (start, 0.5 * (lo + hi))
        events.append(((t_lo, t_hi), t_event, cur_z, z_after, wu, ("bisection",)))
        cur_t, cur_z = hi, z_after
    return events


def detect_strict_decrease(s: SpectralBeta, series):
    """Locate and certify every strict decrease in a zero-count series.

    In each drop interval the folds, the degenerate zeros where a zero pair
    is lost, are solved for by Newton's method (_folds), and folds less than
    EVENT_DT apart make one event, whose last fold is the witness and whose
    time t_event.  When the interval holds one certified fold per lost pair
    (_accounted), each fold drops the count by 2.  A drop they do not account
    for is bracketed by bisection in t instead (_bisect).
    """
    drops = [(t_lo, z_lo, t_hi, z_hi)
             for (t_lo, z_lo), (t_hi, z_hi) in zip(series, series[1:]) if z_hi < z_lo]
    if not drops:
        return []
    lo, z_lo, hi, z_hi = (np.array(column) for column in zip(*drops))
    pairs = (z_lo - z_hi) // 2
    folds = _folds(s, lo, hi, pairs, _starts(s, lo)) or [[] for _ in drops]
    raw = []
    for drop, found, radius in zip(drops, folds, _accounted(s, lo, hi, pairs, folds)):
        if radius is None:
            raw += _bisect(s, *drop)
            continue
        t_lo, z, t_hi, _ = drop
        for group in _groups([fold + (r,) for fold, r in zip(found, radius.tolist())]):
            u, t = group[-1][:2]
            certificate = ("fold", max(f[3] for f in group), max(f[2] for f in group))
            raw.append(((t_lo, t_hi), t, z, z - 2 * len(group), u, certificate))
            z -= 2 * len(group)
    return _events(s, raw)


def __getattr__(name):
    # scipy names of the former root finder, imported on lookup (benchmark call counts)
    if name in ("brentq", "least_squares"):
        return getattr(__import__("scipy.optimize").optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
