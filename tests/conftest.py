"""Shared fixtures and random-data helpers for the suite."""

import contextlib

import numpy as np
import pytest

from legendreflow.curves import uniform_grid
from legendreflow.spectral import SpectralBeta, _derivatives, _row, _rows, _weights, evolve_beta


def evolved_rows(s, times):
    """(rows, shift) of s at the times, from the library's one row builder."""
    return _rows(_row(s), s.eigenvalues(), np.asarray(times, dtype=float))


def random_closed_spectral(rng, max_index=3, max_truncation=8):
    """Random band-limited SpectralBeta with the n band zeroed (closed curve)."""
    n = int(rng.integers(1, max_index + 1))
    top = int(rng.integers(n + 1, max_truncation + 1))
    a = rng.normal(size=top + 1)
    b = rng.normal(size=top + 1)
    b[0] = 0.0
    a[n] = 0.0
    b[n] = 0.0
    # keep the mean mode modest so zero counts stay interesting
    a[0] *= 0.2
    if not np.any(a) and not np.any(b):
        a[0] = 1.0
    return SpectralBeta(n=n, cos_coeffs=a, sin_coeffs=b)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def grid_zero_count(s, t, num=16384):
    """Independent z(t): sign changes of beta(., t) on a uniform grid, plus
    exact grid zeros. Blind to tangential zeros and to two zeros in one cell,
    so it serves as an oracle only where every zero has a clear slope."""
    values = evolve_beta(s, t, uniform_grid(num))
    return int(np.count_nonzero(values == 0.0)
               + np.count_nonzero(values * np.roll(values, -1) < 0.0))


def mode_derivative(s, u, t, du=0, dt=0):
    """d_u^du d_t^dt beta(u, t) summed mode by mode in real form."""
    k = np.arange(s.truncation + 1)
    lam = s.eigenvalues()
    weight = np.exp(lam * t) * lam**dt * k**du
    phase = k * u + du * np.pi / 2
    return float(np.sum(weight * (s.cos_coeffs * np.cos(phase)
                                  + s.sin_coeffs * np.sin(phase))))


def degenerate_zero_near(s, u, t, iterations=50):
    """Solve beta = d_u beta = 0 for (u, t) by Newton's method from (u, t);
    None when it does not converge."""
    for _ in range(iterations):
        jac = np.array([[mode_derivative(s, u, t, 1), mode_derivative(s, u, t, 0, 1)],
                        [mode_derivative(s, u, t, 2), mode_derivative(s, u, t, 1, 1)]])
        rhs = -np.array([mode_derivative(s, u, t), mode_derivative(s, u, t, 1)])
        du, dt = np.linalg.solve(jac, rhs)
        u, t = u + du, t + dt
        if abs(du) < 1e-13 and abs(dt) < 1e-13 * max(1.0, abs(t)):
            return u, t
    return None


def dense_projection(beta0, truncation):
    """(a, b): the samples of beta_0 projected onto cos ku and sin ku, k <=
    truncation, through dense K x N tables (analyze_beta before its real FFT)."""
    num = beta0.shape[0]
    u = uniform_grid(num)
    k = np.arange(1, truncation + 1)
    a = np.r_[np.mean(beta0), (2.0 / num) * (np.cos(np.outer(k, u)) @ beta0)]
    b = np.r_[0.0, (2.0 / num) * (np.sin(np.outer(k, u)) @ beta0)]
    return a, b


def per_mode_evolve_curve(s, positions, t):
    """X(u, t) summed mode by mode with two trig tables per mode: the original
    closed form X_0 + sum_k g_k(t) [beta_k nu/n + d_u beta_k mu/n^2]."""
    n = s.n
    u = uniform_grid(positions.shape[0])
    nu = np.stack([np.sin(n * u), -np.cos(n * u)], axis=-1)
    mu = np.stack([np.cos(n * u), np.sin(n * u)], axis=-1)
    out = positions + np.expm1(t) * (s.a0 / n) * nu
    for k, ak, bk in s.modes:
        lam = 1.0 - k * k / (n * n)
        g = t if lam == 0.0 else np.expm1(lam * t) / lam
        mode = ak * np.cos(k * u) + bk * np.sin(k * u)
        mode_du = k * (-ak * np.sin(k * u) + bk * np.cos(k * u))
        out = out + g * (mode[:, None] * nu / n + mode_du[:, None] * mu / n**2)
    return out


def physical_mismatch(s, positions):
    """(max |d_u X_0 - beta_0 mu|, max(1, max |beta_0|)) on the grid of the
    positions, X_0 differentiated in physical space (evolve_curve's check
    before it ran in mode space)."""
    from legendreflow.spectral import _beta, spectral_derivative

    num = positions.shape[0]
    u = uniform_grid(num)
    mu = np.stack([np.cos(s.n * u), np.sin(s.n * u)], axis=-1)
    beta0 = _beta(s, 0.0, num)
    mismatch = np.max(np.abs(spectral_derivative(positions) - beta0[:, None] * mu))
    return float(mismatch), max(1.0, float(np.max(np.abs(beta0))))


def per_mode_scaled_error(s, t, num=1024):
    """sup |sum_k e^{(lambda_k - lambda_m) t} X*_k| over the surviving modes
    k != m (and k != n), each X*_k the closed-form self-similar profile."""
    from legendreflow.asymptotics import LEADING_TOL, leading_mode
    from legendreflow.selfsimilar import SelfSimilarProfile, profile_position

    m, _, _ = leading_mode(s)
    lam = s.eigenvalues()
    size = np.maximum(np.abs(s.cos_coeffs), np.abs(s.sin_coeffs))
    u = uniform_grid(num)
    total = np.zeros((num, 2))
    for k in np.flatnonzero(size > LEADING_TOL * size.max()):
        if k in (m, s.n):
            continue
        ak, bk = float(s.cos_coeffs[k]), float(s.sin_coeffs[k])
        profile = SelfSimilarProfile(n=s.n, m=int(k), c1=ak, c2=bk)
        total += np.exp((lam[k] - lam[m]) * t) * profile_position(profile, u)
    return float(np.max(np.abs(total)))


#: Companion roots within this of the unit circle are zeros, and two within
#: it of each other are the halves of one split double root.
COMPANION_TOL = 1e-6


def companion_roots(c):
    """The 2K roots of z^K beta for one coefficient row c by np.roots, its
    modes below 1e-12 of the largest dropped: one just above rounding moves
    the roots near the circle off it by far more than its own size."""
    c = np.where(np.abs(c) < 1e-12 * np.abs(c).max(), 0.0, c)
    return np.roots(np.concatenate([0.5 * c[:0:-1], [c[0].real], 0.5 * np.conj(c[1:])]))


def companion_zeros(c):
    """(u, merged): the zeros of one coefficient row c from its companion
    roots, those within COMPANION_TOL of the circle, in order around it; the
    halves of a split double root are merged into one zero, flagged."""
    roots = companion_roots(c)
    z = roots[np.abs(np.abs(roots) - 1.0) < COMPANION_TOL]
    z = z[np.argsort(np.mod(np.angle(z), 2.0 * np.pi))]
    close = np.abs(z - np.roll(z, 1)) < COMPANION_TOL
    label = np.zeros(z.shape[0], dtype=int) if close.all() else np.cumsum(~close) - 1
    label[label < 0] = label[-1] if label.size else 0     # a pair across the seam
    centre = np.bincount(label, z.real) + 1j * np.bincount(label, z.imag)
    return np.mod(np.angle(centre), 2.0 * np.pi), np.bincount(label) > 1


# The classification threshold of the references: a zero is simple when
# |d_u beta| > DERIVATIVE_THRESHOLD sampled_sup, independently of the cell
# certificate that classifies the library's zeros.
DERIVATIVE_THRESHOLD = 1e-8


def sampled_sup(c):
    """sup |Re sum_k c_k e^{iku}| on a uniform grid of max(2048, 32 K) points,
    per row of c (or of the one row c)."""
    from legendreflow.spectral import _series

    return np.max(np.abs(_series(c.T, max(2048, 32 * c.shape[-1]))), axis=0)


def per_time_reports(s, times):
    """find_zeros time by time from each row's companion zeros, polished and
    classified on their own by DERIVATIVE_THRESHOLD (the report before its
    rows were stacked and solved by cells): per time (t, [(u, d_u beta,
    kind)], certificate)."""
    from legendreflow.cusps import CERTIFICATE_MARGIN, _certificates
    from legendreflow.spectral import _series

    c, shift = evolved_rows(s, times)
    mode, margin = _certificates(c)
    out = []
    for t, row, h, j, m in zip(times, c, shift, mode, margin):
        u, merged = companion_zeros(row)
        k = np.arange(row.shape[0])

        def d(p, u):
            return _series(row * (1j * k) ** p, u)

        for _ in range(2):
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(merged, d(1, u) / d(2, u), d(0, u) / d(1, u))
            u = np.mod(u - np.where(np.abs(step) < COMPANION_TOL, step, 0.0), 2.0 * np.pi)
        u = np.sort(u)
        slope, scale = d(1, u), float(sampled_sup(row))
        zeros = [(float(r), float(np.exp(h) * b),
                  "simple_cusp" if abs(b) > DERIVATIVE_THRESHOLD * scale else "degenerate")
                 for r, b in zip(u, slope)]
        out.append((float(t), zeros, (int(j), float(m)) if m > CERTIFICATE_MARGIN else None))
    return out


#: The bracket width of the bisection reference: the library splits a drop
#: at midpoints until its folds account for it, with no set width.
EVENT_DT = 1e-6


def bisection_strict_decrease(s, series):
    """detect_strict_decrease with every drop bisected in t to EVENT_DT, then
    one Newton solve of beta = d_u beta = 0 in (u, t) from the bracket's
    midpoint and the angle of the root pair that left the circle at its end
    (the detector before it solved for the folds directly)."""
    from legendreflow.cusps import DecreaseEvent, _counts

    def row(t):
        return evolved_rows(s, [t])[0][0]

    def count(t):
        return _counts(s, [t])[0]

    size = s.truncation + 1
    jacobian = _weights(size, ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0)), s.eigenvalues())

    def witness(lo, hi):
        roots = companion_roots(row(hi))
        gap = np.abs(np.abs(roots) - 1.0)
        start = float(np.angle(roots[np.argmin(np.where(gap < COMPANION_TOL, np.inf, gap))]))
        u, t = start, 0.5 * (lo + hi)
        with np.errstate(all="ignore"):
            for _ in range(12):
                b, bt, bu, btu, buu = _derivatives(row(t), [u], jacobian)[0]
                det = bu * btu - bt * buu
                du, dt = (bt * bu - b * btu) / det, (b * buu - bu * bu) / det
                u, t = u + du, t + dt
                if abs(du) < 1e-13 and abs(dt) < 1e-13 * max(1.0, t) and lo <= t <= hi:
                    return float(np.mod(u, 2.0 * np.pi)), float(t)
        return start % (2.0 * np.pi), 0.5 * (lo + hi)

    events = []
    for (t_lo, z_lo), (t_hi, z_hi) in zip(series, series[1:]):
        cur_t, cur_z = t_lo, z_lo
        while cur_z > z_hi:
            lo, hi = cur_t, t_hi
            while hi - lo > EVENT_DT:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if count(mid) < cur_z else (mid, hi)
            z_after = count(hi)
            wu, t_event = witness(max(lo - EVENT_DT, t_lo), hi)
            c = row(t_event)
            wbeta, wdbeta = _derivatives(c, [wu], _weights(size, ((0, 0), (1, 0))))[0] \
                / sampled_sup(c)
            events.append(DecreaseEvent((float(t_lo), float(t_hi)), float(t_event),
                                        int(cur_z), int(z_after), wu,
                                        float(wbeta), float(wdbeta)))
            cur_t, cur_z = hi, z_after
    return events


def matrix_fold_boxes(s, u, t, lo, hi):
    """cusps._fold_boxes' radii with its Newton-Kantorovich test in matrix
    form, on stacks of 2 x 2 matrices (the certificate before it was written
    out row by row): nan where the test fails."""
    from legendreflow.cusps import FOLD_BOX

    w = evolved_rows(s, t)[0]
    w /= np.abs(w).sum(axis=1, keepdims=True)
    b, bu, bt, buu, but = _derivatives(
        w, u, _weights(w.shape[1], ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1)), s.eigenvalues())).T
    lam = np.abs(s.eigenvalues())
    k = np.arange(lam.shape[0])
    mag = np.abs(w)
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


@contextlib.contextmanager
def no_eigensolve():
    """A context inside which numpy.linalg.eigvals raises, so the library
    calls it wraps provably solve no companion matrix; the test's own
    references run outside it."""

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvals called")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvals", refuse)
        yield


@contextlib.contextmanager
def rolle_cells():
    """A list, filled while the context is open, of the rows of the cells
    passed to the Rolle step (cusps._rolle), one entry per cell."""
    from legendreflow import cusps

    cells = []
    step = cusps._rolle

    def counted(c, row, *args):
        cells.extend(row.tolist())
        return step(c, row, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cusps, "_rolle", counted)
        yield cells


@pytest.fixture
def fft_calls(monkeypatch):
    """The numpy.fft transforms called so far, one entry (the function's name)
    per call; a stacked transform counts once."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                 "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def sparse_beta_fd(beta0, n, final_time, grid):
    """The beta equation marched with sparse matrices: explicit Euler on the
    3-point periodic Laplacian L, or Crank-Nicolson with the Pade mass
    M = I + (du^2/12) L factorized once (the solver before its DFT form)."""
    import scipy.sparse
    import scipy.sparse.linalg

    num = grid.num_points
    lap = scipy.sparse.diags([np.ones(num - 1), np.full(num, -2.0), np.ones(num - 1)],
                             [-1, 0, 1], format="lil")
    lap[0, -1] = 1.0
    lap[-1, 0] = 1.0
    lap = (lap / (grid.du * grid.du)).tocsc()
    eye = scipy.sparse.identity(num, format="csc")
    beta = np.asarray(beta0, dtype=float).copy()
    steps = int(round(final_time / grid.dt))
    if grid.scheme == "explicit_euler":
        op = (lap / (n * n) + eye).tocsr()
        for _ in range(steps):
            beta = beta + grid.dt * (op @ beta)
        return beta
    mass = (eye + (grid.du * grid.du / 12.0) * lap).tocsc()
    stiff = (lap / (n * n) + mass).tocsc()
    lhs = scipy.sparse.linalg.factorized((mass - 0.5 * grid.dt * stiff).tocsc())
    rhs_op = (mass + 0.5 * grid.dt * stiff).tocsr()
    for _ in range(steps):
        beta = lhs(rhs_op @ beta)
    return beta


def csv_writer_curve(path, curve, curvature=None, t=None):
    """write_curve_csv row by row through csv.writer with repr(float(x)) cells
    (the writer before the table was formatted in one pass)."""
    import csv

    header = ["u", "x", "y", "nu_x", "nu_y"]
    if curvature is not None:
        header += ["beta", "ell"]
    if t is not None:
        header += ["t"]
    u = curve.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(curve.grid_size):
            row = [u[j], curve.positions[j, 0], curve.positions[j, 1],
                   curve.normals[j, 0], curve.normals[j, 1]]
            if curvature is not None:
                row += [curvature.beta[j], curvature.ell[j]]
            if t is not None:
                row += [t]
            writer.writerow([repr(float(x)) for x in row])
    return path


def per_point_render_svg(points, stroke="#1a1a8c", width=640):
    """render_svg with the vertical flip and the formatting done point by point
    on numpy scalars (the renderer before the flip was one array operation)."""
    points = np.asarray(points, dtype=float)
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    margin = 0.05 * np.max(span)
    lo = lo - margin
    size = span + 2.0 * margin
    stroke_width = 0.004 * float(np.max(size))
    top = lo[1] + size[1]
    coords = " ".join(f"{x:.6f},{lo[1] + (top - y):.6f}" for x, y in points)
    height = int(round(width * size[1] / size[0]))
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="{lo[0]:.6f} {lo[1]:.6f} {size[0]:.6f} {size[1]:.6f}">\n'
        f'  <polygon points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{stroke_width:.6f}" stroke-linejoin="round"/>\n'
        "</svg>\n"
    )


def roll_phi_fd(state0, ell_field, final_time, grid, forcing=None, record_every=10):
    """solve_phi_fd with every stencil neighbour taken by np.roll (the stepper
    before the neighbour indices were built once); returns the trajectory and
    the number of step halvings."""
    from legendreflow.errors import LegendreFlowError
    from legendreflow.fd import PhiState, PhiTrajectory

    if forcing is None:
        forcing = lambda u, t: np.zeros_like(u)
    du = grid.du
    part = state0.periodic_part.copy()
    u = uniform_grid(state0.num_points)
    trajectory = PhiTrajectory()
    trajectory.record(0.0, PhiState(periodic_part=part.copy()))
    dt = grid.dt
    t = 0.0
    halvings = 0
    step_index = 0
    while t < final_time - 1e-14:
        dt_step = min(dt, final_time - t)
        phi = u + part
        grad = 1.0 + (np.roll(part, -1) - np.roll(part, 1)) / (2.0 * du)
        second = (np.roll(part, -1) - 2.0 * part + np.roll(part, 1)) / (du * du)
        ell = np.asarray(ell_field(phi, t), dtype=float)
        rate = second / (grad * grad * ell * ell) - forcing(phi, t)
        candidate = part + dt_step * rate
        new_grad = 1.0 + (np.roll(candidate, -1) - np.roll(candidate, 1)) / (2.0 * du)
        if np.any(new_grad <= 0.0):
            halvings += 1
            if halvings > 10:
                raise LegendreFlowError("d_u phi lost positivity after 10 step halvings")
            dt *= 0.5
            continue
        part = candidate
        t += dt_step
        step_index += 1
        if step_index % record_every == 0 or t >= final_time - 1e-14:
            trajectory.record(t, PhiState(periodic_part=part.copy()))
    return trajectory, halvings
