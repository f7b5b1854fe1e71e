"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``legendreflow``: every answer is derived from the
closed forms of the flow with l == n, written out afresh.

Coefficients follow the library's normalization,

    beta_0(u) = a[0] + sum_{k>=1} a[k] cos(ku) + b[k] sin(ku),

and each mode evolves as e^{lambda_k t} with lambda_k = 1 - k^2/n^2.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# A zero of beta is a root of the degree-2K polynomial z^K beta on |z| = 1.
# Simple zeros sit on the circle to rounding; a double root splits off it by
# about sqrt(eps) ~ 1.5e-8, so 1e-6 separates the circle from its neighbours
# without counting the complex pair of a shallow minimum.
UNIT_CIRCLE_TOL = 1e-6
# Modes below this share of the largest evolved coefficient cannot move a
# simple zero and would only make the companion matrix badly scaled.
NEGLIGIBLE_MODE = 1e-14


def eigenvalue(n, k):
    """lambda_k = 1 - k^2/n^2 (works on arrays of k)."""
    k = np.asarray(k, dtype=float)
    return 1.0 - k * k / float(n * n)


def growth(n, k, t):
    """e^{lambda_k t}."""
    return np.exp(eigenvalue(n, k) * t)


def lambda_star(n, m, t):
    """Scale factor of the (n, m) self-similar solution, e^{(1 - m^2/n^2) t}."""
    return math.exp((1.0 - (m * m) / (n * n)) * t)


def decay_rate(n, m, k_next):
    """Sharp rate of the rescaled error: lambda_{k'} - lambda_m = (m^2 - k'^2)/n^2."""
    return (m * m - k_next * k_next) / (n * n)


def two_mode_event_time(n, a0, k, ak):
    """t* where a0 e^t = |ak| e^{lambda_k t}: beta = a0 e^t + ak e^{lambda_k t} cos(ku)
    loses all 2k zeros at once. Equals ln(|ak|/a0) n^2/k^2."""
    return math.log(abs(ak) / a0) * n * n / (k * k)


def evolved_coefficients(n, a, b, t):
    """Coefficient arrays of beta(., t)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g = growth(n, np.arange(a.shape[0]), t)
    return a * g, b * g


def mode_sum(n, a, b, t, u, order=0, t_order=0):
    """d_t^t_order d_u^order beta(u, t), summed mode by mode from the complex
    exponential form: the k-mode is Re[(a_k - i b_k) lambda_k^t_order
    (ik)^order e^{iku}]."""
    u = np.asarray(u, dtype=float)
    at, bt = evolved_coefficients(n, a, b, t)
    k = np.arange(at.shape[0])
    c = (at - 1j * bt) * (1j * k) ** order * eigenvalue(n, k) ** t_order
    return np.real(np.exp(1j * np.multiply.outer(u, k)) @ c)


def degenerate_zero(n, a, b, u, t, iterations=40):
    """The degenerate zero beta = d_u beta = 0 nearest (u, t), by Newton's
    method in (u, t); None if it does not converge. At a fold the Jacobian
    [[d_u beta, d_t beta], [d_u^2 beta, d_t d_u beta]] has determinant
    -d_t beta d_u^2 beta, nonzero when two simple zeros merge."""
    for _ in range(iterations):
        at = [[float(mode_sum(n, a, b, t, [u], order, t_order)[0]) for t_order in (0, 1)]
              for order in (0, 1, 2)]
        jac = np.array([[at[1][0], at[0][1]], [at[2][0], at[1][1]]])
        try:
            du, dt = np.linalg.solve(jac, [-at[0][0], -at[1][0]])
        except np.linalg.LinAlgError:
            return None
        u, t = u + du, t + dt
        if abs(du) < 1e-14 and abs(dt) < 1e-14 * max(1.0, abs(t)):
            return float(np.mod(u, TWO_PI)), float(t)
    return None


def count_zeros(n, a, b, t):
    """Number of distinct real zeros of beta(., t) on [0, 2 pi).

    beta(u) = sum_{|k|<=K} c_k z^k with z = e^{iu}, c_0 = a_0 and
    c_{+-k} = (a_k -+ i b_k)/2, so z^K beta is a polynomial of degree 2K whose
    unit-circle roots are the zeros of beta (after Boyd, J. Eng. Math. 56,
    2006).
    """
    at, bt = evolved_coefficients(n, a, b, t)
    scale = max(float(np.max(np.abs(at))), float(np.max(np.abs(bt))))
    if scale == 0.0:
        raise ValueError("beta is identically zero")
    keep = np.nonzero((np.abs(at) > NEGLIGIBLE_MODE * scale)
                      | (np.abs(bt) > NEGLIGIBLE_MODE * scale))[0]
    top = int(keep.max())
    if top == 0:
        return 0
    at, bt = at[: top + 1] / scale, bt[: top + 1] / scale
    pos = 0.5 * (at[1:] - 1j * bt[1:])                # c_1 .. c_K
    coeffs = np.concatenate([np.conj(pos)[::-1], [at[0]], pos])  # c_-K .. c_K
    roots = np.roots(coeffs[::-1])                    # highest degree first
    return int(np.count_nonzero(np.abs(np.abs(roots) - 1.0) < UNIT_CIRCLE_TOL))


def profile_position(n, m, c1, c2, u):
    """X*(u) for beta* = c1 cos(mu) + c2 sin(mu): the zero-mean antiderivative
    of beta* mu with mu = (cos nu, sin nu), expanded by product-to-sum."""
    u = np.asarray(u, dtype=float)
    p, q = n + m, n - m
    x = (0.5 * c1 * (np.sin(q * u) / q + np.sin(p * u) / p)
         + 0.5 * c2 * (np.cos(q * u) / q - np.cos(p * u) / p))
    y = (-0.5 * c1 * (np.cos(p * u) / p + np.cos(q * u) / q)
         + 0.5 * c2 * (np.sin(q * u) / q - np.sin(p * u) / p))
    return np.stack([x, y], axis=-1)


def profile_normal(n, u):
    u = np.asarray(u, dtype=float)
    return np.stack([np.sin(n * u), -np.cos(n * u)], axis=-1)


def curve_position(n, a, b, u, t=0.0):
    """Zero-mean X(u, t) - p: each mode's X* scaled by e^{lambda_k t}. At t = 0
    it is the antiderivative of beta_0 mu; the flow moves every mode along
    its own self-similar solution and conserves the centroid p."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape + (2,))
    for k in range(len(a)):
        if a[k] != 0.0 or (k > 0 and b[k] != 0.0):
            out += growth(n, k, t) * profile_position(n, k, a[k], b[k] if k else 0.0, u)
    return out


def shift_mismatch(n, positions, target):
    """min over j of max |positions(u) - target(u + 2 pi j / n)|, for samples
    on the uniform grid: a curve in normal form is fixed only up to the
    n-fold shift of its parameter."""
    num = positions.shape[0]
    if num % n:
        raise ValueError("grid size must be a multiple of n")
    return min(float(np.max(np.abs(positions - np.roll(target, -j * num // n, axis=0))))
               for j in range(n))
