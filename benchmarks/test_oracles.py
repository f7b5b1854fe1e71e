"""Pins the benchmark's reference computations to known answers.

Run with ``python3 -m pytest benchmarks/test_oracles.py``.
"""

import math

import numpy as np
import pytest

import oracles

U = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)


def _pure(k, top=None, a0=0.0, phase=0.0):
    top = top or k
    a = np.zeros(top + 1)
    b = np.zeros(top + 1)
    a[0] = a0
    a[k], b[k] = math.cos(phase), math.sin(phase)
    return a, b


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("t", [0.0, 0.3, 2.0])
def test_cos_ku_has_2k_zeros(k, t):
    a, b = _pure(k, top=k + 3, phase=0.37 * k)
    assert oracles.count_zeros(n=k + 1, a=a, b=b, t=t) == 2 * k


def test_mean_mode_has_no_zeros():
    a, b = _pure(2, a0=1.5)
    a[2] = 1.0
    assert oracles.count_zeros(1, a, b, 0.0) == 0


def test_two_mode_event_at_ln100_over_4():
    t_star = oracles.two_mode_event_time(n=1, a0=0.01, k=2, ak=1.0)
    assert t_star == pytest.approx(math.log(100.0) / 4.0, rel=1e-15)
    a, b = _pure(2, a0=0.01)
    assert oracles.count_zeros(1, a, b, t_star - 1e-3) == 4
    assert oracles.count_zeros(1, a, b, t_star + 1e-3) == 0
    # at t* the minimum of beta touches zero with zero slope
    u_touch = np.array([np.pi / 2])
    assert abs(oracles.mode_sum(1, a, b, t_star, u_touch)[0]) < 1e-15
    assert abs(oracles.mode_sum(1, a, b, t_star, u_touch, order=1)[0]) < 1e-15


def test_eigenvalues_and_growth():
    assert oracles.eigenvalue(1, 2) == -3.0
    assert oracles.eigenvalue(3, 0) == 1.0
    assert oracles.growth(2, 4, 0.5) == pytest.approx(math.exp(-1.5))
    assert oracles.lambda_star(1, 2, 1.0) == pytest.approx(math.exp(-3.0))


def test_mode_sum_closed_forms():
    a = np.array([0.5, 0.0, 1.0, -0.25])
    b = np.array([0.0, 0.0, 0.5, 2.0])
    t = 0.7
    expected = (0.5 * math.exp(t)
                + math.exp(-3.0 * t) * (np.cos(2 * U) + 0.5 * np.sin(2 * U))
                + math.exp(-8.0 * t) * (-0.25 * np.cos(3 * U) + 2.0 * np.sin(3 * U)))
    assert np.max(np.abs(oracles.mode_sum(1, a, b, t, U) - expected)) < 1e-14
    d_expected = (math.exp(-3.0 * t) * (-2 * np.sin(2 * U) + np.cos(2 * U))
                  + math.exp(-8.0 * t) * (0.75 * np.sin(3 * U) + 6.0 * np.cos(3 * U)))
    assert np.max(np.abs(oracles.mode_sum(1, a, b, t, U, order=1) - d_expected)) < 1e-13


def test_time_derivative_of_the_mode_sum():
    a = np.array([0.5, 0.0, 1.0, -0.25])
    b = np.array([0.0, 0.0, 0.5, 2.0])
    t, h = 0.3, 1e-6
    for order in (0, 1):
        d_t = (oracles.mode_sum(1, a, b, t + h, U, order)
               - oracles.mode_sum(1, a, b, t - h, U, order)) / (2.0 * h)
        exact = oracles.mode_sum(1, a, b, t, U, order, t_order=1)
        assert np.max(np.abs(d_t - exact)) < 1e-7


def test_two_mode_degenerate_zero():
    # 0.01 e^t + e^{-3t} cos 2u touches zero at u = pi/2, t = ln(100)/4
    a, b = _pure(2, a0=0.01)
    u, t = oracles.degenerate_zero(1, a, b, np.pi / 2 + 1e-3, 1.1)
    assert u == pytest.approx(np.pi / 2, abs=1e-12)
    assert t == pytest.approx(math.log(100.0) / 4.0, abs=1e-12)


def test_decay_rate_formula():
    # beta_0 = cos 2u + 0.1 cos 4u with n = 1 converges at rate -12
    assert oracles.decay_rate(n=1, m=2, k_next=4) == -12.0
    assert oracles.decay_rate(n=2, m=0, k_next=1) == -0.25


@pytest.mark.parametrize("n,m,c1,c2", [(1, 2, 1.5, 0.0), (2, 1, 1.3, 0.0),
                                       (3, 4, 5.0, 0.0), (1, 3, 2.0, 1.0),
                                       (2, 0, 1.0, 0.0)])
def test_profile_position_integrates_beta_mu(n, m, c1, c2):
    x = oracles.profile_position(n, m, c1, c2, U)
    assert np.max(np.abs(x.mean(axis=0))) < 1e-13
    # spectral derivative of the periodic samples against beta* mu
    freqs = np.fft.rfftfreq(U.shape[0], d=1.0 / U.shape[0])
    dx = np.fft.irfft(np.fft.rfft(x, axis=0) * (1j * freqs)[:, None],
                      n=U.shape[0], axis=0)
    beta = c1 * np.cos(m * U) + c2 * np.sin(m * U)
    mu = np.stack([np.cos(n * U), np.sin(n * U)], axis=-1)
    assert np.max(np.abs(dx - beta[:, None] * mu)) < 1e-11


def test_unit_circle_profile_for_m0():
    x = oracles.profile_position(2, 0, 3.0, 0.0, U)
    assert np.max(np.abs(np.hypot(x[:, 0], x[:, 1]) - 1.5)) < 1e-15


def test_shift_mismatch_finds_the_n_fold_shift():
    u = np.linspace(0.0, 2.0 * np.pi, 768, endpoint=False)
    x = oracles.profile_position(3, 1, 2.5, 0.0, u)
    shifted = np.roll(x, -256, axis=0)
    assert oracles.shift_mismatch(3, shifted, x) < 1e-15
    assert oracles.shift_mismatch(1, shifted, x) > 0.1
