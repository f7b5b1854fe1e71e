"""Per-size tables: read-only, bit-equal to a fresh build, bounded, shared by threads."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from legendreflow import curves, spectral
from legendreflow.curves import LegendreCurve, normal_form_normals, uniform_grid
from legendreflow.reparam import reparametrize
from legendreflow.selfsimilar import SelfSimilarProfile
from legendreflow.spectral import (
    SpectralBeta,
    evolve_curve,
    reconstruct_initial_curve,
    spectral_derivative,
)

SIZES = (8, 1023, 512, 8192)


def fresh(key):
    """The table of key, built here without the memo."""
    kind, *args = key
    if kind == "grid":
        return np.linspace(0.0, 2.0 * np.pi, args[0], endpoint=False)
    if kind == "frame":
        n, num = args
        u = np.linspace(0.0, 2.0 * np.pi, num, endpoint=False)
        return np.stack([np.sin(n * u), -np.cos(n * u)], axis=-1)
    if kind == "fftfreq":
        return np.fft.fftfreq(args[0], 1.0 / args[0])
    if kind == "rfftfreq":
        return np.fft.rfftfreq(args[0], d=1.0 / args[0])
    if kind == "spline symbol":
        num = args[0]
        return 6.0 / (4.0 + 2.0 * np.cos(2.0 * np.pi / num * np.arange(num // 2 + 1)))
    n, top, *orders = args
    k = np.arange(top + 1)
    if kind == "weights":
        du, dt = orders
        return (1j * k) ** du * (1.0 - (k * k) / (n * n)) ** dt
    if kind == "eigenvalues":
        return 1.0 - (k * k) / (n * n)
    assert kind == "frequencies"
    return np.concatenate([n + k, n - k[1:]])


def coefficients(n, top, seed):
    rng = np.random.default_rng([seed, n, top])
    a, b = rng.normal(size=top + 1), rng.normal(size=top + 1)
    b[0] = 0.0
    if n <= top:
        a[n] = b[n] = 0.0
    return SpectralBeta(n=n, cos_coeffs=a, sin_coeffs=b)


def warped(n, num):
    """A closed l-convex curve of rotation index n whose normal spins non-uniformly."""
    u = uniform_grid(num)
    psi = u + 0.25 * np.sin(u)
    nu = np.stack([np.sin(n * psi), -np.cos(n * psi)], axis=-1)
    return LegendreCurve(positions=2.0 * nu, normals=nu)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def cleared():
    curves._tables.clear()
    spectral._certified = None
    yield
    curves._tables.clear()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("num", SIZES)
def test_tables_are_read_only_and_fresh(cleared, n, num):
    # n + K must stay below N/2, so the 8-point grid gets the circle, K = 0
    s = coefficients(n, 0 if num < 16 else 24, 0)
    evolve_curve(s, reconstruct_initial_curve(s, num_samples=num), 0.5)
    spectral_derivative(np.cos(uniform_grid(num)))
    reparametrize(warped(n, num))
    SelfSimilarProfile(n=n, m=n + 1, c1=1.0, c2=0.0).normal(num)
    kinds = {key[0] for key in curves._tables}
    assert kinds == {"grid", "frame", "fftfreq", "rfftfreq", "spline symbol",
                     "eigenvalues", "frequencies", "weights"}
    for key, table in curves._tables.items():
        assert not table.flags.writeable, key
        assert same_bits(table, fresh(key)), key
    with pytest.raises(ValueError):
        uniform_grid(num)[0] = 1.0


def test_points_and_grid_frames_agree():
    for n in (1, 2, 3):
        u = np.linspace(0.0, 2.0 * np.pi, 1023, endpoint=False)
        assert same_bits(normal_form_normals(n, 1023), normal_form_normals(n, u))
        profile = SelfSimilarProfile(n=n, m=n + 1, c1=1.0, c2=0.0)
        assert same_bits(profile.normal(1023), profile.normal(list(u)))


def outputs(s, num, times, curve):
    curve0 = reconstruct_initial_curve(s, base_point=(0.3, -2.0), num_samples=num)
    states = [evolve_curve(s, curve0, t) for t in times]
    normalized, record = reparametrize(curve)
    arrays = [curve0.positions, curve0.normals, normalized.positions, normalized.normals,
              record.phi, record.phi_prime]
    for state in states:
        arrays += [state.curve.positions, state.curve.normals,
                   state.curvature.beta, state.curvature.ell]
    return arrays


@pytest.mark.parametrize("n, num", [(1, 512), (2, 1023), (3, 2048)])
def test_cleared_and_warm_memo_agree(n, num):
    s = coefficients(n, 12, 1)
    curve = warped(n, num)
    curves._tables.clear()
    spectral._certified = None
    cold = outputs(s, num, (0.0, 0.4, 1.5), curve)
    warm = outputs(s, num, (0.0, 0.4, 1.5), curve)
    assert len(cold) == len(warm)
    assert all(same_bits(a, b) for a, b in zip(cold, warm))


def test_memo_keeps_at_most_its_bound(cleared, monkeypatch):
    for num in range(8, 8 + curves.TABLE_BOUND + 40):
        uniform_grid(num)
    assert len(curves._tables) == curves.TABLE_BOUND
    # the oldest sizes were dropped first
    assert ("grid", 8) not in curves._tables
    assert ("grid", 7 + curves.TABLE_BOUND + 40) in curves._tables
    monkeypatch.setattr(curves, "TABLE_BYTES", 10_000)
    curves._tables.clear()
    for num in (500, 501, 502, 503):
        uniform_grid(num)
    assert sum(t.nbytes for t in curves._tables.values()) <= 10_000
    assert list(curves._tables) == [("grid", 502), ("grid", 503)]
    big = uniform_grid(2000)
    assert ("grid", 2000) not in curves._tables and not big.flags.writeable
    assert same_bits(big, fresh(("grid", 2000)))


@pytest.mark.parametrize("bound", [None, 4])
def test_threads_match_a_serial_run(cleared, monkeypatch, bound):
    """8 threads on 2-CPU machines, switching every microsecond; with a bound of 4
    they also drop tables while others read and add them."""
    if bound is not None:
        monkeypatch.setattr(curves, "TABLE_BOUND", bound)
    jobs = [(1 + j % 3, num, coefficients(1 + j % 3, 4 + 2 * j, 2))
            for j, num in enumerate((512, 1023, 2048, 512, 4096, 1023, 2048, 8192))]

    def evolve(job):
        n, num, s = job
        curve0 = reconstruct_initial_curve(s, num_samples=num)
        out = [curve0.positions, curve0.normals]
        for t in (0.1, 0.7, 1.3):
            state = evolve_curve(s, curve0, t)
            out += [state.curve.positions, state.curve.normals, state.curvature.beta]
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(evolve, job) for job in jobs * 3]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(curves._tables) <= curves.TABLE_BOUND
    curves._tables.clear()
    spectral._certified = None
    serial = [evolve(job) for job in jobs * 3]
    for a, b in zip(threaded, serial):
        assert all(same_bits(x, y) for x, y in zip(a, b))
