"""Top-level acceptance checks, one per numbered contract.

Each test prints a single PASS/FAIL line (visible with pytest -s / on
failure) and asserts the stated tolerance.
"""

import numpy as np

from conftest import random_closed_spectral
from legendreflow.asymptotics import center_point, fit_decay_rate, scaled_error
from legendreflow.curves import (
    LegendreCurve,
    angle_unwrap,
    check_closure,
    curvature_from_samples,
    uniform_grid,
)
from legendreflow.cusps import detect_strict_decrease, zero_count_series
from legendreflow.fd import FDGrid, PhiState, gradient_bound_envelope, \
    solve_beta_fd, solve_phi_fd
from legendreflow.reparam import image_hausdorff_distance, reparametrize
from legendreflow.selfsimilar import (
    GALLERY_PROFILES,
    SelfSimilarProfile,
    cusp_count,
    lap_count,
    profile_position,
    verify_self_similarity,
)
from legendreflow.spectral import (
    SpectralBeta,
    analyze_beta,
    eigenvalue,
    evolve_beta,
    evolve_curve,
    reconstruct_initial_curve,
)


def report(number, name, ok, detail):
    line = f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_self_similar_exactness():
    worst = 0.0
    for n, m, c1, c2 in GALLERY_PROFILES:
        profile = SelfSimilarProfile(n=n, m=m, c1=c1, c2=c2)
        worst = max(worst, verify_self_similarity(profile, [0.0, 1.0, 2.0]))
    report(1, "self-similar exactness over 12 profiles", worst < 1e-9,
           f"max deviation {worst:.3e}")


def test_02_eigenvalue_law():
    worst = 0.0
    u = uniform_grid(128)
    for n in range(1, 5):
        for k in range(0, 13):
            if k == n:
                continue  # closure forbids the n band
            if k == 0:
                s = SpectralBeta.from_modes(n, a0=1.0)
                mode = np.ones_like(u)
            else:
                s = SpectralBeta.from_modes(n, modes={k: (1.0, 0.0)})
                mode = np.cos(k * u)
            for t in (0.3, 1.0, 2.5):
                expected = np.exp(eigenvalue(n, k) * t) * mode
                scale = np.max(np.abs(expected))
                err = np.max(np.abs(evolve_beta(s, t, u) - expected)) / scale
                worst = max(worst, err)
    report(2, "eigenvalue law n<=4, k<=12", worst < 1e-12,
           f"max relative error {worst:.3e}")


def test_03_oracle_equivalence():
    s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})

    def err(num, dt):
        u = uniform_grid(num)
        grid = FDGrid(num_points=num, dt=dt, scheme="crank_nicolson")
        approx = solve_beta_fd(evolve_beta(s, 0.0, u), 1, 0.25, grid)
        return float(np.max(np.abs(approx - evolve_beta(s, 0.25, u))))

    coarse = err(256, 1e-3)
    fine = err(512, 5e-4)
    order = np.log2(coarse / fine)
    report(3, "Crank-Nicolson oracle at T=0.25", coarse < 5e-5 and order >= 1.9,
           f"error {coarse:.3e}, order {order:.3f}")


def _criterion4_seeds():
    rng = np.random.default_rng(1234)
    return [random_closed_spectral(rng) for _ in range(100)]


def test_04_closed_curve_constraint():
    worst_band = 0.0
    worst_residual = 0.0
    for s in _criterion4_seeds():
        num = 512
        u = uniform_grid(num)
        beta0 = evolve_beta(s, 0.0, u)
        curve = reconstruct_initial_curve(s, num_samples=num)
        curve.validate()
        back = analyze_beta(beta0, s.n, truncation=s.truncation)
        # re-project without the zeroing shortcut: read the raw band
        k = s.n
        raw_a = (2.0 / num) * np.sum(beta0 * np.cos(k * u))
        raw_b = (2.0 / num) * np.sum(beta0 * np.sin(k * u))
        worst_band = max(worst_band, abs(raw_a), abs(raw_b))
        worst_residual = max(worst_residual,
                             float(np.max(np.abs(check_closure(beta0, s.n)))))
        assert back.truncation == s.truncation
    report(4, "closure constraint over 100 random closed curves",
           worst_band < 1e-10 and worst_residual < 1e-9,
           f"max |a_n|,|b_n| {worst_band:.3e}, max residual {worst_residual:.3e}")


def test_05_cusp_monotonicity():
    rng = np.random.default_rng(777)
    times = np.geomspace(0.01, 10.0, 30)
    worst_witness = 0.0
    events_seen = 0
    for _ in range(100):
        s = random_closed_spectral(rng, max_truncation=6)
        series = zero_count_series(s, times)  # raises on any increase
        counts = [z for _, z in series]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        for event in detect_strict_decrease(s, series):
            events_seen += 1
            worst_witness = max(worst_witness, abs(event.witness_beta),
                                abs(event.witness_dbeta))
    two_mode = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
    series = zero_count_series(two_mode, [0.5, 2.0])
    event = detect_strict_decrease(two_mode, series)[0]
    t_err = abs(event.t_event - np.log(100.0) / 4.0)
    report(5, "z(t) monotone over 100 seeds",
           worst_witness < 1e-6 and t_err < 1e-3,
           f"{events_seen} events, worst witness {worst_witness:.3e}, "
           f"two-mode event time error {t_err:.3e}")


def test_06_asymptotic_rate():
    s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0), 4: (0.1, 0.0)})
    curve = reconstruct_initial_curve(s, base_point=(0.2, -0.4), num_samples=2048)
    rep = fit_decay_rate(s, curve)
    rate_ok = abs(rep.fitted_rate - (-12.0)) < 0.01 * 12.0
    # direct route at t = 8: rescale the evolved curve against the attractor
    t = 8.0
    p = center_point(curve)
    state = evolve_curve(s, curve, t)
    target = profile_position(SelfSimilarProfile(n=1, m=2, c1=1.0, c2=0.0),
                              curve.grid)
    direct = float(np.max(np.abs(
        (state.curve.positions - p) / np.exp(-3.0 * t) - target)))
    analytic = scaled_error(s, curve, t)
    report(6, "decay rate -12 and convergence by t=8",
           rate_ok and direct < 1e-4 and analytic < 1e-4,
           f"fitted {rep.fitted_rate:.4f}, error(t=8) direct {direct:.3e} "
           f"analytic {analytic:.3e}")


def test_07_centroid_conservation():
    worst = 0.0
    for s in _criterion4_seeds():
        curve = reconstruct_initial_curve(s, base_point=(0.5, 1.5),
                                          num_samples=512)
        p0 = center_point(curve)
        for t in (0.1, 1.0, 2.0):
            p = center_point(evolve_curve(s, curve, t).curve)
            worst = max(worst, float(np.max(np.abs(p - p0))))
    report(7, "centroid conserved for criterion-4 seeds", worst < 1e-9,
           f"max drift {worst:.3e}")


def test_08_reparametrization():
    num = 512
    u = uniform_grid(num)
    psi = u + 0.3 * np.sin(u)
    nu = np.stack([np.sin(psi), -np.cos(psi)], axis=-1)
    curve = LegendreCurve(positions=nu, normals=nu)
    out, record = reparametrize(curve)
    ell_err = float(np.max(np.abs(curvature_from_samples(out).ell - 1.0)))
    hausdorff = image_hausdorff_distance(curve, out)
    ok = (record.rotation_index == 1 and ell_err < 1e-4 and hausdorff < 1e-5
          and angle_unwrap(out).rotation_index == 1)
    report(8, "warped-circle normal form", ok,
           f"l error {ell_err:.3e}, Hausdorff {hausdorff:.3e}")


def test_09_phi_pde_bounds():
    num = 128
    u = uniform_grid(num)
    state0 = PhiState.from_phi(u + 0.2 * np.sin(u))
    grid = FDGrid(num_points=num, dt=2e-4, scheme="explicit_euler")
    traj = solve_phi_fd(state0, lambda v, t: np.ones_like(v), 2.0, grid,
                        forcing=lambda v, t: 0.1 * np.sin(v))
    rows = gradient_bound_envelope(traj, lambda t: 0.1)
    bounds_ok = all(lo_b - 1e-12 <= lo and hi <= hi_b + 1e-12
                    for _, lo_b, lo, hi, hi_b in rows)
    winding = max(traj.winding_residual)
    report(9, "phi gradient bounds and winding", bounds_ok and winding < 1e-8,
           f"winding residual {winding:.3e}")


def test_10_lap_cusp_arithmetic():
    ok = (lap_count(1, 3) == 2 and lap_count(2, 4) == 2
          and cusp_count(1, 2) == 4 and cusp_count(1, 3) == 3)
    # the amplitudes never enter the counting functions; confirm via the
    # traced zeros of the three amplitude variants
    from legendreflow.cusps import find_zeros
    for _, _, c1, c2 in [p for p in GALLERY_PROFILES if p[:2] == (1, 3)]:
        prof = SelfSimilarProfile(n=1, m=3, c1=c1, c2=c2)
        ok = ok and find_zeros(prof.spectral(), 0.1).count == 6
    report(10, "lap/cusp arithmetic", ok,
           "lap(1,3)=lap(2,4)=2, cusp(1,2)=4, cusp(1,3)=3 for all amplitudes")
