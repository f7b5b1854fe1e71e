"""The three workloads: their inputs, one operation at a time, and checks.

A workload builds one round, a fixed list of operations made from the seed,
and a run repeats whole rounds. Each operation has a timed part that calls
the program and a check, outside the timing, against ``oracles``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from legendreflow import asymptotics, cusps, reparam, selfsimilar, spectral
from legendreflow.curves import LegendreCurve

HERE = Path(__file__).resolve().parent
TIMES = np.geomspace(0.01, 10.0, 30)
WITNESS_TOL = 1e-6
#: The reported witness u must be the u of the independently solved
#: degenerate zero to this, and its time t* within EVENT_TIME_TOL of
#: t_event. ``detect_strict_decrease`` bisects to 1e-6 in t, but t_event
#: misses t* by up to ~1e-5, in a few events up to 1e-4 (README, "Left
#: out"); a witness taken from another event misses it by 1e-4 to 1e-1.
WITNESS_U_TOL = 1e-6
EVENT_TIME_TOL = 1e-4
#: The independent count must drop by the reported amount across t* -+ this.
EVENT_BRACKET = 4e-6


class CheckFailed(Exception):
    """An operation finished but its output disagrees with the oracle."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[bool], object]          # run(traced) -> output; timed
    check: Callable[[object], None]        # raises CheckFailed
    prepare: Callable[[], None] | None = None
    known_fault: bool = False              # kept because the program fails it


def _rel_err(got, want):
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want))) / max(1.0, float(np.max(np.abs(want))))


# --------------------------------------------------------------------------
# cusp_tracking

#: Candidate closed beta_0 are numbered; candidate i is drawn from
#: default_rng([CUSP_POOL_KEY, i]) as in the test suite's fixture: n in
#: {1, 2, 3}, truncation K in [n + 1, 12], standard normal coefficients, a_0
#: scaled by 0.2 and the n band zeroed. ``cusp_pool.json`` sorts candidates
#: 0 .. size-1 into strata (n, K, d), d = zero pairs lost over the 30 times,
#: and lists those left out (see README).
CUSP_POOL_KEY = 20251006
CUSP_POOL = HERE / "cusp_pool.json"

#: Random beta_0 per cusp_tracking round (see ``cusp_slots``).
CUSP_SLOT_COUNT = 96
TWO_MODE_EVERY = 8
#: Left-out candidates that ``detect_strict_decrease`` fails every time, one
#: for each way it fails (README, "Left out"): its witness solve steps to
#: t < 0 and raises; the witness stops at a local minimum of |beta|; the
#: witness is the degenerate zero of another time. Every round runs them,
#: whatever the seed, so the faults show in ``failed`` until they are mended.
KNOWN_FAULT_CANDIDATES = (2606, 2093, 9)
#: cli_runs runs two `cusps` commands per round on candidates of this
#: stratum, its heaviest command, so that its slowest samples are the same
#: command whatever the seed.
CLI_CUSPS_STRATUM = (1, 10, 5)


def random_closed(rng, n, top):
    """Normal coefficients up to mode ``top`` with a modest mean mode and the
    n band zeroed, so that beta_0 closes a curve."""
    a = rng.normal(size=top + 1)
    b = rng.normal(size=top + 1)
    b[0] = 0.0
    a[n] = b[n] = 0.0
    a[0] *= 0.2
    return a, b


def cusp_candidate(index):
    rng = np.random.default_rng([CUSP_POOL_KEY, index])
    n = int(rng.integers(1, 4))
    a, b = random_closed(rng, n, int(rng.integers(n + 1, 13)))
    return n, a, b


def cusp_stratum(n, a, b):
    lost = oracles.count_zeros(n, a, b, TIMES[0]) - oracles.count_zeros(n, a, b, TIMES[-1])
    return n, len(a) - 1, lost // 2


def cusp_slots(pool, count=CUSP_SLOT_COUNT):
    """Strata (n, K, d) of the random beta_0 in one round: those of ``count``
    candidates evenly spaced through the whole pool, left-out candidates
    included, sorted by (d, K, n). A round so has the draws' mix of work,
    d >= 7 included. The seed picks which candidates fill the strata; the
    strata fix the work per round, which grows with d (each lost pair is an
    event costing ~17 find_zeros)."""
    strata = [key for key, members in pool["strata"].items() for _ in members]
    strata += [c["stratum"] for c in pool["left_out"]]
    ranked = sorted((tuple(map(int, key.split(","))) for key in strata),
                    key=lambda stratum: stratum[::-1])
    return [ranked[(2 * i + 1) * len(ranked) // (2 * count)] for i in range(count)]


def _pick_from_pool(rng, strata):
    pool = json.loads(CUSP_POOL.read_text())["strata"]
    taken = set()
    out = []
    for n, top, d in strata:
        choices = [i for i in pool[f"{n},{top},{d}"] if i not in taken]
        index = choices[int(rng.integers(len(choices)))]
        taken.add(index)
        out.append(index)
    return out


def cusp_op(n, a, b, two_mode_time=None):
    expected = []

    def run(traced):
        s = spectral.SpectralBeta(n=n, cos_coeffs=a, sin_coeffs=b)
        series = cusps.zero_count_series(s, TIMES)
        return series, cusps.detect_strict_decrease(s, series)

    def check(out):
        series, events = out
        if not expected:
            expected.extend(oracles.count_zeros(n, a, b, t) for t in TIMES)
        check_cusp_series(n, a, b, [t for t, _ in series], [z for _, z in series],
                          [(e.interval, e.t_event, e.count_before - e.count_after,
                            e.witness_u, e.witness_beta, e.witness_dbeta) for e in events],
                          expected)
        if two_mode_time is not None:
            expect(len(events) == 1 and abs(events[0].t_event - two_mode_time) < 1e-3,
                   f"two-mode event at {[e.t_event for e in events]}, "
                   f"expected {two_mode_time}")

    return Op("two_mode" if two_mode_time is not None else "random", run, check)


def check_cusp_series(n, a, b, times, counts, events, expected):
    """z(t) non-increasing and equal to the independent count; every event
    inside its interval, where the independent count drops, with a
    degenerate-zero witness."""
    expect(np.array_equal(np.asarray(times), TIMES), "series times differ from input")
    expect(all(b <= a for a, b in zip(counts, counts[1:])), f"z(t) increased: {counts}")
    expect(list(counts) == list(expected), f"z(t) {counts} != independent {expected}")
    for (lo, hi), t_event, drop, w_u, w_beta, w_dbeta in events:
        expect(lo < t_event < hi, f"event {t_event} outside ({lo}, {hi})")
        expect(abs(w_beta) < WITNESS_TOL and abs(w_dbeta) < WITNESS_TOL,
               f"witness residual ({w_beta:.3g}, {w_dbeta:.3g}) at t={t_event}")
        star = oracles.degenerate_zero(n, a, b, w_u, t_event)
        expect(star is not None, f"no degenerate zero near witness u={w_u}, t={t_event}")
        u_star, t_star = star
        u_off = abs(math.remainder(u_star - w_u, oracles.TWO_PI))
        expect(u_off < WITNESS_U_TOL and abs(t_star - t_event) < EVENT_TIME_TOL,
               f"witness u={w_u} at t_event={t_event}, but the degenerate zero "
               f"is at u={u_star}, t={t_star}")
        z_lo = oracles.count_zeros(n, a, b, t_star - EVENT_BRACKET)
        z_hi = oracles.count_zeros(n, a, b, t_star + EVENT_BRACKET)
        expect(z_lo - z_hi >= drop,
               f"independent count {z_lo} -> {z_hi} around t*={t_star}, drop {drop} reported")
    expect(sum(e[2] for e in events) == counts[0] - counts[-1],
           "events do not account for the zeros lost")


def build_cusp_tracking(seed):
    rng = np.random.default_rng([seed, 1])
    a2 = np.array([0.01, 0.0, 1.0])
    b2 = np.zeros(3)
    t_star = oracles.two_mode_event_time(1, 0.01, 2, 1.0)
    slots = cusp_slots(json.loads(CUSP_POOL.read_text()))
    ops = []
    for slot, index in enumerate(_pick_from_pool(rng, slots)):
        ops.append(cusp_op(*cusp_candidate(index)))
        if (slot + 1) % TWO_MODE_EVERY == 0:
            ops.append(cusp_op(1, a2, b2, two_mode_time=t_star))
    for index in KNOWN_FAULT_CANDIDATES:
        op = cusp_op(*cusp_candidate(index))
        op.kind, op.known_fault = "known_fault", True
        ops.append(op)
    return ops


# --------------------------------------------------------------------------
# flow_eval

#: (K, N) of the random beta_0 per round; repeats let a per-(K, N) table
#: cache hit, the rest miss.
FLOW_SIZES = ((4, 512), (8, 512), (8, 512), (12, 1024), (16, 1024), (16, 2048),
              (20, 2048), (24, 4096), (24, 4096), (32, 4096), (32, 8192), (12, 1024))
WARP = 0.25


def evolve_op(n, a, b, num, base, times):
    def run(traced):
        s = spectral.SpectralBeta(n=n, cos_coeffs=a, sin_coeffs=b)
        curve = spectral.reconstruct_initial_curve(s, base_point=base, num_samples=num)
        return curve, [spectral.evolve_curve(s, curve, t) for t in times]

    def check(out):
        curve, states = out
        u = oracles.TWO_PI * np.arange(num) / num
        x0 = oracles.curve_position(n, a, b, u)
        p = np.asarray(base) - oracles.curve_position(n, a, b, np.zeros(1))[0]
        expect(_rel_err(curve.positions, p + x0) < 1e-10, "initial curve != closed form")
        centroid = curve.positions.mean(axis=0)
        for t, state in zip(times, states):
            drift = float(np.max(np.abs(state.curve.positions.mean(axis=0) - centroid)))
            expect(drift < 1e-9, f"centroid drift {drift:.3g} at t={t}")
            err = _rel_err(state.curvature.beta, oracles.mode_sum(n, a, b, t, u))
            expect(err < 1e-10, f"beta error {err:.3g} at t={t}")
            err = _rel_err(state.curve.positions, p + oracles.curve_position(n, a, b, u, t))
            expect(err < 1e-9, f"position error {err:.3g} at t={t}")

    return Op("evolve", run, check)


def fit_op(n, a, b, m, k_next):
    rate = oracles.decay_rate(n, m, k_next)

    def run(traced):
        s = spectral.SpectralBeta(n=n, cos_coeffs=a, sin_coeffs=b)
        curve = spectral.reconstruct_initial_curve(s, num_samples=1024)
        return asymptotics.fit_decay_rate(s, curve)

    def check(report):
        expect(report.leading_mode == m, f"leading mode {report.leading_mode} != {m}")
        expect(abs(report.fitted_rate - rate) < 0.01 * abs(rate),
               f"fitted rate {report.fitted_rate} vs {rate}")

    return Op("fit", run, check)


def gallery_op(profile, num, times):
    n, m, c1, c2 = profile

    def run(traced):
        prof = selfsimilar.SelfSimilarProfile(n=n, m=m, c1=c1, c2=c2)
        s = prof.spectral()
        curve = spectral.reconstruct_centered_curve(s, num)
        target = selfsimilar.profile_position(prof, curve.grid)
        return target, [(selfsimilar.lambda_star(n, m, t), spectral.evolve_curve(s, curve, t))
                        for t in times]

    def check(out):
        target, states = out
        u = oracles.TWO_PI * np.arange(num) / num
        x_star = oracles.profile_position(n, m, c1, c2, u)
        expect(_rel_err(target, x_star) < 1e-12, "profile_position != X*")
        for t, (scale, state) in zip(times, states):
            want = oracles.lambda_star(n, m, t)
            expect(abs(scale - want) <= 1e-14 * want, f"lambda*({t}) = {scale} != {want}")
            err = float(np.max(np.abs(state.curve.positions - want * x_star)))
            expect(err < 1e-9 * max(1.0, want * float(np.max(np.abs(x_star)))),
                   f"profile deviates by {err:.3g} at t={t}")

    return Op("gallery", run, check)


def warped_profile(profile, num):
    """A profile sampled at psi(u) = u + WARP sin u: same image, l != n."""
    n, m, c1, c2 = profile
    u = oracles.TWO_PI * np.arange(num) / num
    psi = u + WARP * np.sin(u)
    return oracles.profile_position(n, m, c1, c2, psi), oracles.profile_normal(n, psi)


def reparam_op(profile):
    n, m, c1, c2 = profile
    num = 512 * n
    positions, normals = warped_profile(profile, num)

    def run(traced):
        curve = LegendreCurve(positions=positions, normals=normals)
        return reparam.reparametrize(curve)

    def check(out):
        curve, record = out
        expect(record.rotation_index == n, f"rotation index {record.rotation_index} != {n}")
        check_normal_form(n, curve.positions, profile)

    return Op("reparam", run, check)


def check_normal_form(n, positions, profile):
    num = positions.shape[0]
    u = oracles.TWO_PI * np.arange(num) / num
    target = oracles.profile_position(*profile, u)
    mismatch = oracles.shift_mismatch(n, positions, target)
    expect(mismatch < 1e-6 * float(np.max(np.abs(target))),
           f"normal form differs from X* by {mismatch:.3g}")


def build_flow_eval(seed):
    rng = np.random.default_rng([seed, 2])
    gallery = selfsimilar.GALLERY_PROFILES
    ops = []
    for j, (top, num) in enumerate(FLOW_SIZES):
        n = int(rng.integers(1, 4))
        a, b = random_closed(rng, n, top)
        times = np.sort(rng.uniform(0.05, 2.0, size=3))
        base = tuple(rng.uniform(-1.0, 1.0, size=2))
        ops.append(evolve_op(n, a, b, num, base, times))

        n = int(rng.integers(1, 4))
        m = int(rng.choice([k for k in range(4) if k != n]))
        k_next = int(rng.choice([k for k in range(m + 1, 7) if k != n]))
        a = np.zeros(k_next + 1)
        b = np.zeros(k_next + 1)
        for k, (lo, hi) in ((m, (0.5, 2.0)), (k_next, (0.05, 0.5))):
            amp, phase = rng.uniform(lo, hi), rng.uniform(0.0, oracles.TWO_PI)
            if k == 0:
                a[0] = amp * math.copysign(1.0, math.cos(phase))
            else:
                a[k], b[k] = amp * math.cos(phase), amp * math.sin(phase)
        ops.append(fit_op(n, a, b, m, k_next))

        profile = gallery[j % len(gallery)]
        ops.append(gallery_op(profile, 512 * profile[0],
                              np.sort(rng.uniform(0.0, 2.0, size=3))))
        ops.append(reparam_op(gallery[(j + 5) % len(gallery)]))
    return ops


# --------------------------------------------------------------------------
# cli_runs

@dataclass
class CliContext:
    root: Path          # checkout root, the children's working directory
    scratch: Path       # per-run directory for inputs and outputs
    env: dict
    trace_dir: Path
    traces: itertools.count = field(default_factory=itertools.count)


def write_curve_csv(path, positions, normals, beta=None, ell=None):
    """The library's curve exchange format, written without the library."""
    num = positions.shape[0]
    header = ["u", "x", "y", "nu_x", "nu_y"] + (["beta", "ell"] if beta is not None else [])
    cols = [oracles.TWO_PI * np.arange(num) / num, positions[:, 0], positions[:, 1],
            normals[:, 0], normals[:, 1]]
    if beta is not None:
        cols += [beta, ell]
    lines = [",".join(header)]
    lines += [",".join(repr(float(c[j])) for c in cols) for j in range(num)]
    Path(path).write_text("\n".join(lines) + "\n")


def _mode_args(n, a, b):
    args = [f"--n={n}"]
    if a[0] != 0.0:
        args.append(f"--a0={float(a[0])!r}")
    for k in range(1, len(a)):
        if a[k] != 0.0 or b[k] != 0.0:
            args += ["--mode", f"{k}:{float(a[k])!r}:{float(b[k])!r}"]
    return args


def _read_csv(path):
    text = Path(path).read_text().splitlines()
    header = text[0].split(",")
    values = np.array([[float(v) for v in line.split(",")] for line in text[1:] if line])
    return header, values


def check_outdir(outdir):
    """Every manifest checksum matches its file and every CSV value is finite."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    expect(manifest["outputs"], "manifest lists no outputs")
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        expect(actual == digest, f"checksum mismatch for {name}")
    tables = {}
    for path in sorted(outdir.glob("*.csv")):
        header, values = _read_csv(path)
        expect(values.size > 0 and np.all(np.isfinite(values)), f"non-finite values in {path.name}")
        tables[path.name] = dict(zip(header, values.T))
    return tables


def check_simulated_beta(tables, n, a, b, times):
    names = sorted(k for k in tables if k.startswith("flow_"))
    expect(len(names) == len(times), f"{len(names)} snapshots for {len(times)} times")
    for name, t in zip(names, times):
        cols = tables[name]
        expect(np.all(cols["t"] == t), f"{name} has t != {t}")
        err = _rel_err(cols["beta"], oracles.mode_sum(n, a, b, t, cols["u"]))
        expect(err < 1e-9, f"{name}: beta differs from the mode sum by {err:.3g}")


def cli_op(ctx, index, args, check):
    outdir = ctx.scratch / f"cmd{index}"
    log = ctx.scratch / f"cmd{index}.log"

    def prepare():
        shutil.rmtree(outdir, ignore_errors=True)

    def run(traced):
        if traced:
            summary = ctx.trace_dir / f"cmd{index}_{next(ctx.traces)}"
            argv = [sys.executable, str(HERE / "cli_launcher.py"), str(summary)]
        else:
            summary = None
            argv = [sys.executable, "-m", "legendreflow.cli"]
        argv += args + ["--outdir", str(outdir)]
        with open(log, "wb") as err:
            proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {log.read_text()[-400:]}")
        return usage.ru_maxrss, summary

    def checked(out):
        check(outdir, check_outdir(outdir))

    return Op(args[0], run, checked, prepare)


def build_cli_inputs(seed, scratch):
    """Seeded inputs of one cli_runs round, including the two curve CSVs the
    round reads."""
    rng = np.random.default_rng([seed, 3])
    scratch.mkdir(parents=True, exist_ok=True)
    inputs = {}

    n = int(rng.integers(1, 3))
    a, b = random_closed(rng, n, int(rng.integers(n + 1, 6)))
    inputs["simulate"] = (n, a, b, sorted(round(float(t), 3) for t in rng.uniform(0.05, 1.5, 3)))

    inputs["cusps"] = [cusp_candidate(i) for i in _pick_from_pool(rng, [CLI_CUSPS_STRATUM] * 2)]

    n = int(rng.integers(1, 3))
    m = int(rng.choice([k for k in range(3) if k != n]))
    k_next = int(rng.choice([k for k in range(m + 1, 5) if k != n]))
    a = np.zeros(k_next + 1)
    b = np.zeros(k_next + 1)
    a[m] = rng.uniform(0.5, 2.0)
    a[k_next], b[k_next] = rng.uniform(0.05, 0.5, size=2)
    inputs["converge"] = (n, a, b, m, k_next)

    n = int(rng.integers(1, 3))
    k = int(rng.choice([2, 3]))
    a = np.zeros(k + 1)
    b = np.zeros(k + 1)
    a[k] = rng.uniform(0.5, 1.5)
    inputs["oracle_beta"] = (n, a, b) if k != n else (1, a, b)

    profile = selfsimilar.GALLERY_PROFILES[int(rng.integers(len(selfsimilar.GALLERY_PROFILES)))]
    positions, normals = warped_profile(profile, 512 * profile[0])
    write_curve_csv(scratch / "warped.csv", positions, normals)
    inputs["reparam"] = profile

    n = int(rng.integers(1, 3))
    a, b = random_closed(rng, n, int(rng.integers(n + 1, 6)))
    u = oracles.TWO_PI * np.arange(512) / 512
    write_curve_csv(scratch / "curve.csv", oracles.curve_position(n, a, b, u),
                    oracles.profile_normal(n, u), oracles.mode_sum(n, a, b, 0.0, u),
                    np.full(512, float(n)))
    inputs["simulate_curve"] = (n, a, b, sorted(round(float(t), 3) for t in rng.uniform(0.05, 1.5, 2)))
    return inputs


def build_cli_runs(seed, ctx):
    inputs = build_cli_inputs(seed, ctx.scratch)
    ops = []

    n, a, b, times = inputs["simulate"]
    ops.append(cli_op(ctx, 0, ["simulate", *_mode_args(n, a, b), "--samples", "512",
                               "--times", ",".join(map(repr, times))],
                      lambda d, tables: check_simulated_beta(tables, n, a, b, times)))

    def check_catalog(outdir, tables):
        rows = json.loads((outdir / "catalog.json").read_text())
        expect(len(rows) == len(selfsimilar.GALLERY_PROFILES), "catalog size")
        for row in rows:
            n, m = row["n"], row["m"]
            laps = math.gcd(n + m, abs(n - m))
            expect(row["lap_count"] == laps and row["cusp_count"] == 2 * m // laps,
                   f"lap/cusp counts of ({n}, {m})")
            cols = tables[row["csv"]]
            want = oracles.profile_position(n, m, row["c1"], row["c2"], cols["u"])
            err = _rel_err(np.stack([cols["x"], cols["y"]], axis=-1), want)
            expect(err < 1e-11, f"{row['csv']} differs from X* by {err:.3g}")

    ops.append(cli_op(ctx, 1, ["self-similar", "--catalog"], check_catalog))

    def cusps_op(index, cn, ca, cb):
        def check_cusps(outdir, tables):
            cols = tables["zero_counts.csv"]
            report = json.loads((outdir / "cusp_report.json").read_text())
            events = [(tuple(e["interval"]), e["t_event"], e["drop"][0] - e["drop"][1],
                       e["witness"]["u"], e["witness"]["beta"], e["witness"]["dbeta"])
                      for e in report["events"]]
            check_cusp_series(cn, ca, cb, cols["t"], [int(z) for z in cols["z"]], events,
                              [oracles.count_zeros(cn, ca, cb, t) for t in TIMES])

        return cli_op(ctx, index, ["cusps", *_mode_args(cn, ca, cb)], check_cusps)

    ops.append(cusps_op(2, *inputs["cusps"][0]))

    vn, va, vb, vm, vk = inputs["converge"]

    def check_converge(outdir, tables):
        report = json.loads((outdir / "convergence.json").read_text())
        rate = oracles.decay_rate(vn, vm, vk)
        expect(report["leading_mode"] == vm, "leading mode")
        expect(abs(report["fitted_rate"] - rate) < 0.01 * abs(rate),
               f"fitted rate {report['fitted_rate']} vs {rate}")

    ops.append(cli_op(ctx, 3, ["converge", *_mode_args(vn, va, vb)], check_converge))

    def check_verdict(*keys):
        def check(outdir, tables):
            report = json.loads((outdir / "oracle_check.json").read_text())
            expect(all(report[key] is True for key in keys), f"oracle verdict {report}")
        return check

    on, oa, ob = inputs["oracle_beta"]
    ops.append(cli_op(ctx, 4, ["oracle-check", "--equation", "beta", *_mode_args(on, oa, ob),
                               "--samples", "256", "--dt", "1e-3", "--T", "0.25"],
                      check_verdict("order_ok")))
    ops.append(cli_op(ctx, 5, ["oracle-check", "--equation", "phi", "--samples", "128",
                               "--dt", "2e-4", "--T", "0.2"],
                      check_verdict("gradient_bounds_ok", "winding_ok")))

    profile = inputs["reparam"]

    def check_reparam(outdir, tables):
        cols = tables["normalized.csv"]
        check_normal_form(profile[0], np.stack([cols["x"], cols["y"]], axis=-1), profile)

    ops.append(cli_op(ctx, 6, ["reparam", "--curve", str(ctx.scratch / "warped.csv")],
                      check_reparam))

    sn, sa, sb, stimes = inputs["simulate_curve"]
    ops.append(cli_op(ctx, 7, ["simulate", "--curve", str(ctx.scratch / "curve.csv"),
                               "--times", ",".join(map(repr, stimes))],
                      lambda d, tables: check_simulated_beta(tables, sn, sa, sb, stimes)))
    ops.append(cusps_op(8, *inputs["cusps"][1]))
    return ops
