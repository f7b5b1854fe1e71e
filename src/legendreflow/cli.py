"""Command-line entry point.

Subcommands: simulate, self-similar, reparam, cusps, converge, oracle-check.
Configuration may come from a single JSON document (--config); explicit
flags override file values.  Exit codes: 0 success, 2 validation error,
3 invariant violation detected during a verification run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, cusps, curveio, fd, reparam, selfsimilar, spectral
from .curves import (LegendreCurvature, LegendreCurve, angle_unwrap, curvature_from_samples,
                     uniform_grid)
from .errors import InvariantViolationError, LegendreFlowError, ValidationError

#: Largest --samples and --curve row count; oracle-check refines to twice as
#: many points, and a --curve input is projected onto K = N/2 - 1 modes.
MAX_SAMPLES = 2 ** 16
#: Largest mode index K; cusps solves 2K x 2K companion matrices.
MAX_MODE = 128
#: Largest n + m of a self-similar profile, whose render grid is 64 (n + m) points.
MAX_PROFILE_FREQUENCY = MAX_SAMPLES // 64


@dataclass
class RunConfig:
    command: str
    n: int = 1
    a0: float = 0.0
    modes: dict = field(default_factory=dict)   # {k: (a_k, b_k)}
    curve: str | None = None
    m: int | None = None
    c1: float | None = None
    c2: float = 0.0
    times: list = field(default_factory=list)
    samples: int = 512
    outdir: str = "."
    catalog: bool = False
    equation: str = "beta"
    scheme: str = "crank_nicolson"
    dt: float = 1e-3
    final_time: float = 0.25

    def validate(self):
        if not isinstance(self.outdir, str) or not isinstance(self.curve, (str, type(None))):
            raise ValidationError("outdir and curve must be paths")
        if self.equation not in ("beta", "phi") or self.scheme not in fd.SCHEMES:
            raise ValidationError(f"equation must be beta or phi and scheme one of {fd.SCHEMES}, "
                                  f"got {self.equation!r} and {self.scheme!r}")
        numbers = [*self.times, self.a0, self.c1 or 0.0, self.c2, self.dt, self.final_time,
                   *(c for pair in self.modes.values() for c in pair)]
        if not np.all(np.isfinite(numbers)):
            raise ValidationError("times, coefficients, dt and T must be finite")
        if self.command == "oracle-check" and not (self.dt > 0.0 and self.final_time > 0.0):
            raise ValidationError(f"oracle-check needs dt > 0 and T > 0, got {self.dt!r} and "
                                  f"{self.final_time!r}")
        if not fd.MIN_POINTS <= self.samples <= MAX_SAMPLES:
            raise ValidationError(f"--samples must be between {fd.MIN_POINTS} and {MAX_SAMPLES}, "
                                  f"got {self.samples}")
        if max(self.modes, default=0) > MAX_MODE:
            raise ValidationError(f"mode indices must be at most {MAX_MODE}, "
                                  f"got {max(self.modes)}")
        frequency = self.n + (self.m or 0)
        if self.command == "self-similar" and frequency > MAX_PROFILE_FREQUENCY:
            raise ValidationError(f"n + m must be at most {MAX_PROFILE_FREQUENCY}, "
                                  f"got {frequency}")
        # X_0 = int beta_0 mu has frequencies up to n + K, which the grid must resolve
        top = self.n + max(self.modes, default=0)
        if (self.command in ("simulate", "converge") and self.curve is None
                and self.samples <= 2 * top):
            raise ValidationError(
                f"--samples must exceed 2 (n + K) = {2 * top} to resolve the initial curve, "
                f"got {self.samples}")
        if self.times and (any(t < 0 for t in self.times)
                           or any(b <= a for a, b in zip(self.times, self.times[1:]))):
            raise ValidationError("times must be non-negative and strictly increasing")
        sources = sum([bool(self.modes) or self.a0 != 0.0,
                       self.curve is not None,
                       self.m is not None])
        if sources > 1:
            raise ValidationError(
                "exactly one initial-data source allowed: inline coefficients, "
                "a curve CSV, or profile parameters")

    def to_json_dict(self):
        d = asdict(self)
        d["modes"] = {str(k): list(v) for k, v in self.modes.items()}
        return d


def _parse_mode(text):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValidationError(f"malformed mode {text!r}; expected k:a or k:a:b")
    try:
        k = int(parts[0])
        a = float(parts[1])
        b = float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError as exc:
        raise ValidationError(f"malformed coefficients in mode {text!r}") from exc
    return k, (a, b)


def _parse_times(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"malformed time list {text!r}") from exc


def _read_curve(path):
    """read_curve_csv, refusing more than MAX_SAMPLES samples before any work on them."""
    curve, extras = curveio.read_curve_csv(path)
    if curve.grid_size > MAX_SAMPLES:
        raise ValidationError(f"{path}: a curve CSV has at most {MAX_SAMPLES} samples, "
                              f"got {curve.grid_size}")
    return curve, extras


def _spectral_from_config(config: RunConfig):
    if config.curve is not None:
        curve, extras = _read_curve(config.curve)
        beta0 = extras.get("beta", curvature_from_samples(curve).beta)
        return spectral.analyze_beta(beta0, angle_unwrap(curve).rotation_index), curve
    return spectral.SpectralBeta.from_modes(config.n, a0=config.a0, modes=config.modes), None


def _emit(config: RunConfig, artifacts, message, failure=None):
    """Check every artifact, then create the output directory and write the
    artifacts and the manifest: a run refused before the writes leaves no
    directory behind.  A failure is raised after the writes."""
    checked = {name: curveio.check_artifact(name, item) for name, item in artifacts.items()}
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = [curveio.write_artifact(outdir / name, item) for name, item in checked.items()]
    curveio.write_manifest(outdir / "manifest.json", config.to_json_dict(), outputs, __version__)
    print(message)
    if failure:
        raise InvariantViolationError(failure)
    return 0


def _cmd_simulate(config: RunConfig):
    s, curve0 = _spectral_from_config(config)
    if curve0 is None:
        curve0 = spectral.reconstruct_centered_curve(s, config.samples)
    states = [spectral.evolve_curve(s, curve0, t) for t in config.times or [0.0]]
    artifacts = {f"flow_{idx:03d}.csv": curveio.CurveSamples(state.curve, state.curvature, state.t)
                 for idx, state in enumerate(states)}
    return artifacts, f"wrote {len(states)} snapshots and {Path(config.outdir) / 'manifest.json'}"


def _cmd_self_similar(config: RunConfig):
    if config.catalog:
        artifacts, rows = {}, []
        for n, m, c1, c2 in selfsimilar.GALLERY_PROFILES:
            profile = selfsimilar.SelfSimilarProfile(n=n, m=m, c1=c1, c2=c2)
            stem = f"profile_n{n}_m{m}_c1{c1:g}_c2{c2:g}"
            artifacts.update(_profile(stem, profile, config.samples))
            rows.append({
                "n": n, "m": m, "c1": c1, "c2": c2,
                "lap_count": selfsimilar.lap_count(n, m),
                "cusp_count": selfsimilar.cusp_count(n, m),
                "csv": f"{stem}.csv", "svg": f"{stem}.svg",
            })
        artifacts["catalog.json"] = rows
        return artifacts, f"catalog of {len(rows)} profiles written to {Path(config.outdir)}"
    if config.m is None or config.c1 is None:
        raise ValidationError("self-similar needs --m and --c1 (or --catalog)")
    profile = selfsimilar.SelfSimilarProfile(
        n=config.n, m=config.m, c1=config.c1, c2=config.c2)
    stem = f"profile_n{config.n}_m{config.m}"
    return (_profile(stem, profile, config.samples),
            f"laps={selfsimilar.lap_count(config.n, config.m)} "
            f"cusps={selfsimilar.cusp_count(config.n, config.m)} "
            f"-> {Path(config.outdir) / f'{stem}.svg'}")


def _profile(stem, profile, samples):
    """The CSV and SVG artifacts of one profile; render_svg refuses an overflowing extent."""
    num = max(samples, profile.render_samples())
    u = np.linspace(0.0, 2.0 * np.pi, num, endpoint=False)
    positions = selfsimilar.profile_position(profile, u)
    curve = LegendreCurve(positions=positions, normals=profile.normal(u))
    curvature = LegendreCurvature(ell=np.full(num, float(profile.n)), beta=profile.beta(u))
    return {f"{stem}.csv": curveio.CurveSamples(curve, curvature),
            f"{stem}.svg": curveio.render_svg(positions)}


def _cmd_reparam(config: RunConfig):
    if config.curve is None:
        raise ValidationError("reparam needs --curve pointing at a curve CSV")
    curve, _ = _read_curve(config.curve)
    normalized, record = reparam.reparametrize(curve)
    artifact = curveio.CurveSamples(normalized, curvature_from_samples(normalized))
    return ({"normalized.csv": artifact},
            f"rotation index {record.rotation_index}, theta0 = {record.theta0:.6f} "
            f"-> {Path(config.outdir) / 'normalized.csv'}")


def _cmd_cusps(config: RunConfig):
    s, _ = _spectral_from_config(config)
    times = config.times or list(np.geomspace(0.01, 10.0, 30))
    reports = cusps.report_series(s, times)
    series = [(rep.t, rep.count) for rep in reports]
    events = cusps.detect_strict_decrease(s, series)
    report = [{"t": rep.t, "count": rep.count,
               "zeros": [{"u": z.location, "dbeta": z.derivative, "kind": z.kind}
                         for z in rep.zeros],
               "certificate": dict(zip(("mode", "margin"), rep.certificate))
                               if rep.certificate else None}
              for rep in reports]
    counts = [[t, z, sum(1 for e in events if e.interval[0] <= t < e.interval[1])]
              for t, z in series]
    return {
        "cusp_report.json": {
            "series": report,
            "events": [{"interval": e.interval, "t_event": e.t_event,
                        "drop": [e.count_before, e.count_after],
                        "witness": {"u": e.witness_u, "beta": e.witness_beta,
                                    "dbeta": e.witness_dbeta},
                        "certificate": dict(zip(("kind", "radius", "residual"), e.certificate))}
                       for e in events],
        },
        "zero_counts.csv": curveio.Table(["t", "z", "events"], counts),
    }, f"z(t) over {len(series)} times, {len(events)} strict decrease(s)"


def _cmd_converge(config: RunConfig):
    s, curve0 = _spectral_from_config(config)
    if curve0 is None:
        curve0 = spectral.reconstruct_centered_curve(s, config.samples)
    times = config.times or list(np.linspace(1.0, 6.0, 6))
    report = asymptotics.fit_decay_rate(s, curve0, times)
    if report.exactly_self_similar:
        message = "input is exactly self-similar; no rate to fit"
    else:
        message = (f"fitted rate {report.fitted_rate:.6f} "
                   f"(predicted {report.predicted_rate:.6f})")
    return {
        "convergence.json": {
            "leading_mode": report.leading_mode,
            "center": list(map(float, report.center)),
            "fitted_rate": report.fitted_rate,
            "predicted_rate": report.predicted_rate,
            "exactly_self_similar": report.exactly_self_similar,
            "envelope_bounded": report.envelope_bounded,
        },
        "scaled_error.csv": curveio.Table(["t", "scaled_error"], report.errors),
    }, message


def _cmd_oracle_check(config: RunConfig):
    grid = fd.FDGrid(num_points=config.samples, dt=config.dt, scheme=config.scheme)
    result = {"equation": config.equation,
              "N": config.samples, "dt": config.dt, "T": config.final_time}
    if config.equation == "beta":
        result["scheme"] = config.scheme
        s, _ = _spectral_from_config(config)
        fine = fd.FDGrid(num_points=2 * config.samples, dt=config.dt / 2, scheme=config.scheme)
        errors = []
        for g in (grid, fine):
            u = uniform_grid(g.num_points)
            approx = fd.solve_beta_fd(spectral.synthesize_beta(s, u), s.n, config.final_time, g)
            exact = spectral.evolve_beta(s, config.final_time, u)
            errors.append(float(np.max(np.abs(approx - exact))))
        err_coarse, err_fine = errors
        order = float(np.log2(err_coarse / err_fine)) if err_fine > 0 else float("inf")
        result.update({"error": err_coarse, "refined_error": err_fine,
                       "observed_order": order,
                       "order_ok": bool(order >= 1.9)})
    else:
        u = uniform_grid(config.samples)
        state0 = fd.PhiState.from_phi(u + 0.2 * np.sin(u))
        forcing = lambda u, t: 0.1 * np.sin(u)
        traj = fd.solve_phi_fd(state0, lambda u, t: np.full_like(u, float(config.n)),
                               config.final_time, grid, forcing=forcing)
        rows = fd.gradient_bound_envelope(traj, lambda t: 0.1)
        bounds_ok = all(lo_b - 1e-12 <= lo and hi <= hi_b + 1e-12
                        for _, lo_b, lo, hi, hi_b in rows)
        result.update({
            "gradient_bounds_ok": bool(bounds_ok),
            "max_winding_residual": max(traj.winding_residual),
            "winding_ok": bool(max(traj.winding_residual) < 1e-8),
        })
    failed = result.get("order_ok") is False or result.get("gradient_bounds_ok") is False
    return ({"oracle_check.json": result}, json.dumps(result, indent=2),
            "oracle check failed its verdict" if failed else None)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "self-similar": _cmd_self_similar,
    "reparam": _cmd_reparam,
    "cusps": _cmd_cusps,
    "converge": _cmd_converge,
    "oracle-check": _cmd_oracle_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="legendreflow",
        description="Inverse curvature flow of l-convex Legendre curves: "
                    "exact spectral solver, cusp tracking, self-similar "
                    "profiles, finite-difference oracles.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, coeffs=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--outdir", default=None,
                       help="output directory (default $LEGENDREFLOW_OUTDIR or .)")
        p.add_argument("--samples", type=int, default=None)
        if coeffs:
            p.add_argument("--n", type=int, default=None, help="rotation index")
            p.add_argument("--a0", type=float, default=None)
            p.add_argument("--mode", action="append", default=None,
                           metavar="k:a[:b]", help="add a Fourier mode (repeatable)")
            p.add_argument("--curve", default=None, help="curve CSV input")
            p.add_argument("--times", default=None, help="comma-separated time list")

    p = sub.add_parser("simulate", help="evolve a flow and dump snapshots")
    add_common(p)

    p = sub.add_parser("self-similar", help="emit a self-similar profile or catalog")
    add_common(p, coeffs=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--catalog", action="store_true")

    p = sub.add_parser("reparam", help="normalize a curve CSV to l == n")
    add_common(p, coeffs=False)
    p.add_argument("--curve", default=None, help="curve CSV input")

    p = sub.add_parser("cusps", help="zero counts, classifications and events")
    add_common(p)

    p = sub.add_parser("converge", help="rescaled convergence report")
    add_common(p)

    p = sub.add_parser("oracle-check", help="finite-difference cross-checks")
    add_common(p)
    p.add_argument("--equation", choices=["beta", "phi"], default=None)
    p.add_argument("--scheme", choices=list(fd.SCHEMES), default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--T", dest="final_time", type=float, default=None)
    return parser


def config_from_args(args):
    file_values = {}
    if getattr(args, "config", None):
        try:
            file_values = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ValidationError(f"unreadable config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed config JSON: {exc}") from exc

    def pick(name, default):
        flag = getattr(args, name, None)
        return flag if flag is not None else file_values.get(name, default)

    if not isinstance(file_values, dict):
        raise ValidationError("config file must hold a JSON object")
    modes = file_values.get("modes", {})
    if not (isinstance(modes, dict)
            and all(isinstance(ab, list) and len(ab) == 2 for ab in modes.values())):
        raise ValidationError("config modes must map k to [a_k, b_k]")
    if getattr(args, "mode", None):
        modes = dict(_parse_mode(m) for m in args.mode)

    times = file_values.get("times", [])
    if getattr(args, "times", None):
        times = _parse_times(args.times)

    outdir = pick("outdir", os.environ.get("LEGENDREFLOW_OUTDIR", "."))
    try:
        config = RunConfig(
            command=args.command,
            n=int(pick("n", 1)),
            a0=float(pick("a0", 0.0)),
            modes={int(k): (float(a), float(b)) for k, (a, b) in modes.items()},
            curve=pick("curve", None),
            m=pick("m", None),
            c1=pick("c1", None),
            c2=float(pick("c2", 0.0)),
            times=[float(t) for t in times],
            samples=int(pick("samples", 512)),
            outdir=outdir,
            catalog=bool(getattr(args, "catalog", False) or file_values.get("catalog", False)),
            equation=pick("equation", "beta"),
            scheme=pick("scheme", "crank_nicolson"),
            dt=float(pick("dt", 1e-3)),
            final_time=float(pick("final_time", 0.25)),
        )
        if config.m is not None:
            config.m = int(config.m)
        if config.c1 is not None:
            config.c1 = float(config.c1)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed config value: {exc}") from exc
    config.validate()
    return config


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        # overflow shows as a non-finite value, which the writers refuse
        with np.errstate(all="ignore"):
            return _emit(config, *_COMMANDS[args.command](config))
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except LegendreFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
