"""End-to-end CLI runs: exit codes, artifacts, manifests, determinism."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legendreflow
from conftest import csv_writer_curve, per_point_render_svg
from legendreflow import spectral
from legendreflow.cli import MAX_MODE, MAX_PROFILE_FREQUENCY, MAX_SAMPLES, main
from legendreflow.curveio import (
    CurveSamples,
    Table,
    check_artifact,
    read_curve_csv,
    render_svg,
    sha256_of,
    write_artifact,
    write_curve_csv,
    write_json,
    write_table,
)
from legendreflow.curves import (
    LegendreCurvature,
    LegendreCurve,
    curvature_from_samples,
    uniform_grid,
)
from legendreflow.errors import InvariantViolationError, ValidationError
from legendreflow.spectral import SpectralBeta, evolve_beta, reconstruct_centered_curve


def run(argv):
    return main(argv)


class TestSimulate:
    def test_snapshots_and_manifest(self, tmp_path):
        code = run(["simulate", "--n", "1", "--mode", "2:1",
                    "--times", "0,0.5,1", "--outdir", str(tmp_path)])
        assert code == 0
        for idx in range(3):
            assert (tmp_path / f"flow_{idx:03d}.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {f"flow_{i:03d}.csv" for i in range(3)}
        for name, digest in manifest["outputs"].items():
            assert sha256_of(tmp_path / name) == digest

    def test_snapshot_round_trip(self, tmp_path):
        run(["simulate", "--n", "1", "--mode", "2:1", "--times", "0.5",
             "--outdir", str(tmp_path)])
        curve, extras = read_curve_csv(tmp_path / "flow_000.csv")
        assert extras["t"] == 0.5
        assert curve.grid_size == 512
        expected = np.exp(-3.0 * 0.5) * np.cos(2 * curve.grid)
        assert np.max(np.abs(extras["beta"] - expected)) < 1e-12

    def test_transform_budget(self, tmp_path, fft_calls):
        # one forward FFT certifies the reconstructed curve for all three
        # times; one inverse FFT reconstructs it and each time takes two
        code = run(["simulate", "--n", "1", "--mode", "2:1", "--mode", "3:0.2",
                    "--times", "0.1,0.5,1.0", "--outdir", str(tmp_path)])
        assert code == 0
        assert sorted(fft_calls) == ["fft"] + ["ifft"] * 7

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            run(["simulate", "--n", "1", "--mode", "2:1", "--times", "0,1",
                 "--outdir", str(tmp_path / sub)])
        for name in ("flow_000.csv", "flow_001.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_conflicting_sources_rejected(self, tmp_path):
        code = run(["simulate", "--mode", "2:1",
                    "--curve", str(tmp_path / "missing.csv"),
                    "--outdir", str(tmp_path)])
        assert code == 2


class TestSelfSimilar:
    def test_single_profile(self, tmp_path):
        code = run(["self-similar", "--n", "1", "--m", "2", "--c1", "1.5",
                    "--outdir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "profile_n1_m2.csv").exists()
        svg = (tmp_path / "profile_n1_m2.svg").read_text()
        assert svg.startswith("<?xml") and "<polygon" in svg

    def test_catalog(self, tmp_path):
        code = run(["self-similar", "--catalog", "--outdir", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "catalog.json").read_text())
        assert len(rows) == 12
        by_key = {(r["n"], r["m"]): r for r in rows}
        assert by_key[(1, 3)]["lap_count"] == 2
        assert by_key[(1, 3)]["cusp_count"] == 3
        assert by_key[(1, 2)]["cusp_count"] == 4
        for r in rows:
            assert (tmp_path / r["svg"]).exists()
            assert (tmp_path / r["csv"]).exists()

    def test_m_equals_n_rejected(self, tmp_path):
        code = run(["self-similar", "--n", "1", "--m", "1", "--c1", "1",
                    "--outdir", str(tmp_path)])
        assert code == 2

    def test_missing_parameters_rejected(self, tmp_path):
        code = run(["self-similar", "--n", "1", "--outdir", str(tmp_path)])
        assert code == 2


class TestReparam:
    def test_normalizes_warped_circle(self, tmp_path):
        u = uniform_grid(512)
        psi = u + 0.3 * np.sin(u)
        nu = np.stack([np.sin(psi), -np.cos(psi)], axis=-1)
        src = tmp_path / "warped.csv"
        write_curve_csv(src, LegendreCurve(positions=nu, normals=nu))
        code = run(["reparam", "--curve", str(src), "--outdir", str(tmp_path)])
        assert code == 0
        out, extras = read_curve_csv(tmp_path / "normalized.csv")
        assert np.max(np.abs(extras["ell"] - 1.0)) < 1e-4

    def test_missing_file_rejected(self, tmp_path):
        code = run(["reparam", "--curve", str(tmp_path / "nope.csv"),
                    "--outdir", str(tmp_path)])
        assert code == 2


class TestCusps:
    def test_two_mode_series(self, tmp_path):
        code = run(["cusps", "--n", "1", "--a0", "0.01", "--mode", "2:1",
                    "--times", "0.5,2.0", "--outdir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "zero_counts.csv").read_text().strip().splitlines()
        assert lines[0] == "t,z,events"
        assert lines[1].split(",")[1] == "4"
        assert lines[2].split(",")[1] == "0"
        report = json.loads((tmp_path / "cusp_report.json").read_text())
        assert len(report["events"]) == 1
        assert abs(report["events"][0]["t_event"] - np.log(100.0) / 4.0) < 1e-3
        certificate = report["events"][0]["certificate"]
        assert certificate["kind"] == "fold"
        assert 0.0 < certificate["radius"] < 1e-12 and 0.0 <= certificate["residual"] < 1e-12

    def test_certificate_of_a_pure_mode(self, tmp_path):
        code = run(["cusps", "--mode", "2:1", "--outdir", str(tmp_path)])
        assert code == 0
        series = json.loads((tmp_path / "cusp_report.json").read_text())["series"]
        assert len(series) == 30
        for entry in series:
            assert entry["count"] == 4
            assert entry["certificate"] == {"mode": 2, "margin": 1.0}

    def test_no_certificate_while_modes_compete(self, tmp_path):
        code = run(["cusps", "--a0", "0.01", "--mode", "2:1", "--mode", "3:1",
                    "--times", "0.01", "--outdir", str(tmp_path)])
        assert code == 0
        [entry] = json.loads((tmp_path / "cusp_report.json").read_text())["series"]
        assert entry["certificate"] is None
        assert entry["count"] == 4

    @given(st.integers(1, 3),
           st.dictionaries(st.integers(1, 12),
                           st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), max_size=12),
           st.floats(1e-12, 1e3),
           st.lists(st.floats(0.0, 1e308), min_size=1, max_size=4, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_fuzz_exit_codes_and_finite_json(self, n, modes, scale, times):
        # magnitudes up to 1e3: coefficients in [-1, 1] times scale
        argv = ["cusps", "--n", str(n), "--times", ",".join(map(repr, sorted(times)))]
        for k, (a, b) in modes.items():
            argv += ["--mode", f"{k}:{a * scale!r}:{b * scale!r}"]

        def refuse(constant):
            raise ValueError(f"non-finite {constant} written")

        with tempfile.TemporaryDirectory() as outdir:
            code = run(argv + ["--outdir", outdir])
            assert code in (0, 2, 3)
            for path in Path(outdir).rglob("*.json"):
                json.loads(path.read_text(), parse_constant=refuse)


@functools.cache
def _valid_curve_rows():
    """Header and rows of a 64-sample curve CSV with beta, ell and t columns."""
    s = SpectralBeta.from_modes(1, a0=0.05, modes={2: (1.0, -0.3), 3: (0.2, 0.1)})
    curve = reconstruct_centered_curve(s, 64)
    curvature = LegendreCurvature(ell=np.ones(64), beta=evolve_beta(s, 0.0, curve.grid))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_curve_csv(Path(tmp) / "c.csv", curve, curvature, t=0.0)
        return [line.split(",") for line in path.read_text().splitlines()]


def _finite_artifacts(outdir):
    def refuse(constant):
        raise ValueError(f"non-finite {constant} written")

    for path in Path(outdir).rglob("*.json"):
        json.loads(path.read_text(), parse_constant=refuse)
    for path in Path(outdir).rglob("*.csv"):
        values = [float(v) for line in path.read_text().splitlines()[1:]
                  for v in line.split(",")]
        assert np.isfinite(values).all(), path.name


def _run_fuzzed(argv, outdir):
    """Run one command in-process: exit code 0, 2 or 3, no traceback, no
    file written when the input is refused (2), only finite artifacts."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv + ["--outdir", str(outdir)])
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert not [p for p in Path(outdir).rglob("*") if p.is_file()], argv
    _finite_artifacts(outdir)
    for path in Path(outdir).rglob("*.svg"):
        assert "nan" not in path.read_text() and "inf" not in path.read_text(), path.name
    return code


# Values of the wrong type or out of every range; text has no digits, so no
# junk value parses as a size or step that would make a run take long
_JUNK = st.one_of(st.none(), st.booleans(), st.text("ab ,:-", max_size=3),
                  st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=1),
                  st.sampled_from([float("inf"), float("-inf"), float("nan")]))
_AMPLITUDE = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-320, 1e300, -1e308]))


class TestInputFuzz:
    """self-similar parameters, oracle-check grids and config files: every
    input exits 0, 2 or 3 with finite artifacts and no traceback."""

    @given(st.integers(-1, 4), st.integers(-1, 9), _AMPLITUDE, _AMPLITUDE,
           st.integers(0, 600))
    @settings(max_examples=30, deadline=None)
    def test_self_similar_parameters(self, n, m, c1, c2, samples):
        with tempfile.TemporaryDirectory() as tmp:
            _run_fuzzed(["self-similar", "--n", str(n), "--m", str(m), f"--c1={c1!r}",
                         f"--c2={c2!r}", "--samples", str(samples)], tmp)

    @given(st.sampled_from(["beta", "phi"]), st.sampled_from(["explicit_euler", "crank_nicolson"]),
           st.integers(1, 3), st.integers(0, 80),
           st.one_of(st.floats(1e-3, 2.0), st.sampled_from([0.0, -1e-3, 1e300])),
           st.one_of(st.floats(-0.5, 1.0), st.sampled_from([0.0, 1e-12])))
    @settings(max_examples=30, deadline=None)
    def test_oracle_check_grids(self, equation, scheme, n, samples, dt, final_time):
        with tempfile.TemporaryDirectory() as tmp:
            _run_fuzzed(["oracle-check", "--equation", equation, "--scheme", scheme,
                         "--n", str(n), "--mode", f"{n + 1}:1", "--samples", str(samples),
                         f"--dt={dt!r}", f"--T={final_time!r}"], tmp)

    @given(st.sampled_from(["simulate", "self-similar", "reparam", "cusps", "converge",
                            "oracle-check"]),
           st.fixed_dictionaries({}, optional={
               "n": st.one_of(st.integers(-1, 4), _JUNK),
               "a0": st.one_of(_AMPLITUDE, _JUNK),
               "modes": st.one_of(
                   st.dictionaries(st.sampled_from(["0", "1", "2", "3", "5", "-1", "x",
                                                    str(MAX_MODE + 1)]),
                                   st.one_of(st.lists(_AMPLITUDE, min_size=2, max_size=2),
                                             _JUNK), max_size=3),
                   _JUNK),
               "curve": _JUNK,
               "m": st.one_of(st.integers(-1, 5), _JUNK),
               "c1": st.one_of(_AMPLITUDE, _JUNK),
               "c2": st.one_of(_AMPLITUDE, _JUNK),
               "times": st.one_of(st.lists(st.floats(-1.0, 20.0), max_size=3), _JUNK),
               "samples": st.one_of(st.integers(0, 80), st.just(MAX_SAMPLES + 1), _JUNK),
               "catalog": st.booleans(),
               "equation": st.one_of(st.sampled_from(["beta", "phi"]), _JUNK),
               "scheme": st.one_of(st.sampled_from(["explicit_euler", "crank_nicolson"]), _JUNK),
               "dt": st.one_of(st.floats(1e-3, 1.0), _JUNK),
               "final_time": st.one_of(st.floats(-0.5, 1.0), _JUNK),
           }))
    @settings(max_examples=40, deadline=None)
    def test_config_files(self, command, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            _run_fuzzed([command, "--config", str(path)], Path(tmp) / "out")


class TestCurveInputFuzz:
    @given(st.sampled_from(["word", "nan", "inf", "-inf", "empty", "padded",
                            "extra-cell", "missing-cell", "drop-row", "duplicate-row"]),
           st.integers(0, 63), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_fuzz_exit_codes_and_finite_artifacts(self, kind, row, col):
        rows = [list(r) for r in _valid_curve_rows()]
        cells = rows[1 + row]
        corrupt = {"word": "abc", "nan": "nan", "inf": "inf", "-inf": "-inf", "empty": "",
                   "padded": f"  {cells[col]} "}
        if kind in corrupt:
            cells[col] = corrupt[kind]
        elif kind == "extra-cell":
            cells.append("0.0")
        elif kind == "missing-cell":
            del cells[col]
        elif kind == "drop-row":
            del rows[1 + row]
        else:
            rows.insert(1 + row, list(cells))
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "in.csv"
            src.write_text("".join(",".join(r) + "\r\n" for r in rows), newline="")
            for argv in (["reparam"], ["simulate", "--times", "0,0.5"],
                         ["cusps", "--times", "0.1,0.5,1"], ["converge"]):
                outdir = Path(tmp) / argv[0]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = run(argv + ["--curve", str(src), "--outdir", str(outdir)])
                assert code in (0, 2, 3), (argv, code, err.getvalue())
                assert "Traceback" not in err.getvalue()
                if code != 0:
                    assert not outdir.exists()
                _finite_artifacts(outdir)


class TestConverge:
    def test_two_mode_rate(self, tmp_path):
        code = run(["converge", "--n", "1", "--mode", "2:1", "--mode", "4:0.1",
                    "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "convergence.json").read_text())
        assert report["predicted_rate"] == -12.0
        assert abs(report["fitted_rate"] + 12.0) < 0.12
        assert report["leading_mode"] == 2


class TestOracleCheck:
    def test_beta_equation(self, tmp_path):
        code = run(["oracle-check", "--equation", "beta", "--n", "1",
                    "--mode", "2:1", "--samples", "256", "--dt", "1e-3",
                    "--T", "0.25", "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        assert report["error"] < 5e-5
        assert report["observed_order"] >= 1.9

    def test_phi_equation(self, tmp_path):
        code = run(["oracle-check", "--equation", "phi", "--samples", "128",
                    "--dt", "2e-4", "--T", "1.0", "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "oracle_check.json").read_text())
        assert report["gradient_bounds_ok"]
        assert report["winding_ok"]
        assert "scheme" not in report  # phi is always stepped explicitly

    def test_phi_defaults_rejected_up_front(self, tmp_path, capsys):
        # N = 512, dt = 1e-3: far above the explicit bound du^2 min(l^2 phi_u^2)/2
        outdir = tmp_path / "out"
        code = run(["oracle-check", "--equation", "phi", "--outdir", str(outdir)])
        assert code == 2
        assert "dt <=" in capsys.readouterr().err
        assert not outdir.exists()


class TestCurveIO:
    def test_round_trip_preserves_bits(self, tmp_path):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, -0.3)})
        curve = reconstruct_centered_curve(s, 128)
        curvature = curvature_from_samples(curve)
        path = write_curve_csv(tmp_path / "c.csv", curve, curvature, t=np.log(3.0))
        loaded, extras = read_curve_csv(path)
        assert np.array_equal(loaded.positions, curve.positions)
        assert np.array_equal(loaded.normals, curve.normals)
        assert np.array_equal(extras["beta"], curvature.beta)
        assert np.array_equal(extras["ell"], curvature.ell)
        assert extras["t"] == np.log(3.0)

    @pytest.mark.parametrize("with_curvature", [False, True], ids=["plain", "curvature"])
    @pytest.mark.parametrize("t", [None, 2.5e-320, -0.0], ids=["no-t", "t-subnormal", "t-zero"])
    def test_writer_bytes_equal_csv_writer(self, tmp_path, with_curvature, t):
        rng = np.random.default_rng(9)
        values = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-320, 300, (40, 6))
        # signed zeros, subnormals, the largest and smallest normals, thirds
        specials = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308,
                    1.7976931348623157e308, 1.0 / 3.0, 0.1, -1.0, 123456789.0]
        values.ravel()[::3][: len(specials)] = specials
        curve = LegendreCurve(positions=values[:, :2], normals=values[:, 2:4])
        curvature = (LegendreCurvature(ell=values[:, 4], beta=values[:, 5])
                     if with_curvature else None)
        new = write_curve_csv(tmp_path / "new.csv", curve, curvature, t=t)
        ref = csv_writer_curve(tmp_path / "ref.csv", curve, curvature, t=t)
        assert new.read_bytes() == ref.read_bytes()
        assert b"-0.0," in ref.read_bytes() and b"5e-324" in ref.read_bytes()

    def test_malformed_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0,0\n")
        with pytest.raises(ValidationError):
            read_curve_csv(bad)

    def test_svg_is_deterministic(self):
        u = uniform_grid(64)
        pts = np.stack([np.cos(u), np.sin(u)], axis=-1)
        assert render_svg(pts) == render_svg(pts)

    # at 1e11 one ulp (about 1.5e-5) shows in the sixth decimal
    @pytest.mark.parametrize("scale", [1.0, 1e-7, 3e5, 1e11])
    def test_svg_bytes_equal_per_point_reference(self, scale):
        u = uniform_grid(257)
        pts = scale * np.stack([np.cos(u) + 0.3 * np.cos(2 * u),
                                np.sin(u) - 0.2 * np.sin(3 * u) - 7.0], axis=-1)
        assert render_svg(pts).encode() == per_point_render_svg(pts).encode()

    def test_svg_rejects_point(self):
        with pytest.raises(ValidationError):
            render_svg(np.zeros((10, 2)))


class TestNonFiniteOutput:
    """Overflow ends in exit code 3 with no file, no traceback and no warning."""

    @pytest.mark.parametrize("argv", [
        # lambda_1 = 3/4 for n = 2: e^{750} overflows, the positions turn NaN
        ["simulate", "--n", "2", "--mode", "1:1", "--times", "1000"],
        # a finite first snapshot is not written either
        ["simulate", "--n", "2", "--mode", "1:1", "--times", "0,1000"],
        # e^{711} times the scaled slope overflows to an infinite dbeta
        ["cusps", "--n", "3", "--mode", "1:1", "--times", "800"],
        # lambda_2 t = -3e308 overflows before the companion matrix is built
        ["cusps", "--n", "1", "--mode", "2:1", "--times", "1e308"],
        # the profile is finite, but its SVG extent (and 640 times it) overflows
        ["self-similar", "--n", "1", "--m", "2", "--c1", "1e308"],
        ["self-similar", "--n", "1", "--m", "0", "--c1", "1e308"],
        # the exact beta at T = 1000 overflows, so the report would hold NaN
        ["oracle-check", "--mode", "2:1", "--samples", "8", "--dt=0.1", "--T=1000"],
    ], ids=["simulate", "simulate-series", "cusps", "cusps-exponent", "self-similar-width",
            "self-similar-circle", "oracle-check"])
    def test_refused_with_exit_3(self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv + ["--outdir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("invariant violation:") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_json_writer_refuses_nan(self, tmp_path):
        with pytest.raises(InvariantViolationError):
            write_json(tmp_path / "x.json", {"a": [1.0, float("inf")]})
        assert not (tmp_path / "x.json").exists()

    def test_csv_writer_refuses_nan(self, tmp_path):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, -0.3)})
        curve = reconstruct_centered_curve(s, 16)
        beta = np.full(16, np.nan)
        with pytest.raises(InvariantViolationError):
            write_curve_csv(tmp_path / "c.csv", curve, LegendreCurvature(np.ones(16), beta))
        with pytest.raises(InvariantViolationError):
            write_curve_csv(tmp_path / "c.csv", curve, t=float("nan"))
        assert not (tmp_path / "c.csv").exists()

    def test_checked_artifacts_are_refused_or_written_as_is(self, tmp_path):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, -0.3)})
        curve = reconstruct_centered_curve(s, 16)
        curvature = LegendreCurvature(np.ones(16), np.linspace(-1.0, 1.0, 16))
        # a curve is stacked once, by the check; its bytes are write_curve_csv's
        checked = check_artifact("a.csv", CurveSamples(curve, curvature, 0.25))
        assert isinstance(checked, Table)
        write_artifact(tmp_path / "a.csv", checked)
        write_curve_csv(tmp_path / "b.csv", curve, curvature, 0.25)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # a table's rows are written as given: an int stays an int
        counts = Table(["t", "z"], [[0.5, 3], [1.0, 1]])
        write_artifact(tmp_path / "z.csv", check_artifact("z.csv", counts))
        assert (tmp_path / "z.csv").read_bytes() == b"t,z\r\n0.5,3\r\n1.0,1\r\n"
        for bad in (Table(["t", "z"], [[0.5, float("nan")]]),
                    Table(["t"], np.array([[np.inf]])),
                    CurveSamples(curve, curvature, float("inf"))):
            with pytest.raises(InvariantViolationError):
                check_artifact("x.csv", bad)
            with pytest.raises(InvariantViolationError):
                write_table(tmp_path / "x.csv", *(bad.table() if isinstance(bad, CurveSamples)
                                                  else bad))
        assert not (tmp_path / "x.csv").exists()


class TestManifest:
    @pytest.mark.parametrize("argv, code", [
        (["simulate", "--n", "1", "--mode", "2:1", "--times", "0,0.5"], 0),
        (["self-similar", "--n", "1", "--m", "2", "--c1", "1.5"], 0),
        (["self-similar", "--catalog"], 0),
        (["reparam", "--curve", "warped.csv"], 0),
        (["cusps", "--n", "1", "--a0", "0.01", "--mode", "2:1"], 0),
        (["converge", "--n", "1", "--mode", "2:1", "--mode", "4:0.1"], 0),
        (["oracle-check", "--equation", "beta", "--n", "1", "--mode", "2:1",
          "--samples", "256"], 0),
        # a failed verdict still writes its report and manifest
        (["oracle-check", "--equation", "beta", "--n", "2", "--mode", "3:0.2"], 3),
    ], ids=["simulate", "self-similar", "catalog", "reparam", "cusps", "converge",
            "oracle-check", "oracle-check-failed"])
    def test_lists_every_output_with_its_checksum(self, tmp_path, argv, code):
        u = uniform_grid(256)
        nu = np.stack([np.sin(u + 0.3 * np.sin(u)), -np.cos(u + 0.3 * np.sin(u))], axis=-1)
        write_curve_csv(tmp_path / "warped.csv", LegendreCurve(positions=nu, normals=nu))
        argv = [str(tmp_path / a) if a == "warped.csv" else a for a in argv]
        outdir = tmp_path / "out"
        assert run(argv + ["--outdir", str(outdir)]) == code
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {p.name for p in outdir.iterdir()} - {"manifest.json"}
        for name, digest in manifest["outputs"].items():
            assert sha256_of(outdir / name) == digest


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ["cusps", "--times", "nan"],
        ["simulate", "--times", "nan"],
        ["simulate", "--times", "0,inf"],
        ["simulate", "--mode", "2:inf"],
        ["simulate", "--a0", "nan"],
        ["oracle-check", "--mode", "2:1", "--dt", "nan"],
    ], ids=["cusps-times", "simulate-times", "simulate-inf-time", "simulate-mode",
            "simulate-a0", "oracle-dt"])
    def test_rejected_with_exit_2(self, tmp_path, capsys, argv):
        code = run(argv + ["--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMalformedInput:
    @pytest.mark.parametrize("argv, config, named", [
        (["simulate", "--mode", "2:1", "--samples", "0"], None, "--samples"),
        (["simulate", "--mode", "2:1", "--samples", "3"], None, "--samples"),
        (["simulate"], {"modes": {"2": 1.0}}, "config modes"),
        # a two-character string would unpack as a_k, b_k
        (["simulate"], {"modes": {"2": "12"}}, "config modes"),
        (["simulate"], [{"modes": {"2": [1.0, 0.0]}}], "config file"),
        # sizes one above their limits, refused before anything is allocated
        (["simulate", "--mode", "2:1", "--samples", str(MAX_SAMPLES + 1)], None, "--samples"),
        (["cusps", "--mode", f"{MAX_MODE + 1}:1"], None, "mode indices"),
        (["self-similar", "--n", "1", "--m", str(MAX_PROFILE_FREQUENCY), "--c1", "1"], None,
         "n + m"),
    ], ids=["samples-0", "samples-3", "config-mode-scalar", "config-mode-string",
            "config-list", "samples-limit", "mode-limit", "profile-limit"])
    def test_rejected_with_exit_2(self, tmp_path, capsys, argv, config, named):
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / "config.json")]
        code = run(argv + ["--outdir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cell", [b"abc", b"", b"nan", b"0.5\xff"],
                             ids=["non-numeric", "empty", "nan", "undecodable"])
    def test_curve_cell_rejected_with_exit_2(self, tmp_path, capsys, cell):
        # the cell lands in the x column; read_curve_csv refuses it for every command
        src = tmp_path / "curve.csv"
        curve = reconstruct_centered_curve(SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)}), 64)
        write_curve_csv(src, curve)
        lines = src.read_bytes().splitlines()
        cells = lines[5].split(b",")
        cells[1] = cell
        lines[5] = b",".join(cells)
        src.write_bytes(b"\n".join(lines) + b"\n")
        for command in ("reparam", "simulate", "cusps", "converge"):
            outdir = tmp_path / command
            code = run([command, "--curve", str(src), "--outdir", str(outdir)])
            assert code == 2, command
            err = capsys.readouterr().err
            assert "curve.csv" in err and "Traceback" not in err
            assert not outdir.exists()

    def test_curve_over_the_sample_limit_rejected_with_exit_2(self, tmp_path, capsys,
                                                                monkeypatch):
        # N samples project onto K = N/2 - 1 modes; at N = MAX_SAMPLES + 1
        # analyze_beta would build two dense K x N matrices, about 34 GB
        def projection(*args):
            raise AssertionError("the projection ran")

        monkeypatch.setattr(spectral, "analyze_beta", projection)
        src = tmp_path / "curve.csv"
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        write_curve_csv(src, reconstruct_centered_curve(s, MAX_SAMPLES + 1))
        for command in ("cusps", "simulate", "converge", "reparam"):
            outdir = tmp_path / command
            code = run([command, "--curve", str(src), "--outdir", str(outdir)])
            assert code == 2, command
            err = capsys.readouterr().err
            assert f"at most {MAX_SAMPLES} samples" in err and "Traceback" not in err
            assert not outdir.exists()

    @pytest.mark.parametrize("config", [
        {"n": float("inf")}, {"samples": float("inf")}, {"m": float("inf"), "c1": 1.0},
        {"outdir": 5}, {"curve": 5}, {"equation": "psi"}, {"scheme": ["crank_nicolson"]},
    ], ids=["n-inf", "samples-inf", "m-inf", "outdir-int", "curve-int", "equation",
            "scheme-list"])
    def test_config_value_rejected_with_exit_2(self, tmp_path, capsys, config):
        # these ended in OverflowError and TypeError tracebacks
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = ["simulate", "--mode", "2:1", "--config", str(tmp_path / "config.json")]
        if "outdir" not in config:
            argv += ["--outdir", str(tmp_path / "out")]
        code = run(argv)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("final_time", ["0", "-1"])
    def test_oracle_check_needs_a_positive_time(self, tmp_path, final_time):
        # no step is taken, so the observed order was rounding noise and exit 3
        code = run(["oracle-check", "--mode", "2:1", "--samples", "16", f"--T={final_time}",
                    "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_samples_must_resolve_the_initial_curve(self, tmp_path, capsys):
        # n + K = 6 needs 13 points; 12 was reported as an inconsistent curve
        code = run(["simulate", "--n", "1", "--mode", "5:1", "--samples", "12",
                    "--outdir", str(tmp_path / "out")])
        assert code == 2 and "--samples" in capsys.readouterr().err
        assert run(["simulate", "--n", "1", "--mode", "5:1", "--samples", "13",
                    "--outdir", str(tmp_path / "out")]) == 0


def _fresh(code, *args):
    """The last stdout line of `python -c code args` as JSON, run in a fresh
    interpreter on this checkout's sources."""
    src = str(Path(legendreflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _warped_curve(path):
    u = uniform_grid(256)
    psi = u + 0.3 * np.sin(u)
    nu = np.stack([np.sin(psi), -np.cos(psi)], axis=-1)
    write_curve_csv(path, LegendreCurve(positions=nu, normals=nu))
    return str(path)


def _flow_curve(path):
    """A closed curve CSV with its beta column: beta_0 = cos 2u, n = 1."""
    s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
    state = spectral.evolve_curve(s, reconstruct_centered_curve(s, 64), 0.0)
    write_curve_csv(path, state.curve, state.curvature)
    return str(path)


def test_beta_column_skips_the_sampled_curvature(tmp_path, monkeypatch):
    # a --curve CSV's beta column is beta_0; the curvature of the samples is
    # computed only for a file without one
    from legendreflow import cli

    monkeypatch.setattr(cli, "curvature_from_samples",
                        lambda curve: pytest.fail("sampled curvature computed"))
    assert run(["simulate", "--curve", _flow_curve(tmp_path / "flow.csv"), "--times", "0.5",
                "--outdir", str(tmp_path / "out")]) == 0


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize alone costs about a third of a second of start-up
    code = "import json, sys, legendreflow.cli; print(json.dumps('scipy.optimize' in sys.modules))"
    assert _fresh(code) is False


def test_no_command_loads_scipy(tmp_path):
    # every command runs on numpy alone; scipy is only a test dependency
    commands = [
        ["simulate", "--n", "1", "--mode", "2:1", "--times", "0,0.5"],
        ["self-similar", "--catalog"],
        ["cusps", "--n", "1", "--a0", "0.01", "--mode", "2:1"],
        ["converge", "--n", "1", "--mode", "2:1", "--mode", "4:0.1"],
        ["reparam", "--curve", _warped_curve(tmp_path / "warped.csv")],
        ["oracle-check", "--equation", "beta", "--n", "1", "--mode", "2:1",
         "--samples", "256", "--dt", "1e-3", "--T", "0.25"],
        ["oracle-check", "--equation", "phi", "--samples", "128", "--dt", "2e-4",
         "--T", "0.2"],
    ]
    code = (
        "import json, sys\n"
        "from legendreflow.cli import main\n"
        "codes = [main(argv + ['--outdir', f'{sys.argv[1]}/{i}'])\n"
        "         for i, argv in enumerate(json.loads(sys.argv[2]))]\n"
        "print(json.dumps({'codes': codes,\n"
        "                  'scipy': sorted(m for m in sys.modules if m.startswith('scipy'))}))\n")
    result = _fresh(code, str(tmp_path), json.dumps(commands))
    assert result["codes"] == [0] * len(commands)
    assert result["scipy"] == []


#: The layers that only the command which needs one loads.
LAYERS = ("asymptotics", "cusps", "fd", "reparam", "selfsimilar")


def test_package_import_loads_no_submodule():
    code = ("import json, sys, legendreflow\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('legendreflow.'))))")
    assert _fresh(code) == []


@pytest.mark.parametrize("argv, layer", [
    (["simulate", "--n", "1", "--mode", "2:1", "--times", "0,0.5"], None),
    (["simulate", "--curve", "{flow}", "--times", "0.5"], None),
    (["self-similar", "--n", "1", "--m", "2", "--c1", "1.5"], "selfsimilar"),
    (["self-similar", "--catalog"], "selfsimilar"),
    (["reparam", "--curve", "{curve}"], "reparam"),
    (["cusps", "--n", "1", "--a0", "0.01", "--mode", "2:1"], "cusps"),
    (["converge", "--n", "1", "--mode", "2:1", "--mode", "4:0.1"], "asymptotics"),
    (["oracle-check", "--equation", "beta", "--n", "1", "--mode", "2:1",
      "--samples", "256", "--dt", "1e-3", "--T", "0.25"], "fd"),
    (["oracle-check", "--equation", "phi", "--samples", "64", "--dt", "1e-3", "--T", "0.01"],
     "fd"),
])
def test_command_loads_only_its_own_layer(tmp_path, argv, layer):
    curve = _warped_curve(tmp_path / "warped.csv")
    flow = _flow_curve(tmp_path / "flow.csv")
    argv = [arg.format(curve=curve, flow=flow) for arg in argv]
    argv += ["--outdir", str(tmp_path / "out")]
    script = ("import json, sys\n"
              "from legendreflow.cli import main\n"
              "code = main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.startswith('legendreflow.'))]))")
    code, loaded = _fresh(script, json.dumps(argv))
    assert code == 0
    assert [m for m in LAYERS if f"legendreflow.{m}" in loaded] == ([layer] if layer else [])
