"""Zero tracking, classification, monotone counts and decrease events."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    per_time_reports,
    bisection_strict_decrease,
    companion_zeros,
    degenerate_zero_near,
    evolved_rows,
    grid_zero_count,
    matrix_fold_boxes,
    no_eigensolve,
    random_closed_spectral,
    rolle_cells,
    sampled_sup,
)
from legendreflow import cusps
from legendreflow.cli import main
from legendreflow.cusps import (
    detect_strict_decrease,
    find_zeros,
    zero_count_series,
)
from legendreflow.errors import InvariantViolationError, ValidationError
from legendreflow.spectral import (SpectralBeta, _derivatives, _finite_rows, _row, _rows, _weights,
                                   evolve_beta)


class TestFindZeros:
    def test_pure_mode_roots(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        report = find_zeros(s, 0.5)
        expected = np.array([np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4])
        locs = np.array([z.location for z in report.zeros])
        assert report.count == 4
        assert np.max(np.abs(locs - expected)) < 1e-10
        assert all(z.kind == "simple_cusp" for z in report.zeros)

    def test_positive_constant_has_no_zeros(self):
        s = SpectralBeta.from_modes(1, a0=1.0)
        assert find_zeros(s, 0.3).count == 0

    def test_tangential_zero_classified_degenerate(self):
        # beta(u) = 1 - cos u touches zero at u = 0 with vanishing derivative;
        # u = 0 ends two cells, which count it once, beta above 0 or below
        for sign in (1.0, -1.0):
            s = SpectralBeta.from_modes(2, a0=sign, modes={1: (-sign, 0.0)})
            report = find_zeros(s, 0.0)
            assert report.count == 1
            z = report.zeros[0]
            assert min(z.location, 2 * np.pi - z.location) < 1e-6
            assert z.kind == "degenerate"

    @pytest.mark.parametrize("delta, kind, slope", [
        (1e-10, "simple_cusp", 1e-10), (0.0, "degenerate", 0.0)])
    def test_kind_from_the_certificate(self, delta, kind, slope):
        # beta_0 = delta sin u + sin^3 u: simple zeros of slope +-delta at 0
        # and pi, far below any sampled threshold, or triple zeros at delta = 0
        s = SpectralBeta.from_modes(2, modes={1: (0.0, 0.75 + delta), 3: (0.0, -0.25)})
        report = find_zeros(s, 0.0)
        assert [z.kind for z in report.zeros] == [kind, kind]
        for z, sign in zip(report.zeros, (1.0, -1.0)):
            assert abs(z.derivative - sign * slope) <= 1e-15

    def test_quadruple_zero_refused(self):
        # beta_0 = (1 - cos u)^2 = 3/2 - 2 cos u + cos(2u)/2 has a quadruple
        # zero at u = 0, which no derivative up to ROLLE_ORDER isolates
        s = SpectralBeta.from_modes(3, a0=1.5, modes={1: (-2.0, 0.0), 2: (0.5, 0.0)})
        with pytest.raises(InvariantViolationError, match="higher multiplicity"):
            find_zeros(s, 0.0)
        with pytest.raises(InvariantViolationError, match="higher multiplicity"):
            cusps._counts(s, [0.0])

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_grid_oracle(self, seed, t):
        s = random_closed_spectral(np.random.default_rng(seed))
        report = find_zeros(s, t)
        # the grid oracle cannot resolve near-tangential zeros
        c, shift = evolved_rows(s, [t])
        scale = np.exp(shift[0]) * sampled_sup(c)[0]
        assume(all(abs(z.derivative) >= 1e-3 * scale for z in report.zeros))
        assert report.count == grid_zero_count(s, t)

    def test_negative_time_rejected(self):
        s = SpectralBeta.from_modes(1, a0=1.0)
        with pytest.raises(ValidationError):
            find_zeros(s, -1.0)

    @pytest.mark.parametrize("call", [
        lambda s: find_zeros(s, np.nan),
        lambda s: find_zeros(s, np.inf),
        lambda s: zero_count_series(s, [1.0, np.inf]),
    ], ids=["find_zeros nan", "find_zeros inf", "series inf"])
    def test_non_finite_time_rejected(self, call):
        # a time that is not finite is the caller's error, not an overflow
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        with pytest.raises(ValidationError, match="finite"):
            call(s)

    def test_overflowed_slope_refused(self, tmp_path, capfd):
        # beta(., 2000) has 4 zeros, but e^{lambda_2 t} = e^{1111} times d_u beta
        # is no double: refused, with nothing printed
        s = SpectralBeta.from_modes(3, 0.0, {2: (1, 0.3), 4: (0.5, 0.0)})
        assert cusps._counts(s, [2000.0]) == [4]
        with pytest.raises(InvariantViolationError, match="slope"):
            find_zeros(s, 2000.0)
        assert capfd.readouterr().err == ""
        code = main(["cusps", "--n", "3", "--mode", "2:1:0.3", "--mode", "4:0.5",
                     "--times", "1,2000", "--outdir", str(tmp_path / "out")])
        assert code == 3
        assert "slope" in capfd.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEvolvedRows:
    """Counts, reports and the fold solve read their rows from one builder,
    spectral._rows, which drops no mode however small."""

    def test_tiny_mode_kept(self):
        # mode 3 at 1e-15 of mode 2 at t = 0, and further below it later
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0), 3: (1e-15, 0.0)})
        for t in (0.0, 1.0):
            rows, shift = evolved_rows(s, [t])
            assert shift[0] == -3.0 * t
            assert rows[0, 3] == 1e-15 * np.exp(-8.0 * t + 3.0 * t)
            assert rows[0, 2] == 1.0
            c, _ = _finite_rows(_row(s), s.eigenvalues(), [t])
            assert c.tobytes() == rows.tobytes()

    def test_jets_divide_the_rows_by_s0(self, rng):
        for _ in range(10):
            s = random_closed_spectral(rng, max_truncation=12)
            u, t = rng.uniform(0.0, 2.0 * np.pi, 5), rng.uniform(0.0, 10.0, 5)
            rows = _rows(_row(s), s.eigenvalues(), t)[0]
            rows /= np.abs(rows).sum(axis=1, keepdims=True)
            values, w = cusps._jets(s, ((0, 0), (1, 0)))(u, t)
            assert w.tobytes() == rows.tobytes()
            assert values.tobytes() == _derivatives(rows, u, _weights(
                rows.shape[1], ((0, 0), (1, 0)), s.eigenvalues())).tobytes()


def _beta0(kind, seed):
    """A beta_0 of acceptance test 05's distribution, a pure mode or two modes."""
    rng = np.random.default_rng(seed)
    if kind == "test05":
        return random_closed_spectral(rng, max_truncation=6)
    n = int(rng.integers(1, 4))
    ks = rng.choice([k for k in range(9) if k != n], size=1 if kind == "pure" else 2,
                    replace=False)
    modes = {int(k): tuple(rng.normal(size=2)) for k in ks}
    a0 = modes.pop(0, (0.0,))[0]
    return SpectralBeta.from_modes(n, a0=a0, modes=modes)


class TestStackedSolve:
    """Counts are settled by the dominant-mode certificate where it holds, by
    the cell certificate elsewhere, and by its Rolle step in the cells the
    halvings leave; no count solves a companion matrix."""

    @given(st.sampled_from(["test05", "pure", "two-mode"]), st.integers(0, 2**32 - 1),
           st.floats(0.0, 5.0))
    @example("two-mode", 6408385, 3.0)  # mode 6 at 2.4e-14 of mode 5: 10 zeros
    @settings(max_examples=80, deadline=None)
    def test_certified_count_is_exact(self, kind, seed, t):
        s = _beta0(kind, seed)
        c, _ = evolved_rows(s, [t])
        mode, margin = cusps._certificates(c)
        exact = companion_zeros(c[0])[0].shape[0]
        assert cusps._counts(s, [t])[0] == exact
        report = find_zeros(s, t)
        if margin[0] <= cusps.CERTIFICATE_MARGIN:
            assert report.certificate is None
            return
        assert report.certificate == (mode[0], margin[0])
        assert exact == 2 * mode[0] == grid_zero_count(s, t)
        assert report.count == 2 * mode[0]
        assert all(z.kind == "simple_cusp" for z in report.zeros)

    @given(st.sampled_from(["test05", "pure", "two-mode"]), st.integers(0, 2**32 - 1),
           st.floats(0.0, 5.0))
    @example("two-mode", 6408385, 3.0)  # mode 6 at 2.4e-14 of mode 5: 10 zeros
    @settings(max_examples=80, deadline=None)
    def test_cell_count_is_exact(self, kind, seed, t):
        s = _beta0(kind, seed)
        c, _ = evolved_rows(s, [t])
        with rolle_cells() as cells:
            [cell] = cusps._cell_zeros(c)[0]
        # zeros closer than a halved cell, which the grid oracle cannot resolve
        assume(not cells)
        assert cell == companion_zeros(c[0])[0].shape[0]
        assert cell == grid_zero_count(s, t)

    def test_fold_left_to_the_rolle_step(self):
        # n = 1: 0.01 e^t + e^{-3t} cos 2u has double zeros at pi/2 and 3 pi/2
        # when 0.01 e^{4t} = 1, which no cell decides: the Rolle step counts
        # each once, pinned to its grid point
        s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
        t_star = np.log(100.0) / 4.0
        c, _ = evolved_rows(s, [t_star])
        assert cusps._certificates(c)[1][0] <= cusps.CERTIFICATE_MARGIN
        with no_eigensolve(), rolle_cells() as cells:
            report = find_zeros(s, t_star)
            count = cusps._counts(s, [t_star])[0]
        assert cells
        assert count == report.count == 2 == companion_zeros(c[0])[0].shape[0]
        assert [z.kind for z in report.zeros] == ["degenerate"] * 2
        assert np.allclose([z.location for z in report.zeros], [np.pi / 2, 3 * np.pi / 2],
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("gap", [1e-9, 1e-12])
    def test_near_fold_zeros_left_to_the_rolle_step(self, gap):
        # the same beta a time gap before t*: each pair of zeros, 2 sqrt(2 gap)
        # apart about pi/2 and 3 pi/2, lies in the two halved cells that end
        # there, and the Rolle step finds both, simple, one on either side
        s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
        t = np.log(100.0) / 4.0 - gap
        with rolle_cells() as cells:
            report = find_zeros(s, t)
        row = evolved_rows(s, [t])[0][0]
        assert cells
        assert report.count == 4 == companion_zeros(row)[0].shape[0]
        assert {z.kind for z in report.zeros} == {"simple_cusp"}
        u = np.array([z.location for z in report.zeros])
        offset = (u - np.pi / 2 * np.array([1, 1, 3, 3])) * np.array([-1, 1, -1, 1])
        assert np.allclose(offset, np.sqrt(2.0 * gap), rtol=1e-3, atol=0.0)
        beta = _derivatives(row, u, _weights(row.shape[0], ((0, 0),)))[:, 0]
        assert np.max(np.abs(beta)) <= 64 * np.finfo(float).eps * np.abs(row).sum()

    def test_series_matches_report_series(self):
        rng = np.random.default_rng(11)
        times = np.geomspace(0.01, 10.0, 30)
        for _ in range(10):
            s = random_closed_spectral(rng, max_truncation=12)
            reports = cusps.report_series(s, times)
            assert zero_count_series(s, times) == [(r.t, r.count) for r in reports]
            assert reports == [find_zeros(s, t) for t in times]

    def test_report_solve_budget(self):
        # acceptance test 05's draws: reports take their zeros from the cells
        # and solve no companion matrix (3,000 rows before the cells)
        rng = np.random.default_rng(777)
        with no_eigensolve():
            for _ in range(100):
                cusps.report_series(random_closed_spectral(rng, max_truncation=6),
                                    np.geomspace(0.01, 10.0, 30))

    @given(st.sampled_from(["test05", "pure", "two-mode"]), st.integers(0, 2**32 - 1),
           st.floats(0.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_reported_zeros_are_polished(self, kind, seed, t):
        # a cell's secant root starts several 1e-3 off its zero: a polish
        # that stalls, such as one that drops steps longer than a limit, leaves
        # |beta| far above rounding there
        s = _beta0(kind, seed)
        row = evolved_rows(s, [t])[0][0]
        u = [z.location for z in find_zeros(s, t).zeros if z.kind == "simple_cusp"]
        assume(u)
        beta = _derivatives(row, u, _weights(row.shape[0], ((0, 0),)))[:, 0]
        assert np.max(np.abs(beta)) <= 64 * np.finfo(float).eps * np.abs(row).sum()

    @pytest.mark.parametrize("kind", ["random", "double zeros", "double zero on the seam"])
    def test_stacked_reports_match_per_time_reports(self, kind):
        # the stacked report sums in another order than the per-time one, so
        # locations and slopes agree to 1e-12, counts, kinds and certificates exactly
        times = np.r_[0.0, np.geomspace(0.01, 10.0, 30)]
        if kind == "random":
            rng = np.random.default_rng(29)
            draws = [random_closed_spectral(rng, max_truncation=12) for _ in range(20)]
        else:   # 1 + cos 2u and 1 - cos 2u: double roots at t = 0, off 0 and at 0
            sign = 1.0 if kind == "double zeros" else -1.0
            draws = [SpectralBeta.from_modes(1, a0=1.0, modes={2: (sign, 0.0)})]
        for s in draws:
            for report, (t, zeros, certificate) in zip(cusps._reports(s, times),
                                                        per_time_reports(s, times), strict=True):
                assert (report.t, report.certificate) == (t, certificate)
                assert [z.kind for z in report.zeros] == [kind for _, _, kind in zeros]
                for z, (u, slope, _) in zip(report.zeros, zeros):
                    assert abs(z.location - u) <= 1e-12
                    assert abs(z.derivative - slope) <= 1e-12 * max(1.0, abs(slope))


class TestZeroCountSeries:
    def test_two_mode_drop(self):
        s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
        series = zero_count_series(s, [0.1, 1.0, 1.3, 2.0])
        assert [z for _, z in series] == [4, 4, 0, 0]

    def test_pure_mode_constant_count(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        series = zero_count_series(s, np.geomspace(0.01, 10.0, 12))
        assert all(z == 4 for _, z in series)

    def test_mean_mode_zero_count(self):
        s = SpectralBeta.from_modes(1, a0=1.0)
        series = zero_count_series(s, [0.5, 1.0, 5.0])
        assert all(z == 0 for _, z in series)

    def test_bad_time_grid_rejected(self):
        s = SpectralBeta.from_modes(1, a0=1.0)
        with pytest.raises(ValidationError):
            zero_count_series(s, [1.0, 0.5])
        with pytest.raises(ValidationError):
            zero_count_series(s, [0.0, 1.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_for_random_data(self, seed):
        rng = np.random.default_rng(seed)
        s = random_closed_spectral(rng, max_truncation=6)
        series = zero_count_series(s, np.geomspace(0.01, 10.0, 12))
        counts = [z for _, z in series]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


class TestDetectStrictDecrease:
    def test_two_mode_event_time(self):
        # 0.01 e^t overtakes e^{-3t} cos 2u when 0.01 e^{4t} = 1
        s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
        series = zero_count_series(s, [0.5, 2.0])
        events = detect_strict_decrease(s, series)
        assert len(events) == 1
        event = events[0]
        assert event.count_before == 4 and event.count_after == 0
        assert abs(event.t_event - np.log(100.0) / 4.0) < 1e-3
        assert abs(event.witness_beta) < 1e-6
        assert abs(event.witness_dbeta) < 1e-6

    def test_pure_mode_has_no_events(self):
        s = SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)})
        series = zero_count_series(s, np.geomspace(0.1, 5.0, 8))
        assert detect_strict_decrease(s, series) == []

    def test_growing_mode_overtakes_decaying_one(self):
        # n = 2: mode 1 grows (rate 3/4), mode 3 decays (rate -5/4); the
        # initial 6 zeros of 0.05 cos u + cos 3u collapse to 2 when
        # 3 - 0.05 e^{2t} hits zero, i.e. t = ln(60)/2
        s = SpectralBeta.from_modes(2, modes={1: (0.05, 0.0), 3: (1.0, 0.0)})
        series = zero_count_series(s, [0.5, 3.0])
        assert [z for _, z in series] == [6, 2]
        events = detect_strict_decrease(s, series)
        # both degenerate zeros (u = pi/2 and 3*pi/2) vanish at the same
        # instant; the detector may split that into two near-coincident events
        assert events[0].count_before == 6 and events[-1].count_after == 2
        for event in events:
            assert abs(event.t_event - np.log(60.0) / 2.0) < 1e-3
        # brute-force count scan around the analytic event time agrees
        t_star = np.log(60.0) / 2.0
        assert find_zeros(s, t_star - 0.01).count == 6
        assert find_zeros(s, t_star + 0.01).count == 2

    def test_witness_is_a_degenerate_zero(self):
        s = SpectralBeta.from_modes(2, modes={1: (0.05, 0.0), 3: (1.0, 0.0)})
        series = zero_count_series(s, [0.5, 3.0])
        event = detect_strict_decrease(s, series)[-1]
        assert abs(event.witness_beta) < 1e-6
        assert abs(event.witness_dbeta) < 1e-6
        # the witness location really is a near-zero of beta at the event time
        val = evolve_beta(s, event.t_event, np.array([event.witness_u]))[0]
        grid = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        scale = np.max(np.abs(evolve_beta(s, event.t_event, grid)))
        assert abs(val) < 1e-4 * scale


class TestLargeTime:
    """beta(., t) = e^{-3t} cos 2u underflows for large t; its 4 zeros stay."""

    @pytest.mark.parametrize("t", ["300", "800"])
    def test_cli_reports_four_zeros(self, tmp_path, t):
        code = main(["cusps", "--n", "1", "--mode", "2:1", "--times", t,
                     "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "cusp_report.json").read_text())
        assert [entry["count"] for entry in report["series"]] == [4]
        locs = [z["u"] for z in report["series"][0]["zeros"]]
        assert np.max(np.abs(np.array(locs) - np.pi / 4 * np.array([1, 3, 5, 7]))) < 1e-12


class TestTinyCoefficients:
    """np.roots divides by the top coefficient, and below about 1e-308 its
    reciprocal overflows: the companion matrix held NaN, a LinAlgError."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-310])
    def test_four_zeros_of_a_tiny_mode(self, scale):
        # mode 3 decays to a subnormal relative size before it is trimmed
        s = SpectralBeta.from_modes(1, modes={2: (scale, 0.0), 3: (0.1 * scale, 0.0)})
        times = np.geomspace(0.01, 10.0, 30)
        assert [r.count for r in cusps.report_series(s, times)] == [4] * 30
        assert [z for _, z in zero_count_series(s, times)] == [4] * 30

    def test_cli_exits_0(self, tmp_path):
        code = main(["cusps", "--mode", "2:1e-310", "--mode", "3:1e-311",
                     "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "cusp_report.json").read_text())
        assert {entry["count"] for entry in report["series"]} == {4}


class TestWitnessRegressions:
    """Random closed beta_0 (n <= 3, K <= 12) drawn from rng([20251006, index])
    whose witness once stepped to t < 0 (2606), stopped at a local minimum of
    the residual (2093) or belonged to another event (9)."""

    @pytest.mark.parametrize("index", [2606, 2093, 9])
    def test_every_witness_is_its_events_degenerate_zero(self, index):
        rng = np.random.default_rng([20251006, index])
        s = random_closed_spectral(rng, max_truncation=12)
        series = zero_count_series(s, np.geomspace(0.01, 10.0, 30))
        events = detect_strict_decrease(s, series)
        assert sum(e.count_before - e.count_after for e in events) \
            == series[0][1] - series[-1][1]
        for event in events:
            lo, hi = event.interval
            assert lo < event.t_event < hi
            assert abs(event.witness_beta) < 1e-6
            assert abs(event.witness_dbeta) < 1e-6
            star = degenerate_zero_near(s, event.witness_u, event.t_event)
            assert star is not None
            assert abs(star[1] - event.t_event) < 1e-4

    def test_shallow_fold_witness(self):
        # candidate 499 of the benchmark pool: at its shallow fold near t =
        # 1.538 a Newton solve that takes only steps below 1e-14 as converged
        # 2-cycles from about half of the points one ulp off
        s = random_closed_spectral(np.random.default_rng([20251006, 499]), max_truncation=12)
        series = zero_count_series(s, np.geomspace(0.01, 10.0, 30))
        events = detect_strict_decrease(s, series)
        assert any(abs(e.t_event - 1.5384) < 1e-4 for e in events)
        for event in events:
            star = degenerate_zero_near(s, event.witness_u, event.t_event)
            assert star is not None
            assert abs(star[1] - event.t_event) <= 1e-13


def _event_key(events):
    return [(e.interval, e.count_before, e.count_after) for e in events]


class TestFoldLocator:
    """detect_strict_decrease solves for the folds by Newton's method and
    falls back to bisection only for drops the folds do not account for."""

    TIMES = np.geomspace(0.01, 10.0, 30)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_same_events_as_bisection(self, seed):
        # the distribution of acceptance test 05
        s = random_closed_spectral(np.random.default_rng(seed), max_truncation=6)
        series = zero_count_series(s, self.TIMES)
        events = detect_strict_decrease(s, series)
        reference = bisection_strict_decrease(s, series)
        assert _event_key(events) == _event_key(reference)
        for event, ref in zip(events, reference):
            assert abs(event.t_event - ref.t_event) <= 1e-13

    def test_nearby_folds_stay_two_events(self):
        # candidates 1640 and 2945 of the benchmark pool: two folds 1.87e-6
        # and 4.9e-7 apart in t, each certified in a box of radius below
        # 1e-12, so their t-ranges do not overlap and they are two events
        for index, gap in ((1640, (1e-6, 3e-6)), (2945, (4e-7, 6e-7))):
            s = random_closed_spectral(np.random.default_rng([20251006, index]),
                                       max_truncation=12)
            series = zero_count_series(s, self.TIMES)
            late = [e for e in detect_strict_decrease(s, series) if e.interval[0] > 1.0]
            assert [(e.count_before, e.count_after) for e in late] == [(4, 2), (2, 0)]
            assert gap[0] < late[1].t_event - late[0].t_event < gap[1]
            for event in late:
                assert event.certificate[1] < 1e-12
                star = degenerate_zero_near(s, event.witness_u, event.t_event)
                assert abs(star[1] - event.t_event) <= 1e-13

    @pytest.mark.parametrize("index", [859, 1375, 1642, 1847])
    def test_starts_where_the_cells_stay_undecided(self, index):
        # benchmark-pool candidates with a drop whose first row holds zeros
        # about to meet, which the cells left undecided while they allowed a
        # band around the axis: they count them as the companion roots do,
        # and its Newton starts lie between them
        s = random_closed_spectral(np.random.default_rng([20251006, index]),
                                   max_truncation=12)
        series = zero_count_series(s, self.TIMES)
        lows = [t for (t, z), (_, z1) in zip(series, series[1:]) if z1 < z]
        c, _ = evolved_rows(s, lows)
        assert cusps._cell_zeros(c)[0].tolist() == [companion_zeros(row)[0].shape[0] for row in c]
        events = detect_strict_decrease(s, series)
        reference = bisection_strict_decrease(s, series)
        assert _event_key(events) == _event_key(reference)
        for event, ref in zip(events, reference):
            assert event.certificate[0] == "fold"
            assert abs(event.t_event - ref.t_event) <= 1e-13

    @pytest.mark.parametrize("index", [None, 859, 1375, 1642, 1847])
    def test_starts_from_the_series_sweep(self, monkeypatch, index):
        # the Newton starts read from the sweep of zero_count_series or of
        # report_series equal those of a new sweep of the drops' first rows,
        # bit for bit; None is 0.01 + cos 2u (n = 1) over (0.5, 2), a drop
        # whose first row the dominant-mode certificate settles
        if index is None:
            s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
            times = np.array([0.5, 2.0])
        else:
            s = random_closed_spectral(np.random.default_rng([20251006, index]),
                                       max_truncation=12)
            times = self.TIMES
        counts = [z for _, z in zero_count_series(s, times)]
        first = np.flatnonzero(np.diff(counts) < 0)
        rows = evolved_rows(s, times[first])[0]
        if index is None:
            assert cusps._certificates(rows)[1][0] > cusps.CERTIFICATE_MARGIN
        fresh = cusps._starts(*cusps._cell_zeros(rows)[1:3], first.shape[0])
        fresh = [x.tobytes() for x in fresh]
        for series in (zero_count_series, cusps.report_series):
            series(s, times)
            with monkeypatch.context() as patch:
                patch.setattr(cusps, "_cell_zeros", None)   # a new sweep would raise
                cached = cusps._starts(*cusps._swept(s, times, first), first.shape[0])
            assert [x.tobytes() for x in cached] == fresh
        # another beta's sweep of the same times is not taken for this one's
        cusps.report_series(SpectralBeta.from_modes(1, modes={2: (1.0, 0.0)}), times)
        cached = cusps._starts(*cusps._swept(s, times, first), first.shape[0])
        assert [x.tobytes() for x in cached] == fresh

    @pytest.mark.parametrize("sweep", ["series", "reports"])
    def test_one_sweep_per_series(self, fft_calls, sweep):
        # acceptance test 05's draws: the events take their Newton starts
        # from the series' own cell sweep, so a series and its events cost
        # one inverse FFT
        rng = np.random.default_rng(777)
        for _ in range(100):
            s = random_closed_spectral(rng, max_truncation=6)
            before = len(fft_calls)
            if sweep == "series":
                series = zero_count_series(s, self.TIMES)
            else:
                series = [(r.t, r.count) for r in cusps.report_series(s, self.TIMES)]
            detect_strict_decrease(s, series)
            assert fft_calls[before:] == ["ifft"]

    def test_threads_keep_their_own_starts(self):
        # the sweep is one slot shared by every caller: threads that count
        # and detect different draws at once, switching often, each get the
        # events a lone caller gets
        import sys
        import threading

        rng = np.random.default_rng(777)
        draws = [random_closed_spectral(rng, max_truncation=6) for _ in range(8)]

        def events(s):
            return detect_strict_decrease(s, zero_count_series(s, self.TIMES))

        expected = [events(s) for s in draws]
        got = [None] * len(draws)

        def work(i):
            for _ in range(10):
                got[i] = events(draws[i])
                assert got[i] == expected[i]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(draws))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    def test_solve_budget(self):
        # acceptance test 05's draws; bisection to EVENT_DT took about 18
        # companion solves each, and the events now solve none
        rng = np.random.default_rng(777)
        events = 0
        for _ in range(100):
            s = random_closed_spectral(rng, max_truncation=6)
            series = zero_count_series(s, self.TIMES)
            with no_eigensolve():
                events += len(detect_strict_decrease(s, series))
        assert events > 100

    def test_series_solve_budget(self):
        # acceptance test 05's draws: no time needs a companion solve
        rng = np.random.default_rng(777)
        with no_eigensolve():
            for _ in range(100):
                zero_count_series(random_closed_spectral(rng, max_truncation=6), self.TIMES)

    def test_series_cell_budget(self):
        # acceptance test 05's draws: the cell certificate settles the times
        # the dominant-mode certificate leaves open, its halvings all but a
        # few cells
        rng = np.random.default_rng(777)
        with rolle_cells() as cells:
            for _ in range(100):
                zero_count_series(random_closed_spectral(rng, max_truncation=6), self.TIMES)
        assert len(cells) <= 10

    def test_bisection_fallback_on_three_zeros_merging(self, monkeypatch):
        # n = 2, 0.05 cos u + cos 3u: at t = ln(60)/2 three zeros merge at
        # u = pi/2 and three at 3 pi/2, where the Jacobian is singular
        s = SpectralBeta.from_modes(2, modes={1: (0.05, 0.0), 3: (1.0, 0.0)})
        series = zero_count_series(s, [0.5, 3.0])
        # Newton from the symmetric start stays on u = pi/2 and finds t*
        newton = detect_strict_decrease(s, series)
        monkeypatch.setattr(cusps, "_folds", lambda *args: [])
        bisected = detect_strict_decrease(s, series)
        assert _event_key(bisected) == _event_key(bisection_strict_decrease(s, series))
        assert bisected[0].count_before == 6 and bisected[-1].count_after == 2
        assert _event_key(newton) == [((0.5, 3.0), 6, 2)]
        for event in newton + bisected:
            assert abs(event.t_event - np.log(60.0) / 2.0) < 1e-12
            assert min(abs(event.witness_u - np.pi / 2), abs(event.witness_u - 3 * np.pi / 2)) < 1e-6
            assert abs(event.witness_beta) < 1e-12 and abs(event.witness_dbeta) < 1e-12

    def test_bisection_fallback_reached_where_newton_misses(self, monkeypatch):
        # candidate 1477 of the benchmark pool: the starts between adjacent
        # zeros at the beginning of (0.221, 0.281) reach its fold.  With that
        # fold hidden from _folds, bisection finds the event
        s = random_closed_spectral(np.random.default_rng([20251006, 1477]),
                                   max_truncation=12)
        series = zero_count_series(s, self.TIMES)
        reference = _event_key(bisection_strict_decrease(s, series))
        events = detect_strict_decrease(s, series)
        assert _event_key(events) == reference
        [event] = [e for e in events if e.interval[0] == pytest.approx(0.2212216)]
        assert event.certificate[0] == "fold"
        folds = cusps._folds

        def missing(s, lo, hi, pairs, starts):
            found = folds(s, lo, hi, pairs, starts)
            return [[] if t == pytest.approx(0.2212216) else f for f, t in zip(found, lo)]

        monkeypatch.setattr(cusps, "_folds", missing)
        events = detect_strict_decrease(s, series)
        assert _event_key(events) == reference
        bisected = [e for e in events if e.certificate == ("bisection",)]
        assert len(bisected) == 1 and bisected[0].interval[0] == pytest.approx(0.2212216)
        for event in events:
            star = degenerate_zero_near(s, event.witness_u, event.t_event)
            assert abs(star[1] - event.t_event) <= 1e-13

    def test_counts_certify_refused_folds(self, monkeypatch):
        # acceptance test 05's draws with every fold box refused: bisection
        # certifies the events instead
        monkeypatch.setattr(cusps, "_fold_boxes", lambda s, u, t, lo, hi: (
            np.full(u.shape, np.nan), np.zeros((u.shape[0], 2))))
        rng = np.random.default_rng(777)
        for _ in range(10):
            s = random_closed_spectral(rng, max_truncation=6)
            series = zero_count_series(s, self.TIMES)
            events = detect_strict_decrease(s, series)
            reference = bisection_strict_decrease(s, series)
            assert _event_key(events) == _event_key(reference)
            for event, ref in zip(events, reference):
                assert event.certificate == ("bisection",)
                assert abs(event.t_event - ref.t_event) <= 1e-13

    def test_event_solve_budget(self):
        # acceptance test 05's draws: every event is certified by its folds,
        # and the Newton starts come from the cells, with no companion solve
        rng = np.random.default_rng(777)
        events = []
        with no_eigensolve():
            for _ in range(100):
                s = random_closed_spectral(rng, max_truncation=6)
                events += detect_strict_decrease(s, zero_count_series(s, self.TIMES))
        assert len(events) > 100
        assert {e.certificate[0] for e in events} == {"fold"}


class TestFoldCertificate:
    """_fold_boxes proves a box around a fold holds a degenerate zero with
    d_u^2 beta != 0, or refuses."""

    def test_two_mode_fold_certified(self):
        # n = 1: 0.01 e^t + e^{-3t} cos 2u has its folds at pi/2 and 3 pi/2
        # at t* = ln(100)/4
        s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
        t_star = np.log(100.0) / 4.0
        u = np.array([np.pi / 2, 3 * np.pi / 2])
        radius, witness = cusps._fold_boxes(s, u, np.full(2, t_star), np.full(2, 0.5),
                                            np.full(2, 2.0))
        assert np.all(radius < 1e-12)
        assert np.max(np.abs(witness)) < 1e-15
        star = degenerate_zero_near(s, np.pi / 2, t_star)
        assert abs(star[1] - t_star) <= radius[0]

    def test_off_the_fold_refused(self):
        s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
        t_star = np.log(100.0) / 4.0
        # 1e-3 off in t or in u, or a box that crosses the interval's end
        u = np.array([np.pi / 2, np.pi / 2 + 1e-3, np.pi / 2])
        t = np.array([t_star + 1e-3, t_star, t_star])
        hi = np.array([2.0, 2.0, t_star + 1e-15])
        assert np.isnan(cusps._fold_boxes(s, u, t, np.full(3, 0.5), hi)[0]).all()

    def test_three_zeros_merging_refused(self):
        # n = 2, 0.05 cos u + cos 3u: three zeros merge at u = pi/2 and at
        # 3 pi/2 when t = ln(60)/2, where d_u^2 beta = 0 and the Jacobian is
        # singular; test_bisection_fallback_on_three_zeros_merging sees the
        # fallback find that event
        s = SpectralBeta.from_modes(2, modes={1: (0.05, 0.0), 3: (1.0, 0.0)})
        t_star = np.log(60.0) / 2.0
        u = np.array([np.pi / 2, 3 * np.pi / 2])
        assert np.isnan(cusps._fold_boxes(s, u, np.full(2, t_star), np.full(2, 0.5),
                                          np.full(2, 3.0))[0]).all()
        events = detect_strict_decrease(s, zero_count_series(s, [0.5, 3.0]))
        assert {e.certificate[0] for e in events} == {"bisection"}

    def test_matches_the_matrix_form(self, monkeypatch):
        # acceptance test 05's draws: at every fold _accounted tries, and 1e-3
        # off it in u or in t, the certificate written out row by row
        # refuses where the matrix form does and agrees on the radius to
        # rounding, and its witness columns are beta and d_u beta over S_0
        boxes = cusps._fold_boxes
        tried = []

        def recorded(s, u, t, lo, hi):
            tried.append((s, u, t, lo, hi))
            return boxes(s, u, t, lo, hi)

        monkeypatch.setattr(cusps, "_fold_boxes", recorded)
        rng = np.random.default_rng(777)
        for _ in range(100):
            s = random_closed_spectral(rng, max_truncation=6)
            detect_strict_decrease(s, zero_count_series(s, TestFoldLocator.TIMES))
        certified = refused = 0
        for s, u, t, lo, hi in tried:
            for du, dt in ((0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3)):
                radius, witness = boxes(s, u + du, t + dt, lo, hi)
                reference = matrix_fold_boxes(s, u + du, t + dt, lo, hi)
                assert np.array_equal(np.isnan(radius), np.isnan(reference))
                ok = ~np.isnan(radius)
                assert np.all(np.abs(radius[ok] - reference[ok]) <= 1e-12 * reference[ok])
                jet = cusps._jets(s, ((0, 0), (1, 0)))(u + du, t + dt)[0]
                assert np.allclose(witness, jet, rtol=0.0, atol=1e-15)
                certified, refused = certified + ok.sum(), refused + (~ok).sum()
        assert certified > 250 and refused > 500
