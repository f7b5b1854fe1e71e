"""Zero tracking, classification, monotone counts and decrease events."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    per_time_reports,
    bisection_strict_decrease,
    companion_roots,
    degenerate_zero_near,
    grid_zero_count,
    random_closed_spectral,
)
from legendreflow import cusps
from legendreflow.cli import main
from legendreflow.cusps import (
    detect_strict_decrease,
    find_zeros,
    zero_count_series,
)
from legendreflow.errors import ValidationError
from legendreflow.spectral import SpectralBeta, evolve_beta


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
        # beta(u) = 1 - cos u touches zero at u = 0 with vanishing derivative
        s = SpectralBeta.from_modes(2, a0=1.0, modes={1: (-1.0, 0.0)})
        report = find_zeros(s, 0.0)
        assert report.count == 1
        z = report.zeros[0]
        assert min(z.location, 2 * np.pi - z.location) < 1e-6
        assert z.kind == "degenerate"

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_count_matches_grid_oracle(self, seed, t):
        s = random_closed_spectral(np.random.default_rng(seed))
        report = find_zeros(s, t)
        # the grid oracle cannot resolve near-tangential zeros
        assume(all(abs(z.derivative) >= 1e-3 * report.scale for z in report.zeros))
        assert report.count == grid_zero_count(s, t)

    def test_negative_time_rejected(self):
        s = SpectralBeta.from_modes(1, a0=1.0)
        with pytest.raises(ValidationError):
            find_zeros(s, -1.0)


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
    the cell certificate where it decides, and by stacked companion solves
    elsewhere."""

    def test_roots_bitwise_equal_to_np_roots(self):
        # n = 1: mode 5 (rate -25 against the mean mode) falls below
        # NEGLIGIBLE_MODE after t = 1.35, mode 2 (rate -4) after t = 8.4:
        # the rows of one stack trim to lengths 6, 3 and 1 (no roots)
        s = SpectralBeta.from_modes(1, a0=0.3, modes={2: (1.0, 0.5), 5: (0.7, -1.0)})
        rows = cusps._evolved_rows(s, [0.1, 0.5, 2.0, 4.0, 10.0])[1]
        assert [row.shape[0] for row in rows] == [6, 6, 3, 3, 1]
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_closed_spectral(rng, max_truncation=12)
            rows += cusps._evolved_rows(s, np.geomspace(0.01, 10.0, 7))[1]
        assert len({row.shape[0] for row in rows}) >= 8
        for row, roots in zip(rows, cusps._roots(rows)):
            reference = companion_roots(row)
            assert roots.shape == reference.shape
            assert np.array_equal(roots, reference)

    @given(st.sampled_from(["test05", "pure", "two-mode"]), st.integers(0, 2**32 - 1),
           st.floats(0.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_certified_count_is_exact(self, kind, seed, t):
        s = _beta0(kind, seed)
        c, [row], _ = cusps._evolved_rows(s, [t])
        mode, margin = cusps._certificates(c)
        exact = cusps._circle_zeros([companion_roots(row)])[0].shape[0]
        assert cusps._count(s, t) == exact
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
    @settings(max_examples=80, deadline=None)
    def test_cell_count_is_exact(self, kind, seed, t):
        s = _beta0(kind, seed)
        c, [row], _ = cusps._evolved_rows(s, [t])
        [cell] = cusps._cell_counts(c)
        assume(cell >= 0)
        assert cell == cusps._circle_zeros([companion_roots(row)])[0].shape[0]
        assert cell == grid_zero_count(s, t)

    def test_fold_left_to_the_companion_step(self, root_solves):
        # n = 1: 0.01 e^t + e^{-3t} cos 2u has double zeros at pi/2 and 3 pi/2
        # when 0.01 e^{4t} = 1, which no cell certifies
        s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
        t_star = np.log(100.0) / 4.0
        c, [row], _ = cusps._evolved_rows(s, [t_star])
        assert cusps._certificates(c)[1][0] <= cusps.CERTIFICATE_MARGIN
        assert cusps._cell_counts(c).tolist() == [-1]
        assert cusps._count(s, t_star) == cusps._circle_zeros([companion_roots(row)])[0].shape[0]
        assert root_solves == [3]

    def test_series_matches_report_series(self):
        rng = np.random.default_rng(11)
        times = np.geomspace(0.01, 10.0, 30)
        for _ in range(10):
            s = random_closed_spectral(rng, max_truncation=12)
            reports = cusps.report_series(s, times)
            assert zero_count_series(s, times) == [(r.t, r.count) for r in reports]
            assert reports == [find_zeros(s, t) for t in times]

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
            for report, (t, zeros, scale, certificate) in zip(cusps._reports(s, times),
                                                               per_time_reports(s, times),
                                                               strict=True):
                assert (report.t, report.certificate) == (t, certificate)
                assert [z.kind for z in report.zeros] == [kind for _, _, kind in zeros]
                assert report.scale == pytest.approx(scale, rel=1e-12, abs=0.0)
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
        # candidate 1640 of the benchmark pool: two folds 1.87e-6 apart in t
        s = random_closed_spectral(np.random.default_rng([20251006, 1640]),
                                   max_truncation=12)
        series = zero_count_series(s, self.TIMES)
        late = [e for e in detect_strict_decrease(s, series) if e.interval[0] > 1.0]
        assert [(e.count_before, e.count_after) for e in late] == [(4, 2), (2, 0)]
        assert 1e-6 < late[1].t_event - late[0].t_event < 3e-6
        for event in late:
            star = degenerate_zero_near(s, event.witness_u, event.t_event)
            assert abs(star[1] - event.t_event) <= 1e-13

    def test_solve_budget(self, root_solves):
        # acceptance test 05's draws; bisection to EVENT_DT took about 18 each
        rng = np.random.default_rng(777)
        solves = events = 0
        for _ in range(100):
            s = random_closed_spectral(rng, max_truncation=6)
            series = zero_count_series(s, self.TIMES)
            before = len(root_solves)
            events += len(detect_strict_decrease(s, series))
            solves += len(root_solves) - before
        assert events > 100
        assert solves <= 4 * events

    def test_series_solve_budget(self, root_solves):
        # acceptance test 05's draws: certified times need no companion solve
        rng = np.random.default_rng(777)
        for _ in range(100):
            zero_count_series(random_closed_spectral(rng, max_truncation=6), self.TIMES)
        assert len(root_solves) <= 20 * 100

    def test_series_cell_budget(self, root_solves):
        # acceptance test 05's draws: the cell certificate settles the times
        # the dominant-mode certificate leaves open
        rng = np.random.default_rng(777)
        for _ in range(100):
            zero_count_series(random_closed_spectral(rng, max_truncation=6), self.TIMES)
        assert len(root_solves) <= 10

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
        # candidate 1477 of the benchmark pool: the starts from the roots off
        # the circle at the interval's end miss the fold in (0.221, 0.281),
        # the starts between adjacent zeros at its beginning reach it.  With
        # that fold hidden from _folds, bisection finds the event
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
        # acceptance test 05's draws with every fold box refused: the counts
        # next to each group of folds certify the events instead
        monkeypatch.setattr(cusps, "_fold_boxes", lambda s, u, t, lo, hi: np.full(u.shape, np.nan))
        rng = np.random.default_rng(777)
        for _ in range(10):
            s = random_closed_spectral(rng, max_truncation=6)
            series = zero_count_series(s, self.TIMES)
            events = detect_strict_decrease(s, series)
            reference = bisection_strict_decrease(s, series)
            assert _event_key(events) == _event_key(reference)
            for event, ref in zip(events, reference):
                assert event.certificate == ("probes",)
                assert abs(event.t_event - ref.t_event) <= 1e-13

    def test_event_solve_budget(self, root_solves):
        # acceptance test 05's draws: every event is certified by its folds,
        # with no companion solve but for the Newton starts of a drop whose
        # first row the cell certificate leaves undecided
        rng = np.random.default_rng(777)
        solves = undecided = 0
        events = []
        for _ in range(100):
            s = random_closed_spectral(rng, max_truncation=6)
            series = zero_count_series(s, self.TIMES)
            lows = [t for (t, z), (_, z1) in zip(series, series[1:]) if z1 < z]
            if lows:
                undecided += int(np.sum(cusps._cell_counts(cusps._evolved_rows(s, lows)[0]) < 0))
            before = len(root_solves)
            events += detect_strict_decrease(s, series)
            solves += len(root_solves) - before
        assert len(events) > 100
        assert solves <= undecided
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
        radius = cusps._fold_boxes(s, u, np.full(2, t_star), np.full(2, 0.5), np.full(2, 2.0))
        assert np.all(radius < 1e-12)
        star = degenerate_zero_near(s, np.pi / 2, t_star)
        assert abs(star[1] - t_star) <= radius[0]

    def test_off_the_fold_refused(self):
        s = SpectralBeta.from_modes(1, a0=0.01, modes={2: (1.0, 0.0)})
        t_star = np.log(100.0) / 4.0
        # 1e-3 off in t or in u, or a box that crosses the interval's end
        u = np.array([np.pi / 2, np.pi / 2 + 1e-3, np.pi / 2])
        t = np.array([t_star + 1e-3, t_star, t_star])
        hi = np.array([2.0, 2.0, t_star + 1e-15])
        assert np.isnan(cusps._fold_boxes(s, u, t, np.full(3, 0.5), hi)).all()

    def test_three_zeros_merging_refused(self):
        # n = 2, 0.05 cos u + cos 3u: three zeros merge at u = pi/2 and at
        # 3 pi/2 when t = ln(60)/2, where d_u^2 beta = 0 and the Jacobian is
        # singular; test_bisection_fallback_on_three_zeros_merging sees the
        # fallback find that event
        s = SpectralBeta.from_modes(2, modes={1: (0.05, 0.0), 3: (1.0, 0.0)})
        t_star = np.log(60.0) / 2.0
        u = np.array([np.pi / 2, 3 * np.pi / 2])
        assert np.isnan(cusps._fold_boxes(s, u, np.full(2, t_star), np.full(2, 0.5),
                                          np.full(2, 3.0))).all()
        events = detect_strict_decrease(s, zero_count_series(s, [0.5, 3.0]))
        assert {e.certificate[0] for e in events} <= {"probes", "bisection"}
