"""Self-similar profile catalog, scaling law and lap/cusp arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legendreflow.curves import uniform_grid
from legendreflow.errors import ClassificationError, InvariantViolationError, ValidationError
from legendreflow.selfsimilar import (
    GALLERY_PROFILES,
    SelfSimilarProfile,
    cusp_count,
    lambda_star,
    lap_count,
    profile_position,
    verify_self_similarity,
)
from legendreflow.cusps import find_zeros


class TestProfileConstraints:
    def test_m_equals_n_rejected(self):
        with pytest.raises(ClassificationError):
            SelfSimilarProfile(n=1, m=1, c1=1.0, c2=0.0)

    def test_circle_needs_cos_amplitude(self):
        with pytest.raises(ClassificationError):
            SelfSimilarProfile(n=1, m=0, c1=1.0, c2=0.5)
        with pytest.raises(ClassificationError):
            SelfSimilarProfile(n=1, m=0, c1=0.0, c2=0.0)

    def test_point_rejected(self):
        with pytest.raises(ClassificationError):
            SelfSimilarProfile(n=1, m=2, c1=0.0, c2=0.0)


class TestProfilePosition:
    def test_circle_evaluation(self):
        p = SelfSimilarProfile(n=1, m=0, c1=2.0, c2=0.0)
        pt = profile_position(p, np.array([np.pi / 2]))[0]
        assert np.allclose(pt, [2.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("n,m,c1,c2", GALLERY_PROFILES)
    def test_frontal_identity(self, n, m, c1, c2):
        # d_u X* = beta* mu* everywhere, checked with exact derivatives
        p = SelfSimilarProfile(n=n, m=m, c1=c1, c2=c2)
        u = uniform_grid(2048)
        h = 1e-6
        dX = (profile_position(p, u + h) - profile_position(p, u - h)) / (2 * h)
        mu = np.stack([np.cos(n * u), np.sin(n * u)], axis=-1)
        assert np.max(np.abs(dX - p.beta(u)[:, None] * mu)) < 1e-7

    @pytest.mark.parametrize("n,m,c1,c2", GALLERY_PROFILES)
    def test_zero_mean(self, n, m, c1, c2):
        p = SelfSimilarProfile(n=n, m=m, c1=c1, c2=c2)
        u = uniform_grid(4096)
        mean = profile_position(p, u).mean(axis=0)
        assert np.max(np.abs(mean)) < 1e-10


class TestLambdaStar:
    def test_circle_expands_like_exp(self):
        assert abs(lambda_star(1, 0, 1.0) - np.e) < 1e-15

    def test_known_contraction(self):
        assert abs(lambda_star(1, 2, 1.0) - np.exp(-3.0)) < 1e-15

    def test_identity_at_zero(self):
        for n, m in [(1, 0), (1, 2), (2, 3), (3, 1)]:
            assert lambda_star(n, m, 0.0) == 1.0

    def test_m_equals_n_rejected(self):
        with pytest.raises(ClassificationError):
            lambda_star(2, 2, 1.0)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
    def test_time_must_be_finite_and_nonnegative(self, t):
        with pytest.raises(ValidationError):
            lambda_star(1, 2, t)

    def test_overflow_is_refused_quietly(self, capsys):
        with pytest.raises(InvariantViolationError):
            lambda_star(2, 0, 800.0)
        assert capsys.readouterr().err == ""


class TestLapAndCuspCounts:
    @pytest.mark.parametrize("n,m,laps", [(1, 3, 2), (2, 4, 2), (1, 2, 1)])
    def test_lap_values(self, n, m, laps):
        assert lap_count(n, m) == laps

    @pytest.mark.parametrize("n,m,cusps", [(1, 3, 3), (1, 2, 4), (2, 4, 4)])
    def test_cusp_values(self, n, m, cusps):
        assert cusp_count(n, m) == cusps

    def test_circle_convention(self):
        assert lap_count(3, 0) == 3
        assert cusp_count(3, 0) == 0

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=25, deadline=None)
    def test_rotational_equivariance(self, seed, delta):
        # rotating (C1, C2) rotates the profile but fixes both counts and
        # the total number of parameter-domain zeros of beta*
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        if m == n:
            m += 1
        c1, c2 = rng.normal(), rng.normal()
        if c1 == 0.0 and c2 == 0.0:
            c1 = 1.0
        rot = (c1 * np.cos(delta) - c2 * np.sin(delta),
               c1 * np.sin(delta) + c2 * np.cos(delta))
        base = SelfSimilarProfile(n=n, m=m, c1=c1, c2=c2)
        turned = SelfSimilarProfile(n=n, m=m, c1=rot[0], c2=rot[1])
        assert find_zeros(base.spectral(), 0.5).count \
            == find_zeros(turned.spectral(), 0.5).count == 2 * m

    @pytest.mark.parametrize("n,m,c1,c2", [p for p in GALLERY_PROFILES if p[1] > 0])
    def test_counts_consistent_with_zero_tracking(self, n, m, c1, c2):
        p = SelfSimilarProfile(n=n, m=m, c1=c1, c2=c2)
        total = find_zeros(p.spectral(), 0.1).count
        assert total == 2 * m
        assert cusp_count(n, m) * lap_count(n, m) == 2 * m


class TestVerifySelfSimilarity:
    def test_four_cusp_profile(self):
        p = SelfSimilarProfile(n=1, m=2, c1=1.5, c2=0.0)
        assert verify_self_similarity(p, [0.0, 1.0, 2.0]) < 1e-9

    def test_circle(self):
        p = SelfSimilarProfile(n=1, m=0, c1=2.0, c2=0.0)
        assert verify_self_similarity(p, [0.0, 1.0]) < 1e-9

    def test_expanding_index_three_profile(self):
        p = SelfSimilarProfile(n=3, m=1, c1=2.5, c2=0.0)
        assert verify_self_similarity(p, [0.0, 1.0, 2.0]) < 1e-9
