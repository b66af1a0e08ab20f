"""Tests for expert routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.models.gating import ExpertRouter


class TestUniformRouting:
    def test_counts_conserve_assignments(self):
        router = ExpertRouter(n_experts=8, top_k=2, seed=7)
        counts = router.route(32)
        assert counts.sum() == 64

    def test_zero_tokens_gives_zeros(self):
        router = ExpertRouter(n_experts=8, top_k=2)
        assert router.route(0).sum() == 0

    def test_uniform_probabilities(self):
        router = ExpertRouter(n_experts=8, top_k=2)
        assert np.allclose(router.probabilities, 1 / 8)

    def test_expected_counts(self):
        router = ExpertRouter(n_experts=8, top_k=2)
        assert np.allclose(router.expected_counts(32), 8.0)

    def test_seed_reproducibility(self):
        a = ExpertRouter(n_experts=8, top_k=2, seed=11).route(100)
        b = ExpertRouter(n_experts=8, top_k=2, seed=11).route(100)
        assert (a == b).all()

    def test_large_sample_looks_uniform(self):
        router = ExpertRouter(n_experts=8, top_k=2, seed=3)
        counts = router.route(100_000)
        assert counts.min() > 0.9 * counts.mean()
        assert counts.max() < 1.1 * counts.mean()


class TestSkewedRouting:
    def test_skew_concentrates_on_first_experts(self):
        hot = ExpertRouter(n_experts=8, top_k=2, skew=1.5, seed=5)
        counts = hot.route(100_000)
        assert counts[0] > 3 * counts[-1]

    def test_probabilities_monotone_under_skew(self):
        probs = ExpertRouter(n_experts=8, top_k=2, skew=1.0).probabilities
        assert (np.diff(probs) <= 0).all()

    def test_skew_still_conserves_assignments(self):
        router = ExpertRouter(n_experts=16, top_k=2, skew=2.0, seed=1)
        assert router.route(500).sum() == 1000


class TestValidation:
    def test_rejects_zero_experts(self):
        with pytest.raises(ConfigError):
            ExpertRouter(n_experts=0, top_k=1)

    def test_rejects_bad_topk(self):
        with pytest.raises(ConfigError):
            ExpertRouter(n_experts=4, top_k=5)

    def test_rejects_negative_skew(self):
        with pytest.raises(ConfigError):
            ExpertRouter(n_experts=4, top_k=1, skew=-1.0)

    def test_rejects_negative_tokens(self):
        with pytest.raises(ConfigError):
            ExpertRouter(n_experts=4, top_k=1).route(-5)


class TestConservationProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        n_experts=st.integers(2, 64),
        n_tokens=st.integers(0, 4096),
        skew=st.floats(0.0, 3.0),
    )
    def test_counts_always_sum_to_tokens_times_topk(self, n_experts, n_tokens, skew):
        top_k = min(2, n_experts)
        router = ExpertRouter(n_experts=n_experts, top_k=top_k, skew=skew, seed=0)
        assert router.route(n_tokens).sum() == n_tokens * top_k


class TestBatchedDraws:
    @pytest.mark.parametrize("skew", [0.0, 1.5])
    @pytest.mark.parametrize(
        "stretches", [([32, 31, 17, 4, 1], [2, 1, 2, 1, 1]), ([24], [6]), ([5], [1])]
    )
    def test_per_stage_counts_draw_in_stream_order(self, skew, stretches):
        # One routing row per stage, each at its stretch's token count,
        # must be the sequential route() calls, and leave the stream where
        # they do.
        tokens, lengths = stretches
        batched = ExpertRouter(n_experts=8, top_k=2, skew=skew, seed=9)
        sequential = ExpertRouter(n_experts=8, top_k=2, skew=skew, seed=9)
        rows = batched.route_stages(tokens, lengths)
        assert rows.dtype == np.int64
        per_stage = np.repeat(tokens, lengths).tolist()
        for row, n_tokens in zip(rows, per_stage, strict=True):
            assert (row == sequential.route(n_tokens)).all()
        assert batched.state_snapshot() == sequential.state_snapshot()
