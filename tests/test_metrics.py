"""Fixed-threshold error rates and the equal error rate, checked against
a dense brute-force threshold sweep."""

import dataclasses
import json

import numpy as np
import pytest

from oap.errors import DataError
from oap.metrics import evaluate_frames, fixed_threshold_metrics

from oracles import dense_sweep_eer


def eer(scores, labels):
    """The equal error rate of a score set, as ``evaluate_frames`` reports it."""
    return evaluate_frames(scores, labels).eer


class TestFixedThreshold:
    def test_perfect_separation(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = [0, 0, 1, 1]
        assert fixed_threshold_metrics(scores, labels, 0.5) == (0.0, 0.0, 0.0)

    def test_definitional_count(self):
        """10 spoof frames, 2 at or below threshold -> apcer 0.2."""
        scores = [0.3, 0.5] + [0.9] * 8 + [0.1, 0.2]
        labels = [1] * 10 + [0, 0]
        apcer, bpcer, acer = fixed_threshold_metrics(scores, labels, 0.5)
        assert apcer == pytest.approx(0.2)
        assert bpcer == 0.0
        assert acer == pytest.approx(0.1)

    def test_boundary_scores_called_live(self):
        """Decision rule is strictly 'spoof iff y > threshold', so scores
        exactly at the threshold count as live calls."""
        scores = [0.5] * 6
        labels = [1, 1, 1, 0, 0, 0]
        apcer, bpcer, acer = fixed_threshold_metrics(scores, labels, 0.5)
        assert (apcer, bpcer) == (1.0, 0.0)

    def test_extreme_thresholds(self):
        scores = [0.2, 0.8, 0.3, 0.9]
        labels = [0, 0, 1, 1]
        apcer0, bpcer0, _ = fixed_threshold_metrics(scores, labels, 0.0)
        assert bpcer0 == 1.0  # every live frame exceeds 0
        apcer1, bpcer1, _ = fixed_threshold_metrics(scores, labels, 1.0)
        assert apcer1 == 1.0  # nothing strictly exceeds 1
        assert bpcer1 == 0.0

    def test_acer_is_exact_mean(self):
        rng = np.random.default_rng(1)
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        apcer, bpcer, acer = fixed_threshold_metrics(scores, labels, 0.4)
        assert acer == (apcer + bpcer) / 2.0

    def test_single_class_rejected_naming_missing_class(self):
        with pytest.raises(DataError, match="live"):
            fixed_threshold_metrics([0.1, 0.9], [1, 1], 0.5)
        with pytest.raises(DataError, match="spoof"):
            fixed_threshold_metrics([0.1, 0.9], [0, 0], 0.5)


class TestEqualErrorRate:
    def test_separable_is_zero(self):
        assert eer([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 0.0

    def test_perfectly_inverted_is_one(self):
        assert eer([0.9, 0.1], [0, 1]) == 1.0

    def test_random_coin_flip_near_half(self):
        rng = np.random.default_rng(8)
        scores = rng.random(4000)
        labels = rng.integers(0, 2, size=4000)
        assert abs(eer(scores, labels) - 0.5) < 0.03

    def test_matches_dense_sweep_on_overlapping_distributions(self):
        rng = np.random.default_rng(99)
        for case in range(50):
            live = rng.beta(2, 4, size=200)
            spoof = rng.beta(4, 2, size=200)
            scores = np.concatenate([live, spoof])
            labels = np.array([0] * 200 + [1] * 200)
            got = eer(scores, labels)
            want = dense_sweep_eer(scores, labels)
            assert abs(got - want) < 0.005, case

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(12)
        scores = rng.random(300)
        labels = rng.integers(0, 2, size=300)
        base = eer(scores, labels)
        for transform in (lambda s: s**3, lambda s: np.tanh(2 * s), lambda s: 5 * s - 2):
            assert eer(transform(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        scores = rng.random(100)
        labels = rng.integers(0, 2, size=100)
        perm = rng.permutation(100)
        assert eer(scores[perm], labels[perm]) == eer(scores, labels)

    def test_eer_invariant_to_fixed_threshold(self):
        """EER ignores the evaluation threshold entirely."""
        rng = np.random.default_rng(14)
        scores = rng.random(100)
        labels = rng.integers(0, 2, size=100)
        r1 = evaluate_frames(scores, labels, threshold=0.3)
        r2 = evaluate_frames(scores, labels, threshold=0.7)
        assert r1.eer == r2.eer
        assert r1.threshold != r2.threshold


class TestReport:
    def test_json_round_trip_with_fixed_field_names(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        report = evaluate_frames(scores, labels)
        payload = json.loads(report.to_json())
        assert set(payload) == {"apcer", "bpcer", "acer", "eer", "threshold", "n_live", "n_spoof"}
        path = tmp_path / "metrics.json"
        report.save(path)
        assert json.loads(path.read_text()) == dataclasses.asdict(report)

    def test_counts(self):
        report = evaluate_frames([0.1, 0.9, 0.8], [0, 1, 1])
        assert (report.n_live, report.n_spoof) == (1, 2)
