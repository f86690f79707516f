"""Missed-detection and false-alarm scoring."""

import numpy as np
import pytest

from conftest import make_truth
from covdet.detect import DetectionResult
from covdet.metrics import compute_fap, compute_mdp


def result_with(pairs):
    """A result whose estimate holds exactly ``pairs``."""
    gamma_hat = np.zeros((111, 3))  # room for every pair the tests declare
    for n, tau in pairs:
        gamma_hat[n, tau] = 1.0
    return DetectionResult(gamma_hat, np.zeros(2))


class TestComputeMdp:
    def test_perfect_detection(self):
        truth = make_truth([(1, 0), (4, 2)])
        assert compute_mdp(result_with([(1, 0), (4, 2)]), truth) == 0.0

    def test_missing_device_counts(self):
        truth = make_truth([(0, 0), (1, 1), (2, 0), (3, 2)])
        found = result_with([(0, 0), (1, 1), (2, 0)])
        assert compute_mdp(found, truth) == pytest.approx(0.25)

    def test_wrong_delay_counts_as_miss(self):
        truth = make_truth([(0, 0), (1, 1), (2, 0), (3, 2)])
        found = result_with([(0, 0), (1, 1), (2, 0), (3, 1)])
        assert compute_mdp(found, truth) == pytest.approx(0.25)

    def test_false_alarms_do_not_count(self):
        truth = make_truth([(1, 0)])
        found = result_with([(1, 0), (5, 2)])
        assert compute_mdp(found, truth) == 0.0

    def test_no_active_devices_rejected(self):
        truth = make_truth([])
        with pytest.raises(ValueError, match="K=0"):
            compute_mdp(result_with([]), truth)

    def test_complements_exact_detection_rate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            true_pairs = {(int(n), int(rng.integers(3)))
                          for n in rng.choice(10, size=4, replace=False)}
            truth = make_truth(true_pairs)
            # corrupt a random subset of the detections
            detected = set()
            for n, tau in true_pairs:
                roll = rng.random()
                if roll < 0.4:
                    detected.add((n, tau))
                elif roll < 0.7:
                    detected.add((n, (tau + 1) % 3))
            exact = len(detected & true_pairs) / 4
            mdp = compute_mdp(result_with(detected), truth)
            assert mdp + exact == pytest.approx(1.0)


class TestComputeFap:
    def test_no_false_positives(self):
        truth = make_truth([(1, 0)])
        assert compute_fap(result_with([(1, 0)]), truth, num_devices=8) == 0.0

    def test_counts_inactive_declarations(self):
        truth = make_truth([(0, 0)])
        pairs = [(0, 0)] + [(n, 0) for n in range(1, 12)]
        fap = compute_fap(result_with(pairs), truth, num_devices=111)
        assert fap == pytest.approx(11 / 110)

    def test_all_inactive_declared(self):
        truth = make_truth([(0, 1)])
        pairs = [(0, 1), (1, 0), (2, 2), (3, 0)]
        assert compute_fap(result_with(pairs), truth, num_devices=4) == 1.0

    def test_wrong_delay_on_active_is_not_false_alarm(self):
        truth = make_truth([(2, 1)])
        found = result_with([(2, 0)])
        assert compute_fap(found, truth, num_devices=4) == 0.0
        assert compute_mdp(found, truth) == 1.0

    def test_no_inactive_devices_rejected(self):
        truth = make_truth([(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="inactive"):
            compute_fap(result_with([]), truth, num_devices=2)
