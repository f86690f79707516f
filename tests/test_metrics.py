"""Missed-detection and false-alarm scoring."""

import numpy as np
import pytest

from covdet.metrics import compute_fap, compute_mdp
from covdet.sysmodel import DetectionResult, GroundTruth


def result_with(pairs):
    return DetectionResult(
        theta_hat=frozenset(pairs),
        gamma_hat=np.zeros((1, 1)),
        iterations=1,
        final_objective=0.0,
    )


def truth_with(pairs, num_devices=8):
    active = np.array(sorted(n for n, _ in pairs))
    return GroundTruth(
        active=active,
        delays={n: tau for n, tau in pairs},
        gains=np.ones(num_devices),
    )


class TestComputeMdp:
    def test_perfect_detection(self):
        truth = truth_with([(1, 0), (4, 2)])
        assert compute_mdp(result_with([(1, 0), (4, 2)]), truth) == 0.0

    def test_missing_device_counts(self):
        truth = truth_with([(0, 0), (1, 1), (2, 0), (3, 2)])
        found = result_with([(0, 0), (1, 1), (2, 0)])
        assert compute_mdp(found, truth) == pytest.approx(0.25)

    def test_wrong_delay_counts_as_miss(self):
        truth = truth_with([(0, 0), (1, 1), (2, 0), (3, 2)])
        found = result_with([(0, 0), (1, 1), (2, 0), (3, 1)])
        assert compute_mdp(found, truth) == pytest.approx(0.25)

    def test_false_alarms_do_not_count(self):
        truth = truth_with([(1, 0)])
        found = result_with([(1, 0), (5, 2)])
        assert compute_mdp(found, truth) == 0.0

    def test_no_active_devices_rejected(self):
        truth = GroundTruth(active=np.array([]), delays={}, gains=np.ones(4))
        with pytest.raises(ValueError, match="K=0"):
            compute_mdp(result_with([]), truth)

    def test_complements_exact_detection_rate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            true_pairs = {(int(n), int(rng.integers(3)))
                          for n in rng.choice(10, size=4, replace=False)}
            truth = truth_with(true_pairs, num_devices=10)
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
        truth = truth_with([(1, 0)])
        assert compute_fap(result_with([(1, 0)]), truth, num_devices=8) == 0.0

    def test_counts_inactive_declarations(self):
        truth = truth_with([(0, 0)], num_devices=111)
        pairs = [(0, 0)] + [(n, 0) for n in range(1, 12)]
        fap = compute_fap(result_with(pairs), truth, num_devices=111)
        assert fap == pytest.approx(11 / 110)

    def test_all_inactive_declared(self):
        truth = truth_with([(0, 1)], num_devices=4)
        pairs = [(0, 1), (1, 0), (2, 2), (3, 0)]
        assert compute_fap(result_with(pairs), truth, num_devices=4) == 1.0

    def test_wrong_delay_on_active_is_not_false_alarm(self):
        truth = truth_with([(2, 1)], num_devices=4)
        found = result_with([(2, 0)])
        assert compute_fap(found, truth, num_devices=4) == 0.0
        assert compute_mdp(found, truth) == 1.0

    def test_no_inactive_devices_rejected(self):
        truth = truth_with([(0, 0), (1, 0)], num_devices=2)
        with pytest.raises(ValueError, match="inactive"):
            compute_fap(result_with([]), truth, num_devices=2)
