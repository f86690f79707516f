"""Detection scoring: missed-detection and false-alarm probabilities.

Both metrics depend only on the indicator set, never on gamma
magnitudes. A detected device with the wrong delay counts as a miss,
not as a false alarm.
"""

from __future__ import annotations

from .detect import DetectionResult
from .sysmodel import GroundTruth


def compute_mdp(result: DetectionResult, truth: GroundTruth) -> float:
    """Fraction of active devices missed or detected with a wrong delay."""
    if truth.num_active == 0:
        raise ValueError("MDP is undefined when no device is active (K=0)")
    return len(truth.pairs - result.theta_hat) / truth.num_active


def compute_fap(result: DetectionResult, truth: GroundTruth, num_devices: int) -> float:
    """Fraction of inactive devices declared active."""
    num_inactive = num_devices - truth.num_active
    if num_inactive <= 0:
        raise ValueError(
            f"FAP is undefined without inactive devices "
            f"(N={num_devices}, K={truth.num_active})"
        )
    declared = {device for device, _ in result.theta_hat}
    return len(declared - truth.delays.keys()) / num_inactive
