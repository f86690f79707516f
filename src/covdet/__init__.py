"""Covariance-based joint activity and delay detection.

Library for detecting which devices transmitted, and with what symbol
delay, from the sample covariance of a multi-antenna received signal:
scenario synthesis, two coordinate-descent maximum-likelihood detectors
and scoring metrics. Preambles, received signals, sample covariances
and gamma estimates are plain arrays; the detectors check the sample
covariance for shape, finiteness, Hermitian symmetry and positive
semidefiniteness where they take it. The seeded Monte Carlo experiment
runner is ``covdet.cli``.
"""

from .detect import run_bcd, run_cd_e
from .likelihood import assemble_covariance
from .metrics import compute_fap, compute_mdp
from .siggen import (
    draw_ground_truth,
    draw_scenario,
    effective_dictionary,
    generate_preambles,
    sample_covariance,
    synthesize_received_signal,
)
from .sysmodel import (
    ConfigError,
    ConvergenceError,
    NumericalDegeneracyError,
    SystemConfig,
)

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "NumericalDegeneracyError",
    "SystemConfig",
    "assemble_covariance",
    "compute_fap",
    "compute_mdp",
    "draw_ground_truth",
    "draw_scenario",
    "effective_dictionary",
    "generate_preambles",
    "run_bcd",
    "run_cd_e",
    "sample_covariance",
    "synthesize_received_signal",
]
