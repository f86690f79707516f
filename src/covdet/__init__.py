"""Covariance-based joint activity and delay detection.

Which devices transmitted, and at what symbol delay, from the sample
covariance of a multi-antenna received signal: scenario synthesis, two
coordinate-descent maximum-likelihood detectors and scoring metrics, on
plain arrays. The seeded Monte Carlo experiment runner is ``covdet.cli``.
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
