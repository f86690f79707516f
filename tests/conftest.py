"""Shared scenario builders and subprocess helpers for the test suite."""

import os
from pathlib import Path

import numpy as np

import covdet
from covdet.siggen import (
    draw_ground_truth,
    generate_preambles,
    sample_covariance,
    synthesize_received_signal,
)
from covdet.sysmodel import SystemConfig

DEFAULTS = dict(
    num_devices=8,
    num_active=2,
    preamble_len=16,
    max_delay=2,
    num_antennas=64,
    tx_power_dbm=23.0,
    noise_psd_dbm_hz=-169.0,
    bandwidth_hz=1e7,
    cell_distance_km=1.0,
    convergence_delta=1e-3,
    threshold_cd=0.1,
    threshold_bcd=0.12,
    rng_seed=12345,
)


def make_config(**overrides) -> SystemConfig:
    """A small valid config, with any field overridable."""
    return SystemConfig(**{**DEFAULTS, **overrides})


def make_scenario(config: SystemConfig, seed: int):
    """Draw (preambles, truth, sample covariance) from one seed."""
    rng = np.random.default_rng(seed)
    preambles = generate_preambles(config, rng)
    truth = draw_ground_truth(config, rng)
    received = synthesize_received_signal(preambles, truth, config, rng)
    return preambles, truth, sample_covariance(received)


def package_env() -> dict:
    """This environment with the tested package's ``src`` first on
    PYTHONPATH, for running it in a subprocess."""
    src = str(Path(covdet.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
