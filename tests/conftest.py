"""Shared scenario builders and subprocess helpers for the test suite."""

import os
from pathlib import Path

import numpy as np

import covdet
from covdet import likelihood
from covdet.siggen import (
    draw_ground_truth,
    generate_preambles,
    sample_covariance,
    synthesize_received_signal,
)
from covdet.sysmodel import GroundTruth, SystemConfig

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


def make_truth(pairs) -> GroundTruth:
    """The ground truth whose active devices and delays are ``pairs``."""
    return GroundTruth({int(n): int(tau) for n, tau in pairs})


def make_scenario(config: SystemConfig, seed: int):
    """Draw (preambles, truth, sample covariance) from one seed."""
    rng = np.random.default_rng(seed)
    preambles = generate_preambles(config, rng)
    truth = draw_ground_truth(config, rng)
    received = synthesize_received_signal(preambles, truth, config, rng)
    return preambles, truth, sample_covariance(received)


def block_visit_by_hand(state, sigma_tilde, n):
    """One ``bcd`` visit of device ``n``'s block through the public step
    functions.

    The block's entry, if any, is removed, every delay is scored from the
    zeroed state and the best one is committed (ties to the smallest
    delay), as ``likelihood.block_sweep`` does. Returns the objective
    change and ``None``, ``"same"``, ``"moved"`` or ``"emptied"`` for
    where the block's entry went.
    """
    row = state.gamma[n]
    old_tau = int(np.argmax(row))
    removed = float(row[old_tau])
    total = 0.0
    if removed > 0.0:
        total += likelihood.objective_delta(state, sigma_tilde, n, old_tau, -removed)
        likelihood.rank_one_inverse_update(state, n, old_tau, -removed)
    best = None
    best_delta = 0.0
    for tau in range(state.gamma.shape[1]):
        eta = likelihood.coordinate_step(state, sigma_tilde, n, tau)
        if eta <= 0.0:
            continue
        delta = likelihood.objective_delta(state, sigma_tilde, n, tau, eta)
        if delta < best_delta:
            best, best_delta = (tau, eta), delta
    if best is not None:
        likelihood.rank_one_inverse_update(state, n, *best)
        total += best_delta
    if removed == 0.0:
        return total, None
    return total, "emptied" if best is None else "same" if best[0] == old_tau else "moved"


def degenerate_removals(monkeypatch):
    """Make the zeroed state of every ``bcd`` removal degenerate.

    Patches ``likelihood.step_increment`` so that a removal (``eta < 0``)
    returns the denominator ``eta * quad / 2``; the zeroed-state
    ``quad + gamma * quad^2 / denom`` of the removed column is then
    ``-quad``, which the scoring that follows must reject.
    """
    real = likelihood.step_increment

    def degenerate(eta, quad, fit):
        delta, denom = real(eta, quad, fit)
        return (delta, eta * quad / 2.0) if eta < 0.0 else (delta, denom)

    monkeypatch.setattr(likelihood, "step_increment", degenerate)


def package_env() -> dict:
    """This environment with the tested package's ``src`` first on
    PYTHONPATH, for running it in a subprocess."""
    src = str(Path(covdet.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
