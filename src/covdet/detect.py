"""Joint activity and delay detectors.

Two detectors over the same covariance-matching objective:

* ``run_cd_e``: plain coordinate descent over all (device, delay)
  coordinates, then a per-device keep-max enforcement pass, then
  thresholding.
* ``run_bcd``: block coordinate descent that re-optimizes one device's
  delay block at a time, keeping at most one nonzero delay per device
  at every step, then thresholding.

Both visit coordinates through the kernel in ``likelihood`` (rank-one
updates of Sigma^{-1}, closed-form objective increments, the fit form
from a low-rank factor of the sample covariance) under one sweep driver
that owns the visit order, the periodic dense refresh and the stop rule.
``bcd`` scores a device's whole delay block with one kernel call.
"""

from __future__ import annotations

import numpy as np

from . import likelihood
from .likelihood import apply_rank_one, column_terms, step_increment
from .siggen import effective_dictionary
from .sysmodel import (
    ConvergenceError,
    DetectionResult,
    GammaEstimate,
    NumericalDegeneracyError,
    SystemConfig,
    validate,
)

# hard cap on outer sweeps; exceeding it raises instead of returning silently
MAX_SWEEPS = 1000
# dense Sigma^{-1} / objective refresh cadence, in full sweeps
RECOMPUTE_EVERY = 10


def enforce_block_sparsity(gamma: GammaEstimate) -> GammaEstimate:
    """Keep only each device's maximal gamma entry, zeroing the rest.

    Ties go to the smallest delay. All-zero blocks stay all-zero.
    """
    values = gamma.values
    out = np.zeros_like(values)
    best = np.argmax(values, axis=1)  # first occurrence wins ties
    rows = np.arange(values.shape[0])
    out[rows, best] = values[rows, best]
    return GammaEstimate(out)


def threshold(gamma: GammaEstimate, t: float) -> GammaEstimate:
    """Zero out entries below ``t``; entries >= t survive (inclusive)."""
    if t <= 0:
        raise ValueError(f"threshold must be positive, got {t}")
    return GammaEstimate(np.where(gamma.values >= t, gamma.values, 0.0))


def to_indicators(gamma: GammaEstimate) -> frozenset:
    """Detected (device, delay) pairs: coordinates with gamma > 0.

    Requires a block-sparse estimate so each device maps to one delay.
    """
    if not gamma.is_block_sparse():
        raise ValueError("indicator extraction requires a block-sparse estimate")
    return frozenset((int(n), int(tau)) for n, tau in np.argwhere(gamma.values > 0.0))


def _prepare(preambles: np.ndarray, sigma_tilde, config: SystemConfig):
    """Shared detector setup: dimension checks, dictionary, fit factor,
    fresh state.

    The dictionary is Fortran-ordered so that a column or a device's
    block of columns reaches BLAS without a copy.
    """
    validate(config, allow_inactive=True)
    expected = (config.preamble_len, config.num_devices)
    if preambles.shape != expected:
        raise ValueError(
            f"preambles must have shape (preamble length, device count) = "
            f"{expected}, got {preambles.shape}"
        )
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    if st.shape != (config.window_len, config.window_len):
        raise ValueError(
            f"sample covariance shape {st.shape} does not match "
            f"window length {config.window_len}"
        )
    if not np.all(np.isfinite(st)):
        raise ValueError("sample covariance has NaN or Inf entries")
    dictionary = np.asfortranarray(effective_dictionary(preambles, config.max_delay))
    state = likelihood.init_state(dictionary, config.sigma2, st, config.num_delays)
    return dictionary, st, likelihood.fit_factor(st), state


def _descend(state, st, config, num_units, visit, unit, estimate):
    """The sweep driver both detectors share.

    Each sweep calls ``visit(index, inv, objective)`` on every unit index
    in ascending order; ``visit`` updates ``inv`` and gamma in place and
    returns the new objective. Every ``RECOMPUTE_EVERY`` sweeps the state
    is densely refreshed. Stops once a sweep improves the objective by at
    most ``config.convergence_delta`` and returns the result whose
    estimate is ``estimate(state.gamma)``; raises after ``MAX_SWEEPS``.
    """
    trace = [state.objective]
    for sweep in range(1, MAX_SWEEPS + 1):
        inv = state.inv_sigma
        objective = state.objective
        try:
            for index in range(num_units):
                objective = visit(index, inv, objective)
        except NumericalDegeneracyError as exc:
            raise NumericalDegeneracyError(f"{exc} at sweep {sweep}, {unit} {index}") from exc
        state.objective = objective
        if sweep % RECOMPUTE_EVERY == 0:
            likelihood.refresh_state(state, st)
        trace.append(state.objective)
        if trace[-2] - trace[-1] <= config.convergence_delta:
            break
    else:
        raise ConvergenceError(
            f"no convergence within {MAX_SWEEPS} sweeps "
            f"(last decrement {trace[-2] - trace[-1]:.3e})"
        )

    gamma_hat = estimate(state.gamma)
    return DetectionResult(
        theta_hat=to_indicators(gamma_hat),
        gamma_hat=gamma_hat,
        iterations=sweep,
        final_objective=float(trace[-1]),
        objective_trace=np.asarray(trace),
    )


def run_cd_e(preambles: np.ndarray, sigma_tilde, config: SystemConfig) -> DetectionResult:
    """Coordinate descent over all coordinates, then enforcement.

    Sweeps every (device, delay) coordinate in ascending order, applying
    the closed-form step and the rank-one inverse update, until one full
    sweep improves the objective by at most ``config.convergence_delta``.
    The relaxed estimate is then reduced to one delay per device
    (keep-max), thresholded at ``config.threshold_cd``, and converted to
    indicator pairs.
    """
    dictionary, st, factor_h, state = _prepare(preambles, sigma_tilde, config)
    gamma_values = state.gamma.values.ravel()

    def visit(j, inv, objective):
        v, quad, fit, step = column_terms(inv, factor_h, dictionary[:, j])
        eta = max(step, -gamma_values[j])
        if eta == 0.0:
            return objective
        delta, denom = step_increment(eta, quad, fit)
        apply_rank_one(inv, v, eta, denom)
        gamma_values[j] = max(gamma_values[j] + eta, 0.0)
        return objective + delta

    return _descend(
        state, st, config, dictionary.shape[1], visit, "column",
        lambda gamma: threshold(enforce_block_sparsity(gamma), config.threshold_cd),
    )


def run_bcd(
    preambles: np.ndarray, sigma_tilde, config: SystemConfig, *, block_audit=None
) -> DetectionResult:
    """Block coordinate descent with one delay per device by construction.

    For each device block: the block's current nonzero entry (if any) is
    removed with one rank-one downdate; each candidate delay is then
    scored speculatively from that zeroed state with its own closed-form
    optimum and objective increment; the candidate with minimal objective
    is committed (ties to the smallest delay). Because re-inserting the
    removed entry is always among the candidates, a block pass never
    increases the objective. Stops when a full pass over all blocks
    improves the objective by at most ``config.convergence_delta``, then
    thresholds at ``config.threshold_bcd``. No enforcement pass is
    needed.

    ``block_audit``, if given, is called with the gamma matrix after
    every block commit (testing hook for the one-per-block invariant).
    """
    dictionary, st, factor_h, state = _prepare(preambles, sigma_tilde, config)
    num_delays = config.num_delays
    gamma_values = state.gamma.values

    def visit(n, inv, objective):
        base = n * num_delays
        row = gamma_values[n]
        # downdate the block's existing entry, if any, to reach the
        # zeroed reference state shared by all candidates
        old_tau = int(np.argmax(row))
        if row[old_tau] > 0.0:
            eta = -float(row[old_tau])
            v, quad, fit, _ = column_terms(inv, factor_h, dictionary[:, base + old_tau])
            delta, denom = step_increment(eta, quad, fit)
            apply_rank_one(inv, v, eta, denom)
            objective += delta
            row[old_tau] = 0.0
        # speculative candidates, all from one kernel call on the block:
        # optimal step and objective change per delay, measured from the
        # zeroed state; keeping the block empty scores 0
        block = dictionary[:, base : base + num_delays]
        v, quads, fits, steps = column_terms(inv, factor_h, block)
        candidates = zip(quads.tolist(), fits.tolist(), steps.tolist())
        best = None
        best_delta = 0.0
        for tau, (quad, fit, eta) in enumerate(candidates):
            if eta <= 0.0:
                continue
            delta, denom = step_increment(eta, quad, fit)
            if delta < best_delta:
                best, best_delta = (tau, eta, denom), delta
        if best is not None:
            tau, eta, denom = best
            apply_rank_one(inv, v[:, tau], eta, denom)
            objective += best_delta
            row[tau] = eta
        if block_audit is not None:
            block_audit(gamma_values)
        return objective

    return _descend(
        state, st, config, config.num_devices, visit, "device",
        lambda gamma: threshold(gamma, config.threshold_bcd),
    )
