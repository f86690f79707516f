"""Joint activity and delay detectors.

Both detectors, ``run_cd_e`` and ``run_bcd``, fit the covariance-matching
objective of ``likelihood``: they start from ``prepare`` and run one
``likelihood`` pass per sweep under ``_descend``, which owns the sweep
count, the periodic dense refresh, the stop rule and the error location. Their settings (sweep cap, refresh cadence, stop tolerance and
thresholds) are this module's constants, not config fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import likelihood
from .siggen import check_preambles, effective_dictionary
from .sysmodel import ConvergenceError, NumericalDegeneracyError, SystemConfig

# hard cap on outer sweeps; exceeding it raises instead of returning silently
MAX_SWEEPS = 1000
# dense Sigma^{-1} / objective refresh cadence, in full sweeps
RECOMPUTE_EVERY = 10
# stop once a sweep lowers the objective by at most this much
CONVERGENCE_DELTA = 1e-3
# detection thresholds of cd_e (after keep-max) and bcd: absolute powers on
# the working scale of unit noise, so unlike the ML fit they do not scale
# with the transmit power (ROADMAP item "Scale-free detection thresholds")
THRESHOLD_CD = 0.1
THRESHOLD_BCD = 0.12


def enforce_block_sparsity(gamma: np.ndarray) -> np.ndarray:
    """Keep only each device's maximal gamma entry, zeroing the rest; ties
    go to the smallest delay, and all-zero blocks stay all-zero."""
    best = gamma.argmax(axis=1)  # first occurrence wins ties
    return np.where(np.arange(gamma.shape[1]) == best[:, None], gamma, 0.0)


def threshold(gamma: np.ndarray, t: float) -> np.ndarray:
    """Zero out entries below ``t``; entries >= t survive (inclusive)."""
    # no entry survives a NaN or infinite t; NaN fails both comparisons
    if not 0.0 < t < np.inf:
        raise ValueError(f"threshold must be a finite positive number, got {t}")
    return np.where(gamma >= t, gamma, 0.0)


def to_indicators(gamma: np.ndarray) -> frozenset:
    """Detected (device, delay) pairs: coordinates with gamma > 0.
    ``ValueError`` unless the estimate is block-sparse (at most one nonzero
    per device row)."""
    devices = gamma.nonzero()[0].tolist()
    # a device listed twice holds two nonzero delays
    if len(set(devices)) < len(devices):
        raise ValueError("indicator extraction requires a block-sparse estimate")
    rows, cols = (gamma > 0.0).nonzero()
    return frozenset(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class DetectionResult:
    """One detector run's ``(N, tau_max+1)`` estimate ``gamma_hat``, at most
    one nonzero delay per device, its (device, delay) pairs ``theta_hat``,
    and ``objective_trace``: the objective after initialization and after
    each full sweep, before any enforcement or thresholding."""

    gamma_hat: np.ndarray  # (N, tau_max + 1) float64
    objective_trace: np.ndarray  # (sweeps + 1,)
    theta_hat: frozenset[tuple[int, int]] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", to_indicators(self.gamma_hat))

    @property
    def iterations(self) -> int:
        """Number of full sweeps run."""
        return self.objective_trace.size - 1

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1])


def prepare(preambles: np.ndarray, sigma_tilde, config: SystemConfig):
    """Shared detector setup: ``(sigma_tilde as complex128, its fit factor
    F^H, the fresh state at gamma = 0 on the effective dictionary)``.

    Raises ``ValueError`` for preambles or a sample covariance that
    ``check_preambles``, ``likelihood.init_state`` or ``fit_factor``
    rejects. ``config`` is valid once built, so it is not re-checked.
    """
    preambles = check_preambles(preambles, config)
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    dictionary = effective_dictionary(preambles, config.max_delay)
    state = likelihood.init_state(dictionary, config.sigma2, st, config.num_delays)
    return st, likelihood.fit_factor(st), state


def _descend(state, st, track, run_pass, unit, estimate):
    """The sweep driver both detectors share.

    Each sweep runs ``run_pass(tracked, objective)``, which updates
    ``tracked`` and gamma in place and returns the new objective;
    ``track(state)`` builds ``tracked`` at the start and after each dense
    refresh. Stops once a sweep, read before any refresh's drift
    correction, improves the objective by at most ``CONVERGENCE_DELTA``,
    and returns ``estimate(state.gamma)``'s result; ``ConvergenceError``
    after ``MAX_SWEEPS``. A ``NumericalDegeneracyError`` is re-raised with
    ``at sweep S, <unit> <index>``, or ``at sweep S`` from the refresh.
    """
    tracked = track(state)
    trace = [state.objective]
    for sweep in range(1, MAX_SWEEPS + 1):
        try:
            objective = run_pass(tracked, state.objective)
            decrement = trace[-1] - objective
            state.objective = objective
            if sweep % RECOMPUTE_EVERY == 0:
                del tracked  # freed before the refresh allocates its arrays
                likelihood.refresh_state(state, st)
                tracked = track(state)
        except NumericalDegeneracyError as exc:
            visit = "" if exc.index is None else f", {unit} {exc.index}"
            raise NumericalDegeneracyError(f"{exc} at sweep {sweep}{visit}") from exc
        trace.append(state.objective)
        if decrement <= CONVERGENCE_DELTA:
            break
    else:
        raise ConvergenceError(
            f"no convergence within {MAX_SWEEPS} sweeps (last decrement {decrement:.3e})"
        )
    return DetectionResult(estimate(state.gamma), np.asarray(trace))


def run_cd_e(preambles: np.ndarray, sigma_tilde, config: SystemConfig) -> DetectionResult:
    """Coordinate descent over all coordinates, then enforcement.

    Sweeps every (device, delay) coordinate in ascending order, then
    keeps each device's largest entry and thresholds at ``THRESHOLD_CD``.
    """
    st, factor_h, state = prepare(preambles, sigma_tilde, config)
    plan = likelihood.column_plan(state.dictionary, factor_h)
    # a view of the C-ordered gamma: the sweep writes through it
    flat_gamma = state.gamma.ravel()
    return _descend(
        state, st,
        lambda state: likelihood.column_stack(state, factor_h),
        lambda stack, objective: likelihood.column_sweep(stack, plan, flat_gamma, objective),
        "column",
        lambda gamma: threshold(enforce_block_sparsity(gamma), THRESHOLD_CD),
    )


def run_bcd(preambles: np.ndarray, sigma_tilde, config: SystemConfig) -> DetectionResult:
    """Block coordinate descent with one delay per device by construction.

    Each device's visit removes the block's entry, scores every delay from
    that zeroed state and commits the best, with ``likelihood.block_sweep``'s
    tie rule; then thresholds at ``THRESHOLD_BCD``.
    """
    st, factor_h, state = prepare(preambles, sigma_tilde, config)
    plan = likelihood.block_plan(state.dictionary, factor_h, config.num_delays)
    return _descend(
        state, st,
        lambda state: state.inv_sigma,
        lambda inv, objective: likelihood.block_sweep(inv, factor_h, plan, state.gamma, objective),
        "device",
        lambda gamma: threshold(gamma, THRESHOLD_BCD),
    )
