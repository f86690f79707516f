"""Joint activity and delay detectors.

Two detectors over the same covariance-matching objective:

* ``run_cd_e``: plain coordinate descent over all (device, delay)
  coordinates, then a per-device keep-max enforcement pass, then
  thresholding.
* ``run_bcd``: block coordinate descent that re-optimizes one device's
  delay block at a time, keeping at most one nonzero delay per device
  at every step, then thresholding.

Both run their passes in the kernel in ``likelihood`` (rank-one updates
of Sigma^{-1}, closed-form objective increments, the fit form from a
low-rank factor of the sample covariance): one ``column_sweep`` or
``block_sweep`` call per pass, over column or block views of the
dictionary built once per run. One sweep driver owns the sweep count,
the periodic dense refresh, the stop rule and the error location.
``bcd`` scores a device's whole delay block from one block product.
"""

from __future__ import annotations

import numpy as np

from . import likelihood
from .siggen import effective_dictionary
from .sysmodel import (
    ConvergenceError,
    DetectionResult,
    NumericalDegeneracyError,
    SystemConfig,
    validate,
)

# hard cap on outer sweeps; exceeding it raises instead of returning silently
MAX_SWEEPS = 1000
# dense Sigma^{-1} / objective refresh cadence, in full sweeps
RECOMPUTE_EVERY = 10


def enforce_block_sparsity(gamma: np.ndarray) -> np.ndarray:
    """Keep only each device's maximal gamma entry, zeroing the rest.

    Ties go to the smallest delay. All-zero blocks stay all-zero.
    """
    out = np.zeros_like(gamma)
    best = np.argmax(gamma, axis=1)  # first occurrence wins ties
    rows = np.arange(gamma.shape[0])
    out[rows, best] = gamma[rows, best]
    return out


def threshold(gamma: np.ndarray, t: float) -> np.ndarray:
    """Zero out entries below ``t``; entries >= t survive (inclusive)."""
    if t <= 0:
        raise ValueError(f"threshold must be positive, got {t}")
    return np.where(gamma >= t, gamma, 0.0)


def to_indicators(gamma: np.ndarray) -> frozenset:
    """Detected (device, delay) pairs: coordinates with gamma > 0.

    Requires a block-sparse estimate (at most one nonzero per device row)
    so each device maps to one delay.
    """
    if np.any(np.count_nonzero(gamma, axis=1) > 1):
        raise ValueError("indicator extraction requires a block-sparse estimate")
    return frozenset((int(n), int(tau)) for n, tau in np.argwhere(gamma > 0.0))


def _prepare(preambles: np.ndarray, sigma_tilde, config: SystemConfig):
    """Shared detector setup: input checks, dictionary, fit factor,
    fresh state.

    The sample covariance is checked here and nowhere else: a
    ``(window, window)`` array, finite, and Hermitian to within
    ``1e-10 * max(1, max|S|)``. The fit factor reads only its lower
    triangle, so an asymmetric array would otherwise be fitted silently.

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
    if not np.all(np.isfinite(preambles)):
        raise ValueError("preambles have NaN or Inf entries")
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    if st.shape != (config.window_len, config.window_len):
        raise ValueError(
            f"sample covariance shape {st.shape} does not match "
            f"window length {config.window_len}"
        )
    if not np.all(np.isfinite(st)):
        raise ValueError("sample covariance has NaN or Inf entries")
    if np.abs(st - st.conj().T).max() > 1e-10 * max(1.0, float(np.abs(st).max())):
        raise ValueError("sample covariance must be Hermitian")
    dictionary = np.asfortranarray(effective_dictionary(preambles, config.max_delay))
    state = likelihood.init_state(dictionary, config.sigma2, st, config.num_delays)
    return dictionary, st, likelihood.fit_factor(st), state


def _descend(state, st, config, run_pass, unit, estimate):
    """The sweep driver both detectors share.

    Each sweep runs one ascending pass, ``run_pass(inv, objective)``,
    which updates ``inv`` and gamma in place and returns the new
    objective. Every ``RECOMPUTE_EVERY`` sweeps the state is densely
    refreshed. Stops once a sweep improves the objective by at most
    ``config.convergence_delta`` and returns the result whose estimate is
    ``estimate(state.gamma)``; raises after ``MAX_SWEEPS``. A sweep's
    improvement is read from its tracked objective before any refresh, so
    the refresh's drift correction never counts as progress.
    """
    trace = [state.objective]
    for sweep in range(1, MAX_SWEEPS + 1):
        try:
            objective = run_pass(state.inv_sigma, state.objective)
        except NumericalDegeneracyError as exc:
            raise NumericalDegeneracyError(
                f"{exc} at sweep {sweep}, {unit} {exc.index}"
            ) from exc
        decrement = trace[-1] - objective
        state.objective = objective
        if sweep % RECOMPUTE_EVERY == 0:
            likelihood.refresh_state(state, st)
        trace.append(state.objective)
        if decrement <= config.convergence_delta:
            break
    else:
        raise ConvergenceError(
            f"no convergence within {MAX_SWEEPS} sweeps (last decrement {decrement:.3e})"
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

    Sweeps every (device, delay) coordinate in ascending order
    (``likelihood.column_sweep``), applying the closed-form step and the
    rank-one inverse update, until one full sweep improves the objective
    by at most ``config.convergence_delta``. The relaxed estimate is then
    reduced to one delay per device (keep-max), thresholded at
    ``config.threshold_cd``, and converted to indicator pairs.
    """
    dictionary, st, factor_h, state = _prepare(preambles, sigma_tilde, config)
    columns = list(dictionary.T)
    # a view of the C-ordered gamma: the sweep writes through it
    flat_gamma = state.gamma.ravel()
    return _descend(
        state, st, config,
        lambda inv, objective: likelihood.column_sweep(
            inv, factor_h, columns, flat_gamma, objective
        ),
        "column",
        lambda gamma: threshold(enforce_block_sparsity(gamma), config.threshold_cd),
    )


def run_bcd(preambles: np.ndarray, sigma_tilde, config: SystemConfig) -> DetectionResult:
    """Block coordinate descent with one delay per device by construction.

    For each device block (``likelihood.block_sweep``): the block's
    current nonzero entry (if any) is removed; each candidate delay is
    then scored speculatively from that zeroed state with its own
    closed-form optimum and objective increment; the candidate with
    minimal objective is committed (ties to the smallest delay). Because
    re-inserting the removed entry is always among the candidates, a
    block pass never increases the objective. Stops when a full pass over
    all blocks improves the objective by at most
    ``config.convergence_delta``, then thresholds at
    ``config.threshold_bcd``. No enforcement pass is needed.
    """
    dictionary, st, factor_h, state = _prepare(preambles, sigma_tilde, config)
    k = config.num_delays
    blocks = [dictionary[:, n * k : (n + 1) * k] for n in range(config.num_devices)]
    return _descend(
        state, st, config,
        lambda inv, objective: likelihood.block_sweep(
            inv, factor_h, blocks, state.gamma, objective
        ),
        "device",
        lambda gamma: threshold(gamma, config.threshold_bcd),
    )
