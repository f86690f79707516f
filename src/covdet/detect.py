"""Joint activity and delay detectors.

Two detectors over the same covariance-matching objective:

* ``run_cd_e``: plain coordinate descent over all (device, delay)
  coordinates, then a per-device keep-max enforcement pass, then
  thresholding.
* ``run_bcd``: block coordinate descent that re-optimizes one device's
  delay block at a time, keeping at most one nonzero delay per device
  at every step, then thresholding.

Both start from ``prepare``, the one statement of their setup, and run
their passes in the kernel in ``likelihood`` (rank-one updates of
Sigma^{-1}, closed-form objective increments, the fit form from a
low-rank factor of the sample covariance): one ``column_sweep`` or
``block_sweep`` call per pass, over ``column_plan``'s or
``block_plan``'s views of the Fortran-ordered dictionary that
``siggen.effective_dictionary`` builds once per run, and of the buffers
that the pass's products go into. ``column_plan``
picks the column pass from the window length alone: column by column
below ``likelihood.COLUMN_WINDOW_DIM`` (so at desk.json's D=32), in
windows of ``COLUMN_WINDOW`` columns with one stack product each from it
on (so at full.json's D=104). One sweep driver
owns the sweep count, the periodic dense refresh, the stop rule and the
error location.
``bcd`` scores a device's whole delay block, the removal of its entry
included, from the block's products and their two Gram matrices.

The detectors' settings (sweep cap, refresh cadence, stop tolerance and
thresholds) are this module's constants, not config fields.

A run returns a ``DetectionResult``: the final estimate and the
objective trace. The declared (device, delay) pairs, the sweep count and
the final objective are read off those two.
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
    """Keep only each device's maximal gamma entry, zeroing the rest.

    Ties go to the smallest delay. All-zero blocks stay all-zero.
    """
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

    Requires a block-sparse estimate (at most one nonzero per device row)
    so each device maps to one delay.
    """
    devices = gamma.nonzero()[0].tolist()
    # a device listed twice holds two nonzero delays
    if len(set(devices)) < len(devices):
        raise ValueError("indicator extraction requires a block-sparse estimate")
    rows, cols = (gamma > 0.0).nonzero()
    return frozenset(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class DetectionResult:
    """Final output of one detector run, ready for scoring.

    ``gamma_hat`` is the ``(N, tau_max+1)`` estimate, at most one nonzero
    delay per device; ``theta_hat`` holds the (device, delay) pairs
    ``to_indicators`` reads off it. ``objective_trace`` records the
    objective after initialization and after each full sweep, before any
    enforcement or thresholding.
    """

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
    """Shared detector setup: input checks, then ``(sigma_tilde as complex128,
    its fit factor F^H, the fresh state at gamma = 0 on the dictionary)``.

    ``config`` is not re-checked: a ``SystemConfig`` is valid once built.
    The preambles are checked against it, and the sample covariance once
    per run, by ``likelihood.init_state``: a ``(window, window)`` array,
    finite, and Hermitian to within ``1e-10 * max(1, max|S|)``; then
    ``likelihood.fit_factor`` rejects one that is not positive
    semidefinite.

    ``effective_dictionary`` builds the dictionary Fortran-ordered, so a
    column or a device's block of columns reaches BLAS without a copy.
    """
    preambles = check_preambles(preambles, config)
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    dictionary = effective_dictionary(preambles, config.max_delay)
    state = likelihood.init_state(dictionary, config.sigma2, st, config.num_delays)
    return st, likelihood.fit_factor(st), state


def _descend(state, st, track, run_pass, unit, estimate):
    """The sweep driver both detectors share.

    Each sweep runs one ascending pass, ``run_pass(tracked, objective)``,
    which updates ``tracked`` and gamma in place and returns the new
    objective. Every ``RECOMPUTE_EVERY`` sweeps the state is densely
    refreshed; ``track(state)`` builds ``tracked`` at the start and after
    each refresh. Stops once a sweep improves the objective by at most
    ``CONVERGENCE_DELTA`` and returns the result whose estimate is
    ``estimate(state.gamma)``; raises after ``MAX_SWEEPS``. A sweep's
    improvement is read from its tracked objective before any refresh, so
    the refresh's drift correction never counts as progress.

    A ``NumericalDegeneracyError`` is re-raised with where it happened:
    ``at sweep S, <unit> <index>`` from the pass, ``at sweep S`` from the
    dense refresh.
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

    Sweeps every (device, delay) coordinate in ascending order
    (``likelihood.column_sweep``), applying the closed-form step and the
    rank-one inverse update, until one full sweep improves the objective
    by at most ``CONVERGENCE_DELTA``. The relaxed estimate is then
    reduced to one delay per device (keep-max), thresholded at
    ``THRESHOLD_CD``, and converted to indicator pairs.
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

    For each device block (``likelihood.block_sweep``): the block's
    current nonzero entry (if any) is removed; each candidate delay is
    then scored speculatively from that zeroed state with its own
    closed-form optimum and objective increment; the candidate with
    minimal objective is committed (ties to the smallest delay, among
    changes equal as computed: after a removal, exact ties in the zeroed
    state are split by the rounding of its closed form). Because
    re-inserting the removed entry is always among the candidates, a
    block pass never increases the objective. Stops when a full pass over
    all blocks improves the objective by at most ``CONVERGENCE_DELTA``,
    then thresholds at ``THRESHOLD_BCD``. No enforcement pass is needed.

    A visit scores its block from ``v = Sigma^-1 block`` and the block's
    own Gram products, ``G_q = block^H v`` and ``G_f``; from
    ``likelihood.COLUMN_WINDOW_DIM`` on (so at full.json's D=104, not at
    desk.json's D=32), Sigma^-1 takes a window's commits at its end. A
    ``NumericalDegeneracyError`` names the sweep and the device, and
    Sigma^-1 then holds every commit before it.
    """
    st, factor_h, state = prepare(preambles, sigma_tilde, config)
    plan = likelihood.block_plan(state.dictionary, config.num_delays)
    return _descend(
        state, st,
        lambda state: state.inv_sigma,
        lambda inv, objective: likelihood.block_sweep(inv, factor_h, plan, state.gamma, objective),
        "device",
        lambda gamma: threshold(gamma, THRESHOLD_BCD),
    )
