"""Brute-force reference implementations for the tests.

Everything here recomputes from scratch: covariance assembly by an
explicit loop; log-determinants from eigenvalues and trace terms from
explicit inverses, over a stack of covariances at once; each coordinate
step's ``Sigma^{-1} s`` by a dense linear solve, also in whole ``cd_e``
and ``bcd`` runs; 1-D minimization by grid search; and support selection
by exhaustive enumeration, every support descended in one stack. No
Cholesky factors, no rank-one updates, no code shared with the
incremental path, so agreement between the two is evidence.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

_TOL = 1e-10  # a support is optimized once a sweep gains at most this
_MAX_SWEEPS = 500


def _delayed_columns(matrix: np.ndarray, max_delay: int) -> np.ndarray:
    """Zero-padded delayed copies of each preamble, one column per
    (device, delay), device-major. Deliberately a plain double loop."""
    length, num_devices = matrix.shape
    dim = length + max_delay
    columns = np.zeros((dim, num_devices * (max_delay + 1)), dtype=np.complex128)
    j = 0
    for n in range(num_devices):
        for tau in range(max_delay + 1):
            columns[tau : tau + length, j] = matrix[:, n]
            j += 1
    return columns


def _covariance_from_columns(
    columns: np.ndarray, gamma_flat: np.ndarray, sigma2: float
) -> np.ndarray:
    """Sum of gamma-weighted outer products plus sigma2 I, term by term."""
    dim = columns.shape[0]
    cov = sigma2 * np.eye(dim, dtype=np.complex128)
    for j, g in enumerate(gamma_flat):
        if g != 0.0:
            cov += g * np.outer(columns[:, j], columns[:, j].conj())
    return cov


def _evaluate(covs: np.ndarray, st: np.ndarray) -> tuple:
    """Inverses and objectives (log det + trace term) of a ``(..., D, D)``
    stack of Hermitian covariances: the log det from the eigenvalues, the
    trace term from an explicit inverse."""
    eigvals = np.linalg.eigvalsh(covs)
    if np.any(eigvals <= 0):
        raise ValueError(f"covariance not positive definite (min eig {eigvals.min()})")
    invs = np.linalg.inv(covs)
    objectives = np.sum(np.log(eigvals), axis=-1) + np.real(
        np.einsum("...ij,ji->...", invs, st)
    )
    return invs, objectives


def dense_inverse(cov: np.ndarray) -> np.ndarray:
    """Hermitian inverse, after a positive-definiteness check."""
    return _evaluate(cov, np.zeros_like(cov))[0]


def dense_covariance(preambles: np.ndarray, gamma: np.ndarray, sigma2: float) -> np.ndarray:
    """Model covariance of the ``(N, tau_max+1)`` estimate ``gamma``,
    assembled independently of the library path."""
    columns = _delayed_columns(preambles, gamma.shape[1] - 1)
    return _covariance_from_columns(columns, gamma.ravel(), sigma2)


def dense_objective(
    preambles: np.ndarray, gamma: np.ndarray, sigma2: float, sigma_tilde
) -> float:
    """Fit objective evaluated densely from first principles."""
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    return float(_evaluate(dense_covariance(preambles, gamma, sigma2), st)[1])


def grid_min_1d(
    preambles: np.ndarray,
    gamma: np.ndarray,
    sigma2: float,
    sigma_tilde,
    device: int,
    delay: int,
    grid_points: int = 10001,
    upper: float | None = None,
) -> float:
    """Grid argmin of the objective along one gamma coordinate.

    Returns the best offset eta over a uniform grid on
    ``[-gamma[device, delay], upper]`` (default upper:
    ``gamma[device, delay] + 10``) from the ``(N, tau_max+1)`` estimate
    ``gamma``. Ties go to the smallest offset.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    current = float(gamma[device, delay])
    if upper is None:
        upper = current + 10.0
    num_delays = gamma.shape[1]
    columns = _delayed_columns(preambles, num_delays - 1)
    base = _covariance_from_columns(columns, gamma.ravel(), sigma2)
    s = columns[:, device * num_delays + delay]
    bump = np.outer(s, s.conj())
    etas = np.linspace(-current, upper, grid_points)
    values = np.empty(grid_points)
    for start in range(0, grid_points, 2048):
        chunk = etas[start : start + 2048]
        covs = base + chunk[:, None, None] * bump
        values[start : start + len(chunk)] = _evaluate(covs, st)[1]
    return float(etas[int(np.argmin(values))])


def reference_run(
    preambles: np.ndarray,
    sigma_tilde,
    sigma2: float,
    num_delays: int,
    delta: float,
    block: bool,
) -> tuple:
    """A whole ``cd_e`` (``block=False``) or ``bcd`` (``block=True``)
    descent, every visit's ``Sigma^{-1} s`` from a dense solve of the
    covariance assembled afresh.

    Devices are visited in ascending order, and within a device its delays.
    ``cd_e`` steps each coordinate to its closed-form optimum, clipped at
    gamma >= 0. ``bcd`` empties the device's block, scores every delay's
    positive step by its exact objective change from that zeroed state,
    and commits the lowest negative change, ties to the smallest delay.
    A run stops after the first sweep whose dense objective drops by at
    most ``delta``. Returns ``(gamma, trace)``: the relaxed
    ``(N, num_delays)`` estimate and the dense objective at the start and
    after every sweep.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    columns = _delayed_columns(preambles, num_delays - 1)
    gamma = np.zeros((preambles.shape[1], num_delays))

    def terms(j):
        # (quad, fit) = (s^H Sigma^-1 s, s^H Sigma^-1 S Sigma^-1 s) of column j
        s = columns[:, j]
        v = np.linalg.solve(_covariance_from_columns(columns, gamma.ravel(), sigma2), s)
        return np.vdot(s, v).real, np.vdot(v, st @ v).real

    def objective():
        cov = _covariance_from_columns(columns, gamma.ravel(), sigma2)
        return float(_evaluate(cov, st)[1])

    trace = [objective()]
    for _ in range(_MAX_SWEEPS):
        for n in range(gamma.shape[0]):
            if block:
                gamma[n] = 0.0
                best, best_change = None, 0.0
                for tau in range(num_delays):
                    quad, fit = terms(n * num_delays + tau)
                    eta = (fit - quad) / quad**2
                    if eta > 0.0:
                        change = math.log1p(eta * quad) - eta * fit / (1.0 + eta * quad)
                        if change < best_change:
                            best, best_change = (tau, eta), change
                if best is not None:
                    gamma[n, best[0]] = best[1]
            else:
                for tau in range(num_delays):
                    quad, fit = terms(n * num_delays + tau)
                    gamma[n, tau] += max((fit - quad) / quad**2, -gamma[n, tau])
        trace.append(objective())
        if trace[-2] - trace[-1] <= delta:
            return gamma, np.array(trace)
    raise ValueError(f"reference run did not stop within {_MAX_SWEEPS} sweeps")


class ExhaustiveResult(NamedTuple):
    support: frozenset
    gamma: np.ndarray  # (N, tau_max + 1)
    objective: float


def exhaustive_support_search(
    preambles: np.ndarray,
    sigma_tilde,
    sigma2: float,
    candidate_budget: int = 20000,
) -> ExhaustiveResult:
    """Globally best block-sparse support by full enumeration.

    Every assignment of each device to {inactive, delay 0, ..., delay
    tau_max} is optimized by cyclic coordinate descent restricted to its
    own columns, visited by ascending device, every step solving that
    support's current covariance for ``Sigma^{-1} s`` from scratch. All
    supports descend together as one ``(B, D, D)`` stack; a support
    leaves it once a sweep lowers its objective by at most 1e-10 (or
    after 500 sweeps). The first assignment, in enumeration order with
    all-inactive first, of smallest optimized objective wins. tau_max is
    inferred from the sample covariance dimension. Only viable for tiny
    instances; the enumeration count must fit in ``candidate_budget``.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    preamble_len, num_devices = preambles.shape
    max_delay = st.shape[0] - preamble_len
    if max_delay < 0:
        raise ValueError(
            f"sample covariance dimension {st.shape[0]} smaller than "
            f"preamble length {preamble_len}"
        )
    num_delays = max_delay + 1
    total = (num_delays + 1) ** num_devices
    if total > candidate_budget:
        raise ValueError(
            f"support enumeration needs {total} candidates, budget is {candidate_budget}"
        )
    columns = _delayed_columns(preambles, max_delay)
    # row b: each device's delay under assignment b, -1 for inactive
    assignments = np.array(
        list(itertools.product(range(-1, num_delays), repeat=num_devices))
    )
    gammas = np.zeros((total, columns.shape[1]))
    objectives = np.empty(total)
    live = np.arange(total)  # the supports still descending
    noise = sigma2 * np.eye(st.shape[0], dtype=np.complex128)
    covs = np.repeat(noise[None], total, axis=0)
    current = _evaluate(covs, st)[1]
    for _ in range(_MAX_SWEEPS):
        for n in range(num_devices):
            # the live supports that hold device n, and the column each holds
            rows = np.flatnonzero(assignments[live, n] >= 0)
            held = live[rows]
            j = n * num_delays + assignments[held, n]
            s = columns[:, j].T
            sub = covs[rows]
            v = np.linalg.solve(sub, s[..., None])[..., 0]
            # one reduction for both terms, so a zero slope steps exactly 0
            quad = np.real(np.sum(s.conj() * v, axis=-1))
            fit = np.real(np.sum(v.conj() * (v @ st.T), axis=-1))
            eta = np.maximum((fit - quad) / (quad * quad), -gammas[held, j])
            gammas[held, j] += eta
            covs[rows] = sub + eta[:, None, None] * (s[:, :, None] * s[:, None, :].conj())
        previous, current = current, _evaluate(covs, st)[1]
        done = previous - current <= _TOL
        objectives[live[done]] = current[done]
        live, covs, current = live[~done], covs[~done], current[~done]
        if not live.size:
            break
    objectives[live] = current
    best = int(np.argmin(objectives))
    return ExhaustiveResult(
        support=frozenset(
            (n, int(tau)) for n, tau in enumerate(assignments[best]) if tau >= 0
        ),
        gamma=gammas[best].reshape(num_devices, num_delays),
        objective=float(objectives[best]),
    )
