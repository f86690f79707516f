"""Brute-force reference implementations, used only by tests.

Everything here recomputes from scratch: covariance assembly by an
explicit loop, inverses and log-determinants by eigendecomposition,
1-D minimization by grid search, and support selection by exhaustive
enumeration. No Cholesky factors, no rank-one updates, no code shared
with the incremental path, so agreement between the two is evidence.

Not part of the public package surface.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .sysmodel import CovarianceState, GammaEstimate


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


def _objective_from_cov(cov: np.ndarray, sigma_tilde: np.ndarray) -> float:
    """log det + trace term via a full eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    if np.any(eigvals <= 0):
        raise ValueError(f"covariance not positive definite (min eig {eigvals.min()})")
    inv = (eigvecs / eigvals) @ eigvecs.conj().T
    return float(np.sum(np.log(eigvals)) + np.real(np.vdot(sigma_tilde, inv)))


def dense_inverse(cov: np.ndarray) -> np.ndarray:
    """Hermitian inverse via eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    if np.any(eigvals <= 0):
        raise ValueError(f"covariance not positive definite (min eig {eigvals.min()})")
    return (eigvecs / eigvals) @ eigvecs.conj().T


def dense_covariance(preambles: np.ndarray, gamma: GammaEstimate, sigma2: float) -> np.ndarray:
    """Model covariance assembled independently of the library path."""
    columns = _delayed_columns(preambles, gamma.num_delays - 1)
    return _covariance_from_columns(columns, gamma.values.ravel(), sigma2)


def dense_objective(
    preambles: np.ndarray, gamma: GammaEstimate, sigma2: float, sigma_tilde
) -> float:
    """Fit objective evaluated densely from first principles."""
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    return _objective_from_cov(dense_covariance(preambles, gamma, sigma2), st)


def grid_min_1d(
    state: CovarianceState,
    sigma_tilde,
    device: int,
    delay: int,
    grid_points: int = 10001,
    upper: float | None = None,
) -> float:
    """Grid argmin of the objective along one gamma coordinate.

    Returns the best offset eta over a uniform grid on
    ``[-gamma[device, delay], upper]`` (default upper:
    ``gamma[device, delay] + 10``). Ties go to the smallest offset.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    current = float(state.gamma.values[device, delay])
    if upper is None:
        upper = current + 10.0
    base = _covariance_from_columns(
        state.dictionary, state.gamma.values.ravel(), state.sigma2
    )
    s = state.column(device, delay)
    bump = np.outer(s, s.conj())
    etas = np.linspace(-current, upper, grid_points)
    values = np.empty(grid_points)
    for start in range(0, grid_points, 2048):
        chunk = etas[start : start + 2048]
        covs = base[None, :, :] + chunk[:, None, None] * bump[None, :, :]
        eigvals = np.linalg.eigvalsh(covs)
        invs = np.linalg.inv(covs)
        values[start : start + len(chunk)] = np.sum(
            np.log(eigvals), axis=1
        ) + np.real(np.einsum("gij,ji->g", invs, st))
    return float(etas[int(np.argmin(values))])


class ExhaustiveResult(NamedTuple):
    support: frozenset
    gamma: GammaEstimate
    objective: float


def _optimize_support(
    columns: np.ndarray,
    support: tuple,
    num_delays: int,
    sigma2: float,
    st: np.ndarray,
    tol: float = 1e-10,
    max_sweeps: int = 500,
) -> tuple:
    """Cyclic coordinate descent restricted to one support, everything
    dense: the inverse is recomputed from scratch at every step."""
    dim = columns.shape[0]
    active_cols = [n * num_delays + tau for n, tau in support]
    gamma_flat = np.zeros(columns.shape[1])
    cov = sigma2 * np.eye(dim, dtype=np.complex128)
    objective = _objective_from_cov(cov, st)
    if not active_cols:
        return gamma_flat, objective
    for _ in range(max_sweeps):
        for j in active_cols:
            s = columns[:, j]
            inv = dense_inverse(cov)
            v = inv @ s
            quad = float(np.real(np.vdot(s, v)))
            fit = float(np.real(np.vdot(v, st @ v)))
            eta = max((fit - quad) / (quad * quad), -gamma_flat[j])
            if eta != 0.0:
                gamma_flat[j] += eta
                cov += eta * np.outer(s, s.conj())
        previous, objective = objective, _objective_from_cov(cov, st)
        if previous - objective <= tol:
            break
    return gamma_flat, objective


def exhaustive_support_search(
    preambles: np.ndarray,
    sigma_tilde,
    sigma2: float,
    candidate_budget: int = 20000,
) -> ExhaustiveResult:
    """Globally best block-sparse support by full enumeration.

    Every assignment of each device to {inactive, delay 0, ..., delay
    tau_max} is optimized independently by dense coordinate descent; the
    assignment with the smallest optimized objective wins. tau_max is
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
    best = None
    for assignment in itertools.product(range(-1, num_delays), repeat=num_devices):
        support = tuple(
            (n, tau) for n, tau in enumerate(assignment) if tau >= 0
        )
        gamma_flat, objective = _optimize_support(
            columns, support, num_delays, sigma2, st
        )
        if best is None or objective < best[2]:
            best = (support, gamma_flat, objective)
    support, gamma_flat, objective = best
    gamma = GammaEstimate(gamma_flat.reshape(num_devices, num_delays).copy())
    return ExhaustiveResult(
        support=frozenset(support), gamma=gamma, objective=objective
    )
