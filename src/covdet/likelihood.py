"""Covariance-matching ML machinery.

The fit objective is ``log det(Sigma) + trace(Sigma^{-1} S_tilde)`` where
``Sigma = sum_j gamma_j s_j s_j^H + sigma2 I`` over dictionary columns
``s_j`` and ``S_tilde`` is the sample covariance. Everything here works
on one tracked ``CovarianceState``: closed-form single-coordinate steps,
Sherman-Morrison maintenance of ``Sigma^{-1}``, and matching closed-form
objective increments, plus a dense refresh to bound accumulated drift.

The coordinate math lives once, in the array kernel ``column_terms`` /
``step_increment`` / ``apply_rank_one`` that both detectors call; the
state-based step functions below are compositions of it.

The kernel never touches ``S_tilde`` itself. ``fit_factor`` returns
``F^H`` with ``S_tilde = F F^H``, whose row count is the numerical rank
of ``S_tilde`` (``M`` for ``M`` antennas below the window length ``D``,
else ``D``), so the fit form ``s^H Sigma^{-1} S_tilde Sigma^{-1} s`` is
``||F^H v||^2`` at ``O(D rank)`` instead of a ``D x D`` matvec.

Every dense product of a detector run goes through scipy's BLAS and
LAPACK: ``zgemv`` for a column, ``zgemm`` for a block of columns, an
in-place ``zgerc`` for the rank-one update of the Fortran-ordered
``Sigma^{-1}``, and ``zgemm`` plus a Cholesky factor for the dense
refresh. Keeping them in one library matters: numpy ships its own BLAS
with its own thread pool, and when threads are not pinned, alternating
the two pools call by call costs up to milliseconds per call.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zgemm, zgemv, zgerc

from .sysmodel import CovarianceState, GammaEstimate, NumericalDegeneracyError

# 1 + eta * s^H Sigma^{-1} s below this is treated as a degenerate update
DENOMINATOR_GUARD = 1e-12


def assemble_dictionary_covariance(
    dictionary: np.ndarray, gamma_flat: np.ndarray, sigma2: float
) -> np.ndarray:
    """Dense model covariance from an effective dictionary and flat gammas."""
    if np.any(gamma_flat < 0):
        raise ValueError("gamma entries must be non-negative")
    scaled = dictionary * gamma_flat  # scales each column
    cov = zgemm(1.0, scaled, dictionary, trans_b=2)
    cov[np.diag_indices_from(cov)] += sigma2
    return (cov + cov.conj().T) / 2.0


def assemble_covariance(preambles: np.ndarray, gamma: GammaEstimate, sigma2: float) -> np.ndarray:
    """Model covariance: sum of gamma-weighted delayed-signature outer
    products plus ``sigma2`` on the diagonal."""
    from .siggen import effective_dictionary  # local import avoids cycle

    dictionary = effective_dictionary(preambles, gamma.num_delays - 1)
    return assemble_dictionary_covariance(dictionary, gamma.values.ravel(), sigma2)


def evaluate_objective(mat: np.ndarray, sigma_tilde, *, inverse: bool = False) -> float:
    """Fit objective ``log det(Sigma) + trace(Sigma^{-1} S_tilde)``.

    ``mat`` is the model covariance, or its inverse when ``inverse=True``.
    The log-determinant always comes from a Cholesky factor (sum of log
    diagonal entries), never from a raw determinant.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    try:
        if inverse:
            chol = np.linalg.cholesky(mat)
            log_det = -2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))
            trace_term = float(np.real(np.vdot(st, mat)))
        else:
            factor = scipy.linalg.cho_factor(mat, lower=True)
            log_det = 2.0 * float(np.sum(np.log(np.real(np.diag(factor[0])))))
            trace_term = float(np.real(np.trace(scipy.linalg.cho_solve(factor, st))))
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"covariance not positive definite: {exc}") from exc
    return log_det + trace_term


def init_state(
    dictionary: np.ndarray, sigma2: float, sigma_tilde, num_delays: int = 1
) -> CovarianceState:
    """Fresh state at gamma = 0: inverse is I/sigma2 and the objective is
    ``D log(sigma2) + trace(S_tilde)/sigma2``.

    ``num_delays`` fixes the gamma block width; dictionary columns are
    device-major, delay-minor.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    dim, num_columns = dictionary.shape
    if st.shape != (dim, dim):
        raise ValueError(
            f"sample covariance shape {st.shape} does not match window length {dim}"
        )
    if num_delays < 1 or num_columns % num_delays != 0:
        raise ValueError(
            f"dictionary has {num_columns} columns, not divisible into "
            f"blocks of {num_delays}"
        )
    inv = np.eye(dim, dtype=np.complex128, order="F") / sigma2
    objective = dim * math.log(sigma2) + float(np.real(np.trace(st))) / sigma2
    gamma = GammaEstimate(np.zeros((num_columns // num_delays, num_delays)))
    return CovarianceState(
        dictionary=dictionary, sigma2=sigma2, inv_sigma=inv, objective=objective, gamma=gamma
    )


def fit_factor(sigma_tilde) -> np.ndarray:
    """``F^H`` with ``S_tilde = F F^H``, Fortran-ordered for BLAS.

    Built from ``eigh`` of the sample covariance, which is Hermitian
    positive semidefinite, keeping the eigenpairs above the
    ``numpy.linalg.matrix_rank`` cutoff
    ``w > w.max() * D * eps``: shape ``(M, D)`` for ``M < D`` antennas,
    ``(D, D)`` otherwise. A zero ``S_tilde`` gives one zero row, so the
    kernel never hands BLAS an empty operand.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    dim = st.shape[0]
    w, u = scipy.linalg.eigh(st)  # ascending eigenvalues
    rank = max(1, int(np.count_nonzero(w > w[-1] * dim * np.finfo(np.float64).eps)))
    lead = slice(dim - rank, dim)
    return np.asfortranarray((u[:, lead] * np.sqrt(np.maximum(w[lead], 0.0))).conj().T)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in scipy's BLAS: ``zgemv`` for a column, ``zgemm`` for a block."""
    return zgemv(1.0, a, b) if b.ndim == 1 else zgemm(1.0, a, b)


def _inner(a: np.ndarray, b: np.ndarray):
    """``Re(a^H b)``: a float for columns, one value per column for blocks."""
    if a.ndim == 1:
        return float(np.vdot(a, b).real)
    return np.einsum("ij,ij->j", a.conj(), b).real


def _project(inv: np.ndarray, s: np.ndarray):
    """``(v, quad)`` with ``v = Sigma^{-1} s`` and ``quad = s^H Sigma^{-1} s``,
    per column when ``s`` is a ``(D, k)`` block."""
    v = _times(inv, s)
    quad = _inner(s, v)
    worst = quad if s.ndim == 1 else quad.min()
    if worst <= 0.0:
        raise NumericalDegeneracyError(f"s^H Sigma^-1 s = {worst} <= 0")
    return v, quad


def column_terms(inv: np.ndarray, factor_h: np.ndarray, s: np.ndarray):
    """Everything one coordinate visit needs for dictionary column ``s``.

    Returns ``(v, quad, fit, step)`` with ``v = Sigma^{-1} s``,
    ``quad = s^H Sigma^{-1} s``, ``fit = s^H Sigma^{-1} S_tilde Sigma^{-1} s
    = ||F^H v||^2`` for ``factor_h = fit_factor(S_tilde)``, and
    ``step = (fit - quad)/quad^2``, the unconstrained minimizer of the
    objective along this coordinate. ``s`` is one column (floats back)
    or a ``(D, k)`` block of columns (``v`` is ``(D, k)``, the rest are
    length-``k`` arrays).
    """
    v, quad = _project(inv, s)
    w = _times(factor_h, v)
    fit = _inner(w, w)
    return v, quad, fit, (fit - quad) / (quad * quad)


def step_increment(eta: float, quad: float, fit: float):
    """``(increment, denom)`` for adding ``eta`` on a coordinate.

    Matrix-determinant lemma plus Sherman-Morrison give the exact
    objective change ``log(1 + eta*quad) - eta*fit/denom`` with
    ``denom = 1 + eta*quad``, which :func:`apply_rank_one` reuses.
    """
    denom = 1.0 + eta * quad
    if denom < DENOMINATOR_GUARD:
        raise NumericalDegeneracyError(f"update denominator {denom} below guard")
    return math.log1p(eta * quad) - eta * fit / denom, denom


def apply_rank_one(inv: np.ndarray, v: np.ndarray, eta: float, denom: float) -> None:
    """Sherman-Morrison in place: ``inv -= eta * v v^H / denom``.

    One BLAS ``zgerc`` on ``inv`` itself, which must be a Fortran-ordered
    complex128 array: for any other layout BLAS would update a copy and
    the update would be lost, so that raises ``ValueError`` instead.
    """
    if inv.dtype != np.complex128 or not inv.flags.f_contiguous:
        raise ValueError("rank-one update needs a Fortran-ordered complex128 inverse")
    zgerc(-eta / denom, v, v, a=inv, overwrite_a=1)


def quadratic_terms(state: CovarianceState, sigma_tilde, device: int, delay: int):
    """The two quadratic forms behind every coordinate formula.

    Returns ``(v, quad, fit)`` with ``v = Sigma^{-1} s``,
    ``quad = s^H Sigma^{-1} s`` and ``fit = s^H Sigma^{-1} S_tilde Sigma^{-1} s``.
    """
    s = state.column(device, delay)
    return column_terms(state.inv_sigma, fit_factor(sigma_tilde), s)[:3]


def coordinate_step(state: CovarianceState, sigma_tilde, device: int, delay: int) -> float:
    """Closed-form minimizer of the one-coordinate objective restriction.

    Returns the step ``eta`` such that ``gamma[device, delay] + eta`` is
    the non-negative minimizer along this coordinate:
    ``max{(fit - quad)/quad^2, -gamma[device, delay]}``.
    """
    s = state.column(device, delay)
    step = column_terms(state.inv_sigma, fit_factor(sigma_tilde), s)[3]
    return max(step, -float(state.gamma.values[device, delay]))


def objective_delta(
    state: CovarianceState, sigma_tilde, device: int, delay: int, eta: float
) -> float:
    """Exact objective change of adding ``eta`` on one coordinate.

    Matrix-determinant lemma plus Sherman-Morrison give
    ``log(1 + eta*quad) - eta*fit/(1 + eta*quad)`` without touching the
    dense objective.
    """
    if eta == 0.0:
        return 0.0
    _, quad, fit = quadratic_terms(state, sigma_tilde, device, delay)
    return step_increment(eta, quad, fit)[0]


def rank_one_inverse_update(
    state: CovarianceState, device: int, delay: int, eta: float
) -> None:
    """Apply ``gamma[device, delay] += eta`` to the tracked inverse in place.

    Sherman-Morrison: ``Sigma^{-1} -= eta * v v^H / (1 + eta * quad)``
    with ``v = Sigma^{-1} s``. The objective field is not touched; callers
    track it via :func:`objective_delta` (computed before this update).
    """
    if eta == 0.0:
        return
    v, quad = _project(state.inv_sigma, state.column(device, delay))
    _, denom = step_increment(eta, quad, 0.0)
    new_value = float(state.gamma.values[device, delay]) + eta
    if new_value < 0.0:
        if new_value < -1e-12:
            raise ValueError(f"update would drive gamma negative ({new_value})")
        new_value = 0.0
    apply_rank_one(state.inv_sigma, v, eta, denom)
    state.gamma.values[device, delay] = new_value


def refresh_state(state: CovarianceState, sigma_tilde) -> None:
    """Recompute ``inv_sigma`` and ``objective`` from a dense factorization.

    Called every few sweeps to wipe out accumulated rank-one roundoff.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    cov = assemble_dictionary_covariance(
        state.dictionary, state.gamma.values.ravel(), state.sigma2
    )
    try:
        factor = scipy.linalg.cho_factor(cov, lower=True)
        inv = scipy.linalg.cho_solve(factor, np.eye(state.dim, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"dense refresh failed: {exc}") from exc
    state.inv_sigma = np.asfortranarray((inv + inv.conj().T) / 2.0)
    log_det = 2.0 * float(np.sum(np.log(np.real(np.diag(factor[0])))))
    # trace(Sigma^{-1} S_tilde) elementwise: np.vdot would use numpy's BLAS
    state.objective = log_det + float(np.sum(np.real(st.conj() * state.inv_sigma)))
