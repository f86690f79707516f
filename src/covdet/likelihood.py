"""Covariance-matching ML machinery.

The fit objective is ``log det(Sigma) + trace(Sigma^{-1} S_tilde)`` where
``Sigma = sum_j gamma_j s_j s_j^H + sigma2 I`` over dictionary columns
``s_j`` and ``S_tilde`` is the sample covariance. Everything here works
on one tracked ``CovarianceState``: closed-form single-coordinate steps,
Sherman-Morrison maintenance of ``Sigma^{-1}``, and matching closed-form
objective increments, plus a dense refresh to bound accumulated drift.
Gamma is a plain ``(N, tau_max+1)`` float64 array, device-major like the
dictionary columns, and ``assemble_covariance`` is the one dense builder
of ``Sigma`` from the two.

The coordinate math lives once, in the kernel that both detectors call.
A detector pass is one call: ``column_sweep`` visits every dictionary
column (``cd_e``, ``cd_e_sync``) and ``block_sweep`` every device's
block of delay columns (``bcd``), each in a single loop that reads
gamma as Python floats and writes it back when the pass ends. The
formulas they share live once each: the step in ``_step``, the exact
objective change and its denominator guard in ``step_increment``, the
quadratic-form guard in ``_check_quad`` and the Sherman-Morrison update
in ``_update``. The state-based step functions below are compositions
of the same pieces.

The kernel never touches ``S_tilde`` itself. ``fit_factor`` returns
``F^H`` with ``S_tilde = F F^H`` from a pivoted Cholesky factor, whose
row count is the numerical rank of ``S_tilde`` (``M`` for ``M`` antennas
below the window length ``D``, else ``D``), so the fit form
``s^H Sigma^{-1} S_tilde Sigma^{-1} s`` is ``||F^H v||^2`` at
``O(D rank)`` instead of a ``D x D`` matvec. The state-based functions
take one coordinate at a time, where even that factor would cost more
than it saves, so they take the fit form as ``Re(v^H S_tilde v)`` from
one ``zgemv`` instead.

``bcd`` scores a block from the state with the block's entry removed.
Sherman-Morrison gives each column's zeroed-state terms in closed form,
as scalars from its current-state terms and two small products, so a
visit neither downdates ``Sigma^{-1}`` nor multiplies again before it
commits; when the entry goes back to the delay it came from, removal
and commit are one rank-one update of the net change.

Every dense product of a detector run goes through scipy's BLAS and
LAPACK: ``zgemv`` for a column, ``zdotc`` for the inner products of a
column (a quarter of ``np.vdot``'s call overhead), ``zgemm`` for a block
of columns and the diagonal of one more ``zgemm`` for their per-column
inner products, an in-place ``zgerc`` for a rank-one update of the
Fortran-ordered ``Sigma^{-1}``, ``zgemm`` plus a Cholesky factor for the
dense refresh, and ``zpstrf`` for the fit factor. Keeping them in one
library matters: numpy ships its own BLAS with its own thread pool, and
when threads are not pinned, alternating the two pools call by call
costs up to milliseconds per call.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import zdotc, zgemm, zgemv, zgerc
from scipy.linalg.lapack import zpstrf

from .sysmodel import CovarianceState, NumericalDegeneracyError

# 1 + eta * s^H Sigma^{-1} s below this is treated as a degenerate update
DENOMINATOR_GUARD = 1e-12


def assemble_covariance(dictionary: np.ndarray, gamma: np.ndarray, sigma2: float) -> np.ndarray:
    """Model covariance ``sum_j gamma_j s_j s_j^H + sigma2 I`` over the
    columns ``s_j`` of an effective dictionary.

    ``gamma`` holds one power per dictionary column in column order: the
    ``(N, tau_max+1)`` estimate or its flat view. Raises ``ValueError``
    when its size is not the column count, or when an entry is NaN, Inf
    or negative.
    """
    flat = np.asarray(gamma, dtype=np.float64).ravel()
    if flat.size != dictionary.shape[1]:
        raise ValueError(
            f"gamma of shape {np.shape(gamma)} does not match the "
            f"{dictionary.shape[1]} columns of a dictionary of shape {dictionary.shape}"
        )
    if not np.all(np.isfinite(flat)):
        raise ValueError("gamma has NaN or Inf entries")
    if np.any(flat < 0):
        raise ValueError("gamma entries must be non-negative")
    scaled = dictionary * flat  # scales each column
    cov = zgemm(1.0, scaled, dictionary, trans_b=2)
    cov[np.diag_indices_from(cov)] += sigma2
    return (cov + cov.conj().T) / 2.0


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
    gamma = np.zeros((num_columns // num_delays, num_delays))
    return CovarianceState(
        dictionary=dictionary, sigma2=sigma2, inv_sigma=inv, objective=objective, gamma=gamma
    )


def fit_factor(sigma_tilde) -> np.ndarray:
    """``F^H`` with ``S_tilde = F F^H``, Fortran-ordered for BLAS.

    Built from LAPACK's pivoted Cholesky ``zpstrf`` of the sample
    covariance, which is Hermitian positive semidefinite:
    ``S_tilde = P L L^H P^T`` with ``L`` lower trapezoidal, and the
    factorization stops at the numerical rank (LAPACK's default
    tolerance, ``D * eps`` times the largest diagonal entry), so
    ``F = P L`` has shape ``(D, M)`` for ``M < D`` antennas and ``(D, D)``
    otherwise. A zero ``S_tilde`` gives one zero row, so the kernel never
    hands BLAS an empty operand.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    dim = st.shape[0]
    c, piv, rank, _ = zpstrf(st, lower=1)
    factor_h = np.zeros((max(rank, 1), dim), dtype=np.complex128, order="F")
    factor_h[:rank, piv - 1] = np.tril(c[:, :rank]).conj().T
    return factor_h


def _check_quad(worst) -> None:
    """Raise unless the quadratic form ``s^H Sigma^{-1} s`` is positive
    (a NaN is not)."""
    if not worst > 0.0:
        raise NumericalDegeneracyError(f"s^H Sigma^-1 s = {worst} <= 0")


def _check_inverse(inv: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``inv`` is a Fortran-ordered complex128
    array: for any other layout an in-place ``zgerc`` would update a copy,
    and the update would be lost."""
    if inv.dtype != np.complex128 or not inv.flags.f_contiguous:
        raise ValueError("rank-one update needs a Fortran-ordered complex128 inverse")


def _step(quad, fit):
    """``(fit - quad)/quad^2``, the unconstrained minimizer of the
    objective along a coordinate."""
    return (fit - quad) / (quad * quad)


def _update(inv: np.ndarray, v: np.ndarray, eta: float, denom: float) -> None:
    """Sherman-Morrison ``inv -= eta * v v^H / denom`` by one in-place
    ``zgerc``; the caller has checked ``inv`` with :func:`_check_inverse`."""
    zgerc(-eta / denom, v, v, a=inv, overwrite_a=1)


def _project(inv: np.ndarray, s: np.ndarray):
    """``(v, quad)`` with ``v = Sigma^{-1} s`` and ``quad = s^H Sigma^{-1} s``."""
    v = zgemv(1.0, inv, s)
    quad = zdotc(s, v).real
    _check_quad(quad)
    return v, quad


def _column_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re(a_j^H b_j)`` for every column ``j``: the diagonal of one
    ``zgemm``, which for the few columns of a delay block is cheaper than
    any elementwise reduction."""
    return zgemm(1.0, a, b, trans_a=2).diagonal().real


def step_increment(eta: float, quad: float, fit: float):
    """``(increment, denom)`` for adding ``eta`` on a coordinate.

    Matrix-determinant lemma plus Sherman-Morrison give the exact
    objective change ``log(1 + eta*quad) - eta*fit/denom`` with
    ``denom = 1 + eta*quad``, which the Sherman-Morrison update reuses.
    """
    denom = 1.0 + eta * quad
    if denom < DENOMINATOR_GUARD:
        raise NumericalDegeneracyError(f"update denominator {denom} below guard")
    return math.log1p(eta * quad) - eta * fit / denom, denom


def column_sweep(inv: np.ndarray, factor_h: np.ndarray, columns, gamma: np.ndarray,
                 objective: float) -> float:
    """One ascending coordinate-descent pass over dictionary ``columns``.

    ``columns[j]`` is the dictionary column of the flat coordinate ``j``
    and ``gamma`` the flat ``(N*(tau_max+1),)`` estimate; ``factor_h`` is
    :func:`fit_factor` of the sample covariance. Each visit takes
    ``v = Sigma^{-1} s`` (``zgemv``), ``quad = s^H v`` (``zdotc``) and
    ``fit = ||F^H v||^2`` (``zgemv``, ``zdotc``), steps to
    ``max{(fit - quad)/quad^2, -gamma_j}`` and, for a nonzero step,
    updates ``inv`` in place by Sherman-Morrison and adds the step's exact
    objective change to ``objective``. Returns the new objective.

    ``inv`` must be Fortran-ordered complex128 (else ``ValueError``, with
    nothing changed). Gamma is read as Python floats and written back when
    the pass ends, also when it raises; a ``NumericalDegeneracyError``
    carries the failing coordinate in ``index``.
    """
    _check_inverse(inv)
    values = gamma.tolist()
    try:
        for j, s in enumerate(columns):
            v = zgemv(1.0, inv, s)
            quad = zdotc(s, v).real
            _check_quad(quad)
            w = zgemv(1.0, factor_h, v)
            fit = zdotc(w, w).real
            eta = _step(quad, fit)
            old = values[j]
            if eta < -old:
                eta = -old
            if eta == 0.0:
                continue
            delta, denom = step_increment(eta, quad, fit)
            _update(inv, v, eta, denom)
            new = old + eta
            values[j] = 0.0 if new < 0.0 else new
            objective += delta
    except NumericalDegeneracyError as exc:
        exc.index = j
        raise
    finally:
        gamma[:] = values
    return objective


def block_sweep(inv: np.ndarray, factor_h: np.ndarray, blocks, gamma: np.ndarray,
                objective: float) -> float:
    """One ascending block pass over the devices' delay ``blocks``.

    ``blocks[n]`` is device ``n``'s ``(D, tau_max+1)`` block of dictionary
    columns and ``gamma[n]`` its row of the ``(N, tau_max+1)`` estimate,
    which holds at most one nonzero. Each visit makes the block terms of
    the current state from one ``zgemm`` for ``v = Sigma^{-1} block``, one
    for ``w = F^H v`` and the diagonals of two more for each column's
    ``quad`` and ``fit``. Every column is scored from the state with the
    block's entry removed, by its closed-form step and, where the step is
    positive, its exact objective change, and the lowest negative change
    is committed (ties to the smallest delay; none keeps the block empty).

    Removing ``gamma`` from column ``tau0`` is the step ``-gamma``, so
    Sherman-Morrison gives the zeroed-state inverse
    ``Sigma_0^{-1} = Sigma^{-1} + c u u^H`` with ``u = v[:, tau0]`` and
    ``c = gamma / denom``. With one ``zgemv`` each for ``b = block^H u``
    and ``g = w^H w[:, tau0]``, each column's zeroed-state terms are the
    scalars ``quad + c |b|^2`` and
    ``fit + 2 c Re(conj(b) g) + c^2 |b|^2 fit[tau0]``; the zeroed-state
    ``v + c conj(b) u`` is built only for a commit to another delay.

    ``Sigma^{-1}`` changes only at the commit: a downdate and an update,
    or one update of the net change when the entry returns to its delay.
    Re-inserting the removed entry is always a candidate, so a visit never
    raises the objective. Returns the new objective.

    ``inv``, gamma and errors are handled as in :func:`column_sweep`, with
    the failing device in ``index``; a visit that raises has changed
    neither that device's row nor ``inv``.
    """
    _check_inverse(inv)
    rows = gamma.tolist()
    try:
        for n, block in enumerate(blocks):
            row = rows[n]
            v = zgemm(1.0, inv, block)
            w = zgemm(1.0, factor_h, v)
            quads = _column_inner(block, v).tolist()
            fits = _column_inner(w, w).tolist()
            removed = max(row)
            if removed > 0.0:
                old_tau = row.index(removed)
                u = v[:, old_tau]
                quad_u, fit_u = quads[old_tau], fits[old_tau]
                _check_quad(quad_u)
                delta, down_denom = step_increment(-removed, quad_u, fit_u)
                c = removed / down_denom
                b = zgemv(1.0, block, u, trans=2).tolist()
                g = zgemv(1.0, w, w[:, old_tau], trans=2).tolist()
                for tau, (bt, gt) in enumerate(zip(b, g)):
                    p = c * (bt.real * bt.real + bt.imag * bt.imag)
                    quads[tau] += p
                    fits[tau] += c * (2.0 * (bt.real * gt.real + bt.imag * gt.imag) + p * fit_u)
                objective += delta
            best = None
            best_delta = 0.0
            for tau, (q, fit) in enumerate(zip(quads, fits)):
                _check_quad(q)
                eta = _step(q, fit)
                if eta <= 0.0:
                    continue
                delta, denom = step_increment(eta, q, fit)
                if delta < best_delta:
                    best, best_delta = (tau, eta, denom), delta
            # the commit: row n and Sigma^-1 change only from here on
            if removed > 0.0 and (best is None or best[0] != old_tau):
                _update(inv, u, -removed, down_denom)
                row[old_tau] = 0.0
            if best is not None:
                tau, eta, denom = best
                if removed > 0.0 and tau == old_tau:
                    # re-inserted where it was: removal and commit are one
                    # rank-one update of the net change
                    net = eta - removed
                    _update(inv, u, net, step_increment(net, quad_u, 0.0)[1])
                elif removed > 0.0:
                    _update(inv, v[:, tau] + (c * b[tau].conjugate()) * u, eta, denom)
                else:
                    _update(inv, v[:, tau], eta, denom)
                objective += best_delta
                row[tau] = eta
    except NumericalDegeneracyError as exc:
        exc.index = n
        raise
    finally:
        gamma[:] = rows
    return objective


def quadratic_terms(state: CovarianceState, sigma_tilde, device: int, delay: int):
    """The two quadratic forms behind every coordinate formula.

    Returns ``(v, quad, fit)`` with ``v = Sigma^{-1} s``,
    ``quad = s^H Sigma^{-1} s`` and ``fit = s^H Sigma^{-1} S_tilde Sigma^{-1} s``.
    ``fit`` is ``Re(v^H S_tilde v)`` from one ``zgemv``: one call needs no
    :func:`fit_factor`, whose factorization only pays off over a detector
    run.
    """
    v, quad = _project(state.inv_sigma, state.column(device, delay))
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    return v, quad, zdotc(v, zgemv(1.0, st, v)).real


def coordinate_step(state: CovarianceState, sigma_tilde, device: int, delay: int) -> float:
    """Closed-form minimizer of the one-coordinate objective restriction.

    Returns the step ``eta`` such that ``gamma[device, delay] + eta`` is
    the non-negative minimizer along this coordinate:
    ``max{(fit - quad)/quad^2, -gamma[device, delay]}``.
    """
    _, quad, fit = quadratic_terms(state, sigma_tilde, device, delay)
    return max(_step(quad, fit), -float(state.gamma[device, delay]))


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
    ``state.inv_sigma`` is updated in place by BLAS, so a layout other
    than Fortran-ordered complex128 raises ``ValueError`` before anything
    changes.
    """
    _check_inverse(state.inv_sigma)
    if eta == 0.0:
        return
    v, quad = _project(state.inv_sigma, state.column(device, delay))
    _, denom = step_increment(eta, quad, 0.0)
    new_value = float(state.gamma[device, delay]) + eta
    if new_value < 0.0:
        if new_value < -1e-12:
            raise ValueError(f"update would drive gamma negative ({new_value})")
        new_value = 0.0
    _update(state.inv_sigma, v, eta, denom)
    state.gamma[device, delay] = new_value


def refresh_state(state: CovarianceState, sigma_tilde) -> None:
    """Recompute ``inv_sigma`` and ``objective`` from a dense factorization.

    Called every few sweeps to wipe out accumulated rank-one roundoff.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    cov = assemble_covariance(state.dictionary, state.gamma, state.sigma2)
    try:
        factor = scipy.linalg.cho_factor(cov, lower=True)
        inv = scipy.linalg.cho_solve(factor, np.eye(state.dim, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"dense refresh failed: {exc}") from exc
    state.inv_sigma = np.asfortranarray((inv + inv.conj().T) / 2.0)
    log_det = 2.0 * float(np.sum(np.log(np.real(np.diag(factor[0])))))
    # trace(Sigma^{-1} S_tilde) elementwise: np.vdot would use numpy's BLAS
    state.objective = log_det + float(np.sum(np.real(st.conj() * state.inv_sigma)))
