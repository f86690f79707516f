"""Covariance-matching ML machinery: the fit state and the coordinate kernel.

The fit objective is ``log det(Sigma) + trace(Sigma^{-1} S_tilde)`` with
``Sigma = sum_j gamma_j s_j s_j^H + sigma2 I`` over the dictionary columns
``s_j`` and the sample covariance ``S_tilde``. A detector run tracks
``Sigma^{-1}`` and the objective in one ``CovarianceState``, by
Sherman-Morrison updates, exact objective increments and a periodic dense
refresh. A pass is one call over a plan built once per run:
``column_sweep`` visits every column (``cd_e``, ``cd_e_sync``) and
``block_sweep`` every device's block of delay columns (``bcd``); each
formula they share lives once, in a private helper.

Rules that hold throughout:

- Every call that takes ``sigma_tilde`` checks it by
  :func:`_check_sample_covariance`.
- The dictionary and every tracked matrix are Fortran-ordered, so columns
  and blocks reach BLAS without a copy; BLAS would update a copy of any
  other layout, so an update raises ``ValueError`` on one first.
- A pass chooses its loop from the window length ``D`` alone: from
  ``COLUMN_WINDOW_DIM`` on it applies a window's changes at its end.
- Every BLAS output and view a pass touches is made once per run or per
  pass (``bcd``'s Gram buffers belong to its plan), and each product
  overwrites all of its output before anything reads it, so nothing an
  earlier pass or window left, one that raised included, reaches a later
  one (CHANGES, "allocation-free sweep loops").
- A pass writes gamma back when it ends, also when it raises; a
  ``NumericalDegeneracyError`` then carries the failing column or device
  in ``index``.
- Per-visit and per-window BLAS calls pass their optional arguments by
  position (CHANGES, "Positional per-visit BLAS arguments").

Dense products go through scipy's BLAS and LAPACK, loaded by file without
``scipy.linalg``'s package init (CHANGES, "Start covdet without
scipy.linalg's package init"), not numpy's, whose own thread pool slows
an unpinned run (CHANGES, "Fast coordinate kernel").
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .sysmodel import NumericalDegeneracyError


def _linalg_extension(name: str):
    """Execute scipy's compiled ``scipy.linalg.<name>`` from its file."""
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"scipy.linalg.{name}")
    if spec is None:
        raise ImportError(f"scipy's compiled module {name} not found in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fblas, _flapack = _linalg_extension("_fblas"), _linalg_extension("_flapack")
zdotc, zgemm, zgemv, zgerc, zherk = (
    _fblas.zdotc, _fblas.zgemm, _fblas.zgemv, _fblas.zgerc, _fblas.zherk
)
zlantr, zpotrf, zpotri, zpstrf = (
    _flapack.zlantr, _flapack.zpotrf, _flapack.zpotri, _flapack.zpstrf
)

# 1 + eta * s^H Sigma^{-1} s below this is treated as a degenerate update
DENOMINATOR_GUARD = 1e-12
# float64 machine epsilon, for fit_factor's remainder tolerance
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class CovarianceState:
    """Tracked inverse model covariance, kept consistent with a gamma estimate.

    ``gamma[n, tau]`` is the fitted power of device ``n`` at delay ``tau``;
    a device's row is its "block". In ``cd_e`` and ``cd_e_sync`` passes the
    live inverse is the top of :func:`column_stack`'s stack, never copied
    back, so ``inv_sigma`` holds the last dense refresh's inverse.
    """

    dictionary: np.ndarray  # (D, N*(tau_max+1)) delayed signature columns
    sigma2: float
    inv_sigma: np.ndarray  # (D, D) Hermitian positive definite, Fortran-ordered
    objective: float
    gamma: np.ndarray  # (N, tau_max + 1) float64, C-ordered

    @property
    def dim(self) -> int:
        return self.dictionary.shape[0]

    def column(self, device: int, delay: int) -> np.ndarray:
        """Dictionary column for hypothesis (device, delay); ``ValueError``
        outside ``[0, N) x [0, tau_max]``, where the flat index would name
        another coordinate's column."""
        num_devices, num_delays = self.gamma.shape
        if not (0 <= device < num_devices and 0 <= delay < num_delays):
            raise ValueError(
                f"coordinate ({device}, {delay}) outside [0, {num_devices}) x [0, {num_delays - 1}]"
            )
        return self.dictionary[:, device * num_delays + delay]


def assemble_covariance(dictionary: np.ndarray, gamma: np.ndarray, sigma2: float) -> np.ndarray:
    """Model covariance ``sum_j gamma_j s_j s_j^H + sigma2 I``, exactly
    Hermitian and Fortran-ordered, for ``gamma`` in column order (the
    ``(N, tau_max+1)`` estimate or its flat view). Raises ``ValueError``
    when its size is not the column count, or an entry is NaN, Inf or
    negative.
    """
    flat = np.asarray(gamma, dtype=np.float64).ravel()
    if flat.size != dictionary.shape[1]:
        raise ValueError(
            f"gamma of shape {np.shape(gamma)} does not match the "
            f"{dictionary.shape[1]} columns of a dictionary of shape {dictionary.shape}"
        )
    if not np.isfinite(flat).all():
        raise ValueError("gamma has NaN or Inf entries")
    if (flat < 0).any():
        raise ValueError("gamma entries must be non-negative")
    held = np.flatnonzero(flat)
    cov = zherk(1.0, dictionary[:, held] * np.sqrt(flat[held]), lower=1)
    cov[np.diag_indices_from(cov)] += sigma2
    cov += np.tril(cov, -1).conj().T
    return cov


def _dense_objective(mat: np.ndarray, st: np.ndarray, failure: str, inverse: bool = False):
    """``(objective, Sigma^{-1})`` from one Cholesky factorization of the
    lower triangle of ``mat``: ``Sigma``, or ``Sigma^{-1}`` if ``inverse``.
    The inverse is exactly Hermitian and Fortran-ordered. ``ValueError``
    for NaN or Inf in ``mat``; ``NumericalDegeneracyError``, led by
    ``failure``, when the factorization fails."""
    if not np.isfinite(mat).all():
        raise ValueError("matrix to factor has NaN or Inf entries")
    factor, info = zpotrf(mat, lower=1)
    inv = mat
    if info == 0 and not inverse:
        inv, info = zpotri(factor, lower=1)
        inv += np.tril(inv, -1).conj().T
    if info != 0:
        raise NumericalDegeneracyError(f"{failure}: leading minor {info} not positive definite")
    log_det = 2.0 * float(np.log(factor.diagonal().real).sum())
    return (-log_det if inverse else log_det) + float((st.conj() * inv).real.sum()), inv


def evaluate_objective(mat: np.ndarray, sigma_tilde, *, inverse: bool = False) -> float:
    """Fit objective at the covariance ``mat``, or at its inverse if
    ``inverse``; ``ValueError`` unless ``mat`` is square."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix of shape {mat.shape} is not square")
    st = _check_sample_covariance(sigma_tilde, mat.shape[0])
    return _dense_objective(mat, st, "covariance not positive definite", inverse)[0]


def init_state(dictionary: np.ndarray, sigma2: float, sigma_tilde,
               num_delays: int) -> CovarianceState:
    """Fresh state at gamma = 0: inverse is I/sigma2 and the objective is
    ``D log(sigma2) + trace(S_tilde)/sigma2``.

    ``num_delays`` fixes the gamma block width; ``ValueError`` unless it
    divides the dictionary's column count.
    """
    dim, num_columns = dictionary.shape
    st = _check_sample_covariance(sigma_tilde, dim)
    if num_delays < 1 or num_columns % num_delays != 0:
        raise ValueError(
            f"dictionary has {num_columns} columns, not divisible into "
            f"blocks of {num_delays}"
        )
    inv = np.eye(dim, dtype=np.complex128, order="F")
    inv /= sigma2
    objective = dim * math.log(sigma2) + float(st.trace().real) / sigma2
    gamma = np.zeros((num_columns // num_delays, num_delays))
    return CovarianceState(
        dictionary=dictionary, sigma2=sigma2, inv_sigma=inv, objective=objective, gamma=gamma
    )


def fit_factor(sigma_tilde) -> np.ndarray:
    """``F^H`` with ``S_tilde = F F^H``, Fortran-ordered for BLAS.

    From the pivoted Cholesky ``S_tilde = P L L^H P^T``, which stops at the
    numerical rank: ``F = P L`` is ``(D, M)`` for ``M < D`` antennas, else
    ``(D, D)``, and one zero row for a zero ``S_tilde``. An indefinite
    matrix also stops below rank ``D``, so there ``F F^H`` must match
    ``S_tilde``'s lower triangle to ``(D + 2 rank + 2) eps max diag``, else
    ``ValueError``: ``D`` is the stop's tolerance, and the factorization
    and the check each round an entry ``rank + 1`` times, on terms that
    Cauchy-Schwarz bounds by the largest diagonal entry.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    dim = st.shape[0]
    c, piv, rank, _ = zpstrf(st, lower=1)
    if rank == 0:
        factor_h = np.zeros((1, dim), dtype=np.complex128, order="F")
    else:
        # row p of F is row order[p] of L, which holds c's entries on and
        # below the diagonal; F is C-ordered, so F^H is Fortran-ordered
        order = piv.argsort()
        factor_h = np.where(order[:, None] >= np.arange(rank), c[order, :rank], 0.0).conj().T
    if rank < dim:
        # S_tilde - F F^H in the lower triangle, the only one zlantr reads
        remainder = zlantr("M", zherk(-1.0, factor_h, 1.0, st, trans=2, lower=1), uplo="L")
        if not remainder <= (dim + 2 * rank + 2) * _EPS * st.diagonal().real.max():
            raise ValueError("sample covariance is not positive semidefinite")
    return factor_h


def _check_quad(worst) -> None:
    """Raise unless the quadratic form ``s^H Sigma^{-1} s`` is positive
    (a NaN is not)."""
    if not worst > 0.0:
        raise NumericalDegeneracyError(f"s^H Sigma^-1 s = {worst} <= 0")


def _check_sample_covariance(sigma_tilde, dim: int) -> np.ndarray:
    """``sigma_tilde`` as a complex128 array, after checking that it is a
    finite ``(dim, dim)`` array, Hermitian to within
    ``1e-10 * max(1, max|S|)``; raises ``ValueError`` otherwise. The fit
    factor reads only the lower triangle and the fit form the whole array,
    so an asymmetric array would otherwise be fitted silently.
    """
    st = np.asarray(sigma_tilde, dtype=np.complex128)
    if st.shape != (dim, dim):
        raise ValueError(
            f"sample covariance shape {st.shape} does not match window length {dim}"
        )
    scale = float(np.abs(st).max())
    if not math.isfinite(scale):
        raise ValueError("sample covariance has NaN or Inf entries")
    if np.abs(st - st.conj().T).max() > 1e-10 * max(1.0, scale):
        raise ValueError("sample covariance must be Hermitian")
    return st


def _check_inverse(inv: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``inv`` is a Fortran-ordered complex128
    array, the only layout that BLAS updates in place."""
    if inv.dtype != np.complex128 or not inv.flags.f_contiguous:
        raise ValueError("rank-one update needs a Fortran-ordered complex128 inverse")


def _step(quad, fit):
    """``(fit - quad)/quad^2``, the unconstrained minimizer of the
    objective along a coordinate."""
    return (fit - quad) / (quad * quad)


def _update(inv: np.ndarray, x: np.ndarray, v: np.ndarray, eta: float, denom: float) -> None:
    """Sherman-Morrison ``inv -= eta * x v^H / denom`` in place, with
    ``x = v = Sigma^{-1} s``; on the stacked ``[Sigma^{-1}; F^H Sigma^{-1}]``,
    ``x = [v; F^H v]``. The caller has checked ``inv``."""
    # slots after alpha, x, y: incx, incy, a, overwrite_x, overwrite_y, overwrite_a
    zgerc(-eta / denom, x, v, 1, 1, inv, 1, 1, 1)


def _correct(pending: np.ndarray, later: np.ndarray, x: np.ndarray, v: np.ndarray,
             scale: float, cross: np.ndarray) -> None:
    """Carry a rank-one change ``M -= scale * x v^H`` of a tracked matrix
    ``M`` (``Sigma^{-1}`` or the column stack) into a window's pending
    products ``pending = M later``: ``pending -= scale * x (later^H v)^H``,
    with the cross terms ``later^H v`` written into ``cross``."""
    # slots after alpha, a, x: beta, y, offx, incx, offy, incy, trans (2 is
    # a^H), overwrite_y
    zgemv(1.0, later, v, 0.0, cross, 0, 1, 0, 1, 2, 1)
    zgerc(-scale, x, cross, 1, 1, pending, 1, 1, 1)


def _apply_steps(target: np.ndarray, xs: np.ndarray, vs: np.ndarray, scales: list) -> None:
    """``target -= sum_k scales[k] * xs[:, k] vs[:, k]^H`` in place: a
    window's rank-one changes made at its end. Each ``xs[:, k]`` was read
    after the window's earlier changes, so this equals their
    Sherman-Morrison updates made in turn."""
    # slots after alpha, a, b: beta, c, trans_a, trans_b (2 is b^H), overwrite_c
    zgemm(-1.0, xs, vs * scales, 1.0, target, 0, 2, 1)


def _project(inv: np.ndarray, s: np.ndarray):
    """``(v, quad)`` with ``v = Sigma^{-1} s`` and ``quad = s^H Sigma^{-1} s``."""
    v = zgemv(1.0, inv, s)
    quad = zdotc(s, v).real
    _check_quad(quad)
    return v, quad


def step_increment(eta: float, quad: float, fit: float):
    """``(increment, denom)`` for adding ``eta`` on a coordinate: the exact
    objective change ``log(1 + eta*quad) - eta*fit/denom`` with
    ``denom = 1 + eta*quad``, which the Sherman-Morrison update reuses."""
    denom = 1.0 + eta * quad
    if denom < DENOMINATOR_GUARD:
        raise NumericalDegeneracyError(f"update denominator {denom} below guard")
    return math.log1p(eta * quad) - eta * fit / denom, denom


def column_stack(state: CovarianceState, factor_h: np.ndarray) -> np.ndarray:
    """``[Sigma^{-1}; F^H Sigma^{-1}]`` of ``state``, Fortran-ordered: the
    matrix that :func:`column_sweep` tracks."""
    inv = state.inv_sigma
    lower = zgemm(1.0, factor_h, inv) if state.gamma.any() else factor_h / state.sigma2
    return np.asfortranarray(np.concatenate((inv, lower)))


# columns per stack product of a windowed column_sweep pass
COLUMN_WINDOW = 32
# window length D from which column_sweep takes its columns in windows of
# COLUMN_WINDOW and block_sweep applies a window's commits to Sigma^-1 at
# the window's end: below it, one update per step was faster (CHANGES,
# "column passes at full scale take their columns in windows of 32" and
# "bcd windows at full scale follow the column-window rules")
COLUMN_WINDOW_DIM = 64


def column_plan(dictionary: np.ndarray, factor_h: np.ndarray) -> list:
    """:func:`column_sweep`'s plan over the columns of ``dictionary``, for
    the stack of the fit factor ``factor_h``: below ``COLUMN_WINDOW_DIM``
    rows, its column views; from it on, per window of ``COLUMN_WINDOW``
    columns, ``(window, products, visits)``.

    A window's ``products`` are columns of the plan's one buffer, and
    visit ``i`` is ``(i, s, later, y, top, bottom, pending, cross)``: its
    column, the window's later columns (``None`` at the last), its product
    ``y = [v; F^H v]`` with ``v = top``, ``F^H v = bottom``, the later
    columns' products and one cross term per later column."""
    if dictionary.shape[0] < COLUMN_WINDOW_DIM:
        return list(dictionary.T)
    dim, num_columns = dictionary.shape
    buffer = np.zeros((dim + factor_h.shape[0], COLUMN_WINDOW), dtype=np.complex128, order="F")
    crosses = np.zeros(COLUMN_WINDOW - 1, dtype=np.complex128)
    slots, plan = {}, []
    for first in range(0, num_columns, COLUMN_WINDOW):
        window = dictionary[:, first : first + COLUMN_WINDOW]
        width = window.shape[1]
        if width not in slots:
            products = buffer[:, :width]
            slots[width] = products, [
                (products[:, i], products[:dim, i], products[dim:, i],
                 products[:, i + 1 :], crosses[: width - i - 1])
                for i in range(width)
            ]
        products, views = slots[width]
        visits = [
            (i, window[:, i], window[:, i + 1 :] if i + 1 < width else None, *view)
            for i, view in enumerate(views)
        ]
        plan.append((window, products, visits))
    return plan


def column_sweep(stack: np.ndarray, plan, gamma: np.ndarray, objective: float) -> float:
    """One ascending coordinate-descent pass over the dictionary columns of
    a :func:`column_plan`.

    ``gamma`` is the flat estimate, one entry per column, and ``stack`` the
    matrix of :func:`column_stack`, updated in place. Each visit takes
    ``v = Sigma^{-1} s``, ``quad = s^H v`` and ``fit = ||F^H v||^2``, steps
    to ``max{(fit - quad)/quad^2, -gamma_j}`` and adds the step's exact
    objective change to ``objective``. Returns the new objective.

    From ``COLUMN_WINDOW_DIM`` rows on, a step corrects the products of
    the window's later columns, and the stack takes the window's steps at
    its end, or when a visit raises. A ``NumericalDegeneracyError`` leaves
    the stack holding every step before the failing column.
    """
    _check_inverse(stack)
    dim = stack.shape[1]
    values = gamma.tolist()
    try:
        if dim < COLUMN_WINDOW_DIM:
            y = np.zeros(stack.shape[0], dtype=np.complex128)
            top, bottom = y[:dim], y[dim:]
            for j, s in enumerate(plan):
                # slots after alpha, a, x: beta, y, offx, incx, offy, incy,
                # trans, overwrite_y
                zgemv(1.0, stack, s, 0.0, y, 0, 1, 0, 1, 0, 1)
                quad = zdotc(s, top).real
                fit = zdotc(bottom, bottom).real
                old = values[j]
                # a zero coordinate with no gain: its step would clip to 0
                if old == 0.0 and 0.0 < quad >= fit:
                    continue
                _check_quad(quad)
                eta = _step(quad, fit)
                if eta < -old:
                    eta = -old
                if eta == 0.0:
                    continue
                delta, denom = step_increment(eta, quad, fit)
                _update(stack, y, top, eta, denom)
                new = old + eta
                values[j] = 0.0 if new < 0.0 else new
                objective += delta
        else:
            first = 0
            for window, products, visits in plan:
                # slots after alpha, a, b: beta, c, trans_a, trans_b, overwrite_c
                zgemm(1.0, stack, window, 0.0, products, 0, 0, 1)
                steps, scales = [], []
                try:
                    for i, s, later, y, top, bottom, pending, cross in visits:
                        j = first + i
                        quad = zdotc(s, top).real
                        fit = zdotc(bottom, bottom).real
                        old = values[j]
                        if old == 0.0 and 0.0 < quad >= fit:
                            continue
                        _check_quad(quad)
                        eta = _step(quad, fit)
                        if eta < -old:
                            eta = -old
                        if eta == 0.0:
                            continue
                        delta, denom = step_increment(eta, quad, fit)
                        scale = eta / denom
                        steps.append(i)
                        scales.append(scale)
                        if later is not None:
                            _correct(pending, later, y, top, scale, cross)
                        new = old + eta
                        values[j] = 0.0 if new < 0.0 else new
                        objective += delta
                finally:
                    if steps:
                        ys = products[:, steps]
                        _apply_steps(stack, ys, ys[:dim], scales)
                first += len(visits)
    except NumericalDegeneracyError as exc:
        exc.index = j
        raise
    finally:
        gamma[:] = values
    return objective


# devices per Sigma^{-1} product in block_sweep, since OpenBLAS spends most
# of a D = 104 zgemm packing Sigma^{-1} (CHANGES, "one Sigma^-1 product per
# window of devices in bcd")
WINDOW = 4


def block_plan(dictionary: np.ndarray, factor_h: np.ndarray, num_delays: int) -> tuple:
    """:func:`block_sweep`'s plan ``(grams, devices)`` for the fit factor
    ``factor_h``: ``grams`` is ``(w, G_q, G_f, quads, fits, q_columns,
    f_columns)``, a visit's small product buffers with their real diagonals
    and columns; ``devices`` holds per device, in windows of ``WINDOW``,
    ``(window, block, later, products, v, columns, pending, cross)``.

    A device's own views are ``window``, the window's columns at its first
    device, else ``None``, ``block``, its columns, and ``later``, the
    window's later blocks (``None`` at its last device). Every window of one
    width shares the plan buffer's other views, and every visit the grams:
    ``products`` for the window's ``Sigma^{-1}`` product, ``v`` the device's
    block of it, ``columns`` its column views, ``pending`` the later blocks'
    products and ``cross`` one cross term per later column. That is safe:
    each product overwrites its output (beta 0) before it is read, a
    window's rank-k update ends before the next window's product, and a
    device's commits correct only the later blocks, so the views of ``v``
    held for the rank-k update stay valid."""
    k, slots, devices = num_delays, {}, []
    w, gram_q, gram_f = (np.zeros(shape, dtype=np.complex128, order="F")
                         for shape in ((factor_h.shape[0], k), (k, k), (k, k)))
    grams = (w, gram_q, gram_f, gram_q.diagonal().real, gram_f.diagonal().real,
             list(gram_q.T), list(gram_f.T))
    buffer = np.zeros((dictionary.shape[0], WINDOW * k), dtype=np.complex128, order="F")
    crosses = np.zeros((WINDOW - 1) * k, dtype=np.complex128)
    for first in range(0, dictionary.shape[1], WINDOW * k):
        window = dictionary[:, first : first + WINDOW * k]
        width = window.shape[1]
        if width not in slots:
            products = buffer[:, :width]
            slots[width] = [
                (products, products[:, here : here + k], list(products[:, here : here + k].T),
                 products[:, here + k :], crosses[: width - here - k])
                for here in range(0, width, k)
            ]
        for here, views in zip(range(0, width, k), slots[width]):
            later = window[:, here + k :] if here + k < width else None
            devices.append((None if here else window, window[:, here : here + k], later, *views))
    return grams, devices


def block_sweep(inv: np.ndarray, factor_h: np.ndarray, plan, gamma: np.ndarray,
                objective: float) -> float:
    """One ascending block pass over the devices of a :func:`block_plan`.

    Device ``n``'s block is its ``(D, tau_max+1)`` block of dictionary
    columns and ``gamma[n]`` its row of the ``(N, tau_max+1)`` estimate,
    which holds at most one nonzero. A visit takes ``v = Sigma^{-1} block``,
    ``w = F^H v``, ``G_q = block^H v`` and ``G_f = w^H w`` into the plan's
    shared views, each overwritten before it is read; the Gram diagonals
    are each column's ``quad`` and ``fit``. Every column is scored from the
    state with the block's entry removed, by its closed-form step and,
    where the step is positive, its exact objective change, and the lowest
    negative change is committed (ties to the smallest delay; none keeps
    the block empty). The tie rule holds for changes equal as computed:
    delays that tie exactly in the zeroed state are split by the rounding
    of its closed form.

    Removing ``gamma`` from column ``tau0`` is the step ``-gamma``, so
    Sherman-Morrison gives the zeroed-state inverse
    ``Sigma_0^{-1} = Sigma^{-1} + c u u^H`` with ``u = v[:, tau0]`` and
    ``c = gamma / denom``. With ``b = block^H u`` and
    ``g = w^H w[:, tau0]``, columns ``tau0`` of ``G_q`` and ``G_f``,
    each column's zeroed-state terms are the scalars ``quad + c |b|^2``
    and ``fit + 2 c Re(conj(b) g) + c^2 |b|^2 fit[tau0]``; the zeroed-state
    ``v + c conj(b) u`` is built only for a commit to another delay.

    ``Sigma^{-1}`` changes only at the commit: a downdate and an update,
    or one update of the net change when the entry returns to its delay.
    Re-inserting the removed entry is always a candidate, so a visit never
    raises the objective. Returns the new objective. A
    ``NumericalDegeneracyError`` leaves ``inv`` holding every commit
    before the failing device's visit, which has changed neither its row
    nor ``inv``.
    """
    _check_inverse(inv)
    rows = gamma.tolist()
    (w, gram_q, gram_f, quad_view, fit_view, q_columns, f_columns), devices = plan
    # from COLUMN_WINDOW_DIM on, Sigma^-1 takes a window's rank-one changes
    # at its end: their vectors and scales
    defer = inv.shape[0] >= COLUMN_WINDOW_DIM
    xs, scales = [], []
    try:
        for n, (window, block, later, products, v, columns, pending, cross) in enumerate(devices):
            # slots after alpha, a, b: beta, c, trans_a (2 is a^H), trans_b,
            # overwrite_c
            if window is not None:
                zgemm(1.0, inv, window, 0.0, products, 0, 0, 1)
            zgemm(1.0, factor_h, v, 0.0, w, 0, 0, 1)
            zgemm(1.0, block, v, 0.0, gram_q, 2, 0, 1)
            zgemm(1.0, w, w, 0.0, gram_f, 2, 0, 1)
            quads = quad_view.tolist()
            fits = fit_view.tolist()
            row = rows[n]
            removed = max(row)
            if removed > 0.0:
                old_tau = row.index(removed)
                u = columns[old_tau]
                quad_u, fit_u = quads[old_tau], fits[old_tau]
                _check_quad(quad_u)
                delta, down_denom = step_increment(-removed, quad_u, fit_u)
                c = removed / down_denom
                b = q_columns[old_tau].tolist()
                g = f_columns[old_tau].tolist()
                for tau, (bt, gt) in enumerate(zip(b, g)):
                    p = c * (bt.real * bt.real + bt.imag * bt.imag)
                    quads[tau] += p
                    fits[tau] += c * (2.0 * (bt.real * gt.real + bt.imag * gt.imag) + p * fit_u)
                objective += delta
            best = None
            best_delta = 0.0
            for tau, (q, fit) in enumerate(zip(quads, fits)):
                if 0.0 < q >= fit:
                    continue
                _check_quad(q)
                eta = _step(q, fit)
                if eta <= 0.0:
                    continue
                delta, denom = step_increment(eta, q, fit)
                if delta < best_delta:
                    best, best_delta = (tau, eta, denom), delta
            # the commit: row n, Sigma^-1 and the pending products of the
            # window's later blocks change only from here on
            if removed > 0.0 and (best is None or best[0] != old_tau):
                scale = -removed / down_denom
                if defer:
                    xs.append(u)
                    scales.append(scale)
                else:
                    _update(inv, u, u, -removed, down_denom)
                if later is not None:
                    _correct(pending, later, u, u, scale, cross)
                row[old_tau] = 0.0
            if best is not None:
                tau, eta, denom = best
                step = eta
                if removed > 0.0 and tau == old_tau:
                    # re-inserted where it was: removal and commit are one
                    # rank-one update of the net change
                    step = eta - removed
                    denom = step_increment(step, quad_u, 0.0)[1]
                    x = u
                elif removed > 0.0:
                    x = columns[tau] + c * b[tau].conjugate() * u
                else:
                    x = columns[tau]
                scale = step / denom
                if defer:
                    xs.append(x)
                    scales.append(scale)
                else:
                    _update(inv, x, x, step, denom)
                if later is not None:
                    _correct(pending, later, x, x, scale, cross)
                objective += best_delta
                row[tau] = eta
            if later is None and xs:
                stacked = np.array(xs).T
                _apply_steps(inv, stacked, stacked, scales)
                xs, scales = [], []
    except NumericalDegeneracyError as exc:
        exc.index = n
        raise
    finally:
        gamma[:] = rows
        if xs:
            stacked = np.array(xs).T
            _apply_steps(inv, stacked, stacked, scales)
    return objective


def quadratic_terms(state: CovarianceState, sigma_tilde, device: int, delay: int):
    """``(v, quad, fit)`` of one coordinate: ``v = Sigma^{-1} s``,
    ``quad = s^H v`` and ``fit = Re(v^H S_tilde v)``, without a
    :func:`fit_factor`, whose factorization only pays off over a run."""
    st = _check_sample_covariance(sigma_tilde, state.dim)
    v, quad = _project(state.inv_sigma, state.column(device, delay))
    return v, quad, zdotc(v, zgemv(1.0, st, v)).real


def rank_one_inverse_update(
    state: CovarianceState, device: int, delay: int, eta: float
) -> None:
    """Apply ``gamma[device, delay] += eta`` to the tracked inverse in place.

    The objective field is not touched; callers track it via
    :func:`step_increment`, computed before this update. A coordinate
    outside ``[0, N) x [0, tau_max]`` raises ``ValueError`` before
    anything changes, also with a zero step.
    """
    _check_inverse(state.inv_sigma)
    s = state.column(device, delay)
    if eta == 0.0:
        return
    v, quad = _project(state.inv_sigma, s)
    _, denom = step_increment(eta, quad, 0.0)
    new_value = float(state.gamma[device, delay]) + eta
    if new_value < 0.0:
        if new_value < -1e-12:
            raise ValueError(f"update would drive gamma negative ({new_value})")
        new_value = 0.0
    _update(state.inv_sigma, v, v, eta, denom)
    state.gamma[device, delay] = new_value


def refresh_state(state: CovarianceState, sigma_tilde) -> None:
    """Recompute ``inv_sigma`` and ``objective`` from a dense factorization;
    called every few sweeps to wipe out accumulated rank-one roundoff."""
    st = _check_sample_covariance(sigma_tilde, state.dim)
    cov = assemble_covariance(state.dictionary, state.gamma, state.sigma2)
    state.objective, state.inv_sigma = _dense_objective(cov, st, "dense refresh failed")
