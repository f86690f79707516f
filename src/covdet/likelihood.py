"""Covariance-matching ML machinery.

The fit objective is ``log det(Sigma) + trace(Sigma^{-1} S_tilde)`` where
``Sigma = sum_j gamma_j s_j s_j^H + sigma2 I`` over dictionary columns
``s_j`` and ``S_tilde`` is the sample covariance. A detector run tracks
``Sigma^{-1}`` and the objective in one ``CovarianceState``, defined here
with the calls that build, update and refresh it: Sherman-Morrison updates
and matching closed-form objective increments, plus a dense refresh.
Gamma is a plain ``(N, tau_max+1)`` float64 array, device-major like the
dictionary columns, and ``assemble_covariance`` is the one dense builder
of ``Sigma`` from the two.

The coordinate math lives once, in the kernel that both detectors call.
A detector pass is one call: ``column_sweep`` visits every dictionary
column (``cd_e``, ``cd_e_sync``) and ``block_sweep`` every device's
block of delay columns (``bcd``), each over a plan that
``column_plan`` or ``block_plan`` builds once per run; a pass reads
gamma as Python floats and writes it back when it ends, and one
coordinate is visited by a one-column ``column_sweep``. Below
``COLUMN_WINDOW_DIM`` (64) rows, ``column_sweep`` visits column by
column; from it on, in windows of ``COLUMN_WINDOW`` (32) columns, with
one stack product per window and the window's steps applied to the stack
at its end, so a step updates only the window's later products.
``block_sweep`` makes one ``Sigma^{-1}`` product per window of ``WINDOW``
(4) devices, and from ``COLUMN_WINDOW_DIM`` on it also applies the
window's commits to ``Sigma^{-1}`` at the window's end. Each choice is
made from the window length ``D`` alone. The formulas every loop shares
live once each: the step in ``_step``, the exact objective change and its
denominator guard in ``step_increment``, the quadratic-form guard in
``_check_quad``, the Sherman-Morrison update in ``_update``, the
correction of a window's pending products in ``_correct`` and a window's
rank-k update at its end in ``_apply_steps``.

The kernel never touches ``S_tilde`` itself. ``fit_factor`` returns
``F^H`` with ``S_tilde = F F^H`` from a pivoted Cholesky factor, whose
row count is the numerical rank of ``S_tilde`` (``M`` for ``M`` antennas
below the window length ``D``, else ``D``), so the fit form
``s^H Sigma^{-1} S_tilde Sigma^{-1} s`` is ``||F^H v||^2`` at
``O(D rank)`` instead of a ``D x D`` matvec. ``init_state``,
``refresh_state``, ``evaluate_objective`` and ``quadratic_terms`` check
the sample covariance they take: square, finite and Hermitian, where one
pass for ``max|S|`` is both the finiteness check and the scale of the
Hermitian tolerance.
``fit_factor`` adds that it is positive semidefinite, from the remainder
of its factorization. The dictionary is Fortran-ordered as
``siggen.effective_dictionary`` builds it, so its columns and blocks
reach BLAS without a copy.

``quadratic_terms`` and ``rank_one_inverse_update`` step one coordinate
of a ``CovarianceState`` outside the kernel. No detector calls them; they
are kept for the ``likelihood.step_us`` probe of ``perfbench/bench.py``.

``bcd`` scores a block from the state with the block's entry removed.
Sherman-Morrison gives each column's zeroed-state terms in closed form,
as scalars from its current-state terms and the removed column's cross
terms, which the block's two ``k x k`` Gram products already hold, so a
visit neither downdates ``Sigma^{-1}`` nor multiplies again before it
commits; when the entry goes back to the delay it came from, removal
and commit are one rank-one update of the net change.

Every dense product of a detector run goes through scipy's BLAS and
LAPACK: one ``zgemv`` for a column below ``COLUMN_WINDOW_DIM``, on the
``column_stack`` that a run builds once and after each refresh, or one
``zgemm`` for the stack times a window of columns from it on; ``zdotc``
for the inner products of a column (a quarter of numpy's ``vdot`` call
overhead), ``zgemm`` for ``Sigma^{-1}`` times a window of blocks, for
``F^H`` times a block and for its Gram products; for each step or
commit, a ``zgemv`` for its cross terms with the window's later columns
or blocks and a ``zgerc`` for the correction of their pending products;
below ``COLUMN_WINDOW_DIM``, an in-place ``zgerc`` for each rank-one
update of the Fortran-ordered stack or ``Sigma^{-1}``, and from it on one
rank-k ``zgemm`` per window for the window's steps or commits; ``zherk`` over
the held columns for a dense ``Sigma``, ``zpotrf`` and ``zpotri`` for its
log-determinant and inverse, ``zpstrf`` for the fit factor, and ``zherk``
and ``zlantr`` for the largest entry of what the factor leaves out. Keeping
them in one library matters: numpy ships its own BLAS with its own
thread pool, and when threads are not pinned, alternating the two pools
call by call costs up to milliseconds per call.

These nine come from scipy's compiled ``_fblas`` and ``_flapack``,
loaded by file from its ``linalg`` directory: the objects that
``scipy.linalg.blas`` and ``.lapack`` export, minus ``scipy.linalg``'s
package init (``numpy.testing``, ``numpy.ma``, ``numpy.f2py``), which is
0.3 s and 22 MB per process: half the start-up, a quarter of peak memory.

The per-visit calls (``zgerc`` in ``_update`` and ``block_sweep``, the
cross-term ``zgemv`` and ``zgerc`` of ``_correct``, the fit ``zdotc`` of
``column_sweep``, the Gram ``zgemm`` calls of ``block_sweep``) and the
per-window ``zgemm`` calls of both sweeps pass optional arguments by
position:
f2py parses a keyword in about 0.3 us, what a ``D = 32`` product costs
(that ``zgerc``: 3.0 us with keywords, 2.0 us without); per-trial calls
keep keywords.
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

    ``gamma[n, tau]`` is the fitted power of device ``n`` at delay
    ``tau``; one row per device is a "block". Single-writer: one
    detection run owns and mutates it. ``objective`` follows gamma by
    exact increments, and in ``bcd`` passes so does ``inv_sigma``, by
    rank-one updates. In ``cd_e`` and ``cd_e_sync`` passes the live inverse
    is the top block of :func:`column_stack`'s stack, which is never
    copied back: ``inv_sigma`` holds the last dense refresh's inverse, also
    after the run. A periodic dense refresh bounds the drift.
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
    """Model covariance ``sum_j gamma_j s_j s_j^H + sigma2 I`` over the
    columns ``s_j`` of an effective dictionary, Fortran-ordered.

    ``gamma`` holds one power per dictionary column in column order: the
    ``(N, tau_max+1)`` estimate or its flat view. Raises ``ValueError``
    when its size is not the column count, or when an entry is NaN, Inf
    or negative. One ``zherk`` over the held columns (``gamma_j > 0``)
    builds a triangle, mirrored: exactly Hermitian, ``sigma2 I`` at gamma = 0.
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
    """``(objective, Sigma^{-1})`` from one LAPACK ``zpotrf`` of the lower
    triangle of ``mat``: ``Sigma``, or ``Sigma^{-1}`` if ``inverse``. ``zpotri``
    inverts ``Sigma``, mirrored into an exactly Hermitian Fortran array. The
    trace term is ``Re sum(conj(S_tilde) * Sigma^{-1})``, off numpy's BLAS.
    ``ValueError`` for NaN or Inf in ``mat``; ``NumericalDegeneracyError``,
    led by ``failure``, when the factorization fails."""
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
    """Fit objective ``log det(Sigma) + trace(Sigma^{-1} S_tilde)`` at the
    covariance ``mat``, or its inverse if ``inverse``; checks ``sigma_tilde``."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix of shape {mat.shape} is not square")
    st = _check_sample_covariance(sigma_tilde, mat.shape[0])
    return _dense_objective(mat, st, "covariance not positive definite", inverse)[0]


def init_state(dictionary: np.ndarray, sigma2: float, sigma_tilde,
               num_delays: int) -> CovarianceState:
    """Fresh state at gamma = 0: inverse is I/sigma2 and the objective is
    ``D log(sigma2) + trace(S_tilde)/sigma2``.

    ``num_delays`` fixes the gamma block width; dictionary columns are
    device-major, delay-minor. Raises ``ValueError`` for a sample
    covariance that :func:`_check_sample_covariance` rejects, as
    :func:`quadratic_terms` and :func:`refresh_state` do.
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

    Built from LAPACK's pivoted Cholesky ``zpstrf`` of the sample
    covariance, which is Hermitian positive semidefinite:
    ``S_tilde = P L L^H P^T`` with ``L`` lower trapezoidal, and the
    factorization stops at the numerical rank (LAPACK's default
    tolerance, ``D * eps`` times the largest diagonal entry), so
    ``F = P L`` has shape ``(D, M)`` for ``M < D`` antennas and ``(D, D)``
    otherwise. A zero ``S_tilde`` gives one zero row, so the kernel never
    hands BLAS an empty operand.

    An indefinite matrix also stops below rank ``D``, and the part left
    unfactored would be dropped silently. So below rank ``D`` the factor
    must reproduce the lower triangle of ``S_tilde`` (all that ``zpstrf``
    reads) to within ``(D + 2 rank + 2) * eps * max diag(S_tilde)``,
    checked by one ``zherk``; otherwise ``ValueError``. ``D`` is the stop's
    tolerance, and ``zpstrf`` and the check's ``zherk`` each round an entry
    ``rank + 1`` times, on terms that Cauchy-Schwarz bounds by the largest
    diagonal entry.
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
    ``1e-10 * max(1, max|S|)``; raises ``ValueError`` otherwise.

    Finiteness is read off ``max|S|`` itself, in the same pass: an entry
    with NaN or Inf in either part, or a finite one whose modulus
    overflows, makes it non-finite. The fit factor reads only the lower
    triangle and the fit form the whole array, so an asymmetric array
    would otherwise be fitted silently.
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
    array: for any other layout an in-place ``zgerc`` would update a copy,
    and the update would be lost."""
    if inv.dtype != np.complex128 or not inv.flags.f_contiguous:
        raise ValueError("rank-one update needs a Fortran-ordered complex128 inverse")


def _step(quad, fit):
    """``(fit - quad)/quad^2``, the unconstrained minimizer of the
    objective along a coordinate."""
    return (fit - quad) / (quad * quad)


def _update(inv: np.ndarray, x: np.ndarray, v: np.ndarray, eta: float, denom: float) -> None:
    """Sherman-Morrison ``inv -= eta * x v^H / denom`` by one in-place
    ``zgerc``, with ``x = v = Sigma^{-1} s``; on the stacked
    ``[Sigma^{-1}; F^H Sigma^{-1}]``, ``x = [v; F^H v]``. The caller has
    checked ``inv`` with :func:`_check_inverse`."""
    # slots after alpha, x, y: incx, incy, a, overwrite_x, overwrite_y, overwrite_a
    zgerc(-eta / denom, x, v, 1, 1, inv, 1, 1, 1)


def _correct(pending: np.ndarray, later: np.ndarray, x: np.ndarray, v: np.ndarray,
             scale: float) -> None:
    """Carry a rank-one change ``M -= scale * x v^H`` of a tracked matrix
    ``M`` (``Sigma^{-1}`` or the column stack) into a window's pending
    products ``pending = M later``: ``pending -= scale * x (later^H v)^H``,
    one ``zgemv`` for the cross terms and one in-place ``zgerc`` (a pending
    view of a Fortran-ordered product is Fortran-ordered)."""
    # slots after alpha, a, x: beta, y, offx, incx, offy, incy, trans (2 is a^H)
    cross = zgemv(1.0, later, v, 0.0, None, 0, 1, 0, 1, 2)
    zgerc(-scale, x, cross, 1, 1, pending, 1, 1, 1)


def _apply_steps(target: np.ndarray, xs: np.ndarray, vs: np.ndarray, scales: list) -> None:
    """``target -= sum_k scales[k] * xs[:, k] vs[:, k]^H`` by one in-place
    rank-k ``zgemm``: a window's rank-one changes made at its end. Each
    ``xs[:, k]`` was read after the window's earlier changes, so this is
    their Sherman-Morrison updates made in turn."""
    # slots after alpha, a, b: beta, c, trans_a, trans_b (2 is b^H), overwrite_c
    zgemm(-1.0, xs, vs * scales, 1.0, target, 0, 2, 1)


def _project(inv: np.ndarray, s: np.ndarray):
    """``(v, quad)`` with ``v = Sigma^{-1} s`` and ``quad = s^H Sigma^{-1} s``."""
    v = zgemv(1.0, inv, s)
    quad = zdotc(s, v).real
    _check_quad(quad)
    return v, quad


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


def column_stack(state: CovarianceState, factor_h: np.ndarray) -> np.ndarray:
    """``[Sigma^{-1}; F^H Sigma^{-1}]`` of ``state``, Fortran-ordered, which
    :func:`column_sweep` tracks: one ``zgemm``, none at gamma = 0, where
    ``Sigma^{-1}`` is ``I/sigma2``."""
    inv = state.inv_sigma
    lower = zgemm(1.0, factor_h, inv) if state.gamma.any() else factor_h / state.sigma2
    return np.asfortranarray(np.concatenate((inv, lower)))


# columns per stack product of a windowed column_sweep pass
COLUMN_WINDOW = 32
# window length D from which column_sweep visits its columns in windows of
# COLUMN_WINDOW: one stack product per window and one rank-k stack update
# for the window's steps, against one zgemv per visit and one zgerc of the
# whole stack per step. Per-visit over windowed time on the same trials
# (above 1x the windows win), in process, pinned to one core (Xeon);
# desk.json at M=4 (seeds 12345-12374) with preamble length L, so cd_e's
# D is L+2 and cd_e_sync's is L:
#   L=30 (desk; also M=64): cd_e 0.89-0.92x, cd_e_sync 0.76-0.88x
#   L=46 / 48 / 54: cd_e 1.00-1.04 / 1.03-1.09 / 1.00-1.05x,
#                   cd_e_sync 0.88-0.90 / 0.92 / 1.02-1.09x
#   L=62 / 64 / 78: cd_e 1.19 / 1.17-1.22 / 1.08-1.09x,
#                   cd_e_sync 0.96-1.02 / 1.07-1.18 / 1.18-1.24x
#   full.json, D=104, M=2 / 4 / 64 (seeds 12345-12347):
#     cd_e 1.37-1.41 / 1.42-1.51 / 1.27-1.41x, cd_e_sync 1.31-1.36 / 1.44-1.48 / 1.33-1.37x
# From the same D on, block_sweep applies a window's commits to Sigma^-1 by
# one rank-k zgemm at the window's end, against one zgerc per rank-one
# change. bcd time with one zgerc per change over time with the window's
# update (same runs and settings, interleaved, best of 3-5):
#   desk.json M=4, L=30 (D=32; 100 seeds): 0.94x
#   desk.json M=4, L=62 / 78 (D=64 / 80; 30 seeds): 1.02-1.03 / 0.99x
#   full.json M=2 / 4 (3 seeds): 1.04 / 1.05x
COLUMN_WINDOW_DIM = 64


def column_plan(dictionary: np.ndarray) -> list:
    """:func:`column_sweep`'s plan over the columns of the Fortran-ordered
    ``dictionary``: below ``COLUMN_WINDOW_DIM`` rows, its column views; from
    it on, per window of ``COLUMN_WINDOW`` columns, ``(window, its column
    views)``."""
    if dictionary.shape[0] < COLUMN_WINDOW_DIM:
        return list(dictionary.T)
    windows = (
        dictionary[:, first : first + COLUMN_WINDOW]
        for first in range(0, dictionary.shape[1], COLUMN_WINDOW)
    )
    return [(window, list(window.T)) for window in windows]


def column_sweep(stack: np.ndarray, plan, gamma: np.ndarray, objective: float) -> float:
    """One ascending coordinate-descent pass over the dictionary columns of
    a :func:`column_plan`.

    ``gamma`` is the flat ``(N*(tau_max+1),)`` estimate, one entry per
    column; the pass updates :func:`column_stack`'s
    ``[Sigma^{-1}; F^H Sigma^{-1}]`` in place. Each visit takes
    ``y = [v; F^H v]``, ``v = Sigma^{-1} s``, ``quad = s^H v`` and
    ``fit = ||F^H v||^2`` (``zdotc`` each), steps to
    ``max{(fit - quad)/quad^2, -gamma_j}`` and, for a nonzero step, adds
    the step's exact objective change to ``objective``. Returns the new
    objective.

    Below ``COLUMN_WINDOW_DIM`` rows (the plan is a list of columns), a
    visit takes ``y`` from one ``zgemv`` of the stack, and a step updates
    both blocks by one Sherman-Morrison ``zgerc`` of ``y`` against ``v``.
    From it on, each window of the plan starts with one ``zgemm`` of the
    stack with its columns, into a buffer of the pass, and a visit reads
    ``y`` there. A step with ``a = eta/denom`` corrects the products of
    the window's later columns ``P`` by ``-a y (P^H v)^H``: one ``zgemv``
    for ``P^H v`` and one ``zgerc``. The stack takes the window's steps at
    its end, or when a visit raises, by one rank-k ``zgemm``.

    ``stack`` must be Fortran-ordered complex128 (else ``ValueError``, with
    nothing changed). Gamma is read as Python floats and written back
    when the pass ends, also when it raises; a ``NumericalDegeneracyError``
    carries the failing column in ``index``, and the stack then holds every
    step before it.
    """
    _check_inverse(stack)
    dim = stack.shape[1]
    rank = stack.shape[0] - dim
    values = gamma.tolist()
    try:
        if dim < COLUMN_WINDOW_DIM:
            for j, s in enumerate(plan):
                y = zgemv(1.0, stack, s)
                quad = zdotc(s, y).real
                _check_quad(quad)
                # slots after x, y: n, offx, incx, offy, incy
                fit = zdotc(y, y, rank, dim, 1, dim, 1).real
                eta = _step(quad, fit)
                old = values[j]
                if eta < -old:
                    eta = -old
                if eta == 0.0:
                    continue
                delta, denom = step_increment(eta, quad, fit)
                _update(stack, y, y[:dim], eta, denom)
                new = old + eta
                values[j] = 0.0 if new < 0.0 else new
                objective += delta
        else:
            buffer = np.empty((stack.shape[0], COLUMN_WINDOW), dtype=np.complex128, order="F")
            first = 0
            for window, columns in plan:
                width = len(columns)
                # slots after alpha, a, b: beta, c, trans_a, trans_b, overwrite_c
                products = zgemm(1.0, stack, window, 0.0, buffer[:, :width], 0, 0, 1)
                steps, scales = [], []
                try:
                    for i, (s, y) in enumerate(zip(columns, products.T)):
                        j = first + i
                        quad = zdotc(s, y).real
                        _check_quad(quad)
                        fit = zdotc(y, y, rank, dim, 1, dim, 1).real
                        eta = _step(quad, fit)
                        old = values[j]
                        if eta < -old:
                            eta = -old
                        if eta == 0.0:
                            continue
                        delta, denom = step_increment(eta, quad, fit)
                        scale = eta / denom
                        steps.append(i)
                        scales.append(scale)
                        if i + 1 < width:
                            _correct(products[:, i + 1 :], window[:, i + 1 :], y, y[:dim], scale)
                        new = old + eta
                        values[j] = 0.0 if new < 0.0 else new
                        objective += delta
                finally:
                    if steps:
                        ys = products[:, steps]
                        _apply_steps(stack, ys, ys[:dim], scales)
                first += width
    except NumericalDegeneracyError as exc:
        exc.index = j
        raise
    finally:
        gamma[:] = values
    return objective


# devices per Sigma^{-1} product in block_sweep: OpenBLAS spends most of a
# D = 104 zgemm packing Sigma^{-1}. Against one product per device, bcd on
# full.json M=4 read 1.32x at 4 and 1.26-1.29x at 2, 3, 6 and 8 (Xeon), but
# 0.93x at 4 where D = 10 (desk.json with K=40, L=8, M=4096)
WINDOW = 4


def block_plan(dictionary: np.ndarray, num_delays: int) -> list:
    """:func:`block_sweep`'s plan: per device, in windows of ``WINDOW``,
    ``(window, here, block, later)``: the window's columns at its first
    device, else ``None``; the column slice of its block in the window's
    product; the block's columns; the columns of the window's later blocks
    (``None`` at the last), whose products follow the block's."""
    k, plan = num_delays, []
    for first in range(0, dictionary.shape[1], WINDOW * k):
        window = dictionary[:, first : first + WINDOW * k]
        for here in range(0, window.shape[1], k):
            later = window[:, here + k :] if here + k < window.shape[1] else None
            plan.append((None if here else window, slice(here, here + k),
                         window[:, here : here + k], later))
    return plan


def block_sweep(inv: np.ndarray, factor_h: np.ndarray, plan, gamma: np.ndarray,
                objective: float) -> float:
    """One ascending block pass over the devices of a :func:`block_plan`.

    Device ``n``'s block is its ``(D, tau_max+1)`` block of dictionary
    columns and ``gamma[n]`` its row of the ``(N, tau_max+1)`` estimate,
    which holds at most one nonzero. A window's first visit makes
    ``Sigma^{-1} window`` by one ``zgemm``; each visit reads its block
    ``v = Sigma^{-1} block`` there and makes ``w = F^H v``,
    ``G_q = block^H v`` and ``G_f = w^H w``, one ``zgemm`` each, whose
    diagonals are each column's ``quad`` and ``fit``. Every column is
    scored from the state with the block's entry removed, by its
    closed-form step and, where the step is positive, its exact objective
    change, and the lowest negative change is committed (ties to the
    smallest delay; none keeps the block empty).
    The tie rule holds for changes that are equal as computed: after a
    removal, each delay's zeroed-state terms come from the closed form
    below, so delays that tie exactly in the zeroed state are split by its
    rounding.

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
    Each rank-one change ``Sigma^{-1} -= a x x^H`` moves the window's
    pending products ``Sigma^{-1} P`` of its later blocks by
    ``-a x (P^H x)^H``: one ``zgemv`` for ``P^H x`` and one ``zgerc``.
    Below ``COLUMN_WINDOW_DIM`` rows ``Sigma^{-1}`` takes each change by
    one ``zgerc``; from it on, it takes the window's changes at the
    window's end, or when a visit raises, by one rank-k ``zgemm``.
    Re-inserting the removed entry is always a candidate, so a visit never
    raises the objective. Returns the new objective.

    ``inv``, gamma and errors are handled as in :func:`column_sweep`, with
    the failing device in ``index``; ``inv`` then holds every commit
    before that device's visit, which has changed neither its row nor
    ``inv``.
    """
    _check_inverse(inv)
    rows = gamma.tolist()
    # from COLUMN_WINDOW_DIM on, Sigma^-1 takes a window's rank-one changes
    # at its end: their vectors and scales
    defer = inv.shape[0] >= COLUMN_WINDOW_DIM
    xs, scales = [], []
    try:
        for n, (window, here, block, later) in enumerate(plan):
            if window is not None:
                products = zgemm(1.0, inv, window)
            v = products[:, here]
            w = zgemm(1.0, factor_h, v)
            # slots after alpha, a, b: beta, c, trans_a (2 is a^H)
            gram_q = zgemm(1.0, block, v, 0.0, None, 2)
            gram_f = zgemm(1.0, w, w, 0.0, None, 2)
            quads = gram_q.diagonal().real.tolist()
            fits = gram_f.diagonal().real.tolist()
            row = rows[n]
            removed = max(row)
            if removed > 0.0:
                old_tau = row.index(removed)
                u = v[:, old_tau]
                quad_u, fit_u = quads[old_tau], fits[old_tau]
                _check_quad(quad_u)
                delta, down_denom = step_increment(-removed, quad_u, fit_u)
                c = removed / down_denom
                b = gram_q[:, old_tau].tolist()
                g = gram_f[:, old_tau].tolist()
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
            # the commit: row n, Sigma^-1 and the pending products change
            # only from here on; each rank-one change Sigma^-1 -= scale x x^H
            # also corrects the products of the window's later blocks
            if removed > 0.0 and (best is None or best[0] != old_tau):
                scale = -removed / down_denom
                if defer:
                    xs.append(u)
                    scales.append(scale)
                else:
                    _update(inv, u, u, -removed, down_denom)
                if later is not None:
                    _correct(products[:, here.stop :], later, u, u, scale)
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
                    x = v[:, tau] + c * b[tau].conjugate() * u
                else:
                    x = v[:, tau]
                scale = step / denom
                if defer:
                    xs.append(x)
                    scales.append(scale)
                else:
                    _update(inv, x, x, step, denom)
                if later is not None:
                    _correct(products[:, here.stop :], later, x, x, scale)
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
    """The two quadratic forms behind every coordinate formula.

    Returns ``(v, quad, fit)`` with ``v = Sigma^{-1} s``,
    ``quad = s^H Sigma^{-1} s`` and ``fit = s^H Sigma^{-1} S_tilde Sigma^{-1} s``.
    ``fit`` is ``Re(v^H S_tilde v)`` from one ``zgemv``: one call needs no
    :func:`fit_factor`, whose factorization only pays off over a detector
    run.
    """
    st = _check_sample_covariance(sigma_tilde, state.dim)
    v, quad = _project(state.inv_sigma, state.column(device, delay))
    return v, quad, zdotc(v, zgemv(1.0, st, v)).real


def rank_one_inverse_update(
    state: CovarianceState, device: int, delay: int, eta: float
) -> None:
    """Apply ``gamma[device, delay] += eta`` to the tracked inverse in place.

    Sherman-Morrison: ``Sigma^{-1} -= eta * v v^H / (1 + eta * quad)``
    with ``v = Sigma^{-1} s``. The objective field is not touched; callers
    track it via :func:`step_increment` (computed before this update).
    ``state.inv_sigma`` is updated in place by BLAS, so a layout other
    than Fortran-ordered complex128 raises ``ValueError`` before anything
    changes, and so does a coordinate outside ``[0, N) x [0, tau_max]``,
    also with a zero step.
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
