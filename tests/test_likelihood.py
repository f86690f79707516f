"""Objective machinery: assembly, the coordinate kernel, rank-one updates.

The acceptance gate (``tests/test_acceptance.py``) alone states criteria
1-4 and 8; the tests here check what those criteria do not, or check it
to a tighter bound. Whole passes of ``column_sweep`` and ``block_sweep``
are checked in ``test_detect``, where both detectors' runs are compared
with ``oracle.reference_run``.
"""

import ctypes
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import (
    coordinate_terms,
    degenerate_removals,
    kernel_visit,
    make_config,
    make_scenario,
    package_env,
    shipped,
)
from covdet import detect, likelihood
from covdet.siggen import effective_dictionary
from covdet.sysmodel import NumericalDegeneracyError


def scalar_state(sigma_tilde_value, gamma_value=0.0):
    """1x1 problem with s=[1]: everything has a closed form."""
    dictionary = np.ones((1, 1), dtype=complex)
    st = np.array([[sigma_tilde_value]], dtype=complex)
    state = likelihood.init_state(dictionary, 1.0, st, num_delays=1)
    if gamma_value:
        state.gamma[0, 0] = gamma_value
        likelihood.refresh_state(state, st)
    return state, st


def random_state(seed, num_devices=5, preamble_len=10, max_delay=1, num_antennas=32,
                 num_active=2, updates=6):
    """A state advanced by a few kernel visits on a real scenario, with
    the preambles, the sample covariance and the fit factor."""
    config = make_config(
        num_devices=num_devices, preamble_len=preamble_len, max_delay=max_delay,
        num_antennas=num_antennas, num_active=num_active,
    )
    preambles, _, st = make_scenario(config, seed)
    st, factor_h, state = detect.prepare(preambles, st, config)
    rng = np.random.default_rng(seed + 1)
    for _ in range(updates):
        n = int(rng.integers(num_devices))
        tau = int(rng.integers(max_delay + 1))
        kernel_visit(state, factor_h, n, tau)
    return preambles, state, st, factor_h


class TestAssembleCovariance:
    def test_zero_gamma_gives_noise_floor(self):
        config = make_config(num_devices=4, preamble_len=6, max_delay=1)
        preambles = make_scenario(config, 0)[0]
        dictionary = effective_dictionary(preambles, 1)
        cov = likelihood.assemble_covariance(dictionary, np.zeros((4, 2)), 2.5)
        np.testing.assert_array_equal(cov, 2.5 * np.eye(7))

    def test_matches_oracle_over_held_columns(self):
        # only the held columns enter; the result is Hermitian by construction
        for seed in (0, 1, 2):
            config = make_config(num_devices=6, preamble_len=9, max_delay=2)
            preambles = make_scenario(config, seed)[0]
            dictionary = effective_dictionary(preambles, 2)
            rng = np.random.default_rng(seed)
            gamma = rng.random((6, 3)) * (rng.random((6, 3)) < 0.4)
            assert 0 < np.count_nonzero(gamma) < gamma.size
            cov = likelihood.assemble_covariance(dictionary, gamma, 0.8)
            np.testing.assert_allclose(
                cov, oracle.dense_covariance(preambles, gamma, 0.8), rtol=0, atol=1e-12
            )
            assert np.array_equal(cov, cov.conj().T)

    def test_single_term(self):
        config = make_config(num_devices=3, preamble_len=5, max_delay=2)
        preambles = make_scenario(config, 1)[0]
        dictionary = effective_dictionary(preambles, 2)
        gamma = np.zeros((3, 3))
        gamma[1, 2] = 0.7
        cov = likelihood.assemble_covariance(dictionary, gamma, 1.0)
        s = dictionary[:, 1 * 3 + 2]
        np.testing.assert_allclose(
            cov, 0.7 * np.outer(s, s.conj()) + np.eye(7), atol=1e-14
        )

    def test_scalar_case(self):
        dictionary = np.ones((1, 1), dtype=complex)
        cov = likelihood.assemble_covariance(dictionary, np.array([[2.0]]), 1.0)
        assert cov == pytest.approx(np.array([[3.0]]))

    def test_negative_gamma_rejected(self):
        dictionary = np.ones((1, 1), dtype=complex)
        with pytest.raises(ValueError, match="non-negative"):
            likelihood.assemble_covariance(dictionary, np.array([[-0.1]]), 1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="NaN or Inf"):
                likelihood.assemble_covariance(dictionary, np.array([[bad]]), 1.0)
        # 6 columns: 3 devices x 2 delays
        dictionary = effective_dictionary(np.ones((4, 3), dtype=complex), 1)
        for gamma in (np.zeros((2, 2)), np.zeros((3, 3)), np.zeros(4)):
            want = (
                f"gamma of shape {gamma.shape} does not match the 6 columns "
                "of a dictionary of shape (5, 6)"
            )
            with pytest.raises(ValueError, match=re.escape(want)):
                likelihood.assemble_covariance(dictionary, gamma, 1.0)


class TestEvaluateObjective:
    def test_identity_pair(self):
        eye = np.eye(7, dtype=complex)
        assert likelihood.evaluate_objective(eye, eye) == pytest.approx(7.0)

    def test_matched_diagonal(self):
        mat = 2.0 * np.eye(2, dtype=complex)
        expected = 2 * math.log(2.0) + 2.0
        assert likelihood.evaluate_objective(mat, mat) == pytest.approx(expected)

    def test_scalar(self):
        value = likelihood.evaluate_objective(
            np.array([[3.0 + 0j]]), np.array([[6.0 + 0j]])
        )
        assert value == pytest.approx(math.log(3.0) + 2.0)

    def test_inverse_form_agrees(self):
        _, state, st, _ = random_state(seed=21)
        cov = likelihood.assemble_covariance(state.dictionary, state.gamma, 1.0)
        direct = likelihood.evaluate_objective(cov, st)
        via_inverse = likelihood.evaluate_objective(
            np.linalg.inv(cov), st, inverse=True
        )
        assert via_inverse == pytest.approx(direct, rel=1e-10)

    def test_non_positive_definite_rejected(self):
        bad = -np.eye(3, dtype=complex)
        with pytest.raises(NumericalDegeneracyError):
            likelihood.evaluate_objective(bad, np.eye(3, dtype=complex))

    @pytest.mark.parametrize("inverse", [False, True], ids=["covariance", "inverse"])
    def test_non_square_rejected(self, inverse):
        with pytest.raises(ValueError, match=re.escape("matrix of shape (3, 4) is not square")):
            likelihood.evaluate_objective(np.ones((3, 4), dtype=complex), np.eye(3), inverse=inverse)

    @pytest.mark.parametrize("inverse", [False, True], ids=["covariance", "inverse"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["matrix", "sample"])
    def test_non_finite_input_rejected(self, where, bad, inverse):
        # the inverse form once returned nan for either
        mat = 2.0 * np.eye(3, dtype=complex)
        st = np.eye(3, dtype=complex)
        (mat if where == "matrix" else st)[1, 1] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            likelihood.evaluate_objective(mat, st, inverse=inverse)


class TestInitState:
    def test_initial_objective_formula(self):
        _, _, st, _ = random_state(seed=22)
        dim = st.shape[0]
        state = likelihood.init_state(np.eye(dim, dtype=complex), 2.0, st, 1)
        expected = dim * math.log(2.0) + np.trace(st).real / 2.0
        assert state.objective == pytest.approx(expected)
        np.testing.assert_allclose(state.inv_sigma, np.eye(dim) / 2.0)

    def test_indivisible_blocks_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            likelihood.init_state(np.ones((4, 5), dtype=complex), 1.0, np.eye(4), 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="window"):
            likelihood.init_state(np.ones((4, 2), dtype=complex), 1.0, np.eye(5), 1)


class TestCoordinateStep:
    """The step of one kernel visit, a one-column ``column_sweep``."""

    def test_scalar_step_from_zero(self):
        # eta = max(sigma_tilde - gamma - sigma2, -gamma) = 3 - 0 - 1 = 2
        state, st = scalar_state(3.0)
        assert kernel_visit(state, likelihood.fit_factor(st), 0, 0) == pytest.approx(2.0)

    def test_scalar_clipping_branch(self):
        # unconstrained step 1 - 6 = -5 hits the gamma >= 0 wall exactly
        state, st = scalar_state(1.0, gamma_value=5.0)
        assert kernel_visit(state, likelihood.fit_factor(st), 0, 0) == pytest.approx(-5.0)
        assert state.gamma[0, 0] == 0.0

    def test_stationary_at_exact_covariance(self):
        preambles, state, _, _ = random_state(seed=23)
        cov = likelihood.assemble_covariance(state.dictionary, state.gamma, 1.0)
        likelihood.refresh_state(state, cov)
        factor_h = likelihood.fit_factor(cov)
        for n in range(5):
            for tau in range(2):
                assert abs(kernel_visit(state, factor_h, n, tau)) <= 1e-10

    def test_never_drives_gamma_negative(self):
        rng = np.random.default_rng(24)
        _, state, _, factor_h = random_state(seed=24, updates=0)
        for _ in range(100):
            n = int(rng.integers(5))
            tau = int(rng.integers(2))
            kernel_visit(state, factor_h, n, tau)
            assert state.gamma[n, tau] >= 0.0

    def test_corrupted_state_detected(self):
        _, state, _, factor_h = random_state(seed=46)
        state.inv_sigma[:] = -np.eye(state.dim)
        with pytest.raises(NumericalDegeneracyError, match="<= 0"):
            kernel_visit(state, factor_h, 0, 0)

    def test_nan_quadratic_form_detected(self):
        _, state, _, factor_h = random_state(seed=46)
        state.inv_sigma[:] = np.nan
        with pytest.raises(NumericalDegeneracyError, match="nan"):
            kernel_visit(state, factor_h, 0, 0)


class TestRankOneInverseUpdate:
    def test_zero_step_is_identity(self):
        _, state, _, _ = random_state(seed=47)
        before_inv = state.inv_sigma.copy()
        before_gamma = state.gamma.copy()
        likelihood.rank_one_inverse_update(state, 0, 0, 0.0)
        np.testing.assert_array_equal(state.inv_sigma, before_inv)
        np.testing.assert_array_equal(state.gamma, before_gamma)

    def test_matches_dense_inverse(self):
        preambles, state, _, _ = random_state(seed=48, updates=12)
        cov = oracle.dense_covariance(preambles, state.gamma, 1.0)
        dense = oracle.dense_inverse(cov)
        rel = np.linalg.norm(state.inv_sigma - dense) / np.linalg.norm(dense)
        assert rel < 1e-10

    def test_degenerate_denominator_rejected(self):
        # removing more than the full component: 1 + eta*quad == 0
        state, st = scalar_state(1.0, gamma_value=5.0)
        with pytest.raises(NumericalDegeneracyError, match="denominator"):
            likelihood.rank_one_inverse_update(state, 0, 0, -6.0)

    def test_negative_gamma_rejected(self):
        state, st = scalar_state(1.0, gamma_value=0.5)
        with pytest.raises(ValueError, match="negative"):
            likelihood.rank_one_inverse_update(state, 0, 0, -0.50001)


def hermitian_inverse(dim, seed, order="F"):
    """A random Hermitian positive definite matrix in the given layout."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.array(a @ a.conj().T + dim * np.eye(dim), order=order)


def state_with_inverse(inv, column):
    """A one-coordinate state whose tracked inverse is ``inv`` itself."""
    dim = inv.shape[0]
    state = likelihood.init_state(column.reshape(dim, 1), 1.0, np.eye(dim), 1)
    state.inv_sigma = inv
    return state


class TestInPlaceUpdate:
    """The in-place Sherman-Morrison step of ``rank_one_inverse_update``."""

    def test_matches_dense_outer_product(self):
        inv = hermitian_inverse(12, seed=60)
        rng = np.random.default_rng(61)
        s = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v = inv @ s
        expected = inv - (0.7 / (1.0 + 0.7 * np.vdot(s, v).real)) * np.outer(v, v.conj())
        state = state_with_inverse(inv, s)
        likelihood.rank_one_inverse_update(state, 0, 0, 0.7)
        rel = np.linalg.norm(state.inv_sigma - expected) / np.linalg.norm(expected)
        assert rel < 1e-14
        assert state.gamma[0, 0] == 0.7

    def test_mutates_given_array(self):
        # inverse I and s = ones: quad = 6, so eta = 0.5 subtracts ones / 8
        inv = np.eye(6, dtype=complex, order="F")
        state = state_with_inverse(inv, np.ones(6, dtype=complex))
        likelihood.rank_one_inverse_update(state, 0, 0, 0.5)
        assert state.inv_sigma is inv
        np.testing.assert_allclose(inv, np.eye(6) - 0.125 * np.ones((6, 6)), rtol=1e-14)

    @pytest.mark.parametrize(
        "inv",
        [
            hermitian_inverse(6, seed=63, order="C"),
            hermitian_inverse(6, seed=63).astype(np.complex64, order="F"),
        ],
        ids=["c-ordered", "complex64"],
    )
    def test_layout_that_would_update_a_copy_rejected(self, inv):
        before = inv.copy()
        state = state_with_inverse(inv, np.ones(6, dtype=complex))
        with pytest.raises(ValueError, match="Fortran-ordered complex128"):
            likelihood.rank_one_inverse_update(state, 0, 0, 0.5)
        np.testing.assert_array_equal(inv, before)
        np.testing.assert_array_equal(state.gamma, 0.0)

    def test_states_keep_fortran_order(self):
        _, state, st, _ = random_state(seed=64)
        assert state.inv_sigma.flags.f_contiguous
        likelihood.refresh_state(state, st)
        assert state.inv_sigma.flags.f_contiguous


class TestFitFactor:
    @pytest.mark.parametrize("num_antennas", [4, 12, 64])
    def test_reproduces_sample_covariance_at_its_rank(self, num_antennas):
        config = make_config(num_antennas=num_antennas)
        st = make_scenario(config, 65)[2]
        factor_h = likelihood.fit_factor(st)
        dim = config.window_len
        assert factor_h.shape == (min(num_antennas, dim), dim)
        assert factor_h.flags.f_contiguous
        rebuilt = factor_h.conj().T @ factor_h
        assert np.linalg.norm(rebuilt - st) / np.linalg.norm(st) < 1e-12

    @pytest.mark.parametrize("num_antennas", [1, 4, 12, 64])
    def test_bytes_match_the_scatter_form(self, num_antennas):
        # the reference zero-fills F^H and scatters the conjugate transpose
        # of the factor's lower trapezoid into its pivoted columns
        config = make_config(num_antennas=num_antennas)
        for seed in range(68, 72):
            st = make_scenario(config, seed)[2]
            c, piv, rank, _ = likelihood.zpstrf(st, lower=1)
            expected = np.zeros((max(rank, 1), st.shape[0]), dtype=np.complex128, order="F")
            expected[:rank, piv - 1] = np.tril(c[:, :rank]).conj().T
            factor_h = likelihood.fit_factor(st)
            assert factor_h.shape == expected.shape
            assert factor_h.flags.f_contiguous
            assert factor_h.tobytes(order="F") == expected.tobytes(order="F")

    def test_fit_form_matches_quadratic_form(self):
        config = make_config(num_antennas=4)
        st = make_scenario(config, 66)[2]
        factor_h = likelihood.fit_factor(st)
        rng = np.random.default_rng(67)
        for _ in range(5):
            v = rng.standard_normal(config.window_len) + 1j * rng.standard_normal(
                config.window_len
            )
            fit = np.linalg.norm(factor_h @ v) ** 2
            assert fit == pytest.approx(float(np.real(np.vdot(v, st @ v))), rel=1e-12)

    @pytest.mark.parametrize("num_antennas", [1, 2, 4])
    @pytest.mark.parametrize("study", ["desk", "full"])
    def test_rank_deficient_sample_covariance_accepted(self, study, num_antennas):
        # the remainder check passes every sample covariance of fewer
        # antennas than the window length, where zpstrf stops at rank M
        config = shipped(study, num_antennas=num_antennas).base
        for seed in range(5):
            factor_h = likelihood.fit_factor(make_scenario(config, seed)[2])
            assert factor_h.shape == (num_antennas, config.window_len)

    @pytest.mark.parametrize("matrix", [-np.eye(5), np.diag([1.0, 2.0, -1e-6, 3.0])],
                             ids=["negative", "one-negative-eigenvalue"])
    def test_indefinite_rejected(self, matrix):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            likelihood.fit_factor(matrix)

    def test_zero_sample_covariance_gives_zero_fit(self):
        # quad = 7 and fit = 0 on every column: every step is negative, so
        # neither pass moves from gamma = 0
        dim = 7
        factor_h = likelihood.fit_factor(np.zeros((dim, dim)))
        assert factor_h.shape == (1, dim)
        np.testing.assert_array_equal(factor_h, 0.0)
        inv = np.eye(dim, dtype=np.complex128, order="F")
        stack = np.asfortranarray(np.vstack([inv, factor_h]))
        blocks = np.asfortranarray(np.ones((dim, 6), dtype=complex))
        gamma = np.zeros((2, 3))
        plan = likelihood.column_plan(blocks[:, :3], factor_h)
        assert likelihood.column_sweep(stack, plan, gamma[0], 1.5) == 1.5
        plan = likelihood.block_plan(blocks, 3)
        assert likelihood.block_sweep(inv, factor_h, plan, gamma, 1.5) == 1.5
        np.testing.assert_array_equal(gamma, 0.0)
        np.testing.assert_array_equal(inv, np.eye(dim))
        np.testing.assert_array_equal(stack[:dim], np.eye(dim))


def block_state(seed):
    """A state whose device-2 block holds 0.7 at delay 1, with the fit
    factor and the device-2 block."""
    _, state, st, factor_h = random_state(seed=seed, max_delay=2, num_antennas=8)
    state.gamma[2] = 0.0
    state.gamma[2, 1] = 0.7
    likelihood.refresh_state(state, st)
    return state, factor_h, state.dictionary[:, 6:9]


def copy_state(state):
    return dataclasses.replace(
        state, inv_sigma=state.inv_sigma.copy(order="F"), gamma=state.gamma.copy()
    )


def sweep_pass(state, factor_h, sweep, dictionary=None, units=None):
    """``(tracked, run)``: the matrix that a ``run_cd_e`` (``column_sweep``)
    or ``run_bcd`` (``block_sweep``) pass over ``state`` updates, and
    ``run(tracked, objective)``, the pass the detector makes over the
    leading devices whose columns are ``dictionary`` (all by default),
    cut after its first ``units`` columns or blocks if given."""
    if dictionary is None:
        dictionary = state.dictionary
    if sweep == "column_sweep":
        columns = dictionary[:, :units]
        plan = likelihood.column_plan(columns, factor_h)
        gamma = state.gamma.ravel()[: columns.shape[1]]
        return likelihood.column_stack(state, factor_h), (
            lambda stack, objective: likelihood.column_sweep(stack, plan, gamma, objective)
        )
    plan = likelihood.block_plan(dictionary, state.gamma.shape[1])[:units]
    rows = state.gamma[: len(plan)]
    return state.inv_sigma, (
        lambda inv, objective: likelihood.block_sweep(inv, factor_h, plan, rows, objective)
    )


# positions of the output array and of its overwrite flag in a call
OUTPUT_SLOTS = {"zgemm": (4, 7), "zgemv": (4, 10)}


def into_supplied_output(name, real, args):
    """``real(*args)`` for a ``zgemm`` or ``zgemv`` call in a pass, after
    checking that it passes its output array and the overwrite flag by
    position, and then that BLAS wrote into that array, not into a copy
    that f2py made."""
    out, flag = OUTPUT_SLOTS[name]
    assert len(args) > flag and args[out] is not None and args[flag] == 1
    result = real(*args)
    assert result is args[out]
    return result


class TestBlockSweep:
    """``block_sweep``'s BLAS calls, its error location and its tie rule."""

    def test_one_product_per_window(self, monkeypatch):
        # on both sides of COLUMN_WINDOW_DIM, Sigma^-1 enters one zgemm per
        # window of devices, and each visit adds F^H v and its two Gram
        # products, three small zgemm calls. Each rank-one change of a
        # commit reaches the products of the window's later blocks by one
        # zgemv and one zgerc. Below the rule Sigma^-1 takes each change by
        # one zgerc; from it on, a window's changes by one rank-k zgemm at
        # its end, never by a zgerc. The second pass is the one counted, so
        # removals, moves and re-inserts are among its commits. Every zgemm
        # and zgemv writes into an output array the run or the pass made
        devices = 2 * likelihood.WINDOW + 3
        zgemm, zgemv, zgerc = likelihood.zgemm, likelihood.zgemv, likelihood.zgerc
        for preamble_len in (10, likelihood.COLUMN_WINDOW_DIM - 1):
            _, state, _, factor_h = random_state(
                seed=84, num_devices=devices, preamble_len=preamble_len, num_active=6, updates=0,
            )
            inv, run = sweep_pass(state, factor_h, "block_sweep")
            state.objective = run(inv, state.objective)
            before = state.gamma.copy()
            calls = dict.fromkeys(
                ["product", "small", "rank-k", "zgemv", "inverse zgerc", "pending zgerc"], 0
            )

            def gemm(alpha, a, b, *args):
                rank_k = len(args) > 1 and args[1] is inv
                calls["product" if a is inv else "rank-k" if rank_k else "small"] += 1
                return into_supplied_output("zgemm", zgemm, (alpha, a, b, *args))

            def gemv(*args):
                calls["zgemv"] += 1
                return into_supplied_output("zgemv", zgemv, args)

            def gerc(alpha, x, y, incx, incy, a, *args):
                calls["inverse zgerc" if a is inv else "pending zgerc"] += 1
                return zgerc(alpha, x, y, incx, incy, a, *args)

            monkeypatch.setattr(likelihood, "zgemm", gemm)
            monkeypatch.setattr(likelihood, "zgemv", gemv)
            monkeypatch.setattr(likelihood, "zgerc", gerc)
            run(inv, state.objective)
            monkeypatch.undo()
            # a device's rank-one changes: a downdate of its old entry, an
            # update to its new one, or one net change when they share a delay
            held, holds = before.any(axis=1), state.gamma.any(axis=1)
            same = held & holds & (before.argmax(axis=1) == state.gamma.argmax(axis=1))
            changes = held.astype(int) + holds - same
            windows = [changes[first : first + likelihood.WINDOW]
                       for first in range(0, devices, likelihood.WINDOW)]
            later = sum(int(window[:-1].sum()) for window in windows)
            assert len(windows) == 3 and later >= 3 and (held & ~same).any()
            deferred = state.dim >= likelihood.COLUMN_WINDOW_DIM
            assert calls == {
                "product": 3, "small": 3 * devices,
                "rank-k": sum(bool(window.any()) for window in windows) if deferred else 0,
                "zgemv": later, "inverse zgerc": 0 if deferred else int(changes.sum()),
                "pending zgerc": later,
            }

    def test_corrupted_block_detected(self):
        _, state, _, factor_h = random_state(seed=69)
        state.inv_sigma[:] = -np.eye(state.dim)
        inv, run = sweep_pass(state, factor_h, "block_sweep", state.dictionary[:, :4])
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            run(inv, 0.0)
        assert info.value.index == 0

    def test_tie_goes_to_smallest_delay(self):
        state, factor_h, block = block_state(74)
        twins = np.asfortranarray(np.repeat(block[:, :1], 3, axis=1))
        gamma = np.zeros((1, 3))
        plan = likelihood.block_plan(twins, 3)
        likelihood.block_sweep(state.inv_sigma, factor_h, plan, gamma, 0.0)
        assert gamma[0, 0] > 0.0
        np.testing.assert_array_equal(gamma[0, 1:], 0.0)


class TestBlockRemoval:
    """A ``block_sweep`` visit whose removal of the block's entry is
    degenerate."""

    def test_degenerate_removal_rejected(self):
        # removing more than the column carries drives 1 - gamma * quad
        # below the guard; the visit leaves its row and Sigma^-1 alone
        state, factor_h, block = block_state(77)
        quad_u, _ = coordinate_terms(state, factor_h, 2, 1)
        state.gamma[2, 1] = 1.0 / quad_u
        inv, gamma = state.inv_sigma.copy(), state.gamma.copy()
        plan = likelihood.block_plan(block, 3)
        with pytest.raises(NumericalDegeneracyError, match="denominator") as info:
            likelihood.block_sweep(state.inv_sigma, factor_h, plan, state.gamma[2:3], 0.0)
        assert info.value.index == 0
        np.testing.assert_array_equal(state.gamma, gamma)
        np.testing.assert_array_equal(state.inv_sigma, inv)


class TestSampleCovarianceChecked:
    """The state-based functions reject a sample covariance the detectors
    reject, before they change anything. A kernel visit takes only the
    fit factor; the detectors' own checks are test_detect's
    ``test_non_finite_sample_covariance_rejected`` and
    ``test_non_hermitian_sample_covariance_rejected``."""

    CALLS = {
        "init_state": lambda state, st: likelihood.init_state(state.dictionary, 1.0, st, 3),
        "quadratic_terms": lambda state, st: likelihood.quadratic_terms(state, st, 0, 0),
        "refresh_state": likelihood.refresh_state,
    }

    @staticmethod
    def seed_29_state():
        # default test config, seed 29: a clean step of 0.03308 at (0, 0),
        # which 5.0 added at (1, 2) or (2, 1) would move to 0.03521
        config = make_config()
        preambles, _, st = make_scenario(config, 29)
        _, _, state = detect.prepare(preambles, st, config)
        _, quad, fit = likelihood.quadratic_terms(state, st, 0, 0)
        assert (fit - quad) / quad**2 == pytest.approx(0.03308, abs=1e-5)
        return state, st

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize(
        "entry, bad, message",
        [((1, 2), 5.0, "must be Hermitian"), ((2, 1), 5.0, "must be Hermitian"),
         ((1, 2), np.nan, "NaN or Inf"), ((1, 2), np.inf, "NaN or Inf")],
        ids=["upper", "lower", "nan", "inf"],
    )
    def test_bad_sample_covariance_rejected(self, call, entry, bad, message):
        state, st = self.seed_29_state()
        inv, objective = state.inv_sigma.copy(), state.objective
        st[entry] += bad
        with pytest.raises(ValueError, match=message):
            self.CALLS[call](state, st)
        np.testing.assert_array_equal(state.inv_sigma, inv)
        assert state.objective == objective

    @pytest.mark.parametrize("call", CALLS)
    def test_shape_mismatch_rejected(self, call):
        state, st = self.seed_29_state()
        with pytest.raises(ValueError, match="window length"):
            self.CALLS[call](state, st[:-1, :-1])


class TestCoordinateRange:
    """A (device, delay) outside ``[0, N) x [0, tau_max]`` names no
    coordinate; its flat index would name another one's column."""

    @pytest.mark.parametrize("device, delay", [(2, 3), (2, -1), (8, 0), (-1, 0)])
    def test_out_of_range_rejected(self, device, delay):
        config = make_config()
        preambles, _, st = make_scenario(config, 29)
        _, _, state = detect.prepare(preambles, st, config)
        inv, gamma = state.inv_sigma.copy(), state.gamma.copy()
        with pytest.raises(ValueError, match="outside"):
            state.column(device, delay)
        with pytest.raises(ValueError, match="outside"):
            likelihood.quadratic_terms(state, st, device, delay)
        # a zero step changes nothing, but still names no coordinate
        for eta in (0.5, 0.0):
            with pytest.raises(ValueError, match="outside"):
                likelihood.rank_one_inverse_update(state, device, delay, eta)
        np.testing.assert_array_equal(state.inv_sigma, inv)
        np.testing.assert_array_equal(state.gamma, gamma)


class TestQuadraticTerms:
    @pytest.mark.parametrize("num_antennas", [4, 64])
    def test_fit_matches_factor_form(self, num_antennas, monkeypatch):
        # M=4 < D=11 and M=64 >= D; no call factorises S_tilde
        _, state, st, factor_h = random_state(seed=78, num_antennas=num_antennas)
        monkeypatch.setattr(likelihood, "fit_factor", None)
        for n, tau in [(0, 0), (1, 1), (4, 0)]:
            v, quad, fit = likelihood.quadratic_terms(state, st, n, tau)
            s = state.column(n, tau)
            want_v = state.inv_sigma @ s
            want_quad = np.vdot(s, want_v).real
            want_fit = np.linalg.norm(factor_h @ want_v) ** 2
            np.testing.assert_allclose(v, want_v, rtol=1e-12)
            assert (quad, fit) == pytest.approx((want_quad, want_fit), rel=1e-12)


class TestSweeps:
    @pytest.mark.parametrize("sweep", ["column_sweep", "block_sweep"])
    @pytest.mark.parametrize(
        "dtype, order", [(np.complex128, "C"), (np.complex64, "F")],
        ids=["c-ordered", "complex64"],
    )
    def test_layout_that_would_update_a_copy_rejected(self, sweep, dtype, order):
        _, state, _, factor_h = random_state(seed=80)
        tracked, run = sweep_pass(state, factor_h, sweep)
        bad = tracked.astype(dtype, order=order)
        before, gamma = bad.copy(), state.gamma.copy()
        with pytest.raises(ValueError, match="Fortran-ordered complex128"):
            run(bad, 0.0)
        np.testing.assert_array_equal(bad, before)
        np.testing.assert_array_equal(state.gamma, gamma)

    @pytest.mark.parametrize("sweep", ["column_sweep", "block_sweep"])
    def test_failing_pass_keeps_gamma_written_before(self, sweep):
        # unit 3 is a zero column, so its quadratic form is 0 and the pass
        # stops there; gamma and the tracked inverse hold what the same
        # pass cut after units 0-2 wrote
        _, state, _, factor_h = random_state(seed=81, num_devices=8, num_active=4, max_delay=0, updates=0)
        dictionary = state.dictionary.copy(order="F")
        dictionary[:, 3] = 0.0
        want = copy_state(state)
        want_tracked, run = sweep_pass(want, factor_h, sweep, dictionary, units=3)
        before = want_tracked.copy()
        run(want_tracked, 0.0)
        assert np.any(want.gamma[:3])
        assert not np.array_equal(want_tracked, before)
        tracked, run = sweep_pass(state, factor_h, sweep, dictionary)
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            run(tracked, 0.0)
        assert info.value.index == 3
        np.testing.assert_array_equal(state.gamma, want.gamma)
        np.testing.assert_array_equal(tracked, want_tracked)

    def test_column_visit_is_one_matvec(self, monkeypatch):
        # the stack [Sigma^-1; F^H Sigma^-1] is built outside the pass and
        # kept across passes; a visit takes v = Sigma^-1 s and F^H v from
        # one zgemv of it, into a buffer of the pass, and a nonzero step
        # updates both blocks by one zgerc
        _, state, _, factor_h = random_state(seed=83)
        stack, run = sweep_pass(state, factor_h, "column_sweep")
        before = state.gamma.copy()
        calls = dict.fromkeys(["zgemv", "zgerc", "zgemm"], 0)

        def counted(name):
            real = getattr(likelihood, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                if name == "zgerc":
                    return real(*args, **kwargs)
                assert not kwargs
                return into_supplied_output(name, real, args)

            return spy

        for name in calls:
            monkeypatch.setattr(likelihood, name, counted(name))
        run(stack, state.objective)
        steps = int(np.count_nonzero(state.gamma != before))
        assert steps >= 3
        assert calls == {"zgemv": state.gamma.size, "zgerc": steps, "zgemm": 0}

    def test_failing_window_keeps_the_steps_before(self):
        # at D = COLUMN_WINDOW_DIM column 40, the second window's ninth, is
        # zero: the pass stops there, with gamma and the stack those of the
        # pass cut before it; that pass's second window is narrower, so its
        # product rounds differently, and it takes its steps at its end
        width = likelihood.COLUMN_WINDOW
        cut = width + 8
        _, state, _, factor_h = random_state(
            seed=81, num_devices=2 * width, preamble_len=likelihood.COLUMN_WINDOW_DIM,
            max_delay=0, num_antennas=16, num_active=12, updates=0,
        )
        dictionary = state.dictionary.copy(order="F")
        dictionary[:, cut] = 0.0
        want = copy_state(state)
        want_stack, run = sweep_pass(want, factor_h, "column_sweep", dictionary, units=cut)
        run(want_stack, 0.0)
        assert np.any(want.gamma.ravel()[width:cut])
        stack, run = sweep_pass(state, factor_h, "column_sweep", dictionary)
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            run(stack, 0.0)
        assert info.value.index == cut
        np.testing.assert_allclose(state.gamma, want.gamma, rtol=1e-12, atol=0)
        assert np.linalg.norm(stack - want_stack) <= 1e-12 * np.linalg.norm(want_stack)

    def test_failing_block_window_keeps_the_commits_before(self):
        # at D = COLUMN_WINDOW_DIM device WINDOW + 2, the second window's
        # third, has a zero block: the pass stops there, with gamma and
        # Sigma^-1 those of the pass cut before it; that pass's second
        # window is narrower, so its product rounds differently, and it
        # takes the window's commits at its end, the failing pass when it
        # raises
        cut = likelihood.WINDOW + 2
        _, state, _, factor_h = random_state(
            seed=85, num_devices=2 * likelihood.WINDOW + 3,
            preamble_len=likelihood.COLUMN_WINDOW_DIM - 1, num_active=6, updates=0,
        )
        k = state.gamma.shape[1]
        dictionary = state.dictionary.copy(order="F")
        dictionary[:, k * cut : k * (cut + 1)] = 0.0
        want = copy_state(state)
        want_inv, run = sweep_pass(want, factor_h, "block_sweep", dictionary[:, : k * cut])
        run(want_inv, 0.0)
        assert np.any(want.gamma[likelihood.WINDOW : cut])
        inv, run = sweep_pass(state, factor_h, "block_sweep", dictionary)
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            run(inv, 0.0)
        assert info.value.index == cut
        np.testing.assert_allclose(state.gamma, want.gamma, rtol=1e-12, atol=0)
        assert np.linalg.norm(inv - want_inv) <= 1e-12 * np.linalg.norm(want_inv)

    @pytest.mark.parametrize("sweep", ["column_sweep", "block_sweep"])
    @pytest.mark.parametrize(
        "dim", [likelihood.COLUMN_WINDOW_DIM - 1, likelihood.COLUMN_WINDOW_DIM],
        ids=["below-window-dim", "at-window-dim"],
    )
    def test_plan_left_by_a_raising_pass_carries_no_state(self, sweep, dim):
        # the zero-column and zero-block systems of the two tests above, on
        # both sides of COLUMN_WINDOW_DIM: a pass raises mid-window, the
        # unit's columns come back (the plan views the dictionary), and the
        # next pass over that plan equals, exactly, the same pass over a
        # fresh plan from the same state
        if sweep == "column_sweep":
            cut, max_delay = likelihood.COLUMN_WINDOW + 8, 0
            fields = dict(seed=81, num_devices=2 * likelihood.COLUMN_WINDOW,
                          num_antennas=16, num_active=12)
        else:
            cut, max_delay = likelihood.WINDOW + 2, 1
            fields = dict(seed=85, num_devices=2 * likelihood.WINDOW + 3, num_active=6)
        _, state, _, factor_h = random_state(
            preamble_len=dim - max_delay, max_delay=max_delay, updates=0, **fields
        )
        assert state.dim == dim
        k = state.gamma.shape[1]
        dictionary = state.dictionary.copy(order="F")
        unit = slice(k * cut, k * (cut + 1))
        kept = dictionary[:, unit].copy()
        dictionary[:, unit] = 0.0
        tracked, run = sweep_pass(state, factor_h, sweep, dictionary)
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            run(tracked, 0.0)
        assert info.value.index == cut
        dictionary[:, unit] = kept
        fresh, fresh_tracked = copy_state(state), tracked.copy(order="F")
        _, fresh_run = sweep_pass(fresh, factor_h, sweep, dictionary)
        assert run(tracked, 1.0) == fresh_run(fresh_tracked, 1.0)
        assert np.any(state.gamma.ravel()[cut * k + k :])
        np.testing.assert_array_equal(state.gamma, fresh.gamma)
        np.testing.assert_array_equal(tracked, fresh_tracked)

    def test_column_window_is_one_product(self, monkeypatch):
        # from COLUMN_WINDOW_DIM on, a window's visits read y off one zgemm
        # of the stack; a step corrects the window's later columns by one
        # zgemv and one zgerc, and the stack takes the window's steps by
        # one rank-k zgemm at its end, never by a zgerc; every zgemm and
        # zgemv writes into an output array the plan made
        width = likelihood.COLUMN_WINDOW
        _, state, _, factor_h = random_state(
            seed=83, num_devices=2 * width + 5, preamble_len=likelihood.COLUMN_WINDOW_DIM,
            max_delay=0, num_antennas=16, num_active=12, updates=0,
        )
        stack, run = sweep_pass(state, factor_h, "column_sweep")
        calls = dict.fromkeys(["product", "rank-k", "zgemv", "zgerc"], 0)
        zgemm, zgemv, zgerc = likelihood.zgemm, likelihood.zgemv, likelihood.zgerc

        def gemm(alpha, a, b, beta, c, *args):
            calls["product" if a is stack else "rank-k"] += 1
            assert a is stack or c is stack
            return into_supplied_output("zgemm", zgemm, (alpha, a, b, beta, c, *args))

        def gemv(*args):
            calls["zgemv"] += 1
            return into_supplied_output("zgemv", zgemv, args)

        def gerc(alpha, x, y, incx, incy, a, *args):
            calls["zgerc"] += 1
            assert a.shape[1] < width
            return zgerc(alpha, x, y, incx, incy, a, *args)

        monkeypatch.setattr(likelihood, "zgemm", gemm)
        monkeypatch.setattr(likelihood, "zgemv", gemv)
        monkeypatch.setattr(likelihood, "zgerc", gerc)
        run(stack, state.objective)
        stepped = state.gamma.ravel() != 0.0
        windows = [stepped[first : first + width] for first in range(0, stepped.size, width)]
        later = sum(int(np.count_nonzero(window[:-1])) for window in windows)
        assert len(windows) == 3 and later >= 3
        assert calls == {
            "product": 3, "rank-k": sum(bool(window.any()) for window in windows),
            "zgemv": later, "zgerc": later,
        }

    def test_failing_block_visit_leaves_its_row_and_inverse(self, monkeypatch):
        # device 2's zeroed-state scoring fails after its removal terms
        # were computed: its entry and Sigma^-1 are still those of before
        state, factor_h, block = block_state(82)
        degenerate_removals(monkeypatch)
        inv, gamma = state.inv_sigma.copy(), state.gamma.copy()
        plan = likelihood.block_plan(block, 3)
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            likelihood.block_sweep(state.inv_sigma, factor_h, plan, state.gamma[2:3], 0.0)
        assert info.value.index == 0
        assert gamma[2, 1] == 0.7
        np.testing.assert_array_equal(state.gamma, gamma)
        np.testing.assert_array_equal(state.inv_sigma, inv)


class TestObjectiveDelta:
    """The objective change a kernel visit adds to the tracked objective."""

    def test_zero_step(self):
        # the unconstrained step 0.5 - 0 - 1 is clipped to 0 at gamma = 0
        state, st = scalar_state(0.5)
        objective, inv = state.objective, state.inv_sigma.copy()
        assert kernel_visit(state, likelihood.fit_factor(st), 0, 0) == 0.0
        assert state.objective == objective
        np.testing.assert_array_equal(state.inv_sigma, inv)

    def test_matches_dense_difference(self):
        # kernel visits and arbitrary steps, whose change step_increment
        # gives from the same two quadratic forms
        rng = np.random.default_rng(50)
        preambles, state, st, factor_h = random_state(seed=50, updates=0)
        for _ in range(40):
            n = int(rng.integers(5))
            tau = int(rng.integers(2))
            before = oracle.dense_objective(preambles, state.gamma, 1.0, st)
            if rng.random() < 0.4:
                eta = float(rng.random())
                delta = likelihood.step_increment(eta, *coordinate_terms(state, factor_h, n, tau))[0]
                likelihood.rank_one_inverse_update(state, n, tau, eta)
            else:
                tracked = state.objective
                kernel_visit(state, factor_h, n, tau)
                delta = state.objective - tracked
            after = oracle.dense_objective(preambles, state.gamma, 1.0, st)
            assert delta == pytest.approx(after - before, abs=1e-9)

class TestRefreshState:
    def test_removes_injected_drift(self):
        preambles, state, st, _ = random_state(seed=52)
        state.inv_sigma += 1e-6  # simulate accumulated roundoff
        state.objective += 0.5
        likelihood.refresh_state(state, st)
        cov = oracle.dense_covariance(preambles, state.gamma, 1.0)
        np.testing.assert_allclose(
            state.inv_sigma, oracle.dense_inverse(cov), atol=1e-11
        )
        assert state.objective == pytest.approx(
            oracle.dense_objective(preambles, state.gamma, 1.0, st), rel=1e-12
        )
        assert state.inv_sigma.flags.f_contiguous
        assert np.array_equal(state.inv_sigma, state.inv_sigma.conj().T)

    def test_zero_gamma_gives_initial_state(self):
        _, _, st, _ = random_state(seed=54, updates=0)
        state = likelihood.init_state(np.ones((st.shape[0], 3), dtype=complex), 2.5, st, 1)
        initial = state.objective
        likelihood.refresh_state(state, st)
        np.testing.assert_allclose(state.inv_sigma, np.eye(st.shape[0]) / 2.5, rtol=1e-15, atol=0)
        assert state.objective == pytest.approx(initial, rel=1e-14)


class TestBoundRoutines:
    @pytest.mark.parametrize(
        "package, library, getter",
        [("scipy", "libscipy_openblas*.so", "scipy_openblas_get_num_threads"),
         ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_")],
        ids=["scipy", "numpy"],
    )
    def test_blas_pools_run_one_thread(self, package, library, getter):
        # a trial alternates numpy's OpenBLAS (siggen's products) with
        # scipy's (the kernel); conftest pins both before either loads, and
        # dlopen of a loaded library returns the loaded copy
        libs = Path(sys.modules[package].__file__).parents[1] / f"{package}.libs"
        (path,) = libs.glob(library)
        get = getattr(ctypes.CDLL(str(path)), getter)
        get.argtypes, get.restype = [], ctypes.c_int
        assert get() == 1

    def test_import_skips_the_scipy_linalg_package(self):
        # CPython enters each compiled (single-phase) module it creates in
        # sys.modules under its spec name, so the two wrappers are there;
        # scipy.linalg's package init and everything it imports are not
        code = (
            "import sys, covdet, covdet.cli;"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')));"
            "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=package_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        linalg, pool = proc.stdout.splitlines()
        assert linalg == "['scipy.linalg._fblas', 'scipy.linalg._flapack']"
        # only a run with workers > 1 imports the process pool
        assert pool == "[]"

    def test_routines_are_the_objects_scipy_exports(self):
        import scipy.linalg.blas
        import scipy.linalg.lapack

        for module, names in (
            (scipy.linalg.blas, ("zdotc", "zgemm", "zgemv", "zgerc", "zherk")),
            (scipy.linalg.lapack, ("zlantr", "zpotrf", "zpotri", "zpstrf")),
        ):
            for name in names:
                assert getattr(likelihood, name) is getattr(module, name), name

    def test_missing_wrapper_module_fails_the_import(self, tmp_path):
        # a scipy whose linalg directory holds no compiled wrappers
        linalg = tmp_path / "scipy" / "linalg"
        linalg.mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        env = package_env()
        env["PYTHONPATH"] = str(tmp_path) + os.pathsep + env["PYTHONPATH"]
        proc = subprocess.run(
            [sys.executable, "-c", "import covdet"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode != 0
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError:"), proc.stderr
        assert "_fblas" in last and str(linalg) in last, last
