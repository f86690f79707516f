"""Objective machinery: assembly, coordinate steps, rank-one updates."""

import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import block_visit_by_hand, degenerate_removals, make_config, make_scenario
from covdet import likelihood, oracle
from covdet.siggen import effective_dictionary
from covdet.sysmodel import NumericalDegeneracyError


def scalar_state(sigma_tilde_value, gamma_value=0.0):
    """1x1 problem with s=[1]: everything has a closed form."""
    dictionary = np.ones((1, 1), dtype=complex)
    st = np.array([[sigma_tilde_value]], dtype=complex)
    state = likelihood.init_state(dictionary, 1.0, st, num_delays=1)
    if gamma_value:
        likelihood.rank_one_inverse_update(state, 0, 0, gamma_value)
        likelihood.refresh_state(state, st)
    return state, st


def random_state(seed, num_devices=5, preamble_len=10, max_delay=1, num_antennas=32,
                 num_active=2, updates=6):
    """A state advanced by a few optimal steps on a real scenario."""
    config = make_config(
        num_devices=num_devices, preamble_len=preamble_len, max_delay=max_delay,
        num_antennas=num_antennas, num_active=num_active,
    )
    preambles, _, st = make_scenario(config, seed)
    dictionary = effective_dictionary(preambles, config.max_delay)
    state = likelihood.init_state(dictionary, 1.0, st, config.num_delays)
    rng = np.random.default_rng(seed + 1)
    for _ in range(updates):
        n = int(rng.integers(num_devices))
        tau = int(rng.integers(max_delay + 1))
        eta = likelihood.coordinate_step(state, st, n, tau)
        likelihood.rank_one_inverse_update(state, n, tau, eta)
    return preambles, state, st


class TestAssembleCovariance:
    def test_zero_gamma_gives_noise_floor(self):
        config = make_config(num_devices=4, preamble_len=6, max_delay=1)
        preambles = make_scenario(config, 0)[0]
        dictionary = effective_dictionary(preambles, 1)
        cov = likelihood.assemble_covariance(dictionary, np.zeros((4, 2)), 2.5)
        np.testing.assert_allclose(cov, 2.5 * np.eye(7), atol=1e-14)

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
        _, state, st = random_state(seed=21)
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


class TestInitState:
    def test_initial_objective_formula(self):
        _, _, st = random_state(seed=22)
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
    def test_scalar_step_from_zero(self):
        # eta = max(sigma_tilde - gamma - sigma2, -gamma) = 3 - 0 - 1 = 2
        state, st = scalar_state(3.0)
        assert likelihood.coordinate_step(state, st, 0, 0) == pytest.approx(2.0)

    def test_scalar_clipping_branch(self):
        # unconstrained step 1 - 6 = -5 hits the gamma >= 0 wall exactly
        state, st = scalar_state(1.0, gamma_value=5.0)
        assert likelihood.coordinate_step(state, st, 0, 0) == pytest.approx(-5.0)

    def test_stationary_at_exact_covariance(self):
        preambles, state, _ = random_state(seed=23)
        likelihood.refresh_state(state, np.eye(state.dim))
        cov = likelihood.assemble_covariance(state.dictionary, state.gamma, 1.0)
        likelihood.refresh_state(state, cov)
        for n in range(5):
            for tau in range(2):
                eta = likelihood.coordinate_step(state, cov, n, tau)
                step = eta if state.gamma[n, tau] == 0 else abs(eta)
                assert step <= 1e-10

    def test_never_drives_gamma_negative(self):
        rng = np.random.default_rng(24)
        _, state, st = random_state(seed=24, updates=0)
        for _ in range(100):
            n = int(rng.integers(5))
            tau = int(rng.integers(2))
            eta = likelihood.coordinate_step(state, st, n, tau)
            assert state.gamma[n, tau] + eta >= 0.0
            likelihood.rank_one_inverse_update(state, n, tau, eta)

    def test_optimal_among_grid_offsets(self):
        # dense objective at gamma+eta beats 100 grid alternatives
        for seed in (25, 26):
            preambles, state, st = random_state(seed=seed)
            n, tau = 2, 1
            eta = likelihood.coordinate_step(state, st, n, tau)
            current = state.gamma[n, tau]
            candidate = state.gamma.copy()
            candidate[n, tau] += eta
            best = oracle.dense_objective(preambles, candidate, 1.0, st)
            for x in np.linspace(-current, current + 10.0, 100):
                other = state.gamma.copy()
                other[n, tau] += x
                value = oracle.dense_objective(preambles, other, 1.0, st)
                assert best <= value + 1e-10

    def test_gradient_matches_finite_differences(self):
        step = 1e-6
        for seed in range(30, 45):
            preambles, state, st = random_state(seed=seed)
            n = seed % 5
            tau = seed % 2
            # push the probe coordinate away from any stationary point so
            # the central difference is not dominated by roundoff
            likelihood.rank_one_inverse_update(state, n, tau, 0.3)
            _, quad, fit = likelihood.quadratic_terms(state, st, n, tau)
            analytic = quad - fit
            plus = state.gamma.copy()
            plus[n, tau] += step
            minus = state.gamma.copy()
            minus[n, tau] -= step
            numeric = (
                oracle.dense_objective(preambles, plus, 1.0, st)
                - oracle.dense_objective(preambles, minus, 1.0, st)
            ) / (2 * step)
            assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_corrupted_state_detected(self):
        _, state, st = random_state(seed=46)
        state.inv_sigma[:] = -np.eye(state.dim)
        with pytest.raises(NumericalDegeneracyError, match="<= 0"):
            likelihood.coordinate_step(state, st, 0, 0)

    def test_nan_quadratic_form_detected(self):
        _, state, st = random_state(seed=46)
        state.inv_sigma[:] = np.nan
        with pytest.raises(NumericalDegeneracyError, match="nan"):
            likelihood.coordinate_step(state, st, 0, 0)
        columns = list(state.dictionary.T)
        gamma = state.gamma.ravel()
        with pytest.raises(NumericalDegeneracyError, match="nan"):
            likelihood.column_sweep(
                state.inv_sigma, likelihood.fit_factor(st), columns, gamma, 0.0
            )


class TestRankOneInverseUpdate:
    def test_zero_step_is_identity(self):
        _, state, st = random_state(seed=47)
        before_inv = state.inv_sigma.copy()
        before_gamma = state.gamma.copy()
        likelihood.rank_one_inverse_update(state, 0, 0, 0.0)
        np.testing.assert_array_equal(state.inv_sigma, before_inv)
        np.testing.assert_array_equal(state.gamma, before_gamma)

    def test_scalar_update(self):
        # sigma = 2, add eta=2 on s=[1]: inverse 1/2 -> 1/4
        dictionary = np.ones((1, 1), dtype=complex)
        state = likelihood.init_state(dictionary, 2.0, np.eye(1), 1)
        likelihood.rank_one_inverse_update(state, 0, 0, 2.0)
        assert state.inv_sigma[0, 0] == pytest.approx(0.25)

    def test_matches_dense_inverse(self):
        preambles, state, _ = random_state(seed=48, updates=12)
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


class TestApplyRankOne:
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
        _, state, st = random_state(seed=64)
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

    def test_zero_sample_covariance_gives_zero_fit(self):
        # quad = 7 and fit = 0 on every column: every step is negative, so
        # neither pass moves from gamma = 0
        dim = 7
        factor_h = likelihood.fit_factor(np.zeros((dim, dim)))
        assert factor_h.shape == (1, dim)
        np.testing.assert_array_equal(factor_h, 0.0)
        inv = np.eye(dim, dtype=np.complex128, order="F")
        block = np.asfortranarray(np.ones((dim, 3), dtype=complex))
        gamma = np.zeros((2, 3))
        assert likelihood.column_sweep(inv, factor_h, list(block.T), gamma[0], 1.5) == 1.5
        assert likelihood.block_sweep(inv, factor_h, [block, block], gamma, 1.5) == 1.5
        np.testing.assert_array_equal(gamma, 0.0)
        np.testing.assert_array_equal(inv, np.eye(dim))


def block_state(seed, gamma_old=0.7, tau_old=1):
    """A state whose device-2 block holds ``gamma_old`` at ``tau_old``,
    with the block, the fit factor and the sample covariance."""
    _, state, st = random_state(seed=seed, max_delay=2, num_antennas=8)
    state.gamma[2] = 0.0
    likelihood.refresh_state(state, st)
    likelihood.rank_one_inverse_update(state, 2, tau_old, gamma_old)
    block = state.dictionary[:, 6:9]
    return state, st, likelihood.fit_factor(st), block


def copy_state(state):
    return dataclasses.replace(
        state, inv_sigma=state.inv_sigma.copy(order="F"), gamma=state.gamma.copy()
    )


def sweep_inputs(state, sweep):
    """The units and the gamma view ``run_cd_e`` (``column_sweep``) or
    ``run_bcd`` (``block_sweep``) hands a pass over ``state``."""
    dictionary = np.asfortranarray(state.dictionary)
    if sweep == "column_sweep":
        return list(dictionary.T), state.gamma.ravel()
    num_devices, k = state.gamma.shape
    blocks = [dictionary[:, n * k : (n + 1) * k] for n in range(num_devices)]
    return blocks, state.gamma


class TestBlockSweep:
    """``block_sweep`` against ``column_sweep``, and the candidate one of
    its visits commits against the same visit by hand."""

    def test_block_matches_columns(self):
        # with one delay per device a block visit is the exact minimizer
        # along its one coordinate, the same as a column visit, so the two
        # sweeps agree on gamma, the objective and the inverse
        _, state, st = random_state(seed=68, max_delay=0, updates=3)
        factor_h = likelihood.fit_factor(st)
        by_columns, by_blocks = state, copy_state(state)
        columns, flat_gamma = sweep_inputs(by_columns, "column_sweep")
        blocks, gamma_rows = sweep_inputs(by_blocks, "block_sweep")
        obj_c = obj_b = state.objective
        for _ in range(2):
            obj_c = likelihood.column_sweep(by_columns.inv_sigma, factor_h, columns, flat_gamma, obj_c)
            obj_b = likelihood.block_sweep(by_blocks.inv_sigma, factor_h, blocks, gamma_rows, obj_b)
        assert np.count_nonzero(by_columns.gamma) >= 2
        np.testing.assert_allclose(by_blocks.gamma, by_columns.gamma, rtol=1e-10)
        assert obj_b == pytest.approx(obj_c, rel=1e-12)
        np.testing.assert_allclose(
            by_blocks.inv_sigma, by_columns.inv_sigma, rtol=0,
            atol=1e-10 * np.abs(by_columns.inv_sigma).max(),
        )

    def test_corrupted_block_detected(self):
        _, state, st = random_state(seed=69)
        state.inv_sigma[:] = -np.eye(state.dim)
        blocks = [state.dictionary[:, :2], state.dictionary[:, 2:4]]
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            likelihood.block_sweep(
                state.inv_sigma, likelihood.fit_factor(st), blocks, state.gamma[:2], 0.0
            )
        assert info.value.index == 0

    @pytest.mark.parametrize("seed", [70, 71, 72, 73])
    def test_matches_column_by_column_search(self, seed):
        # one block visit against the same visit through the public step
        # functions: remove the entry, score every delay, commit the best
        state, st, factor_h, block = block_state(seed)
        want = copy_state(state)
        want_delta, _ = block_visit_by_hand(want, st, 2)
        objective = likelihood.block_sweep(
            state.inv_sigma, factor_h, [block], state.gamma[2:3], 0.0
        )
        assert objective == pytest.approx(want_delta, rel=1e-10)
        np.testing.assert_allclose(state.gamma, want.gamma, rtol=1e-10)
        assert np.count_nonzero(state.gamma[2]) == np.count_nonzero(want.gamma[2])
        np.testing.assert_allclose(
            state.inv_sigma, want.inv_sigma, rtol=0, atol=1e-12 * np.abs(want.inv_sigma).max()
        )

    def test_tie_goes_to_smallest_delay(self):
        state, _, factor_h, block = block_state(74)
        twins = np.asfortranarray(np.repeat(block[:, :1], 3, axis=1))
        gamma = np.zeros((1, 3))
        likelihood.block_sweep(state.inv_sigma, factor_h, [twins], gamma, 0.0)
        assert gamma[0, 0] > 0.0
        np.testing.assert_array_equal(gamma[0, 1:], 0.0)


class TestRemovalTerms:
    """A ``block_sweep`` visit of a block that holds an entry, against the
    same visit through an explicit downdate."""

    @pytest.mark.parametrize("tau_old", [0, 1, 2])
    def test_zeroed_terms_match_explicit_downdate(self, tau_old, monkeypatch):
        # every delay is scored from the (quad, fit) of the state with the
        # entry removed; seed 75 re-inserts at delay 0 and moves otherwise
        state, st, factor_h, block = block_state(75, tau_old=tau_old)
        downdated = copy_state(state)
        likelihood.rank_one_inverse_update(downdated, 2, tau_old, -0.7)
        want_terms = [likelihood.quadratic_terms(downdated, st, 2, tau)[1:] for tau in range(3)]
        want = copy_state(state)
        want_delta, _ = block_visit_by_hand(want, st, 2)
        scored = []
        real_step = likelihood._step

        def spy(quad, fit):
            scored.append((quad, fit))
            return real_step(quad, fit)

        monkeypatch.setattr(likelihood, "_step", spy)
        objective = likelihood.block_sweep(
            state.inv_sigma, factor_h, [block], state.gamma[2:3], 0.0
        )
        assert len(scored) == 3
        for got, ref in zip(scored, want_terms):
            assert got == pytest.approx(ref, rel=1e-12)
        assert objective == pytest.approx(want_delta, rel=1e-10)
        np.testing.assert_allclose(state.gamma, want.gamma, rtol=1e-10)
        np.testing.assert_allclose(
            state.inv_sigma, want.inv_sigma, rtol=0, atol=1e-12 * np.abs(want.inv_sigma).max()
        )

    @pytest.mark.parametrize("gamma_old", [0.2, 0.7, 3.0])
    def test_net_update_matches_downdate_then_commit(self, gamma_old):
        # seed 76 re-inserts at delay 1, where the entry came from: the one
        # net update equals the downdate and the commit done one by one
        state, st, factor_h, block = block_state(76, gamma_old=gamma_old)
        two_step = copy_state(state)
        _, event = block_visit_by_hand(two_step, st, 2)
        assert event == "same"
        likelihood.block_sweep(state.inv_sigma, factor_h, [block], state.gamma[2:3], 0.0)
        np.testing.assert_allclose(state.gamma, two_step.gamma, rtol=1e-10)
        np.testing.assert_allclose(
            state.inv_sigma, two_step.inv_sigma, rtol=0,
            atol=1e-12 * np.abs(two_step.inv_sigma).max(),
        )

    def test_degenerate_removal_rejected(self):
        # removing more than the column carries drives 1 - gamma * quad
        # below the guard; the visit leaves its row and Sigma^-1 alone
        state, st, factor_h, block = block_state(77)
        _, quad_u, _ = likelihood.quadratic_terms(state, st, 2, 1)
        state.gamma[2, 1] = 1.0 / quad_u
        inv, gamma = state.inv_sigma.copy(), state.gamma.copy()
        with pytest.raises(NumericalDegeneracyError, match="denominator") as info:
            likelihood.block_sweep(
                state.inv_sigma, factor_h, [block], state.gamma[2:3], 0.0
            )
        assert info.value.index == 0
        np.testing.assert_array_equal(state.gamma, gamma)
        np.testing.assert_array_equal(state.inv_sigma, inv)


class TestQuadraticTerms:
    @pytest.mark.parametrize("num_antennas", [4, 64])
    def test_fit_matches_factor_form(self, num_antennas, monkeypatch):
        # M=4 < D=11 and M=64 >= D; no call factorises S_tilde
        _, state, st = random_state(seed=78, num_antennas=num_antennas)
        factor_h = likelihood.fit_factor(st)
        monkeypatch.setattr(likelihood, "fit_factor", None)
        for n, tau in [(0, 0), (1, 1), (4, 0)]:
            v, quad, fit = likelihood.quadratic_terms(state, st, n, tau)
            s = state.column(n, tau)
            want_v = state.inv_sigma @ s
            want_quad = np.vdot(s, want_v).real
            want_fit = np.linalg.norm(factor_h @ want_v) ** 2
            np.testing.assert_allclose(v, want_v, rtol=1e-12)
            assert (quad, fit) == pytest.approx((want_quad, want_fit), rel=1e-12)
            eta = likelihood.coordinate_step(state, st, n, tau)
            step = (want_fit - want_quad) / want_quad**2
            assert eta == pytest.approx(max(step, -state.gamma[n, tau]), rel=1e-12)


class TestSweeps:
    @pytest.mark.parametrize("sweep", ["column_sweep", "block_sweep"])
    @pytest.mark.parametrize(
        "dtype, order", [(np.complex128, "C"), (np.complex64, "F")],
        ids=["c-ordered", "complex64"],
    )
    def test_layout_that_would_update_a_copy_rejected(self, sweep, dtype, order):
        _, state, st = random_state(seed=80)
        inv = state.inv_sigma.astype(dtype, order=order)
        before, gamma = inv.copy(), state.gamma.copy()
        units, kernel_gamma = sweep_inputs(state, sweep)
        with pytest.raises(ValueError, match="Fortran-ordered complex128"):
            getattr(likelihood, sweep)(inv, likelihood.fit_factor(st), units, kernel_gamma, 0.0)
        np.testing.assert_array_equal(inv, before)
        np.testing.assert_array_equal(state.gamma, gamma)

    @pytest.mark.parametrize("sweep", ["column_sweep", "block_sweep"])
    def test_failing_pass_keeps_gamma_written_before(self, sweep):
        # unit 3 is a zero column, so its quadratic form is 0 and the pass
        # stops there; gamma holds what the pass over units 0-2 wrote
        _, state, st = random_state(seed=81, num_devices=8, num_active=4, max_delay=0, updates=0)
        factor_h = likelihood.fit_factor(st)
        run = getattr(likelihood, sweep)
        want = copy_state(state)
        units, want_gamma = sweep_inputs(want, sweep)
        run(want.inv_sigma, factor_h, units[:3], want_gamma[:3], 0.0)
        assert np.any(want_gamma[:3])
        units, gamma = sweep_inputs(state, sweep)
        units[3] = np.zeros_like(units[3])
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            run(state.inv_sigma, factor_h, units, gamma, 0.0)
        assert info.value.index == 3
        np.testing.assert_array_equal(state.gamma, want.gamma)

    def test_failing_block_visit_leaves_its_row_and_inverse(self, monkeypatch):
        # device 2's zeroed-state scoring fails after its removal terms
        # were computed: its entry and Sigma^-1 are still those of before
        state, _, factor_h, block = block_state(82)
        degenerate_removals(monkeypatch)
        inv, gamma = state.inv_sigma.copy(), state.gamma.copy()
        with pytest.raises(NumericalDegeneracyError, match="<= 0") as info:
            likelihood.block_sweep(
                state.inv_sigma, factor_h, [block], state.gamma[2:3], 0.0
            )
        assert info.value.index == 0
        assert gamma[2, 1] == 0.7
        np.testing.assert_array_equal(state.gamma, gamma)
        np.testing.assert_array_equal(state.inv_sigma, inv)


class TestObjectiveDelta:
    def test_zero_step(self):
        _, state, st = random_state(seed=49)
        assert likelihood.objective_delta(state, st, 0, 0, 0.0) == 0.0

    def test_matches_dense_difference(self):
        rng = np.random.default_rng(50)
        preambles, state, st = random_state(seed=50, updates=0)
        for _ in range(40):
            n = int(rng.integers(5))
            tau = int(rng.integers(2))
            eta = likelihood.coordinate_step(state, st, n, tau)
            if rng.random() < 0.4:
                eta = float(rng.random())
            before = oracle.dense_objective(preambles, state.gamma, 1.0, st)
            delta = likelihood.objective_delta(state, st, n, tau, eta)
            likelihood.rank_one_inverse_update(state, n, tau, eta)
            after = oracle.dense_objective(preambles, state.gamma, 1.0, st)
            assert delta == pytest.approx(after - before, abs=1e-9)

    def test_optimal_steps_never_increase(self):
        rng = np.random.default_rng(51)
        _, state, st = random_state(seed=51, updates=0)
        for _ in range(60):
            n = int(rng.integers(5))
            tau = int(rng.integers(2))
            eta = likelihood.coordinate_step(state, st, n, tau)
            delta = likelihood.objective_delta(state, st, n, tau, eta)
            assert delta <= 1e-12
            likelihood.rank_one_inverse_update(state, n, tau, eta)


class TestRefreshState:
    def test_removes_injected_drift(self):
        preambles, state, st = random_state(seed=52)
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


class TestDriftBound:
    def test_long_update_sequences_stay_accurate(self):
        # the acceptance-scale invariant at unit-test size
        rng = np.random.default_rng(53)
        preambles, state, st = random_state(seed=53, updates=0)
        for _ in range(200):
            n = int(rng.integers(5))
            tau = int(rng.integers(2))
            eta = likelihood.coordinate_step(state, st, n, tau)
            if rng.random() < 0.3:
                eta = float(rng.random() * 0.5)
            likelihood.rank_one_inverse_update(state, n, tau, eta)
        cov = oracle.dense_covariance(preambles, state.gamma, 1.0)
        dense = oracle.dense_inverse(cov)
        rel = np.linalg.norm(state.inv_sigma - dense) / np.linalg.norm(dense)
        assert rel < 1e-8
