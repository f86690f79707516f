"""Objective machinery: assembly, coordinate steps, rank-one updates."""

import math

import numpy as np
import pytest

from conftest import make_config, make_scenario
from covdet import likelihood, oracle
from covdet.siggen import effective_dictionary
from covdet.sysmodel import GammaEstimate, NumericalDegeneracyError


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
    state = likelihood.init_state(dictionary, 1.0, st.matrix, config.num_delays)
    rng = np.random.default_rng(seed + 1)
    for _ in range(updates):
        n = int(rng.integers(num_devices))
        tau = int(rng.integers(max_delay + 1))
        eta = likelihood.coordinate_step(state, st.matrix, n, tau)
        likelihood.rank_one_inverse_update(state, n, tau, eta)
    return preambles, state, st.matrix


class TestAssembleCovariance:
    def test_zero_gamma_gives_noise_floor(self):
        config = make_config(num_devices=4, preamble_len=6, max_delay=1)
        preambles = make_scenario(config, 0)[0]
        gamma = GammaEstimate.zeros(4, 1)
        cov = likelihood.assemble_covariance(preambles, gamma, 2.5)
        np.testing.assert_allclose(cov, 2.5 * np.eye(7), atol=1e-14)

    def test_single_term(self):
        config = make_config(num_devices=3, preamble_len=5, max_delay=2)
        preambles = make_scenario(config, 1)[0]
        gamma = GammaEstimate.zeros(3, 2)
        gamma.values[1, 2] = 0.7
        cov = likelihood.assemble_covariance(preambles, gamma, 1.0)
        dictionary = effective_dictionary(preambles, 2)
        s = dictionary[:, 1 * 3 + 2]
        np.testing.assert_allclose(
            cov, 0.7 * np.outer(s, s.conj()) + np.eye(7), atol=1e-14
        )

    def test_scalar_case(self):
        preambles = np.ones((1, 1), dtype=complex)
        gamma = GammaEstimate(np.array([[2.0]]))
        cov = likelihood.assemble_covariance(preambles, gamma, 1.0)
        assert cov == pytest.approx(np.array([[3.0]]))

    def test_negative_gamma_rejected(self):
        preambles = np.ones((1, 1), dtype=complex)
        with pytest.raises(ValueError, match="non-negative"):
            likelihood.assemble_covariance(
                preambles, GammaEstimate(np.array([[-0.1]])), 1.0
            )


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
        cov = likelihood.assemble_dictionary_covariance(
            state.dictionary, state.gamma.values.ravel(), 1.0
        )
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
        cov = likelihood.assemble_dictionary_covariance(
            state.dictionary, state.gamma.values.ravel(), 1.0
        )
        likelihood.refresh_state(state, cov)
        for n in range(5):
            for tau in range(2):
                eta = likelihood.coordinate_step(state, cov, n, tau)
                step = eta if state.gamma.values[n, tau] == 0 else abs(eta)
                assert step <= 1e-10

    def test_never_drives_gamma_negative(self):
        rng = np.random.default_rng(24)
        _, state, st = random_state(seed=24, updates=0)
        for _ in range(100):
            n = int(rng.integers(5))
            tau = int(rng.integers(2))
            eta = likelihood.coordinate_step(state, st, n, tau)
            assert state.gamma.values[n, tau] + eta >= 0.0
            likelihood.rank_one_inverse_update(state, n, tau, eta)

    def test_optimal_among_grid_offsets(self):
        # dense objective at gamma+eta beats 100 grid alternatives
        for seed in (25, 26):
            preambles, state, st = random_state(seed=seed)
            n, tau = 2, 1
            eta = likelihood.coordinate_step(state, st, n, tau)
            current = state.gamma.values[n, tau]
            candidate = state.gamma.copy()
            candidate.values[n, tau] += eta
            best = oracle.dense_objective(preambles, candidate, 1.0, st)
            for x in np.linspace(-current, current + 10.0, 100):
                other = state.gamma.copy()
                other.values[n, tau] += x
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
            plus.values[n, tau] += step
            minus = state.gamma.copy()
            minus.values[n, tau] -= step
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


class TestRankOneInverseUpdate:
    def test_zero_step_is_identity(self):
        _, state, st = random_state(seed=47)
        before_inv = state.inv_sigma.copy()
        before_gamma = state.gamma.values.copy()
        likelihood.rank_one_inverse_update(state, 0, 0, 0.0)
        np.testing.assert_array_equal(state.inv_sigma, before_inv)
        np.testing.assert_array_equal(state.gamma.values, before_gamma)

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


class TestApplyRankOne:
    def test_matches_dense_outer_product(self):
        inv = hermitian_inverse(12, seed=60)
        rng = np.random.default_rng(61)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        expected = inv - (0.7 / 1.9) * np.outer(v, v.conj())
        likelihood.apply_rank_one(inv, v, 0.7, 1.9)
        rel = np.linalg.norm(inv - expected) / np.linalg.norm(expected)
        assert rel < 1e-14

    def test_mutates_given_array(self):
        inv = hermitian_inverse(6, seed=62)
        before = inv.copy()
        likelihood.apply_rank_one(inv, np.ones(6, dtype=complex), 0.5, 2.0)
        np.testing.assert_allclose(inv, before - 0.25 * np.ones((6, 6)), rtol=1e-14)

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
        with pytest.raises(ValueError, match="Fortran-ordered complex128"):
            likelihood.apply_rank_one(inv, np.ones(6, dtype=complex), 0.5, 2.0)
        np.testing.assert_array_equal(inv, before)

    def test_states_keep_fortran_order(self):
        _, state, st = random_state(seed=64)
        assert state.inv_sigma.flags.f_contiguous
        likelihood.refresh_state(state, st)
        assert state.inv_sigma.flags.f_contiguous


class TestFitFactor:
    @pytest.mark.parametrize("num_antennas", [4, 12, 64])
    def test_reproduces_sample_covariance_at_its_rank(self, num_antennas):
        config = make_config(num_antennas=num_antennas)
        st = make_scenario(config, 65)[2].matrix
        factor_h = likelihood.fit_factor(st)
        dim = config.window_len
        assert factor_h.shape == (min(num_antennas, dim), dim)
        assert factor_h.flags.f_contiguous
        rebuilt = factor_h.conj().T @ factor_h
        assert np.linalg.norm(rebuilt - st) / np.linalg.norm(st) < 1e-12

    def test_fit_form_matches_quadratic_form(self):
        config = make_config(num_antennas=4)
        st = make_scenario(config, 66)[2].matrix
        factor_h = likelihood.fit_factor(st)
        rng = np.random.default_rng(67)
        for _ in range(5):
            v = rng.standard_normal(config.window_len) + 1j * rng.standard_normal(
                config.window_len
            )
            fit = np.linalg.norm(factor_h @ v) ** 2
            assert fit == pytest.approx(float(np.real(np.vdot(v, st @ v))), rel=1e-12)

    def test_zero_sample_covariance_gives_zero_fit(self):
        dim = 7
        factor_h = likelihood.fit_factor(np.zeros((dim, dim)))
        assert factor_h.shape == (1, dim)
        inv = np.eye(dim, dtype=np.complex128, order="F")
        s = np.ones(dim, dtype=complex)
        _, quad, fit, step = likelihood.column_terms(inv, factor_h, s)
        assert (quad, fit, step) == (7.0, 0.0, -1.0 / 7.0)
        block = np.asfortranarray(np.ones((dim, 3), dtype=complex))
        _, quads, fits, _ = likelihood.column_terms(inv, factor_h, block)
        np.testing.assert_array_equal(fits, 0.0)
        np.testing.assert_array_equal(quads, 7.0)


class TestColumnTermsBlock:
    def test_block_matches_columns(self):
        _, state, st = random_state(seed=68)
        factor_h = likelihood.fit_factor(st)
        block = np.asfortranarray(state.dictionary[:, 2:6])
        v, quads, fits, steps = likelihood.column_terms(state.inv_sigma, factor_h, block)
        for k in range(4):
            col = likelihood.column_terms(state.inv_sigma, factor_h, block[:, k])
            np.testing.assert_allclose(v[:, k], col[0], rtol=1e-13)
            for got, want in zip((quads[k], fits[k], steps[k]), col[1:]):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_corrupted_block_detected(self):
        _, state, st = random_state(seed=69)
        state.inv_sigma[:] = -np.eye(state.dim)
        with pytest.raises(NumericalDegeneracyError, match="<= 0"):
            likelihood.column_terms(
                state.inv_sigma, likelihood.fit_factor(st), state.dictionary[:, :3]
            )


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
