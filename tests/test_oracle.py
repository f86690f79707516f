"""The brute-force reference implementations themselves."""

import math

import numpy as np
import pytest

from conftest import make_config, make_scenario
from covdet import likelihood, oracle
from covdet.siggen import effective_dictionary


class TestDenseObjective:
    def test_noise_only_closed_form(self):
        config = make_config(num_devices=4, preamble_len=6, max_delay=1)
        preambles = make_scenario(config, 0)[0]
        gamma = np.zeros((4, 2))
        sigma2 = 2.0
        dim = config.window_len
        value = oracle.dense_objective(
            preambles, gamma, sigma2, sigma2 * np.eye(dim)
        )
        assert value == pytest.approx(dim * math.log(sigma2) + dim)

    def test_agrees_with_incremental_path(self):
        rng = np.random.default_rng(1)
        for seed in range(100):
            config = make_config(
                num_devices=int(rng.integers(2, 6)),
                num_active=1,
                preamble_len=int(rng.integers(4, 10)),
                max_delay=int(rng.integers(0, 3)),
                num_antennas=8,
            )
            preambles, _, st = make_scenario(config, seed)
            gamma = rng.random((config.num_devices, config.num_delays))
            dictionary = effective_dictionary(preambles, config.max_delay)
            cov = likelihood.assemble_covariance(dictionary, gamma, 1.0)
            a = likelihood.evaluate_objective(cov, st)
            b = oracle.dense_objective(preambles, gamma, 1.0, st)
            assert a == pytest.approx(b, abs=1e-10)

    def test_stationary_when_sample_equals_model(self):
        config = make_config(num_devices=4, preamble_len=8, max_delay=1)
        preambles = make_scenario(config, 2)[0]
        gamma = np.random.default_rng(3).random((4, 2))
        cov = oracle.dense_covariance(preambles, gamma, 1.0)
        dictionary = effective_dictionary(preambles, 1)
        state = likelihood.init_state(dictionary, 1.0, cov, 2)
        state.gamma = gamma.copy()
        likelihood.refresh_state(state, cov)
        for n in range(4):
            for tau in range(2):
                _, quad, fit = likelihood.quadratic_terms(state, cov, n, tau)
                assert quad - fit == pytest.approx(0.0, abs=1e-9)


class TestDenseInverse:
    def test_inverts(self):
        config = make_config()
        st = make_scenario(config, 4)[2]
        cov = st + np.eye(st.shape[0])
        np.testing.assert_allclose(
            cov @ oracle.dense_inverse(cov), np.eye(st.shape[0]), atol=1e-10
        )

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            oracle.dense_inverse(-np.eye(3, dtype=complex))


class TestGridMin1d:
    def test_matches_closed_form_within_spacing(self):
        hits = 0
        for seed in range(10):
            config = make_config(
                num_devices=4, preamble_len=8, max_delay=1, num_antennas=16
            )
            preambles, _, st = make_scenario(config, seed)
            dictionary = effective_dictionary(preambles, 1)
            state = likelihood.init_state(dictionary, 1.0, st, 2)
            rng = np.random.default_rng(seed)
            for _ in range(3):
                n, tau = int(rng.integers(4)), int(rng.integers(2))
                eta = likelihood.coordinate_step(state, st, n, tau)
                likelihood.rank_one_inverse_update(state, n, tau, eta)
            n, tau = int(rng.integers(4)), int(rng.integers(2))
            eta = likelihood.coordinate_step(state, st, n, tau)
            grid_eta = oracle.grid_min_1d(state, st, n, tau, grid_points=2001)
            current = float(state.gamma[n, tau])
            spacing = (current + 10.0 + current) / 2000
            assert abs(eta - grid_eta) <= spacing
            hits += 1
        assert hits == 10

    def test_scalar_closed_form(self):
        # scalar problem: best offset is max(sigma_tilde - gamma - sigma2, -gamma)
        dictionary = np.ones((1, 1), dtype=complex)
        st = np.array([[4.0 + 0j]])
        state = likelihood.init_state(dictionary, 1.0, st, 1)
        likelihood.rank_one_inverse_update(state, 0, 0, 0.5)
        likelihood.refresh_state(state, st)
        expected = 4.0 - 0.5 - 1.0
        grid_eta = oracle.grid_min_1d(state, st, 0, 0, grid_points=10001)
        spacing = (0.5 + 10.0 + 0.5) / 10000
        assert abs(grid_eta - expected) <= spacing

    def test_zero_offset_at_stationarity(self):
        config = make_config(num_devices=3, preamble_len=6, max_delay=1)
        preambles = make_scenario(config, 5)[0]
        gamma = np.random.default_rng(6).random((3, 2))
        cov = oracle.dense_covariance(preambles, gamma, 1.0)
        dictionary = effective_dictionary(preambles, 1)
        state = likelihood.init_state(dictionary, 1.0, cov, 2)
        state.gamma = gamma.copy()
        likelihood.refresh_state(state, cov)
        grid_eta = oracle.grid_min_1d(state, cov, 1, 1, grid_points=4001)
        current = float(gamma[1, 1])
        spacing = (2 * current + 10.0) / 4000
        assert abs(grid_eta) <= spacing


class TestExhaustiveSupportSearch:
    def test_recovers_noiseless_single_device(self):
        # the winning assignment may carry extra coordinates whose optimized
        # gamma is numerically zero; thresholding strips them, which is how
        # downstream comparisons consume this oracle
        from covdet.detect import threshold, to_indicators

        config = make_config(
            num_devices=3, num_active=1, preamble_len=6, max_delay=1
        )
        preambles = make_scenario(config, 7)[0]
        gamma = np.zeros((3, 2))
        gamma[2, 1] = 0.8
        exact_cov = oracle.dense_covariance(preambles, gamma, 1.0)
        found = oracle.exhaustive_support_search(preambles, exact_cov, 1.0)
        assert to_indicators(threshold(found.gamma, 0.05)) == {(2, 1)}
        assert found.gamma[2, 1] == pytest.approx(0.8, rel=1e-6)
        spurious = found.gamma.copy()
        spurious[2, 1] = 0.0
        assert np.max(spurious) < 1e-6

    def test_pure_noise_prefers_empty_support(self):
        config = make_config(num_devices=3, preamble_len=6, max_delay=1)
        preambles = make_scenario(config, 8)[0]
        noise_cov = np.eye(config.window_len, dtype=complex)
        found = oracle.exhaustive_support_search(preambles, noise_cov, 1.0)
        assert found.support == frozenset()
        assert np.all(found.gamma == 0)
        assert found.objective == pytest.approx(config.window_len)

    def test_budget_enforced(self):
        config = make_config(num_devices=8, preamble_len=6, max_delay=2)
        preambles, _, st = make_scenario(config, 9)
        with pytest.raises(ValueError, match="budget"):
            oracle.exhaustive_support_search(
                preambles, st, 1.0, candidate_budget=100
            )

    def test_beats_or_matches_bcd_objective(self):
        # global enumeration can only do better than the greedy detector
        from covdet.detect import run_bcd

        config = make_config(
            num_devices=4, num_active=2, preamble_len=8, max_delay=1,
            num_antennas=32,
        )
        for seed in range(5):
            preambles, _, st = make_scenario(config, seed)
            bcd = run_bcd(preambles, st, config)
            found = oracle.exhaustive_support_search(preambles, st, 1.0)
            assert found.objective <= bcd.final_objective + 1e-6
