"""Detector behavior: CD-E, BCD, enforcement, thresholding, indicators."""

import numpy as np
import pytest

from conftest import make_config, make_scenario
from covdet import detect, likelihood, oracle
from covdet.detect import (
    enforce_block_sparsity,
    run_bcd,
    run_cd_e,
    threshold,
    to_indicators,
)
from covdet.siggen import effective_dictionary
from covdet.sysmodel import ConvergenceError, GammaEstimate


class TestEnforceBlockSparsity:
    def test_keeps_block_maximum(self):
        gamma = GammaEstimate(np.array([[0.3, 0.1, 0.0]]))
        assert enforce_block_sparsity(gamma).values.tolist() == [[0.3, 0.0, 0.0]]

    def test_zero_block_stays_zero(self):
        gamma = GammaEstimate(np.zeros((2, 3)))
        assert np.all(enforce_block_sparsity(gamma).values == 0)

    def test_tie_goes_to_smallest_delay(self):
        gamma = GammaEstimate(np.array([[0.2, 0.2]]))
        assert enforce_block_sparsity(gamma).values.tolist() == [[0.2, 0.0]]

    def test_input_unchanged(self):
        gamma = GammaEstimate(np.array([[0.3, 0.1]]))
        enforce_block_sparsity(gamma)
        assert gamma.values.tolist() == [[0.3, 0.1]]


class TestThreshold:
    def test_drops_below_keeps_above(self):
        gamma = GammaEstimate(np.array([[0.05, 0.15]]))
        assert threshold(gamma, 0.1).values.tolist() == [[0.0, 0.15]]

    def test_all_survivors_unchanged(self):
        gamma = GammaEstimate(np.array([[0.4, 0.2]]))
        assert threshold(gamma, 0.1).values.tolist() == [[0.4, 0.2]]

    def test_boundary_is_inclusive(self):
        gamma = GammaEstimate(np.array([[0.1]]))
        assert threshold(gamma, 0.1).values.tolist() == [[0.1]]

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            threshold(GammaEstimate(np.zeros((1, 1))), 0.0)


class TestToIndicators:
    def test_empty(self):
        assert to_indicators(GammaEstimate.zeros(4, 2)) == frozenset()

    def test_single_pair(self):
        gamma = GammaEstimate.zeros(5, 2)
        gamma.values[3, 1] = 0.5
        assert to_indicators(gamma) == {(3, 1)}

    def test_multiple_devices(self):
        gamma = GammaEstimate.zeros(5, 2)
        gamma.values[0, 2] = 0.3
        gamma.values[4, 0] = 0.6
        assert to_indicators(gamma) == {(0, 2), (4, 0)}

    def test_block_dense_input_rejected(self):
        gamma = GammaEstimate(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError, match="block-sparse"):
            to_indicators(gamma)


class TestRunCdE:
    def test_pure_noise_detects_nothing(self):
        config = make_config()
        preambles = make_scenario(config, 0)[0]
        noise_cov = config.sigma2 * np.eye(config.window_len)
        result = run_cd_e(preambles, noise_cov, config)
        assert result.theta_hat == frozenset()
        assert np.all(result.gamma_hat.values == 0)
        assert result.iterations == 1

    def test_high_snr_exact_recovery(self):
        config = make_config(num_antennas=256)
        preambles, truth, st = make_scenario(config, 42)
        result = run_cd_e(preambles, st, config)
        assert result.theta_hat == truth.pairs

    def test_trace_non_increasing(self):
        for seed in range(5):
            config = make_config(num_antennas=16)
            preambles, _, st = make_scenario(config, seed)
            result = run_cd_e(preambles, st, config)
            diffs = np.diff(result.objective_trace)
            assert np.all(diffs <= 1e-9)
            assert result.objective_trace[0] > result.final_objective

    def test_terminates_at_delta(self):
        config = make_config(num_antennas=32)
        preambles, _, st = make_scenario(config, 7)
        result = run_cd_e(preambles, st, config)
        last_drop = result.objective_trace[-2] - result.objective_trace[-1]
        assert last_drop <= config.convergence_delta
        assert result.iterations == len(result.objective_trace) - 1

    def test_estimate_is_block_sparse_and_thresholded(self):
        config = make_config(num_antennas=8)
        preambles, _, st = make_scenario(config, 9)
        result = run_cd_e(preambles, st, config)
        assert result.gamma_hat.is_block_sparse()
        survivors = result.gamma_hat.values[result.gamma_hat.values > 0]
        assert np.all(survivors >= config.threshold_cd)

    def test_deterministic(self):
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 11)
        a = run_cd_e(preambles, st, config)
        b = run_cd_e(preambles, st, config)
        assert a.theta_hat == b.theta_hat
        np.testing.assert_array_equal(a.gamma_hat.values, b.gamma_hat.values)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_sweep_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(detect, "MAX_SWEEPS", 1)
        config = make_config(num_antennas=64)
        preambles, _, st = make_scenario(config, 15)
        with pytest.raises(ConvergenceError, match="1 sweeps"):
            run_cd_e(preambles, st, config)

    @pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda p, st: (p, np.eye(3)), "sample covariance"),
            (lambda p, st: (p[:, 0], st), "preambles must have shape"),
            (lambda p, st: (p.T, st), "preambles must have shape"),
        ],
        ids=["covariance", "1-D-preambles", "transposed-preambles"],
    )
    def test_dimension_mismatch_rejected(self, runner, corrupt, message):
        config = make_config()
        preambles, _, st = make_scenario(config, 0)
        with pytest.raises(ValueError, match=message):
            runner(*corrupt(preambles, st), config)

    def test_first_sweep_matches_public_step_functions(self):
        # one ascending sweep driven by hand through the public step
        # functions lands on the detector's first recorded objective
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 27)
        dictionary = effective_dictionary(preambles, config.max_delay)
        state = likelihood.init_state(
            dictionary, config.sigma2, st.matrix, config.num_delays
        )
        objective = state.objective
        for n in range(config.num_devices):
            for tau in range(config.num_delays):
                eta = likelihood.coordinate_step(state, st, n, tau)
                objective += likelihood.objective_delta(state, st, n, tau, eta)
                likelihood.rank_one_inverse_update(state, n, tau, eta)
        result = run_cd_e(preambles, st, config)
        assert result.objective_trace[1] == pytest.approx(objective, abs=1e-12)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_covariance_rejected(runner, bad):
    config = make_config()
    preambles, _, st = make_scenario(config, 29)
    corrupted = st.matrix.copy()
    corrupted[1, 2] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        runner(preambles, corrupted, config)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
def test_zero_sample_covariance_detects_nothing(runner):
    # noiseless and no active device: the fit factor is a single zero row
    config = make_config()
    preambles = make_scenario(config, 31)[0]
    zero = np.zeros((config.window_len, config.window_len))
    result = runner(preambles, zero, config)
    assert result.theta_hat == frozenset()
    assert not np.any(result.gamma_hat.values)


class TestRunBcd:
    def test_pure_noise_detects_nothing(self):
        config = make_config()
        preambles = make_scenario(config, 0)[0]
        noise_cov = config.sigma2 * np.eye(config.window_len)
        result = run_bcd(preambles, noise_cov, config)
        assert result.theta_hat == frozenset()
        assert result.iterations == 1

    def test_high_snr_exact_recovery(self):
        config = make_config(num_antennas=256)
        preambles, truth, st = make_scenario(config, 42)
        result = run_bcd(preambles, st, config)
        assert result.theta_hat == truth.pairs

    def test_block_sparse_at_every_commit(self):
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 17)
        seen = []

        def audit(values):
            seen.append(np.count_nonzero(values, axis=1).max())

        result = run_bcd(preambles, st, config, block_audit=audit)
        assert seen, "audit hook never called"
        assert max(seen) <= 1
        assert result.gamma_hat.is_block_sparse()

    def test_trace_non_increasing(self):
        for seed in range(5):
            config = make_config(num_antennas=16)
            preambles, _, st = make_scenario(config, seed)
            result = run_bcd(preambles, st, config)
            assert np.all(np.diff(result.objective_trace) <= 1e-9)

    def test_candidate_bookkeeping_matches_dense_objective(self):
        # the speculative (step, delta) pair BCD relies on, checked
        # against the dense objective for every delay of one block
        config = make_config(num_antennas=32)
        preambles, _, st = make_scenario(config, 19)
        dictionary = effective_dictionary(preambles, config.max_delay)
        state = likelihood.init_state(
            dictionary, config.sigma2, st.matrix, config.num_delays
        )
        base = oracle.dense_objective(preambles, state.gamma, config.sigma2, st.matrix)
        for tau in range(config.num_delays):
            eta = likelihood.coordinate_step(state, st.matrix, 3, tau)
            delta = likelihood.objective_delta(state, st.matrix, 3, tau, eta)
            candidate = state.gamma.copy()
            candidate.values[3, tau] += eta
            dense = oracle.dense_objective(preambles, candidate, config.sigma2, st.matrix)
            assert base + delta == pytest.approx(dense, abs=1e-8)

    def test_first_sweep_matches_public_step_functions(self):
        # one ascending block sweep driven by hand through the public step
        # functions lands on the detector's first recorded objective; every
        # block starts empty in the first sweep, so there is no downdate
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 28)
        dictionary = effective_dictionary(preambles, config.max_delay)
        state = likelihood.init_state(
            dictionary, config.sigma2, st.matrix, config.num_delays
        )
        objective = state.objective
        for n in range(config.num_devices):
            best = None
            best_delta = 0.0
            for tau in range(config.num_delays):
                eta = likelihood.coordinate_step(state, st, n, tau)
                if eta <= 0.0:
                    continue
                delta = likelihood.objective_delta(state, st, n, tau, eta)
                if delta < best_delta:
                    best, best_delta = (tau, eta), delta
            if best is not None:
                likelihood.rank_one_inverse_update(state, n, *best)
                objective += best_delta
        result = run_bcd(preambles, st, config)
        assert result.iterations > 1
        assert result.objective_trace[1] == pytest.approx(objective, abs=1e-12)

    def test_deterministic(self):
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 21)
        a = run_bcd(preambles, st, config)
        b = run_bcd(preambles, st, config)
        assert a.theta_hat == b.theta_hat
        np.testing.assert_array_equal(a.gamma_hat.values, b.gamma_hat.values)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_sweep_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(detect, "MAX_SWEEPS", 1)
        config = make_config(num_antennas=64)
        preambles, _, st = make_scenario(config, 23)
        with pytest.raises(ConvergenceError, match="1 sweeps"):
            run_bcd(preambles, st, config)

    def test_survivors_meet_bcd_threshold(self):
        config = make_config(num_antennas=8)
        preambles, _, st = make_scenario(config, 25)
        result = run_bcd(preambles, st, config)
        survivors = result.gamma_hat.values[result.gamma_hat.values > 0]
        assert np.all(survivors >= config.threshold_bcd)
