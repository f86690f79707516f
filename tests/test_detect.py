"""Detector behavior: CD-E, BCD, enforcement, thresholding, indicators."""

import numpy as np
import pytest

from conftest import block_visit_by_hand, degenerate_removals, make_config, make_scenario
from covdet import detect, likelihood, oracle
from covdet.detect import (
    enforce_block_sparsity,
    run_bcd,
    run_cd_e,
    threshold,
    to_indicators,
)
from covdet.siggen import effective_dictionary
from covdet.sysmodel import ConvergenceError, NumericalDegeneracyError


class TestEnforceBlockSparsity:
    def test_keeps_block_maximum(self):
        gamma = np.array([[0.3, 0.1, 0.0]])
        assert enforce_block_sparsity(gamma).tolist() == [[0.3, 0.0, 0.0]]

    def test_zero_block_stays_zero(self):
        gamma = np.zeros((2, 3))
        assert np.all(enforce_block_sparsity(gamma) == 0)

    def test_tie_goes_to_smallest_delay(self):
        gamma = np.array([[0.2, 0.2]])
        assert enforce_block_sparsity(gamma).tolist() == [[0.2, 0.0]]

    def test_input_unchanged(self):
        gamma = np.array([[0.3, 0.1]])
        enforce_block_sparsity(gamma)
        assert gamma.tolist() == [[0.3, 0.1]]


class TestThreshold:
    def test_drops_below_keeps_above(self):
        gamma = np.array([[0.05, 0.15]])
        assert threshold(gamma, 0.1).tolist() == [[0.0, 0.15]]

    def test_all_survivors_unchanged(self):
        gamma = np.array([[0.4, 0.2]])
        assert threshold(gamma, 0.1).tolist() == [[0.4, 0.2]]

    def test_boundary_is_inclusive(self):
        gamma = np.array([[0.1]])
        assert threshold(gamma, 0.1).tolist() == [[0.1]]

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            threshold(np.zeros((1, 1)), 0.0)


class TestToIndicators:
    def test_empty(self):
        assert to_indicators(np.zeros((4, 3))) == frozenset()

    def test_single_pair(self):
        gamma = np.zeros((5, 3))
        gamma[3, 1] = 0.5
        assert to_indicators(gamma) == {(3, 1)}

    def test_multiple_devices(self):
        gamma = np.zeros((5, 3))
        gamma[0, 2] = 0.3
        gamma[4, 0] = 0.6
        assert to_indicators(gamma) == {(0, 2), (4, 0)}

    def test_block_dense_input_rejected(self):
        gamma = np.array([[0.1, 0.2]])
        with pytest.raises(ValueError, match="block-sparse"):
            to_indicators(gamma)


class TestRunCdE:
    def test_pure_noise_detects_nothing(self):
        config = make_config()
        preambles = make_scenario(config, 0)[0]
        noise_cov = config.sigma2 * np.eye(config.window_len)
        result = run_cd_e(preambles, noise_cov, config)
        assert result.theta_hat == frozenset()
        assert np.all(result.gamma_hat == 0)
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
        assert np.count_nonzero(result.gamma_hat, axis=1).max() <= 1
        survivors = result.gamma_hat[result.gamma_hat > 0]
        assert np.all(survivors >= config.threshold_cd)

    def test_deterministic(self):
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 11)
        a = run_cd_e(preambles, st, config)
        b = run_cd_e(preambles, st, config)
        assert a.theta_hat == b.theta_hat
        np.testing.assert_array_equal(a.gamma_hat, b.gamma_hat)
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
            dictionary, config.sigma2, st, config.num_delays
        )
        objective = state.objective
        for n in range(config.num_devices):
            for tau in range(config.num_delays):
                eta = likelihood.coordinate_step(state, st, n, tau)
                objective += likelihood.objective_delta(state, st, n, tau, eta)
                likelihood.rank_one_inverse_update(state, n, tau, eta)
        result = run_cd_e(preambles, st, config)
        assert result.objective_trace[1] == pytest.approx(objective, abs=1e-12)

    def test_degenerate_state_reports_sweep_and_column(self, monkeypatch):
        # a quadratic form that is not positive stops the run with the
        # place it happened: column 7 is zeroed from the second pass on
        column_sweep = likelihood.column_sweep
        calls = []

        def corrupted(inv, factor_h, columns, gamma, objective):
            calls.append(len(columns))
            if len(calls) == 2:
                columns = list(columns)
                columns[7] = np.zeros_like(columns[7])
            return column_sweep(inv, factor_h, columns, gamma, objective)

        monkeypatch.setattr(likelihood, "column_sweep", corrupted)
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 27)
        with pytest.raises(NumericalDegeneracyError, match=r"<= 0 at sweep 2, column 7$"):
            run_cd_e(preambles, st, config)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
@pytest.mark.parametrize(
    "bad, where",
    [
        (np.nan, "covariance"),
        (np.inf, "covariance"),
        (np.nan, "preambles"),
        (np.inf, "preambles"),
    ],
    ids=["nan", "inf", "preambles-nan", "preambles-inf"],
)
def test_non_finite_sample_covariance_rejected(runner, bad, where):
    config = make_config()
    preambles, _, st = make_scenario(config, 29)
    inputs = {"preambles": preambles.copy(), "covariance": st.copy()}
    inputs[where][1, 2] = bad
    with pytest.raises(ValueError, match=f"{where}.*NaN or Inf"):
        runner(inputs["preambles"], inputs["covariance"], config)



@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
@pytest.mark.parametrize("entry", [(1, 2), (2, 1)], ids=["upper", "lower"])
def test_non_hermitian_sample_covariance_rejected(runner, entry, monkeypatch):
    config = make_config()
    preambles, _, st = make_scenario(config, 29)
    st[entry] += 5.0

    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(likelihood, "column_sweep", no_sweep)
    monkeypatch.setattr(likelihood, "block_sweep", no_sweep)
    with pytest.raises(ValueError, match="must be Hermitian"):
        runner(preambles, st, config)

# desk.json at M=4; with convergence_delta=1e-9 its runs take 14-27
# sweeps, so each crosses at least one dense refresh
DESK_M4 = dict(
    num_devices=50, num_active=10, preamble_len=30, max_delay=2, num_antennas=4,
    convergence_delta=1e-9,
)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
def test_refresh_correction_is_not_progress(runner, monkeypatch):
    # the stop rule reads each sweep's own decrement, so a refresh that
    # moves the objective changes neither when a run stops nor what it finds
    config = make_config(**DESK_M4)
    preambles, _, st = make_scenario(config, 0)
    plain = runner(preambles, st, config)
    assert plain.iterations > detect.RECOMPUTE_EVERY
    refresh = likelihood.refresh_state

    def shifted_refresh(state, sigma_tilde):
        refresh(state, sigma_tilde)
        state.objective += 1.0

    monkeypatch.setattr(likelihood, "refresh_state", shifted_refresh)
    shifted = runner(preambles, st, config)
    assert shifted.iterations == plain.iterations
    assert shifted.theta_hat == plain.theta_hat
    # each refresh recomputes the objective densely, then adds its 1.0
    assert shifted.final_objective == pytest.approx(plain.final_objective + 1.0, abs=1e-9)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
@pytest.mark.parametrize("seed", [0, 1])
def test_final_state_matches_oracle(runner, seed, monkeypatch):
    # the tracked objective and inverse of a whole run, refreshes and all,
    # against the brute-force reference at the relaxed estimate
    config = make_config(**DESK_M4)
    preambles, _, st = make_scenario(config, seed)
    states = []
    init_state = likelihood.init_state

    def capture(*args):
        states.append(init_state(*args))
        return states[-1]

    monkeypatch.setattr(likelihood, "init_state", capture)
    result = runner(preambles, st, config)
    assert result.iterations > detect.RECOMPUTE_EVERY
    (state,) = states
    expected = oracle.dense_objective(preambles, state.gamma, config.sigma2, st)
    assert result.final_objective == pytest.approx(expected, rel=1e-10)
    dense = oracle.dense_inverse(oracle.dense_covariance(preambles, state.gamma, config.sigma2))
    assert np.linalg.norm(state.inv_sigma - dense) <= 1e-9 * np.linalg.norm(dense)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
def test_zero_sample_covariance_detects_nothing(runner):
    # noiseless and no active device: the fit factor is a single zero row
    config = make_config()
    preambles = make_scenario(config, 31)[0]
    zero = np.zeros((config.window_len, config.window_len))
    result = runner(preambles, zero, config)
    assert result.theta_hat == frozenset()
    assert not np.any(result.gamma_hat)


def bcd_sweep_by_hand(state, st, config, events):
    """One ascending bcd sweep through the public step functions.

    Returns the objective change and appends ``"same"``, ``"moved"`` or
    ``"emptied"`` to ``events`` for every block that held an entry.
    """
    total = 0.0
    for n in range(config.num_devices):
        delta, event = block_visit_by_hand(state, st, n)
        total += delta
        if event is not None:
            events.append(event)
    return total


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

    def test_block_sparse_at_every_commit(self, monkeypatch):
        # audited after every pass: a pass writes row n only while visiting
        # block n, and ends that visit with at most one nonzero in it, so a
        # row that is block-sparse after the pass was so after its commit
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 17)
        seen = []
        block_sweep = likelihood.block_sweep

        def audited(inv, factor_h, blocks, gamma, objective):
            objective = block_sweep(inv, factor_h, blocks, gamma, objective)
            seen.append(np.count_nonzero(gamma, axis=1).max())
            return objective

        monkeypatch.setattr(likelihood, "block_sweep", audited)
        result = run_bcd(preambles, st, config)
        assert len(seen) == result.iterations
        assert max(seen) <= 1
        assert np.count_nonzero(result.gamma_hat, axis=1).max() <= 1

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
            dictionary, config.sigma2, st, config.num_delays
        )
        base = oracle.dense_objective(preambles, state.gamma, config.sigma2, st)
        for tau in range(config.num_delays):
            eta = likelihood.coordinate_step(state, st, 3, tau)
            delta = likelihood.objective_delta(state, st, 3, tau, eta)
            candidate = state.gamma.copy()
            candidate[3, tau] += eta
            dense = oracle.dense_objective(preambles, candidate, config.sigma2, st)
            assert base + delta == pytest.approx(dense, abs=1e-8)

    def test_first_sweep_matches_public_step_functions(self):
        # one ascending block sweep driven by hand through the public step
        # functions lands on the detector's first recorded objective; every
        # block starts empty in the first sweep, so there is no removal
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 28)
        dictionary = effective_dictionary(preambles, config.max_delay)
        state = likelihood.init_state(
            dictionary, config.sigma2, st, config.num_delays
        )
        events = []
        objective = state.objective + bcd_sweep_by_hand(state, st, config, events)
        assert not events
        result = run_bcd(preambles, st, config)
        assert result.iterations > 1
        assert result.objective_trace[1] == pytest.approx(objective, abs=1e-12)

    def test_second_sweep_matches_public_step_functions(self):
        # the second sweep removes each block's entry first: re-inserting
        # it at the same delay (the detector's net-change update), moving
        # it to another delay and leaving the block empty all occur here
        config = make_config(num_antennas=4)
        preambles, _, st = make_scenario(config, 32)
        dictionary = effective_dictionary(preambles, config.max_delay)
        state = likelihood.init_state(
            dictionary, config.sigma2, st, config.num_delays
        )
        objective = state.objective + bcd_sweep_by_hand(state, st, config, [])
        events = []
        objective += bcd_sweep_by_hand(state, st, config, events)
        assert set(events) == {"same", "moved", "emptied"}
        result = run_bcd(preambles, st, config)
        assert result.iterations > 2
        assert result.objective_trace[2] == pytest.approx(objective, abs=1e-10)

    def test_degenerate_zeroed_state_reports_sweep_and_device(self, monkeypatch):
        # a zeroed-state quadratic form that is not positive stops the run
        # with the place it happened
        degenerate_removals(monkeypatch)
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 28)
        with pytest.raises(NumericalDegeneracyError, match=r"<= 0 at sweep 2, device \d+"):
            run_bcd(preambles, st, config)

    def test_deterministic(self):
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 21)
        a = run_bcd(preambles, st, config)
        b = run_bcd(preambles, st, config)
        assert a.theta_hat == b.theta_hat
        np.testing.assert_array_equal(a.gamma_hat, b.gamma_hat)
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
        survivors = result.gamma_hat[result.gamma_hat > 0]
        assert np.all(survivors >= config.threshold_bcd)
