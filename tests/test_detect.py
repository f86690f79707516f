"""Detector behavior: CD-E, BCD, enforcement, thresholding, indicators,
the result record.

The acceptance gate (``tests/test_acceptance.py``) alone states criteria
1-4 and 8; the tests here check what those criteria do not, or check it
to a tighter bound. ``test_whole_runs_match_the_dense_reference`` alone
checks whole runs of both detectors against ``oracle.reference_run``, which
takes every visit's ``Sigma^-1 s`` from a fresh dense solve.

Tests that need another stop tolerance monkeypatch
``detect.CONVERGENCE_DELTA``; a patched constant does not reach the
workers of a process pool, so they run their detectors serially.
"""

import dataclasses

import numpy as np
import pytest

import oracle
from conftest import (
    degenerate_removals,
    make_config,
    make_scenario,
    shipped,
)
from covdet import detect, likelihood
from covdet.detect import (
    DetectionResult,
    enforce_block_sparsity,
    run_bcd,
    run_cd_e,
    threshold,
    to_indicators,
)
from covdet.metrics import compute_fap, compute_mdp
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

    def test_bytes_match_the_scatter_form(self):
        # the reference keeps each row's argmax entry by a fancy-index
        # scatter into zeros
        rng = np.random.default_rng(30)
        for _ in range(20):
            gamma = rng.random((50, 3)) * (rng.random((50, 3)) < 0.4)
            gamma[rng.integers(50), :] = 0.7  # a tie
            expected = np.zeros_like(gamma)
            best = np.argmax(gamma, axis=1)
            rows = np.arange(gamma.shape[0])
            expected[rows, best] = gamma[rows, best]
            assert enforce_block_sparsity(gamma).tobytes() == expected.tobytes()


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
        # a NaN or infinite threshold would drop every detection
        for t in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite positive"):
                threshold(np.zeros((1, 1)), t)


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

    def test_matches_argwhere_on_block_sparse_estimates(self):
        # the reference reads the pairs off ``argwhere(gamma > 0)``; a
        # negative or NaN entry counts toward block sparsity but is not
        # declared, and a second nonzero in any row is rejected
        rng = np.random.default_rng(31)
        for _ in range(50):
            gamma = np.zeros((50, 3))
            held = rng.random(50) < 0.3
            gamma[held, rng.integers(3, size=held.sum())] = rng.random(held.sum())
            odd = rng.integers(50)
            gamma[odd] = 0.0
            gamma[odd, rng.integers(3)] = rng.choice([-0.5, np.nan])
            expected = frozenset((int(n), int(tau)) for n, tau in np.argwhere(gamma > 0.0))
            found = to_indicators(gamma)
            assert found == expected
            assert all(type(n) is int and type(tau) is int for n, tau in found)
            row = rng.integers(50)
            gamma[row] = 0.0
            gamma[row, rng.choice(3, size=2, replace=False)] = [0.4, rng.choice([0.2, -0.2])]
            with pytest.raises(ValueError, match="block-sparse"):
                to_indicators(gamma)


class TestDetectionResult:
    def test_holds_fields(self):
        # the declared pairs are read off the estimate
        gamma_hat = np.zeros((4, 3))
        gamma_hat[0, 1] = 0.5
        gamma_hat[2, 0] = 2.0
        result = DetectionResult(gamma_hat, np.array([3.0, 1.0]))
        assert result.theta_hat == {(0, 1), (2, 0)}
        assert [f.name for f in dataclasses.fields(result) if f.init] == [
            "gamma_hat", "objective_trace"
        ]

    def test_duplicate_device_rejected(self):
        # a block-dense estimate declares device 0 at two delays
        gamma_hat = np.zeros((2, 3))
        gamma_hat[0, 1:] = 1.0
        with pytest.raises(ValueError, match="block-sparse"):
            DetectionResult(gamma_hat, np.array([0.0, -1.0]))

    def test_counts_read_off_trace(self):
        result = DetectionResult(np.zeros((2, 3)), np.array([4.0, 2.5, -1.5]))
        assert result.iterations == 2
        assert result.final_objective == -1.5
        assert type(result.final_objective) is float


class TestRunCdE:
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

    def test_degenerate_state_reports_sweep_and_column(self, monkeypatch):
        # a quadratic form that is not positive stops the run with the
        # place it happened: column 7 is zeroed from the second pass on
        column_sweep = likelihood.column_sweep
        calls = []

        def corrupted(stack, columns, gamma, objective):
            calls.append(len(columns))
            if len(calls) == 2:
                columns = list(columns)
                columns[7] = np.zeros_like(columns[7])
            return column_sweep(stack, columns, gamma, objective)

        monkeypatch.setattr(likelihood, "column_sweep", corrupted)
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 27)
        with pytest.raises(NumericalDegeneracyError, match=r"<= 0 at sweep 2, column 7$"):
            run_cd_e(preambles, st, config)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
@pytest.mark.parametrize(
    "bad, where, entry",
    [
        (np.nan, "covariance", (1, 2)),
        (np.inf, "covariance", (1, 2)),
        (np.nan, "preambles", (1, 2)),
        (np.inf, "preambles", (1, 2)),
        (-np.inf, "covariance", (1, 2)),
        (-np.inf, "covariance", (1, 1)),
        (1j * np.nan, "covariance", (1, 2)),
        (1j * np.inf, "covariance", (1, 2)),
        (1j * np.nan, "covariance", (1, 1)),
        (1j * np.inf, "covariance", (1, 1)),
    ],
    ids=[
        "nan", "inf", "preambles-nan", "preambles-inf", "minus-inf", "diagonal-minus-inf",
        "imag-nan", "imag-inf", "diagonal-imag-nan", "diagonal-imag-inf",
    ],
)
def test_non_finite_sample_covariance_rejected(runner, bad, where, entry):
    # a complex ``bad`` replaces only the imaginary part of the entry; the
    # covariance check reads finiteness off max|S|, so every such entry
    # must make that maximum non-finite
    config = make_config()
    preambles, _, st = make_scenario(config, 29)
    inputs = {"preambles": preambles.copy(), "covariance": st.copy()}
    if isinstance(bad, complex):
        inputs[where].imag[entry] = bad.imag
        assert np.isfinite(inputs[where].real[entry])
    else:
        inputs[where][entry] = bad
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

def test_prepare_keeps_the_dictionary_it_builds(monkeypatch):
    # effective_dictionary builds the dictionary Fortran-ordered, and the
    # state and the sweeps take that very array, not a copy
    config = make_config()
    preambles, _, st = make_scenario(config, 29)
    built = []

    def record(*args):
        built.append(effective_dictionary(*args))
        return built[-1]

    monkeypatch.setattr(detect, "effective_dictionary", record)
    _, _, state = detect.prepare(preambles, st, config)
    assert len(built) == 1
    assert state.dictionary is built[0]
    assert state.dictionary.flags.f_contiguous


# desk.json at M=4; with a stop tolerance of 1e-9 (DESK_M4_DELTA) its runs
# take 14-27 sweeps, so each crosses at least one dense refresh
DESK_M4 = shipped("desk", num_antennas=4).base
DESK_M4_DELTA = 1e-9


def test_failing_refresh_reports_its_sweep(monkeypatch):
    # a dense refresh that fails stops the run with the sweep it follows;
    # it visits no column, so none is named
    def failing_refresh(state, sigma_tilde):
        raise NumericalDegeneracyError("dense refresh failed: leading minor 3")

    monkeypatch.setattr(detect, "CONVERGENCE_DELTA", DESK_M4_DELTA)
    monkeypatch.setattr(likelihood, "refresh_state", failing_refresh)
    preambles, _, st = make_scenario(DESK_M4, 0)
    with pytest.raises(NumericalDegeneracyError, match=r"^dense refresh failed: .* at sweep 10$"):
        run_cd_e(preambles, st, DESK_M4)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
def test_refresh_correction_is_not_progress(runner, monkeypatch):
    # the stop rule reads each sweep's own decrement, so a refresh that
    # moves the objective changes neither when a run stops nor what it finds
    monkeypatch.setattr(detect, "CONVERGENCE_DELTA", DESK_M4_DELTA)
    config = DESK_M4
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
@pytest.mark.parametrize("shift", [0.5, 2.0])
def test_indefinite_sample_covariance_rejected(runner, shift, monkeypatch):
    # S - cI is Hermitian but indefinite; its pivoted Cholesky stops below
    # full rank, and the part it leaves out must not be fitted silently
    config = make_config(num_devices=20, num_active=4, preamble_len=20, num_antennas=64)
    preambles, _, st = make_scenario(config, 3)
    bad = st - shift * np.eye(config.window_len)
    assert np.linalg.eigvalsh(bad).min() < -1e-8
    monkeypatch.setattr(likelihood, "column_sweep", None)
    monkeypatch.setattr(likelihood, "block_sweep", None)
    with pytest.raises(ValueError, match="not positive semidefinite"):
        runner(preambles, bad, config)


@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
def test_zero_sample_covariance_detects_nothing(runner):
    # noiseless and no active device: the fit factor is a single zero row
    config = make_config()
    preambles = make_scenario(config, 31)[0]
    zero = np.zeros((config.window_len, config.window_len))
    result = runner(preambles, zero, config)
    assert result.theta_hat == frozenset()
    assert not np.any(result.gamma_hat)


class TestRunBcd:
    def test_degenerate_zeroed_state_reports_sweep_and_device(self, monkeypatch):
        # a zeroed-state quadratic form that is not positive stops the run
        # with the place it happened
        degenerate_removals(monkeypatch)
        config = make_config(num_antennas=16)
        preambles, _, st = make_scenario(config, 28)
        with pytest.raises(NumericalDegeneracyError, match=r"<= 0 at sweep 2, device \d+"):
            run_bcd(preambles, st, config)



# whole runs against the dense reference

# per setting: transmit power (dBm), the stop tolerance that the tests
# set as detect.CONVERGENCE_DELTA, and the relative gap allowed between the
# detector's objective trace and the reference's. Rounding in either grows
# with cond(Sigma). At 13-23 dBm a held column adds at most 0.25 L to
# Sigma's noise floor of 1, and the gaps read at most 2e-15 over 600 other
# seeded systems per setting; at 43 dBm it adds up to 25 L, and they read
# up to 2e-12 over 1000
WHOLE_RUN_SETTINGS = {
    "13dBm": (13.0, 1e-3, 1e-13),
    "23dBm": (23.0, 1e-3, 1e-13),
    "43dBm": (43.0, 1e-3, 1e-9),
    # 23 of its 124 runs cross RECOMPUTE_EVERY's dense refresh, up to 41 sweeps
    "23dBm-delta1e-9": (23.0, 1e-9, 1e-13),
}


def whole_run_systems(power):
    """The property's search at ``power``: ``(config, preambles, sample
    covariance)`` of 60 seeded small systems, N up to two full windows and
    a short one, then of two pinned ones."""
    rng = np.random.default_rng(36)
    for seed in range(60):
        num_devices = int(rng.integers(1, 2 * likelihood.WINDOW + 2))
        config = make_config(
            num_devices=num_devices, num_active=int(rng.integers(num_devices + 1)),
            preamble_len=int(rng.integers(1, 9)), max_delay=int(rng.integers(3)),
            num_antennas=int(rng.choice([1, 2, 4, 16, 64])),
            tx_power_dbm=power,
        )
        preambles, _, st = make_scenario(config, seed)
        yield config, preambles, st
    # at 23 dBm, fit_factor once rejected seed 3's rank-one draw here as
    # not positive semidefinite
    config = make_config(
        num_devices=6, num_active=1, preamble_len=2, max_delay=0, num_antennas=1,
        tx_power_dbm=power,
    )
    preambles, _, st = make_scenario(config, 3)
    yield config, preambles, st
    # one-symbol preambles and S = 3 I: each delay column is one axis, so
    # the first sweep's visits to devices 0 and 1 find delays that tie
    # exactly, and only the tie rule picks among them
    config = make_config(
        num_devices=2 * likelihood.WINDOW + 1, num_active=0, preamble_len=1, max_delay=2,
        tx_power_dbm=power,
    )
    yield config, make_scenario(config, 0)[0], 3.0 * np.eye(config.window_len)


def check_whole_run(runner, system, config, preambles, st, tolerance):
    """Run ``runner`` and ``oracle.reference_run`` on one system, both at
    ``detect.CONVERGENCE_DELTA``; assert that they agree on the sweep
    count, on the declared pairs once the reference's estimate has gone
    through the detector's keep-max and threshold, and on the objective
    trace. Returns the detector's sweeps."""
    block = runner is run_bcd
    result = runner(preambles, st, config)
    gamma, trace = oracle.reference_run(
        preambles, st, config.sigma2, config.num_delays, detect.CONVERGENCE_DELTA, block
    )
    estimate = (
        threshold(gamma, detect.THRESHOLD_BCD) if block
        else threshold(enforce_block_sparsity(gamma), detect.THRESHOLD_CD)
    )
    where = f"{runner.__name__} on system {system}, {config}"
    assert result.iterations == trace.size - 1, where
    assert result.theta_hat == to_indicators(estimate), where
    np.testing.assert_allclose(result.objective_trace, trace, rtol=tolerance, atol=0, err_msg=where)
    return result.iterations


@pytest.mark.parametrize(
    "power, delta, tolerance", WHOLE_RUN_SETTINGS.values(), ids=WHOLE_RUN_SETTINGS
)
def test_whole_runs_match_the_dense_reference(power, delta, tolerance, monkeypatch):
    # run by run, each detector agrees with oracle.reference_run, and
    # bcd's estimate is block-sparse after every pass
    monkeypatch.setattr(detect, "CONVERGENCE_DELTA", delta)
    block_sweep = likelihood.block_sweep
    audits = []

    def audited(inv, factor_h, plan, gamma, objective):
        objective = block_sweep(inv, factor_h, plan, gamma, objective)
        audits.append(int(np.count_nonzero(gamma, axis=1).max()))
        return objective

    monkeypatch.setattr(likelihood, "block_sweep", audited)
    bcd_sweeps = 0
    for index, (config, preambles, st) in enumerate(whole_run_systems(power)):
        check_whole_run(run_cd_e, index, config, preambles, st, tolerance)
        bcd_sweeps += check_whole_run(run_bcd, index, config, preambles, st, tolerance)
    assert len(audits) == bcd_sweeps
    assert max(audits) <= 1


def windowed_systems(power):
    """``(seed, config, preambles, sample covariance)`` of two systems at
    D = ``COLUMN_WINDOW_DIM``, at tau_max 2 and 0 (the form cd_e_sync
    runs), each with two full column windows and a short one."""
    width = likelihood.COLUMN_WINDOW
    for seed, (max_delay, num_devices, num_active, num_antennas) in enumerate(
        [(2, 2 * width // 3 + 2, 6, 16), (0, 2 * width + 5, 10, 4)]
    ):
        config = make_config(
            num_devices=num_devices, num_active=num_active,
            preamble_len=likelihood.COLUMN_WINDOW_DIM - max_delay, max_delay=max_delay,
            num_antennas=num_antennas, tx_power_dbm=power,
        )
        assert 2 * width < config.num_devices * config.num_delays < 3 * width
        preambles, _, st = make_scenario(config, seed)
        yield seed, config, preambles, st


@pytest.mark.parametrize(
    "power, delta, tolerance", WHOLE_RUN_SETTINGS.values(), ids=WHOLE_RUN_SETTINGS
)
def test_windowed_column_passes_match_the_dense_reference(power, delta, tolerance, monkeypatch):
    # at D = COLUMN_WINDOW_DIM, cd_e's passes take their columns in windows
    # of COLUMN_WINDOW
    monkeypatch.setattr(detect, "CONVERGENCE_DELTA", delta)
    for system in windowed_systems(power):
        check_whole_run(run_cd_e, *system, tolerance)


@pytest.mark.parametrize(
    "power, delta, tolerance", WHOLE_RUN_SETTINGS.values(), ids=WHOLE_RUN_SETTINGS
)
def test_windowed_block_passes_match_the_dense_reference(power, delta, tolerance, monkeypatch):
    # at D = COLUMN_WINDOW_DIM, bcd's Sigma^-1 takes each window's commits
    # at the window's end
    monkeypatch.setattr(detect, "CONVERGENCE_DELTA", delta)
    for system in windowed_systems(power):
        check_whole_run(run_bcd, *system, tolerance)


# the contract both detectors keep


@pytest.mark.parametrize("runner, seed", [(run_cd_e, 0), (run_bcd, 0)])
def test_pure_noise_detects_nothing(runner, seed):
    config = make_config()
    preambles = make_scenario(config, seed)[0]
    noise_cov = config.sigma2 * np.eye(config.window_len)
    result = runner(preambles, noise_cov, config)
    assert result.theta_hat == frozenset()
    assert not result.gamma_hat.any()
    assert result.iterations == 1


@pytest.mark.parametrize("runner, seed", [(run_cd_e, 42), (run_bcd, 42)])
def test_high_snr_exact_recovery(runner, seed):
    config = make_config(num_antennas=256)
    preambles, truth, st = make_scenario(config, seed)
    result = runner(preambles, st, config)
    assert result.theta_hat == truth.pairs


@pytest.mark.parametrize("runner, seed", [(run_cd_e, 15), (run_bcd, 23)])
def test_sweep_cap_enforced(runner, seed, monkeypatch):
    monkeypatch.setattr(detect, "MAX_SWEEPS", 1)
    config = make_config(num_antennas=64)
    preambles, _, st = make_scenario(config, seed)
    with pytest.raises(ConvergenceError, match="1 sweeps"):
        runner(preambles, st, config)


# each runner's threshold, by its detect constant's name in lower case
@pytest.mark.parametrize(
    "runner, seed, name", [(run_cd_e, 9, "threshold_cd"), (run_bcd, 25, "threshold_bcd")]
)
def test_estimate_is_block_sparse_and_thresholded(runner, seed, name):
    config = make_config(num_antennas=8)
    preambles, _, st = make_scenario(config, seed)
    result = runner(preambles, st, config)
    assert np.count_nonzero(result.gamma_hat, axis=1).max() <= 1
    survivors = result.gamma_hat[result.gamma_hat > 0]
    assert np.all(survivors >= getattr(detect, name.upper()))


@pytest.mark.parametrize("num_active", [12, 16])
@pytest.mark.parametrize("runner", [run_cd_e, run_bcd])
def test_more_active_devices_than_window_samples(runner, num_active):
    # the covariance fit identifies K > D active devices as M grows, the
    # regime of the paper's claim: D = 8 + 2 = 10 here. Over seeds 0-399
    # in blocks of 20, both detectors' mean MDP read 0.113-0.344 at M=64
    # and 0.000-0.059 at M=512, and FAP at M=512 at most 0.0088; the
    # bounds assert on seeds 0-39. No order between the detectors is pinned
    def rates(num_antennas):
        config = make_config(
            num_devices=50, num_active=num_active, preamble_len=8, max_delay=2,
            num_antennas=num_antennas, tx_power_dbm=23.0,
        )
        assert config.window_len < num_active
        mdp, fap = [], []
        for seed in range(40):
            preambles, truth, st = make_scenario(config, seed)
            result = runner(preambles, st, config)
            mdp.append(compute_mdp(result, truth))
            fap.append(compute_fap(result, truth, config.num_devices))
        return np.mean(mdp), np.mean(fap)

    mdp_64, _ = rates(64)
    mdp_512, fap_512 = rates(512)
    assert mdp_64 >= 0.1
    assert mdp_512 <= 0.08
    assert fap_512 <= 0.02
