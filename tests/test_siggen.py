"""Scenario generation: preambles, truth, received signal, covariance.

Gate criterion 8 alone checks that a seed reproduces its scenario.
"""

import copy

import numpy as np
import pytest

from conftest import make_config, make_scenario, make_truth
from covdet.detect import run_bcd, run_cd_e
from covdet.siggen import (
    complex_gaussian,
    draw_ground_truth,
    effective_dictionary,
    generate_preambles,
    sample_covariance,
    synthesize_received_signal,
)


class TestComplexGaussian:
    def test_moments(self):
        rng = np.random.default_rng(0)
        draws = complex_gaussian(rng, (1000, 1000))
        assert abs(np.mean(draws)) < 0.01
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.01)

    def test_variance_splits_between_components(self):
        rng = np.random.default_rng(1)
        draws = complex_gaussian(rng, (500, 500), variance=4.0)
        assert np.var(draws.real) == pytest.approx(2.0, rel=0.02)
        assert np.var(draws.imag) == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize(
        "shape, variance", [((6, 4), 1.0), ((30, 50), 1.0), ((0, 4), 1.0), ((7,), 2.5)]
    )
    def test_bytes_match_the_two_draw_formula(self, shape, variance):
        # the reference is scale * (a + 1j*b) from a twin generator, with
        # the real block drawn first; both generators end in the same state
        for seed in range(5):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = complex_gaussian(rng, shape, variance)
            expected = np.sqrt(variance / 2.0) * (
                twin.standard_normal(shape) + 1j * twin.standard_normal(shape)
            )
            assert draws.shape == expected.shape and draws.dtype == np.complex128
            assert draws.flags.c_contiguous
            assert draws.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state


class TestGeneratePreambles:
    def test_dimensions(self):
        config = make_config(num_devices=200, preamble_len=100)
        preambles = generate_preambles(config, np.random.default_rng(0))
        assert preambles.shape == (100, 200)

    def test_unit_variance_zero_mean(self):
        config = make_config(num_devices=1000, preamble_len=1000)
        preambles = generate_preambles(config, np.random.default_rng(2))
        assert abs(np.mean(preambles)) < 0.01
        assert np.mean(np.abs(preambles) ** 2) == pytest.approx(1.0, abs=0.01)


class TestEffectiveDictionary:
    def test_columns_are_delayed_signatures(self):
        config = make_config(num_devices=5, preamble_len=7, max_delay=2)
        preambles = generate_preambles(config, np.random.default_rng(4))
        dictionary = effective_dictionary(preambles, config.max_delay)
        assert dictionary.shape == (9, 15)
        for n in range(5):
            for tau in range(3):
                expected = np.zeros(9, dtype=complex)
                expected[tau : tau + 7] = preambles[:, n]
                np.testing.assert_array_equal(dictionary[:, n * 3 + tau], expected)
        assert dictionary.flags.f_contiguous

    @pytest.mark.parametrize(
        "max_delay", [-1, True, 1.0, np.int64(1), None],
        ids=["negative", "bool", "float", "numpy-int", "none"],
    )
    def test_bad_max_delay_rejected(self, max_delay):
        with pytest.raises(ValueError, match="max_delay must be a non-negative integer"):
            effective_dictionary(np.ones((4, 3), dtype=complex), max_delay)

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 3), ()], ids=["1-d", "3-d", "0-d"])
    def test_non_2d_preambles_rejected(self, shape):
        with pytest.raises(ValueError, match="preambles must be 2-D"):
            effective_dictionary(np.ones(shape, dtype=complex), 1)


class TestDrawGroundTruth:
    def test_all_devices_share_cell_edge_gain(self):
        # with the channel and noise draws replayed, the window less its
        # noise is every active device's delayed signature scaled by
        # sqrt(cell_edge_gain)
        config = make_config(num_active=4, num_antennas=3)
        rng = np.random.default_rng(5)
        preambles = generate_preambles(config, rng)
        truth = draw_ground_truth(config, rng)
        replay = copy.deepcopy(rng)
        received = synthesize_received_signal(preambles, truth, config, rng)
        channels = complex_gaussian(replay, (truth.num_active, config.num_antennas))
        noise = complex_gaussian(
            replay, (config.window_len, config.num_antennas), variance=config.sigma2
        )
        dictionary = effective_dictionary(preambles, config.max_delay)
        picked = [n * config.num_delays + tau for n, tau in sorted(truth.pairs)]
        signal = np.sqrt(config.cell_edge_gain) * dictionary[:, picked] @ channels
        np.testing.assert_allclose(received - noise, signal, rtol=1e-12, atol=1e-12)

    def test_matches_the_dict_of_numpy_draws(self):
        # the reference converts each drawn numpy integer with int()
        config = make_config(num_devices=20, num_active=7)
        for seed in range(5):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            truth = draw_ground_truth(config, rng)
            active = np.sort(twin.choice(20, size=7, replace=False))
            drawn = twin.integers(0, config.num_delays, size=7)
            assert truth.delays == {int(n): int(tau) for n, tau in zip(active, drawn)}
            assert all(type(n) is int and type(tau) is int for n, tau in truth.delays.items())

    def test_full_activity_when_k_equals_n(self):
        config = make_config(num_devices=6, num_active=6)
        truth = draw_ground_truth(config, np.random.default_rng(6))
        assert truth.active.tolist() == [0, 1, 2, 3, 4, 5]

    def test_active_set_unique_and_in_range(self):
        config = make_config(num_devices=20, num_active=7)
        for seed in range(20):
            truth = draw_ground_truth(config, np.random.default_rng(seed))
            assert len(set(truth.active.tolist())) == 7
            assert truth.active.min() >= 0 and truth.active.max() < 20

    def test_delays_uniform(self):
        # 2e4 draws x K=5 gives 1e5 delay samples
        config = make_config(num_devices=10, num_active=5, max_delay=4)
        rng = np.random.default_rng(7)
        counts = np.zeros(5)
        for _ in range(20000):
            truth = draw_ground_truth(config, rng)
            for tau in truth.delays.values():
                counts[tau] += 1
        freq = counts / counts.sum()
        np.testing.assert_allclose(freq, 0.2, atol=0.01)


def replay_draws(config, truth, seed):
    """The channel and noise draws of ``synthesize_received_signal`` on a
    generator seeded with ``seed`` that has drawn the preambles: channels
    for the active devices in ascending order, then the noise block."""
    rng = np.random.default_rng(seed)
    generate_preambles(config, rng)
    channels = complex_gaussian(rng, (truth.num_active, config.num_antennas))
    noise = complex_gaussian(
        rng, (config.window_len, config.num_antennas), variance=config.sigma2
    )
    return channels, noise


def synthesize_by_dictionary_pick(preambles, truth, config, rng):
    """The received window as it was first built: the active devices'
    whole effective dictionary, from which each device's column at its
    delay is picked into a C-ordered block."""
    delays = np.array([truth.delays[int(n)] for n in truth.active], dtype=np.int64)
    channels = complex_gaussian(rng, (truth.num_active, config.num_antennas))
    dictionary = effective_dictionary(preambles[:, truth.active], config.max_delay)
    picked = np.arange(truth.num_active) * config.num_delays + delays
    columns = np.ascontiguousarray(dictionary[:, picked])
    signal = (columns * np.sqrt(config.cell_edge_gain)) @ channels
    noise = complex_gaussian(
        rng, (config.window_len, config.num_antennas), variance=config.sigma2
    )
    return signal + noise


class TestSynthesizeReceivedSignal:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"num_active": 0},
            {"num_devices": 6, "num_active": 6},
            {"max_delay": 0},
            {"num_devices": 50, "num_active": 10, "preamble_len": 30, "num_antennas": 4},
        ],
        ids=["default", "k-zero", "k-equals-n", "no-delay", "desk-m4"],
    )
    def test_bytes_match_the_dictionary_pick(self, overrides):
        config = make_config(**overrides)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            preambles = generate_preambles(config, rng)
            truth = draw_ground_truth(config, rng)
            twin = copy.deepcopy(rng)
            received = synthesize_received_signal(preambles, truth, config, rng)
            expected = synthesize_by_dictionary_pick(preambles, truth, config, twin)
            assert received.flags.c_contiguous
            assert received.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("device", [-1, 3])
    def test_device_out_of_range(self, device):
        # a negative device must not wrap around to the last preamble, and
        # the check runs before the generator draws anything
        config = make_config(num_devices=3, num_active=1)
        rng = np.random.default_rng(12)
        preambles = generate_preambles(config, rng)
        state = copy.deepcopy(rng.bit_generator.state)
        truth = make_truth([(device, 0)])
        with pytest.raises(ValueError, match=rf"active devices \[{device}\] outside \[0, 3\)"):
            synthesize_received_signal(preambles, truth, config, rng)
        assert rng.bit_generator.state == state

    def test_no_active_devices_no_noise_gives_zero(self):
        # with the noise draw replayed and taken out, nothing is left
        config = make_config(num_active=0)
        truth = make_truth([])
        rng = np.random.default_rng(9)
        preambles = generate_preambles(config, rng)
        received = synthesize_received_signal(preambles, truth, config, rng)
        noise = replay_draws(config, truth, seed=9)[1]
        assert received.shape == (config.window_len, config.num_antennas)
        assert np.all(received - noise == 0)

    def test_single_device_replays_generator(self):
        # the window is the delayed signature through the replayed channel
        # draw plus the replayed noise draw, bit for bit; this also pins the
        # draw order (channels, then noise)
        config = make_config(num_devices=3, num_active=1, num_antennas=4, max_delay=2)
        truth = make_truth([(1, 2)])
        rng = np.random.default_rng(10)
        preambles = generate_preambles(config, rng)
        received = synthesize_received_signal(preambles, truth, config, rng)
        channels, noise = replay_draws(config, truth, seed=10)
        delayed = np.zeros((config.window_len, 1), dtype=complex)
        delayed[2:, 0] = preambles[:, 1]
        scaled = np.sqrt(config.cell_edge_gain) * delayed
        np.testing.assert_array_equal(received, scaled @ channels + noise)

    def test_mean_energy_matches_expectation(self):
        # E||Y||_F^2 = M*L*beta + M*(L+tau_max)*sigma2 with beta the cell-edge
        # gain and sigma2=1, the expectation taken over preambles, channels,
        # and noise alike
        config = make_config(num_devices=4, num_active=1, preamble_len=32,
                             max_delay=4, num_antennas=8)
        rng = np.random.default_rng(11)
        truth = make_truth([(2, 1)])
        total = 0.0
        draws = 4000
        for _ in range(draws):
            preambles = generate_preambles(config, rng)
            received = synthesize_received_signal(preambles, truth, config, rng)
            total += np.sum(np.abs(received) ** 2)
        expected = 8 * 32 * config.cell_edge_gain + 8 * 36
        assert total / draws == pytest.approx(expected, rel=0.02)

    def test_delay_out_of_range(self):
        config = make_config(num_devices=3, num_active=1, max_delay=2)
        rng = np.random.default_rng(12)
        preambles = generate_preambles(config, rng)
        for delay in (3, -1):
            truth = make_truth([(1, delay)])
            with pytest.raises(ValueError, match="delay"):
                synthesize_received_signal(preambles, truth, config, rng)

    def test_dimension_mismatch_rejected(self):
        config = make_config()
        other = make_config(preamble_len=config.preamble_len + 1)
        rng = np.random.default_rng(12)
        preambles = generate_preambles(other, rng)
        truth = draw_ground_truth(config, rng)
        with pytest.raises(ValueError, match="preamble length"):
            synthesize_received_signal(preambles, truth, config, rng)


class TestSampleCovariance:
    def test_zero_signal(self):
        received = np.zeros((5, 3), dtype=complex)
        assert np.all(sample_covariance(received) == 0)

    def test_single_snapshot_rank_one(self):
        rng = np.random.default_rng(13)
        y = complex_gaussian(rng, (6, 1))
        cov = sample_covariance(y)
        np.testing.assert_allclose(cov, np.outer(y[:, 0], y[:, 0].conj()), atol=1e-14)

    def test_non_finite_received_signal_rejected(self):
        received = complex_gaussian(np.random.default_rng(15), (6, 4))
        received[2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            sample_covariance(received)
        # finite snapshots whose outer products overflow
        with pytest.raises(ValueError, match="NaN or Inf"):
            sample_covariance(1e200 * complex_gaussian(np.random.default_rng(15), (6, 4)))
        # a window that is not (window length, antennas)
        clean = complex_gaussian(np.random.default_rng(16), (6, 4))
        for bad in (clean[:, 0], clean[None]):
            with pytest.raises(ValueError, match=r"must be 2-D .* got shape"):
                sample_covariance(bad)

    def test_hermitian_psd(self):
        config = make_config()
        cov = make_scenario(config, seed=14)[2]
        np.testing.assert_array_equal(cov, cov.conj().T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    @pytest.mark.parametrize("shape", [(6, 1), (32, 4), (32, 64)])
    def test_bytes_match_the_two_temporaries_form(self, shape):
        # the reference averages (Y Y^H)/M with its conjugate transpose
        # through fresh arrays
        rng = np.random.default_rng(17)
        for _ in range(5):
            y = complex_gaussian(rng, shape)
            expected = (y @ y.conj().T) / y.shape[1]
            expected = (expected + expected.conj().T) / 2.0
            assert sample_covariance(y).tobytes() == expected.tobytes()

    def test_error_halves_when_antennas_quadruple(self):
        from covdet import likelihood

        config = make_config(num_devices=4, num_active=2, preamble_len=8, max_delay=2)
        errors = []
        for m in (64, 256, 1024):
            cfg = make_config(
                num_devices=4, num_active=2, preamble_len=8, max_delay=2, num_antennas=m
            )
            ratios = []
            for seed in (101, 102, 103):
                preambles, truth, st = make_scenario(cfg, seed)
                gamma = np.zeros((4, 3))
                for n, tau in truth.pairs:
                    gamma[n, tau] = cfg.cell_edge_gain
                true_cov = likelihood.assemble_covariance(
                    effective_dictionary(preambles, 2), gamma, cfg.sigma2
                )
                ratios.append(
                    np.linalg.norm(st - true_cov) / np.linalg.norm(true_cov)
                )
            errors.append(np.mean(ratios))
        assert 0.3 < errors[1] / errors[0] < 0.7
        assert 0.3 < errors[2] / errors[1] < 0.7


@pytest.mark.parametrize(
    "entry", ["effective_dictionary", "synthesize_received_signal", "run_cd_e", "run_bcd"]
)
def test_nested_list_preambles_give_the_array_bytes(entry):
    # a list once raised AttributeError on preambles.shape at every entry
    # point, while the detectors took the sample covariance as an array-like
    config = make_config(num_antennas=16)
    preambles, truth, st = make_scenario(config, 5)

    def outputs(p):
        if entry == "effective_dictionary":
            return [effective_dictionary(p, config.max_delay)]
        if entry == "synthesize_received_signal":
            return [synthesize_received_signal(p, truth, config, np.random.default_rng(5))]
        result = (run_cd_e if entry == "run_cd_e" else run_bcd)(p, st, config)
        return [result.gamma_hat, result.objective_trace]

    got, want = outputs(preambles.tolist()), outputs(preambles)
    assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]
