"""Scenario generation: preambles, truth, received signal, covariance."""

import numpy as np
import pytest

from conftest import make_config, make_scenario
from covdet.siggen import (
    complex_gaussian,
    draw_ground_truth,
    effective_dictionary,
    effective_sequence,
    generate_preambles,
    sample_covariance,
    synthesize_received_signal,
)
from covdet.sysmodel import GroundTruth


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


class TestEffectiveSequence:
    def test_zero_delay_pads_tail(self):
        seq = np.array([1 + 2j, 3 - 1j])
        out = effective_sequence(seq, delay=0, max_delay=2)
        assert out.tolist() == [1 + 2j, 3 - 1j, 0, 0]

    def test_max_delay_pads_head(self):
        seq = np.array([1 + 2j, 3 - 1j])
        out = effective_sequence(seq, delay=2, max_delay=2)
        assert out.tolist() == [0, 0, 1 + 2j, 3 - 1j]

    def test_middle_delay_pads_both(self):
        seq = np.array([1 + 2j, 3 - 1j])
        out = effective_sequence(seq, delay=1, max_delay=2)
        assert out.tolist() == [0, 1 + 2j, 3 - 1j, 0]

    def test_norm_preserved_for_every_delay(self):
        rng = np.random.default_rng(3)
        seq = complex_gaussian(rng, (9,))
        for delay in range(4):
            out = effective_sequence(seq, delay, max_delay=3)
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(seq))

    def test_delay_out_of_range(self):
        seq = np.ones(4, dtype=complex)
        with pytest.raises(ValueError, match="delay"):
            effective_sequence(seq, delay=3, max_delay=2)
        with pytest.raises(ValueError, match="delay"):
            effective_sequence(seq, delay=-1, max_delay=2)


class TestEffectiveDictionary:
    def test_columns_are_delayed_signatures(self):
        config = make_config(num_devices=5, preamble_len=7, max_delay=2)
        preambles = generate_preambles(config, np.random.default_rng(4))
        dictionary = effective_dictionary(preambles, config.max_delay)
        assert dictionary.shape == (9, 15)
        for n in range(5):
            for tau in range(3):
                expected = effective_sequence(preambles[:, n], tau, 2)
                np.testing.assert_array_equal(dictionary[:, n * 3 + tau], expected)


class TestDrawGroundTruth:
    def test_all_devices_share_cell_edge_gain(self):
        config = make_config()
        truth = draw_ground_truth(config, np.random.default_rng(5))
        assert np.all(truth.gains == config.cell_edge_gain)

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


class TestSynthesizeReceivedSignal:
    def test_no_active_devices_no_noise_gives_zero(self):
        config = make_config(num_active=0)
        truth = GroundTruth(
            active=np.array([]), delays={}, gains=np.ones(config.num_devices)
        )
        rng = np.random.default_rng(9)
        preambles = generate_preambles(config, rng)
        received = synthesize_received_signal(
            preambles, truth, config, rng, noise_variance=0.0
        )
        assert received.shape == (config.window_len, config.num_antennas)
        assert np.all(received == 0)

    def test_single_device_unit_channel_noiseless(self):
        config = make_config(num_devices=3, num_active=1, num_antennas=1, max_delay=2)
        rng = np.random.default_rng(10)
        preambles = generate_preambles(config, rng)
        truth = GroundTruth(
            active=np.array([1]), delays={1: 2}, gains=np.full(3, 0.25)
        )
        received = synthesize_received_signal(
            preambles, truth, config, rng, channels=np.array([[1.0]]), noise_variance=0.0
        )
        expected = 0.5 * effective_sequence(preambles[:, 1], 2, 2)
        np.testing.assert_allclose(received[:, 0], expected, atol=1e-14)

    def test_mean_energy_matches_expectation(self):
        # E||Y||_F^2 = M*L*beta + M*(L+tau_max)*sigma2 with beta=1, sigma2=1,
        # the expectation taken over preambles, channels, and noise alike
        config = make_config(num_devices=4, num_active=1, preamble_len=32,
                             max_delay=4, num_antennas=8)
        rng = np.random.default_rng(11)
        truth = GroundTruth(active=np.array([2]), delays={2: 1}, gains=np.ones(4))
        total = 0.0
        draws = 4000
        for _ in range(draws):
            preambles = generate_preambles(config, rng)
            received = synthesize_received_signal(preambles, truth, config, rng)
            total += np.sum(np.abs(received) ** 2)
        expected = 8 * 32 + 8 * 36
        assert total / draws == pytest.approx(expected, rel=0.02)

    def test_reproducible_from_seed(self):
        config = make_config()
        a = make_scenario(config, seed=77)[2].matrix
        b = make_scenario(config, seed=77)[2].matrix
        np.testing.assert_array_equal(a, b)

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
        assert np.all(sample_covariance(received).matrix == 0)

    def test_single_snapshot_rank_one(self):
        rng = np.random.default_rng(13)
        y = complex_gaussian(rng, (6, 1))
        cov = sample_covariance(y).matrix
        np.testing.assert_allclose(cov, np.outer(y[:, 0], y[:, 0].conj()), atol=1e-14)

    def test_non_finite_received_signal_rejected(self):
        received = complex_gaussian(np.random.default_rng(15), (6, 4))
        received[2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            sample_covariance(received)

    def test_hermitian_psd(self):
        config = make_config()
        cov = make_scenario(config, seed=14)[2].matrix
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_error_halves_when_antennas_quadruple(self):
        from covdet import likelihood
        from covdet.sysmodel import GammaEstimate

        config = make_config(num_devices=4, num_active=2, preamble_len=8, max_delay=2)
        errors = []
        for m in (64, 256, 1024):
            cfg = make_config(
                num_devices=4, num_active=2, preamble_len=8, max_delay=2, num_antennas=m
            )
            ratios = []
            for seed in (101, 102, 103):
                preambles, truth, st = make_scenario(cfg, seed)
                gamma = GammaEstimate.zeros(4, 2)
                for n, tau in truth.pairs:
                    gamma.values[n, tau] = truth.gains[n]
                true_cov = likelihood.assemble_covariance(preambles, gamma, cfg.sigma2)
                ratios.append(
                    np.linalg.norm(st.matrix - true_cov) / np.linalg.norm(true_cov)
                )
            errors.append(np.mean(ratios))
        assert 0.3 < errors[1] / errors[0] < 0.7
        assert 0.3 < errors[2] / errors[1] < 0.7

