"""Scenario generation: preambles, truth, received signal, covariance."""

import copy

import numpy as np
import pytest

from conftest import make_config, make_scenario, make_truth
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


class TestSynthesizeReceivedSignal:
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

    def test_reproducible_from_seed(self):
        config = make_config()
        a = make_scenario(config, seed=77)[2]
        b = make_scenario(config, seed=77)[2]
        np.testing.assert_array_equal(a, b)

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

