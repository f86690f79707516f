"""Domain types, validation, and config parsing."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_config
from covdet.sysmodel import (
    ConfigError,
    DetectionResult,
    GammaEstimate,
    GroundTruth,
    config_from_dict,
    validate,
)


class TestSystemConfig:
    def test_full_scale_config_is_valid(self):
        config = make_config(
            num_devices=200, num_active=90, preamble_len=100, max_delay=4
        )
        assert validate(config) is config

    def test_window_and_delay_counts(self):
        config = make_config(preamble_len=100, max_delay=4)
        assert config.window_len == 104
        assert config.num_delays == 5

    def test_noise_power_combines_psd_and_bandwidth(self):
        config = make_config(noise_psd_dbm_hz=-169.0, bandwidth_hz=1e7)
        assert config.noise_power_dbm == pytest.approx(-99.0)

    def test_path_loss_model(self):
        assert make_config(cell_distance_km=1.0).path_loss_db == pytest.approx(128.1)
        assert make_config(cell_distance_km=10.0).path_loss_db == pytest.approx(
            128.1 + 37.6
        )

    def test_cell_edge_gain_normalization(self):
        # worst-case link budget: 23 dBm - 128.1 dB path loss over a
        # -99 dBm noise floor, all folded into the gain so sigma2 is 1
        config = make_config()
        expected = 10.0 ** ((23.0 - 128.1 + 99.0) / 10.0)
        assert config.cell_edge_gain == pytest.approx(expected, rel=1e-12)
        assert config.sigma2 == 1.0

    def test_active_exceeding_devices_rejected(self):
        with pytest.raises(ConfigError, match="num_active exceeds num_devices"):
            validate(make_config(num_devices=10, num_active=11))

    def test_zero_preamble_len_rejected(self):
        with pytest.raises(ConfigError, match="preamble_len must be positive"):
            validate(make_config(preamble_len=0))

    def test_negative_max_delay_rejected(self):
        with pytest.raises(ConfigError, match="max_delay"):
            validate(make_config(max_delay=-1))

    def test_nonpositive_tuning_rejected(self):
        with pytest.raises(ConfigError, match="convergence_delta"):
            validate(make_config(convergence_delta=0.0))
        with pytest.raises(ConfigError, match="threshold_cd"):
            validate(make_config(threshold_cd=0.0))
        with pytest.raises(ConfigError, match="threshold_bcd"):
            validate(make_config(threshold_bcd=-0.1))

    def test_zero_active_needs_optin(self):
        config = make_config(num_active=0)
        with pytest.raises(ConfigError, match="num_active"):
            validate(config)
        assert validate(config, allow_inactive=True) is config

    def test_non_integer_count_rejected(self):
        config = dataclasses.replace(make_config(), num_antennas=4.0)
        with pytest.raises(ConfigError, match="num_antennas must be an integer"):
            validate(config)


class TestConfigSerialization:
    def test_dict_round_trip(self):
        config = make_config()
        assert config_from_dict(dataclasses.asdict(config)) == config

    def test_unknown_key_rejected(self):
        data = dataclasses.asdict(make_config())
        data["snr_db"] = 10
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(data)

    def test_missing_key_rejected(self):
        data = dataclasses.asdict(make_config())
        del data["bandwidth_hz"]
        with pytest.raises(ConfigError, match="missing config keys"):
            config_from_dict(data)

    def test_bool_rejected_for_numeric_field(self):
        data = dataclasses.asdict(make_config())
        data["num_antennas"] = True
        with pytest.raises(ConfigError, match="num_antennas"):
            config_from_dict(data)


class TestGroundTruth:
    def test_active_set_is_sorted(self):
        truth = GroundTruth(
            active=np.array([5, 1, 3]),
            delays={1: 0, 3: 2, 5: 1},
            gains=np.ones(8),
        )
        assert truth.active.tolist() == [1, 3, 5]
        assert truth.num_active == 3
        assert truth.pairs == {(1, 0), (3, 2), (5, 1)}

    def test_delay_keys_must_match_active(self):
        with pytest.raises(ValueError, match="delays"):
            GroundTruth(active=np.array([1, 2]), delays={1: 0}, gains=np.ones(4))

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="gains"):
            GroundTruth(active=np.array([0]), delays={0: 0}, gains=np.zeros(2))

    def test_empty_active_set_allowed(self):
        truth = GroundTruth(active=np.array([]), delays={}, gains=np.ones(3))
        assert truth.num_active == 0
        assert truth.pairs == frozenset()


class TestGammaEstimate:
    def test_zeros_shape(self):
        gamma = GammaEstimate.zeros(num_devices=5, max_delay=3)
        assert gamma.values.shape == (5, 4)
        assert gamma.num_devices == 5
        assert gamma.num_delays == 4

    def test_block_sparsity_predicate(self):
        sparse = GammaEstimate(np.array([[0.0, 0.3], [0.0, 0.0]]))
        dense = GammaEstimate(np.array([[0.1, 0.3], [0.0, 0.0]]))
        assert sparse.is_block_sparse()
        assert not dense.is_block_sparse()
        assert dense.nonzeros_per_device().tolist() == [2, 0]

    def test_support_pairs(self):
        gamma = GammaEstimate(np.array([[0.0, 0.5], [0.0, 0.0], [0.2, 0.0]]))
        assert gamma.support() == {(0, 1), (2, 0)}

    def test_copy_is_independent(self):
        gamma = GammaEstimate.zeros(2, 1)
        clone = gamma.copy()
        clone.values[0, 0] = 1.0
        assert gamma.values[0, 0] == 0.0

    def test_one_dimensional_values_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            GammaEstimate(np.zeros(4))


class TestDetectionResult:
    def test_holds_fields(self):
        gamma = GammaEstimate.zeros(4, 2)
        result = DetectionResult(
            theta_hat=frozenset({(0, 1), (2, 0)}),
            gamma_hat=gamma,
            iterations=7,
            final_objective=-1.5,
        )
        assert result.iterations == 7
        assert result.objective_trace.size == 0

    def test_duplicate_device_rejected(self):
        with pytest.raises(ValueError, match="more than one delay"):
            DetectionResult(
                theta_hat=frozenset({(0, 1), (0, 2)}),
                gamma_hat=GammaEstimate.zeros(2, 2),
                iterations=1,
                final_objective=0.0,
            )
