"""Domain types, validation, config parsing and the synchronous system.

``test_wrong_type_rejected_before_any_range`` owns every field's type rule,
through the constructor and ``config_from_dict`` alike.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import CONFIGS, DEFAULTS, make_config, make_truth, shipped, window_edge_dbm
from covdet import cli
from covdet.sysmodel import (
    ConfigError,
    GroundTruth,
    config_from_dict,
    synchronous_config,
    validate,
)


class TestSystemConfig:
    @pytest.mark.parametrize("study", [path.stem for path in sorted(CONFIGS.glob("*.json"))])
    def test_full_scale_config_is_valid(self, study):
        # every shipped experiment file builds on the current schema
        config = shipped(study).base
        assert validate(config) is config

    def test_window_and_delay_counts(self):
        config = make_config(preamble_len=100, max_delay=4)
        assert config.window_len == 104
        assert config.num_delays == 5

    def test_cell_edge_gain_normalization(self):
        # worst-case link budget: 23 dBm - 128.1 dB path loss over a
        # -99 dBm noise floor, all folded into the gain so sigma2 is 1
        config = make_config()
        expected = 10.0 ** ((23.0 - 128.1 + 99.0) / 10.0)
        assert config.cell_edge_gain == expected
        assert config.sigma2 == 1.0

    def test_active_exceeding_devices_rejected(self):
        with pytest.raises(ConfigError, match="num_active exceeds num_devices"):
            make_config(num_devices=10, num_active=11)

    def test_zero_preamble_len_rejected(self):
        with pytest.raises(ConfigError, match="preamble_len must be positive"):
            make_config(preamble_len=0)

    def test_negative_max_delay_rejected(self):
        with pytest.raises(ConfigError, match="max_delay"):
            make_config(max_delay=-1)

    def test_negative_seed_rejected(self):
        # numpy's generators take only non-negative seeds
        make_config(rng_seed=0)
        with pytest.raises(ConfigError, match="rng_seed must be non-negative, got -3"):
            make_config(rng_seed=-3)

    def test_zero_active_is_valid(self):
        # K=0 measures false alarms on pure noise
        assert make_config(num_active=0).num_active == 0
        with pytest.raises(ConfigError, match="num_active must be non-negative"):
            make_config(num_active=-1)

    @pytest.mark.parametrize("field", ["tx_power_dbm"])
    @pytest.mark.parametrize(
        "bad", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="huge-int")]
    )
    def test_non_finite_float_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"{field}"):
            make_config(**{field: bad})

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(tx_power_dbm=4000.0),
            dict(tx_power_dbm=1e308),
            dict(tx_power_dbm=-4000.0),  # underflows to a zero gain
            dict(tx_power_dbm=3000.0),  # finite, but sigma2 is lost in Sigma
            # 0.01 dB past the edge, with a delay budget and without one
            dict(tx_power_dbm=window_edge_dbm(make_config()) + 0.01),
            dict(max_delay=0, tx_power_dbm=window_edge_dbm(make_config(max_delay=0)) + 0.01),
        ],
        ids=["tx-4000", "tx-1e308", "tx-minus-4000", "tx-3000",
             "window-edge", "window-edge-no-delay"],
    )
    def test_out_of_range_power_rejected(self, overrides):
        with pytest.raises(ConfigError, match=r"cell_edge_gain \* window_len below 1/eps"):
            make_config(**overrides)

    @pytest.mark.parametrize("field", list(DEFAULTS))
    @pytest.mark.parametrize(
        "bad", ["3", None, True, math.nan], ids=["str", "None", "bool", "nan"]
    )
    def test_wrong_type_rejected_before_any_range(self, field, bad):
        # a type check after the range comparisons let "3" and None raise a
        # bare TypeError, and let True pass as 1
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            make_config(**{field: bad})
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            config_from_dict({**DEFAULTS, field: bad})


class TestSynchronousConfig:
    def test_window_preserved(self):
        sync = synchronous_config(make_config(preamble_len=16, max_delay=2))
        assert (sync.preamble_len, sync.max_delay, sync.window_len) == (18, 0, 18)

    def test_other_fields_untouched(self):
        sync = synchronous_config(make_config())
        assert dataclasses.replace(sync, preamble_len=16, max_delay=2) == make_config()

    def test_built_once_per_base_config(self):
        config = make_config()
        assert synchronous_config(config) is synchronous_config(config)
        # the runner and perfbench call it through covdet.cli: the same
        # function, so one cache
        assert cli.synchronous_config is synchronous_config

    @pytest.mark.parametrize(
        "system", [shipped("desk").base, shipped("full").base, make_config()],
        ids=["desk", "full", "defaults"],
    )
    def test_valid_system_has_a_valid_benchmark(self, system):
        # validate once bounded gain * preamble_len: from the window's edge to
        # the preamble's, a system was valid and its synchronous benchmark not
        edge = window_edge_dbm(system)
        synchronous_config(dataclasses.replace(system, tx_power_dbm=edge - 0.01))
        with pytest.raises(ConfigError, match=r"cell_edge_gain \* window_len below 1/eps"):
            dataclasses.replace(system, tx_power_dbm=edge + 0.01)


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
        del data["tx_power_dbm"]
        with pytest.raises(ConfigError, match="missing config keys"):
            config_from_dict(data)


class TestGroundTruth:
    def test_active_set_is_sorted(self):
        # delays filled out of order still give an ascending active set
        truth = make_truth([(5, 1), (1, 0), (3, 2)])
        assert list(truth.delays) == [5, 1, 3]
        assert truth.active.tolist() == [1, 3, 5]
        assert truth.active.dtype == np.int64
        assert truth.num_active == 3
        assert truth.pairs == {(1, 0), (3, 2), (5, 1)}

    def test_empty_active_set_allowed(self):
        truth = make_truth([])
        assert truth.num_active == 0
        assert truth.active.size == 0
        assert truth.pairs == frozenset()

    @pytest.mark.parametrize(
        "delays",
        [{0: 1.5}, {1.5: 0}, {0: True}, {0: 1, 1: True}, {True: 0}],
        ids=["delay", "device", "bool-delay", "bool-delay-among-ints", "bool-device"],
    )
    def test_non_integer_pair_rejected(self, delays):
        # a delay of 1.5 once synthesized the delay-1 window while ``pairs``
        # kept (0, 1.5); a device of 1.5 became active device 1, and
        # synthesis then failed with a bare KeyError(1); a device of True
        # became active device 1 while ``pairs`` kept (True, 0)
        with pytest.raises(ValueError, match="must be integers"):
            GroundTruth(delays)

    def test_numpy_integer_pair_accepted(self):
        truth = GroundTruth({np.int64(2): np.int32(1), 0: np.uint8(0)})
        assert truth.active.tolist() == [0, 2]
        assert truth.pairs == {(0, 0), (2, 1)}
