"""The system model: scenario config, link budget, ground truth, errors.

A ``SystemConfig`` is valid by construction: its ``__post_init__`` runs
``validate``, so the constructor, ``dataclasses.replace`` and
``config_from_dict`` all reject a bad system with a ``ConfigError``
before any draw, and no consumer re-checks one. Conventions:

- Device indices run 0..N-1 and delays 0..tau_max (all 0-based).
- Powers are normalized so that the working noise power is 1, which
  leaves the ML fit unchanged. Every device sits at the cell edge on the
  fixed link budget and shares its working-scale gain
  ``SystemConfig.cell_edge_gain``, so ``tx_power_dbm`` is the only power
  field and a ``GroundTruth`` is the active devices' delays alone.
- Complex Gaussian CN(0, v) means real and imaginary parts are
  independent N(0, v/2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

# the fixed link budget: the 3GPP macro-cell path loss
# 128.1 + 37.6 log10(d_km) at the 1 km cell edge [dB], and the noise power
# of -169 dBm/Hz over 10 MHz [dBm]
PATH_LOSS_DB = 128.1
NOISE_POWER_DBM = -99.0


class ConfigError(ValueError):
    """A scenario configuration violates one of its invariants."""


class NumericalDegeneracyError(ArithmeticError):
    """The tracked covariance state has become numerically unusable; a
    pass that raises it sets ``index`` to the column or device it visited."""

    index: int | None = None


class ConvergenceError(RuntimeError):
    """A detector exceeded its sweep cap without reaching the stop rule."""


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters for one detection setup.

    ``num_devices`` N share the access channel, ``num_active`` K of them at
    once (0 <= K <= N; K = 0 measures false alarms on pure noise, and its
    MDP is undefined). Each active device sends its signature of
    ``preamble_len`` L symbols at a delay of at most ``max_delay`` tau_max,
    so the observation window spans L + tau_max symbols, to
    ``num_antennas`` M receive antennas. ``tx_power_dbm`` is the
    per-device transmit power and ``rng_seed`` the base seed of all draws.
    """

    num_devices: int
    num_active: int
    preamble_len: int
    max_delay: int
    num_antennas: int
    tx_power_dbm: float
    rng_seed: int

    def __post_init__(self):
        validate(self)

    @property
    def window_len(self) -> int:
        """Observation window length L + tau_max."""
        return self.preamble_len + self.max_delay

    @property
    def num_delays(self) -> int:
        """Number of delay hypotheses per device, tau_max + 1."""
        return self.max_delay + 1

    @property
    def cell_edge_gain(self) -> float:
        """Working-scale received power per device (linear): the
        per-antenna per-symbol SNR of one device."""
        return 10.0 ** ((self.tx_power_dbm - PATH_LOSS_DB - NOISE_POWER_DBM) / 10.0)

    @property
    def sigma2(self) -> float:
        """Working-scale noise power. Always 1 under the normalization."""
        return 1.0


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate(config: SystemConfig) -> SystemConfig:
    """Check every invariant of ``config`` and return it unchanged; raises
    ``ConfigError`` naming the violated field.

    Every field's type is checked before any range: an int field takes an
    int, any other a finite int or float, and no field a bool.
    """
    c = config
    for f in fields(c):
        value = getattr(c, f.name)
        # the annotations are strings under ``from __future__ import annotations``
        if f.type == "int":
            ok, kind = is_int(value), "an integer"
        else:
            # finite as a float: no NaN, no inf and no int too large to convert
            ok = (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max
            kind = "a finite number"
        if not ok:
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
    if c.num_devices < 1:
        raise ConfigError("num_devices must be positive")
    if c.num_active < 0:
        raise ConfigError("num_active must be non-negative")
    if c.num_active > c.num_devices:
        raise ConfigError(
            f"num_active exceeds num_devices (K={c.num_active} > N={c.num_devices})"
        )
    if c.preamble_len < 1:
        raise ConfigError("preamble_len must be positive")
    if c.max_delay < 0:
        raise ConfigError("max_delay must be non-negative")
    if c.num_antennas < 1:
        raise ConfigError("num_antennas must be positive")
    if c.rng_seed < 0:
        raise ConfigError(f"rng_seed must be non-negative, got {c.rng_seed}")
    # the gain, a power of ten, can overflow or underflow. One preamble's
    # working-scale power over sigma2 = 1 bounds cond(Sigma) from below,
    # and from 1/eps on, sigma2 is lost in Sigma's rounding. The window is
    # the longest preamble of a study, as synchronous_config folds the
    # delay budget into its preamble, so one bound covers both systems
    limit = 1.0 / np.finfo(float).eps
    try:
        gain = c.cell_edge_gain
    except OverflowError:
        gain = math.inf
    if not 0.0 < gain * c.window_len < limit:
        raise ConfigError(
            f"cell_edge_gain must be finite and positive, and cell_edge_gain * "
            f"window_len below 1/eps = {limit:.4g}, got {gain:.4g} * {c.window_len} "
            f"from tx_power_dbm={c.tx_power_dbm!r}"
        )
    return c


@lru_cache(maxsize=32)
def synchronous_config(config: SystemConfig) -> SystemConfig:
    """Zero-delay benchmark system: the delay budget is folded into the
    preamble, keeping the observation window, and so its validity,
    identical. Cached, so every trial of a ``cd_e_sync`` cell gets the
    same object back.
    """
    return replace(config, preamble_len=config.window_len, max_delay=0)


def config_from_dict(data: Mapping) -> SystemConfig:
    """Build a SystemConfig from a mapping; unknown or missing keys are
    errors, and the constructor checks the values."""
    known = {f.name for f in fields(SystemConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = known - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return SystemConfig(**data)


@dataclass(frozen=True)
class GroundTruth:
    """True activity pattern behind one synthesized received signal.

    ``delays`` maps each active device to its delay; ``active`` lists the
    active devices ascending, the channels' draw order. ``ValueError`` for
    a device or delay that is not a Python or numpy integer, or is a bool:
    ``active`` and the window would truncate it while ``pairs`` kept it.
    """

    delays: dict[int, int]  # active device -> delay
    active: np.ndarray = field(init=False, repr=False, compare=False)  # sorted, int64

    def __post_init__(self):
        # each device's and delay's type, checked once per distinct type
        for kind in {*map(type, self.delays), *map(type, self.delays.values())}:
            if kind is bool or not issubclass(kind, (int, np.integer)):
                raise ValueError(f"devices and delays must be integers, got {self.delays!r}")
        object.__setattr__(self, "active", np.array(sorted(self.delays), dtype=np.int64))

    @property
    def num_active(self) -> int:
        return len(self.delays)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The true (device, delay) support."""
        return frozenset(self.delays.items())
