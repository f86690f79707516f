"""The system model: scenario config, link budget, ground truth, errors.

A ``SystemConfig`` is valid by construction: its ``__post_init__`` runs
``validate``, so the constructor, ``dataclasses.replace`` and
``config_from_dict`` all reject a bad system with a ``ConfigError``
before any draw, and no consumer re-checks one; the window bound there
keeps ``synchronous_config``'s benchmark system valid with its base.
The fit state a detector tracks lives in ``likelihood``.

Conventions
-----------
- Device indices run 0..N-1 and delays 0..tau_max (all 0-based).
- The link budget is fixed: ``PATH_LOSS_DB`` = 128.1 dB is the 3GPP
  macro-cell path loss 128.1 + 37.6*log10(d_km) at the 1 km cell edge,
  and ``NOISE_POWER_DBM`` = -99 dBm is -169 dBm/Hz over 10 MHz, so
  ``tx_power_dbm`` is the only power field.
- Powers are normalized so that the working noise power is 1: the
  per-device received power (transmit power times path-loss gain divided
  by physical noise power) is folded into the large-scale gain ``beta``.
  The ML fit is invariant under this joint rescaling.
- Every device sits at the cell-edge distance and shares its gain
  ``SystemConfig.cell_edge_gain``, so a ``GroundTruth`` is the active
  devices' delays alone.
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

# the fixed link budget: 3GPP macro-cell path loss at the 1 km cell edge
# [dB], and the noise power of -169 dBm/Hz over 10 MHz [dBm]
PATH_LOSS_DB = 128.1
NOISE_POWER_DBM = -99.0


class ConfigError(ValueError):
    """A scenario configuration violates one of its invariants."""


class NumericalDegeneracyError(ArithmeticError):
    """The tracked covariance state has become numerically unusable.

    A detector pass that raises it sets ``index`` to the column or device
    it was visiting.
    """

    index: int | None = None


class ConvergenceError(RuntimeError):
    """A detector exceeded its sweep cap without reaching the stop rule."""


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters for one detection setup. The detectors'
    settings (stop tolerance, thresholds) are ``detect``'s constants.

    Parameters
    ----------
    num_devices:
        Total number of devices N sharing the access channel.
    num_active:
        Number of simultaneously active devices K (0 <= K <= N). K=0
        measures false alarms on pure noise; its MDP is undefined (NaN).
    preamble_len:
        Length L of each device's signature sequence, in symbols.
    max_delay:
        Largest possible symbol delay tau_max (>= 0). The observation
        window spans ``preamble_len + max_delay`` symbols.
    num_antennas:
        Number of receive antennas M at the base station.
    tx_power_dbm:
        Per-device transmit power in dBm, the only power field: every
        device sits at the cell edge, on the fixed link budget
        ``PATH_LOSS_DB`` and ``NOISE_POWER_DBM``.
    rng_seed:
        Base seed for all random draws (non-negative integer).
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
        """Working-scale received power per device (linear).

        Transmit power minus path loss, referenced to the physical noise
        power, i.e. the per-antenna per-symbol SNR of one device.
        """
        return 10.0 ** ((self.tx_power_dbm - PATH_LOSS_DB - NOISE_POWER_DBM) / 10.0)

    @property
    def sigma2(self) -> float:
        """Working-scale noise power. Always 1 under the normalization."""
        return 1.0


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate(config: SystemConfig) -> SystemConfig:
    """Check every invariant of ``config`` and return it unchanged.

    ``SystemConfig.__post_init__`` calls it, so every config that exists
    has passed it. Every field's type is checked before any range: an
    int field takes an int, any other a finite int or float, and no
    field a bool.

    Raises
    ------
    ConfigError
        Naming the violated field.
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
    # tx_power_dbm enters the working-scale gain through a power of ten,
    # which overflows or underflows where the field is finite. One
    # preamble's working-scale power over the noise floor sigma2 = 1 bounds
    # cond(Sigma) from below, and from 1/eps on, sigma2 is lost in the
    # rounding of Sigma's entries. The window is the longest preamble of a
    # study, as synchronous_config folds the delay budget into its
    # preamble, so bounding it is one condition for both systems
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
    preamble, keeping the effective sequence length (and thus the
    observation window, which ``validate`` bounds) identical.

    Built once per distinct base config: every trial of a ``cd_e_sync``
    cell gets the same object back from a small bounded cache. A
    ``SystemConfig`` is frozen, and equal configs give equal results.
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

    ``delays`` maps each active device to its delay. ``active`` lists the
    active devices ascending, so that draws consuming it (channel
    generation) are order-deterministic. Every device sits at the
    config's ``cell_edge_gain``. Raises ``ValueError`` for a device or
    delay that is not a Python or numpy integer, or is a bool: the int64
    ``active`` and the synthesized window would otherwise truncate or
    convert it, while ``pairs`` kept the original.
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
