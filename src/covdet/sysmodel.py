"""Domain types and validation shared by the whole library.

Conventions
-----------
- Device indices run 0..N-1 and delays 0..tau_max (all 0-based).
- Powers are normalized so that the working noise power is 1: the
  per-device received power (transmit power times path-loss gain divided
  by physical noise power) is folded into the large-scale gain ``beta``.
  The ML fit is invariant under this joint rescaling. The detection
  thresholds ``threshold_cd`` and ``threshold_bcd`` are not: they are
  absolute powers on the working scale, so the same value means a
  different thing at another transmit power (ROADMAP item 7).
- Complex Gaussian CN(0, v) means real and imaginary parts are
  independent N(0, v/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

# 3GPP macro-cell path loss: 128.1 + 37.6*log10(d_km)  [dB]
PATH_LOSS_INTERCEPT_DB = 128.1
PATH_LOSS_SLOPE_DB_PER_DECADE = 37.6


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


_INT_FIELDS = frozenset(
    {"num_devices", "num_active", "preamble_len", "max_delay", "num_antennas", "rng_seed"}
)


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters for one detection setup.

    Parameters
    ----------
    num_devices:
        Total number of devices N sharing the access channel.
    num_active:
        Number of simultaneously active devices K (K <= N).
    preamble_len:
        Length L of each device's signature sequence, in symbols.
    max_delay:
        Largest possible symbol delay tau_max (>= 0). The observation
        window spans ``preamble_len + max_delay`` symbols.
    num_antennas:
        Number of receive antennas M at the base station.
    tx_power_dbm:
        Per-device transmit power in dBm.
    noise_psd_dbm_hz:
        One-sided noise power spectral density in dBm/Hz.
    bandwidth_hz:
        System bandwidth in Hz; together with the PSD it fixes the
        physical noise power.
    cell_distance_km:
        BS-to-device distance in km; all devices sit at this distance
        (cell-edge worst case), so they share one large-scale gain.
    convergence_delta:
        Stop threshold on the per-sweep objective decrease.
    threshold_cd:
        Detection threshold applied to the CD-E estimate.
    threshold_bcd:
        Detection threshold applied to the BCD estimate.
    rng_seed:
        Base seed for all random draws (non-negative integer).
    """

    num_devices: int
    num_active: int
    preamble_len: int
    max_delay: int
    num_antennas: int
    tx_power_dbm: float
    noise_psd_dbm_hz: float
    bandwidth_hz: float
    cell_distance_km: float
    convergence_delta: float
    threshold_cd: float
    threshold_bcd: float
    rng_seed: int

    @property
    def window_len(self) -> int:
        """Observation window length L + tau_max."""
        return self.preamble_len + self.max_delay

    @property
    def num_delays(self) -> int:
        """Number of delay hypotheses per device, tau_max + 1."""
        return self.max_delay + 1

    @property
    def path_loss_db(self) -> float:
        """Distance-dependent path loss in dB."""
        return PATH_LOSS_INTERCEPT_DB + PATH_LOSS_SLOPE_DB_PER_DECADE * math.log10(
            self.cell_distance_km
        )

    @property
    def noise_power_dbm(self) -> float:
        """Physical noise power in dBm: PSD + 10*log10(bandwidth)."""
        return self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz)

    @property
    def cell_edge_gain(self) -> float:
        """Working-scale received power per device (linear).

        Transmit power minus path loss, referenced to the physical noise
        power, i.e. the per-antenna per-symbol SNR of one device.
        """
        return 10.0 ** ((self.tx_power_dbm - self.path_loss_db - self.noise_power_dbm) / 10.0)

    @property
    def sigma2(self) -> float:
        """Working-scale noise power. Always 1 under the normalization."""
        return 1.0


_FLOAT_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.name not in _INT_FIELDS)


def validate(config: SystemConfig, *, allow_inactive: bool = False) -> SystemConfig:
    """Check every invariant of ``config`` and return it unchanged.

    ``allow_inactive=True`` permits ``num_active == 0`` (debug scenarios
    measuring false alarms on pure noise); everything else stays strict.

    Raises
    ------
    ConfigError
        Naming the violated field.
    """
    c = config
    if c.num_devices < 1:
        raise ConfigError("num_devices must be positive")
    min_active = 0 if allow_inactive else 1
    if c.num_active < min_active:
        raise ConfigError("num_active must be positive")
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
    if c.bandwidth_hz <= 0:
        raise ConfigError("bandwidth_hz must be positive")
    if c.cell_distance_km <= 0:
        raise ConfigError("cell_distance_km must be positive")
    if c.convergence_delta <= 0:
        raise ConfigError("convergence_delta must be positive")
    if c.threshold_cd <= 0:
        raise ConfigError("threshold_cd must be positive")
    if c.threshold_bcd <= 0:
        raise ConfigError("threshold_bcd must be positive")
    for name in _INT_FIELDS:
        if not isinstance(getattr(c, name), int):
            raise ConfigError(f"{name} must be an integer")
    for name in _FLOAT_FIELDS:
        if not math.isfinite(getattr(c, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(c, name)!r}")
    # the working-scale powers combine the power fields through a power
    # of ten, which overflows or underflows where every field is finite
    source = (
        f"from tx_power_dbm={c.tx_power_dbm!r}, "
        f"noise_psd_dbm_hz={c.noise_psd_dbm_hz!r}, "
        f"bandwidth_hz={c.bandwidth_hz!r}, "
        f"cell_distance_km={c.cell_distance_km!r}"
    )
    for name in ("cell_edge_gain", "sigma2"):
        try:
            value = getattr(c, name)
        except OverflowError:
            value = math.inf
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be finite and positive, got {value!r} {source}")
    # one preamble's working-scale power over the noise floor sigma2 = 1
    # bounds cond(Sigma) from below; from 1/eps on, sigma2 is lost in the
    # rounding of Sigma's entries
    limit = 1.0 / np.finfo(float).eps
    if c.cell_edge_gain * c.preamble_len >= limit:
        raise ConfigError(
            f"cell_edge_gain must be finite and positive, and cell_edge_gain * "
            f"preamble_len below 1/eps = {limit:.4g}, got "
            f"{c.cell_edge_gain:.4g} * {c.preamble_len} {source}"
        )
    return c


def config_from_dict(data: Mapping) -> SystemConfig:
    """Build a SystemConfig from a mapping; unknown or missing keys are errors."""
    known = {f.name for f in fields(SystemConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = known - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    kwargs = {}
    for name in known:
        value = data[name]
        if name in _INT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            kwargs[name] = int(value)
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            kwargs[name] = float(value)
    return SystemConfig(**kwargs)


@dataclass(frozen=True)
class GroundTruth:
    """True activity pattern behind one synthesized received signal.

    ``active`` is sorted ascending so that draws consuming it (channel
    generation) are order-deterministic. ``gains`` holds a working-scale
    power gain for every device; only the active ones shape the signal.
    """

    active: np.ndarray  # sorted device indices, length K
    delays: dict[int, int]  # device -> delay, keys == active
    gains: np.ndarray  # (N,) linear power gains

    def __post_init__(self):
        act = np.sort(np.asarray(self.active, dtype=np.int64))
        object.__setattr__(self, "active", act)
        object.__setattr__(self, "gains", np.asarray(self.gains, dtype=np.float64))
        if set(self.delays) != set(act.tolist()):
            raise ValueError("delays must be keyed by exactly the active devices")
        if np.any(self.gains <= 0):
            raise ValueError("gains must be positive")

    @property
    def num_active(self) -> int:
        return int(self.active.size)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The true (device, delay) support."""
        return frozenset((int(n), int(self.delays[int(n)])) for n in self.active)


@dataclass
class CovarianceState:
    """Tracked inverse model covariance, kept consistent with a gamma estimate.

    ``gamma[n, tau]`` is the fitted power of device ``n`` at delay
    ``tau``; one row per device is a "block". Single-writer: one
    detection run owns and mutates it. ``inv_sigma`` is maintained by
    rank-one updates and is periodically refreshed from a dense
    factorization to bound drift. ``objective`` tracks the current fit
    objective and is maintained by the update loop.
    """

    dictionary: np.ndarray  # (D, N*(tau_max+1)) delayed signature columns
    sigma2: float
    inv_sigma: np.ndarray  # (D, D) Hermitian positive definite, Fortran-ordered
    objective: float
    gamma: np.ndarray  # (N, tau_max + 1) float64, C-ordered

    @property
    def dim(self) -> int:
        return self.dictionary.shape[0]

    def column(self, device: int, delay: int) -> np.ndarray:
        """Dictionary column for hypothesis (device, delay)."""
        return self.dictionary[:, device * self.gamma.shape[1] + delay]


@dataclass(frozen=True)
class DetectionResult:
    """Final output of one detector run, ready for scoring.

    ``theta_hat`` holds the declared (device, delay) pairs; at most one
    delay per device. ``gamma_hat`` is the ``(N, tau_max+1)`` estimate they
    were read from. ``objective_trace`` records the objective after
    initialization and after each full sweep, before any enforcement or
    thresholding.
    """

    theta_hat: frozenset[tuple[int, int]]
    gamma_hat: np.ndarray  # (N, tau_max + 1) float64
    iterations: int
    final_objective: float
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        per_device: dict[int, int] = {}
        for n, tau in self.theta_hat:
            if n in per_device:
                raise ValueError(f"device {n} declared with more than one delay")
            per_device[n] = tau
