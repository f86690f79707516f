"""Synthetic scenario generation: preambles, ground truth, channels, noise.

Every function takes an explicit ``numpy.random.Generator`` so that a
whole trial is reproduced bit-for-bit from one seed, and independent
trials simply use independent seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sysmodel import GroundTruth, PreambleSet, SystemConfig


@dataclass(frozen=True)
class ReceivedSignal:
    """Complex baseband samples, one column per receive antenna."""

    matrix: np.ndarray  # (L + tau_max, M)

    @property
    def window_len(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SampleCovariance:
    """Hermitian PSD average of the per-antenna outer products."""

    matrix: np.ndarray  # (L + tau_max, L + tau_max)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"sample covariance must be square, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > 1e-10 * scale:
            raise ValueError("sample covariance must be Hermitian")
        object.__setattr__(self, "matrix", m)


def complex_gaussian(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws, entrywise CN(0, variance)."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def generate_preambles(config: SystemConfig, rng: np.random.Generator) -> PreambleSet:
    """Draw the L x N signature matrix with i.i.d. unit-variance entries."""
    return PreambleSet(complex_gaussian(rng, (config.preamble_len, config.num_devices)))


def effective_sequence(seq: np.ndarray, delay: int, max_delay: int) -> np.ndarray:
    """Zero-pad a signature according to its delay.

    The result has length ``len(seq) + max_delay``: ``delay`` leading
    zeros, the sequence, then ``max_delay - delay`` trailing zeros.
    """
    if not 0 <= delay <= max_delay:
        raise ValueError(f"delay {delay} outside [0, {max_delay}]")
    seq = np.asarray(seq, dtype=np.complex128)
    out = np.zeros(seq.shape[0] + max_delay, dtype=np.complex128)
    out[delay : delay + seq.shape[0]] = seq
    return out


def effective_dictionary(preambles: PreambleSet, max_delay: int) -> np.ndarray:
    """Stack all delayed signatures into one (L+tau_max) x N*(tau_max+1) matrix.

    Columns are grouped per device, delay-major within a device: column
    ``n * (tau_max + 1) + tau`` is device ``n`` delayed by ``tau``.
    """
    mat = preambles.matrix
    length, num_devices = mat.shape
    num_delays = max_delay + 1
    out = np.zeros((length + max_delay, num_devices * num_delays), dtype=np.complex128)
    for tau in range(num_delays):
        out[tau : tau + length, tau::num_delays] = mat
    return out


def draw_ground_truth(
    config: SystemConfig,
    rng: np.random.Generator,
    delay_weights: np.ndarray | None = None,
) -> GroundTruth:
    """Draw the active set, per-device delays, and large-scale gains.

    The active set is uniform without replacement; delays are uniform on
    {0, ..., tau_max} unless ``delay_weights`` gives another distribution.
    All devices share the cell-edge gain (worst case), on the working
    scale where the noise power is 1.
    """
    active = np.sort(rng.choice(config.num_devices, size=config.num_active, replace=False))
    if delay_weights is not None:
        weights = np.asarray(delay_weights, dtype=np.float64)
        if weights.shape != (config.num_delays,):
            raise ValueError(f"delay_weights must have length {config.num_delays}")
        probs = weights / weights.sum()
        drawn = rng.choice(config.num_delays, size=config.num_active, p=probs)
    else:
        drawn = rng.integers(0, config.num_delays, size=config.num_active)
    delays = {int(n): int(tau) for n, tau in zip(active, drawn)}
    gains = np.full(config.num_devices, config.cell_edge_gain)
    return GroundTruth(active=active, delays=delays, gains=gains)


def synthesize_received_signal(
    preambles: PreambleSet,
    truth: GroundTruth,
    config: SystemConfig,
    rng: np.random.Generator,
    *,
    channels: np.ndarray | None = None,
    noise_variance: float | None = None,
) -> ReceivedSignal:
    """Superpose the delayed signatures of the active devices plus noise.

    Each active device contributes sqrt(gain) * delayed signature times
    its CN(0, I) antenna channel row; the noise is entrywise CN(0, sigma2).
    Channels are drawn in ascending device order, then the noise block,
    so one generator reproduces the signal exactly.

    ``channels`` (one row per active device, ascending order) and
    ``noise_variance`` override the random draws; they exist for tests
    that need deterministic or noiseless signals.
    """
    if preambles.preamble_len != config.preamble_len:
        raise ValueError("preamble length inconsistent with config")
    if preambles.num_devices != config.num_devices:
        raise ValueError("number of preambles inconsistent with config")
    window = config.window_len
    num_active = truth.num_active
    if channels is None:
        channels = complex_gaussian(rng, (num_active, config.num_antennas))
    else:
        channels = np.asarray(channels, dtype=np.complex128)
        if channels.shape != (num_active, config.num_antennas):
            raise ValueError(
                f"channels must have shape {(num_active, config.num_antennas)}, "
                f"got {channels.shape}"
            )
    signal = np.zeros((window, config.num_antennas), dtype=np.complex128)
    if num_active:
        columns = np.empty((window, num_active), dtype=np.complex128)
        for k, n in enumerate(truth.active):
            n = int(n)
            seq = effective_sequence(preambles.matrix[:, n], truth.delays[n], config.max_delay)
            columns[:, k] = np.sqrt(truth.gains[n]) * seq
        signal = columns @ channels
    if noise_variance is None:
        noise_variance = config.sigma2
    if noise_variance > 0:
        signal = signal + complex_gaussian(
            rng, (window, config.num_antennas), variance=noise_variance
        )
    return ReceivedSignal(signal)


def sample_covariance(received: ReceivedSignal) -> SampleCovariance:
    """Average outer product of the antenna snapshots, (1/M) Y Y^H."""
    y = received.matrix
    if y.shape[1] < 1:
        raise ValueError("need at least one antenna snapshot")
    cov = (y @ y.conj().T) / y.shape[1]
    cov = (cov + cov.conj().T) / 2.0  # kill roundoff asymmetry
    return SampleCovariance(cov)

