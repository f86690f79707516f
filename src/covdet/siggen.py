"""Synthetic scenario generation: preambles, ground truth, channels, noise.

Every function takes an explicit ``numpy.random.Generator`` so that a
whole trial is reproduced bit-for-bit from one seed, and independent
trials simply use independent seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sysmodel import GroundTruth, SystemConfig


@dataclass(frozen=True)
class SampleCovariance:
    """Hermitian PSD average of the per-antenna outer products.

    The one validated input type of the detectors: the ML estimate
    depends on the received signal only through this matrix. It is
    square, finite and Hermitian, and converts to its matrix wherever
    numpy expects an array.
    """

    matrix: np.ndarray  # (L + tau_max, L + tau_max)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"sample covariance must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("sample covariance has NaN or Inf entries")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > 1e-10 * scale:
            raise ValueError("sample covariance must be Hermitian")
        object.__setattr__(self, "matrix", m)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)


def complex_gaussian(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws, entrywise CN(0, variance)."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def generate_preambles(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the (L, N) signature matrix, one column per device, with
    i.i.d. unit-variance entries."""
    return complex_gaussian(rng, (config.preamble_len, config.num_devices))


def effective_dictionary(preambles: np.ndarray, max_delay: int) -> np.ndarray:
    """Stack all delayed signatures into one (L+tau_max) x N*(tau_max+1) matrix.

    Columns are grouped per device, delay-major within a device: column
    ``n * (tau_max + 1) + tau`` is device ``n`` delayed by ``tau``.
    """
    length, num_devices = preambles.shape
    num_delays = max_delay + 1
    out = np.zeros((length + max_delay, num_devices * num_delays), dtype=np.complex128)
    for tau in range(num_delays):
        out[tau : tau + length, tau::num_delays] = preambles
    return out


def draw_ground_truth(config: SystemConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw the active set, per-device delays, and large-scale gains.

    The active set is uniform without replacement; delays are uniform on
    {0, ..., tau_max}. All devices share the cell-edge gain (worst case),
    on the working scale where the noise power is 1.
    """
    active = np.sort(rng.choice(config.num_devices, size=config.num_active, replace=False))
    drawn = rng.integers(0, config.num_delays, size=config.num_active)
    delays = {int(n): int(tau) for n, tau in zip(active, drawn)}
    gains = np.full(config.num_devices, config.cell_edge_gain)
    return GroundTruth(active=active, delays=delays, gains=gains)


def synthesize_received_signal(
    preambles: np.ndarray, truth: GroundTruth, config: SystemConfig, rng: np.random.Generator
) -> np.ndarray:
    """Superpose the delayed signatures of the active devices plus noise.

    Returns the ``(L + tau_max, M)`` received window, one column per
    receive antenna. Each active device contributes sqrt(gain) times its
    column of the effective dictionary (its signature at its delay) times
    its CN(0, I) antenna channel row; the noise is entrywise CN(0, sigma2).
    Channels are drawn in ascending device order, then the noise block,
    so one generator reproduces the signal exactly.
    """
    expected = (config.preamble_len, config.num_devices)
    if preambles.shape != expected:
        raise ValueError(
            f"preambles must have shape (preamble length, device count) = "
            f"{expected}, got {preambles.shape}"
        )
    delays = np.array([truth.delays[int(n)] for n in truth.active], dtype=np.int64)
    if np.any((delays < 0) | (delays > config.max_delay)):
        raise ValueError(f"active delays {delays.tolist()} outside [0, {config.max_delay}]")
    channels = complex_gaussian(rng, (truth.num_active, config.num_antennas))
    dictionary = effective_dictionary(preambles[:, truth.active], config.max_delay)
    picked = np.arange(truth.num_active) * config.num_delays + delays
    # the fancy index leaves the block Fortran-ordered, and the matmul's
    # summation order follows the memory layout: C order keeps the window
    # bit for bit what a row-major (window, K) block gives
    columns = np.ascontiguousarray(dictionary[:, picked])
    signal = (columns * np.sqrt(truth.gains[truth.active])) @ channels
    noise = complex_gaussian(
        rng, (config.window_len, config.num_antennas), variance=config.sigma2
    )
    return signal + noise


def sample_covariance(received: np.ndarray) -> SampleCovariance:
    """Average outer product of the antenna snapshots, (1/M) Y Y^H, of
    the ``(L + tau_max, M)`` received window."""
    y = np.asarray(received, dtype=np.complex128)
    if y.ndim != 2:
        raise ValueError(
            f"received window must be 2-D (window length, antennas), got shape {y.shape}"
        )
    if y.shape[1] < 1:
        raise ValueError("need at least one antenna snapshot")
    cov = (y @ y.conj().T) / y.shape[1]
    cov = (cov + cov.conj().T) / 2.0  # kill roundoff asymmetry
    return SampleCovariance(cov)

