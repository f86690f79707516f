"""Synthetic scenario generation: preambles, ground truth, channels, noise.

Each step takes an explicit ``numpy.random.Generator``, and
``draw_scenario`` states a trial's draw order from one seed, so a whole
trial is reproduced bit-for-bit from (config, seed), and independent
trials use independent seeds. Each array is built once, in the layout
its consumer needs.
"""

from __future__ import annotations

import numpy as np

from .sysmodel import GroundTruth, SystemConfig, is_int


def complex_gaussian(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Entrywise CN(0, variance) draws: the real parts are the first
    ``shape``-sized block of standard normal draws, the imaginary the second."""
    out = np.empty(shape, dtype=np.complex128)
    real, imag = rng.standard_normal((2, *out.shape))
    scale = np.sqrt(variance / 2.0)
    np.multiply(real, scale, out=out.real)
    np.multiply(imag, scale, out=out.imag)
    return out


def generate_preambles(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the (L, N) signature matrix, one column per device, with
    i.i.d. unit-variance entries."""
    return complex_gaussian(rng, (config.preamble_len, config.num_devices))


def check_preambles(preambles, config: SystemConfig) -> np.ndarray:
    """``preambles`` as a complex128 array; raises ``ValueError`` unless it
    is a finite ``(preamble_len, num_devices)`` array for ``config``."""
    preambles = np.asarray(preambles, dtype=np.complex128)
    expected = (config.preamble_len, config.num_devices)
    if preambles.shape != expected:
        raise ValueError(
            f"preambles must have shape (preamble length, device count) = "
            f"{expected}, got {preambles.shape}"
        )
    if not np.isfinite(preambles).all():
        raise ValueError("preambles have NaN or Inf entries")
    return preambles


def effective_dictionary(preambles, max_delay: int) -> np.ndarray:
    """Stack all delayed signatures into one Fortran-ordered
    (L+tau_max) x N*(tau_max+1) matrix: column ``n * (tau_max + 1) + tau``
    is device ``n`` delayed by ``tau``. Raises ``ValueError`` unless
    ``preambles`` is 2-D and ``max_delay`` a non-negative int.
    """
    preambles = np.asarray(preambles, dtype=np.complex128)
    if preambles.ndim != 2:
        raise ValueError(
            f"preambles must be 2-D (preamble length, devices), got shape {preambles.shape}"
        )
    if not (is_int(max_delay) and max_delay >= 0):
        raise ValueError(f"max_delay must be a non-negative integer, got {max_delay!r}")
    length, num_devices = preambles.shape
    num_delays = max_delay + 1
    out = np.zeros(
        (length + max_delay, num_devices * num_delays), dtype=np.complex128, order="F"
    )
    for tau in range(num_delays):
        out[tau : tau + length, tau::num_delays] = preambles
    return out


def draw_ground_truth(config: SystemConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw the active set, uniform without replacement, and the active
    devices' delays, uniform on {0, ..., tau_max}."""
    active = rng.choice(config.num_devices, size=config.num_active, replace=False)
    active.sort()
    drawn = rng.integers(0, config.num_delays, size=config.num_active)
    return GroundTruth(dict(zip(active.tolist(), drawn.tolist())))


def synthesize_received_signal(
    preambles: np.ndarray, truth: GroundTruth, config: SystemConfig, rng: np.random.Generator
) -> np.ndarray:
    """Superpose the delayed signatures of the active devices plus noise.

    Returns the ``(L + tau_max, M)`` window: each active device's
    effective-dictionary column at its delay, times sqrt(cell_edge_gain)
    and its CN(0, I) channel row, plus CN(0, sigma2) noise. Channels are
    drawn in ascending device order, then the noise block. Raises
    ``ValueError`` before any draw for preambles that ``check_preambles``
    rejects, or an active device or delay out of range.
    """
    preambles = check_preambles(preambles, config)
    devices = truth.active.tolist()
    outside = [n for n in devices if not 0 <= n < config.num_devices]
    if outside:
        raise ValueError(f"active devices {outside} outside [0, {config.num_devices})")
    delays = [truth.delays[n] for n in devices]
    if [tau for tau in delays if not 0 <= tau <= config.max_delay]:
        raise ValueError(f"active delays {delays} outside [0, {config.max_delay}]")
    channels = complex_gaussian(rng, (truth.num_active, config.num_antennas))
    # the active devices' dictionary columns, one per device at its delay,
    # scaled: a C-ordered (window, K) block, since the matmul's summation
    # order follows the memory layout
    columns = np.zeros((config.window_len, len(devices)), dtype=np.complex128)
    rows = np.arange(config.preamble_len)[:, None] + np.array(delays, dtype=np.int64)
    columns[rows, np.arange(len(devices))] = (
        preambles[:, devices] * np.sqrt(config.cell_edge_gain)
    )
    received = complex_gaussian(
        rng, (config.window_len, config.num_antennas), variance=config.sigma2
    )
    received += columns @ channels
    return received


def draw_scenario(config: SystemConfig, seed: int) -> tuple[np.ndarray, GroundTruth, np.ndarray]:
    """One trial's ``(preambles, truth, received)``: one
    ``numpy.random.default_rng(seed)`` draws the ``(L, N)`` preambles, then
    the ground truth, then the channels and noise of the ``(L + tau_max, M)``
    received window."""
    rng = np.random.default_rng(seed)
    preambles = generate_preambles(config, rng)
    truth = draw_ground_truth(config, rng)
    return preambles, truth, synthesize_received_signal(preambles, truth, config, rng)


def sample_covariance(received: np.ndarray) -> np.ndarray:
    """Average outer product of the antenna snapshots, (1/M) Y Y^H, of
    the ``(L + tau_max, M)`` received window, as an exactly Hermitian
    complex128 array; ``ValueError`` unless the window is 2-D with at
    least one antenna and the result is finite.
    """
    y = np.asarray(received, dtype=np.complex128)
    if y.ndim != 2:
        raise ValueError(
            f"received window must be 2-D (window length, antennas), got shape {y.shape}"
        )
    if y.shape[1] < 1:
        raise ValueError("need at least one antenna snapshot")
    # an overflow is reported by the check below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        cov = y @ y.conj().T
        cov /= y.shape[1]
        cov += cov.conj().T
        cov /= 2.0
    if not np.isfinite(cov).all():
        raise ValueError("sample covariance has NaN or Inf entries")
    return cov
