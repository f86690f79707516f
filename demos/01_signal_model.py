"""
Signal model walkthrough
========================

Builds one synthetic uplink scenario end to end: system configuration,
preamble assignment, random activity with per-device delays, the
received antenna snapshots, and the sample covariance that every
detector consumes.
"""

import numpy as np

from covdet import (
    SystemConfig,
    draw_ground_truth,
    effective_dictionary,
    generate_preambles,
    sample_covariance,
    synthesize_received_signal,
)

# A small cell: 12 devices share length-16 preambles, 3 transmit in this
# slot, each arriving up to 2 symbols late. The base station has 32
# antennas. tx_power_dbm sets the common cell-edge SNR on the fixed link
# budget; the noise floor is normalized to unit power internally.
config = SystemConfig(
    num_devices=12,
    num_active=3,
    preamble_len=16,
    max_delay=2,
    num_antennas=32,
    tx_power_dbm=23.0,
    rng_seed=0,
)
print(f"observation window: {config.window_len} samples "
      f"({config.preamble_len} preamble + {config.max_delay} delay budget)")
print(f"cell-edge power gain over unit noise: {config.cell_edge_gain:.4f}")

# Every device gets a unit-variance complex Gaussian preamble, the
# standard non-orthogonal signature set when devices far outnumber
# preamble samples.
rng = np.random.default_rng(config.rng_seed)
preambles = generate_preambles(config, rng)
print(f"\npreamble matrix: {preambles.shape} "
      f"(mean |s|^2 = {np.mean(np.abs(preambles) ** 2):.3f})")

# A delayed preamble is the same sequence shifted down inside the
# padded window; nothing else about the device changes. The effective
# dictionary holds every (device, delay) signature as one column, device
# n at delay tau in column n * (max_delay + 1) + tau: the columns the
# received signal is built from and the detectors fit.
dictionary = effective_dictionary(preambles, config.max_delay)
print(f"effective dictionary: {dictionary.shape} (window x device-delay pairs)")
for tau in range(config.max_delay + 1):
    lead = ", ".join(f"{x:.2f}" for x in dictionary[:4, tau])
    print(f"  device 0, delay {tau}: window starts [{lead}, ...]")

# Draw which devices are active and their delays. Every device sits at
# the cell edge, so all share one gain, config.cell_edge_gain.
truth = draw_ground_truth(config, rng)
print("\nactive devices (device, delay):",
      sorted(truth.pairs))

# The received signal stacks one length-(L + max_delay) window per
# antenna: superimposed delayed preambles through i.i.d. Rayleigh
# fading, plus unit-variance noise.
received = synthesize_received_signal(preambles, truth, config, rng)
print(f"received snapshots: {received.shape} "
      f"(window x antennas)")

# Averaging outer products over antennas gives the sample covariance,
# the only statistic the detectors ever look at. It converges to the
# true model covariance as the antenna count grows.
sigma_tilde = sample_covariance(received)
print(f"sample covariance: {sigma_tilde.shape}, "
      f"hermitian error {np.max(np.abs(sigma_tilde - sigma_tilde.conj().T)):.1e}")

# Demonstrate that convergence empirically: the Frobenius distance to
# the infinite-antenna limit shrinks roughly as 1/sqrt(M). The limit's
# gamma is one power per (device, delay) dictionary column.
from covdet import assemble_covariance

gamma_true = np.zeros((config.num_devices, config.num_delays))
for device, delay in truth.pairs:
    gamma_true[device, delay] = config.cell_edge_gain
limit = assemble_covariance(dictionary, gamma_true, config.sigma2)

print("\nantennas   ||sample - limit||_F")
import dataclasses

for m in (32, 128, 512, 2048):
    cfg_m = dataclasses.replace(config, num_antennas=m)
    rng_m = np.random.default_rng(7)
    rec_m = synthesize_received_signal(preambles, truth, cfg_m, rng_m)
    err = np.linalg.norm(sample_covariance(rec_m) - limit)
    print(f"{m:8d}   {err:.3f}")
