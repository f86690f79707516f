"""
Detector benchmark sweep
========================

Runs a small seeded Monte Carlo sweep in-process, the same machinery
behind the command-line runner, and tabulates missed-detection and
false-alarm rates as the antenna count grows.

The equivalent shell command for the shipped desk-scale study is:

    covdet run --config configs/desk.json --out results.csv
"""

import tempfile
from pathlib import Path

from covdet import SystemConfig
from covdet.cli import ExperimentPlan, run_experiment

# 20 devices, 4 active, modest window; 40 trials per cell keeps this
# demo around ten seconds. Every (detector, antennas) cell replays the
# identical seeded scenarios, so the comparison is paired.
base = SystemConfig(
    num_devices=20,
    num_active=4,
    preamble_len=20,
    max_delay=2,
    num_antennas=64,
    tx_power_dbm=23.0,
    rng_seed=2024,
)
plan = ExperimentPlan(
    base=base,
    detectors=("cd_e", "bcd", "cd_e_sync"),
    antennas=(4, 16, 64),
    trials=40,
)

out = Path(tempfile.mkdtemp()) / "benchmark.csv"
rows = run_experiment(plan, out)

# cd_e sweeps single coordinates; bcd re-optimizes whole device blocks;
# cd_e_sync is the zero-delay reference system with the same window.
print(f"{'detector':>10} {'M':>4} {'MDP':>8} {'FAP':>8} {'sweeps':>7}")
for row in rows:
    print(
        f"{row['detector']:>10} {row['M']:>4d} "
        f"{row['mdp_mean']:>8.4f} {row['fap_mean']:>8.4f} "
        f"{row['mean_iterations']:>7.1f}"
    )

# The CSV on disk carries the same rows plus standard errors, ready for
# plotting or diffing between runs.
print(f"\nwrote {out}")
print(out.read_text().splitlines()[0])
