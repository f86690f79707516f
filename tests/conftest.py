"""Shared scenario builders and subprocess helpers for the test suite."""

import os

# one BLAS thread per pool under any tier-1 command, as in CI: OpenBLAS reads
# these once, when numpy or scipy loads it, and pytest imports this file first
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

import covdet
from covdet import likelihood
from covdet.cli import TRIAL_HEADER, ExperimentPlan, load_experiment, run_experiment
from covdet.siggen import draw_scenario, sample_covariance
from covdet.sysmodel import NOISE_POWER_DBM, PATH_LOSS_DB, GroundTruth, SystemConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

DEFAULTS = dict(
    num_devices=8,
    num_active=2,
    preamble_len=16,
    max_delay=2,
    num_antennas=64,
    tx_power_dbm=23.0,
    rng_seed=12345,
)

# gate criterion 5's system: high SNR, 4 devices, one active, small enough
# for oracle.exhaustive_support_search to enumerate its 256 supports
EXHAUSTIVE_FIELDS = dict(
    num_devices=4, num_active=1, preamble_len=8, max_delay=2,
    num_antennas=512, tx_power_dbm=33.0,
)


def make_config(**overrides) -> SystemConfig:
    """A small valid config, with any field overridable."""
    return SystemConfig(**{**DEFAULTS, **overrides})


def window_edge_dbm(config: SystemConfig) -> float:
    """The transmit power at which ``validate``'s ``gain * window_len`` is 1/eps."""
    headroom_db = -10.0 * math.log10(np.finfo(float).eps * config.window_len)
    return PATH_LOSS_DB + NOISE_POWER_DBM + headroom_db


def shipped(study: str, **fields) -> ExperimentPlan:
    """The experiment plan of ``configs/<study>.json``, with any system
    field of its base config replaced; the one statement of the shipped
    systems that the tests read."""
    plan = load_experiment(CONFIGS / f"{study}.json")
    return dataclasses.replace(plan, base=dataclasses.replace(plan.base, **fields))


@pytest.fixture(scope="session")
def desk_study(tmp_path_factory):
    """The whole desk study, run serially once per session: its aggregate
    CSV path, its rows and the sweep's wall time in seconds."""
    out = tmp_path_factory.mktemp("desk") / "desk.csv"
    start = time.perf_counter()
    rows = run_experiment(shipped("desk"), out)
    return out, rows, time.perf_counter() - start


def trend_violations(rows, rules: str = "abc") -> list:
    """Criterion 6's violations among the aggregate ``rows`` of a study of
    the three detectors, for the rules named in ``rules``, each led by its
    rule: (a) MDP and FAP non-increasing in M for every detector, each step
    down or within one standard error of the difference; (b) the block
    detector's FAP at the largest M no worse than the entrywise one's,
    within one standard error; (c) at the largest M the asynchronous
    detectors' MDP within two standard errors of the zero-delay
    benchmark's."""
    cells = {(r["detector"], r["M"]): r for r in rows}
    antennas = sorted({m for _, m in cells})
    violations = []
    if "a" in rules:
        for det in ("cd_e", "bcd", "cd_e_sync"):
            for metric in ("mdp", "fap"):
                for m_lo, m_hi in zip(antennas, antennas[1:]):
                    lo, hi = cells[(det, m_lo)], cells[(det, m_hi)]
                    diff = hi[f"{metric}_mean"] - lo[f"{metric}_mean"]
                    se = math.hypot(lo[f"{metric}_stderr"], hi[f"{metric}_stderr"])
                    if diff > se:
                        violations.append(
                            f"(a) {det} {metric} rises {diff:.4g} > {se:.4g} "
                            f"se at M {m_lo}->{m_hi}"
                        )
    top = antennas[-1]
    if "b" in rules:
        bcd, cde = cells[("bcd", top)], cells[("cd_e", top)]
        se_b = math.hypot(bcd["fap_stderr"], cde["fap_stderr"])
        if bcd["fap_mean"] > cde["fap_mean"] + se_b:
            violations.append(
                f"(b) fap {bcd['fap_mean']:.4g} > {cde['fap_mean']:.4g} + {se_b:.4g}"
            )
    if "c" in rules:
        sync = cells[("cd_e_sync", top)]
        for det in ("cd_e", "bcd"):
            cell = cells[(det, top)]
            gap = abs(cell["mdp_mean"] - sync["mdp_mean"])
            se_c = math.hypot(cell["mdp_stderr"], sync["mdp_stderr"])
            if gap > 2 * se_c:
                violations.append(
                    f"(c) {det} mdp gap to benchmark {gap:.4g} > {2 * se_c:.4g}"
                )
    return violations


def make_truth(pairs) -> GroundTruth:
    """The ground truth whose active devices and delays are ``pairs``."""
    return GroundTruth({int(n): int(tau) for n, tau in pairs})


def make_scenario(config: SystemConfig, seed: int):
    """Draw (preambles, truth, sample covariance) from one seed."""
    preambles, truth, received = draw_scenario(config, seed)
    return preambles, truth, sample_covariance(received)


def kernel_visit(state, factor_h, n, tau):
    """Visit coordinate ``(n, tau)`` of ``state`` as a detector pass does,
    by a one-column ``likelihood.column_sweep`` on the state's stack;
    updates the state's inverse, gamma and objective in place and returns
    the step taken."""
    j = n * state.gamma.shape[1] + tau
    before = float(state.gamma[n, tau])
    stack = likelihood.column_stack(state, factor_h)
    plan = likelihood.column_plan(state.dictionary[:, j : j + 1], factor_h)
    state.objective = likelihood.column_sweep(
        stack, plan, state.gamma.ravel()[j : j + 1], state.objective
    )
    state.inv_sigma[:] = stack[: state.dim]
    return float(state.gamma[n, tau]) - before


def coordinate_terms(state, factor_h, n, tau):
    """``(quad, fit)`` of coordinate ``(n, tau)`` at the tracked inverse:
    ``s^H Sigma^-1 s`` and ``||F^H Sigma^-1 s||^2``; the objective's slope
    along the coordinate is ``quad - fit``."""
    s = state.column(n, tau)
    v = state.inv_sigma @ s
    return float(np.vdot(s, v).real), float(np.linalg.norm(factor_h @ v) ** 2)


def degenerate_removals(monkeypatch):
    """Make the zeroed state of every ``bcd`` removal degenerate.

    Patches ``likelihood.step_increment`` so that a removal (``eta < 0``)
    returns the denominator ``eta * quad / 2``; the zeroed-state
    ``quad + gamma * quad^2 / denom`` of the removed column is then
    ``-quad``, which the scoring that follows must reject.
    """
    real = likelihood.step_increment

    def degenerate(eta, quad, fit):
        delta, denom = real(eta, quad, fit)
        return (delta, eta * quad / 2.0) if eta < 0.0 else (delta, denom)

    monkeypatch.setattr(likelihood, "step_increment", degenerate)


def dumps_without_runtime(directory) -> dict:
    """The per-trial dumps in ``directory`` by file name, each a list of
    its lines' fields less ``runtime_ms``, the one that is wall time."""
    column = TRIAL_HEADER.split(",").index("runtime_ms")
    dumps = {}
    for path in Path(directory).iterdir():
        rows = [line.split(",") for line in path.read_text().splitlines()]
        dumps[path.name] = [row[:column] + row[column + 1:] for row in rows]
    return dumps


def package_env() -> dict:
    """This environment with the tested package's ``src`` first on
    PYTHONPATH, for running it in a subprocess."""
    src = str(Path(covdet.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
