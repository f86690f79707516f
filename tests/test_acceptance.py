"""Acceptance gate: eight end-to-end guarantees, one test each.

Every test prints a single pass/fail summary line (visible with
``pytest -s``) and asserts the same condition, so the suite output and
the printed report always agree. Monte Carlo batches reuse fixtures to
keep the wall-clock cost near half a minute, most of it criterion 5's
200 exhaustive searches; criterion 6 reads the desk study that
``conftest.desk_study`` runs once per session, and
``tests/test_golden.py`` checks that same run's CSV.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import oracle
from conftest import (
    EXHAUSTIVE_FIELDS,
    coordinate_terms,
    dumps_without_runtime,
    kernel_visit,
    make_config,
    make_scenario,
    shipped,
    trend_violations,
)
from covdet import detect, likelihood
from covdet.cli import ExperimentPlan, run_experiment
from covdet.detect import prepare, run_bcd, run_cd_e, threshold, to_indicators


def _report(idx: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {idx}/8 {name}: {detail}")
    assert passed, f"criterion {idx} ({name}): {detail}"


@pytest.fixture(scope="module")
def desk_batch():
    """Both detectors on 50 seeded desk-scale scenarios, with the gamma
    after every block pass audited.

    A pass writes row ``n`` only while visiting block ``n`` and leaves it
    with at most one nonzero at that visit's commit, so auditing every
    row after the pass audits every commit."""
    config = shipped("desk").base
    block_sweep = likelihood.block_sweep
    audits: list[int] = []

    def audited(inv, factor_h, plan, gamma, objective):
        objective = block_sweep(inv, factor_h, plan, gamma, objective)
        audits.append(int(np.count_nonzero(gamma, axis=1).max()))
        return objective

    runs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihood, "block_sweep", audited)
        for seed in range(50):
            preambles, _, st = make_scenario(config, seed)
            cd = run_cd_e(preambles, st, config)
            first = len(audits)
            bcd = run_bcd(preambles, st, config)
            runs.append((cd, bcd, audits[first:]))
    return runs


def test_1_rank_one_inverse_fidelity():
    # 500 random valid rank-one updates on a 32-dim state, half of them
    # kernel visits and half arbitrary steps, no dense refresh in between,
    # then compare against an inverse computed from scratch by
    # eigendecomposition
    config = make_config(
        num_devices=10, num_active=3, preamble_len=30, max_delay=2
    )
    preambles, _, st = make_scenario(config, 7)
    _, factor_h, state = prepare(preambles, st, config)
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(config.num_devices))
        tau = int(rng.integers(config.num_delays))
        if rng.random() < 0.5:
            kernel_visit(state, factor_h, n, tau)
        else:
            eta = float(rng.uniform(-state.gamma[n, tau], 1.0))
            likelihood.rank_one_inverse_update(state, n, tau, eta)
    dense = oracle.dense_inverse(
        oracle.dense_covariance(preambles, state.gamma, config.sigma2)
    )
    elapsed = time.perf_counter() - start
    rel = float(
        np.linalg.norm(state.inv_sigma - dense) / np.linalg.norm(dense)
    )
    passed = rel < 1e-8 and elapsed < 5.0
    _report(
        1, "rank-one inverse fidelity", passed,
        f"rel Frobenius err {rel:.2e} after 500 updates (tol 1e-08), "
        f"{elapsed:.2f} s (budget 5 s)",
    )


def test_2_coordinate_visit_optimality():
    # on 100 random small instances the step of a kernel visit must agree
    # with a grid argmin to one grid spacing, and the analytic slope with
    # a dense central difference to 1e-4 relative error
    rng = np.random.default_rng(23)
    worst_gap = 0.0
    worst_rel = 0.0
    for i in range(100):
        length = int(rng.integers(4, 13))
        max_delay = int(rng.integers(0, 3))
        config = make_config(
            num_devices=int(rng.integers(2, 6)),
            num_active=1,
            preamble_len=length,
            max_delay=max_delay,
            num_antennas=int(rng.choice([8, 16, 32, 64])),
        )
        preambles, _, st = make_scenario(config, 1000 + i)
        _, factor_h, state = prepare(preambles, st, config)
        for _ in range(3):
            n = int(rng.integers(config.num_devices))
            tau = int(rng.integers(config.num_delays))
            kernel_visit(state, factor_h, n, tau)
        n = int(rng.integers(config.num_devices))
        tau = int(rng.integers(config.num_delays))
        # move off any stationary point so the slope is well-scaled
        likelihood.rank_one_inverse_update(state, n, tau, 0.3)

        quad, fit = coordinate_terms(state, factor_h, n, tau)
        slope = quad - fit
        grid_eta = oracle.grid_min_1d(
            preambles, state.gamma, 1.0, st, n, tau, grid_points=2001
        )
        current = float(state.gamma[n, tau])
        spacing = (2.0 * current + 10.0) / 2000

        h = 1e-6
        plus = state.gamma.copy()
        plus[n, tau] += h
        minus = state.gamma.copy()
        minus[n, tau] -= h
        fd = (
            oracle.dense_objective(preambles, plus, 1.0, st)
            - oracle.dense_objective(preambles, minus, 1.0, st)
        ) / (2 * h)
        assert abs(slope) > 1e-4, "probe landed on a stationary point"
        worst_rel = max(worst_rel, abs(slope - fd) / abs(slope))
        eta = kernel_visit(state, factor_h, n, tau)
        worst_gap = max(worst_gap, abs(eta - grid_eta) / spacing)
    passed = worst_gap <= 1.0 and worst_rel <= 1e-4
    _report(
        2, "coordinate visit optimality", passed,
        f"worst grid gap {worst_gap:.3f} spacings (tol 1), worst gradient "
        f"rel err {worst_rel:.2e} (tol 1e-04), 100 instances",
    )


def test_3_monotone_convergence(desk_batch):
    # objective sequences never increase (1e-9 roundoff slack across the
    # periodic dense refresh) and the final sweep decrement meets the
    # stopping rule within the sweep cap
    delta = detect.CONVERGENCE_DELTA
    worst_rise = -math.inf
    worst_last = -math.inf
    max_sweeps = 0
    for cd, bcd, _ in desk_batch:
        for result in (cd, bcd):
            trace = np.asarray(result.objective_trace)
            assert trace.size >= 2
            worst_rise = max(worst_rise, float(np.max(np.diff(trace))))
            worst_last = max(worst_last, float(trace[-2] - trace[-1]))
            max_sweeps = max(max_sweeps, result.iterations)
    passed = worst_rise <= 1e-9 and worst_last <= delta and max_sweeps < 1000
    _report(
        3, "monotone convergence", passed,
        f"worst rise {worst_rise:.2e} (slack 1e-09), worst final decrement "
        f"{worst_last:.2e} (delta {delta}), max {max_sweeps} sweeps "
        f"(cap 1000), 100 detector runs",
    )


def test_4_block_sparsity_invariant(desk_batch):
    # the gamma after every block pass, and every final
    # estimate of both detectors, has at most one nonzero per device
    audit_count = 0
    worst = 0
    finals_ok = True
    for cd, bcd, audits in desk_batch:
        audit_count += len(audits)
        worst = max(worst, max(audits))
        for result in (cd, bcd):
            finals_ok = finals_ok and np.count_nonzero(result.gamma_hat, axis=1).max() <= 1
    passed = worst <= 1 and finals_ok and audit_count > 0
    _report(
        4, "block-sparsity invariant", passed,
        f"max nonzeros per device {worst} across {audit_count} audited "
        f"block passes plus 100 final estimates",
    )


def test_5_tiny_instance_matches_exhaustive_search():
    # high-SNR 4-device instances, one active: the greedy detector's
    # declared support must match global enumeration in >= 95% of trials
    config = make_config(**EXHAUSTIVE_FIELDS)
    start = time.perf_counter()
    matches = 0
    trials = 200
    for seed in range(trials):
        preambles, _, st = make_scenario(config, seed)
        bcd = run_bcd(preambles, st, config)
        found = oracle.exhaustive_support_search(
            preambles, st, config.sigma2
        )
        best = to_indicators(threshold(found.gamma, detect.THRESHOLD_BCD))
        matches += bcd.theta_hat == best
    elapsed = time.perf_counter() - start
    passed = matches >= math.ceil(0.95 * trials) and elapsed < 120.0
    _report(
        5, "agreement with exhaustive search", passed,
        f"{matches}/{trials} supports identical (need >= {math.ceil(0.95 * trials)}), "
        f"{elapsed:.1f} s (budget 120 s)",
    )


def test_6_error_rates_trend_with_antennas(desk_study):
    # the trend experiment is the desk study: three detectors, M in
    # {4, 16, 64}, 200 paired trials per cell, under conftest's
    # trend_violations: (a) MDP and FAP non-increasing in M for every
    # detector, each step down or within one standard error of the
    # difference; (b) the block detector's FAP at the largest M no worse
    # than the entrywise one's; (c) at the largest M the asynchronous
    # detectors match the zero-delay benchmark within two standard errors
    _, rows, elapsed = desk_study
    violations = trend_violations(rows)
    passed = not violations and elapsed < 900.0
    _report(
        6, "antenna scaling trends", passed,
        (
            f"all 18 trend steps plus largest-M comparisons hold, "
            f"{elapsed:.1f} s (budget 900 s)"
            if not violations
            else "; ".join(violations) + f" [{elapsed:.1f} s]"
        ),
    )


def test_7_full_scale_smoke_run(tmp_path):
    # the 200-device system completes all trials without numerical
    # failure and detects most activity
    plan = dataclasses.replace(
        shipped("full"), detectors=("cd_e", "bcd"), antennas=(64,), trials=20
    )
    start = time.perf_counter()
    rows = run_experiment(plan, tmp_path / "smoke.csv")
    elapsed = time.perf_counter() - start
    mdps = {r["detector"]: r["mdp_mean"] for r in rows}
    passed = (
        len(rows) == 2
        and all(math.isfinite(v) and v < 0.5 for v in mdps.values())
        and elapsed < 1800.0
    )
    _report(
        7, "full-scale smoke run", passed,
        f"20 trials each: mdp cd_e={mdps['cd_e']:.3f}, bcd={mdps['bcd']:.3f} "
        f"(floor 0.5), {elapsed:.1f} s (budget 1800 s)",
    )


def test_8_same_seed_byte_identical_csv(tmp_path):
    # rerunning an experiment with the same seed reproduces the aggregate
    # CSV byte for byte, and the per-trial dumps apart from their
    # runtime_ms column (wall time)
    plan = ExperimentPlan(
        base=make_config(),
        detectors=("cd_e", "bcd", "cd_e_sync"),
        antennas=(4, 16),
        trials=5,
    )
    for tag in ("first", "second"):
        run_experiment(plan, tmp_path / f"{tag}.csv", per_trial_dir=tmp_path / tag)
    csv = (tmp_path / "first.csv").read_bytes()
    dumps = dumps_without_runtime(tmp_path / "first")
    passed = (
        csv == (tmp_path / "second.csv").read_bytes()
        and dumps == dumps_without_runtime(tmp_path / "second")
    )
    _report(
        8, "same-seed reproducibility", passed,
        f"aggregate CSV ({len(csv.splitlines())} lines) byte-identical, {len(dumps)} "
        f"per-trial dumps byte-identical outside runtime_ms",
    )
