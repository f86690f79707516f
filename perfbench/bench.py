"""covdet benchmark: sweep throughput, detection quality and per-layer timings.

Run from the repository root::

    python3 perfbench/bench.py --workload desk-serial --seed 12345 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs one traced pass and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results
(environment, checks, spans, CSVs) go to ``.perfbench_out/`` at the root.

The library is driven only through its public calls. Why each workload
exists, how the timings are made steady on a shared host, and which
end-to-end metric each layer metric should move is in
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported; pool workers inherit the environment.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_PINS:
    os.environ[_name] = "1"

import argparse
import contextlib
import dataclasses
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

sys.path.insert(0, str(SRC))
import numpy as np
import scipy
from covdet import cli, detect, likelihood, metrics, siggen
from covdet.sysmodel import ConvergenceError, NumericalDegeneracyError, validate

DETECTORS = ("cd_e", "bcd", "cd_e_sync")
# the trial-time tail is the highest percentile with this many trials beyond it
TAIL_BEYOND = 10
SETUP_REPEATS = 5
# objective_trace may rise by this much relative to its magnitude: the dense
# refresh replaces the incrementally tracked objective, which carries roundoff
OBJECTIVE_RISE_TOL = 1e-9
# the traced run's run_experiment pass; no more workers than a 2-core host has
POOL_WORKERS = 2

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    **{f"{d}.trials_per_s": "trials/s" for d in DETECTORS},
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    **{f"{d}.{q}": "fraction" for d in DETECTORS for q in ("mdp", "fap")},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "siggen.scenario_us": "us",
    "siggen.sample_cov_us": "us",
    "siggen.dictionary_us": "us",
    "siggen.share": "fraction",
    **{f"detect.{d}.solve_ms": "ms" for d in DETECTORS},
    **{f"detect.{d}.sweeps": "sweeps" for d in DETECTORS},
    "detect.coord_visits": "count",
    "detect.us_per_coord_visit": "us",
    "detect.share": "fraction",
    "likelihood.init_state_us": "us",
    "likelihood.refresh_us": "us",
    "likelihood.objective_us": "us",
    "likelihood.step_us": "us",
    "metrics.score_us": "us",
    "cli.aggregate_us": "us",
    "cli.worker_util": "fraction",
    "trace_overhead_frac": "fraction",
    "trace.unaccounted_frac": "fraction",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a config, its cells and its trial sets.

    Every cell runs a fixed reference set, the first ``reference_trials``
    scenarios of the config's own seed sequence (``rng_seed + t``, as
    ``covdet run`` draws them), then ``seeded_trials`` scenarios drawn from
    ``--seed``. MDP and FAP come from the reference set only; timings
    cover both sets.
    """

    config: str  # relative to the repository root
    antennas: tuple[int, ...]
    reference_trials: int
    seeded_trials: int
    pass_seconds: float  # nominal time of one pass over every trial
    calibration_steps: int
    calibration_s: float  # nominal time of one calibration


WORKLOADS = {
    "desk-serial": Workload("configs/desk.json", (4, 16, 64), 80, 20, 9.0, 60, 7e-4),
    "full-m4": Workload("configs/full.json", (4,), 3, 0, 7.5, 400, 0.024),
}


# ---------------------------------------------------------------- tracing


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans recorded around public calls."""

    def __init__(self):
        self.spans: list[Span | None] = []

    @contextlib.contextmanager
    def span(self, name: str, trial: int | None = None, parent: int | None = None):
        index = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield index
        finally:
            self.spans[index] = Span(index, name, start, time.perf_counter(), parent, trial)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path: Path) -> None:
        path.write_text("".join(json.dumps(dataclasses.asdict(s)) + "\n" for s in self.finished()))


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


# ---------------------------------------------------------------- trials


@dataclass(frozen=True)
class Sweep:
    """A trial set, loaded as one ``ExperimentPlan``."""

    label: str  # "reference" or "seeded"
    plan: "cli.ExperimentPlan"

    def cells(self):
        for detector in self.plan.detectors:
            for m in self.plan.antennas:
                yield detector, m, dataclasses.replace(self.plan.base, num_antennas=m)

    @property
    def seeds(self) -> range:
        base = self.plan.base.rng_seed
        return range(base, base + self.plan.trials)


def make_sweeps(workload: Workload, seed: int) -> list[Sweep]:
    sizes = [("reference", None, workload.reference_trials)]
    if workload.seeded_trials:
        sizes.append(("seeded", seed + workload.reference_trials, workload.seeded_trials))
    return [
        Sweep(label, cli.load_experiment(ROOT / workload.config, {
            "detectors": list(DETECTORS),
            "antennas": list(workload.antennas),
            "trials": trials,
            "seed": base_seed,
        }))
        for label, base_seed, trials in sizes
    ]


@dataclass(frozen=True)
class Outcome:
    """What every path reports for one trial: enough to score and compare."""

    detector: str
    num_antennas: int
    seed: int
    mdp: float
    fap: float
    iterations: int
    final_objective: float | None  # None when read from a per-trial dump

    def key(self):
        return (self.detector, self.num_antennas, self.seed)

    def same_detection(self, other: "Outcome") -> bool:
        return (self.mdp, self.fap, self.iterations) == (other.mdp, other.fap, other.iterations)


def outcome_of(record) -> Outcome:
    return Outcome(
        record.detector, record.num_antennas, record.seed,
        record.mdp, record.fap, record.iterations, record.final_objective,
    )


def record_problems(outcome: Outcome, defined: bool = True) -> list[str]:
    """Checks that hold for every trial record, whichever path made it."""
    problems = []
    if not defined:
        problems.append("MDP or FAP undefined")
    for name in ("mdp", "fap"):
        value = getattr(outcome, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name}={value} outside [0, 1]")
    if not 1 <= outcome.iterations <= detect.MAX_SWEEPS:
        problems.append(f"iterations={outcome.iterations} outside [1, {detect.MAX_SWEEPS}]")
    if outcome.final_objective is not None and not math.isfinite(outcome.final_objective):
        problems.append(f"final_objective={outcome.final_objective} not finite")
    return problems


def result_problems(result, cfg) -> list[str]:
    """Checks on a DetectionResult, available on the decomposed path only."""
    problems = []
    trace = np.asarray(result.objective_trace)
    if trace.size != result.iterations + 1:
        problems.append(f"objective_trace has {trace.size} entries for {result.iterations} sweeps")
    rises = np.diff(trace) - OBJECTIVE_RISE_TOL * np.maximum(1.0, np.abs(trace[:-1]))
    if np.any(rises > 0):
        problems.append(f"objective_trace rises by {float(np.max(np.diff(trace))):.3e}")
    devices = [n for n, _ in result.theta_hat]
    if len(devices) != len(set(devices)):
        problems.append("theta_hat declares a device with more than one delay")
    for n, tau in result.theta_hat:
        if not (0 <= n < cfg.num_devices and 0 <= tau <= cfg.max_delay):
            problems.append(f"theta_hat pair ({n}, {tau}) outside [0, N) x [0, tau_max]")
    return problems


def decomposed_trial(config, seed: int, detector: str, tracer: Tracer, trial: int):
    """The body of ``cli.run_single_trial``, one span per public call.

    After the trial span closes, a probe span times the dictionary build
    and the library's likelihood kernel on this trial's own data, outside
    the trial's wall time. Returns the outcome, the failed checks and the
    coordinate visits.
    """
    with tracer.span("trial", trial) as root:
        cfg = cli.synchronous_config(config) if detector == "cd_e_sync" else config
        runner = detect.run_bcd if detector == "bcd" else detect.run_cd_e
        rng = np.random.default_rng(seed)
        with tracer.span("siggen.scenario", trial, root):
            preambles = siggen.generate_preambles(cfg, rng)
            truth = siggen.draw_ground_truth(cfg, rng)
            received = siggen.synthesize_received_signal(preambles, truth, cfg, rng)
        with tracer.span("siggen.sample_cov", trial, root):
            sigma_tilde = siggen.sample_covariance(received)
        with tracer.span(f"detect.{detector}", trial, root):
            result = runner(preambles, sigma_tilde, cfg)
        with tracer.span("metrics.score", trial, root):
            mdp = metrics.compute_mdp(result, truth)
            fap = metrics.compute_fap(result, truth, cfg.num_devices)

    with tracer.span("probe", trial) as probe:
        with tracer.span("siggen.dictionary", trial, probe):
            dictionary = siggen.effective_dictionary(preambles, cfg.max_delay)
        with tracer.span("likelihood.init_state", trial, probe):
            state = likelihood.init_state(dictionary, cfg.sigma2, sigma_tilde, cfg.num_delays)
        device = int(truth.active[0])
        delay = truth.delays[device]
        with tracer.span("likelihood.step", trial, probe):
            _, quad, fit = likelihood.quadratic_terms(state, sigma_tilde, device, delay)
            eta = (fit - quad) / (quad * quad)
            # any positive step costs the same; the optimum can be <= 0
            likelihood.rank_one_inverse_update(state, device, delay, eta if eta > 0 else 1.0 / quad)
        with tracer.span("likelihood.refresh", trial, probe):
            likelihood.refresh_state(state, sigma_tilde)
        with tracer.span("likelihood.objective", trial, probe):
            likelihood.evaluate_objective(state.inv_sigma, sigma_tilde, inverse=True)

    outcome = Outcome(detector, config.num_antennas, seed, mdp, fap, result.iterations, result.final_objective)
    coord_visits = result.iterations * cfg.num_devices * cfg.num_delays
    return outcome, result_problems(result, cfg) + record_problems(outcome), coord_visits


# ---------------------------------------------------------------- timed passes


class Calibrator:
    """A fixed Sherman-Morrison loop at the workload's window length.

    Other tenants of the host slow identical work by up to 2x, in phases
    that can outlast a run, and this loop slows with them. Each timed
    trial is divided by the mean slowdown measured just before and just
    after it, which rescales it to the host's nominal speed.
    """

    def __init__(self, dim: int, steps: int, nominal_s: float):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        self.inverse = np.linalg.inv(a @ a.conj().T / dim + np.eye(dim))
        self.vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        self.steps = steps
        self.nominal_s = nominal_s
        self.last = self.measure()

    def measure(self) -> float:
        start = time.perf_counter()
        inv = self.inverse.copy()
        for _ in range(self.steps):
            v = inv @ self.vector
            quad = float(np.real(np.vdot(self.vector, v)))
            inv -= (1e-3 / (1.0 + 1e-3 * quad)) * np.outer(v, v.conj())
        return (time.perf_counter() - start) / self.nominal_s

    def slowdown(self) -> float:
        """Mean slowdown over the trial that just ended."""
        before, self.last = self.last, self.measure()
        return (before + self.last) / 2.0


@dataclass
class PassResult:
    """One serial pass over every trial of a workload.

    ``timed`` maps each trial to ``(seconds, slowdown)``.
    """

    timed: dict[tuple, tuple[float, float]] = field(default_factory=dict)
    outcomes: dict[tuple, Outcome] = field(default_factory=dict)
    reference_rows: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def row_without_runtime(row: dict) -> str:
    """A CSV row in ``cli.CSV_HEADER`` order, minus ``mean_runtime_ms``."""
    return ",".join(
        [row["detector"], str(row["M"]), str(row["trials"])]
        + [repr(row[k]) for k in ("mdp_mean", "mdp_stderr", "fap_mean", "fap_stderr", "mean_iterations")]
    )


def serial_pass(sweeps: list[Sweep], calibrator: Calibrator) -> PassResult:
    """One ``run_single_trial`` at a time, then ``aggregate`` per cell."""
    out = PassResult()
    for sweep in sweeps:
        for detector, m, config in sweep.cells():
            records = []
            for seed in sweep.seeds:
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    record = cli.run_single_trial(config, seed, detector)
                except (NumericalDegeneracyError, ConvergenceError) as exc:
                    out.failures.append(f"{detector} M={m} seed={seed}: {exc}")
                    continue
                finally:
                    seconds = time.perf_counter() - t0
                    slowdown = calibrator.slowdown()
                outcome = outcome_of(record)
                out.timed[outcome.key()] = (seconds, slowdown)
                out.outcomes[outcome.key()] = outcome
                problems = record_problems(outcome, record.mdp_defined and record.fap_defined)
                if problems:
                    out.failures.append(f"{detector} M={m} seed={seed}: {'; '.join(problems)}")
                records.append(record)
            if records:
                row = cli.aggregate(records)
                if sweep.label == "reference":
                    out.reference_rows.append(row_without_runtime(row))
    return out


def timed_passes(workload: Workload, sweeps: list[Sweep], seconds: float) -> list[PassResult]:
    """As many passes as ``seconds`` holds at the nominal pass time; at least one.

    The count depends on ``--seconds`` only, so parent and change time
    the same work.
    """
    count = max(1, int(seconds // workload.pass_seconds))
    dim = sweeps[0].plan.base.window_len
    calibrator = Calibrator(dim, workload.calibration_steps, workload.calibration_s)
    return [serial_pass(sweeps, calibrator) for _ in range(count)]


def tail(values: list[float]) -> tuple[float, float]:
    """The value with ``TAIL_BEYOND`` samples above it, and its percentile;
    the maximum when there are no more samples than that."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def quality(outcomes, sweep: Sweep) -> dict[str, float | None]:
    """Macro MDP and FAP per detector over the reference set's trials."""
    values = {}
    for detector in DETECTORS:
        chosen = [
            outcomes[key]
            for m in sweep.plan.antennas
            for seed in sweep.seeds
            if (key := (detector, m, seed)) in outcomes
        ]
        for name in ("mdp", "fap"):
            values[f"{detector}.{name}"] = (
                statistics.fmean(getattr(o, name) for o in chosen) if chosen else None
            )
    return values


def end_to_end(passes: list[PassResult]) -> tuple[dict, list[float]]:
    """Throughput and trial times, each trial timed by the median of its
    rescaled passes. (The fastest pass would pick up calibration noise.)"""
    rescaled = {
        key: statistics.median(p.timed[key][0] / p.timed[key][1] for p in passes if key in p.timed)
        for key in set().union(*(p.timed for p in passes))
    }
    values = {}
    if rescaled:
        values["trials_per_s"] = len(rescaled) / sum(rescaled.values())
    for detector in DETECTORS:
        chosen = [s for key, s in rescaled.items() if key[0] == detector]
        if chosen:
            values[f"{detector}.trials_per_s"] = len(chosen) / sum(chosen)
    trial_ms = sorted(1e3 * s for s in rescaled.values())
    if trial_ms:
        values["trial_ms_p50"] = statistics.median(trial_ms)
        values["trial_ms_tail"] = tail(trial_ms)[0]
    return values, trial_ms


def measure_setup(workload_name: str) -> list[float]:
    """Seconds from process start to ready-to-run, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload_name],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def verify_sample(sweep: Sweep, outcomes) -> list[str]:
    """Decomposed path on the first reference trial of every cell.

    Adds the checks only a DetectionResult allows, and compares MDP, FAP
    and sweeps with what the timed path reported for the same trial.
    """
    failures = []
    tracer = Tracer()
    seed = sweep.seeds[0]
    for trial, (detector, m, config) in enumerate(sweep.cells()):
        try:
            outcome, problems, _ = decomposed_trial(config, seed, detector, tracer, trial)
        except (NumericalDegeneracyError, ConvergenceError) as exc:
            failures.append(f"verify {detector} M={m} seed={seed}: {exc}")
            continue
        timed = outcomes.get(outcome.key())
        if timed is not None and not outcome.same_detection(timed):
            problems.append(f"decomposed {outcome} differs from timed {timed}")
        if problems:
            failures.append(f"verify {detector} M={m} seed={seed}: {'; '.join(problems)}")
    return failures


# ---------------------------------------------------------------- traced run


def parse_trial_dump(lines: list[str], detector: str, m: int) -> list[tuple[Outcome, bool, float]]:
    """Rows of a per-trial dump, after its header line."""
    rows = []
    for line in lines:
        # final_objective is skipped: the dump writes it as np.float64(...)
        _, seed, mdp, fap, iterations, _, runtime_ms, mdp_def, fap_def = line.split(",")
        outcome = Outcome(detector, m, int(seed), float(mdp), float(fap), int(iterations), None)
        rows.append((outcome, mdp_def == "1" and fap_def == "1", float(runtime_ms)))
    return rows


def pool_pass(sweeps: list[Sweep], out_dir: Path):
    """``run_experiment`` per sweep with a process pool, CSV and per-trial dump.

    Returns the trial outcomes, the summed per-trial ``runtime_ms`` in
    seconds, the wall time, the trials attempted and the failures. A
    raise out of ``run_experiment`` fails the trials of every cell it did
    not finish.
    """
    outcomes, failures = {}, []
    busy_s, attempted = 0.0, 0
    start = time.perf_counter()
    for sweep in sweeps:
        cells = list(sweep.cells())
        csv_path = out_dir / f"{sweep.label}.csv"
        dump_dir = out_dir / f"{sweep.label}_trials"
        rows = []
        attempted += len(cells) * sweep.plan.trials
        try:
            cli.run_experiment(
                sweep.plan, csv_path, per_trial_dir=dump_dir, workers=POOL_WORKERS, progress=rows.append
            )
        except Exception as exc:  # a raise must not end the workload: count it
            traceback.print_exc(file=sys.stderr)
            for detector, m, _ in cells[len(rows):]:
                failures.extend(
                    f"{detector} M={m} seed={seed}: run_experiment raised {exc!r}" for seed in sweep.seeds
                )
        for (detector, m, _), row in zip(cells, rows):
            dump_path = dump_dir / f"trials_{detector}_M{m}.csv"
            lines = dump_path.read_text().splitlines() if dump_path.is_file() else [""]
            if lines[0] != cli.TRIAL_HEADER:
                failures.append(f"{dump_path.name}: missing, or its header is not cli.TRIAL_HEADER")
            dumped = parse_trial_dump(lines[1:], detector, m)
            if row["trials"] != sweep.plan.trials or len(dumped) != sweep.plan.trials:
                failures.append(f"{detector} M={m}: {row['trials']} trials, {len(dumped)} dumped")
            for outcome, defined, runtime_ms in dumped:
                busy_s += runtime_ms / 1e3
                outcomes[outcome.key()] = outcome
                problems = record_problems(outcome, defined)
                if problems:
                    failures.append(f"{detector} M={m} seed={outcome.seed}: {'; '.join(problems)}")
        if len(rows) == len(cells):
            lines = csv_path.read_text().splitlines()
            if lines[0] != cli.CSV_HEADER:
                failures.append(f"{csv_path.name}: header is not cli.CSV_HEADER")
            if len(lines) != len(cells) + 1:
                failures.append(f"{csv_path.name}: {len(lines) - 1} rows, expected {len(cells)}")
    return outcomes, busy_s, time.perf_counter() - start, attempted, failures


def traced_run(sweeps: list[Sweep], out_dir: Path):
    """One serial pass on the decomposed path, cross-checked per trial
    against ``run_single_trial``, then one ``run_experiment`` pass with a
    pool, cross-checked against the serial results."""
    tracer = Tracer()
    failures: list[str] = []
    reference_rows: list[str] = []
    attempted = coord_visits = trial = 0
    untraced_s = 0.0
    sweeps_by_detector = {d: [] for d in DETECTORS}
    outcomes = {}
    for sweep in sweeps:
        for detector, m, config in sweep.cells():
            records = []
            with tracer.span("cell") as cell:
                for seed in sweep.seeds:
                    attempted += 1
                    trial += 1
                    try:
                        outcome, problems, visits = decomposed_trial(config, seed, detector, tracer, trial)
                        t0 = time.perf_counter()
                        record = cli.run_single_trial(config, seed, detector)
                        untraced_s += time.perf_counter() - t0
                    except (NumericalDegeneracyError, ConvergenceError) as exc:
                        failures.append(f"{detector} M={m} seed={seed}: {exc}")
                        continue
                    if not outcome.same_detection(outcome_of(record)):
                        problems.append(f"decomposed {outcome} differs from run_single_trial {record}")
                    if problems:
                        failures.append(f"{detector} M={m} seed={seed}: {'; '.join(problems)}")
                    coord_visits += visits
                    sweeps_by_detector[detector].append(outcome.iterations)
                    outcomes[outcome.key()] = outcome
                    records.append(record)
                if records:
                    with tracer.span("cli.aggregate", None, cell):
                        row = cli.aggregate(records)
                    if sweep.label == "reference":
                        reference_rows.append(row_without_runtime(row))

    pooled, busy_s, pool_wall_s, pool_attempted, pool_failures = pool_pass(sweeps, out_dir)
    attempted += pool_attempted
    failures.extend(pool_failures)
    for key, outcome in pooled.items():
        serial = outcomes.get(key)
        if serial is not None and not outcome.same_detection(serial):
            failures.append(f"workers={POOL_WORKERS} {outcome} differs from serial {serial}")

    spans = tracer.finished()
    own = self_seconds(spans)

    def durations(name):
        return [s.seconds for s in spans if s.name == name]

    def p50(name, scale):
        values = durations(name)
        return statistics.median(values) * scale if values else None

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else None

    trial_s = sum(durations("trial"))
    detect_spans = [s for s in spans if s.name.startswith("detect.")]
    values = {
        "siggen.scenario_us": p50("siggen.scenario", 1e6),
        "siggen.sample_cov_us": p50("siggen.sample_cov", 1e6),
        "siggen.dictionary_us": p50("siggen.dictionary", 1e6),
        "siggen.share": ratio(
            sum(own[s.id] for s in spans if s.name in ("siggen.scenario", "siggen.sample_cov")), trial_s
        ),
        **{f"detect.{d}.solve_ms": p50(f"detect.{d}", 1e3) for d in DETECTORS},
        **{f"detect.{d}.sweeps": statistics.fmean(v) if v else None for d, v in sweeps_by_detector.items()},
        "detect.coord_visits": coord_visits,
        "detect.us_per_coord_visit": ratio(sum(s.seconds for s in detect_spans) * 1e6, coord_visits),
        "detect.share": ratio(sum(own[s.id] for s in detect_spans), trial_s),
        "likelihood.init_state_us": p50("likelihood.init_state", 1e6),
        "likelihood.refresh_us": p50("likelihood.refresh", 1e6),
        "likelihood.objective_us": p50("likelihood.objective", 1e6),
        "likelihood.step_us": p50("likelihood.step", 1e6),
        "metrics.score_us": p50("metrics.score", 1e6),
        "cli.aggregate_us": p50("cli.aggregate", 1e6),
        "cli.worker_util": ratio(busy_s, POOL_WORKERS * pool_wall_s),
        "trace_overhead_frac": ratio(trial_s, untraced_s) - 1.0 if untraced_s else None,
        "trace.unaccounted_frac": ratio(sum(own[s.id] for s in spans if s.name == "trial"), trial_s),
    }
    return values, attempted, failures, tracer, reference_rows


# ---------------------------------------------------------------- entry point


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info,
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
    }


def reference_match(workload_name: str, rows: list[str]) -> str:
    """Compare reference-set rows with the stored ones; informational."""
    try:
        stored = json.loads(REFERENCE_PATH.read_text()).get(workload_name)
    except (OSError, json.JSONDecodeError):
        stored = None
    if stored is None:
        return "no stored reference"
    if stored["rows"] == rows:
        return "match"
    differing = sum(a != b for a, b in zip(stored["rows"], rows)) + abs(len(stored["rows"]) - len(rows))
    return f"differs in {differing} of {len(stored['rows'])} rows"


def format_value(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the config's rng_seed)")
    parser.add_argument("--seconds", type=float, default=30.0, help="nominal length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]

    seed = args.seed
    if seed is None:
        seed = cli.load_experiment(ROOT / workload.config).base.rng_seed
    sweeps = make_sweeps(workload, seed)
    for sweep in sweeps:
        for _, _, config in sweep.cells():
            validate(config)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    out_dir = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    print(f"perfbench {args.workload} seed={seed} trace={args.trace}: {json.dumps(env)}")

    notes = {}
    if args.trace:
        values, attempted, failures, tracer, rows = traced_run(sweeps, out_dir)
        tracer.write(out_dir / "spans.jsonl")
        units = PER_LAYER_UNITS
    else:
        passes = timed_passes(workload, sweeps, args.seconds)
        failures = [f for p in passes for f in p.failures]
        attempted = sum(p.attempted for p in passes)
        first = passes[0]
        for later in passes[1:]:
            for key, outcome in later.outcomes.items():
                if key in first.outcomes and outcome != first.outcomes[key]:
                    failures.append(f"repeat pass differs: {outcome} vs {first.outcomes[key]}")
        failures.extend(verify_sample(sweeps[0], first.outcomes))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        setup = measure_setup(args.workload)
        values, trial_ms = end_to_end(passes)
        values.update(quality(first.outcomes, sweeps[0]))
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = rss_mb
        units = END_TO_END_UNITS
        rows = first.reference_rows
        timed = [t for p in passes for t in p.timed.values()]
        notes = {
            "passes": len(passes),
            "trials": len(trial_ms),
            "trial_ms_tail_percentile": tail(trial_ms)[1] if trial_ms else None,
            "raw_trials_per_s": len(timed) / sum(t[0] for t in timed) if timed else None,
            "slowdown_p50": statistics.median(t[1] for t in timed) if timed else None,
            "setup_s_samples": setup,
        }
    notes["reference"] = reference_match(args.workload, rows)

    for name, unit in units.items():
        extra = ""
        if name == "trial_ms_p50" and notes.get("trials"):
            extra = f"  ({notes['trials']} trials, each the median of {notes['passes']} passes)"
        if name == "trial_ms_tail" and notes.get("trials"):
            extra = f"  (p{notes['trial_ms_tail_percentile']:.1f} of {notes['trials']} trials)"
        print(f"  {name:<28} {format_value(values.get(name)):>14} {unit}{extra}")
    for key in ("raw_trials_per_s", "slowdown_p50"):
        if key in notes:
            print(f"  {key}: {format_value(notes[key])}")
    print(f"  reference rows: {notes['reference']}")
    print(f"  trials attempted: {attempted}, failed: {len(failures)}")
    for line in failures[:20]:
        print(f"  FAILED {line}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": seed, "trace": args.trace,
         "environment": env, "notes": notes, "failures": failures, **result},
        indent=1,
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
