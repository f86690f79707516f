"""Monte Carlo experiment runner.

Sweeps detectors and antenna counts over seeded independent trials,
aggregates missed-detection and false-alarm rates with standard errors,
and writes a CSV. Every trial draws its scenario from its own seed, so
any row is reproducible from (config, seed) alone.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .detect import run_bcd, run_cd_e
from .metrics import compute_fap, compute_mdp
from .siggen import draw_scenario, sample_covariance
from .sysmodel import (
    ConfigError,
    ConvergenceError,
    NumericalDegeneracyError,
    SystemConfig,
    config_from_dict,
    is_int,
    synchronous_config,
)

DETECTOR_NAMES = ("cd_e", "bcd", "cd_e_sync")

CSV_HEADER = "detector,M,trials,mdp_mean,mdp_stderr,fap_mean,fap_stderr,mean_iterations"

TRIAL_HEADER = (
    "trial,seed,mdp,fap,iterations,final_objective,runtime_ms,"
    "mdp_defined,fap_defined"
)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one detector run on one synthesized scenario."""

    detector: str
    num_antennas: int
    trial: int
    seed: int
    mdp: float  # NaN when undefined (no active devices)
    fap: float  # NaN when undefined (no inactive devices)
    iterations: int
    final_objective: float
    runtime_ms: float

    @property
    def mdp_defined(self) -> bool:
        return not math.isnan(self.mdp)

    @property
    def fap_defined(self) -> bool:
        return not math.isnan(self.fap)


def _check_detector(name) -> None:
    if name not in DETECTOR_NAMES:
        raise ConfigError(f"unknown detector {name!r}, expected one of {DETECTOR_NAMES}")


@dataclass(frozen=True)
class ExperimentPlan:
    """A full sweep, valid by construction: ``detectors`` is a non-empty
    tuple of distinct known names, ``antennas`` a non-empty tuple of
    distinct counts that each give a valid system with ``base``, and
    ``trials`` a positive integer; ``ConfigError`` otherwise.
    """

    base: SystemConfig
    detectors: tuple[str, ...]
    antennas: tuple[int, ...]
    trials: int

    def __post_init__(self):
        if not (isinstance(self.detectors, tuple) and self.detectors
                and all(isinstance(name, str) for name in self.detectors)):
            raise ConfigError(
                f"detectors must be a non-empty tuple of names, got {self.detectors!r}"
            )
        for name in self.detectors:
            _check_detector(name)
        # a repeated cell would run twice, with a second CSV row and dump
        if len(set(self.detectors)) < len(self.detectors):
            raise ConfigError(f"detectors must not repeat, got {self.detectors!r}")
        if not (isinstance(self.antennas, tuple) and self.antennas):
            raise ConfigError(
                f"antennas must be a non-empty tuple of counts, got {self.antennas!r}"
            )
        for m in self.antennas:
            dataclasses.replace(self.base, num_antennas=m)  # built only to validate it
        if len(set(self.antennas)) < len(self.antennas):
            raise ConfigError(f"antennas must not repeat, got {self.antennas!r}")
        if not (is_int(self.trials) and self.trials >= 1):
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")


def run_single_trial(config: SystemConfig, seed: int, detector: str) -> TrialRecord:
    """Generate one scenario from ``seed`` and score one detector on it."""
    _check_detector(detector)
    cfg = synchronous_config(config) if detector == "cd_e_sync" else config
    runner = run_bcd if detector == "bcd" else run_cd_e
    preambles, truth, received = draw_scenario(cfg, seed)
    sigma_tilde = sample_covariance(received)
    start = time.perf_counter()
    try:
        result = runner(preambles, sigma_tilde, cfg)
    except (NumericalDegeneracyError, ConvergenceError) as exc:
        raise type(exc)(
            f"trial failed (detector={detector}, M={cfg.num_antennas}, "
            f"seed={seed}): {exc}"
        ) from exc
    runtime_ms = (time.perf_counter() - start) * 1e3
    mdp_defined = truth.num_active > 0
    fap_defined = cfg.num_devices > truth.num_active
    return TrialRecord(
        detector=detector,
        num_antennas=cfg.num_antennas,
        trial=seed - config.rng_seed,
        seed=seed,
        mdp=compute_mdp(result, truth) if mdp_defined else math.nan,
        fap=compute_fap(result, truth, cfg.num_devices) if fap_defined else math.nan,
        iterations=result.iterations,
        final_objective=result.final_objective,
        runtime_ms=runtime_ms,
    )


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Macro mean and standard error over the defined (non-NaN) entries."""
    defined = values[~np.isnan(values)]
    if defined.size == 0:
        return math.nan, math.nan
    if defined.size == 1:
        return float(defined[0]), 0.0
    return (
        float(np.mean(defined)),
        float(np.std(defined, ddof=1) / math.sqrt(defined.size)),
    )


def aggregate(records: list[TrialRecord]) -> dict:
    """A (detector, M) cell's CSV row fields, plus ``mean_runtime_ms``:
    wall time, which the CSV leaves out to hold only deterministic bytes."""
    mdp_mean, mdp_stderr = _mean_stderr(np.array([r.mdp for r in records]))
    fap_mean, fap_stderr = _mean_stderr(np.array([r.fap for r in records]))
    return {
        "detector": records[0].detector,
        "M": records[0].num_antennas,
        "trials": len(records),
        "mdp_mean": mdp_mean,
        "mdp_stderr": mdp_stderr,
        "fap_mean": fap_mean,
        "fap_stderr": fap_stderr,
        "mean_iterations": float(np.mean([r.iterations for r in records])),
        "mean_runtime_ms": float(np.mean([r.runtime_ms for r in records])),
    }


def _csv_line(values) -> str:
    """One CSV line: a str as is, a bool as 0 or 1, any other value by repr."""
    return ",".join(
        value if isinstance(value, str)
        else str(int(value)) if isinstance(value, bool)
        else repr(value)
        for value in values
    )


def _write_lines(path: Path, header: str, lines: list[str]) -> None:
    """Write a sibling temporary file, then move it over ``path``."""
    temporary = path.with_name(f"{path.name}.tmp")
    temporary.write_text("\n".join([header, *lines]) + "\n")
    os.replace(temporary, path)


def _pin_blas() -> None:
    """Set one thread in the OpenBLAS copies that the scipy and numpy
    wheels bundle, loaded by file, so that a run's results do not depend
    on ``OPENBLAS_NUM_THREADS``. A copy or setter not found is skipped."""
    import ctypes

    import scipy

    for package, setter in ((scipy, "scipy_openblas_set_num_threads"),
                            (np, "scipy_openblas_set_num_threads64_")):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in libs.glob("libscipy_openblas*"):
            function = getattr(ctypes.CDLL(str(path)), setter, None)
            if function is not None:
                function(1)


def run_experiment(
    plan: ExperimentPlan,
    out_path,
    per_trial_dir=None,
    workers: int = 1,
    progress=None,
) -> list[dict]:
    """Run the full sweep and write the aggregate CSV.

    Rows are detector-major, antennas inner, and every cell uses the seeds
    base_seed + trial. After each cell the CSV and the cell's dump are
    replaced atomically, so a trial that raises keeps the finished cells;
    then ``progress``, if given, is called with the row. Returns the
    aggregate rows. Before the first trial, raises ``ConfigError`` for
    ``workers`` that is not a positive integer or an ``out_path`` that is
    a directory or has none, and ``OSError`` when ``per_trial_dir`` cannot
    be made. At most ``min(workers, plan.trials, cpus)`` worker processes
    start, none when that is 1, where ``cpus`` counts the CPUs this
    process may run on; the results do not depend on the count. Nor on
    ``OPENBLAS_NUM_THREADS``: the run sets one BLAS thread in its own
    process and in each worker.
    """
    if not (is_int(workers) and workers >= 1):
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    out_path = Path(out_path)
    if not out_path.parent.is_dir():
        raise ConfigError(f"output directory {out_path.parent} does not exist")
    if out_path.is_dir():
        raise ConfigError(f"output path {out_path} is a directory")
    if per_trial_dir is not None:
        per_trial_dir = Path(per_trial_dir)
        per_trial_dir.mkdir(parents=True, exist_ok=True)
    seeds = [plan.base.rng_seed + t for t in range(plan.trials)]
    rows, lines = [], []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, plan.trials, cpus or 1)
    _pin_blas()
    pool = contextlib.nullcontext()
    if workers > 1:
        # imported here, so that a serial run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, initializer=_pin_blas)
    with pool:
        # map preserves task order, so merging is by trial index;
        # about four chunks per worker keeps every worker busy
        # on small cells and the hand-off cost low on big ones
        trials = map if workers == 1 else partial(
            pool.map, chunksize=max(1, len(seeds) // (4 * workers))
        )
        for detector in plan.detectors:
            for m in plan.antennas:
                config = dataclasses.replace(plan.base, num_antennas=m)
                records = list(trials(run_single_trial, repeat(config), seeds, repeat(detector)))
                row = aggregate(records)
                rows.append(row)
                lines.append(_csv_line(row[name] for name in CSV_HEADER.split(",")))
                _write_lines(out_path, CSV_HEADER, lines)
                if per_trial_dir is not None:
                    _write_lines(
                        per_trial_dir / f"trials_{detector}_M{m}.csv",
                        TRIAL_HEADER,
                        [_csv_line(getattr(r, name) for name in TRIAL_HEADER.split(","))
                         for r in records],
                    )
                if progress is not None:
                    progress(row)
    return rows


def load_experiment(path, overrides: dict | None = None) -> ExperimentPlan:
    """Parse a JSON experiment file plus optional override values.

    The UTF-8 file holds every system field and optional sweep keys
    (``detectors``, ``antennas``, ``trials``). Overrides win over the file,
    and a ``seed`` override replaces ``rng_seed``. Raises ``ConfigError``
    for a file that is not one JSON object, and, through the constructors,
    for a value that breaks their rules.
    """
    overrides = dict(overrides or {})
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("experiment file must hold a single JSON object")
    sweep_keys = {"detectors", "antennas", "trials"}
    sweep = {k: data.pop(k) for k in list(data) if k in sweep_keys}
    if overrides.get("seed") is not None:
        data["rng_seed"] = overrides["seed"]
    config = config_from_dict(data)

    def pick(key, default):
        value = overrides.get(key)
        value = value if value is not None else sweep.get(key, default)
        return tuple(value) if isinstance(value, list) else value

    return ExperimentPlan(
        base=config,
        detectors=pick("detectors", ["cd_e", "bcd"]),
        antennas=pick("antennas", [config.num_antennas]),
        trials=pick("trials", 1000),
    )


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_name_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def main(argv=None) -> int:
    """``covdet run``: exit 0, or 2 for bad input and 1 for a failed trial."""
    parser = argparse.ArgumentParser(
        prog="covdet",
        description="Monte Carlo benchmarks for covariance-based activity "
        "and delay detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment sweep and write a CSV")
    run.add_argument("--config", required=True, help="JSON experiment file")
    run.add_argument(
        "--detectors",
        type=_parse_name_list,
        default=None,
        help=f"comma-separated subset of {','.join(DETECTOR_NAMES)}",
    )
    run.add_argument(
        "--antennas",
        type=_parse_int_list,
        default=None,
        help="comma-separated antenna counts, e.g. 2,4,8,16,32,64",
    )
    run.add_argument("--trials", type=int, default=None, help="trials per cell")
    run.add_argument("--seed", type=int, default=None, help="base seed override")
    run.add_argument("--out", default="results.csv", help="aggregate CSV path")
    run.add_argument(
        "--per-trial-dump",
        default=None,
        metavar="DIR",
        help="also write one per-trial CSV per (detector, M) cell",
    )
    run.add_argument(
        "--workers", type=int, default=1,
        help="parallel trial workers, capped at trials and at the CPUs the run may use",
    )
    args = parser.parse_args(argv)

    overrides = {
        "detectors": args.detectors,
        "antennas": args.antennas,
        "trials": args.trials,
        "seed": args.seed,
    }

    def progress(row: dict) -> None:
        print(
            f"{row['detector']:>9} M={row['M']:<4d} "
            f"mdp={row['mdp_mean']:.4f} fap={row['fap_mean']:.4f} "
            f"({row['trials']} trials, {row['mean_iterations']:.1f} sweeps avg, "
            f"{row['mean_runtime_ms']:.2f} ms/trial)",
            flush=True,
        )

    try:
        plan = load_experiment(args.config, overrides)
        rows = run_experiment(
            plan,
            args.out,
            per_trial_dir=args.per_trial_dump,
            workers=args.workers,
            progress=progress,
        )
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalDegeneracyError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
