"""Experiment runner: trial scoring, aggregation, CSV I/O, entry point."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import DEFAULTS, make_config, package_env
from covdet.cli import (
    CSV_HEADER,
    DETECTOR_NAMES,
    ExperimentPlan,
    TrialRecord,
    aggregate,
    load_experiment,
    main,
    run_experiment,
    run_single_trial,
    synchronous_config,
)
from covdet.sysmodel import ConfigError, NumericalDegeneracyError


def micro_config(**overrides):
    """Small enough for dozens of full trials per second."""
    values = dict(
        num_devices=4, num_active=1, preamble_len=8, max_delay=1, num_antennas=4
    )
    values.update(overrides)
    return make_config(**values)


def write_experiment_file(path, config, **sweep):
    data = {k: getattr(config, k) for k in DEFAULTS}
    data.update(sweep)
    path.write_text(json.dumps(data))
    return path


class TestSynchronousConfig:
    def test_window_preserved(self):
        config = make_config(preamble_len=16, max_delay=2)
        sync = synchronous_config(config)
        assert sync.max_delay == 0
        assert sync.preamble_len == 18
        assert sync.window_len == config.window_len

    def test_other_fields_untouched(self):
        config = make_config()
        sync = synchronous_config(config)
        for field in DEFAULTS:
            if field not in ("preamble_len", "max_delay"):
                assert getattr(sync, field) == getattr(config, field)


class TestRunSingleTrial:
    def test_deterministic_given_seed(self):
        config = micro_config()
        a = run_single_trial(config, 777, "cd_e")
        b = run_single_trial(config, 777, "cd_e")
        assert a.mdp == b.mdp
        assert a.fap == b.fap
        assert a.iterations == b.iterations
        assert a.final_objective == b.final_objective

    def test_record_bookkeeping(self):
        config = micro_config()
        record = run_single_trial(config, config.rng_seed + 5, "bcd")
        assert record.detector == "bcd"
        assert record.num_antennas == 4
        assert record.trial == 5
        assert record.seed == config.rng_seed + 5
        assert record.mdp_defined and record.fap_defined
        assert 0.0 <= record.mdp <= 1.0
        assert 0.0 <= record.fap <= 1.0
        assert record.iterations >= 1
        assert record.runtime_ms > 0.0
        assert math.isfinite(record.final_objective)

    def test_sync_benchmark_transforms_whole_trial(self):
        config = micro_config()
        record = run_single_trial(config, 42, "cd_e_sync")
        assert record.detector == "cd_e_sync"
        # the transformed system has the same observation window
        assert record.num_antennas == config.num_antennas
        assert math.isfinite(record.final_objective)

    def test_no_active_devices_leaves_mdp_undefined(self):
        config = micro_config(num_active=0)
        record = run_single_trial(config, 13, "cd_e")
        assert not record.mdp_defined
        assert math.isnan(record.mdp)
        assert record.fap_defined
        assert 0.0 <= record.fap <= 1.0

    def test_unknown_detector_rejected(self):
        with pytest.raises(ConfigError, match="unknown detector"):
            run_single_trial(micro_config(), 0, "oracle")

    def test_failure_context_preserves_type(self, monkeypatch):
        import covdet.cli as cli_module

        def explode(*args, **kwargs):
            raise NumericalDegeneracyError("quadratic form <= 0")

        monkeypatch.setattr(cli_module, "run_cd_e", explode)
        with pytest.raises(NumericalDegeneracyError) as excinfo:
            run_single_trial(micro_config(), 99, "cd_e")
        message = str(excinfo.value)
        assert "trial failed" in message
        assert "detector=cd_e" in message
        assert "seed=99" in message


class TestAggregate:
    def record(self, mdp, fap, iterations=3, runtime=1.0):
        return TrialRecord(
            detector="cd_e",
            num_antennas=8,
            trial=0,
            seed=0,
            mdp=mdp,
            fap=fap,
            mdp_defined=not math.isnan(mdp),
            fap_defined=not math.isnan(fap),
            iterations=iterations,
            final_objective=0.0,
            runtime_ms=runtime,
        )

    def test_matches_sample_statistics(self):
        mdps = [0.0, 0.5, 1.0, 0.25]
        rows = [self.record(m, 0.1) for m in mdps]
        out = aggregate(rows)
        assert out["detector"] == "cd_e"
        assert out["M"] == 8
        assert out["trials"] == 4
        assert out["mdp_mean"] == pytest.approx(np.mean(mdps))
        assert out["mdp_stderr"] == pytest.approx(np.std(mdps, ddof=1) / 2.0)
        assert out["fap_mean"] == pytest.approx(0.1)
        assert out["fap_stderr"] == pytest.approx(0.0)

    def test_single_trial_has_zero_stderr(self):
        out = aggregate([self.record(0.5, 0.2)])
        assert out["mdp_mean"] == 0.5
        assert out["mdp_stderr"] == 0.0

    def test_nan_entries_are_skipped(self):
        rows = [self.record(math.nan, 0.0), self.record(0.5, 1.0)]
        out = aggregate(rows)
        assert out["mdp_mean"] == 0.5
        assert out["mdp_stderr"] == 0.0
        assert out["fap_mean"] == 0.5
        assert out["trials"] == 2

    def test_all_undefined_yields_nan(self):
        out = aggregate([self.record(math.nan, 0.0)] * 3)
        assert math.isnan(out["mdp_mean"])
        assert math.isnan(out["mdp_stderr"])


class TestRunExperiment:
    def plan(self, trials=2):
        return ExperimentPlan(
            base=micro_config(),
            detectors=("cd_e", "bcd", "cd_e_sync"),
            antennas=(2, 4),
            trials=trials,
        )

    def test_row_grid_and_header(self, tmp_path):
        out = tmp_path / "results.csv"
        rows = run_experiment(self.plan(), out)
        assert len(rows) == 6
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        # detector-major ordering, antennas inner
        cells = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert cells == [
            ("cd_e", "2"), ("cd_e", "4"),
            ("bcd", "2"), ("bcd", "4"),
            ("cd_e_sync", "2"), ("cd_e_sync", "4"),
        ]

    def test_deterministic_modulo_runtime(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_experiment(self.plan(), first)
        run_experiment(self.plan(), second)
        a_lines = first.read_text().splitlines()
        b_lines = second.read_text().splitlines()
        assert len(a_lines) == len(b_lines)
        for a, b in zip(a_lines, b_lines):
            assert a.split(",")[:-1] == b.split(",")[:-1]

    def test_detectors_face_identical_scenarios(self, tmp_path):
        out = tmp_path / "results.csv"
        dump = tmp_path / "trials"
        run_experiment(self.plan(), out, per_trial_dir=dump)
        seed_columns = {}
        for detector in ("cd_e", "bcd"):
            lines = (dump / f"trials_{detector}_M2.csv").read_text().splitlines()
            seed_columns[detector] = [line.split(",")[1] for line in lines[1:]]
        assert seed_columns["cd_e"] == seed_columns["bcd"]

    def test_per_trial_dump_reaggregates_to_row(self, tmp_path):
        out = tmp_path / "results.csv"
        dump = tmp_path / "trials"
        rows = run_experiment(self.plan(trials=4), out, per_trial_dir=dump)
        row = next(r for r in rows if r["detector"] == "bcd" and r["M"] == 4)
        lines = (dump / "trials_bcd_M4.csv").read_text().splitlines()
        assert len(lines) == 5
        mdps = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert row["mdp_mean"] == pytest.approx(np.mean(mdps))
        assert row["mdp_stderr"] == pytest.approx(
            np.std(mdps, ddof=1) / math.sqrt(len(mdps))
        )

    def test_dumped_final_objective_is_a_plain_float(self, tmp_path):
        dump = tmp_path / "trials"
        run_experiment(self.plan(trials=4), tmp_path / "r.csv", per_trial_dir=dump)
        for detector in ("cd_e", "bcd"):
            for m in (2, 4):
                lines = (dump / f"trials_{detector}_M{m}.csv").read_text().splitlines()
                for line in lines[1:]:
                    assert math.isfinite(float(line.split(",")[5]))

    def test_csv_independent_of_workers(self, tmp_path):
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        run_experiment(self.plan(trials=3), serial)
        run_experiment(self.plan(trials=3), pooled, workers=2)
        serial_lines = serial.read_text().splitlines()
        pooled_lines = pooled.read_text().splitlines()
        assert len(serial_lines) == len(pooled_lines)
        for a, b in zip(serial_lines, pooled_lines):
            assert a.split(",")[:-1] == b.split(",")[:-1]

    def test_progress_callback_sees_every_row(self, tmp_path):
        seen = []
        rows = run_experiment(
            self.plan(), tmp_path / "r.csv", progress=seen.append
        )
        assert seen == rows


class TestLoadExperiment:
    def test_round_trip_with_sweep_keys(self, tmp_path):
        config = micro_config()
        path = write_experiment_file(
            tmp_path / "exp.json", config,
            detectors=["bcd"], antennas=[2, 8], trials=7,
        )
        plan = load_experiment(path)
        assert plan.base == config
        assert plan.detectors == ("bcd",)
        assert plan.antennas == (2, 8)
        assert plan.trials == 7

    def test_sweep_defaults(self, tmp_path):
        config = micro_config()
        path = write_experiment_file(tmp_path / "exp.json", config)
        plan = load_experiment(path)
        assert plan.detectors == ("cd_e", "bcd")
        assert plan.antennas == (config.num_antennas,)
        assert plan.trials == 1000

    def test_overrides_win_over_file(self, tmp_path):
        config = micro_config()
        path = write_experiment_file(
            tmp_path / "exp.json", config,
            detectors=["bcd"], antennas=[2], trials=7,
        )
        plan = load_experiment(
            path,
            {"detectors": ["cd_e"], "antennas": [16], "trials": 3, "seed": 999},
        )
        assert plan.detectors == ("cd_e",)
        assert plan.antennas == (16,)
        assert plan.trials == 3
        assert plan.base.rng_seed == 999

    def test_none_overrides_fall_through(self, tmp_path):
        config = micro_config()
        path = write_experiment_file(tmp_path / "exp.json", config, trials=5)
        plan = load_experiment(
            path, {"detectors": None, "antennas": None, "trials": None, "seed": None}
        )
        assert plan.trials == 5
        assert plan.base.rng_seed == config.rng_seed

    def test_unknown_config_key_rejected(self, tmp_path):
        config = micro_config()
        path = write_experiment_file(tmp_path / "exp.json", config, snr_db=10)
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_experiment(path)

    def test_missing_config_key_rejected(self, tmp_path):
        config = micro_config()
        data = {k: getattr(config, k) for k in DEFAULTS}
        del data["preamble_len"]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="missing config keys"):
            load_experiment(path)

    def test_unknown_detector_rejected(self, tmp_path):
        path = write_experiment_file(
            tmp_path / "exp.json", micro_config(), detectors=["amp"]
        )
        with pytest.raises(ConfigError, match="unknown detector"):
            load_experiment(path)

    def test_bad_antenna_and_trial_counts(self, tmp_path):
        path = write_experiment_file(tmp_path / "exp.json", micro_config())
        for antennas in ([0], []):
            with pytest.raises(ConfigError, match="antenna"):
                load_experiment(path, {"antennas": antennas})
        for trials in (-2, 0):
            with pytest.raises(ConfigError, match="trials"):
                load_experiment(path, {"trials": trials})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_experiment(path)

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="single JSON object"):
            load_experiment(path)


class TestMain:
    def test_run_writes_csv_and_exits_zero(self, tmp_path, capsys):
        path = write_experiment_file(tmp_path / "exp.json", micro_config())
        out = tmp_path / "results.csv"
        code = main([
            "run", "--config", str(path), "--out", str(out),
            "--detectors", "cd_e", "--antennas", "2", "--trials", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert f"wrote {out} (1 rows)" in captured.out
        assert "cd_e" in captured.out
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main([
            "run", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_detector_exits_two(self, tmp_path, capsys):
        path = write_experiment_file(tmp_path / "exp.json", micro_config())
        code = main([
            "run", "--config", str(path), "--out", str(tmp_path / "r.csv"),
            "--detectors", "amp",
        ])
        assert code == 2
        assert "unknown detector" in capsys.readouterr().err

    def test_zero_workers_exits_two(self, tmp_path, capsys):
        path = write_experiment_file(tmp_path / "exp.json", micro_config())
        out = tmp_path / "r.csv"
        code = main([
            "run", "--config", str(path), "--out", str(out), "--workers", "0",
        ])
        assert code == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_all_detector_names_are_runnable(self, tmp_path):
        path = write_experiment_file(tmp_path / "exp.json", micro_config())
        out = tmp_path / "results.csv"
        code = main([
            "run", "--config", str(path), "--out", str(out),
            "--detectors", ",".join(DETECTOR_NAMES),
            "--antennas", "2", "--trials", "1",
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + len(DETECTOR_NAMES)

    @pytest.mark.parametrize("module", ["covdet", "covdet.cli"])
    def test_module_form_runs_without_warning(self, module):
        # a module form must not run a module that `import covdet` has
        # already loaded, or runpy prints a RuntimeWarning
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, env=package_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "usage: covdet" in proc.stdout
