"""Every demo, and README's Library example, runs standalone against the
package as it stands, on the package root that README documents."""

import subprocess
import sys
from pathlib import Path

import pytest

import covdet
from conftest import package_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def library_example() -> str:
    """The first ```python block in README's "## Library" section."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", [*DEMOS, None], ids=lambda p: p.stem if p else "README-library")
def test_demo_runs_cleanly(demo, tmp_path):
    if demo is None:  # README's Library example
        demo = tmp_path / "library.py"
        demo.write_text(library_example())
    # TMPDIR keeps the files a demo writes under tempfile inside tmp_path
    env = {**package_env(), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


def test_package_root_is_the_documented_api():
    # the scenario, detector, metrics and error names, and the covariance
    # builder demo 01 uses; the coordinate kernel stays in covdet.likelihood
    assert sorted(covdet.__all__) == [
        "ConfigError", "ConvergenceError", "NumericalDegeneracyError", "SystemConfig",
        "assemble_covariance", "compute_fap", "compute_mdp", "draw_ground_truth",
        "draw_scenario", "effective_dictionary", "generate_preambles", "run_bcd", "run_cd_e",
        "sample_covariance", "synthesize_received_signal",
    ]
    assert all(hasattr(covdet, name) for name in covdet.__all__)
