"""Every demo runs standalone against the package as it stands."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    # TMPDIR keeps the files a demo writes under tempfile inside tmp_path
    env = {**package_env(), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
