"""The demo scripts run to completion against the library in src/.

Each demo runs as its own process with RuntimeWarnings as errors, in a
scratch working directory, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ORDROBUST_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    # an empty glob would leave test_demo_runs with no cases at all
    assert DEMOS
