"""The scripts under scripts/ run to completion on the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("analyze_models.py", ["--skip-slow"]),
    ("convergence_study.py", []),
])
def test_script_exits_zero(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
