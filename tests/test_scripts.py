"""The experiment scripts run to completion on small inputs."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopstress

ROOT = Path(__file__).resolve().parent.parent
# The scripts import the package the tests run against.
SRC = str(Path(loopstress.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "script, args",
    [
        # Checks every lane against run_plant bit for bit before timing.
        ("bench_sim.py", ["--steps", "50", "--repeats", "1"]),
        ("reproduce_square_regimes.py", ["--periods", "2"]),
    ],
)
def test_script_exits_cleanly(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
