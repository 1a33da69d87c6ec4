"""The experiment scripts run to completion on small inputs."""
from __future__ import annotations

import importlib.util
import json
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
        # Checks the compiled stepper against _simulate, and each lane against
        # a one-lane call, bit for bit before timing.
        ("bench_sim.py", ["--steps", "50", "--repeats", "1"]),
        ("reproduce_square_regimes.py", ["--periods", "2"]),
    ],
)
def test_script_exits_cleanly(script, args):
    done = run_script(script, args)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_bench_sim_times_both_steppers_per_model_and_block_set():
    done = run_script("bench_sim.py", ["--steps", "20", "--repeats", "1"])
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert [(r["model"], r["blocks"]) for r in rows[:6]] == [
        ("drone_alt", b) for b in ("plain", "dead_zone", "backlash", "coulomb", "quadratic", "all")
    ]
    assert len(rows) == 12
    for row in rows:
        assert row["kernel_us_per_step"] > 0 and row["simulate_us_per_step"] > 0
        assert list(row["lanes_us_per_lane_step"]) == ["1", "2", "4", "8"]
        assert all(us > 0 for us in row["lanes_us_per_lane_step"].values())


@pytest.mark.parametrize("script", ["bench_sim.py"])
@pytest.mark.parametrize(
    "args, says",
    [(["--steps", "1"], "--steps must be at least 2"),
     (["--repeats", "0"], "--repeats must be at least 1")],
    ids=["one-step", "no-repeats"],
)
def test_bench_scripts_reject_too_few_steps_or_repeats(script, args, says):
    done = run_script(script, args)
    assert done.returncode == 2
    assert says in done.stderr
    assert not done.stdout


def test_the_tracer_finds_every_function_it_wraps(monkeypatch):
    # perfbench/tracer.py wraps functions at the names their callers look
    # them up by, so a name the package no longer calls must stay there.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leaves perfbench/ as it is
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [
        (module.__name__, attr) for module, attr, *_ in tracer.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
