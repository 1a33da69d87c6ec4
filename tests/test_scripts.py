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
from loopstress import cli

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


def test_traced_checkers_count_the_violations_of_the_report(tmp_path):
    # perfbench/tracer.py counts a span's violations with len() of what
    # check_mr1 and check_mr2 return, and reads each result's shape: the
    # counts of a traced analyze must be the report's.
    config = str(ROOT / "configs" / "drone_desk.json")
    assert cli.main(["campaign", "--config", config, "--out", str(tmp_path / "run")]) == 0
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    report = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--report", str(report),
         "--trace", "--", "analyze", "--config", config,
         "--results", str(tmp_path / "run" / "results.jsonl"), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(report.read_text())["spans"]
    counts = {name: c["violations"] for name, _, _, _, c in spans
              if name in ("analysis.mr1", "analysis.mr2")}
    mr_report = json.loads((tmp_path / "out" / "mr_report.json").read_text())
    assert counts == {"analysis.mr1": mr_report["mr1"]["count"],
                      "analysis.mr2": mr_report["mr2"]["count"]}
    assert counts["analysis.mr1"] > 0 and counts["analysis.mr2"] > 0
