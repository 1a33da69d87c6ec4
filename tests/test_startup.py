"""What every loopstress process starts with."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import loopstress

# A fresh interpreter imports the package the tests run against.
SRC = str(Path(loopstress.__file__).resolve().parent.parent)

PROBE = (
    "import os, loopstress\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)\n"
)


def fresh_import(**env_overrides) -> tuple[str, int]:
    """OPENBLAS_NUM_THREADS and the thread count (-1 if unknown) after
    ``import loopstress`` in a new interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    value, tasks = done.stdout.split()
    return value, int(tasks)


def test_import_pins_openblas_to_one_thread():
    value, tasks = fresh_import()
    assert value == "1"
    if tasks != -1:
        # numpy loaded with no BLAS thread pool beside the main thread.
        assert tasks == 1


def test_a_thread_count_set_by_the_user_wins():
    value, _ = fresh_import(OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_import_builds_and_loads_no_compiled_stepper():
    cache = Path(loopstress.__file__).with_name("__pycache__")
    before = set(cache.glob("*.so"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = "import sys, loopstress; print('subprocess' in sys.modules, loopstress.plants._kernel)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "None"]
    assert set(cache.glob("*.so")) == before
