"""What every loopstress process starts with, and what each stage loads."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import loopstress

# A fresh interpreter imports the package the tests run against.
SRC = str(Path(loopstress.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parents[1]

PROBE = (
    "import os, loopstress.analysis\n"  # a module that loads numpy

    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1\n"
    "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)\n"
)


def fresh_run(code: str, *args: str, **env_overrides) -> str:
    """The stdout of ``code`` run with ``args`` by a new interpreter that
    imports the package under test."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def fresh_import(**env_overrides) -> tuple[str, int]:
    """OPENBLAS_NUM_THREADS and the thread count (-1 if unknown) after
    ``import loopstress.analysis``, which loads numpy, in a new interpreter."""
    value, tasks = fresh_run(PROBE, **env_overrides).split()
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
    code = "import sys, loopstress.plants as p; print('subprocess' in sys.modules, p._kernel)"
    assert fresh_run(code).split() == ["False", "None"]
    assert set(cache.glob("*.so")) == before


# Runs ``loopstress`` with each JSON list of arguments given, in turn, and
# prints, as its last line, the package modules and numpy that ``import
# loopstress`` loaded, the exit codes, and the modules loaded at the end.
STAGES = """\
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("loopstress.") or m == "numpy")
import loopstress
imported = loaded()
from loopstress import cli
codes = [cli.main(json.loads(argv)) for argv in sys.argv[1:]]
print(json.dumps([imported, codes, loaded()]))
"""


def stages_loading(*argvs) -> tuple[list, list, list]:
    return tuple(json.loads(fresh_run(STAGES, *map(json.dumps, argvs)).splitlines()[-1]))


def test_each_stage_loads_only_the_modules_it_runs(tmp_path):
    config, out = str(ROOT / "configs" / "drone_desk.json"), str(tmp_path)
    bound, generate, run, analyze = (
        [stage, "--config", config, "--out", out]
        for stage in ("bound", "generate", "run", "analyze")
    )
    imported, codes, loaded = stages_loading(bound, generate, run)
    assert imported == []  # not even numpy
    assert codes == [0, 0, 0]
    assert {"loopstress.campaign", "loopstress.plants"} <= set(loaded)
    assert "loopstress.analysis" not in loaded
    _, codes, loaded = stages_loading(analyze)
    assert codes == [0]
    assert "loopstress.analysis" in loaded
    assert not {"loopstress.campaign", "loopstress.plants", "loopstress.spectral"} & set(loaded)


# What ``loopstress`` exported before its names were made lazy, and
# ``ResultColumns``: each must stay, as the object that its defining module
# holds.
PUBLIC_NAMES = (
    "AmplitudeBoundMap", "BandwidthEstimate", "BandwidthStatus", "BoundRefinementError",
    "CampaignConfig", "Component", "ComponentSet", "ConfigError", "GeneratedTest",
    "InstrumentationLog", "MrViolation", "NonlinearBlock", "PlantRun", "PlantSpec",
    "RequiredInput", "ResultColumns", "SamplingError", "ScopeClass", "ShapeKind", "Spectrum",
    "TestCase", "TestResult", "TestSet", "Trace", "actuator_saturation", "backlash",
    "binary_search_upperbound", "calibration_curve", "check_mr1", "check_mr2", "check_mr3",
    "classify_scope", "coulomb_friction", "dc_servo_spec", "dead_zone", "degree_of_nonlinearity",
    "derive_frequency_resolution", "dft_amplitude", "dof_profile", "drone_spec",
    "estimate_bandwidth", "eval_shape", "execute_campaign", "export_plot_data", "fa_map",
    "generate_test_set", "load_config", "optimistic_amplitude_bound", "pick_num_periods",
    "quadratic_friction", "quantizer", "render_reference", "run_plant", "sensor_saturation",
    "snap_time_gain",
)


def test_the_public_names_stay_and_are_their_modules_objects():
    assert len(set(PUBLIC_NAMES)) == 55
    names = dir(loopstress)
    for name in PUBLIC_NAMES:
        value = getattr(loopstress, name)
        assert vars(sys.modules[value.__module__])[name] is value, name
        assert name in names
    with pytest.raises(AttributeError, match="no_such_name"):
        loopstress.no_such_name
    # A submodule read as an attribute is imported.
    assert fresh_run("import loopstress; print(loopstress.plants.__name__)").split() == [
        "loopstress.plants"
    ]


def test_the_readmes_library_import_line_runs():
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    import_line = snippet.split("\n\n", 1)[0]
    assert import_line.startswith("from loopstress import (")
    namespace: dict = {}
    exec(import_line, namespace)
    assert namespace["RequiredInput"] is loopstress.RequiredInput
