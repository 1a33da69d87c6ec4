"""Stress testing of control loops via frequency/amplitude-parametrised tests.

The package identifies the *design scope* of a closed control loop: the
region of periodic reference signals (by shape, frequency and amplitude)
the loop handles linearly, the region where it degrades, and the region
where its behaviour breaks down.  Tests are scored in the frequency domain
(degree of non-linearity, degree of filtering), campaigns are planned by an
amplitude-bound search plus randomised generation, and results are checked
against metamorphic relations that link test harshness to the scores.
"""

import importlib
import os

# loopstress calls no BLAS routine, yet ``import numpy`` starts an OpenBLAS
# thread pool whose idle threads spin on every core.  One thread is enough.
# This must run before any submodule imports numpy; a value the user has
# set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each public name and the module that defines it.  ``import loopstress``
# loads none of them: a name, or a submodule read as an attribute, is
# imported at its first lookup (PEP 562), so a process compiles only the
# modules that its stage uses.
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": "BandwidthEstimate BandwidthStatus ScopeClass check_mr1 check_mr2 check_mr3"
                    " classify_scope estimate_bandwidth export_plot_data",
        "campaign": "binary_search_upperbound calibration_curve derive_frequency_resolution"
                    " execute_campaign generate_test_set optimistic_amplitude_bound"
                    " pick_num_periods",
        "config": "CampaignConfig ConfigError load_config",
        "plants": "InstrumentationLog PlantRun run_plant",
        "records": "AmplitudeBoundMap BoundRefinementError Component GeneratedTest MrViolation"
                   " NonlinearBlock PlantSpec RequiredInput SamplingError TestResult TestSet"
                   " actuator_saturation backlash coulomb_friction dc_servo_spec dead_zone"
                   " drone_spec quadratic_friction quantizer sensor_saturation",
        "signals": "ShapeKind TestCase eval_shape render_reference snap_time_gain",
        "spectral": "ComponentSet Spectrum Trace degree_of_nonlinearity dft_amplitude dof_profile"
                    " fa_map",
    }.items()
    for name in names.split()
}
_SUBMODULES = {"cli", "persist", *_EXPORTS.values()}

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name in _EXPORTS:
        value = globals()[name] = getattr(value, name)  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
