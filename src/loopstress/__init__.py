"""Stress testing of control loops via frequency/amplitude-parametrised tests.

The package identifies the *design scope* of a closed control loop: the
region of periodic reference signals (by shape, frequency and amplitude)
the loop handles linearly, the region where it degrades, and the region
where its behaviour breaks down.  Tests are scored in the frequency domain
(degree of non-linearity, degree of filtering), campaigns are planned by an
amplitude-bound search plus randomised generation, and results are checked
against metamorphic relations that link test harshness to the scores.
"""

import os

# loopstress calls no BLAS routine, yet ``import numpy`` starts an OpenBLAS
# thread pool whose idle threads spin on every core.  One thread is enough.
# This must run before any submodule imports numpy; a value the user has
# set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    BandwidthEstimate,
    BandwidthStatus,
    MrViolation,
    ScopeClass,
    check_mr1,
    check_mr2,
    check_mr3,
    classify_scope,
    estimate_bandwidth,
    export_plot_data,
)
from .campaign import (
    AmplitudeBoundMap,
    BoundRefinementError,
    Component,
    GeneratedTest,
    RequiredInput,
    SamplingError,
    TestResult,
    TestSet,
    binary_search_upperbound,
    calibration_curve,
    derive_frequency_resolution,
    execute_campaign,
    generate_test_set,
    optimistic_amplitude_bound,
    pick_num_periods,
)
from .config import CampaignConfig, ConfigError, load_config
from .plants import (
    InstrumentationLog,
    NonlinearBlock,
    PlantRun,
    PlantSpec,
    actuator_saturation,
    backlash,
    coulomb_friction,
    dc_servo_spec,
    dead_zone,
    drone_spec,
    quadratic_friction,
    quantizer,
    run_plant,
    sensor_saturation,
)
from .signals import (
    ShapeKind,
    TestCase,
    eval_shape,
    render_reference,
    snap_time_gain,
)
from .spectral import (
    ComponentSet,
    Spectrum,
    Trace,
    degree_of_nonlinearity,
    dft_amplitude,
    dof_profile,
    fa_map,
)

__version__ = "0.1.0"
