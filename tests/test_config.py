"""Campaign configuration parsing and validation."""
from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopstress.config import (
    CONFIG_VERSION,
    DEFAULT_SHAPES,
    CampaignConfig,
    ConfigError,
    config_from_dict,
    load_config,
)
from loopstress.campaign import RequiredInput
from loopstress.plants import drone_spec
from loopstress.signals import ShapeKind

from conftest import JSON_VALUES


def minimal_raw():
    return {
        "schema_version": CONFIG_VERSION,
        "f_min": 0.5,
        "f_max": 1.0,
        "a_max": 1.5,
        "delta_a": 0.5,
        "plant": {
            "model": "drone_alt",
            "blocks": [{"kind": "actuator_saturation", "lo": -2.0, "hi": 2.0}],
        },
    }


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(minimal_raw())
    assert cfg.shapes == DEFAULT_SHAPES
    assert cfg.seed == 0
    assert cfg.workers == 1
    assert cfg.max_periods == 10
    assert cfg.calibration_shape is ShapeKind.SINE
    assert cfg.beta_params == (2.0, 1.0)
    assert cfg.inputs.base_periods == 5
    assert cfg.inputs.dnl_threshold == pytest.approx(0.15)
    assert cfg.plant.model == "drone_alt"
    assert [b.kind for b in cfg.plant.blocks] == ["actuator_saturation"]


def test_schema_version_is_optional():
    raw = minimal_raw()
    del raw["schema_version"]
    assert config_from_dict(raw).inputs.f_min == pytest.approx(0.5)


def full_raw():
    """A config that sets every key."""
    return dict(
        minimal_raw(),
        plant={
            "model": "dc_servo",
            "physical": {"inertia": 0.02},
            "controller": {"k_pos": 4.0},
            "sample_interval": 0.001,
            "blocks": [
                {"kind": "actuator_saturation", "lo": -10.0, "hi": 10.0},
                {"kind": "dead_zone", "half_width": 0.05},
            ],
        },
        shapes=["square", "triangle"],
        seed=7,
        workers=2,
        max_periods=6,
        calibration_shape="triangle",
        beta_alpha=2.5,
        beta_beta=1.5,
        dnl_threshold=0.2,
        rho=0.05,
        base_periods=4,
        sample_interval=0.001,
        dnl_includes_mean=False,
        mr2_bin_tolerance=0.1,
        mr2_equality_tolerance=0.0,
        mr3_epsilon=0.25,
        boundary_factor=0.4,
        max_frequencies=64,
    )


def test_full_config_round_trip_of_every_field():
    cfg = config_from_dict(full_raw())
    assert cfg.plant.model == "dc_servo"
    assert cfg.plant.physical["inertia"] == pytest.approx(0.02)
    assert cfg.plant.controller["k_pos"] == pytest.approx(4.0)
    assert [b.kind for b in cfg.plant.blocks] == ["actuator_saturation", "dead_zone"]
    assert cfg.shapes == (ShapeKind.SQUARE, ShapeKind.TRIANGLE)
    assert cfg.seed == 7
    assert cfg.workers == 2
    assert cfg.max_periods == 6
    assert cfg.calibration_shape is ShapeKind.TRIANGLE
    assert cfg.beta_params == (2.5, 1.5)
    assert cfg.inputs.dnl_threshold == pytest.approx(0.2)
    assert cfg.inputs.rho == pytest.approx(0.05)
    assert cfg.inputs.base_periods == 4
    assert cfg.inputs.dnl_includes_mean is False
    assert cfg.mr2_bin_tolerance == pytest.approx(0.1)
    assert cfg.mr2_equality_tolerance == 0.0
    assert cfg.mr3_epsilon == pytest.approx(0.25)
    assert cfg.boundary_factor == pytest.approx(0.4)
    assert cfg.max_frequencies == 64


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update(turbo=True),
        lambda raw: raw.update(schema_version=9),
        lambda raw: raw.update(shapes=[]),
        lambda raw: raw.update(shapes=["circle"]),
        lambda raw: raw.update(shapes=["square", "square"]),
        lambda raw: raw.update(plant={"model": "unknown_plant"}),
        lambda raw: raw.update(plant={"model": "drone_alt", "wings": 2}),
        lambda raw: raw.update(plant={"model": "drone_alt", "sample_interval": 0.01}),
        lambda raw: raw.update(workers=0),
        lambda raw: raw.update(seed=-1),
        lambda raw: raw.update(max_periods=0),
        lambda raw: raw.update(max_frequencies=1),
        lambda raw: raw.update(max_frequencies=0),
        lambda raw: raw.update(max_frequencies=-3),
        lambda raw: raw.pop("plant"),
        lambda raw: raw["plant"].update(model=["drone_alt"]),
        lambda raw: raw["plant"].update(blocks=[1]),
        lambda raw: raw["plant"]["blocks"][0].update(kind=["dead_zone"]),
        lambda raw: raw.update(a_max=float("inf")),
        lambda raw: raw.update(f_min=float("nan")),
        # Values a later stage would reject, or misread, after the load.
        lambda raw: raw.update(boundary_factor=0.0),
        lambda raw: raw.update(boundary_factor=1.0),
        lambda raw: raw.update(boundary_factor=1.5),
        lambda raw: raw.update(beta_alpha=0.0),
        lambda raw: raw.update(beta_alpha=-1.0),
        lambda raw: raw.update(beta_beta=-1.0),
        lambda raw: raw.update(mr2_bin_tolerance=-0.1),
        lambda raw: raw.update(mr3_epsilon=0.0),
        lambda raw: raw.update(mr3_epsilon=-0.2),
    ],
)
def test_bad_configs_raise_config_error(mutate):
    raw = minimal_raw()
    mutate(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_zero_bin_tolerance_and_tiny_knobs_are_accepted():
    cfg = config_from_dict(
        dict(minimal_raw(), mr2_bin_tolerance=0.0, mr3_epsilon=1e-9,
             boundary_factor=0.01, beta_alpha=0.1, beta_beta=0.1)
    )
    assert (cfg.mr2_bin_tolerance, cfg.mr3_epsilon) == (0.0, 1e-9)


def test_invalid_required_input_surfaces_as_value_error():
    raw = minimal_raw()
    raw["f_min"] = 2.0  # above f_max
    with pytest.raises(ValueError):
        config_from_dict(raw)


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_direct_construction_checks_sampling_consistency():
    inputs = RequiredInput(f_min=0.5, f_max=1.0, a_max=1.5, delta_a=0.5, sample_interval=0.002)
    with pytest.raises(ConfigError):
        CampaignConfig(plant=drone_spec(), inputs=inputs)  # plant runs at 0.001


def test_load_config_reads_json_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(minimal_raw()))
    cfg = load_config(path)
    assert cfg.inputs.a_max == pytest.approx(1.5)


def test_load_config_rejects_invalid_json(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# strict types: wrong JSON types are rejected, never coerced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update(f_min=True),
        lambda raw: raw.update(rho=False),
        lambda raw: raw.update(mr3_epsilon=True),
        lambda raw: raw["plant"].update(physical={"mass": True}),
        lambda raw: raw["plant"]["blocks"][0].update(hi=True),
        lambda raw: raw["plant"].update(sample_interval=True),
    ],
)
def test_bool_for_a_number_is_rejected(mutate):
    raw = minimal_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match="must be a finite number"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update(f_min="0.3"),
        lambda raw: raw.update(beta_alpha="2"),
        lambda raw: raw.update(mr2_bin_tolerance="0.1"),
        lambda raw: raw["plant"].update(controller={"kp": "3.0"}),
        lambda raw: raw["plant"]["blocks"][0].update(lo="-2"),
    ],
)
def test_string_for_a_number_is_rejected(mutate):
    raw = minimal_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match="must be a finite number"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "key, value",
    [
        ("base_periods", 2.9),
        ("base_periods", 3.0),
        ("seed", "7"),
        ("workers", True),
        ("max_periods", None),
        ("max_frequencies", 64.5),
        ("schema_version", 1.0),
    ],
)
def test_non_integer_for_an_integer_field_is_rejected(key, value):
    raw = dict(minimal_raw(), **{key: value})
    with pytest.raises(ConfigError, match="must be an integer"):
        config_from_dict(raw)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_non_bool_for_dnl_includes_mean_is_rejected(value):
    raw = dict(minimal_raw(), dnl_includes_mean=value)
    with pytest.raises(ConfigError, match="true or false"):
        config_from_dict(raw)


def test_integers_are_accepted_for_numbers():
    raw = dict(minimal_raw(), f_max=2, a_max=3, mr3_epsilon=1)
    cfg = config_from_dict(raw)
    assert (cfg.inputs.f_max, cfg.inputs.a_max, cfg.mr3_epsilon) == (2.0, 3.0, 1.0)
    assert isinstance(cfg.inputs.a_max, float) and isinstance(cfg.mr3_epsilon, float)


@pytest.mark.parametrize("value", [5, None, {"sine": 1}, "sine"])
def test_shapes_must_be_a_json_list(value):
    with pytest.raises(ConfigError, match="shapes must be a list"):
        config_from_dict(dict(minimal_raw(), shapes=value))


@pytest.mark.parametrize("key, value", [("shapes", ["circle"]), ("calibration_shape", "circle")])
def test_an_unknown_shape_is_named_as_one(key, value):
    with pytest.raises(ConfigError, match="unknown (shape|calibration_shape) 'circle'"):
        config_from_dict(dict(minimal_raw(), **{key: value}))


def _config_fields():
    """(path to a JSON object, key) for every key ``full_raw`` sets."""
    raw = full_raw()
    blocks = raw["plant"]["blocks"]
    return (
        [((), key) for key in raw]
        + [(("plant",), key) for key in raw["plant"]]
        + [(("plant", "blocks", i), key) for i, block in enumerate(blocks) for key in block]
    )


@settings(deadline=None, max_examples=300)
@given(field=st.sampled_from(_config_fields()), value=JSON_VALUES)
@example(field=((), "shapes"), value=5)
@example(field=((), "shapes"), value=None)
@example(field=((), "f_min"), value=10**400)
@example(field=(("plant",), "physical"), value={"inertia": 10**400})
def test_any_json_value_in_any_config_key_gives_a_config_or_a_config_error(field, value):
    raw = full_raw()
    where, key = field
    target = raw
    for step in where:
        target = target[step]
    target[key] = value
    with contextlib.suppress(ConfigError):
        assert isinstance(config_from_dict(raw), CampaignConfig)


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent.parent / "configs").glob("*.json")), ids=lambda p: p.stem
)
def test_shipped_configs_load_with_their_values(path):
    raw = json.loads(path.read_text())
    cfg = load_config(path)
    assert cfg.inputs.f_min == raw["f_min"]
    assert cfg.inputs.a_max == raw["a_max"]
    assert cfg.inputs.base_periods == raw["base_periods"]
    assert cfg.seed == raw["seed"]
    assert cfg.workers == raw["workers"]
    assert [s.value for s in cfg.shapes] == raw["shapes"]
    assert len(cfg.plant.blocks) == len(raw["plant"]["blocks"])

