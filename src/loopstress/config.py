"""Campaign configuration files.

One JSON document describes a whole campaign: the plant under test, the
required inputs (frequency range, amplitude cap and resolution), the shapes
to generate, and MR3's tolerance.  Parsing is strict -- unknown keys are
rejected rather than ignored, and values of the wrong JSON type (``"7"`` or
``true`` for a number, ``2.9`` for an integer) are rejected rather than
coerced, so a typo fails loudly instead of silently running with something
else.  The plant samples at the campaign's ``sample_interval``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .records import NonlinearBlock, PlantSpec, RequiredInput
from .signals import ShapeKind

CONFIG_VERSION = 1

DEFAULT_SHAPES = (
    ShapeKind.SQUARE,
    ShapeKind.SAWTOOTH,
    ShapeKind.TRIANGLE,
    ShapeKind.TRAPEZOID,
)


class ConfigError(ValueError):
    """The configuration file is invalid."""


@dataclass(frozen=True)
class CampaignConfig:
    plant: PlantSpec
    inputs: RequiredInput
    shapes: tuple[ShapeKind, ...] = DEFAULT_SHAPES
    seed: int = 0
    workers: int = 1
    max_periods: int = 10
    calibration_shape: ShapeKind = ShapeKind.SINE
    beta_params: tuple[float, float] = (2.0, 1.0)
    mr3_epsilon: float | None = None
    max_frequencies: int = 256

    def __post_init__(self):
        if not self.shapes:
            raise ConfigError("shapes must not be empty")
        if len(set(self.shapes)) != len(self.shapes):
            raise ConfigError("shapes must not repeat")
        if self.seed < 0:
            raise ConfigError("seed must not be negative")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.max_periods < 1:
            raise ConfigError("max_periods must be at least 1")
        if self.max_frequencies < 2:
            raise ConfigError("max_frequencies must be at least 2")
        if not all(p > 0.0 for p in self.beta_params):
            raise ConfigError("beta distribution parameters must be positive")
        if self.mr3_epsilon is not None and not self.mr3_epsilon > 0.0:
            raise ConfigError("mr3_epsilon must be positive")
        if self.plant.sample_interval != self.inputs.sample_interval:
            raise ConfigError(
                "plant and campaign sample intervals differ "
                f"({self.plant.sample_interval} vs {self.inputs.sample_interval})"
            )


def _take(d: dict, key, default=None, required=False):
    if required and key not in d:
        raise ConfigError(f"missing required key {key!r}")
    return d.pop(key, default)


def _is_number(value) -> bool:
    # bool is a subclass of int, but ``true`` is no amplitude; Python's json
    # also reads NaN and Infinity, which no parameter accepts.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _number(d: dict, key, default=None, required=False) -> float | None:
    """Pop a real number; JSON null is kept only where the default is null."""
    value = _take(d, key, default, required)
    if value is None and default is None and not required:
        return None
    if not _is_number(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(d: dict, key, default) -> int:
    value = _take(d, key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _numbers(where: str, values) -> dict:
    """Check a JSON object whose every value must be a real number."""
    if not isinstance(values, dict):
        raise ConfigError(f"{where} must be an object")
    for key, value in values.items():
        if not _is_number(value):
            raise ConfigError(f"{where} {key} must be a finite number, got {value!r}")
    return dict(values)


def _shape(key: str, value) -> ShapeKind:
    # ShapeKind is a str enum: its members equal their values, and nothing else.
    if value not in tuple(ShapeKind):
        raise ConfigError(f"unknown {key} {value!r}")
    return ShapeKind(value)


def _parse_block(raw: dict) -> NonlinearBlock:
    if not isinstance(raw, dict):
        raise ConfigError(f"plant blocks must be objects, got {raw!r}")
    raw = dict(raw)
    kind = _take(raw, "kind", required=True)
    if not isinstance(kind, str):
        raise ConfigError(f"block kind must be a string, got {kind!r}")
    return NonlinearBlock(kind=kind, params=_numbers(f"block {kind}", raw))


def _parse_plant(raw: dict, sample_interval: float) -> PlantSpec:
    raw = dict(raw)
    model = _take(raw, "model", required=True)
    if not isinstance(model, str):
        raise ConfigError(f"plant model must be a string, got {model!r}")
    physical = _numbers("plant physical", _take(raw, "physical", {}))
    controller = _numbers("plant controller", _take(raw, "controller", {}))
    blocks_raw = _take(raw, "blocks", [])
    if raw:
        raise ConfigError(f"unknown plant keys: {sorted(raw)}")
    if not isinstance(blocks_raw, list):
        raise ConfigError("plant blocks must be a list")
    return PlantSpec(
        model=model,
        physical=physical,
        controller=controller,
        blocks=tuple(_parse_block(b) for b in blocks_raw),
        sample_interval=sample_interval,
    )


def config_from_dict(raw: dict) -> CampaignConfig:
    """The campaign ``raw`` describes; any bad value raises ``ConfigError``.

    The checks of ``RequiredInput``, ``PlantSpec`` and the other records
    raise ``ValueError``, and a value of the wrong JSON type may meet a
    ``TypeError`` first (an ``OverflowError``, if it is an integer too large
    for a float): each becomes a ``ConfigError`` with its message.
    """
    try:
        return _build_config(dict(raw))
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_config(raw: dict) -> CampaignConfig:
    version = _integer(raw, "schema_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config schema_version {version!r}")

    inputs = RequiredInput(
        f_min=_number(raw, "f_min", required=True),
        f_max=_number(raw, "f_max", required=True),
        a_max=_number(raw, "a_max", required=True),
        delta_a=_number(raw, "delta_a", required=True),
        dnl_threshold=_number(raw, "dnl_threshold", RequiredInput.dnl_threshold),
        rho=_number(raw, "rho", RequiredInput.rho),
        base_periods=_integer(raw, "base_periods", RequiredInput.base_periods),
        sample_interval=_number(raw, "sample_interval", RequiredInput.sample_interval),
    )

    plant_raw = _take(raw, "plant", required=True)
    if not isinstance(plant_raw, dict):
        raise ConfigError("plant must be an object")
    plant = _parse_plant(plant_raw, inputs.sample_interval)

    shapes_raw = _take(raw, "shapes", [s.value for s in DEFAULT_SHAPES])
    if not isinstance(shapes_raw, list):
        raise ConfigError(f"shapes must be a list, got {shapes_raw!r}")

    beta_alpha, beta_beta = CampaignConfig.beta_params
    cfg_kwargs = dict(
        plant=plant,
        inputs=inputs,
        shapes=tuple(_shape("shape", s) for s in shapes_raw),
        seed=_integer(raw, "seed", CampaignConfig.seed),
        workers=_integer(raw, "workers", CampaignConfig.workers),
        max_periods=_integer(raw, "max_periods", CampaignConfig.max_periods),
        calibration_shape=_shape(
            "calibration_shape", _take(raw, "calibration_shape", CampaignConfig.calibration_shape)
        ),
        beta_params=(_number(raw, "beta_alpha", beta_alpha), _number(raw, "beta_beta", beta_beta)),
        mr3_epsilon=_number(raw, "mr3_epsilon", CampaignConfig.mr3_epsilon),
        max_frequencies=_integer(raw, "max_frequencies", CampaignConfig.max_frequencies),
    )
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    return CampaignConfig(**cfg_kwargs)


def load_config(path) -> CampaignConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(raw)
