"""Artifact files: line-delimited JSON records plus CSV plot tables.

Every stream artifact (bounds, test sets, results, MR violations) starts
with a header record carrying ``schema_version`` and the artifact kind,
followed by one record per entry.  Floats are serialised with Python's
shortest round-trip representation, so loading reproduces the exact values
and re-serialising reproduces the exact bytes; infinities use the
JSON-extension ``Infinity`` token that the stdlib emits and accepts.  Each
file is written next to its target and renamed into place, so an artifact
is never left half-written.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

from .analysis import MrViolation
from .campaign import (
    AmplitudeBoundMap,
    Component,
    GeneratedTest,
    TestResult,
    TestSet,
)
from .signals import ShapeKind, TestCase

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """An artifact file does not match the expected schema."""


@contextmanager
def _replacing(path):
    """Text file handle whose content replaces ``path`` only once complete.

    The text goes to a temporary file in the same directory, which is
    renamed onto ``path`` on success and removed on failure, so a reader
    sees either the old artifact or the new one, never a partial one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _write_records(path, kind: str, header_extra: dict, records) -> None:
    lines = [_dump({"record": "header", "schema_version": SCHEMA_VERSION,
                    "kind": kind, **header_extra})]
    lines.extend(_dump(r) for r in records)
    with _replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _load(path, kind: str, record: str, build):
    """``build(header, body)`` on the stream artifact of ``kind`` at ``path``,
    whose body rows must all be ``record`` rows.

    A missing field raises ``KeyError`` inside ``build``, and a field of the
    wrong JSON type or out of range ``TypeError`` or ``ValueError`` (or
    ``OverflowError``: an infinite count, an integer beyond float range);
    each becomes a ``SchemaError``.
    """
    rows = []
    # The file's text is let go before ``build`` runs.
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{ln}: not valid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise SchemaError(f"{path}:{ln}: record is not a JSON object")
        rows.append(row)
    if not rows:
        raise SchemaError(f"{path}: empty artifact")
    header, body = rows[0], rows[1:]
    if header.get("record") != "header":
        raise SchemaError(f"{path}: first record must be the header")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema_version {header.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    if header.get("kind") != kind:
        raise SchemaError(f"{path}: artifact kind {header.get('kind')!r}, expected {kind!r}")
    for row in body:
        if row.get("record") != record:
            raise SchemaError(f"{path}: unexpected record {row.get('record')!r}")
    try:
        return build(header, body)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad {kind} artifact: {exc!r}") from exc


# Field readers: a value of another JSON type is a ``TypeError`` (a
# ``SchemaError`` once ``_load`` maps it), never coerced.  ``type(...) is``
# keeps them cheap and rejects bools, which are ints in Python.

def _number(value) -> float:
    """A JSON number as a float; infinities pass, NaN (no writer emits it)
    is a ``ValueError``."""
    if type(value) is float:
        if value != value:
            raise ValueError("expected a number, got NaN")
        return value
    if type(value) is int:
        return float(value)
    raise TypeError(f"expected a number, got {value!r}")


def _finite(value) -> float:
    """A JSON number that is finite, as a float."""
    number = _number(value)
    if math.isinf(number):
        raise ValueError(f"expected a finite number, got {number!r}")
    return number


def _integer(value) -> int:
    """A JSON number with an integral value as an int."""
    if type(value) is int:
        return value
    if type(value) is float:
        n = int(value)  # OverflowError for an infinity, ValueError for NaN
        if n == value:
            return n
        raise ValueError(f"expected an integer, got {value!r}")
    raise TypeError(f"expected an integer, got {value!r}")


def _flag(value) -> bool:
    """A JSON boolean."""
    if type(value) is bool:
        return value
    raise TypeError(f"expected true or false, got {value!r}")


# -- bounds ---------------------------------------------------------------

def save_bounds(path, bound_map: AmplitudeBoundMap) -> None:
    _write_records(
        path,
        "bounds",
        {"probes": bound_map.probes,
         "unresolved": [list(p) for p in bound_map.unresolved]},
        ({"record": "bound", "frequency": f, "bound": b}
         for f, b in zip(bound_map.frequencies, bound_map.bounds)),
    )


def load_bounds(path) -> AmplitudeBoundMap:
    def build(header, body):
        # A map's frequencies and bounds are finite: a bound is at most a_max.
        pairs = [(_finite(row["frequency"]), _finite(row["bound"])) for row in body]
        return AmplitudeBoundMap(
            frequencies=tuple(f for f, _ in pairs),
            bounds=tuple(b for _, b in pairs),
            unresolved=tuple(
                (_finite(a), _finite(b)) for a, b in header.get("unresolved", [])
            ),
            probes=_integer(header.get("probes", 0)),
        )

    return _load(path, "bounds", "bound", build)


# -- test sets ------------------------------------------------------------

def _test_to_dict(test: GeneratedTest) -> dict:
    c = test.case
    return {
        "shape": c.shape.value,
        "amp_gain": c.amp_gain,
        "time_gain": c.time_gain,
        "periods": c.periods,
        "sample_interval": c.sample_interval,
        "target_frequency": test.target_frequency,
        "bound": test.bound,
        "snap_error": test.snap_error,
    }


def _test_from_dict(d: dict) -> GeneratedTest:
    amp_gain = _number(d["amp_gain"])
    if not amp_gain > 0.0:  # a zero reference has no component to score
        raise ValueError(f"amp_gain must be positive, got {amp_gain!r}")
    return GeneratedTest(
        case=TestCase(
            shape=ShapeKind(d["shape"]),
            amp_gain=amp_gain,
            time_gain=_number(d["time_gain"]),
            periods=_integer(d["periods"]),
            sample_interval=_number(d["sample_interval"]),
        ),
        target_frequency=_number(d["target_frequency"]),
        bound=_number(d["bound"]),
        snap_error=_number(d["snap_error"]),
    )


def save_test_set(path, test_set: TestSet) -> None:
    _write_records(
        path,
        "tests",
        {"seed": test_set.seed,
         "frequency_step": test_set.frequency_step,
         "shapes": [s.value for s in test_set.shapes]},
        ({"record": "test", **_test_to_dict(t)} for t in test_set.tests),
    )


def load_test_set(path) -> TestSet:
    return _load(path, "tests", "test", lambda header, body: TestSet(
        tests=tuple(_test_from_dict(row) for row in body),
        seed=_integer(header["seed"]),
        frequency_step=_number(header["frequency_step"]),
        shapes=tuple(ShapeKind(s) for s in header["shapes"]),
    ))


# -- results --------------------------------------------------------------

def save_results(path, results) -> None:
    def rows():
        for r in results:
            yield {
                "record": "result",
                "test": _test_to_dict(r.test),
                "dnl": r.dnl,
                "components": [[c.frequency, c.amplitude, c.dof] for c in r.components],
                "actuator_sat_fraction": r.actuator_saturation_fraction,
                "sensor_sat_fraction": r.sensor_saturation_fraction,
                "deviation_mean": r.deviation_mean,
                "diverged": r.diverged,
            }

    _write_records(path, "results", {}, rows())


def _result_from_dict(row: dict) -> TestResult:
    return TestResult(
        test=_test_from_dict(row["test"]),
        dnl=_number(row["dnl"]),
        components=tuple(
            Component(
                frequency=_number(f),
                amplitude=_number(a),
                dof=None if d is None else _number(d),
            )
            for f, a, d in row["components"]
        ),
        actuator_saturation_fraction=_number(row["actuator_sat_fraction"]),
        sensor_saturation_fraction=_number(row["sensor_sat_fraction"]),
        deviation_mean=_number(row["deviation_mean"]),
        diverged=_flag(row["diverged"]),
    )


def load_results(path) -> tuple[TestResult, ...]:
    return _load(path, "results", "result",
                 lambda _, body: tuple(_result_from_dict(row) for row in body))


# -- reports and tables ---------------------------------------------------

def _violation_form(value) -> dict:
    """The JSON object an ``MrViolation`` stands for; ``json.dumps``'s ``default``."""
    if isinstance(value, MrViolation):
        return {
            "detail": value.detail,
            "relation": value.relation,
            "subjects": list(value.subjects),
            "witnesses": list(value.witnesses),
        }
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _indented_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=True)``, with
    each ``MrViolation`` written as the object ``_violation_form`` gives."""
    return json.dumps(
        value, sort_keys=True, indent=2, allow_nan=True, default=_violation_form
    )


def save_json_report(path, payload: dict) -> None:
    """Single-object JSON report with a schema version, stable formatting."""
    text = _indented_json({"schema_version": SCHEMA_VERSION, **payload})
    with _replacing(path) as fh:
        fh.write(text + "\n")


@contextmanager
def violation_writer(path):
    """``write(records)`` appends ``MrViolation`` records to ``path``.

    The file is a stream artifact of kind ``mr_violations``: a header, then
    one record per line in the object form a report gives it.  Records go
    to disk as they come, and the file replaces ``path`` only once the
    ``with`` block completes.
    """
    with _replacing(path) as fh:
        fh.write(_dump({"record": "header", "schema_version": SCHEMA_VERSION,
                        "kind": "mr_violations"}) + "\n")
        yield lambda records: fh.writelines(
            _dump(_violation_form(v)) + "\n" for v in records
        )


def load_json_report(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: report is not a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unexpected schema_version")
    return payload


def _cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def save_csv(path, header: tuple[str, ...], rows) -> None:
    with _replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
