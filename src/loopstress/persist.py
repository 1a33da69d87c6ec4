"""Artifact files: line-delimited JSON records plus CSV plot tables.

Every stream artifact (bounds, test sets, results, MR violations) starts
with a header record carrying ``schema_version`` and the artifact kind,
followed by one record per entry.  Floats are serialised with Python's
shortest round-trip representation, so loading reproduces the exact values
and re-serialising reproduces the exact bytes; infinities use the
JSON-extension ``Infinity`` token that the stdlib emits and accepts.  Each
file is written next to its target and renamed into place, so an artifact
is never left half-written.

Stream artifacts go through the file one record at a time: a loader holds
one parsed line besides the records it returns, and a writer writes each
record's line as it comes, so neither builds a string the size of the file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

from .records import (
    AmplitudeBoundMap,
    GeneratedTest,
    MrViolation,
    ResultColumns,
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


@contextmanager
def _record_writer(path, kind: str, header_extra: dict):
    """``write(records)`` appends one line per record to the stream artifact
    of ``kind`` at ``path``, after its header; each line goes to the file as
    its record comes, and the file replaces ``path`` once the block ends."""
    with _replacing(path) as fh:
        fh.write(_dump({"record": "header", "schema_version": SCHEMA_VERSION,
                        "kind": kind, **header_extra}) + "\n")
        yield lambda records: fh.writelines(_dump(r) + "\n" for r in records)


def _write_records(path, kind: str, header_extra: dict, records) -> None:
    with _record_writer(path, kind, header_extra) as write:
        write(records)


def _objects(path, lines):
    """The JSON object on each non-blank line of ``lines``, in order."""
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{ln}: not valid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise SchemaError(f"{path}:{ln}: record is not a JSON object")
        yield row


def _load(path, kind: str, record: str, build):
    """``build(header, body)`` on the stream artifact of ``kind`` at ``path``,
    where ``body`` yields its rows, which must all be ``record`` rows, one
    at a time as the file is read.

    A missing field raises ``KeyError`` inside ``build``, and a field of the
    wrong JSON type or out of range ``TypeError`` or ``ValueError`` (or
    ``OverflowError``: an infinite count, an integer beyond float range);
    each becomes a ``SchemaError``.  Faults are reported in file order.
    """
    with open(path, encoding="utf-8") as fh:
        rows = _objects(path, fh)
        header = next(rows, None)
        if header is None:
            raise SchemaError(f"{path}: empty artifact")
        if header.get("record") != "header":
            raise SchemaError(f"{path}: first record must be the header")
        _check_version(path, header)
        if header.get("kind") != kind:
            raise SchemaError(f"{path}: artifact kind {header.get('kind')!r}, expected {kind!r}")

        def body():
            for row in rows:
                if row.get("record") != record:
                    raise SchemaError(f"{path}: unexpected record {row.get('record')!r}")
                yield row

        try:
            return build(header, body())
        except SchemaError:
            raise  # a fault of the body's lines, already named
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
    """A JSON integer: ``3.0`` is none, as in a config."""
    if type(value) is int:
        return value
    raise TypeError(f"expected an integer, got {value!r}")


def _check_version(path, payload: dict) -> None:
    """Reject an artifact whose ``schema_version`` is not this module's as a
    JSON integer: ``1.0`` and ``true`` are no version, as in a config."""
    version = payload.get("schema_version")
    if type(version) is int and version == SCHEMA_VERSION:
        return
    raise SchemaError(f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}")


def _within(number, low, high=math.inf):
    """``number`` if it lies in ``[low, high]``; the readers' range check."""
    if low <= number <= high:
        return number
    raise ValueError(f"expected a value in [{low}, {high}], got {number!r}")


def _flag(value) -> bool:
    """A JSON boolean."""
    if type(value) is bool:
        return value
    raise TypeError(f"expected true or false, got {value!r}")


def _list(value) -> list:
    """A JSON array."""
    if type(value) is list:
        return value
    raise TypeError(f"expected a list, got {value!r}")


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
                (_finite(a), _finite(b)) for a, b in _list(header.get("unresolved", []))
            ),
            probes=_within(_integer(header.get("probes", 0)), 0),
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
            # Above 2**53 a count has no exact float, which a result's column holds.
            periods=_within(_integer(d["periods"]), 1, 2**53),
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
        shapes=tuple(ShapeKind(s) for s in _list(header["shapes"])),
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


def _result_fields(row: dict) -> tuple:
    """The fields of the result on ``row`` in ``TestResult`` order, its
    components as ``(frequency, amplitude, dof)`` triples."""
    fields = (
        _test_from_dict(row["test"]),
        # Infinite exactly when the test diverged (checked below).
        _within(_number(row["dnl"]), 0.0),
        [
            (_within(_finite(f), 0.0), _within(_finite(a), 0.0),
             None if d is None else _within(_finite(d), -math.inf, 1.0))
            for f, a, d in _list(row["components"])
        ],
        _within(_number(row["actuator_sat_fraction"]), 0.0, 1.0),
        _within(_number(row["sensor_sat_fraction"]), 0.0, 1.0),
        # Infinite when a diverging lane's friction term overflows.
        _within(_number(row["deviation_mean"]), 0.0),
        _flag(row["diverged"]),
    )
    dnl, diverged = fields[1], fields[-1]
    if math.isinf(dnl) != diverged:
        raise ValueError(f"dnl {dnl!r} with diverged {diverged!r}")
    return fields


def load_results(path) -> ResultColumns:
    """The results artifact at ``path`` as columns.  Each line goes through
    the field readers and builds its ``TestCase``, which checks it, but
    only the columns' compact arrays are kept."""
    return _load(path, "results", "result",
                 lambda _, body: ResultColumns.of(map(_result_fields, body)))


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
    with _record_writer(path, "mr_violations", {}) as write:
        yield lambda records: write(map(_violation_form, records))


def violation_line_bytes(record: MrViolation) -> int:
    """Bytes of ``record``'s line in an ``mr_violations.jsonl``."""
    return len((_dump(_violation_form(record)) + "\n").encode())


def load_json_report(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: report is not a JSON object")
    _check_version(path, payload)
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
