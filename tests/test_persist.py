"""Artifact serialization: round trips, byte stability, schema guards."""
from __future__ import annotations

import contextlib
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopstress import persist
from loopstress.analysis import ScopeClass
from loopstress.campaign import execute_campaign, generate_test_set
from loopstress.records import AmplitudeBoundMap, MrViolation, RequiredInput, drone_spec
from loopstress.signals import ShapeKind

from conftest import JSON_VALUES


@pytest.fixture()
def small_inputs():
    return RequiredInput(f_min=0.5, f_max=1.0, a_max=1.5, delta_a=0.5, base_periods=2)


@pytest.fixture()
def small_tests(small_inputs):
    bound_map = AmplitudeBoundMap(frequencies=(0.5, 1.0), bounds=(1.5, 1.0))
    return generate_test_set(
        bound_map, (ShapeKind.SQUARE, ShapeKind.TRIANGLE), small_inputs, seed=3
    )


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_bounds_round_trip(tmp_path):
    bound_map = AmplitudeBoundMap(
        frequencies=(0.1, 0.5, 1.0),
        bounds=(4.0, 2.5, 1.0),
        unresolved=((0.5, 1.0),),
        probes=17,
    )
    path = tmp_path / "bounds.jsonl"
    persist.save_bounds(path, bound_map)
    loaded = persist.load_bounds(path)
    assert loaded == bound_map
    assert loaded.unresolved == ((0.5, 1.0),)
    assert loaded.probes == 17


def test_test_set_round_trip(tmp_path, small_tests):
    path = tmp_path / "tests.jsonl"
    persist.save_test_set(path, small_tests)
    loaded = persist.load_test_set(path)
    assert loaded == small_tests
    assert loaded.seed == small_tests.seed
    assert [t.case for t in loaded.tests] == [t.case for t in small_tests.tests]


def test_results_round_trip(tmp_path, small_inputs, small_tests):
    results = execute_campaign(drone_spec(), small_tests.tests[:4], small_inputs)
    path = tmp_path / "results.jsonl"
    persist.save_results(path, results)
    loaded = persist.load_results(path)
    assert loaded == tuple(results)


def test_results_round_trip_with_infinite_dnl_and_withheld_dof(
    tmp_path, small_inputs, small_tests
):
    unstable = drone_spec(kp=-30.0, thrust_limit=0.0)
    results = execute_campaign(unstable, small_tests.tests[:2], small_inputs)
    assert any(math.isinf(r.dnl) for r in results)
    assert any(c.dof is None for r in results for c in r.components)
    path = tmp_path / "results.jsonl"
    persist.save_results(path, results)
    loaded = persist.load_results(path)
    assert loaded == tuple(results)
    assert all(math.isinf(r.dnl) for r in loaded)


def test_saving_twice_is_byte_stable(tmp_path, small_tests):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    persist.save_test_set(a, small_tests)
    persist.save_test_set(b, small_tests)
    assert a.read_bytes() == b.read_bytes()


def test_save_load_save_is_byte_identical(tmp_path, small_tests):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    persist.save_test_set(a, small_tests)
    persist.save_test_set(b, persist.load_test_set(a))
    assert a.read_bytes() == b.read_bytes()


def test_artifacts_are_line_delimited_json_with_header(tmp_path, small_tests):
    path = tmp_path / "tests.jsonl"
    persist.save_test_set(path, small_tests)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["schema_version"] == persist.SCHEMA_VERSION
    for line in lines[1:]:
        json.loads(line)  # every body line is standalone JSON


# ---------------------------------------------------------------------------
# memory: records are read and written one at a time
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def many_results(tmp_path_factory):
    """2,000 copies of one real result, and the results artifact they make."""
    inputs = RequiredInput(f_min=0.5, f_max=1.0, a_max=1.5, delta_a=0.5, base_periods=2)
    bound_map = AmplitudeBoundMap(frequencies=(0.5, 1.0), bounds=(1.5, 1.0))
    tests = generate_test_set(bound_map, (ShapeKind.SQUARE,), inputs, seed=3)
    results = execute_campaign(drone_spec(), tests.tests[:1], inputs) * 2000
    path = tmp_path_factory.mktemp("many") / "results.jsonl"
    persist.save_results(path, results)
    return results, path


def test_load_results_holds_no_more_than_the_results(many_results):
    _, path = many_results
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = persist.load_results(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 2000
    assert peak - current < size / 4


def test_save_results_builds_no_file_sized_text(many_results, tmp_path):
    results, path = many_results
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        persist.save_results(tmp_path / "results.jsonl", results)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "results.jsonl").read_bytes() == path.read_bytes()
    assert peak - before < size / 4


# ---------------------------------------------------------------------------
# schema guards
# ---------------------------------------------------------------------------


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("")
    with pytest.raises(persist.SchemaError):
        persist.load_bounds(path)


def test_load_rejects_non_json_content(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("not json\n")
    with pytest.raises(persist.SchemaError):
        persist.load_bounds(path)


def test_load_rejects_future_schema_version(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(
        json.dumps({"record": "header", "schema_version": 99, "kind": "bounds"}) + "\n"
    )
    with pytest.raises(persist.SchemaError):
        persist.load_bounds(path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_load_rejects_a_schema_version_that_is_no_json_integer(tmp_path, small_tests, version):
    # true == 1.0 == 1 in Python, but a version is a JSON integer, as config
    # parsing reads it.
    path = tmp_path / "tests.jsonl"
    persist.save_test_set(path, small_tests)
    header, body = path.read_text().split("\n", 1)
    path.write_text(json.dumps({**json.loads(header), "schema_version": version}) + "\n" + body)
    with pytest.raises(persist.SchemaError, match=f"schema_version {version!r}, expected 1"):
        persist.load_test_set(path)


def test_load_rejects_wrong_artifact_kind(tmp_path, small_tests):
    path = tmp_path / "tests.jsonl"
    persist.save_test_set(path, small_tests)
    with pytest.raises(persist.SchemaError):
        persist.load_bounds(path)
    with pytest.raises(persist.SchemaError):
        persist.load_results(path)


@pytest.mark.parametrize(
    "kind, load",
    [("bounds", persist.load_bounds), ("tests", persist.load_test_set),
     ("results", persist.load_results)],
    ids=["bounds", "tests", "results"],
)
def test_load_rejects_unexpected_body_record(tmp_path, kind, load):
    path = tmp_path / "x.jsonl"
    header = json.dumps({"record": "header", "schema_version": 1, "kind": kind})
    path.write_text(header + "\n" + json.dumps({"record": "wat"}) + "\n")
    with pytest.raises(persist.SchemaError, match="unexpected record 'wat'"):
        load(path)


_BOUNDS_HEADER = json.dumps({"record": "header", "schema_version": 1, "kind": "bounds"})
_BOUND_ROW = json.dumps({"record": "bound", "frequency": 1.0, "bound": 1.0})


@pytest.mark.parametrize(
    "text, message",
    [
        ("\n  \n\t\n", ": empty artifact"),
        (_BOUND_ROW + "\n", ": first record must be the header"),
        (_BOUNDS_HEADER.replace('"schema_version": 1', '"schema_version": 99') + "\n",
         ": schema_version 99, expected 1"),
        (_BOUNDS_HEADER.replace('"bounds"', '"tests"') + "\n",
         ": artifact kind 'tests', expected 'bounds'"),
        (f"{_BOUNDS_HEADER}\n{_BOUND_ROW}\nnot json\n", ":3: not valid JSON: "),
        (f"{_BOUNDS_HEADER}\n[1, 2]\n", ":2: record is not a JSON object"),
    ],
    ids=["blank-lines-only", "no-header", "future-schema-version", "wrong-kind",
         "bad-json-line", "non-object-line"],
)
def test_load_names_the_file_line_and_fault(tmp_path, text, message):
    path = tmp_path / "x.jsonl"
    path.write_text(text)
    with pytest.raises(persist.SchemaError) as info:
        persist.load_bounds(path)
    assert str(info.value).startswith(f"{path}{message}")
    assert str(info.value).count(str(path)) == 1  # a body line's fault is not wrapped


def test_load_bounds_rejects_a_record_without_its_frequency(tmp_path):
    path = tmp_path / "x.jsonl"
    header = json.dumps({"record": "header", "schema_version": 1, "kind": "bounds"})
    rows = [{"record": "bound", "bound": 1.0}, {"record": "bound", "frequency": 2.0, "bound": 1.0}]
    path.write_text("\n".join([header, *map(json.dumps, rows)]) + "\n")
    with pytest.raises(persist.SchemaError, match="frequency"):
        persist.load_bounds(path)


@pytest.fixture(scope="module")
def artifact_records(tmp_path_factory):
    """A scratch file, and for each loader the type it returns and the
    records of a real artifact it loads."""
    inputs = RequiredInput(f_min=0.5, f_max=1.0, a_max=1.5, delta_a=0.5, base_periods=2)
    bound_map = AmplitudeBoundMap(
        frequencies=(0.5, 1.0), bounds=(1.5, 1.0), unresolved=((0.5, 1.0),), probes=9
    )
    tests = generate_test_set(bound_map, (ShapeKind.SQUARE, ShapeKind.TRIANGLE), inputs, seed=3)
    results = execute_campaign(drone_spec(), tests.tests[:2], inputs)
    path = tmp_path_factory.mktemp("artifacts") / "artifact.jsonl"
    artifacts = []
    for save, load, value in (
        (persist.save_bounds, persist.load_bounds, bound_map),
        (persist.save_test_set, persist.load_test_set, tests),
        (persist.save_results, persist.load_results, results),
    ):
        save(path, value)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        artifacts.append((load, type(value), records))
    return path, artifacts


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_any_json_value_in_any_artifact_field_loads_or_raises_schema_error(
    artifact_records, data
):
    path, artifacts = artifact_records
    load, kind, records = data.draw(st.sampled_from(artifacts))
    records = json.loads(json.dumps(records))  # a copy to edit
    record = data.draw(st.sampled_from(records))
    record[data.draw(st.sampled_from(sorted(record)))] = data.draw(JSON_VALUES)
    write_records(path, records)
    with contextlib.suppress(persist.SchemaError):
        assert isinstance(load(path), kind)


@pytest.mark.parametrize(
    "index, key, value",
    [(1, "frequency", 10**400)],
    ids=["frequency-beyond-float"],
)
def test_numbers_beyond_float_range_raise_schema_error(artifact_records, index, key, value):
    path, artifacts = artifact_records
    records = [dict(r) for r in artifacts[0][2]]
    records[index][key] = value
    write_records(path, records)
    with pytest.raises(persist.SchemaError, match="OverflowError"):
        persist.load_bounds(path)


@pytest.mark.parametrize(
    "artifact, index, key, value",
    # More cases, through the CLI, in test_cli's malformed-artifact test.
    [
        (0, 0, "probes", True),
        (0, 1, "bound", "1.5"),
        (1, 0, "seed", 3.5),
        # As in a config, a float is no integer, even an integral one.
        (0, 0, "probes", 9.0),
        (0, 0, "probes", math.inf),
        (1, 0, "seed", 3.0),
        (1, 1, "amp_gain", "1.0"),
        (2, 1, "components", [["0.5", 1.0, None]]),
    ],
    ids=["probes-bool", "bound-string", "seed-fraction", "probes-integral-float",
         "probes-infinite", "seed-integral-float", "amp-gain-string",
         "component-frequency-string"],
)
def test_loaders_reject_what_they_would_have_to_coerce(
    artifact_records, artifact, index, key, value
):
    path, artifacts = artifact_records
    load, _, records = artifacts[artifact]
    records = json.loads(json.dumps(records))
    records[index][key] = value
    write_records(path, records)
    with pytest.raises(persist.SchemaError):
        load(path)


def test_blank_lines_between_records_are_skipped(artifact_records):
    path, artifacts = artifact_records
    for load, _, records in artifacts:
        write_records(path, records)
        plain = load(path)
        path.write_text("\n\n".join(json.dumps(r) + "\n  \t" for r in records) + "\n")
        assert load(path) == plain


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------


def test_json_report_round_trip(tmp_path):
    payload = {
        "chosen_periods": 3,
        "threshold_crossed": True,
        "curve": [0.04, 0.19, math.inf],
        "note": None,
    }
    path = tmp_path / "report.json"
    persist.save_json_report(path, payload)
    loaded = persist.load_json_report(path)
    assert loaded["chosen_periods"] == 3
    assert loaded["threshold_crossed"] is True
    assert loaded["curve"][:2] == [0.04, 0.19]
    assert math.isinf(loaded["curve"][2])
    assert loaded["note"] is None


def test_json_report_is_deterministically_formatted(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    persist.save_json_report(a, {"b": 1, "a": 2})
    persist.save_json_report(b, {"a": 2, "b": 1})
    assert a.read_bytes() == b.read_bytes()


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.floats()
    | st.text()
    | st.sampled_from(list(ScopeClass))  # a str subclass: the fallback path
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_json_values)
@example({"a": [], "b": {}, "c": [{}], "d": [[]]})
@example({"\u00e9\u2603\U0001f600": "\x00\x1f\"\\\n\u2028", "": True, " ": False})
@example([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-320, 10**30, -(10**30), None])
@example({"s": ScopeClass.OUTSIDE, "t": {3: [1, (2.5, "x")], -1: None}})
def test_report_writer_matches_json_dumps(value):
    expected = json.dumps(value, sort_keys=True, indent=2, allow_nan=True)
    assert persist._indented_json(value) == expected


def test_report_writer_raises_where_json_dumps_raises():
    with pytest.raises(TypeError):
        persist._indented_json({"a": [1, {"b": object()}]})
    with pytest.raises(TypeError):
        persist._indented_json({"a": 1, 2: 3})  # keys that do not sort
    circular = []
    circular.append(circular)
    with pytest.raises(ValueError):
        persist._indented_json({"a": circular})


_witnesses = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
_violations = st.builds(
    MrViolation,
    relation=st.sampled_from(["MR1", "MR2", "MR3"]),
    subjects=(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))  # MR1/MR2
        | st.tuples(st.text(max_size=8), st.text(max_size=8))  # MR3
        | st.tuples(st.sampled_from(list(ScopeClass)), st.integers())  # fallback path
    ),
    witnesses=st.sampled_from([0, 2, 3, 4]).flatmap(
        lambda n: st.tuples(*[_witnesses] * n)
    ),
    detail=st.text(max_size=30) | st.just("d\u00e9\u2603\U0001f600 \x00\x1f\"\\\n\u2028"),
)
_violation_payloads = st.recursive(
    st.lists(_violations, max_size=4) | st.lists(_violations, max_size=4).map(tuple),
    lambda children: (
        st.dictionaries(st.text(max_size=6), children | _violations, max_size=3)
        | st.lists(children | _json_scalars, max_size=3)
    ),
    max_leaves=12,
)


def _dict_form(value):
    """``value`` with each ``MrViolation`` as the object a report holds."""
    if isinstance(value, MrViolation):
        return {
            "relation": value.relation,
            "subjects": list(value.subjects),
            "witnesses": list(value.witnesses),
            "detail": value.detail,
        }
    if isinstance(value, dict):
        return {k: _dict_form(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_dict_form(v) for v in value]
    return value


@settings(max_examples=300, deadline=None)
@given(_violation_payloads)
@example({"mr2": {"violations": (
    MrViolation("MR2", (3, 0), (0.0, -0.0, math.inf, math.nan), "dof -0"),
    MrViolation("MR1", (3, 1), (), ""),
    MrViolation("MR3", ("square", "triangle"), (1.5, -math.inf, 0.3), "\x00\u2028"),
)}})
@example({"keys": {2: MrViolation("MR1", (0, 1), (0.5, 0.25), "int key")}, "x": [-0.0]})
def test_report_writer_writes_violations_as_json_dumps_of_their_dicts(value):
    expected = json.dumps(_dict_form(value), sort_keys=True, indent=2, allow_nan=True)
    assert persist._indented_json(value) == expected


@pytest.mark.parametrize(
    "write",
    [
        lambda path: persist.save_bounds(
            path, AmplitudeBoundMap(frequencies=(0.5, 1.0), bounds=(1.0, object()))
        ),
        lambda path: persist.save_json_report(path, {"kind": "x", "value": object()}),
    ],
    ids=["records", "report"],
)
def test_failed_write_keeps_the_previous_artifact(tmp_path, write):
    path = tmp_path / "artifact"
    persist.save_json_report(path, {"kind": "previous", "curve": [0.5, math.inf]})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_report_write_failing_in_a_violation_list_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "mr_report.json"
    persist.save_json_report(path, {"kind": "previous", "violations": []})
    before = path.read_bytes()
    good = MrViolation("MR2", (0, 1), (1.0, 0.5, 0.5, 0.6), "fine")
    bad = MrViolation("MR2", (2, 3), (1.0, object(), 0.5, 0.6), "no JSON")
    with pytest.raises(TypeError):
        persist.save_json_report(path, {"kind": "x", "violations": (good,) * 50 + (bad, good)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["mr_report.json"]


def test_csv_write_failing_mid_table_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "table.csv"
    persist.save_csv(path, ("a", "b"), [(1, 2)])
    before = path.read_bytes()

    def rows():
        yield (3, 4)
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError):
        persist.save_csv(path, ("a", "b"), rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_json_report_rejects_future_version(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(persist.SchemaError):
        persist.load_json_report(path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_json_report_rejects_a_schema_version_that_is_no_json_integer(tmp_path, version):
    path = tmp_path / "mr_report.json"
    persist.save_json_report(path, {"kind": "mr_report"})
    path.write_text(json.dumps({**json.loads(path.read_text()), "schema_version": version}))
    with pytest.raises(persist.SchemaError, match=f"schema_version {version!r}, expected 1"):
        persist.load_json_report(path)


def test_json_report_rejects_text_that_is_not_json(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("{not json")
    with pytest.raises(persist.SchemaError, match="not valid JSON"):
        persist.load_json_report(path)


@pytest.mark.parametrize("payload", [[], [1, 2], "report", None])
def test_json_report_rejects_a_non_object(tmp_path, payload):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(persist.SchemaError, match="not a JSON object"):
        persist.load_json_report(path)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_csv_floats_survive_text_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [("square", 0.1 + 0.2, 1.0 / 3.0), ("triangle", math.inf, -0.0)]
    persist.save_csv(path, ("shape", "x", "y"), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "shape,x,y"
    cells = lines[1].split(",")
    assert cells[0] == "square"
    assert float(cells[1]) == 0.1 + 0.2  # repr round-trips exactly
    assert float(cells[2]) == 1.0 / 3.0
    assert lines[2].split(",")[1] == "inf"


def test_csv_row_count_matches(tmp_path):
    path = tmp_path / "table.csv"
    persist.save_csv(path, ("a", "b"), [(1, 2), (3, 4), (5, 6)])
    assert len(path.read_text().splitlines()) == 4
