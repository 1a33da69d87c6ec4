"""Command-line pipeline: stages, artifacts, exit codes, reproducibility."""
from __future__ import annotations

import hashlib
import json
import math

import pytest

from loopstress import cli, persist
from loopstress.signals import ShapeKind

from conftest import make_result

ARTIFACTS = (
    cli.BOUNDS_FILE,
    cli.TESTS_FILE,
    cli.RESULTS_FILE,
    cli.MR_REPORT_FILE,
    cli.SCATTER_FILE,
    cli.DOF_FILE,
)


def write_config(tmp_path, **overrides):
    raw = {
        "f_min": 0.5,
        "f_max": 1.0,
        "a_max": 1.5,
        "delta_a": 0.5,
        "base_periods": 2,
        "seed": 3,
        "shapes": ["square", "triangle"],
        "plant": {
            "model": "drone_alt",
            "blocks": [{"kind": "actuator_saturation", "lo": -2.0, "hi": 2.0}],
        },
    }
    raw.update(overrides)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(raw))
    return path


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# one-shot campaign
# ---------------------------------------------------------------------------


def test_campaign_produces_all_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    report = persist.load_json_report(out / cli.MR_REPORT_FILE)
    assert {"mr1", "mr2", "mr3", "bandwidth", "scope_counts"} <= set(report)
    tests = persist.load_test_set(out / cli.TESTS_FILE)
    results = persist.load_results(out / cli.RESULTS_FILE)
    assert len(results) == len(tests.tests) == 18
    scatter_lines = (out / cli.SCATTER_FILE).read_text().splitlines()
    assert len(scatter_lines) == len(results) + 1  # header plus one row per test


def test_campaign_matches_individually_chained_stages(tmp_path):
    cfg = write_config(tmp_path)
    one_shot = tmp_path / "oneshot"
    chained = tmp_path / "chained"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(one_shot)]) == 0
    assert cli.main(["bound", "--config", str(cfg), "--out", str(chained)]) == 0
    assert (
        cli.main(
            [
                "generate",
                "--config",
                str(cfg),
                "--bounds",
                str(chained / cli.BOUNDS_FILE),
                "--out",
                str(chained),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "run",
                "--config",
                str(cfg),
                "--tests",
                str(chained / cli.TESTS_FILE),
                "--out",
                str(chained),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "analyze",
                "--config",
                str(cfg),
                "--results",
                str(chained / cli.RESULTS_FILE),
                "--out",
                str(chained),
            ]
        )
        == 0
    )
    for name in ARTIFACTS:
        assert digest(one_shot / name) == digest(chained / name), name


def test_campaign_is_reproducible_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(b)]) == 0
    for name in ARTIFACTS:
        assert digest(a / name) == digest(b / name), name


def test_worker_count_does_not_change_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(serial)]) == 0
    assert (
        cli.main(
            ["campaign", "--config", str(cfg), "--out", str(parallel), "--workers", "2"]
        )
        == 0
    )
    for name in ARTIFACTS:
        assert digest(serial / name) == digest(parallel / name), name


def test_seed_override_changes_the_test_set(tmp_path):
    cfg = write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(b), "--seed", "99"]) == 0
    assert digest(a / cli.TESTS_FILE) != digest(b / cli.TESTS_FILE)
    assert persist.load_test_set(b / cli.TESTS_FILE).seed == 99


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_cap_hit_saves_the_partial_map_and_warns(tmp_path):
    # The envelope drops by more than delta_a between f_min and f_max, so
    # refinement needs a third frequency that the cap does not allow.
    cfg = write_config(tmp_path, delta_a=0.05, max_frequencies=2)
    out = tmp_path / "out"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_WARNINGS
    bound_map = persist.load_bounds(out / cli.BOUNDS_FILE)
    assert bound_map.frequencies == (0.5, 1.0)
    assert bound_map.probes > 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def golden_results():
    """Seven synthetic results: MR1 and MR2 violations, one diverged test."""
    sq, tri = ShapeKind.SQUARE, ShapeKind.TRIANGLE
    return [
        make_result(sq, amp=1.0, frequency=1.0, dnl=0.02,
                    components=[(1.0, 1.0, 0.1), (3.0, 0.3, 0.3), (5.0, 0.2, 0.6)]),
        make_result(sq, amp=1.5, frequency=1.0, dnl=0.01,
                    components=[(1.0, 1.5, 0.12), (3.0, 0.5, 0.35)], actuator_sat=0.25),
        make_result(sq, amp=1.0, frequency=2.0, dnl=0.03,
                    components=[(2.0, 1.0, 0.05), (6.0, 0.3, 0.7), (10.0, 0.2, -0.0)]),
        make_result(sq, amp=1.2, frequency=0.5, dnl=math.inf, diverged=True,
                    components=[(0.5, 1.2, None), (1.5, 0.4, None)], deviation=0.125),
        make_result(tri, amp=1.0, frequency=1.0, dnl=0.1,
                    components=[(1.0, 1.0, 0.2), (3.0, 0.1, 0.4)]),
        make_result(tri, amp=0.5, frequency=2.0, dnl=0.2, components=[(2.0, 0.5, None)]),
        make_result(tri, amp=0.8, frequency=0.5, dnl=0.05,
                    components=[(0.5, 0.8, 0.3), (1.5, 0.1, 0.45)], sensor_sat=0.5),
    ]


# sha256 of mr_report.json for golden_results(), computed with the
# double-loop checkers and json.dumps before the numpy checkers existed.
GOLDEN_REPORT_SHA256 = "b07c530207b667a2b1ad8ed9f92a3d7e3eba995096da769702e6fc8a7b37ad7e"


def test_analyze_report_bytes_are_pinned(tmp_path):
    # Any change to the checkers or the report writer that moves a byte of
    # mr_report.json fails here.
    cfg = write_config(tmp_path)
    results_path = tmp_path / "results.jsonl"
    persist.save_results(results_path, golden_results())
    out = tmp_path / "out"
    argv = ["analyze", "--config", str(cfg), "--results", str(results_path), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    report = persist.load_json_report(out / cli.MR_REPORT_FILE)
    assert report["mr1"]["violations"] and report["mr2"]["violations"]
    assert digest(out / cli.MR_REPORT_FILE) == GOLDEN_REPORT_SHA256


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_writes_report_and_reruns_identically(tmp_path):
    cfg = write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["calibrate", "--config", str(cfg), "--out", str(a)]) == cli.EXIT_OK
    assert cli.main(["calibrate", "--config", str(cfg), "--out", str(b)]) == cli.EXIT_OK
    assert digest(a / cli.CALIBRATION_FILE) == digest(b / cli.CALIBRATION_FILE)
    report = persist.load_json_report(a / cli.CALIBRATION_FILE)
    assert report["threshold_exceeded"] is True
    assert report["chosen_periods"] >= 1
    assert len(report["dnl_per_periods"]) == 10


def test_calibrate_warns_when_loop_never_stressed(tmp_path):
    # Small and slow commands keep the drone linear (the settling transient
    # is short next to the period), so calibration finds no crossing.
    cfg = write_config(tmp_path, f_min=0.05, f_max=0.2, a_max=0.5, delta_a=0.1)
    out = tmp_path / "out"
    assert cli.main(["calibrate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_WARNINGS
    report = persist.load_json_report(out / cli.CALIBRATION_FILE)
    assert report["threshold_exceeded"] is False


# ---------------------------------------------------------------------------
# exit codes on bad input
# ---------------------------------------------------------------------------


def test_missing_config_file_is_invalid_input(tmp_path):
    rc = cli.main(
        ["campaign", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]
    )
    assert rc == cli.EXIT_INVALID_INPUT


def test_unknown_config_key_is_invalid_input(tmp_path):
    cfg = write_config(tmp_path, turbo=True)
    rc = cli.main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INVALID_INPUT


@pytest.mark.parametrize(
    "override",
    [{"dnl_includes_mean": "false"}, {"base_periods": 2.9}, {"seed": "7"}, {"f_min": "0.3"}],
)
def test_wrongly_typed_config_value_is_invalid_input(tmp_path, override):
    cfg = write_config(tmp_path, **override)
    rc = cli.main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INVALID_INPUT


def test_generate_without_bounds_artifact_is_invalid_input(tmp_path):
    cfg = write_config(tmp_path)
    rc = cli.main(
        [
            "generate",
            "--config",
            str(cfg),
            "--bounds",
            str(tmp_path / "absent.jsonl"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == cli.EXIT_INVALID_INPUT


def test_stage_rejects_artifact_of_wrong_kind(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(out)]) == 0
    rc = cli.main(
        [
            "run",
            "--config",
            str(cfg),
            "--tests",
            str(out / cli.BOUNDS_FILE),  # bounds artifact where tests belong
            "--out",
            str(out),
        ]
    )
    assert rc == cli.EXIT_INVALID_INPUT


def test_unknown_subcommand_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_exit_code_constants_are_distinct():
    codes = {cli.EXIT_OK, cli.EXIT_WARNINGS, cli.EXIT_INVALID_INPUT, cli.EXIT_INTERNAL}
    assert codes == {0, 2, 3, 4}
