"""Command-line pipeline: stages, artifacts, exit codes, reproducibility."""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from loopstress import analysis, campaign, cli, persist, plants
from loopstress.config import load_config
from loopstress.signals import ShapeKind, snap_time_gain

from conftest import make_result, violation_family

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


def test_worker_count_does_not_change_artifacts(tmp_path, monkeypatch):
    import concurrent.futures

    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    cfg = write_config(tmp_path)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(serial)]) == 0
    # Chunks small enough that the run stage has two chunks of work and forks.
    monkeypatch.setattr(campaign, "_CHUNK_STEPS", 10_000)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    assert (
        cli.main(
            ["campaign", "--config", str(cfg), "--out", str(parallel), "--workers", "2"]
        )
        == 0
    )
    assert started == [2]  # the run stage's pool; the bound stage never forks
    for name in ARTIFACTS:
        assert digest(serial / name) == digest(parallel / name), name


def test_a_stage_with_less_than_two_chunks_of_work_starts_no_pool(tmp_path, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    # The servo campaign of the benchmark: 82 probes, then 170 tests of about
    # 1.1 million steps in all, which is less than two chunks.
    cfg = Path(__file__).resolve().parents[1] / "configs" / "dc_servo_quadratic_friction.json"
    argv = ["campaign", "--config", str(cfg), "--workers", "2", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK


SERVO_FRICTION = {
    "model": "dc_servo",
    "blocks": [
        {"kind": "actuator_saturation", "lo": -10.0, "hi": 10.0},
        {"kind": "sensor_saturation", "lo": -4.0, "hi": 4.0},
        {"kind": "quantizer", "step": 0.0015339807878856412},
        {"kind": "backlash", "play": 0.05},
        {"kind": "quadratic_friction", "coef": 0.002},
    ],
}


@pytest.mark.parametrize("plant", ["drone", "servo-friction"])
def test_the_python_stepper_writes_the_compiled_steppers_artifacts(tmp_path, monkeypatch, plant):
    overrides = {"plant": SERVO_FRICTION, "a_max": 6.0, "delta_a": 1.5} if plant != "drone" else {}
    cfg = write_config(tmp_path, **overrides)
    compiled, python = tmp_path / "compiled", tmp_path / "python"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(compiled)]) in (0, 2)
    monkeypatch.setattr(plants, "load_kernel", lambda: None)
    argv = ["campaign", "--config", str(cfg), "--out", str(python), "--workers", "2"]
    assert cli.main(argv) in (0, 2)
    for name in ARTIFACTS:
        assert digest(compiled / name) == digest(python / name), name


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


# sha256 of the summary mr_report.json for golden_results().
GOLDEN_REPORT_SHA256 = "b2b2084d4be393184bae5ec9d28a5f9b84248f8051cd96cdcb486654b7793235"

# sha256 of the sorted violation records of golden_results() (one compact
# sorted-key JSON line each, MR1 to MR3), taken from the three full
# violation lists of the per-pair mr_report.json that preceded the summary.
GOLDEN_RECORDS_SHA256 = "95a435b4a3227bb15ca580ad822827584379e9d3ece605cfedd035d03eef93d5"


def analyze(tmp_path, results, *flags, name="out"):
    """``loopstress analyze`` on ``results``; returns the output directory."""
    cfg = write_config(tmp_path)
    results_path = tmp_path / f"{name}.jsonl"
    persist.save_results(results_path, results)
    out = tmp_path / name
    argv = ["analyze", "--config", str(cfg), "--results", str(results_path),
            "--out", str(out), *flags]
    assert cli.main(argv) == cli.EXIT_OK
    return out


def records_digest(path, n_results):
    """sha256 of the sorted records of an ``mr_violations.jsonl``, after
    checking its header, the form of each line and each pair's subjects."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(header) == {
        "record": "header", "schema_version": persist.SCHEMA_VERSION, "kind": "mr_violations",
    }
    for line in lines:
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert set(record) == {"detail", "relation", "subjects", "witnesses"}
        if record["relation"] != "MR3":
            i, j = record["subjects"]
            assert 0 <= i < n_results and 0 <= j < n_results and i != j
    text = "".join(sorted(line + "\n" for line in lines))
    return hashlib.sha256(text.encode()).hexdigest()


def test_analyze_report_bytes_are_pinned(tmp_path):
    # Any change to the checkers or the report writer that moves a byte of
    # mr_report.json fails here.
    out = analyze(tmp_path, golden_results())
    report = persist.load_json_report(out / cli.MR_REPORT_FILE)
    assert [report[rel]["count"] for rel in ("mr1", "mr2")] == [2, 5]
    assert report["mr1"]["violations"] and report["mr2"]["violations"]
    assert digest(out / cli.MR_REPORT_FILE) == GOLDEN_REPORT_SHA256
    assert not (out / cli.MR_VIOLATIONS_FILE).exists()


def test_full_violations_write_the_pinned_records_beside_the_same_report(tmp_path):
    out = analyze(tmp_path, golden_results(), "--full-violations")
    assert digest(out / cli.MR_REPORT_FILE) == GOLDEN_REPORT_SHA256
    assert records_digest(out / cli.MR_VIOLATIONS_FILE, 7) == GOLDEN_RECORDS_SHA256
    # Without the flag a stale list goes, as it would not match the report.
    analyze(tmp_path, golden_results())
    assert not (out / cli.MR_VIOLATIONS_FILE).exists()


def test_full_violations_print_their_size_and_exit_3_when_it_would_not_fit(
    tmp_path, capsys, monkeypatch
):
    # The counts are known before the listing: the stage prints the record
    # count and estimated size, and refuses a file larger than the free
    # space of --out's file system, leaving no mr_violations.jsonl behind.
    out = analyze(tmp_path, golden_results(), "--full-violations")
    records = (out / cli.MR_VIOLATIONS_FILE).read_bytes()
    header = records.index(b"\n") + 1
    # Every record is in the report's top lists here, so the estimate is
    # the size of the records, without the header line.
    assert capsys.readouterr().out.splitlines()[0] == (
        f"violations: 7 records, about {(len(records) - header) / 1e6:,.1f} MB, "
        f"to {cli.MR_VIOLATIONS_FILE}"
    )
    free = len(records) - header - 1
    monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=free))
    fresh = tmp_path / "fresh"
    argv = ["analyze", "--config", str(tmp_path / "campaign.json"),
            "--results", str(tmp_path / "out.jsonl"), "--out", str(fresh), "--full-violations"]
    assert cli.main(argv) == cli.EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out.startswith("violations: 7 records, about ")
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: --full-violations: {cli.MR_VIOLATIONS_FILE} would take about ")
    assert list(fresh.iterdir()) == []


def test_analyze_prints_the_pinned_counts(tmp_path, capsys):
    analyze(tmp_path, golden_results())
    assert capsys.readouterr().out == (
        "analysis: 2 MR1, 5 MR2, 0 MR3 violation(s); "
        "scope {'within': 4, 'boundary_stress': 1, 'outside': 2}\n"
    )


def scale_results():
    """240 synthetic results, drawn with a fixed seed: thousands of MR1 and
    MR2 violations, one MR3 violation, diverged tests, and None, 0.0 and
    -0.0 dofs."""
    rng = random.Random(4)
    results = []
    for n in range(240):
        shape = (ShapeKind.SQUARE, ShapeKind.TRIANGLE, ShapeKind.SINE)[n % 3]
        frequency = 0.25 * (1 + n // 3 % 12)
        amp = 0.5 + 0.25 * (n // 36 % 5)
        u = rng.random()
        if u < 0.05:
            dnl, diverged = math.inf, True
        elif u < 0.15:
            dnl, diverged = round(0.2 + u, 3), False
        else:
            dnl, diverged = round(0.1 * rng.random(), 3), False
        components = []
        for k in (1, 3, 5):
            v = rng.random()
            if v < 0.05:
                dof = None
            elif v < 0.1:
                dof = -0.0
            elif v < 0.12:
                dof = 0.0
            else:
                slope = (0.05, 0.12, 0.08)[n % 3]
                dof = round(slope * k * frequency + 0.2 * rng.random(), 2)
            components.append((k * frequency, round(amp / k, 4), dof))
        results.append(make_result(shape, amp=amp, frequency=frequency, dnl=dnl,
                                   components=components, diverged=diverged))
    return results


# sha256 of the analyze artifacts for scale_results(): the summary report;
# the tables as computed with the report writer that built one dict per
# violation.
SCALE_SHA256 = {
    cli.MR_REPORT_FILE: "b6130868e496611ffe1ca4a4430a8d787c0e6c199954ff46a81e5be877717816",
    cli.SCATTER_FILE: "5852a6a5669c7c8ac2477928d90ebbe3fb3a31a6e59b2fc03932214286e0c758",
    cli.DOF_FILE: "40df5955824041379a2a6f9337e347b9de2e8e7c45a21272775ab053e025c86c",
}


# As GOLDEN_RECORDS_SHA256, for scale_results().
SCALE_RECORDS_SHA256 = "40e1c503ef515388a8c13fcc2621e8a052a5e0f76cd44bf0362e23de9b56462d"


def test_analyze_artifacts_at_scale_are_pinned(tmp_path):
    out = analyze(tmp_path, scale_results())
    report = persist.load_json_report(out / cli.MR_REPORT_FILE)
    counts = [report["mr1"]["count"], report["mr2"]["count"], len(report["mr3"]["violations"])]
    assert counts == [3201, 2634, 1]
    assert {name: digest(out / name) for name in SCALE_SHA256} == SCALE_SHA256


def test_full_violations_at_scale_write_the_pinned_records(tmp_path):
    out = analyze(tmp_path, scale_results(), "--full-violations")
    assert {name: digest(out / name) for name in SCALE_SHA256} == SCALE_SHA256
    assert records_digest(out / cli.MR_VIOLATIONS_FILE, 240) == SCALE_RECORDS_SHA256


def test_report_size_does_not_grow_with_the_violation_count(tmp_path):
    small = analyze(tmp_path, violation_family(4), name="small") / cli.MR_REPORT_FILE
    large = analyze(tmp_path, violation_family(8), name="large") / cli.MR_REPORT_FILE
    reports = [persist.load_json_report(p) for p in (small, large)]
    assert [r["mr2"]["count"] for r in reports] == [200_928, 803_712]
    sizes = [p.stat().st_size for p in (small, large)]
    assert max(sizes) < 1_000_000
    # Four times the violations: the same lists, only wider counts.
    for rel in ("mr1", "mr2"):
        lengths = [
            {k: len(v) for k, v in r[rel].items() if isinstance(v, list)} for r in reports
        ]
        assert lengths[0] == lengths[1]
        assert lengths[0]["violations"] == analysis.TOP_K
    assert sizes[1] - sizes[0] < 0.01 * sizes[0]


@pytest.mark.parametrize("diverged", [False, True], ids=["empty", "all-diverged"])
def test_analyze_without_linear_results_reports_zero_counts(tmp_path, diverged):
    results = [
        make_result(ShapeKind.SQUARE, amp=0.5 + 0.5 * k, frequency=1.0 + k, dnl=math.inf,
                    diverged=True, components=[(1.0 + k, 1.0, None)])
        for k in range(3)
    ] if diverged else []
    out = analyze(tmp_path, results)
    text = (out / cli.MR_REPORT_FILE).read_text()
    assert "NaN" not in text
    report = json.loads(text)
    mr2 = report["mr2"]
    assert (mr2["count"], mr2["zero_hz"], mr2["saturated"]) == (0, 0, 0)
    assert (mr2["bands"], mr2["top_tests"], mr2["violations"]) == ([], [], [])
    assert mr2["saturated_share"] == 0.0 and mr2["skipped_components"] == 0
    # Diverged tests keep an infinite dnl, but a pair of them has no margin
    # (inf - inf), so it is no MR1 violation.
    mr1 = report["mr1"]
    assert (mr1["count"], mr1["saturated"], mr1["top_tests"], mr1["violations"]) == (0, 0, [], [])
    assert sum(report["scope_counts"].values()) == len(results)
    # Too few linear points is a bandwidth status, and MR3 lists the shape.
    insufficient = {"value": None, "status": "insufficient-data", "n_points": 0}
    assert report["bandwidth"] == {"square": insufficient, "triangle": insufficient}
    assert report["mr3"] == {
        "violations": [], "undefined_shapes": ["square", "triangle"], "epsilon": None,
    }


def test_run_stage_reports_progress_only_when_it_lasts(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(quiet)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # With no interval every bound round and every collected chunk prints
    # a line, the bound stage's first (see the test below).
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 0.0)
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(loud)]) == 0
    loud_captured = capsys.readouterr()
    assert loud_captured.out == captured.out
    err = loud_captured.err.splitlines()
    n_bound = sum(1 for ln in err if ln.startswith("bound: "))
    assert n_bound > 0 and all(re.fullmatch(BOUND_LINE, ln) for ln in err[:n_bound])
    lines = err[n_bound:]
    assert lines and all(re.fullmatch(r"run: \d+/18 tests, [\d.]+ tests/s", ln) for ln in lines)
    done = [int(ln.split()[1].split("/")[0]) for ln in lines]
    assert done == sorted(done) and done[-1] == 18
    for name in ARTIFACTS:
        assert digest(quiet / name) == digest(loud / name), name


BOUND_LINE = r"bound: round (\d+), (\d+) frequencies, (\d+) probes, [\d.]+ s"


def test_bound_stage_reports_each_round_when_it_lasts(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert cli.main(["bound", "--config", str(cfg), "--out", str(quiet)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL_S", 0.0)
    assert cli.main(["bound", "--config", str(cfg), "--out", str(loud)]) == 0
    loud_captured = capsys.readouterr()
    assert loud_captured.out == captured.out  # stdout is unchanged
    rows = [re.fullmatch(BOUND_LINE, ln) for ln in loud_captured.err.splitlines()]
    assert len(rows) > 1 and all(rows)
    rounds, freqs, probes = zip(*((int(g) for g in m.groups()) for m in rows))
    assert list(rounds) == list(range(1, len(rows) + 1))
    assert freqs[0] == 2 and list(freqs) == sorted(set(freqs))
    assert list(probes) == sorted(probes)
    bound_map = persist.load_bounds(loud / cli.BOUNDS_FILE)
    assert (freqs[-1], probes[-1]) == (len(bound_map.frequencies), bound_map.probes)
    assert digest(quiet / cli.BOUNDS_FILE) == digest(loud / cli.BOUNDS_FILE)


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_writes_report_and_reruns_identically(tmp_path, capsys):
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
    # Entry k of the curve is the dnl of the test that repeats its period k
    # times, not of a k-period prefix of one run.
    curve = [round(v, 4) for v in report["dnl_per_periods"]]
    assert capsys.readouterr().out.splitlines() == 2 * [
        f"calibration: dnl per period count {curve}",
        f"calibration: chose {report['chosen_periods']} period(s) per test",
    ]


def test_calibrate_warns_when_loop_never_stressed(tmp_path):
    # Small and slow commands keep the drone linear (the settling transient
    # is short next to the period), so calibration finds no crossing.
    cfg = write_config(tmp_path, f_min=0.05, f_max=0.2, a_max=0.5, delta_a=0.1)
    out = tmp_path / "out"
    assert cli.main(["calibrate", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_WARNINGS
    report = persist.load_json_report(out / cli.CALIBRATION_FILE)
    assert report["threshold_exceeded"] is False


def test_every_lane_a_stage_simulates_is_a_test_the_block_scorer_scores(tmp_path, monkeypatch):
    # Calibration, bound probes and the run stage all simulate through
    # campaign._run_block, so after each stage the lanes run_lanes stepped
    # equal the tests _run_block scored.
    counts = {"lanes": 0, "scored": 0}
    run_lanes, run_block = campaign.run_lanes, campaign._run_block

    def counted_lanes(spec, period, amplitudes, periods):
        counts["lanes"] += len(amplitudes)
        return run_lanes(spec, period, amplitudes, periods)

    def counted_block(plant, inputs, tests, period, unit):
        counts["scored"] += len(tests)
        return run_block(plant, inputs, tests, period, unit)

    monkeypatch.setattr(campaign, "run_lanes", counted_lanes)
    monkeypatch.setattr(campaign, "_run_block", counted_block)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "drone_desk.json"
    seen = {}
    for stage in ("calibrate", "bound", "generate", "run"):
        argv = [stage, "--config", str(cfg), "--workers", "1", "--out", str(tmp_path)]
        assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_WARNINGS)
        seen[stage] = (counts["lanes"], counts["scored"])
    assert all(lanes == scored for lanes, scored in seen.values()), seen
    assert seen["calibrate"] == (10, 10)  # one test per repetition count
    assert seen["run"][0] > seen["bound"][0] > seen["calibrate"][0]


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
    [{"rho": True}, {"base_periods": 2.9}, {"seed": "7"}, {"f_min": "0.3"}],
)
def test_wrongly_typed_config_value_is_invalid_input(tmp_path, override):
    cfg = write_config(tmp_path, **override)
    rc = cli.main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INVALID_INPUT


def test_config_a_later_stage_would_reject_fails_before_the_bound_stage(tmp_path):
    cfg = write_config(tmp_path, beta_alpha=0)
    out = tmp_path / "o"
    rc = cli.main(["campaign", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_INVALID_INPUT
    assert not (out / cli.BOUNDS_FILE).exists()


def test_zero_workers_is_invalid_input(tmp_path):
    cfg = write_config(tmp_path)
    rc = cli.main(["bound", "--config", str(cfg), "--workers", "0", "--out", str(tmp_path / "o")])
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


def only_error_line(capsys, prefix: str = "error:") -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    return lines[0]


@pytest.mark.parametrize(
    "override, says",
    [
        ({"shapes": 5}, "shapes must be a list"),
        ({"shapes": None}, "shapes must be a list"),
        ({"shapes": {"sine": 1}}, "shapes must be a list"),
        ({"sample_interval": True}, "sample_interval must be a finite number"),
        ({"max_frequencies": -3}, "max_frequencies must be at least 2"),
        ({"seed": -1}, "seed must not be negative"),
        # Minus the sample interval, which alpha = dt / (deriv_tau + dt) divides by.
        ({"plant": {"model": "drone_alt", "controller": {"deriv_tau": -0.001}}},
         "deriv_tau must be non-negative"),
        ({"plant": {"model": "dc_servo", "physical": {"damping": -5.0}}},
         "damping must be non-negative"),
        ({"plant": {"model": "dc_servo", "physical": {"pwm_step": -0.05}}},
         "pwm_step must be non-negative"),
        ({"plant": {"model": "drone_alt", "blocks": {}}}, "plant blocks must be a list"),
        # Keys that selected a second dnl divisor, MR2 window, MR2 margin,
        # scope boundary or sample interval.
        ({"dnl_includes_mean": True}, "unknown config keys: ['dnl_includes_mean']"),
        ({"mr2_bin_tolerance": 0.1}, "unknown config keys: ['mr2_bin_tolerance']"),
        ({"mr2_equality_tolerance": 1e-6}, "unknown config keys: ['mr2_equality_tolerance']"),
        ({"boundary_factor": 0.5}, "unknown config keys: ['boundary_factor']"),
        ({"plant": {"model": "drone_alt", "sample_interval": 0.001}},
         "unknown plant keys: ['sample_interval']"),
    ],
    ids=["shapes-int", "shapes-null", "shapes-object", "sample-interval-bool",
         "max-frequencies-negative", "seed-negative",
         "deriv-tau-minus-dt", "servo-damping-negative", "pwm-step-negative",
         "plant-blocks-object", "dnl-includes-mean", "mr2-bin-tolerance",
         "mr2-equality-tolerance", "boundary-factor", "plant-sample-interval"],
)
def test_malformed_config_exits_3_with_one_error_line(tmp_path, capsys, override, says):
    cfg = write_config(tmp_path, **override)
    rc = cli.main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INVALID_INPUT
    assert says in only_error_line(capsys)


def test_a_config_that_is_not_an_object_exits_3_with_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps([1, 2]))
    rc = cli.main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INVALID_INPUT
    assert "config must be a JSON object" in only_error_line(capsys)


def test_negative_seed_override_exits_3_before_any_stage(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    rc = cli.main(["campaign", "--config", str(cfg), "--seed", "-5", "--out", str(out)])
    assert rc == cli.EXIT_INVALID_INPUT
    assert "seed must not be negative" in only_error_line(capsys)
    assert not out.exists()


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """A config and the bounds, tests and results artifacts it gives."""
    out = tmp_path_factory.mktemp("staged")
    cfg = write_config(out)
    for stage in ("bound", "generate", "run"):
        assert cli.main([stage, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    return cfg, out


def first_component(row, field, value):
    """A result ``row`` whose first component has ``value`` at ``field``
    (0 frequency, 1 amplitude, 2 dof)."""
    components = [list(c) for c in row["components"]]
    components[0][field] = value
    return {**row, "components": components}


@pytest.mark.parametrize(
    "artifact, index, edit",
    [
        (cli.TESTS_FILE, 1, lambda r: {**r, "amp_gain": None}),
        (cli.BOUNDS_FILE, 0, lambda r: {**r, "unresolved": [1.0]}),
        (cli.BOUNDS_FILE, 1, lambda r: {**r, "bound": None}),
        (cli.TESTS_FILE, 1, lambda r: [1, 2]),
        (cli.TESTS_FILE, 0, lambda r: []),
        # Values of the wrong JSON type or not integral are not coerced.
        (cli.RESULTS_FILE, 1, lambda r: {**r, "diverged": "false"}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "diverged": 0}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "dnl": "0.5"}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "dnl": True}),
        (cli.BOUNDS_FILE, 0, lambda r: {**r, "probes": 9.7}),
        (cli.BOUNDS_FILE, 0, lambda r: {**r, "probes": "9"}),
        (cli.TESTS_FILE, 1, lambda r: {**r, "periods": 2.5}),
        (cli.BOUNDS_FILE, 0, lambda r: {**r, "probes": float(r["probes"])}),
        (cli.TESTS_FILE, 0, lambda r: {**r, "seed": float(r["seed"])}),
        (cli.RESULTS_FILE, 1,
         lambda r: {**r, "test": {**r["test"], "periods": float(r["test"]["periods"])}}),
        # A zero reference has no component to score.
        (cli.TESTS_FILE, 1, lambda r: {**r, "amp_gain": 0.0}),
        # No writer emits NaN, nor a map frequency or bound that is infinite.
        (cli.RESULTS_FILE, 1, lambda r: {**r, "dnl": math.nan}),
        (cli.BOUNDS_FILE, -1, lambda r: {**r, "frequency": math.inf}),  # still increasing
        (cli.BOUNDS_FILE, 1, lambda r: {**r, "bound": math.inf}),
        # An object or a string where a list belongs.
        (cli.TESTS_FILE, 0, lambda r: {**r, "shapes": {s: 1 for s in r["shapes"]}}),
        (cli.BOUNDS_FILE, 0, lambda r: {**r, "unresolved": {}}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "components": ""}),
        # Writers emit counts >= 0, fractions in [0, 1], deviations >= 0 and
        # dnl >= 0.
        (cli.BOUNDS_FILE, 0, lambda r: {**r, "probes": -5}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "actuator_sat_fraction": 1.5}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "sensor_sat_fraction": -0.25}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "actuator_sat_fraction": math.inf}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "deviation_mean": -1.0}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "dnl": -1.0}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "dnl": -math.inf}),
        # A component's frequency and amplitude are finite and >= 0, and its
        # dof, 1 - |Y|/|R|, is finite.
        (cli.RESULTS_FILE, 1, lambda r: first_component(r, 0, -0.5)),
        (cli.RESULTS_FILE, 1, lambda r: first_component(r, 0, math.inf)),
        (cli.RESULTS_FILE, 1, lambda r: first_component(r, 1, -1.0)),
        (cli.RESULTS_FILE, 1, lambda r: first_component(r, 1, math.inf)),
        (cli.RESULTS_FILE, 1, lambda r: first_component(r, 2, math.inf)),
        (cli.RESULTS_FILE, 1, lambda r: first_component(r, 2, -math.inf)),
        # dnl is infinite exactly when the test diverged.
        (cli.RESULTS_FILE, 1, lambda r: {**r, "dnl": math.inf, "diverged": False}),
        (cli.RESULTS_FILE, 1, lambda r: {**r, "dnl": 0.01, "diverged": True}),
    ],
    ids=["tests-null-amp-gain", "bounds-unresolved-not-pairs", "bounds-null-bound",
         "tests-list-row", "tests-list-header", "results-diverged-string",
         "results-diverged-number", "results-dnl-string", "results-dnl-bool",
         "bounds-fractional-probes", "bounds-probes-string", "tests-fractional-periods",
         "bounds-integral-float-probes", "tests-integral-float-seed",
         "results-integral-float-periods",
         "tests-zero-amp-gain", "results-dnl-nan", "bounds-frequency-infinite",
         "bounds-bound-infinite", "tests-shapes-object", "bounds-unresolved-object",
         "results-components-string", "bounds-negative-probes",
         "results-fraction-above-one", "results-fraction-negative",
         "results-fraction-infinite", "results-deviation-negative",
         "results-dnl-negative", "results-dnl-minus-infinity",
         "results-frequency-negative", "results-frequency-infinite",
         "results-amplitude-negative", "results-amplitude-infinite",
         "results-dof-infinite", "results-dof-minus-infinity",
         "results-infinite-dnl-not-diverged", "results-diverged-finite-dnl"],
)
def test_malformed_artifact_exits_3_with_one_error_line(
    staged, tmp_path, capsys, artifact, index, edit
):
    cfg, out = staged
    records = [json.loads(line) for line in (out / artifact).read_text().splitlines()]
    records[index] = edit(records[index])
    edited = tmp_path / artifact
    edited.write_text("".join(json.dumps(r) + "\n" for r in records))
    stage, flag = {
        cli.BOUNDS_FILE: ("generate", "--bounds"),
        cli.TESTS_FILE: ("run", "--tests"),
        cli.RESULTS_FILE: ("analyze", "--results"),
    }[artifact]
    capsys.readouterr()
    rc = cli.main([stage, "--config", str(cfg), flag, str(edited), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INVALID_INPUT
    assert str(edited) in only_error_line(capsys)


def test_run_on_tests_sampled_unlike_the_plant_exits_3_with_one_error_line(
    staged, tmp_path, capsys
):
    cfg, _ = staged  # plant and tests at 0.001 s
    coarse = tmp_path / "coarse"
    coarse.mkdir()
    coarse_cfg = write_config(coarse, sample_interval=0.002)
    for stage in ("bound", "generate"):
        rc = cli.main([stage, "--config", str(coarse_cfg), "--out", str(coarse)])
        assert rc in (cli.EXIT_OK, cli.EXIT_WARNINGS)
    capsys.readouterr()
    out = tmp_path / "o"
    rc = cli.main(["run", "--config", str(cfg), "--tests", str(coarse / cli.TESTS_FILE),
                   "--out", str(out)])
    assert rc == cli.EXIT_INVALID_INPUT
    assert "sample intervals differ (0.002 vs 0.001)" in only_error_line(capsys)
    assert not (out / cli.RESULTS_FILE).exists()


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_bound_on_the_snapped_period_grid(tmp_path, capsys, path):
    # Every shipped config finishes the bound stage under its frequency cap,
    # with one search per map frequency, each at a period of its own.
    rc = cli.main(["bound", "--config", str(path), "--out", str(tmp_path), "--workers", "2"])
    assert rc in (cli.EXIT_OK, cli.EXIT_WARNINGS)
    assert "bound refinement exceeded" not in capsys.readouterr().err
    bound_map = persist.load_bounds(tmp_path / cli.BOUNDS_FILE)
    dt = load_config(path).inputs.sample_interval
    periods = [snap_time_gain(f, dt) for f in bound_map.frequencies]
    assert len(set(periods)) == len(periods)
    assert bound_map.probes >= len(bound_map.frequencies)


def test_drone_full_finishes_its_campaign(tmp_path):
    # The largest shipped config that finishes in seconds, and the one whose
    # run stage spreads many chunks over the worker pool.  No digest or count
    # is pinned: both depend on the bits of numpy's FFT.
    path = next(p for p in SHIPPED_CONFIGS if p.stem == "drone_full")
    rc = cli.main(["campaign", "--config", str(path), "--out", str(tmp_path), "--workers", "2"])
    assert rc in (cli.EXIT_OK, cli.EXIT_WARNINGS)
    persist.load_bounds(tmp_path / cli.BOUNDS_FILE)
    tests = persist.load_test_set(tmp_path / cli.TESTS_FILE).tests
    results = persist.load_results(tmp_path / cli.RESULTS_FILE)
    report = persist.load_json_report(tmp_path / cli.MR_REPORT_FILE)
    assert [r.test for r in results] == list(tests)
    assert sum(report["scope_counts"].values()) == len(results)
    scatter = (tmp_path / cli.SCATTER_FILE).read_text().splitlines()
    assert scatter[0] == ",".join(analysis.SCATTER_HEADER)
    assert len(scatter) == len(results) + 1
    dof = (tmp_path / cli.DOF_FILE).read_text().splitlines()
    assert dof[0] == ",".join(analysis.DOF_HEADER)


def test_unknown_subcommand_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


@pytest.mark.parametrize("stage", ["bound", "campaign"])
def test_a_failing_stage_exits_4_with_one_internal_error_line(
    tmp_path, capsys, monkeypatch, stage
):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(campaign, "optimistic_amplitude_bound", boom)
    cfg = write_config(tmp_path)
    rc = cli.main([stage, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_INTERNAL
    assert only_error_line(capsys, "internal error:") == "internal error: RuntimeError('boom')"


@pytest.mark.parametrize("flag", ["--bounds", "--tests", "--results"])
def test_campaign_takes_no_artifact_path_flag(tmp_path, flag):
    # campaign reads each stage's input from --out; the flags belong to the stages.
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["campaign", "--config", str(cfg), flag, "x", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_exit_code_constants_are_distinct():
    codes = {cli.EXIT_OK, cli.EXIT_WARNINGS, cli.EXIT_INVALID_INPUT, cli.EXIT_INTERNAL}
    assert codes == {0, 2, 3, 4}
