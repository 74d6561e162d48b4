"""Tests of the benchmark's own arithmetic, inputs and checks.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import fanspectra.verify  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_child_coverage():
    tree = [
        ["bench.op", 0.0, 10.0, -1],
        ["verify.case", 1.0, 9.0, 0],
        ["eigen.solve", 2.0, 5.0, 1],
        ["eigen.group", 5.0, 6.0, 1],
        ["matrices.build", 6.5, 8.0, 1],
        ["matrices.distance", 7.0, 7.5, 4],
        ["bench.op", 11.0, 12.0, -1],
    ]
    assert spans.self_times(tree) == [2.0, 2.5, 3.0, 1.0, 1.0, 0.5, 1.0]


def test_self_times_count_overlapping_children_once_and_clip_them():
    tree = [["a", 0.0, 4.0, -1], ["b", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0]]
    assert spans.self_times(tree)[0] == 1.0


def test_recorder_summary_adds_up_to_the_wall_time():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    solve = recorder.wrap("eigen.solve", lambda matrix: np.linalg.eigvalsh(matrix))
    inner = recorder.wrap("matrices.build", lambda: np.eye(2))
    outer = recorder.wrap("matrices.build", lambda: inner())

    inner()  # outside an op: not recorded
    with recorder.span():
        solve(outer())
    summary = recorder.summary()

    # op [0, 5]; matrices.build [1, 2] with the re-entrant inner call folded in; eigen.solve [3, 4]
    assert summary["spans"] == {"bench.op": [1, 3.0], "matrices.build": [1, 1.0], "eigen.solve": [1, 1.0]}
    assert summary["wall_s"] == 5.0
    assert summary["n3_sum"] == 8 and summary["solve_small"] == [1, 1.0]
    assert summary["max_err_vs_lapack"] == 0.0
    layers, other = spans.layer_times(summary)
    assert other == 3.0 and sum(layers.values()) + other == summary["wall_s"]


def test_recorder_wraps_callers_bindings_and_restores_them():
    original = fanspectra.verify.symmetric_eigenvalues
    recorder = spans.SpanRecorder()
    with recorder.installed():
        assert fanspectra.verify.symmetric_eigenvalues is not original
        with recorder.span():
            report = fanspectra.verify.verify_case("nc", 2, 3, "distance-laplacian")
    assert fanspectra.verify.symmetric_eigenvalues is original
    assert report.passed
    summary = recorder.summary()
    for name in ("verify.case", "graphs.build", "matrices.build", "matrices.distance",
                 "eigen.solve", "eigen.group", "quotient.eigenvalues", "quotient.is_equitable",
                 "closed_forms.evaluate", "verify.compare"):
        assert summary["spans"][name][0] >= 1, name
    assert summary["spans"]["eigen.solve"][0] == 2  # the full matrix and the 4x4 quotient
    assert summary["max_err_vs_lapack"] < 1e-10
    merged = spans.merge_summaries(spans.merge_summaries(spans.empty_summary(), summary), summary)
    assert merged["spans"]["eigen.solve"][0] == 4 and merged["n3_sum"] == 2 * summary["n3_sum"]


def test_calibration_scales_by_the_speed_around_each_op():
    ref = workloads.reference.Reference(sample=None, nominal_s=1.0)
    assert ref.calibrate([4.0, 6.0], [2.0, 2.0, 2.0]) == [2.0, 3.0]
    # ten slow samples, then ten at nominal speed: the window follows the change
    scaled = ref.calibrate([1.0] * 19, [3.0] * 10 + [1.0] * 10)
    assert scaled[0] == pytest.approx(1 / 3) and scaled[-1] == 1.0
    with pytest.raises(ValueError):
        ref.calibrate([1.0], [1.0])


def test_timed_run_has_ten_ops_beyond_its_90th_percentile():
    # a run stops at a round boundary only after MIN_OPS ops, however short
    tally = run.measure([[1, 2, 3]], lambda item: item, lambda item, output: None,
                        workloads.reference.KERNEL, seconds=1e-9)
    assert tally.attempted == 102 and tally.rounds == 34
    assert tally.attempted * (1 - 0.9) >= 10


def test_percentile_interpolates_between_ranks():
    assert run.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == 3.0
    assert run.percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    assert run.percentile([7.0], 0.9) == 7.0


def test_perturbed_and_raising_ops_are_counted_as_failed():
    cells = [("fan", 2, 3, 0.5), ("nc", 2, 2, 0.25), ("fan", 3, 3, 0.75), ("nc", 3, 2, 0.5), ("fan", 2, 2, 0.5)]

    def perturbed(cell):
        if cell is cells[3]:
            raise RuntimeError("boom")
        order, built, laplacians = workloads.matrix_family_op(cell)
        if cell is cells[1]:
            built["laplacian"][0, 1] += 1.0
        if cell is cells[4]:
            return order, built  # a shape the check cannot unpack
        return order, built, laplacians

    tally = run.measure([cells], perturbed, workloads.check_matrix_family, workloads.reference.KERNEL, round_count=1)
    assert tally.attempted == 5 and tally.ok == [True, False, True, False, False]
    assert len(tally.failures) == 3
    assert "laplacian matrix is not symmetric" in tally.failures[0]
    assert "RuntimeError: boom" in tally.failures[1]
    assert "check raised ValueError" in tally.failures[2]


def test_a_run_whose_ops_all_fail_reports_them(monkeypatch, capsys):
    def broken(pair):
        raise RuntimeError("broken")

    monkeypatch.setitem(workloads.WORKLOADS, "joins", dataclasses.replace(workloads.WORKLOADS["joins"], op=broken))
    assert run.main(["--workload", "joins", "--seed", "1", "--seconds", "0.01", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= run.MIN_OPS


def test_sweep_check_rejects_a_failed_report():
    case = ("fan", 2, 2, "laplacian")
    report = workloads.sweep_op(case)
    assert workloads.check_sweep(case, report) is None
    assert workloads.check_sweep(case, dataclasses.replace(report, passed=False)) is not None


def test_join_op_passes_its_check():
    pair = workloads.build_joins(3)[0][0]
    deviations = workloads.join_op(pair)
    assert workloads.check_join(pair, deviations) is None
    assert workloads.check_join(pair, (deviations[0], 1e-6)) is not None


def _composition(name, rounds):
    key = {
        "sweep": lambda item: item,
        "matrix-family": lambda item: item[:3],
        "joins": lambda item: (item[0], item[2]),
        "cli-cold": lambda item: item[0],
    }[name]
    return [sorted(map(key, items)) for items in rounds]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs_and_mix(name):
    build = workloads.WORKLOADS[name].build
    first, again, other = build(7), build(7), build(8)
    assert first == again
    assert first != other
    mix = _composition(name, first)
    assert all(round_mix == mix[0] for round_mix in mix + _composition(name, other))


def test_cli_ops_match_in_process_output():
    argv = ("spectrum", "nc", "2", "3", "distance-laplacian", "--format", "json")
    check = workloads.CliCheck()
    assert check(argv, workloads.cli_op(argv)) is None
    records = []
    assert check(argv, workloads.cli_probe_op(argv, records)) is None
    record = records[0]
    assert record["spawned"] < record["start"] < record["numpy"] < record["package"]
    assert record["summary"]["spans"]["cli.main"][0] == 1
    assert check(argv, (0, "")) is not None


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "joins", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
