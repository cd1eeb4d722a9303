"""Tests of the benchmark itself: emitted metrics, output checks, trace tooling."""
from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
from checks import CheckFailed, check_outputs  # noqa: E402
from reference import NOMINAL_S, SpeedReference  # noqa: E402
from tracing import LAYER_METRICS, _resolve, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--epochs", "1"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_one_epoch_run_emits_every_metric(workload, trace, key):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert (values["data.by_language.calls"] > 0) == (workload == "dual_desk")
        assert (values["strategies.gem_reference_grads.s"] > 0) == (workload == "gem_paper")
        assert (values["strategies.gem_project.s"] > 0) == (workload == "gem_paper")


def test_spec_lists_the_workloads_and_metrics_the_benchmark_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS


def test_config_is_a_function_of_workload_seed_and_replicate():
    a = config_text("gem_paper", 7, 0, "out")
    assert a == config_text("gem_paper", 7, 0, "out")
    assert a != config_text("gem_paper", 8, 0, "out")
    assert a != config_text("gem_paper", 7, 1, "out")


def test_train_samples_follow_the_pool_schedule():
    # replay_dual: stage pools 1500, 1500+120, 1500+120 at batch 32, 2 batches a step
    w = WORKLOADS["dual_desk"]
    assert w.steps(1) == 46 + 50 + 50
    assert w.train_samples(1) == (46 + 50 + 50) * 32 * 2


def write_run(out_dir, stage_mcds):
    """result.json and report.csv as `lltts train` writes them."""
    order = list(range(len(stage_mcds)))
    reports, header, row = [], ["method"], ["EWC"]
    for k, mcds in enumerate(stage_mcds):
        per_language = {str(lang): v for lang, v in zip(order, mcds)}
        average = sum(mcds) / len(mcds)
        reports.append({"stage_language": k, "per_language": per_language, "average": average})
        header += [f"stage{k}:L{lang}" for lang in order[: k + 1]] + [f"stage{k}:Avg", f"stage{k}:MCDR"]
        row += [f"{v:.2f}" for v in mcds] + [f"{average:.2f}", "N/A"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"strategy": "EWC", "task_order": order, "reports": reports}, f)
    with open(os.path.join(out_dir, "report.csv"), "w") as f:
        f.write(",".join(header) + "\n" + ",".join(row) + "\n")


def test_check_accepts_a_consistent_run_and_computes_forgetting(tmp_path):
    write_run(tmp_path, [[2.0], [3.0, 2.5]])
    out = check_outputs(str(tmp_path), 2)
    assert out.final_avg_mcd == 2.75
    assert out.forgetting_mcd == 1.0  # L0: 3.0 at the end minus 2.0 after its own stage


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_nonfinite_or_nonpositive_mcd_fails_the_check(tmp_path, bad):
    write_run(tmp_path, [[2.0], [bad, 2.5]])
    with pytest.raises(CheckFailed):
        check_outputs(str(tmp_path), 2)


def test_stage_count_must_equal_language_count(tmp_path):
    write_run(tmp_path, [[2.0], [3.0, 2.5]])
    with pytest.raises(CheckFailed):
        check_outputs(str(tmp_path), 3)


def test_report_that_disagrees_with_result_fails_the_check(tmp_path):
    write_run(tmp_path, [[2.0], [3.0, 2.5]])
    path = tmp_path / "report.csv"
    path.write_text(path.read_text().replace("3.00", "3.10"))
    with pytest.raises(CheckFailed):
        check_outputs(str(tmp_path), 2)


def record(**changes):
    """A child record: set-up ends 0.5 s after the start at 1.0; 10 reference
    passes took their nominal time, 2 of them in set-up."""
    return {"rc": 0, "first_stage_at": 1.5, "setup_reference_s": 2 * NOMINAL_S, "steps": None,
            "reference": [10, 10 * NOMINAL_S], "maxrss_kb": 1024, **changes}


def judged(tmp_path, name, stage_mcds):
    """A finished untraced child whose run wrote the given MCD staircase."""
    work = tmp_path / name
    write_run(work / "out", stage_mcds)
    record_path, _, _ = bench.child_files(str(work), 0)
    with open(record_path, "w") as f:
        json.dump(record(), f)
    workload = dataclasses.replace(WORKLOADS["dual_desk"], languages=len(stage_mcds))
    return bench.judge(workload, None, False, 0, 4.0, 1.0, str(work), 0)


def test_report_with_injected_nan_counts_as_a_failed_run(tmp_path):
    good = judged(tmp_path, "good", [[2.0], [3.0, 2.5]])
    nan = judged(tmp_path, "nan", [[2.0], [float("nan"), 2.5]])
    assert good.ok and not nan.ok
    attempted, failed = bench.tally([good, nan])
    assert (attempted, failed) == (2, 1)
    metrics = bench.end_to_end_metrics([good, nan], WORKLOADS["dual_desk"], 1, attempted, failed)
    assert metrics["ok_share"] == 0.5


def test_step_count_must_match_the_config(tmp_path):
    work = tmp_path / "short"
    write_run(work / "out", [[2.0], [3.0, 2.5]])
    record_path, _, _ = bench.child_files(str(work), 0)
    with open(record_path, "w") as f:
        json.dump(record(steps=2), f)
    workload = dataclasses.replace(WORKLOADS["dual_desk"], languages=2)
    child = bench.judge(workload, 1, False, 0, 4.0, 1.0, str(work), 0)
    assert not child.ok and "optimizer steps" in child.reason


def test_times_exclude_the_reference_and_scale_to_its_speed(tmp_path):
    # the same run on a machine at half the speed: every time doubles,
    # reference passes included
    runs = []
    for name, slow in (("usual", 1.0), ("half_speed", 2.0)):
        work = tmp_path / name
        write_run(work / "out", [[2.0], [3.0, 2.5]])
        record_path, _, _ = bench.child_files(str(work), 0)
        with open(record_path, "w") as f:
            json.dump(record(first_stage_at=1.0 + slow * (0.5 + 2 * NOMINAL_S),
                             setup_reference_s=slow * 2 * NOMINAL_S, reference=[10, slow * 10 * NOMINAL_S]), f)
        workload = dataclasses.replace(WORKLOADS["dual_desk"], languages=2)
        child = bench.judge(workload, None, False, 0, slow * (3.0 + 10 * NOMINAL_S), 1.0, str(work), 0)
        assert child.ok, child.reason
        assert child.setup_s * child.scale == pytest.approx(0.5)
        assert child.run_s * child.scale == pytest.approx(3.0)
        runs.append(child)
    metrics = bench.end_to_end_metrics(runs, WORKLOADS["dual_desk"], 1, 2, 0)
    assert metrics["run_s"] == pytest.approx(3.0)
    assert metrics["train_samples_per_s"] == pytest.approx(WORKLOADS["dual_desk"].train_samples(1) / 2.5)


def test_speed_reference_times_its_passes():
    reference = SpeedReference()
    reference.start()
    deadline = time.monotonic() + 0.2
    while time.monotonic() < deadline:
        pass
    reference.stop()
    assert reference.count >= 2 and reference.total_s > 0


def test_runs_of_one_config_must_agree_on_the_digest(tmp_path):
    runs = [judged(tmp_path, f"r{i}", [[2.0], [3.0, 2.5]]) for i in range(2)]
    runs.append(judged(tmp_path, "odd", [[2.0], [3.0, 2.6]]))
    assert bench.tally(runs) == (3, 1)
    assert not runs[2].ok and "digest" in runs[2].reason


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
    spans = [[0, 0.0, 10.0, -1, "r"], [1, 1.0, 4.0, 0, "r"], [2, 2.0, 3.0, 1, "r"], [3, 5.0, 6.0, 0, "r"]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_removed_target_is_absent_and_reads_zero():
    assert _resolve("lltts.no_such_module", "f") is None
    assert _resolve("json", "no_such_function") is None
    assert _resolve("json", "JSONDecoder.no_such_method") is None
    doc = {"names": ["model.adam_step"], "counters": {}, "spans": [[0, 0.0, 1.0, -1, "r"]]}
    values = summarize(doc, wall_s=2.0, overhead_pct=100.0)
    assert set(values) == set(LAYER_METRICS)
    assert values["model.adam_step.calls"] == 1
    assert values["data.by_language.calls"] == 0 and values["strategies.gem_project.s"] == 0
    assert values["trace.overhead_pct"] == 100.0
    assert values["trace.untraced_s"] == 1.0
