"""Self-test of the benchmark: every workload at toy size, untraced and traced.

    python3 -m pytest perfbench -q

Checks the output contract (last line, metric names and units against
BENCHMARK.json), that the workload-specific figures are in the summary, and
that every metric is a number and every zero carries a recorded reason.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the workload-specific summary figures each workload must report
SUMMARY = {
    "chain_desk": ("train_segments_per_s", "embed_segments_per_s", "ecg_auc"),
    "embed_bulk": ("embed_segments_per_s",),
    "downstream_wide": ("downstream_rows_per_s", "ecg_auc"),
}
ALWAYS = ("setup_s", "wall_s", "peak_rss_mb", "failed_frac")


def run_bench(cwd: Path, workload: str, trace: int, toy: bool = True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    summary = json.loads(lines[-2].removeprefix("summary: "))
    record = json.loads((ROOT / summary["record"]).read_text(encoding="utf-8"))
    for name in ALWAYS + SUMMARY[workload]:
        assert name in summary or name in record["notes"], name
        if name in summary:
            assert summary[name]["unit"]
    for name, metric in result["metrics"].items():
        if metric["value"] == 0:
            assert name in record["notes"], f"{name} is zero with no recorded reason"
    assert record["machine"]["nproc"] >= 1 and record["machine"]["blas_threads"] == "1"
    assert record["seed"] == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "chain_desk", 0, toy=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
