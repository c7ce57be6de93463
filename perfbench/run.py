"""psgp benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload chain_desk --seed 1 --seconds 35 --trace 0

Each repetition is a fresh ``python3 perfbench/rep.py`` process that imports
psgp from ``src/`` of this checkout, with the BLAS thread count pinned to 1.
Repetitions repeat until ``--seconds`` have passed (at least two). On the
workloads that run two threads, one extra repetition at ``--threads 1`` is
the reference their outputs must equal. ``--trace 1`` adds one traced
repetition and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
summary with the workload-specific figures. The full record, with machine
facts, per-repetition times and check results, is written under
``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import end_to_end, per_layer, scaled_times, workload_summary  # noqa: E402
from workloads import MODALITIES, WORKLOADS  # noqa: E402

RUN_DEADLINE_S = 165.0  # a run must end within 180 s
GRID_ROWS = 11


def spawn(workload: str, seed: int, threads: int, trace: bool, rep_dir: Path,
          toy: bool, timeout: float) -> dict:
    """Run one repetition to completion; return its result (or a failure)."""
    rep_dir.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("PSGP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, str(HERE / "rep.py"), workload, str(seed), str(threads),
            "1" if trace else "0", str(rep_dir)]
    log = rep_dir / "log.txt"
    t0 = time.monotonic()
    try:
        with log.open("w", encoding="utf-8") as fh:
            proc = subprocess.run(argv + [str(time.monotonic())] + (["--toy"] if toy else []),
                                  stdout=fh, stderr=subprocess.STDOUT, env=env,
                                  cwd=rep_dir, timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    result_path = rep_dir / "result.json"
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.exists() else {}
    result["duration_s"] = time.monotonic() - t0
    if code != 0:
        result.setdefault("error", f"repetition exited {code}")
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"repetition {rep_dir.name} failed ({code}):\n{tail}", file=sys.stderr)
    result["hashes"] = {}
    for pattern in WORKLOADS[workload].outputs:
        for mod in MODALITIES:
            path = rep_dir / pattern.format(mod=mod)
            if path.exists():
                result["hashes"][str(path.relative_to(rep_dir))] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    result["grid"] = _read_grid(rep_dir / "eval" / "grid.csv")
    result["embed_rows"] = {
        mod: _data_rows(rep_dir / "embed" / mod / "embeddings.csv") for mod in MODALITIES
    }
    shutil.rmtree(rep_dir)
    return result


def _read_grid(path: Path) -> list[list[str]] | None:
    if not path.exists():
        return None
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]


def _data_rows(path: Path) -> int | None:
    if not path.exists():
        return None
    with path.open("rb") as fh:
        return sum(1 for _ in fh) - 1


def ecg_auc(grid: list[list[str]] | None) -> float | None:
    """The held-out ECG/CVD cell of grid.csv, or None if absent or NA."""
    if not grid or "CVD" not in grid[0]:
        return None
    row = next((r for r in grid[1:] if r[0] == "ECG"), None)
    try:
        return float(row[grid[0].index("CVD")]) if row else None
    except ValueError:  # an "NA:<reason>" cell
        return None


def run_checks(wl, reps: list[dict], ref: dict | None) -> list[tuple[str, bool, str]]:
    """Output checks; each is (name, passed, detail)."""
    checks = []
    base = reps[0]["hashes"]
    same = all(r["hashes"] == base for r in reps[1:])
    checks.append(("outputs_identical_across_repetitions", same and bool(base),
                   f"{len(reps)} repetitions, {len(base)} files"))
    if ref is not None:
        checks.append(("threads_match_threads_1", ref["hashes"] == base,
                       f"--threads {wl.threads} against --threads 1"))
    if "eval/grid.csv" in wl.outputs:
        for r in reps:
            grid = r["grid"] or []
            ok = bool(grid) and grid[0][0] == "predictor_set" and len(grid) == GRID_ROWS + 1
            checks.append(("grid_header_and_11_rows", ok, f"{len(grid)} lines"))
    if "embed" in (s["stage"] for s in reps[0]["stages"]):
        expected = wl.sizes.subjects * wl.sizes.segments
        for r in reps:
            ok = all(r["embed_rows"][m] == expected for m in MODALITIES)
            checks.append(("embeddings_row_count", ok, f"{r['embed_rows']} against {expected}"))
    return checks


def self_time_checks(traced: dict) -> list[tuple[str, bool, str]]:
    """Self times of the spans under each ``cli.train`` add up to the stage."""
    checks = []
    for root in traced["trace"]["roots"]:
        if root["name"] == "cli.train":
            gap = abs(root["self_sum_s"] - root["s"])
            checks.append(("train_self_times_sum_to_stage", gap <= 1e-6 * max(1.0, root["s"]),
                           f"self-time sum {root['self_sum_s']:.6f}s, stage {root['s']:.6f}s"))
    return checks


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "psgp" / "cli.py").is_file():
        print(f"error: no psgp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.toy)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()

    def rep(name: str, threads: int, trace: bool = False) -> dict:
        remaining = RUN_DEADLINE_S - (time.monotonic() - start)
        return spawn(args.workload, args.seed, threads, trace, work / name, args.toy,
                     max(remaining, 1.0))

    ref = rep("ref", 1) if wl.threads > 1 else None
    reps: list[dict] = []
    while not (ref and "error" in ref):
        reps.append(rep(f"rep{len(reps)}", wl.threads))
        if "error" in reps[-1]:
            break
        # start another repetition only if it can end inside --seconds
        # (and leave room for the traced one, which runs slower)
        finish = time.monotonic() - start + reps[-1]["duration_s"]
        limit = args.seconds if len(reps) >= 2 else RUN_DEADLINE_S
        if finish > min(limit, RUN_DEADLINE_S - 3.0 * args.trace * reps[-1]["duration_s"]):
            break
    traced = rep("traced", wl.threads, trace=True) if args.trace and reps else None
    shutil.rmtree(work, ignore_errors=True)

    runs = [r for r in [ref, *reps, traced] if r is not None]
    stage_calls = [s for r in runs for s in r.get("stages", [])]
    crashed = [r for r in runs if "error" in r]
    checks = [] if crashed else run_checks(wl, reps + ([traced] if traced else []), ref)
    if traced and not crashed:
        checks += self_time_checks(traced)
    attempted = len(stage_calls) + len(checks) + len(crashed)
    failed = (sum(1 for s in stage_calls if s["code"] != 0)
              + sum(1 for _, ok, _ in checks if not ok) + len(crashed))

    metrics: dict[str, tuple[float, str]] = {}
    summary: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if not crashed:
        untraced = [r for r in [ref, *reps] if r is not None]
        e2e = end_to_end(untraced, reps)
        summary = {**e2e, **workload_summary(reps, ecg_auc(reps[0]["grid"]))}
        summary["failed_frac"] = (failed / attempted, "ratio")
        if traced is None:
            metrics = e2e
        else:
            step_ms: dict[str, list[float]] = {}
            for r in untraced:
                for mod, values in r["step_ms"].items():
                    step_ms.setdefault(mod, []).extend(values)
            overhead = scaled_times(traced)[1] / e2e["wall_s"][0]
            metrics, notes = per_layer(traced, step_ms, overhead)
        if "eval/grid.csv" in wl.outputs and "ecg_auc" not in summary:
            notes["ecg_auc"] = "the ECG cell of grid.csv is NA"

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "git_commit": git_commit(),
        "machine": runs[0].get("facts") if runs else None,
        "sizes": vars(wl.sizes),
        "threads": wl.threads,
        "repetitions": len(reps),
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "errors": [r["error"] for r in crashed],
        "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "notes": notes,
        "runs": [{k: r.get(k) for k in ("threads", "traced", "setup_s", "wall_s", "peak_rss_mb",
                                        "stages", "duration_s", "calibration_s")} for r in runs],
    }
    out = ROOT / ".perfbench_work" / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("summary: " + json.dumps(
        {"workload": args.workload, "seed": args.seed, "repetitions": len(reps),
         **record["summary"], "record": str(out.relative_to(ROOT))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
