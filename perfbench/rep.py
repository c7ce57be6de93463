"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: rep.py WORKLOAD SEED THREADS TRACE OUT_DIR SPAWN_TIME [--toy]

Sets up the workload, times its operation, and writes ``result.json`` into
OUT_DIR. SPAWN_TIME is the parent's ``time.monotonic()`` just before it
started this process (one system-wide clock on Linux), so ``setup_s``
includes interpreter start and imports. The parent pins the BLAS thread
count through the environment before this process imports numpy.
"""
from __future__ import annotations

import gc
import json
import os
import platform
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class Calibration:
    """A fixed kernel of about 0.07 s, timed repeatedly through a repetition.

    The host is shared, and its speed drifts by tens of percent over
    minutes. The kernel mixes what psgp spends its time on: float32 matmul
    and ``erf``, float parsing in Python, and allocating arrays and many
    small objects; one copy runs per thread the workload uses. Timed after
    set-up, before every timed stage and at the end, it measures the host's
    speed around each stage; ``metrics.py`` scales the stage times by it.
    The kernel is not psgp code, so no change to psgp moves it.
    """

    def __init__(self, threads: int) -> None:
        import numpy as np
        from scipy.special import erf

        self._np, self._erf = np, erf
        self._x = np.linspace(-3.0, 3.0, 8 * 250 * 32, dtype=np.float32).reshape(8, 250, 32)
        self._w = np.linspace(-0.2, 0.2, 32 * 128, dtype=np.float32).reshape(32, 128)
        self._rows = [
            ",".join(f"{(i * 7919 % 1000) / 999:.9g}" for i in range(j, j + 32))
            for j in range(4500)
        ]
        self.threads = threads
        self.samples: list[float] = []

    def _kernel(self, _=None) -> None:
        for _ in range(16):
            self._erf(self._x @ self._w)
        for row in self._rows:
            [float(t) for t in row.split(",")]
        for _ in range(32):  # small enough not to raise the peak RSS
            self._np.ones(250_000)
        for _ in range(6):
            [(i, str(i), [i]) for i in range(10_000)]

    def __call__(self) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()  # a collection's cost depends on what psgp left alive
        try:
            t0 = time.perf_counter()
            if self.threads == 1:
                self._kernel()
            else:  # one copy per thread the workload runs, sharing the GIL as it does
                with ThreadPoolExecutor(self.threads) as pool:
                    list(pool.map(self._kernel, range(self.threads)))
            self.samples.append(time.perf_counter() - t0)
        finally:
            if gc_was_on:
                gc.enable()


def train_log_ms(models: Path) -> dict[str, list[float]]:
    """Per-modality step times from train.log's wallclock_ms column."""
    out = {}
    for log in sorted(models.glob("*/train.log")):
        rows = log.read_text(encoding="utf-8").splitlines()[1:]
        out[log.parent.name] = [float(r.rsplit(",", 1)[1]) for r in rows if r]
    return out


def main(argv: list[str]) -> int:
    workload, seed, threads, trace, out_dir, spawned = argv[:6]
    toy = "--toy" in argv[6:]
    root = Path(out_dir)

    from psgp import cli

    from spans import Tracer, install, summarize
    from workloads import WORKLOADS, Context, StageFailed

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        install(tracer)

    def call_stage(stage: str, args: list[str]) -> tuple[int, float]:
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(args)
        else:
            code = tracer.stage_call(f"cli.{stage}", cli.main, args)
        return code, time.perf_counter() - t0

    wl = WORKLOADS[workload](toy)
    ctx = Context(root, int(seed), int(threads), call_stage)
    result: dict = {"workload": workload, "seed": int(seed), "threads": int(threads),
                    "traced": tracer is not None}
    calibrate = None
    try:
        wl.setup(ctx)
        result["setup_s"] = time.monotonic() - float(spawned)
        calibrate = ctx.calibrate = Calibration(int(threads))
        calibrate()
        ctx.phase = "timed"
        wl.run(ctx)
        result["wall_s"] = sum(s["s"] for s in ctx.stages if s["phase"] == "timed")
        calibrate()
    except StageFailed as exc:
        result["error"] = str(exc)
    result["calibration_s"] = calibrate.samples if calibrate else []
    result["facts"] = machine_facts()
    result["stages"] = ctx.stages
    result["counts"] = ctx.facts
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["step_ms"] = train_log_ms(root / "train")
    result["synth_bytes"] = sum(p.stat().st_size for p in root.glob("synth/**/*") if p.is_file())
    if tracer is not None:
        tracer.restore()
        result["trace"] = summarize(tracer.spans)
        result["trace"]["counts"] = dict(tracer.counts)
        result["trace"]["spans"] = len(tracer.spans)
    (root / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
