"""The three benchmark workloads: their sizes, set-up and timed operation.

Each repetition runs one workload in a fresh process: ``setup`` prepares the
inputs, then ``run`` is the timed operation. Both drive ``psgp.cli.main``
one stage at a time, the way a user runs the pipeline. Everything random
derives from the workload seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODALITIES = ("EEG", "ECG", "RESP")
CHAIN_STAGES = ("synth", "train", "embed", "vectors", "score", "fit", "eval", "report")


class StageFailed(RuntimeError):
    pass


class Context:
    """Runs CLI stages under one repetition directory and records each one."""

    def __init__(self, root: Path, seed: int, threads: int, call_stage):
        self.root = root
        self.seed = seed
        self.threads = threads
        self.stages: list[dict] = []  # {"stage", "phase", "code", "s"}
        self.phase = "setup"
        self.facts: dict = {}  # workload-specific counts for the summary
        self._call_stage = call_stage
        self.calibrate = None  # set for the timed phase; timed before each stage

    def path(self, name: str) -> Path:
        return self.root / name

    def cli(self, stage: str, *args, out: str | None = None) -> Path:
        out_dir = self.path(out or stage)
        argv = [stage, "--out", str(out_dir)] + [str(a) for a in args]
        if self.calibrate is not None:
            self.calibrate()
        code, seconds = self._call_stage(stage, argv)
        self.stages.append({"stage": stage, "phase": self.phase, "code": code, "s": seconds})
        if code != 0:
            raise StageFailed(f"{stage} exited {code}")
        return out_dir


@dataclass(frozen=True)
class Sizes:
    subjects: int
    segments: int
    steps: int = 0
    batch: int = 8
    permutations: int = 4
    embed_dim: int = 32


def _synth(ctx: Context, sizes: Sizes, prevalence: tuple[str, ...], out: str = "synth") -> Path:
    args = ["--seed", ctx.seed, "--subjects", sizes.subjects, "--segments", sizes.segments]
    for p in prevalence:
        args += ["--prevalence", p]
    return ctx.cli("synth", *args, "--effect", "CVD:ECG=3.0", out=out)


def _train(ctx: Context, sizes: Sizes, data: Path) -> Path:
    return ctx.cli(
        "train", "--data", data, "--seed", ctx.seed, "--steps", sizes.steps,
        "--batch-size", sizes.batch, "--permutations", sizes.permutations,
        "--embed-dim", sizes.embed_dim, "--threads", 1,
    )


def _downstream(ctx: Context, data: Path, emb: Path) -> None:
    seed = ["--seed", ctx.seed]
    threads = ["--threads", ctx.threads]
    vec = ctx.cli("vectors", "--data", data, "--embeddings", emb, *seed, *threads)
    score = ctx.cli("score", "--data", data, "--embeddings", emb, "--vectors", vec / "vectors", *threads)
    scores = score / "scores.csv"
    ctx.cli("fit", "--data", data, "--scores", scores, *seed, *threads)
    ctx.cli("eval", "--data", data, "--scores", scores, *seed, *threads)
    first = sorted(_manifest_ids(data))[0]
    ctx.cli("report", "--data", data, "--scores", scores, "--subject", first,
            "--modality", "ECG", *seed, *threads)


def _manifest_ids(data: Path) -> list[str]:
    lines = (data / "manifest.csv").read_text(encoding="utf-8").splitlines()
    return [line.split(",", 1)[0] for line in lines[1:] if line]


class ChainDesk:
    """Acceptance 10's planted chain, synth through report, one thread."""

    name = "chain_desk"
    threads = 1
    outputs = ("embed/{mod}/embeddings.csv", "score/scores.csv", "eval/grid.csv")

    def __init__(self, toy: bool):
        self.sizes = Sizes(24, 3, steps=2, batch=4) if toy else Sizes(80, 6, steps=12)

    def setup(self, ctx: Context) -> None:
        pass  # the whole chain, synth included, is the timed operation

    def run(self, ctx: Context) -> None:
        data = _synth(ctx, self.sizes, ("CVD=0.4",))
        models = _train(ctx, self.sizes, data)
        emb = ctx.cli("embed", "--data", data, "--models", models, "--threads", ctx.threads)
        _downstream(ctx, data, emb)
        s = self.sizes
        ctx.facts["train_segments"] = s.steps * s.batch * len(MODALITIES)
        ctx.facts["embed_segments"] = s.subjects * s.segments * len(MODALITIES)


class EmbedBulk:
    """``embed`` alone over every segment of a cohort, two pool threads."""

    name = "embed_bulk"
    threads = 2
    outputs = ("embed/{mod}/embeddings.csv",)

    def __init__(self, toy: bool):
        self.sizes = Sizes(16, 4, steps=1, batch=4) if toy else Sizes(32, 20, steps=1)

    def setup(self, ctx: Context) -> None:
        data = _synth(ctx, self.sizes, ("CVD=0.4",))
        _train(ctx, self.sizes, data)

    def run(self, ctx: Context) -> None:
        ctx.cli("embed", "--data", ctx.path("synth"), "--models", ctx.path("train"),
                "--threads", ctx.threads)
        s = self.sizes
        ctx.facts["embed_segments"] = s.subjects * s.segments * len(MODALITIES)


class DownstreamWide:
    """vectors -> report over night-length embedding tables written in set-up."""

    name = "downstream_wide"
    threads = 2
    outputs = ("emb/{mod}/embeddings.csv", "score/scores.csv", "eval/grid.csv")
    prevalence = ("CVD=0.4", "DM=0.3", "HTN=0.5", "AF=0.2")
    planted_fraction = 0.3  # share of a positive subject's ECG segments shifted
    planted_shift = 3.0

    def __init__(self, toy: bool):
        self.sizes = Sizes(30, 20) if toy else Sizes(100, 120)

    def setup(self, ctx: Context) -> None:
        # the manifest comes from psgp itself; signals are not read downstream
        data = _synth(ctx, Sizes(self.sizes.subjects, 1), self.prevalence)
        ctx.facts["downstream_rows"] = write_embedding_tables(
            ctx.path("emb"), data, self.sizes, ctx.seed,
            self.planted_fraction, self.planted_shift,
        )

    def run(self, ctx: Context) -> None:
        _downstream(ctx, ctx.path("synth"), ctx.path("emb"))


def write_embedding_tables(
    out: Path, data: Path, sizes: Sizes, seed: int, fraction: float, shift: float
) -> int:
    """Write ``<MOD>/embeddings.csv`` in the format ``psgp embed`` writes.

    Rows are random unit vectors; for CVD-positive subjects a fixed share of
    ECG segments is shifted along one seeded direction before normalising,
    so the ECG disease vector and the held-out ECG AUC have a known signal.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    d = sizes.embed_dim
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    cvd = _cvd_labels(data)
    ids = sorted(cvd)
    fmt = "%s,%s,%d" + ",%.9g" * d + "\n"
    header = "subject_id,modality,segment_index," + ",".join(f"v{i}" for i in range(d)) + "\n"
    rows = 0
    for mod in MODALITIES:
        (out / mod).mkdir(parents=True, exist_ok=True)
        with (out / mod / "embeddings.csv").open("w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            for sid in ids:
                vecs = rng.standard_normal((sizes.segments, d))
                if mod == "ECG" and cvd[sid] == 1:
                    hit = rng.random(sizes.segments) < fraction
                    vecs[hit] += shift * direction
                vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
                vecs = vecs.astype(np.float32).astype(np.float64)
                fh.writelines(fmt % (sid, mod, i, *vec) for i, vec in enumerate(vecs))
                rows += sizes.segments
    return rows


def _cvd_labels(data: Path) -> dict[str, int | None]:
    lines = (data / "manifest.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    col = header.index("CVD")
    labels = {}
    for line in lines[1:]:
        cells = line.split(",")
        labels[cells[0]] = int(cells[col]) if cells[col] not in ("", "NA") else None
    return labels


WORKLOADS = {w.name: w for w in (ChainDesk, EmbedBulk, DownstreamWide)}
