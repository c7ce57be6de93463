"""The benchmark's span recorder wraps psgp functions by name. A name it wraps
that psgp drops would fail only the traced benchmark run, so the hooks are
installed and taken off here too."""
from pathlib import Path

import numpy as np
import pytest

from psgp import autodiff, cli, model, pretrain, stats, vectors
from psgp.cohort import CohortManifest, SubjectRow, split_cohort
from psgp.config import stage_configs
from psgp.signalio import Modality

from helpers import read_embeddings

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (autodiff, cli, model, pretrain, stats, vectors)


def small_backward() -> np.ndarray:
    x = autodiff.Tensor(np.linspace(-2.0, 2.0, 12).reshape(3, 4), requires_grad=True)
    w = autodiff.Tensor(np.linspace(-1.0, 1.0, 8).reshape(4, 2))
    autodiff.backward(autodiff.tsum(autodiff.gelu(autodiff.matmul(x, w))))
    return x.grad


def test_span_hooks_install_and_restore(monkeypatch):
    """The hooks wrap every graph op and time its node's VJP in backward,
    without changing the gradient."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    untraced = small_backward()
    before = {m: dict(vars(m)) for m in MODULES}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        wrapped = {
            (m.__name__, name) for m in MODULES for name, obj in before[m].items()
            if getattr(m, name) is not obj
        }
        traced = small_backward()
    finally:
        tracer.restore()
    names = {span[2] for span in tracer.spans}
    assert {"autodiff.gelu.vjp", "autodiff.matmul.vjp", "autodiff.tsum.vjp"} <= names, names
    assert tracer.counts["autodiff.backward.calls"] == 1
    np.testing.assert_array_equal(traced, untraced)
    for op in spans.GRAPH_OPS:
        assert ("psgp.autodiff", op) in wrapped, op
    assert ("psgp.model", "stem_forward") in wrapped
    assert ("psgp.vectors", "project_segment") in wrapped
    for m in MODULES:
        for name, obj in before[m].items():
            assert getattr(m, name) is obj, (m.__name__, name)


def test_stats_counters_get_their_data(monkeypatch):
    """The counters the benchmark reports for the fit stages read what the
    wrapped functions return: fits and their iterations, AUCs, and each
    feature matrix's dropped rows (here, every build drops each subject of
    its side whose label is missing)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    rng = np.random.default_rng(3)
    rows, scores = {}, {}
    for i in range(30):
        sid = f"P{i:02d}"
        label = None if i in (4, 11, 17) else i % 2
        rows[sid] = SubjectRow(sid, 40.0 + i, i % 3 % 2, 20.0 + i % 7, 120.0, 0.1 + i % 5 / 100, {"CVD": label})
        for mod in Modality:
            scores[sid, "CVD", mod] = float(rng.standard_normal()) + (label or 0)
    manifest = CohortManifest(rows, ("CVD",))
    split = split_cohort(manifest, 0.6, seed=1)
    incomplete = {"P04", "P11", "P17"}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        grid = cli.evaluate_grid(scores, manifest, split)
        or_rows = cli.odds_ratio_report(scores, manifest, split)
    finally:
        tracer.restore()
    assert all(isinstance(cell, float) for cell in grid.values()), grid
    assert len(or_rows) == len(Modality)
    assert {"stats.evaluate_grid", "stats.odds_ratio_report"} <= {span[2] for span in tracer.spans}
    fits = len(stats.PREDICTOR_SETS) + len(Modality)
    assert tracer.counts["stats.fit_logistic.calls"] == fits
    assert tracer.counts["stats.fit_logistic.iterations"] >= fits
    assert tracer.counts["stats.auc.calls"] == len(stats.PREDICTOR_SETS)
    grid_drops = len(stats.PREDICTOR_SETS) * len(incomplete)  # train and test side
    or_drops = len(Modality) * len(incomplete & split.train_ids)  # train side only
    assert tracer.counts["stats.build_feature_matrix.dropped"] == grid_drops + or_drops


def test_benchmark_tables_are_the_embed_format(monkeypatch, tmp_path):
    """The downstream workload writes its embedding tables itself; psgp's
    reader and writer must take them as their own, byte for byte."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    data = tmp_path / "data"
    data.mkdir()
    rows = [f"S{i:04d},{50 + i},{i % 2},25,,,{i % 2}" for i in range(1, 7)]
    (data / "manifest.csv").write_text(
        "subject_id,age,sex,bmi,sbp,frs,CVD\n" + "".join(r + "\n" for r in rows), encoding="utf-8"
    )
    emb = tmp_path / "emb"
    sizes = workloads.Sizes(subjects=6, segments=3, embed_dim=5)
    assert workloads.write_embedding_tables(emb, data, sizes, seed=7, fraction=0.5, shift=2.0) == 3 * 6 * 3
    for name in workloads.MODALITIES:
        path = emb / name / "embeddings.csv"
        ids, X = read_embeddings(path, Modality[name])
        again = tmp_path / f"{name}.csv"
        cli._write_embeddings_csv(again, ids, np.arange(len(ids)) % 3, X, Modality[name])
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("toy", [False, True])
@pytest.mark.parametrize("name", ["chain_desk", "embed_bulk", "downstream_wide"])
def test_benchmark_command_lines_parse(monkeypatch, tmp_path, name, toy):
    """Every command line a workload sends, in set-up and in the timed run,
    parses and resolves, and its ``embed`` runs with the model configs its
    ``train`` saved (``embed`` refuses any other checkpoint). The stub stage
    does nothing else, except that synth writes a two-row manifest for the
    workload to read its subject ids from."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    sent = []
    models = {}

    def call_stage(stage, argv):
        args = cli.build_parser().parse_args(argv)
        assert args.command == stage
        cfg = cli._resolve_config(args)
        if stage in ("train", "embed"):
            models.setdefault(stage, []).append(stage_configs(cfg).models)
        if stage == "synth":
            out = Path(args.out)
            out.mkdir(parents=True)
            (out / "manifest.csv").write_text(
                "subject_id,age,sex,bmi,sbp,frs,CVD\nS0001,50,0,25,,,1\nS0002,51,1,26,,,0\n",
                encoding="utf-8",
            )
        sent.append(stage)
        return 0, 0.0

    workload = workloads.WORKLOADS[name](toy)
    ctx = workloads.Context(tmp_path, seed=1, threads=workload.threads, call_stage=call_stage)
    workload.setup(ctx)
    ctx.phase = "run"
    workload.run(ctx)
    assert sent and set(sent) <= set(workloads.CHAIN_STAGES)
    assert models.get("embed") == models.get("train")
