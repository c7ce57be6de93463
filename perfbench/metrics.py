"""Turn repetition results into the benchmark's metrics.

End-to-end metrics come from the untraced repetitions; per-layer metrics
come from the one traced repetition (plus train.log step times from the
untraced ones). Every metric is ``name -> (value, unit)``.
"""
from __future__ import annotations

import statistics

from spans import TRACED_OPS
from workloads import CHAIN_STAGES, MODALITIES

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# time of rep.py's calibration kernel on the reference host, by the number
# of copies run at once: gated times are in seconds of that host
CAL_REF_S = {1: 0.07, 2: 0.115}


def scaled_times(rep: dict) -> tuple[float, float]:
    """(setup, wall) of one repetition in reference-host seconds.

    The calibration ran after set-up, before every timed stage and at the
    end; each stage is scaled by the median of the three samples around it,
    and set-up by the first three, so a drift in host speed within the
    repetition is followed and one outlying sample is ignored.
    """
    cal = rep["calibration_s"]
    ref = CAL_REF_S[rep["threads"]]
    timed = [s for s in rep["stages"] if s["phase"] == "timed"]
    wall = sum(s["s"] * ref / statistics.median(cal[i:i + 3]) for i, s in enumerate(timed))
    return rep["setup_s"] * ref / statistics.median(cal[:3]), wall


def end_to_end(setups: list[dict], timed: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians: set-up over every untraced repetition, the rest over timed ones."""
    values = {
        "setup_s": statistics.median(scaled_times(r)[0] for r in setups),
        "wall_s": statistics.median(scaled_times(r)[1] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def _stage_median(timed: list[dict], stage: str) -> float | None:
    times = [
        sum(s["s"] for s in r["stages"] if s["stage"] == stage and s["phase"] == "timed")
        for r in timed
    ]
    return statistics.median(times) if times and min(times) > 0 else None


def workload_summary(timed: list[dict], ecg_auc: float | None) -> dict[str, tuple[float, str]]:
    """Measured (unscaled) times, the host calibration, and the
    workload-specific throughputs and quality figure where they apply."""
    counts = timed[0]["counts"]
    out: dict[str, tuple[float, str]] = {
        "setup_measured_s": (statistics.median(r["setup_s"] for r in timed), "s"),
        "wall_measured_s": (statistics.median(r["wall_s"] for r in timed), "s"),
        "calibration_s": (statistics.median(s for r in timed for s in r["calibration_s"]), "s"),
    }
    train_s = _stage_median(timed, "train")
    if train_s and "train_segments" in counts:
        out["train_segments_per_s"] = (counts["train_segments"] / train_s, "segments/s")
    embed_s = _stage_median(timed, "embed")
    if embed_s and "embed_segments" in counts:
        out["embed_segments_per_s"] = (counts["embed_segments"] / embed_s, "segments/s")
    if "downstream_rows" in counts:
        wall = statistics.median(r["wall_s"] for r in timed)
        out["downstream_rows_per_s"] = (counts["downstream_rows"] / wall, "rows/s")
    if ecg_auc is not None:
        out["ecg_auc"] = (ecg_auc, "AUC")
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_layer(
    traced: dict, untraced_step_ms: dict[str, list[float]], overhead: float
) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics and, for each one that carries a caveat, the reason."""
    trace = traced["trace"]
    by = trace["by_name"]
    counts = trace["counts"]
    m: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    def secs(name: str, key: str = "s") -> float:
        return by.get(name, {}).get(key, 0.0)

    def count(name: str) -> float:
        return counts.get(name, 0)

    for stage in CHAIN_STAGES:
        m[f"cli.{stage}.s"] = (secs(f"cli.{stage}"), "s")
        m[f"cli.{stage}.self_s"] = (secs(f"cli.{stage}", "self_s"), "s")

    m["synth.generate_cohort.s"] = (secs("synth.generate_cohort"), "s")
    m["synth.bytes_written"] = (traced["synth_bytes"], "bytes")

    m["signalio.read_signal_file.s"] = (secs("signalio.read_signal_file"), "s")
    m["signalio.read_signal_file.calls"] = (count("signalio.read_signal_file.calls"), "count")
    m["signalio.bytes_read"] = (count("signalio.bytes_read"), "bytes")
    m["signalio.segment_recording.s"] = (secs("signalio.segment_recording"), "s")

    m["cohort.load_manifest.s"] = (secs("cohort.load_manifest"), "s")
    m["cohort.split_cohort.calls"] = (count("cohort.split_cohort.calls"), "count")

    for mod in MODALITIES:
        samples = untraced_step_ms.get(mod, [])
        for q in (50, 90):
            name = f"pretrain.step_ms.p{q}.{mod}"
            m[name] = (percentile(samples, q) if samples else 0.0, "ms")
            if not samples:
                notes[name] = "no training steps in this workload"
            elif q == 90 and len(samples) < 100:
                notes[name] = f"from {len(samples)} steps, fewer than the 100 a p90 needs"
    loss_s = secs("pretrain.total_loss_graph")
    backward_s = secs("pretrain.backward")
    m["pretrain.total_loss_graph.s"] = (loss_s, "s")
    m["pretrain.target_encode.s"] = (secs("pretrain.target_encode"), "s")
    m["pretrain.tcr_loss.s"] = (secs("pretrain.tcr_loss"), "s")
    m["pretrain.sample_masks.s"] = (secs("pretrain.sample_masks"), "s")
    m["pretrain.backward.s"] = (backward_s, "s")
    m["pretrain.backward.self_s"] = (secs("pretrain.backward", "self_s"), "s")
    step_s = sum(sum(v) for v in traced["step_ms"].values()) / 1000.0
    m["pretrain.optimizer.s"] = (max(0.0, step_s - loss_s - backward_s), "s")
    notes["pretrain.optimizer.s"] = "computed: train.log step time - loss - backward"
    m["pretrain.steps"] = (count("pretrain.steps"), "count")

    m["model.stem_forward.s"] = (secs("model.stem_forward"), "s")
    m["model.encode_t.s"] = (secs("model.encode_t") + secs("pretrain.target_encode"), "s")
    m["model.decode_t.s"] = (secs("model.decode_t"), "s")
    m["model.pool_rows.s"] = (secs("model.pool_rows"), "s")
    m["model.embed_segments.s"] = (secs("model.embed_segments"), "s")
    m["model.embed_segments.segments"] = (count("model.embed_segments.segments"), "count")
    m["model.load_checkpoint.s"] = (secs("model.load_checkpoint"), "s")
    m["model.save_checkpoint.s"] = (secs("model.save_checkpoint"), "s")

    named_vjp = 0.0
    for op in TRACED_OPS:
        m[f"autodiff.{op}.fwd_s"] = (secs(f"autodiff.{op}"), "s")
        m[f"autodiff.{op}.vjp_s"] = (secs(f"autodiff.{op}.vjp"), "s")
        m[f"autodiff.{op}.calls"] = (count(f"autodiff.{op}.calls"), "count")
        named_vjp += secs(f"autodiff.{op}.vjp")
    all_vjp = sum(v["s"] for k, v in by.items() if k.endswith(".vjp"))
    m["autodiff.other.vjp_s"] = (all_vjp - named_vjp, "s")
    m["autodiff.matmul.flops"] = (count("autodiff.matmul.flops"), "flop")
    notes["autodiff.matmul.flops"] = "computed from forward shapes: 2*m*k*n per product"
    m["autodiff.gelu.elements"] = (count("autodiff.gelu.elements"), "elements")
    backwards = count("autodiff.backward.calls")
    tape = count("autodiff.tape_nodes.total") / backwards if backwards else 0.0
    m["autodiff.tape_nodes"] = (tape, "nodes/step")

    m["vectors.derive_vectors.s"] = (secs("vectors.derive_vectors"), "s")
    m["vectors.score_cohort.s"] = (secs("vectors.score_cohort"), "s")
    m["vectors.project_segment.calls"] = (count("vectors.project_segment.calls"), "count")
    m["vectors.load_disease_vector.s"] = (secs("vectors.load_disease_vector"), "s")
    m["vectors.save_scores.s"] = (secs("vectors.save_scores"), "s")
    m["vectors.load_scores.s"] = (secs("vectors.load_scores"), "s")

    m["stats.evaluate_grid.s"] = (secs("stats.evaluate_grid"), "s")
    m["stats.odds_ratio_report.s"] = (secs("stats.odds_ratio_report"), "s")
    for name in ("fit_logistic.calls", "fit_logistic.iterations", "fit_logistic.nonconverged",
                 "auc.calls", "build_feature_matrix.dropped"):
        m[f"stats.{name}"] = (count(f"stats.{name}"), "count")

    m["report.build_report_card.s"] = (secs("report.build_report_card"), "s")

    m["trace.overhead"] = (overhead, "ratio")
    notes["trace.overhead"] = "traced wall_s / median untraced wall_s"
    m["trace.spans"] = (trace["spans"], "count")

    for name, (value, _) in m.items():
        if value == 0 and name not in notes:
            notes[name] = "zero in this workload: none of this work or event happened"
    return m, notes
