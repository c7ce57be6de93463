"""Command-line pipeline: synth -> train -> embed -> vectors -> score -> fit/eval/report.

Every subcommand writes only under its --out directory, emits a resolved
configuration snapshot next to its outputs, and is deterministic given the
seed (training wallclock timings live only in train.log). Exit codes: 2 for
usage problems, 3 for data problems, 4 for numeric failures.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .cohort import CohortManifest, load_manifest, save_split, split_cohort
from .config import (
    RunConfig,
    load_run_config,
    model_config_for,
    parse_effects,
    parse_modalities,
    parse_prevalence,
    resolved_text,
    ssl_config_for,
    synth_config_for,
)
from .errors import ConfigError, DataError, FormatError, MissingInputError, PsgpError
from .model import embed_segments, load_checkpoint, save_checkpoint
from .pretrain import train
from .report import build_report_card, render_report_card, report_card_csv
from .signalio import Modality, read_signal_file, samples_per_window, segment_recording
from .stats import evaluate_grid, odds_ratio_report, save_or_report
from .synth import generate_cohort
from .vectors import (
    EmbeddingTable,
    derive_vectors,
    load_disease_vector,
    load_scores,
    save_disease_vector,
    save_scores,
    score_cohort,
)


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingInputError(f"{what} not found: {path}")
    return path


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_run_config(getattr(args, "config", None))
    updates: dict[str, object] = {}

    def take(attr: str, field: str, convert=None):
        value = getattr(args, attr, None)
        if value is not None:
            updates[field] = convert(value) if convert else value

    take("seed", "seed")
    take("split_ratio", "split_ratio")
    take("modality", "modalities", parse_modalities)
    take("outcomes", "outcomes", lambda s: tuple(t.strip() for t in s.split(",") if t.strip()))
    take("embed_dim", "embed_dim")
    take("precision", "precision")
    take("steps", "steps")
    take("batch_size", "batch_size")
    take("learning_rate", "learning_rate")
    take("mask_ratio", "mask_ratio")
    take("permutations", "n_permutations")
    take("tcr_weight", "tcr_weight")
    take("tcr_epsilon", "tcr_epsilon")
    take("embed_batch", "embed_batch")
    take("subjects", "n_subjects")
    take("segments", "segments_per_subject")
    take("noise_sigma", "noise_sigma")
    take("waveform", "base_waveform")
    take("affected_fraction", "affected_fraction")
    if getattr(args, "masked_only", False):
        updates["masked_only"] = True
    if getattr(args, "prevalence", None):
        updates["prevalence"] = parse_prevalence(",".join(args.prevalence))
    if getattr(args, "effect", None):
        updates["effects"] = parse_effects(",".join(args.effect))

    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("PSGP_THREADS")
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ConfigError(f"PSGP_THREADS must be an integer, got {env!r}") from None
    if threads is not None:
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        updates["threads"] = threads

    from dataclasses import replace

    cfg = replace(cfg, **updates)
    if not (0.0 < cfg.split_ratio < 1.0):
        raise ConfigError(f"split_ratio must lie in (0, 1), got {cfg.split_ratio}")
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _snapshot(cfg: RunConfig, out: Path, command: str) -> None:
    (out / f"resolved_config_{command}.txt").write_text(resolved_text(cfg), encoding="utf-8")


def _manifest_for(args: argparse.Namespace) -> tuple[Path, CohortManifest]:
    data = _require(Path(args.data), "data directory")
    manifest = load_manifest(_require(data / "manifest.csv", "manifest"))
    return data, manifest


def _outcomes_for(cfg: RunConfig, manifest: CohortManifest) -> tuple[str, ...]:
    if not cfg.outcomes:
        return manifest.outcome_names
    for outcome in cfg.outcomes:
        if outcome not in manifest.outcome_names:
            raise DataError(f"manifest has no outcome column {outcome!r}")
    return cfg.outcomes


def _load_modality_segments(
    data: Path, manifest: CohortManifest, modality: Modality, subject_ids, input_len: int
) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """Stack every available segment for the given subjects, sorted by id."""
    rows: list[np.ndarray] = []
    keys: list[tuple[str, int]] = []
    for sid in sorted(subject_ids):
        path = data / "signals" / f"{sid}_{modality.name}.psgs"
        if not path.exists():
            continue
        rec = read_signal_file(path)
        if rec.subject_id != sid:
            raise DataError(f"{path}: file claims subject {rec.subject_id!r}, expected {sid!r}")
        spw = samples_per_window(rec.sample_rate_hz)
        if spw != input_len:
            raise DataError(
                f"{path}: window of {spw} samples does not match the model input length {input_len}"
            )
        for seg in segment_recording(rec):
            rows.append(seg.samples)
            keys.append((sid, seg.index))
    if not rows:
        raise DataError(f"no {modality.name} segments found under {data / 'signals'}")
    return np.stack(rows), keys


# --- subcommands -------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    truth = generate_cohort(synth_config_for(cfg), out)
    _snapshot(cfg, out, "synth")
    print("outcome,modality,effect_size,n_positive")
    outcomes = sorted({o for o, _ in truth.effect_sizes})
    for outcome in outcomes:
        n_pos = sum(truth.labels[sid][outcome] for sid in truth.labels)
        for mod in ("EEG", "ECG", "RESP"):
            print(f"{outcome},{mod},{truth.effect_sizes[(outcome, mod)]:g},{n_pos}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    data, manifest = _manifest_for(args)
    out = _out_dir(args)
    split = split_cohort(manifest, cfg.split_ratio, cfg.seed)
    for modality in cfg.modalities:
        mcfg = model_config_for(cfg, modality)
        X, _ = _load_modality_segments(data, manifest, modality, split.train_ids, mcfg.input_len)
        mod_dir = out / modality.name
        mod_dir.mkdir(parents=True, exist_ok=True)
        params, _ = train(
            X,
            mcfg,
            ssl_config_for(cfg),
            log_path=mod_dir / "train.log",
            checkpoint_dir=mod_dir,
        )
        save_checkpoint(params, mcfg, mod_dir / "checkpoint.psgm")
        print(f"trained {modality.name}: {X.shape[0]} segments -> {mod_dir / 'checkpoint.psgm'}")
    save_split(split, out / "split.csv")
    _snapshot(cfg, out, "train")
    return 0


def _write_embeddings_csv(path: Path, keys, vectors: np.ndarray, modality: Modality) -> None:
    d = vectors.shape[1]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "modality", "segment_index"] + [f"v{i}" for i in range(d)])
        for (sid, idx), vec in zip(keys, vectors):
            writer.writerow([sid, modality.name, idx] + [format(float(v), ".9g") for v in vec])


def _read_embeddings_csv(path: Path, modality: Modality) -> EmbeddingTable:
    """(subject_ids, X) of one modality's table, X an (N, d) float32 array.

    One streaming pass: each line's key cells are checked as it is read and
    its numeric tail goes on to a single ``np.loadtxt``. Every line after the
    header must be a full row, so row i is line i + 2.
    """
    subject_ids: list[str] = []
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:3] != ["subject_id", "modality", "segment_index"] or len(header) < 4:
            raise FormatError(f"{path}: unexpected embeddings header")
        try:
            X = _decimal_rows(_embedding_rows(fh, path, modality, len(header), subject_ids), len(header) - 3)
        except (ValueError, FormatError):
            _raise_first_bad_line(path, modality, len(header))
            raise
    with np.errstate(over="ignore"):  # beyond float32 range is caught just below
        X = X.astype(np.float32)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: line {bad[0] + 2}: non-finite embedding value")
    return np.array(subject_ids, dtype=str), X


def _embedding_rows(fh, path: Path, modality: Modality, width: int, subject_ids: list[str]):
    """Check the key cells of each line of an open table and yield its numeric tail.

    Each row's subject id is appended to ``subject_ids``.
    """
    name = modality.name
    for lineno, line in enumerate(fh, start=2):
        if line[-1] != "\n":
            raise FormatError(f"{path}: line {lineno} has no line end (truncated table?)")
        if line[0] == '"':  # a subject id that csv.writer quoted
            rec = next(csv.reader([line]))
            cells = rec[:3] + [",".join(rec[3:])] if len(rec) > 3 else rec
        else:
            cells = line[:-1].split(",", 3)
        if len(cells) != 4 or cells[3].count(",") != width - 4:
            n_cells = len(cells) + cells[3].count(",") if len(cells) == 4 else len(cells)
            raise FormatError(f"{path}: line {lineno} has {n_cells} cells, header has {width}")
        sid, mod, index, tail = cells
        if not tail:  # d = 1: loadtxt would skip the row as a blank line
            raise FormatError(f"{path}: line {lineno}: empty embedding value")
        try:
            if mod != name and Modality.parse(mod) is not modality:
                raise DataError(f"modality {mod!r} in the {modality.name} table")
            int(index)
        except (ValueError, DataError) as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        subject_ids.append(sid)
        yield tail


def _decimal_rows(rows, d: int) -> np.ndarray:
    """(N, d) float64 array of an iterable of comma-separated number rows."""
    first = next(rows, None)
    if first is None:  # loadtxt warns on empty input
        return np.empty((0, d))
    return np.loadtxt(
        itertools.chain([first], rows), delimiter=",", comments=None, dtype=np.float64, ndmin=2
    )


def _raise_first_bad_line(path: Path, modality: Modality, width: int) -> None:
    """Re-read a table that failed to parse in bulk, row by row, and raise a
    FormatError for its first bad line."""
    with path.open(encoding="utf-8") as fh:
        fh.readline()
        for lineno, tail in enumerate(_embedding_rows(fh, path, modality, width, []), start=2):
            try:
                _decimal_rows(iter([tail]), width - 3)
            except ValueError:
                cell = next(c for c in tail.split(",") if not _is_decimal(c))
                raise FormatError(f"{path}: line {lineno}: {cell!r} is not a decimal number") from None


def _is_decimal(cell: str) -> bool:
    try:  # loadtxt would skip an empty cell as a blank line
        return cell != "" and _decimal_rows(iter([cell]), 1).size == 1
    except ValueError:
        return False


def cmd_embed(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    data, manifest = _manifest_for(args)
    models = _require(Path(args.models), "models directory")
    out = _out_dir(args)
    for modality in cfg.modalities:
        ckpt_path = _require(models / modality.name / "checkpoint.psgm", "checkpoint")
        params, mcfg = load_checkpoint(ckpt_path)
        X, keys = _load_modality_segments(
            data, manifest, modality, manifest.subject_ids, mcfg.input_len
        )
        vecs = np.empty((X.shape[0], mcfg.embed_dim), dtype=mcfg.np_dtype)
        spans = [
            (s, min(s + cfg.embed_batch, X.shape[0]))
            for s in range(0, X.shape[0], cfg.embed_batch)
        ]

        def work(span):
            s, e = span
            vecs[s:e] = embed_segments(X[s:e], params, mcfg, batch_size=cfg.embed_batch)

        if cfg.threads > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                list(pool.map(work, spans))
        else:
            for span in spans:
                work(span)
        mod_dir = out / modality.name
        mod_dir.mkdir(parents=True, exist_ok=True)
        _write_embeddings_csv(mod_dir / "embeddings.csv", keys, vecs, modality)
        print(f"embedded {modality.name}: {X.shape[0]} segments")
    _snapshot(cfg, out, "embed")
    return 0


def _embedding_tables(args: argparse.Namespace, cfg: RunConfig) -> dict[Modality, EmbeddingTable]:
    root = _require(Path(args.embeddings), "embeddings directory")
    paths = {m: _require(root / m.name / "embeddings.csv", "embeddings table") for m in cfg.modalities}
    return {m: _read_embeddings_csv(path, m) for m, path in paths.items()}


def cmd_vectors(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    data, manifest = _manifest_for(args)
    tables = _embedding_tables(args, cfg)
    out = _out_dir(args)
    split = split_cohort(manifest, cfg.split_ratio, cfg.seed)
    vec_dir = out / "vectors"
    vec_dir.mkdir(parents=True, exist_ok=True)
    for outcome in _outcomes_for(cfg, manifest):
        for modality in cfg.modalities:
            vector = derive_vectors(tables, manifest, split.train_ids, outcome, modality)
            save_disease_vector(vector, vec_dir / f"{outcome}_{modality.name}.txt")
    save_split(split, out / "split.csv")
    _snapshot(cfg, out, "vectors")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _, manifest = _manifest_for(args)
    tables = _embedding_tables(args, cfg)
    vec_dir = _require(Path(args.vectors), "vectors directory")
    vec_paths = sorted(vec_dir.glob("*.txt"))
    if not vec_paths:
        raise MissingInputError(f"no disease-vector files under {vec_dir}")
    vectors = [load_disease_vector(p) for p in vec_paths]
    vectors = [v for v in vectors if v.modality in set(cfg.modalities)]
    out = _out_dir(args)
    save_scores(score_cohort(tables, vectors, manifest), out / "scores.csv")
    _snapshot(cfg, out, "score")
    return 0


def _split_scores(scores, split):
    train = [s for s in scores if s.subject_id in split.train_ids]
    test = [s for s in scores if s.subject_id in split.test_ids]
    return train, test


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _, manifest = _manifest_for(args)
    scores = load_scores(_require(Path(args.scores), "score table"))
    split = split_cohort(manifest, cfg.split_ratio, cfg.seed)
    train_scores, _ = _split_scores(scores, split)
    out = _out_dir(args)
    rows = odds_ratio_report(
        train_scores,
        manifest,
        split,
        outcomes=_outcomes_for(cfg, manifest),
        modalities=cfg.modalities,
        standardize=args.standardize,
    )
    save_or_report(rows, out / "or_report.csv")
    _snapshot(cfg, out, "fit")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _, manifest = _manifest_for(args)
    scores = load_scores(_require(Path(args.scores), "score table"))
    split = split_cohort(manifest, cfg.split_ratio, cfg.seed)
    train_scores, test_scores = _split_scores(scores, split)
    out = _out_dir(args)
    grid = evaluate_grid(
        train_scores,
        test_scores,
        manifest,
        split,
        outcomes=_outcomes_for(cfg, manifest),
        standardize=args.standardize,
    )
    (out / "grid.csv").write_text(grid.to_csv(), encoding="utf-8")
    _snapshot(cfg, out, "eval")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _, manifest = _manifest_for(args)
    scores = load_scores(_require(Path(args.scores), "score table"))
    split = split_cohort(manifest, cfg.split_ratio, cfg.seed)
    subject = args.subject
    if subject not in manifest.rows:
        raise DataError(f"manifest has no subject {subject!r}")
    modality = Modality.parse(args.modality)
    outcomes = _outcomes_for(cfg, manifest)
    current = {
        s.outcome: s.score
        for s in scores
        if s.subject_id == subject and s.modality is modality
    }
    positives: dict[str, list[float]] = {}
    for outcome in outcomes:
        labels = manifest.outcome_labels(outcome)
        positives[outcome] = [
            s.score
            for s in scores
            if s.modality is modality
            and s.outcome == outcome
            and s.subject_id in split.train_ids
            and labels.get(s.subject_id) == 1
        ]
    card = build_report_card(subject, modality, current, positives, outcomes)
    out = _out_dir(args)
    (out / f"report_{subject}.txt").write_text(render_report_card(card), encoding="utf-8")
    (out / f"report_{subject}.csv").write_text(report_card_csv(card), encoding="utf-8")
    print(render_report_card(card), end="")
    _snapshot(cfg, out, "report")
    return 0


# --- parser ------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=Path, default=None, help="INI config file")
    sp.add_argument("--out", required=True, help="output directory (all writes go here)")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None, help="worker threads for embed (env PSGP_THREADS)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psgp",
        description="Self-supervised sleep-signal risk profiling pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic cohort with planted effects")
    _add_common(sp)
    sp.add_argument("--subjects", type=int, default=None)
    sp.add_argument("--segments", type=int, default=None)
    sp.add_argument("--prevalence", action="append", default=None, metavar="NAME=P")
    sp.add_argument("--effect", action="append", default=None, metavar="OUTCOME:MODALITY=SIZE")
    sp.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    sp.add_argument("--waveform", choices=("sinusoid_mix", "band_noise"), default=None)
    sp.add_argument("--affected-fraction", dest="affected_fraction", type=float, default=None)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("train", help="pretrain one model per modality")
    _add_common(sp)
    sp.add_argument("--data", required=True, help="cohort directory (manifest.csv, signals/)")
    sp.add_argument("--modality", default=None, help="comma list or 'all'")
    sp.add_argument("--split-ratio", dest="split_ratio", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    sp.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    sp.add_argument("--mask-ratio", dest="mask_ratio", type=float, default=None)
    sp.add_argument("--permutations", type=int, default=None)
    sp.add_argument("--tcr-weight", dest="tcr_weight", type=float, default=None)
    sp.add_argument("--tcr-epsilon", dest="tcr_epsilon", type=float, default=None)
    sp.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
    sp.add_argument("--precision", choices=("f32", "f64"), default=None)
    sp.add_argument("--masked-only", dest="masked_only", action="store_true")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("embed", help="embed every segment with trained checkpoints")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--models", required=True, help="directory holding <MODALITY>/checkpoint.psgm")
    sp.add_argument("--modality", default=None)
    sp.add_argument("--embed-batch", dest="embed_batch", type=int, default=None)
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("vectors", help="derive disease vectors on the training split")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--embeddings", required=True, help="directory holding <MODALITY>/embeddings.csv")
    sp.add_argument("--modality", default=None)
    sp.add_argument("--outcomes", default=None, help="comma list (default: all in manifest)")
    sp.add_argument("--split-ratio", dest="split_ratio", type=float, default=None)
    sp.set_defaults(func=cmd_vectors)

    sp = sub.add_parser("score", help="project embeddings onto disease vectors")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--embeddings", required=True)
    sp.add_argument("--vectors", required=True, help="directory of disease-vector files")
    sp.add_argument("--modality", default=None)
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("fit", help="adjusted odds-ratio report on the training split")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--scores", required=True, help="scores.csv from the score step")
    sp.add_argument("--modality", default=None)
    sp.add_argument("--outcomes", default=None)
    sp.add_argument("--split-ratio", dest="split_ratio", type=float, default=None)
    sp.add_argument("--standardize", action="store_true")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("eval", help="predictor-set x outcome AUC grid on the test split")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--scores", required=True)
    sp.add_argument("--outcomes", default=None)
    sp.add_argument("--split-ratio", dest="split_ratio", type=float, default=None)
    sp.add_argument("--standardize", action="store_true")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("report", help="per-subject risk report card")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.add_argument("--scores", required=True)
    sp.add_argument("--subject", required=True)
    sp.add_argument("--modality", required=True)
    sp.add_argument("--outcomes", default=None)
    sp.add_argument("--split-ratio", dest="split_ratio", type=float, default=None)
    sp.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors itself
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except PsgpError as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return exc.exit_code


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
