"""Command-line pipeline: synth -> train -> embed -> vectors -> score -> fit/eval/report.

Every subcommand writes only under its --out directory, emits a resolved
configuration snapshot next to its outputs, and is deterministic given the
seed (training wallclock timings live only in train.log). Exit codes: 2 for
usage problems, 3 for data problems, 4 for numeric failures.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .cohort import CohortManifest, CohortSplit, load_manifest, save_split, split_cohort
from .config import RunConfig, load_run_config, parse_value, resolved_text, stage_configs
from .errors import (
    EXIT_DATA,
    DataError,
    FormatError,
    MissingInputError,
    PsgpError,
    UsageError,
    utf8_text,
)
from .model import embed_segments, load_checkpoint, save_checkpoint
from .pretrain import train
from .report import build_report_card, render_report_card, report_card_csv
from .signalio import Modality, SignalFile, SignalRows, samples_per_window
from .signalio import read_signal_file, segment_recording  # unused here: perfbench/spans.py wraps them by name
from .stats import Scores, evaluate_grid, odds_ratio_report, save_grid, save_or_report
from .synth import generate_cohort
from .tables import DECIMAL, is_count, table_rows, table_text, terminated_lines
from .vectors import (
    EmbeddingTable,
    derive_vectors,
    load_disease_vector,
    load_scores,
    save_disease_vector,
    save_scores,
    score_cohort,
    subject_codes,
)


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingInputError(f"{what} not found: {path}")
    return path


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The INI file, then each flag named after its field, parsed like its INI
    value; `stage_configs` checks the merged values before any input is read."""
    cfg = load_run_config(args.config)
    updates: dict[str, object] = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:  # --prevalence and --effect may repeat
            updates[f.name] = parse_value(f.name, value if isinstance(value, str) else ",".join(value))
    cfg = replace(cfg, **updates)
    stage_configs(cfg)
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise UsageError(f"--out {out} exists and is not a directory")
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    data: Path, modality: Modality, subject_ids, input_len: int
) -> SignalRows:
    """Every window of the given subjects' signal files, as rows read on demand.

    Each file is checked first, in sorted subject order, by
    `SignalFile.index` (one pass over the file in fixed blocks) and against
    the subject id, modality and window length asked for; only its header
    values and payload offset are kept, so memory does not grow with the
    cohort or the length of a night. Row order is subject order, then
    window order.
    """
    files: list[SignalFile] = []
    for sid in sorted(subject_ids):
        path = data / "signals" / f"{sid}_{modality.name}.psgs"
        if not path.exists():
            continue
        file = SignalFile.index(path)
        if file.subject_id != sid:
            raise DataError(f"{path}: file claims subject {file.subject_id!r}, expected {sid!r}")
        if file.modality is not modality:
            raise DataError(f"{path}: file claims modality {file.modality.name}, expected {modality.name}")
        spw = samples_per_window(file.sample_rate_hz)
        if spw != input_len:
            raise DataError(
                f"{path}: window of {spw} samples does not match the model input length {input_len}"
            )
        files.append(file)
    rows = SignalRows(files, input_len)
    if not len(rows):
        raise DataError(f"no {modality.name} segments found under {data / 'signals'}")
    return rows


# --- subcommands -------------------------------------------------------

def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> None:
    out = _out_dir(args)
    generate_cohort(stage_configs(cfg).synth, out)
    print((out / "effects.csv").read_text(encoding="utf-8"), end="")


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> None:
    data, manifest = _manifest_for(args)
    out = _out_dir(args)
    split = split_cohort(manifest, cfg.split_ratio, cfg.seed)
    if not split.train_ids:
        n = len(split.test_ids)
        raise DataError(f"split_ratio {cfg.split_ratio:g} gives no training subject among the {n} eligible")
    stages = stage_configs(cfg)
    inputs = {  # every modality's files are checked before any training
        m: _load_modality_segments(data, m, split.train_ids, stages.models[m].input_len)
        for m in cfg.modalities
    }
    for modality, X in inputs.items():
        mcfg = stages.models[modality]
        mod_dir = out / modality.name
        mod_dir.mkdir(parents=True, exist_ok=True)
        params, _ = train(X, mcfg, stages.ssl, mod_dir)
        save_checkpoint(params, mcfg, mod_dir / "checkpoint.psgm")
        print(f"trained {modality.name}: {X.shape[0]} segments -> {mod_dir / 'checkpoint.psgm'}")
    save_split(split, out / "split.csv")


def _embeddings_header(d: int) -> list[str]:
    return ["subject_id", "modality", "segment_index"] + [f"v{i}" for i in range(d)]


def _write_embeddings_csv(
    path: Path, subject_ids: np.ndarray, indices: np.ndarray, vectors: np.ndarray, modality: Modality
) -> None:
    """One row per segment: its subject id, its segment index within the
    subject's recording, and each value as ``%.9g`` (which round-trips float32).

    Subject ids follow ``cohort.check_name``, so no cell needs quoting and
    each row is one ``%``.
    """
    d = vectors.shape[1]
    row = f"%s,{modality.name},%d" + ",%.9g" * d + "\n"
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(table_text(_embeddings_header(d), ()))
        fh.writelines(
            row % (sid, idx, *vec)
            for sid, idx, vec in zip(subject_ids.tolist(), indices.tolist(), vectors.tolist())
        )


# characters of whole lines per chunk of the embeddings reader; bounds its
# transient memory, and the per-chunk cost of np.loadtxt stays small
_CHUNK_CHARS = 1 << 16


def _embedding_chunks(path: Path, modality: Modality) -> Iterator[EmbeddingTable]:
    """One modality's table as chunks of rows: (subject ids, (n, d) float32 values).

    The header is ``_embeddings_header(d)``, d >= 1, and the first chunk is
    its own: no rows, d columns. Then each chunk of about ``_CHUNK_CHARS``
    characters of whole lines has its key cells and unpadded ASCII values
    checked at once and is parsed with one ``np.loadtxt``. Any doubt (a
    segment index past int64 and a value float32 cannot hold among them)
    re-reads the table through ``table_rows`` to name its first bad line, so
    no chunk holding a non-finite value is yielded. Of the rows yielded only
    each one's (subject code, segment index) pair is kept: after the last
    chunk a pair on two lines is refused, naming its later line. Every line
    after the header must be a full row, so row i is line i + 2.
    """
    with path.open(encoding="utf-8") as fh, utf8_text(path):
        first = next(terminated_lines(fh, path, FormatError), "")[:-1]
        header = _embeddings_header(first.count(",") - 2)
        if len(header) < 4 or first != ",".join(header):
            raise FormatError(f"{path}: unexpected embeddings header")
        d = len(header) - 3
        yield (), np.empty((0, d), np.float32)
        codes: dict[str, int] = {}  # subject id -> code, in order of first row
        subjects, indices = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        try:
            while lines := fh.readlines(_CHUNK_CHARS):
                sids, index, X = _chunk_rows(lines, modality.name, d)
                subjects.append(subject_codes(codes, sids))
                indices.append(index)
                yield sids, X
        except ValueError:  # a UnicodeDecodeError too
            _raise_first_bad_line(path, modality, header)
            raise
    _refuse_repeated_segments(path, np.concatenate(subjects), np.concatenate(indices), list(codes))


def _chunk_rows(lines: list[str], name: str, d: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Subject ids, int64 segment indices and finite float32 values of whole
    table lines; ValueError on any line the line-by-line reader must look at."""
    sids, mods, index, tails = zip(*[line.split(",", 3) for line in lines])
    distinct = set(index)
    values = "".join(tails)
    if (
        not lines[-1].endswith("\n")
        or set(mods) != {name}
        or "" in distinct
        or not is_count("".join(distinct))  # all ASCII digits iff every cell is
        or "\n" in tails  # an empty value: loadtxt would skip the row as a blank line
        # np.loadtxt strips padding DECIMAL refuses: these characters or non-ASCII ones
        or not values.isascii()
        or any(pad in values for pad in " \t\v\f\x1c\x1d\x1e\x1f")
    ):
        raise ValueError("a line end, a key cell, an empty value or padding")
    try:
        index = np.fromiter(map(int, index), np.int64, len(index))
    except OverflowError:
        raise ValueError("a segment index past int64") from None
    block = _decimal_rows(tails)
    if block.shape != (len(lines), d):
        raise ValueError(f"rows of {block.shape[1]} values, header has {d}")
    with np.errstate(over="ignore"):  # beyond float32 range is caught as non-finite
        X = block.astype(np.float32)
    if not np.isfinite(X).all():
        raise ValueError("a value float32 cannot hold")
    return sids, index, X


def _refuse_repeated_segments(path: Path, subjects: np.ndarray, index: np.ndarray, names: list[str]) -> None:
    """Refuse a (subject code, segment_index) pair on two lines, naming the
    later one; ``names[code]`` is the subject's id."""
    order = np.lexsort((index, subjects))  # stable: equal keys keep their line order
    key_s, key_i = subjects[order], index[order]
    repeat = np.flatnonzero((key_s[1:] == key_s[:-1]) & (key_i[1:] == key_i[:-1]))
    if repeat.size:
        second = order[repeat + 1]
        row = second.min()
        first = order[repeat[second.argmin()]]
        raise FormatError(
            f"{path}: line {row + 2} repeats line {first + 2}: "
            f"subject {names[subjects[row]]!r}, segment_index {index[row]}"
        )


def _decimal_rows(rows: list[str]) -> np.ndarray:
    """2-D float64 array of a non-empty list of comma-separated number rows."""
    return np.loadtxt(rows, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _raise_first_bad_line(path: Path, modality: Modality, header: list[str]) -> None:
    """Raise a FormatError for the first bad line of a table the bulk pass
    doubted: a cut line end or a row of the wrong width (``table_rows``
    refuses those), a bad key cell, a segment index past int64, a value
    ``DECIMAL`` refuses or one float32 cannot hold."""
    name = modality.name
    for where, (_, mod, index, *values) in table_rows(path, header, FormatError):
        if mod != name:
            raise FormatError(f"{where}: modality {mod!r} in the {name} table")
        if not is_count(index):
            raise FormatError(f"{where}: segment_index {index!r} is not a non-negative integer")
        if int(index) >= 2**63:
            raise FormatError(f"{where}: segment index out of range")
        bad = next((v for v in values if not DECIMAL.fullmatch(v)), None)
        if bad is not None:
            raise FormatError(f"{where}: {bad!r} is not a decimal number")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.array(values, dtype=np.float64).astype(np.float32)).all():
                raise FormatError(f"{where}: non-finite embedding value")


def cmd_embed(args: argparse.Namespace, cfg: RunConfig) -> None:
    data, manifest = _manifest_for(args)
    models = _require(Path(args.models), "models directory")
    out = _out_dir(args)
    inputs = {}  # every modality's checkpoint and files are checked before any is embedded
    for modality, expect in stage_configs(cfg).models.items():
        ckpt_path = _require(models / modality.name / "checkpoint.psgm", "checkpoint")
        params, mcfg = load_checkpoint(ckpt_path, expect_config=expect)
        X = _load_modality_segments(data, modality, manifest.subject_ids, mcfg.input_len)
        inputs[modality] = params, mcfg, X
    for modality, (params, mcfg, X) in inputs.items():
        vecs = embed_segments(X, params, mcfg, threads=cfg.threads)
        mod_dir = out / modality.name
        mod_dir.mkdir(parents=True, exist_ok=True)
        _write_embeddings_csv(mod_dir / "embeddings.csv", X.subject_ids, X.window_indices, vecs, modality)
        print(f"embedded {modality.name}: {X.shape[0]} segments")


def _embedding_paths(args: argparse.Namespace, cfg: RunConfig) -> dict[Modality, Path]:
    root = _require(Path(args.embeddings), "embeddings directory")
    return {m: _require(root / m.name / "embeddings.csv", "embeddings table") for m in cfg.modalities}


def cmd_vectors(args: argparse.Namespace, cfg: RunConfig) -> None:
    data, manifest = _manifest_for(args)
    outcomes = _outcomes_for(cfg, manifest)
    tables = {m: _embedding_chunks(p, m) for m, p in _embedding_paths(args, cfg).items()}
    split = split_cohort(manifest, cfg.split_ratio, cfg.seed)
    vectors = derive_vectors(tables, manifest, split.train_ids, outcomes)
    out = _out_dir(args)
    (out / "vectors").mkdir(exist_ok=True)
    save_disease_vector(vectors, out / "vectors" / "vectors.csv")
    save_split(split, out / "split.csv")


def cmd_score(args: argparse.Namespace, cfg: RunConfig) -> None:
    _, manifest = _manifest_for(args)
    vec_dir = _require(Path(args.vectors), "vectors directory")
    path, nested = vec_dir / "vectors.csv", vec_dir / "vectors"
    if not path.exists() and (nested / "vectors.csv").exists():
        raise MissingInputError(f"disease-vector table not found: {path}; pass --vectors {nested}")
    vectors = load_disease_vector(_require(path, "disease-vector table"))
    vectors = {(o, m): v for (o, m), v in vectors.items() if m in cfg.modalities}
    missing = [m.name for m in cfg.modalities if m not in {k[1] for k in vectors}]
    if missing:
        raise MissingInputError(f"{path} has no disease vector for {','.join(missing)}")
    tables = {m: _embedding_chunks(p, m) for m, p in _embedding_paths(args, cfg).items()}
    scores = score_cohort(tables, vectors, manifest)
    save_scores(scores, _out_dir(args) / "scores.csv")


def _scores_and_split(args: argparse.Namespace, cfg: RunConfig) -> tuple[CohortManifest, Scores, CohortSplit]:
    _, manifest = _manifest_for(args)
    scores = load_scores(_require(Path(args.scores), "score table"))
    return manifest, scores, split_cohort(manifest, cfg.split_ratio, cfg.seed)


def cmd_fit(args: argparse.Namespace, cfg: RunConfig) -> None:
    manifest, scores, split = _scores_and_split(args, cfg)
    outcomes = _outcomes_for(cfg, manifest)
    report = odds_ratio_report(scores, manifest, split, outcomes=outcomes, modalities=cfg.modalities)
    save_or_report(report, _out_dir(args) / "or_report.csv")


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> None:
    manifest, scores, split = _scores_and_split(args, cfg)
    grid = evaluate_grid(scores, manifest, split, outcomes=_outcomes_for(cfg, manifest))
    save_grid(grid, _out_dir(args) / "grid.csv")


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> None:
    if len(cfg.modalities) != 1:
        names = ",".join(m.name for m in cfg.modalities)
        raise UsageError(f"report takes one modality, got {names}")
    (modality,) = cfg.modalities
    manifest, scores, split = _scores_and_split(args, cfg)
    subject = args.subject
    if subject not in manifest.rows:
        raise DataError(f"manifest has no subject {subject!r}")
    outcomes = _outcomes_for(cfg, manifest)
    current: dict[str, float] = {}
    positives: dict[str, list[float]] = {}  # the positive training subjects' scores, by id
    for o in outcomes:
        if (subject, o, modality) in scores:
            current[o] = scores[subject, o, modality]
        labels = manifest.outcome_labels(o)
        keys = [(sid, o, modality) for sid in sorted(split.train_ids) if labels[sid] == 1]
        positives[o] = [scores[k] for k in keys if k in scores]
    rows = build_report_card(subject, current, positives, outcomes)
    out = _out_dir(args)
    (out / f"report_{subject}.txt").write_text(render_report_card(rows), encoding="utf-8")
    (out / f"report_{subject}.csv").write_text(report_card_csv(rows), encoding="utf-8")
    print(render_report_card(rows), end="")


# --- parser ------------------------------------------------------------

# Every flag once, with its argparse keywords. A flag whose dest is a RunConfig
# field takes no argparse type: _resolve_config parses its text like the
# field's INI value.
_FLAGS: dict[str, dict] = {
    "--config": dict(help="INI config file"),
    "--out": dict(required=True, help="output directory (all writes go here)"),
    "--seed": {},
    "--threads": dict(help="threads that embed, the calling thread among them; other stages run on one"),
    "--data": dict(required=True, help="cohort directory (manifest.csv, signals/)"),
    "--models": dict(required=True, help="directory holding <MODALITY>/checkpoint.psgm"),
    "--embeddings": dict(required=True, help="directory holding <MODALITY>/embeddings.csv"),
    "--vectors": dict(required=True, help="directory holding vectors.csv from the vectors step"),
    "--scores": dict(required=True, help="scores.csv from the score step"),
    "--subject": dict(required=True),
    "--modality": dict(dest="modalities", metavar="MODALITY", help="comma list or 'all'"),
    "--outcomes": dict(help="comma list (default: all in manifest)"),
    "--split-ratio": {},
    "--subjects": dict(dest="n_subjects", metavar="SUBJECTS"),
    "--segments": dict(dest="segments_per_subject", metavar="SEGMENTS"),
    "--prevalence": dict(action="append", metavar="NAME=P"),
    "--effect": dict(dest="effects", action="append", metavar="OUTCOME:MODALITY=SIZE"),
    "--noise-sigma": {},
    "--affected-fraction": {},
    "--steps": {},
    "--batch-size": {},
    "--learning-rate": {},
    "--mask-ratio": {},
    "--permutations": dict(dest="n_permutations", metavar="PERMUTATIONS"),
    "--tcr-weight": {},
    "--tcr-epsilon": {},
    "--embed-dim": {},
    "--precision": dict(help="f32 or f64"),
}

# stage -> (function, help, its flags after --config --out --seed --threads)
_STAGES = {
    "synth": (cmd_synth, "generate a synthetic cohort with planted effects",
              "--subjects --segments --prevalence --effect --noise-sigma --affected-fraction"),
    "train": (cmd_train, "pretrain one model per modality",
              "--data --modality --split-ratio --steps --batch-size --learning-rate --mask-ratio "
              "--permutations --tcr-weight --tcr-epsilon --embed-dim --precision"),
    "embed": (cmd_embed, "embed every segment with trained checkpoints",
              "--data --models --modality --embed-dim --precision"),
    "vectors": (cmd_vectors, "derive disease vectors on the training split",
                "--data --embeddings --modality --outcomes --split-ratio"),
    "score": (cmd_score, "project embeddings onto disease vectors",
              "--data --embeddings --vectors --modality"),
    "fit": (cmd_fit, "adjusted odds-ratio report on the training split",
            "--data --scores --modality --outcomes --split-ratio"),
    "eval": (cmd_eval, "predictor-set x outcome AUC grid on the test split",
             "--data --scores --outcomes --split-ratio"),
    "report": (cmd_report, "per-subject risk report card",
               "--data --scores --subject --modality --outcomes --split-ratio"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psgp",
        description="Self-supervised sleep-signal risk profiling pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage, (func, help_text, flags) in _STAGES.items():
        sp = sub.add_parser(stage, help=help_text)
        for flag in ["--config", "--out", "--seed", "--threads", *flags.split()]:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors itself
        return int(exc.code) if exc.code else 0
    try:
        cfg = _resolve_config(args)
        args.func(args, cfg)
        snapshot = Path(args.out) / f"resolved_config_{args.command}.txt"
        snapshot.write_text(resolved_text(cfg), encoding="utf-8")
    except (PsgpError, OSError) as exc:  # an OSError (a path of the wrong kind) is a data error
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_DATA)
    return 0


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
