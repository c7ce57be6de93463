"""Disease directions in embedding space and projection-based risk scores.

A modality's embeddings are one ``EmbeddingTable``: (N,) subject ids and the
(N, d) unit-norm segment embeddings. For one (outcome, modality) pair the
direction is the normalized difference of the segment-weighted centroids of
positive and of negative training subjects (two masked sums); a subject's
score is the mean of their top min(3, available) projections onto it (one
matrix product per modality, no thread pool).
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cohort import CohortManifest
from .errors import (
    DataError,
    DegenerateDirectionError,
    FormatError,
    InsufficientClassError,
    UnknownOutcomeError,
)
from .signalio import Modality

_DIRECTION_FLOOR = 1e-10
# a plain decimal number, the form save_scores writes (no "1_0", no non-ASCII digits)
_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)

EmbeddingTable = tuple[np.ndarray, np.ndarray]  # (subject_ids, X)


@dataclass(frozen=True)
class DiseaseVector:
    outcome: str
    modality: Modality
    vector: np.ndarray = field(repr=False)
    mu_positive: np.ndarray = field(repr=False)
    mu_negative: np.ndarray = field(repr=False)
    n_positive: int
    n_negative: int

    def __post_init__(self) -> None:
        for name in ("vector", "mu_positive", "mu_negative"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(arr).all():
                raise DataError(f"disease vector {name} has non-finite components")
            object.__setattr__(self, name, arr)
        if self.vector.ndim != 1:
            raise DataError("disease vector must be one-dimensional")
        if self.mu_positive.shape != self.vector.shape or self.mu_negative.shape != self.vector.shape:
            raise DataError("centroid dimensions disagree with the vector")
        if self.n_positive < 1 or self.n_negative < 1:
            raise InsufficientClassError("both classes must contribute at least one subject")
        if abs(float(np.linalg.norm(self.vector)) - 1.0) > 1e-9:
            raise DataError("disease vector must be unit-norm")


@dataclass(frozen=True)
class SubjectScore:
    subject_id: str
    outcome: str
    modality: Modality
    score: float
    n_segments_used: int


def _group_rows(subject_ids) -> tuple[list[str], np.ndarray]:
    """Sorted distinct subject ids and each row's index into them."""
    ids, inverse = np.unique(np.asarray(subject_ids, dtype=str), return_inverse=True)
    return ids.tolist(), inverse


def compute_centroids(subject_ids, X, labels: Mapping[str, int | None]) -> tuple[np.ndarray, np.ndarray]:
    """Segment-weighted class means of the rows of X, in float64.

    Rows of subjects with a missing label for this outcome are skipped. Each
    class sums its rows subject by subject in id order, then in table order.
    """
    ids, inverse = _group_rows(subject_ids)
    X = np.asarray(X)
    classes = np.array([-1 if labels.get(sid) is None else labels[sid] for sid in ids], dtype=np.int8)
    order = np.argsort(inverse, kind="stable")
    row_class = classes[inverse[order]]
    pos = X[order[row_class == 1]].astype(np.float64)
    neg = X[order[row_class == 0]].astype(np.float64)
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise InsufficientClassError(
            f"centroids need both classes (got {pos.shape[0]} positive, {neg.shape[0]} negative segments)"
        )
    return pos.sum(axis=0) / pos.shape[0], neg.sum(axis=0) / neg.shape[0]


def derive_disease_vector(
    mu_positive: np.ndarray,
    mu_negative: np.ndarray,
    outcome: str,
    modality: Modality,
    n_positive: int = 1,
    n_negative: int = 1,
) -> DiseaseVector:
    mu_positive = np.asarray(mu_positive, dtype=np.float64)
    mu_negative = np.asarray(mu_negative, dtype=np.float64)
    diff = mu_positive - mu_negative
    norm = float(np.linalg.norm(diff))
    if norm < _DIRECTION_FLOOR:
        raise DegenerateDirectionError(
            f"{outcome}/{modality.name}: class centroids coincide (|diff|={norm:.3e})"
        )
    return DiseaseVector(
        outcome=outcome,
        modality=modality,
        vector=diff / norm,
        mu_positive=mu_positive,
        mu_negative=mu_negative,
        n_positive=n_positive,
        n_negative=n_negative,
    )


def project_segment(embedding: np.ndarray, vector: DiseaseVector) -> float:
    vec = np.asarray(embedding, dtype=np.float64)
    if vec.shape != vector.vector.shape:
        raise DataError(f"embedding dimension {vec.shape} does not match vector {vector.vector.shape}")
    return float(vec @ vector.vector)


def subject_score(segment_projections: Sequence[float]) -> tuple[float, int]:
    """Mean of the top min(3, n) projections; returns (score, n_used)."""
    if len(segment_projections) == 0:
        raise InsufficientClassError("subject has no segment projections")
    arr = np.sort(np.asarray(segment_projections, dtype=np.float64))[::-1]
    k = min(3, arr.shape[0])
    return float(arr[:k].mean()), k


def derive_vectors(
    tables: Mapping[Modality, EmbeddingTable],
    manifest: CohortManifest,
    train_ids: Iterable[str],
    outcome: str,
    modality: Modality,
) -> DiseaseVector:
    """Centroid-difference vector from training subjects only."""
    if outcome not in manifest.outcome_names:
        raise UnknownOutcomeError(f"manifest has no outcome {outcome!r}")
    train = set(train_ids)
    labels = {s: y for s, y in manifest.outcome_labels(outcome).items() if s in train and y is not None}
    subject_ids, X = tables.get(modality, ((), np.empty((0, 0))))  # no table: no rows
    classes = [labels[sid] for sid in _group_rows(subject_ids)[0] if sid in labels]
    n_positive = sum(classes)
    n_negative = len(classes) - n_positive
    if n_positive == 0 or n_negative == 0:
        raise InsufficientClassError(
            f"{outcome}/{modality.name}: training split has {n_positive} positive and "
            f"{n_negative} negative subjects with embeddings"
        )
    mu_pos, mu_neg = compute_centroids(subject_ids, X, labels)
    return derive_disease_vector(
        mu_pos, mu_neg, outcome, modality, n_positive=n_positive, n_negative=n_negative
    )


def score_cohort(
    tables: Mapping[Modality, EmbeddingTable],
    vectors: Sequence[DiseaseVector],
    manifest: CohortManifest,
) -> list[SubjectScore]:
    """Project every manifest subject's rows onto every disease vector.

    Rows of subjects outside the manifest are ignored; a subject without rows
    for a modality gets no score for its vectors. Labels are not needed.
    Scores come out by subject id, then in the order of ``vectors``.
    """
    for vec in vectors:
        if vec.outcome not in manifest.outcome_names:
            raise UnknownOutcomeError(f"manifest has no outcome {vec.outcome!r}")
    found: list[tuple[str, int, float, int]] = []
    for modality, (subject_ids, X) in tables.items():
        picked = [j for j, vec in enumerate(vectors) if vec.modality is modality]
        if not picked:
            continue
        V = np.stack([vectors[j].vector for j in picked], axis=1)
        X = np.asarray(X)
        if X.shape[1] != V.shape[0]:
            raise DataError(f"{modality.name} embeddings have dimension {X.shape[1]}, vectors {V.shape[0]}")
        ids, inverse = _group_rows(subject_ids)
        keep = np.array([sid in manifest.rows for sid in ids], dtype=bool)[inverse]
        group = inverse[keep]
        projections = X[keep].astype(np.float64) @ V
        counts = np.bincount(group, minlength=len(ids))
        present = np.flatnonzero(counts)
        used = np.minimum(counts[present], 3)
        # where each subject's three best rows land once rows are ranked by
        # subject, then by projection; a slot past its last row is not averaged
        first = (np.cumsum(counts) - counts)[present]
        slots = np.minimum(first[:, None] + np.arange(3), group.shape[0] - 1)
        for col, j in enumerate(picked):
            top = projections[np.lexsort((-projections[:, col], group)), col][slots]
            score = np.empty(present.shape[0])
            for k in (1, 2, 3):  # a k-wide row mean adds like subject_score's
                score[used == k] = top[used == k, :k].mean(axis=1)
            found.extend((ids[s], j, v, k) for s, v, k in zip(present, score.tolist(), used.tolist()))
    found.sort(key=lambda f: f[:2])
    return [SubjectScore(sid, vectors[j].outcome, vectors[j].modality, v, k) for sid, j, v, k in found]


# --- on-disk formats ---------------------------------------------------

def save_disease_vector(vector: DiseaseVector, path: Path | str) -> None:
    """Structured text, full float64 precision so load() is exact."""
    def row(arr: np.ndarray) -> str:
        return " ".join(format(float(v), ".17g") for v in arr)

    lines = [
        f"outcome={vector.outcome}",
        f"modality={vector.modality.name}",
        f"d={vector.vector.shape[0]}",
        f"n_positive={vector.n_positive}",
        f"n_negative={vector.n_negative}",
        f"vector={row(vector.vector)}",
        f"mu_positive={row(vector.mu_positive)}",
        f"mu_negative={row(vector.mu_negative)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_disease_vector(path: Path | str) -> DiseaseVector:
    kv: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"{path}: malformed line {line!r}")
        key, _, value = line.partition("=")
        kv[key] = value
    try:
        outcome = kv["outcome"]
        modality = Modality.parse(kv["modality"])
        d = int(kv["d"])
        n_positive = int(kv["n_positive"])
        n_negative = int(kv["n_negative"])
        arrays = {
            name: np.array([float(t) for t in kv[name].split()], dtype=np.float64)
            for name in ("vector", "mu_positive", "mu_negative")
        }
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: incomplete or malformed vector file: {exc}") from exc
    for name, arr in arrays.items():
        if arr.shape[0] != d:
            raise FormatError(f"{path}: {name} has {arr.shape[0]} components, header says {d}")
    try:
        return DiseaseVector(
            outcome=outcome,
            modality=modality,
            vector=arrays["vector"],
            mu_positive=arrays["mu_positive"],
            mu_negative=arrays["mu_negative"],
            n_positive=n_positive,
            n_negative=n_negative,
        )
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_scores(scores: Sequence[SubjectScore], path: Path | str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "outcome", "modality", "score", "n_segments_used"])
        for s in sorted(scores, key=lambda s: (s.subject_id, s.outcome, s.modality.name)):
            writer.writerow([s.subject_id, s.outcome, s.modality.name, format(s.score, ".12g"), s.n_segments_used])


def load_scores(path: Path | str) -> list[SubjectScore]:
    path = Path(path)
    out: list[SubjectScore] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["subject_id", "outcome", "modality", "score", "n_segments_used"]:
            raise FormatError(f"{path}: unexpected score table header {header}")
        for rec in reader:
            where = f"{path}: line {reader.line_num}"
            if len(rec) != 5:
                raise FormatError(f"{where} has {len(rec)} cells, header has 5")
            sid, outcome, name, score, used = rec
            if not _DECIMAL.fullmatch(score) or not math.isfinite(float(score)):
                raise FormatError(f"{where}: score {score!r} is not a finite decimal number")
            if not (used.isascii() and used.isdigit() and int(used) >= 1):
                raise FormatError(f"{where}: n_segments_used {used!r} is not a positive integer")
            try:
                modality = Modality.parse(name)
            except DataError as exc:
                raise FormatError(f"{where}: {exc}") from exc
            out.append(SubjectScore(sid, outcome, modality, float(score), int(used)))
    return out
